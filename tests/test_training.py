"""Determinism, convergence, divergence, and the model container."""

import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import ScalarSplitMix64, dataset_for_shape, multinomial_dataset, random_params
from ssse import (
    ContainerError,
    InputError,
    LossConfig,
    MLP,
    MultiAttrLinear,
    MultinomialLinear,
    TrainConfig,
    TrainingError,
    grad_mean,
    init_params,
    load_model,
    loss,
    make_blobs,
    retrain_scratch,
    save_model,
    train,
)
from ssse._splitmix import SplitMix64

TWO_BLOBS = [(-2.0, 0.0), (2.0, 0.0)]


def blob_data(seed=3, n_per_class=25):
    return make_blobs(seed, n_per_class, TWO_BLOBS, 0.9, id_prefix="tr")


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_init_params_is_seed_deterministic_and_bounded():
    shape = MultinomialLinear(n_classes=3, n_features=16)
    a = init_params(shape, 42)
    b = init_params(shape, 42)
    c = init_params(shape, 43)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.abs(a.values).max() < 1.0 / np.sqrt(16)
    assert a.seed == 42


def test_scalar_oracle_gives_the_published_first_output():
    assert ScalarSplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("size", [0, 1, 2, 2000])
@pytest.mark.parametrize("seed", [0, 5, -3, 2**64 - 1])
def test_splitmix_draws_are_bit_identical_to_the_scalar_oracle(seed, size):
    fast, slow = SplitMix64(seed), ScalarSplitMix64(seed)
    a = np.arange(size, dtype=np.int64)
    b = a.copy()
    fast.shuffle(a)
    slow.shuffle(b)
    np.testing.assert_array_equal(a, b)
    assert fast.next_u64() == slow.next_u64()
    u, v = fast.uniform_vector(size, -0.3, 0.7), slow.uniform_vector(size, -0.3, 0.7)
    assert u.dtype == v.dtype and u.tobytes() == v.tobytes()
    assert fast.next_u64() == slow.next_u64()


def test_init_params_equals_the_scalar_oracle_draws():
    shape = MLP(n_features=50, n_hidden=64, n_classes=10)
    bound = 1.0 / np.sqrt(50)
    expected = ScalarSplitMix64(7).uniform_vector(shape.n_params, -bound, bound)
    assert init_params(shape, 7).values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------

def test_same_seed_is_bitwise_identical():
    ds = blob_data()
    shape = MultinomialLinear(n_classes=2, n_features=2)
    cfg = TrainConfig(lr=0.3, epochs=40, batch_size=8, seed=5, momentum=0.9)
    a = train(ds, shape, LossConfig(0.01), cfg)
    b = train(ds, shape, LossConfig(0.01), cfg)
    np.testing.assert_array_equal(a.params.values, b.params.values)
    assert a.loss_history == b.loss_history


def test_two_seeds_agree_on_a_convex_problem():
    """With l2 > 0 the optimum is unique, so seeds only change the path."""
    ds = blob_data()
    shape = MultinomialLinear(n_classes=2, n_features=2)
    lc = LossConfig(l2_coeff=0.05)
    cfg1 = TrainConfig(lr=0.4, epochs=800, batch_size=50, seed=1, grad_tol=1e-10)
    cfg2 = TrainConfig(lr=0.4, epochs=800, batch_size=50, seed=2, grad_tol=1e-10)
    a = train(ds, shape, lc, cfg1)
    b = train(ds, shape, lc, cfg2)
    assert a.final_loss == pytest.approx(b.final_loss, abs=1e-6)
    np.testing.assert_allclose(a.params.values, b.params.values, atol=1e-3)


def test_full_batch_loss_decreases_monotonically():
    ds = blob_data(seed=9)
    shape = MultinomialLinear(n_classes=2, n_features=2)
    # full batch, no momentum, lr under the curvature bound
    cfg = TrainConfig(lr=0.2, epochs=60, batch_size=ds.n, seed=3, grad_tol=0.0)
    result = train(ds, shape, LossConfig(0.01), cfg)
    assert result.epochs_run == 60
    diffs = np.diff(result.loss_history)
    assert np.all(diffs <= 1e-12)


def test_grad_tol_stops_early_and_zero_disables():
    ds = blob_data()
    shape = MultinomialLinear(n_classes=2, n_features=2)
    lc = LossConfig(0.05)
    stopped = train(ds, shape, lc, TrainConfig(lr=0.4, epochs=500, batch_size=50, seed=1, grad_tol=1e-3))
    assert stopped.epochs_run < 500
    assert stopped.final_grad_norm <= 1e-3
    assert len(stopped.loss_history) == stopped.epochs_run
    ran_out = train(ds, shape, lc, TrainConfig(lr=0.4, epochs=20, batch_size=50, seed=1, grad_tol=0.0))
    assert ran_out.epochs_run == 20


def test_lr_schedule_factor_at_epoch_one_equals_smaller_lr():
    ds = blob_data()
    shape = MultinomialLinear(n_classes=2, n_features=2)
    lc = LossConfig(0.01)
    scheduled = TrainConfig(
        lr=0.4, epochs=15, batch_size=10, seed=7, grad_tol=0.0, lr_schedule=((1, 0.5),)
    )
    plain = TrainConfig(lr=0.2, epochs=15, batch_size=10, seed=7, grad_tol=0.0)
    a = train(ds, shape, lc, scheduled)
    b = train(ds, shape, lc, plain)
    np.testing.assert_array_equal(a.params.values, b.params.values)


def test_divergence_raises_training_error_naming_epoch():
    ds = blob_data()
    shape = MultinomialLinear(n_classes=2, n_features=2)
    cfg = TrainConfig(lr=1e150, epochs=10, batch_size=10, seed=1)
    # the l2 term feeds the blow-up back into the next gradient
    with pytest.raises(TrainingError, match="epoch"):
        train(ds, shape, LossConfig(l2_coeff=0.1), cfg)


@pytest.mark.parametrize("shape", [
    MultiAttrLinear(n_attrs=2, n_features=4),
    MultinomialLinear(n_classes=3, n_features=4),
    MLP(n_features=4, n_hidden=3, n_classes=3),
])
@pytest.mark.parametrize("grad_tol", [0.0, 1e-1])
def test_epoch_diagnostics_equal_loss_and_grad_mean_bit_for_bit(shape, grad_tol):
    ds = dataset_for_shape(shape, 12, n=60)
    cfg = LossConfig(l2_coeff=0.02)
    result = train(ds, shape, cfg, TrainConfig(lr=0.3, epochs=25, batch_size=16, seed=2,
                                               momentum=0.5, grad_tol=grad_tol))
    assert result.final_loss == loss(result.params, ds, cfg)
    assert result.final_grad_norm == float(np.linalg.norm(grad_mean(result.params, ds, cfg)))
    assert result.loss_history[-1] == result.final_loss
    assert len(result.loss_history) == result.epochs_run


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(lr=0.0, epochs=1, batch_size=1, seed=0)
    with pytest.raises(InputError):
        TrainConfig(lr=0.1, epochs=0, batch_size=1, seed=0)
    with pytest.raises(InputError):
        TrainConfig(lr=0.1, epochs=1, batch_size=0, seed=0)
    with pytest.raises(InputError):
        TrainConfig(lr=0.1, epochs=1, batch_size=1, seed=0, momentum=1.0)
    with pytest.raises(InputError):
        TrainConfig(lr=0.1, epochs=1, batch_size=1, seed=0, lr_schedule=((2, 0.5), (2, 0.1)))
    with pytest.raises(InputError):
        TrainConfig(lr=0.1, epochs=1, batch_size=1, seed=0, lr_schedule=((1, 0.0),))


# ---------------------------------------------------------------------------
# Retraining without the removed samples
# ---------------------------------------------------------------------------

def test_retrain_scratch_equals_training_on_the_remainder():
    ds = blob_data()
    shape = MultinomialLinear(n_classes=2, n_features=2)
    lc = LossConfig(0.01)
    cfg = TrainConfig(lr=0.3, epochs=30, batch_size=8, seed=4)
    removed = list(ds.ids[:5])
    a = retrain_scratch(ds, removed, shape, lc, cfg)
    b = train(ds.without(removed), shape, lc, cfg)
    np.testing.assert_array_equal(a.params.values, b.params.values)


def test_retrain_scratch_warns_when_a_class_empties():
    ds = blob_data(n_per_class=4)
    shape = MultinomialLinear(n_classes=2, n_features=2)
    class_two = [ds.ids[i] for i in range(ds.n) if ds.labels[i] == 2]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        retrain_scratch(
            ds, class_two, shape, LossConfig(0.01),
            TrainConfig(lr=0.2, epochs=3, batch_size=4, seed=1),
        )
    assert any("class" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "shape, kind, dims",
    [
        (MultiAttrLinear(n_attrs=2, n_features=4), 1, (2, 4, 0)),
        (MultinomialLinear(n_classes=3, n_features=4), 2, (3, 4, 0)),
        (MLP(n_features=3, n_hidden=5, n_classes=4), 3, (3, 5, 4)),
    ],
    ids=["multi_attr", "multinomial", "mlp"],
)
def test_model_round_trip(tmp_path, shape, kind, dims):
    params = random_params(shape, 21)
    lc = LossConfig(l2_coeff=0.125)
    path = str(tmp_path / "m.bin")
    save_model(params, lc, path)
    # header: magic (8 bytes), version (u8), shape kind (u8), dims (u64 x 3)
    assert struct.unpack_from("<B3Q", (tmp_path / "m.bin").read_bytes(), 9) == (kind, *dims)
    loaded, loaded_lc = load_model(path)
    assert loaded.shape == shape
    assert loaded.seed == params.seed
    assert loaded_lc == lc
    np.testing.assert_array_equal(loaded.values, params.values)


@pytest.mark.parametrize(
    "shape",
    [MultiAttrLinear(n_attrs=2, n_features=4), MultinomialLinear(n_classes=3, n_features=4)],
    ids=["multi_attr", "multinomial"],
)
def test_model_file_rejects_a_nonzero_unused_dim(tmp_path, shape):
    path = tmp_path / "m.bin"
    save_model(random_params(shape, 21), LossConfig(), str(path))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 26, 7)  # dim 2, unused by single-layer shapes
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="dim 2 is 7"):
        load_model(str(path))


def test_write_survives_a_stale_temp_directory(tmp_path):
    path = tmp_path / "model.bin"
    (tmp_path / "model.bin.tmp").mkdir()
    params = random_params(MultinomialLinear(n_classes=2, n_features=2), 3)
    save_model(params, LossConfig(), str(path))
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "model.bin.tmp"]


def test_model_file_rejects_fisher_magic(tmp_path):
    from ssse import BlockSpec, build_inverse_fisher, save_inverse_fisher

    ds = multinomial_dataset(2, 5, 2, 2)
    params = random_params(MultinomialLinear(n_classes=2, n_features=2), 1)
    finv = build_inverse_fisher(params, ds, LossConfig(), 0.1, BlockSpec.single(4), 1)
    path = str(tmp_path / "f.bin")
    save_inverse_fisher(finv, path)
    with pytest.raises(ContainerError, match="magic"):
        load_model(path)


def test_model_truncation_reports_offset(tmp_path):
    params = random_params(MultinomialLinear(n_classes=2, n_features=2), 2)
    path = str(tmp_path / "m.bin")
    save_model(params, LossConfig(), path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-4])
    with pytest.raises(ContainerError, match="truncated at byte"):
        load_model(path)

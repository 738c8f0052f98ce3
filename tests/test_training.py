"""Determinism, convergence, divergence, and the model container."""

import os
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    OracleDiverged,
    ScalarSplitMix64,
    dataset_for_shape,
    multinomial_dataset,
    random_params,
    train_oracle,
)
from ssse import (
    ContainerError,
    Dataset,
    InputError,
    LossConfig,
    MLP,
    ModelParams,
    MultiAttrLinear,
    MultinomialLinear,
    TrainConfig,
    TrainingError,
    grad_mean,
    init_params,
    load_model,
    loss,
    make_blobs,
    make_gaussian_classes,
    retrain_scratch,
    save_model,
    train,
)
from ssse import models, training
from ssse._container import CONTAINER_VERSION, MODEL_MAGIC
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
    assert int(fast._draws(1)[0]) == slow.next_u64()
    # a list is swapped in place and draws the same stream as an array
    items, expected = list(range(size)), list(range(size))
    fast.shuffle(items)
    slow.shuffle(expected)
    assert items == expected
    assert int(fast._draws(1)[0]) == slow.next_u64()
    u, v = fast.uniform_vector(size, -0.3, 0.7), slow.uniform_vector(size, -0.3, 0.7)
    assert u.dtype == v.dtype and u.tobytes() == v.tobytes()
    assert int(fast._draws(1)[0]) == slow.next_u64()


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
    assert np.float64(a.final_loss).tobytes() == np.float64(b.final_loss).tobytes()


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
    # full batch, no momentum, lr under the curvature bound; the first k
    # epochs do not depend on ``epochs``, so run k's final loss is epoch k's
    losses = []
    for epochs in range(1, 61):
        cfg = TrainConfig(lr=0.2, epochs=epochs, batch_size=ds.n, seed=3, grad_tol=0.0)
        result = train(ds, shape, LossConfig(0.01), cfg)
        assert result.epochs_run == epochs
        losses.append(result.final_loss)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-12)


def test_grad_tol_stops_early_and_zero_disables():
    ds = blob_data()
    shape = MultinomialLinear(n_classes=2, n_features=2)
    lc = LossConfig(0.05)
    stopped = train(ds, shape, lc, TrainConfig(lr=0.4, epochs=500, batch_size=50, seed=1, grad_tol=1e-3))
    assert stopped.epochs_run < 500
    assert stopped.final_grad_norm <= 1e-3
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


@pytest.mark.parametrize("family", ["multi_attr", "multinomial", "mlp"])
def test_divergence_names_the_epoch_of_the_first_non_finite_step(family):
    shape = LOOP_FAMILIES[family](4)
    ds = dataset_for_shape(shape, 4, 23)
    loss_cfg = LossConfig(l2_coeff=0.1)
    # a sane rate for two epochs, then one that overflows within the third
    cfg = TrainConfig(lr=0.1, epochs=6, batch_size=5, seed=3, momentum=0.9,
                      lr_schedule=((3, 1e150),))
    with np.errstate(all="ignore"), pytest.raises(OracleDiverged) as oracle:
        train_oracle(ds, shape, loss_cfg, cfg)
    assert oracle.value.epoch == 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingError) as err:
            train(ds, shape, loss_cfg, cfg)
    assert str(err.value) == "training diverged at epoch 3: non-finite parameters"
    assert caught == []


@pytest.mark.parametrize("factor", [1e150, 1e160, 1e170, 1e180, 1e200])
@pytest.mark.parametrize("batch_size", [40, 8])
@pytest.mark.parametrize("family", ["multi_attr", "multinomial", "mlp"])
def test_divergence_names_the_epoch_and_reason_the_epoch_end_loss_would(family, batch_size,
                                                                        factor):
    # a finite theta whose squared norm overflows makes the loss's L2 term
    # non-finite an epoch before theta itself overflows
    shape = LOOP_FAMILIES[family](4)
    ds = dataset_for_shape(shape, 3, 40)
    loss_cfg = LossConfig(l2_coeff=0.01)
    cfg = TrainConfig(lr=0.1, epochs=6, batch_size=batch_size, seed=3, momentum=0.0,
                      lr_schedule=((2, factor),))
    with np.errstate(all="ignore"), pytest.raises(OracleDiverged) as oracle:
        train_oracle(ds, shape, loss_cfg, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TrainingError) as err:
            train(ds, shape, loss_cfg, cfg)
    assert str(err.value) == (
        f"training diverged at epoch {oracle.value.epoch}: {oracle.value.reason}")
    if (family, batch_size, factor) == ("multinomial", 40, 1e160):
        assert str(err.value) == "training diverged at epoch 2: loss is not finite"


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("lr", [1e-300, 1e-200])
@pytest.mark.parametrize("family", ["multi_attr", "multinomial", "mlp"])
def test_divergence_at_an_epoch_end_pass_names_the_epoch_its_loss_would(family, lr, momentum):
    # features near the float64 limit: a step on finite parameters gives
    # non-finite probabilities, which the epoch-end pass sees before any
    # parameter is non-finite
    shape = LOOP_FAMILIES[family](4)
    base = dataset_for_shape(shape, 3, 40)
    ds = Dataset(np.clip(base.features, -1.0, 1.0) * 1e307, base.labels, base.ids)
    cfg = TrainConfig(lr=lr, epochs=4, batch_size=40, seed=1, momentum=momentum, grad_tol=1e-5)
    want = got = None  # no divergence
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            train_oracle(ds, shape, LossConfig(), cfg)
        except OracleDiverged as exc:
            want = f"training diverged at epoch {exc.epoch}: {exc.reason}"
        try:
            train(ds, shape, LossConfig(), cfg)
        except TrainingError as exc:
            got = str(exc)
    assert got == want
    if family == "multinomial":
        assert got == "training diverged at epoch 1: loss is not finite"


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


LOOP_FAMILIES = {
    "multi_attr": lambda m: MultiAttrLinear(n_attrs=2, n_features=m),
    "multinomial": lambda m: MultinomialLinear(n_classes=3, n_features=m),
    "mlp": lambda m: MLP(n_features=m, n_hidden=3, n_classes=3),
}

# (features, rows, TrainConfig settings); lr, epochs, seed and grad_tol default below
LOOP_CASES = {
    "short-last-batch": (4, 23, dict(batch_size=5, momentum=0.9)),
    "batch-equals-n": (4, 23, dict(batch_size=23, momentum=0.9)),
    "batch-above-n": (4, 23, dict(batch_size=40, momentum=0.0)),
    "momentum-0": (4, 30, dict(batch_size=8, momentum=0.0)),
    "lr-schedule": (4, 30, dict(batch_size=8, momentum=0.9, lr_schedule=((2, 0.5), (5, 0.2)))),
    "grad-tol-stop": (4, 30, dict(batch_size=30, momentum=0.5, epochs=400, grad_tol=2e-3)),
    # 56-byte rows in 3-row batches: every other slice starts 8 bytes off a 16-byte boundary
    "7-features": (7, 25, dict(batch_size=3, momentum=0.9)),
    # one-row steps: the softmax's one-row class sums and a one-row delta^T x
    "batch-1": (4, 23, dict(batch_size=1, momentum=0.9)),
}


def assert_train_equals_oracle(ds, shape, loss_cfg, cfg):
    result = train(ds, shape, loss_cfg, cfg)
    theta, history, grad_norm, epochs_run = train_oracle(ds, shape, loss_cfg, cfg)
    assert result.params.values.tobytes() == theta.tobytes()
    assert np.float64(result.final_loss).tobytes() == np.float64(history[-1]).tobytes()
    assert np.float64(result.final_grad_norm).tobytes() == np.float64(grad_norm).tobytes()
    assert result.epochs_run == epochs_run
    return result


@pytest.mark.parametrize("case", LOOP_CASES)
@pytest.mark.parametrize("family", LOOP_FAMILIES)
def test_train_equals_the_plain_loop_byte_for_byte(family, case):
    m, n, settings = LOOP_CASES[case]
    shape = LOOP_FAMILIES[family](m)
    ds = dataset_for_shape(shape, 4, n)
    loss_cfg = LossConfig(l2_coeff=0.05)
    cfg = TrainConfig(**{"lr": 0.3, "epochs": 8, "seed": 3, "grad_tol": 0.0, **settings})
    result = assert_train_equals_oracle(ds, shape, loss_cfg, cfg)
    if case == "grad-tol-stop":
        assert result.epochs_run < cfg.epochs


@pytest.mark.parametrize("family", LOOP_FAMILIES)
def test_the_epoch_end_pass_leaves_no_trace_in_the_trained_model(family):
    # a grad_tol no epoch meets runs an epoch-end pass after every epoch
    # (on the MLP one that ends after the head block); 0 runs it after the last only
    shape = LOOP_FAMILIES[family](4)
    ds = dataset_for_shape(shape, 4, 30)
    settings = dict(lr=0.3, epochs=8, batch_size=8, seed=3, momentum=0.9)
    a, b = (train(ds, shape, LossConfig(0.05), TrainConfig(grad_tol=grad_tol, **settings))
            for grad_tol in (0.0, 1e-300))
    assert a.params.values.tobytes() == b.params.values.tobytes()
    assert np.float64(a.final_loss).tobytes() == np.float64(b.final_loss).tobytes()
    assert np.float64(a.final_grad_norm).tobytes() == np.float64(b.final_grad_norm).tobytes()
    assert a.epochs_run == b.epochs_run == settings["epochs"]


MLP_TOL_SHAPE = MLP(n_features=4, n_hidden=3, n_classes=3)
MLP_TOL_SETTINGS = dict(lr=0.3, batch_size=8, seed=3, momentum=0.5)


def mlp_oracle_epochs(epochs):
    """Per epoch k = 1..epochs, the plain loop's theta after k epochs and its full gradient norm."""
    ds = dataset_for_shape(MLP_TOL_SHAPE, 4, 30)
    out = []
    for k in range(1, epochs + 1):
        cfg = TrainConfig(epochs=k, grad_tol=0.0, **MLP_TOL_SETTINGS)
        theta, _, grad_norm, _ = train_oracle(ds, MLP_TOL_SHAPE, LossConfig(0.05), cfg)
        out.append((theta, grad_norm))
    return ds, out


def test_mlp_grad_tol_equal_to_an_epochs_norm_stops_at_that_epoch():
    ds, epochs = mlp_oracle_epochs(12)
    norms = [grad_norm for _, grad_norm in epochs]
    k = int(np.argmin(norms)) + 1
    assert k > 1
    cfg = TrainConfig(epochs=20, grad_tol=norms[k - 1], **MLP_TOL_SETTINGS)
    result = assert_train_equals_oracle(ds, MLP_TOL_SHAPE, LossConfig(0.05), cfg)
    assert result.epochs_run == k and result.final_grad_norm == cfg.grad_tol


def test_mlp_grad_tol_between_the_head_and_the_full_norm_changes_nothing():
    ds, epochs = mlp_oracle_epochs(12)
    norms = [grad_norm for _, grad_norm in epochs]
    k = int(np.argmin(norms)) + 1
    rows, cols = MLP_TOL_SHAPE.layers[-1]
    params = ModelParams(values=epochs[k - 1][0], shape=MLP_TOL_SHAPE, seed=3)
    head = grad_mean(params, ds, LossConfig(0.05))[MLP_TOL_SHAPE.n_params - rows * cols:]
    head_norm = float(np.linalg.norm(head))
    # the head block alone cannot rule out a stop, the full norm never meets the bound
    grad_tol = (head_norm + norms[k - 1]) / 2
    assert head_norm * (1 + 1e-6) < grad_tol < min(norms)
    cfg = TrainConfig(epochs=12, grad_tol=grad_tol, **MLP_TOL_SETTINGS)
    result = assert_train_equals_oracle(ds, MLP_TOL_SHAPE, LossConfig(0.05), cfg)
    assert result.epochs_run == 12


@pytest.mark.parametrize("grad_tol", [1e-7, 0.0])
def test_epoch_gradient_reaches_the_first_layer_on_the_last_epoch_only(monkeypatch, grad_tol):
    # the 50-64-10 MLP of the benchmark workload, on fewer epochs
    ds = make_gaussian_classes(31, 200, 50, 10, spread=2.0, center_seed=31)
    shape = MLP(n_features=50, n_hidden=64, n_classes=10)
    cfg = TrainConfig(lr=0.1, epochs=6, batch_size=100, seed=5, momentum=0.9, grad_tol=grad_tol)
    calls, nets = [], []
    real = models._BoundNet.backward

    def spy(net, forward, targets):
        # an epoch-end pass is the one whose first layer input is the training set
        starts = []
        calls.append((forward[0][0] is ds.features, starts))
        nets.append(net)
        for item in real(net, forward, targets):
            starts.append(shape.spans[item[0]][0])
            yield item

    monkeypatch.setattr(models._BoundNet, "backward", spy)
    result = train(ds, shape, LossConfig(0.01), cfg)
    monkeypatch.undo()
    head_start = shape.n_params - 10 * 64
    steps = [starts for epoch_end, starts in calls if not epoch_end]
    ends = [starts for epoch_end, starts in calls if epoch_end]
    assert len(steps) == cfg.epochs * 20 and all(s == [head_start, 0] for s in steps)
    assert ends == [[head_start]] * (cfg.epochs - 1) * (grad_tol > 0) + [[head_start, 0]]
    assert all(net is nets[0] for net in nets)  # one binding per call
    assert result.epochs_run == cfg.epochs
    assert result.final_grad_norm == float(np.linalg.norm(
        grad_mean(result.params, ds, LossConfig(0.01))))


@pytest.mark.parametrize("grad_tol", [1e-12, 0.0])
@pytest.mark.parametrize("family", LOOP_FAMILIES)
def test_train_takes_one_loss_per_call_and_a_full_data_pass_only_where_it_stops(
        monkeypatch, family, grad_tol):
    shape = LOOP_FAMILIES[family](4)
    ds = dataset_for_shape(shape, 4, 23)
    cfg = TrainConfig(lr=0.3, epochs=5, batch_size=8, seed=3, momentum=0.5, grad_tol=grad_tol)
    # "b" a minibatch forward, "F" a forward over the whole training set, "L" a data loss
    events = []
    real_forward, real_loss = models._BoundNet.forward, models._loss_from_proba

    def forward_spy(net, features):
        events.append("F" if features is ds.features else "b")
        return real_forward(net, features)

    def loss_spy(p, dataset, values, cfg):
        events.append("L")
        return real_loss(p, dataset, values, cfg)

    monkeypatch.setattr(models._BoundNet, "forward", forward_spy)
    for module in (models, training):
        monkeypatch.setattr(module, "_loss_from_proba", loss_spy)
    result = train(ds, shape, LossConfig(0.05), cfg)
    monkeypatch.undo()
    assert result.epochs_run == cfg.epochs
    epoch = "bbb" + "F" * (grad_tol > 0)
    assert "".join(events) == epoch * (cfg.epochs - 1) + "bbbFL"


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


@pytest.mark.parametrize("epoch", [2.7, float("nan"), float("inf"), -float("inf")])
def test_lr_schedule_refuses_an_epoch_that_is_not_a_whole_number(epoch):
    refusal = f"^lr_schedule epoch must be a whole number, got {epoch}$"
    with pytest.raises(InputError, match=refusal):
        TrainConfig(lr=0.1, epochs=5, batch_size=1, seed=0, lr_schedule=((epoch, 0.5),))


@pytest.mark.parametrize("name", ["epochs", "batch_size", "seed"])
@pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), -float("inf"), "3"])
def test_train_config_refuses_a_count_that_is_not_a_whole_number(name, value):
    settings = {"lr": 0.1, "epochs": 2, "batch_size": 4, "seed": 0, name: value}
    bound = "" if name == "seed" else " >= 1"
    with pytest.raises(InputError, match=f"^{name} must be a whole number{bound}, got {value}$"):
        TrainConfig(**settings)


@pytest.mark.parametrize("name", ["epochs", "batch_size"])
def test_train_config_counts_start_at_one(name):
    settings = {"lr": 0.1, "epochs": 2, "batch_size": 4, "seed": -5, name: 0}
    with pytest.raises(InputError, match=f"^{name} must be a whole number >= 1, got 0$"):
        TrainConfig(**settings)


@pytest.mark.parametrize("name", ["epochs", "batch_size", "seed"])
def test_train_config_stores_whole_number_floats_as_ints(name):
    shape = MultiAttrLinear(n_attrs=2, n_features=3)
    ds = dataset_for_shape(shape, 1, 12)
    settings = {"lr": 0.1, "epochs": 2, "batch_size": 4, "seed": 3}
    cfg = TrainConfig(**{**settings, name: np.float64(settings[name])})
    assert type(getattr(cfg, name)) is int and cfg == TrainConfig(**settings)
    got, want = (train(ds, shape, LossConfig(), c).params.values
                 for c in (cfg, TrainConfig(**settings)))
    assert got.tobytes() == want.tobytes()


def test_lr_schedule_accepts_whole_number_floats_as_ints():
    cfg = TrainConfig(lr=0.1, epochs=50, batch_size=1, seed=0,
                      lr_schedule=((2.0, 0.5), (np.float64(40.0), 0.1)))
    assert cfg.lr_schedule == ((2, 0.5), (40, 0.1))
    assert all(type(e) is int for e, _ in cfg.lr_schedule)


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


@pytest.mark.parametrize("kind, dims, refusal", [
    (1, (0, 4, 0), "MultiAttrLinear.n_attrs must be a whole number >= 1, got 0"),
    (2, (2, 0, 0), "MultinomialLinear.n_features must be a whole number >= 1, got 0"),
    (3, (3, 0, 2), "MLP.n_hidden must be a whole number >= 1, got 0"),
], ids=["multi_attr", "multinomial", "mlp"])
def test_model_file_with_an_impossible_shape_is_refused_naming_its_path(tmp_path, kind, dims,
                                                                        refusal):
    path = tmp_path / "m.bin"
    # magic, version, shape kind, dims, seed, l2_coeff, and d = 0 (the shape's n_params)
    path.write_bytes(MODEL_MAGIC + struct.pack("<BB3QqdQ", CONTAINER_VERSION, kind, *dims,
                                               0, 0.0, 0))
    with pytest.raises(ContainerError, match=f"^{re.escape(f'{path}: {refusal}')}$"):
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

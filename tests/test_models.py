"""Gradient, Hessian, probability, and dataset-container behavior.

Analytic derivatives are checked against central finite differences,
which are computed without any knowledge of the model families.
"""

import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

from helpers import (
    backward_oracle,
    binary_dataset,
    dataset_for_shape,
    fd_grad,
    fd_hessian,
    forward_oracle,
    loss_of_values,
    masked_sigmoid,
    multinomial_dataset,
    random_params,
    random_shape,
    sigmoid_oracle,
    softmax_oracle,
    softmax_ratio_check_oracle,
)
from ssse import (
    BlockSpec,
    Dataset,
    InputError,
    LossConfig,
    MLP,
    ModelParams,
    MultiAttrLinear,
    MultinomialLinear,
    SplitData,
    SplitSet,
    TrainResult,
    build_inverse_fisher,
    fisher_hessian_ratio_check,
    grad,
    grad_matrix,
    grad_mean,
    grad_sum,
    hessian_dense,
    loss,
    make_ids,
    make_parallel_planes_binary,
    make_separable_subspace,
    onehot,
    params_digest,
    predict_labels,
    predict_proba,
)
from ssse.cli import Pipeline
from ssse.models import _backward, _forward, _grad_sums, _sigmoid, _softmax, _targets


# ---------------------------------------------------------------------------
# Probabilities and losses
# ---------------------------------------------------------------------------

def test_softmax_rows_sum_to_one_even_for_extreme_logits():
    shape = MultinomialLinear(n_classes=4, n_features=3)
    params = ModelParams(values=200.0 * np.arange(12.0), shape=shape)
    x = np.array([[5.0, -3.0, 2.0], [0.0, 0.0, 0.0]])
    p = predict_proba(params, x)
    assert p.shape == (2, 4)
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_sigmoid_probabilities_bounded():
    shape = MultiAttrLinear(n_attrs=2, n_features=2)
    params = ModelParams(values=np.array([500.0, 0.0, -500.0, 0.0]), shape=shape)
    p = predict_proba(params, np.array([[10.0, 1.0]]))
    assert np.all(p > 0) and np.all(p < 1)


def test_sigmoid_is_bit_identical_to_the_masked_form():
    extremes = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0,
                         np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(0)
    for z in (extremes, 30.0 * rng.standard_normal((200, 8))):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(_sigmoid(z), masked_sigmoid(z), equal_nan=True)


def test_head_kernels_are_bit_identical_to_the_out_of_place_formulas():
    extremes = np.array([[0.0, -0.0, 1e-300, -1e-300], [40.0, -40.0, 800.0, -800.0],
                         [800.0, 800.0, -800.0, 0.0], [np.inf, -np.inf, 0.0, 1.0],
                         [np.nan, 0.0, 1.0, 2.0], [-800.0, -800.0, -800.0, -800.0]])
    rng = np.random.default_rng(1)
    for z in (extremes, 30.0 * rng.standard_normal((200, 8)), rng.standard_normal((7, 2))):
        before = z.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(_sigmoid(z), sigmoid_oracle(z), equal_nan=True)
            assert np.array_equal(_softmax(z), softmax_oracle(z), equal_nan=True)
        assert np.array_equal(z, before, equal_nan=True)  # the logits are left alone


@pytest.mark.parametrize("scale", [0.5, 60.0], ids=["moderate", "saturated"])
@pytest.mark.parametrize(
    "shape",
    [MultiAttrLinear(n_attrs=3, n_features=5), MultinomialLinear(n_classes=4, n_features=5),
     MLP(n_features=5, n_hidden=6, n_classes=4)],
    ids=["multi-attr", "multinomial", "mlp"],
)
def test_forward_and_backward_are_bit_identical_to_the_out_of_place_oracle(shape, scale):
    ds = dataset_for_shape(shape, 11, n=40)
    values = random_params(shape, 12, scale=scale).values
    targets = _targets(shape, ds.labels)
    inputs, p = _forward(shape, values, ds.features)
    want_inputs, want_p = forward_oracle(shape, values, ds.features)
    assert np.array_equal(p, want_p)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, want_inputs, strict=True))
    # a hidden layer's input is overwritten once the next layer is drawn
    got = [(start, stop, delta.copy(), x.copy())
           for start, stop, delta, x in _backward(shape, values, ds.features, targets)]
    want = backward_oracle(shape, values, ds.features, targets)
    assert len(got) == len(want) == len(shape.layers)
    for (start, stop, delta, x), (w_start, w_stop, w_delta, w_x) in zip(got, want):
        assert (start, stop) == (w_start, w_stop)
        assert np.array_equal(delta, w_delta) and np.array_equal(x, w_x)
    want_total = np.empty(shape.n_params)
    want_rows = np.empty((ds.n, shape.n_params))
    for start, stop, delta, x in want:
        want_total[start:stop] = (delta.T @ x).ravel()
        want_rows[:, start:stop] = (delta[:, :, None] * x[:, None, :]).reshape(ds.n, -1)
    want_total += (ds.n * 0.3) * values
    want_rows += 0.3 * values
    forward = _forward(shape, values, ds.features)
    assert np.array_equal(_grad_sums(shape, values, ds.features, targets, 0.3, forward=forward),
                          want_total[None])
    assert np.array_equal(_grad_sums(shape, values, ds.features, targets, 0.3), want_total[None])
    rows = _grad_sums(shape, values, ds.features, targets, 0.3, 1)
    assert np.array_equal(rows, want_rows)
    params = ModelParams(values=values, shape=shape)
    assert np.array_equal(rows, grad_matrix(params, ds.features, ds.labels, LossConfig(0.3)))
    # 40 rows: groups of 3 end in a short group of 1, groups of 45 are one short group
    for size in (2, 3, ds.n, ds.n + 5):
        starts = np.arange(0, ds.n, size)
        want_sums = np.add.reduceat(want_rows, starts, axis=0)
        got = _grad_sums(shape, values, ds.features, targets, 0.3, size)
        # the sums round in another order; entries near zero carry the
        # rounding of the largest, so the bound scales with it
        np.testing.assert_allclose(got, want_sums, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_sums).max())
    # zero rows: one zero row for all rows, no groups of a given size
    for size, want_shape in ((None, (1, shape.n_params)), (1, (0, shape.n_params)),
                             (3, (0, shape.n_params))):
        got = _grad_sums(shape, values, ds.features[:0], targets[:0], 0.3, size)
        assert got.shape == want_shape and not got.any()


def test_mlp_gradient_sum_from_a_forward_pass_allocates_one_hidden_sized_array():
    shape = MLP(n_features=50, n_hidden=64, n_classes=10)
    n = 2000
    ds = dataset_for_shape(shape, 3, n=n)
    values = random_params(shape, 4).values
    targets = _targets(shape, ds.labels)
    forward = _forward(shape, values, ds.features)
    tracemalloc.start()
    try:
        _grad_sums(shape, values, ds.features, targets, 0.1, forward=forward)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * shape.n_hidden * 8


def test_loss_at_zero_parameters_is_log_class_count():
    ds = multinomial_dataset(0, 12, 3, 5)
    shape = MultinomialLinear(n_classes=5, n_features=3)
    params = ModelParams(values=np.zeros(shape.n_params), shape=shape)
    assert loss(params, ds, LossConfig()) == pytest.approx(math.log(5), abs=1e-12)


def test_loss_at_zero_parameters_is_attr_count_times_log_two():
    ds = binary_dataset(1, 10, 4, 3)
    shape = MultiAttrLinear(n_attrs=3, n_features=4)
    params = ModelParams(values=np.zeros(shape.n_params), shape=shape)
    assert loss(params, ds, LossConfig()) == pytest.approx(3 * math.log(2), abs=1e-12)


def test_l2_term_added_to_loss():
    ds = multinomial_dataset(2, 6, 2, 2)
    shape = MultinomialLinear(n_classes=2, n_features=2)
    params = random_params(shape, 3)
    bare = loss(params, ds, LossConfig())
    reg = loss(params, ds, LossConfig(l2_coeff=0.2))
    expected = bare + 0.1 * float(params.values @ params.values)
    assert reg == pytest.approx(expected, rel=1e-12)


def test_predict_labels_argmax_plus_one_and_threshold():
    mshape = MultinomialLinear(n_classes=3, n_features=2)
    theta = np.zeros((3, 2))
    theta[2] = [1.0, 0.0]
    params = ModelParams(values=theta.ravel(), shape=mshape)
    labels = predict_labels(params, np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert labels[0] == 3
    # exact logit tie at the origin resolves to the lowest class index
    assert labels[1] == 1

    bshape = MultiAttrLinear(n_attrs=1, n_features=1)
    bparams = ModelParams(values=np.array([1.0]), shape=bshape)
    preds = predict_labels(bparams, np.array([[2.0], [-2.0]]))
    assert preds.tolist() == [[1], [0]]


def test_onehot():
    out = onehot(np.array([2, 1, 3]), 3)
    np.testing.assert_array_equal(out, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


# ---------------------------------------------------------------------------
# Gradients against finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_grad_mean_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    ds = dataset_for_shape(shape, seed + 100, n=7)
    cfg = LossConfig(l2_coeff=float(rng.uniform(0, 0.3)))
    params = random_params(shape, seed + 200)
    analytic = grad_mean(params, ds, cfg)
    numeric = fd_grad(loss_of_values(shape, ds, cfg), params.values)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_grad_matrix_rows_are_per_sample_gradients(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    ds = dataset_for_shape(shape, seed + 10, n=5)
    cfg = LossConfig(l2_coeff=0.05)
    params = random_params(shape, seed + 20)
    rows = grad_matrix(params, ds.features, ds.labels, cfg)
    assert rows.shape == (ds.n, shape.n_params)
    for i in range(ds.n):
        single = Dataset(
            features=ds.features[i : i + 1],
            labels=ds.labels[i : i + 1],
            ids=(ds.ids[i],),
        )
        np.testing.assert_allclose(
            rows[i],
            fd_grad(loss_of_values(shape, single, cfg), params.values),
            atol=1e-6,
        )


def test_grad_single_sample_wrapper_matches_matrix():
    shape = MultinomialLinear(n_classes=3, n_features=2)
    params = random_params(shape, 5)
    cfg = LossConfig(l2_coeff=0.1)
    x = np.array([0.3, -1.2])
    g_one = grad(params, x, 2, cfg)
    g_row = grad_matrix(params, x[None, :], np.array([2]), cfg)[0]
    np.testing.assert_array_equal(g_one, g_row)


def test_grad_sum_adds_selected_rows():
    ds = multinomial_dataset(7, 8, 3, 3)
    shape = MultinomialLinear(n_classes=3, n_features=3)
    params = random_params(shape, 8)
    cfg = LossConfig(l2_coeff=0.01)
    picked = [ds.ids[1], ds.ids[4], ds.ids[6]]
    total = grad_sum(params, ds, picked, cfg)
    rows = grad_matrix(params, ds.features, ds.labels, cfg)
    np.testing.assert_allclose(total, rows[[1, 4, 6]].sum(axis=0), rtol=1e-12)


FAMILIES = [
    MultiAttrLinear(n_attrs=3, n_features=4),
    MultinomialLinear(n_classes=3, n_features=4),
    MLP(n_features=4, n_hidden=5, n_classes=3),
]


@pytest.mark.parametrize("n", [1, 23])
@pytest.mark.parametrize("l2_coeff", [0.0, 0.07])
@pytest.mark.parametrize("shape", FAMILIES, ids=["multi_attr", "multinomial", "mlp"])
def test_grad_mean_and_sum_match_the_per_sample_rows(shape, l2_coeff, n):
    ds = dataset_for_shape(shape, 3, n)
    params = random_params(shape, 4)
    cfg = LossConfig(l2_coeff=l2_coeff)
    rows = grad_matrix(params, ds.features, ds.labels, cfg)
    np.testing.assert_allclose(grad_mean(params, ds, cfg), rows.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(grad_sum(params, ds, ds.ids, cfg), rows.sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(grad_sum(params, ds, ds.ids[-1:], cfg), rows[-1], rtol=1e-12)


def test_grad_matrix_writes_into_out_and_refuses_a_wrong_buffer():
    shape = MultinomialLinear(n_classes=3, n_features=2)
    ds = multinomial_dataset(2, 4, 2, 3)
    params = random_params(shape, 3)
    cfg = LossConfig(l2_coeff=0.1)
    buf = np.empty((4, shape.n_params))
    assert grad_matrix(params, ds.features, ds.labels, cfg, out=buf) is buf
    np.testing.assert_array_equal(buf, grad_matrix(params, ds.features, ds.labels, cfg))
    wrong = [
        np.empty((3, shape.n_params)),
        np.empty((4, shape.n_params + 1)),
        np.empty((4, shape.n_params), dtype=np.float32),
        np.empty((shape.n_params, 4)).T,
    ]
    for bad in wrong:
        with pytest.raises(InputError, match="out must be"):
            grad_matrix(params, ds.features, ds.labels, cfg, out=bad)


def test_two_class_softmax_gradient_mirrors_binary_head():
    """A 2-class softmax with row one pinned at zero is the sigmoid model."""
    m = 3
    rng = np.random.default_rng(11)
    w = rng.standard_normal(m)
    x = rng.standard_normal(m)
    cfg = LossConfig()

    bshape = MultiAttrLinear(n_attrs=1, n_features=m)
    bparams = ModelParams(values=w.copy(), shape=bshape)
    g_binary = grad(bparams, x, np.array([1], dtype=np.uint8), cfg)

    mshape = MultinomialLinear(n_classes=2, n_features=m)
    theta = np.zeros((2, m))
    theta[1] = w
    mparams = ModelParams(values=theta.ravel(), shape=mshape)
    g_soft = grad(mparams, x, 2, cfg).reshape(2, m)

    np.testing.assert_allclose(g_soft[1], g_binary, atol=1e-12)
    np.testing.assert_allclose(g_soft[0], -g_binary, atol=1e-12)


# ---------------------------------------------------------------------------
# Dense Hessians
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["multinomial", "binary"])
def test_hessian_dense_matches_finite_differences(kind):
    if kind == "multinomial":
        shape = MultinomialLinear(n_classes=3, n_features=2)
        ds = multinomial_dataset(3, 6, 2, 3)
    else:
        shape = MultiAttrLinear(n_attrs=2, n_features=2)
        ds = binary_dataset(4, 6, 2, 2)
    cfg = LossConfig(l2_coeff=0.15)
    params = random_params(shape, 9)
    H = hessian_dense(params, ds, cfg)
    H_fd = fd_hessian(loss_of_values(shape, ds, cfg), params.values, h=1e-4)
    np.testing.assert_allclose(H, H_fd, atol=5e-6)
    np.testing.assert_allclose(H, H.T, atol=1e-12)


def test_hessian_dense_refuses_mlp():
    shape = MLP(n_features=2, n_hidden=2, n_classes=2)
    ds = multinomial_dataset(5, 4, 2, 2)
    with pytest.raises(InputError):
        hessian_dense(random_params(shape, 1), ds, LossConfig())


# ---------------------------------------------------------------------------
# Fisher/Hessian ratio check on common-margin data
# ---------------------------------------------------------------------------

def test_ratio_check_binary_planes():
    eps = 1e-3
    ds, params = make_parallel_planes_binary(m=4, eps_margin=eps, n_per_class=6, seed=2)
    check = fisher_hessian_ratio_check(params, ds)
    assert check.predicted_multiple == pytest.approx((1 - eps) / eps, rel=1e-6)
    assert check.max_rel_dev < 1e-6
    assert check.warning is None


def test_ratio_check_softmax_margin():
    c, eps = 3, 1e-3
    ds, params = make_separable_subspace(c=c, m=c + 4, eps_margin=eps, n_per_class=4, seed=3)
    check = fisher_hessian_ratio_check(params, ds)
    assert check.predicted_multiple == pytest.approx(1.0 / (eps * (c - 1)), rel=1e-6)
    assert check.mean_rel_dev <= 5 * c * eps
    assert check.warning is None


def test_ratio_check_flags_nonuniform_margins():
    ds = multinomial_dataset(12, 10, 3, 3)
    params = random_params(MultinomialLinear(n_classes=3, n_features=3), 13)
    check = fisher_hessian_ratio_check(params, ds)
    assert check.warning is not None
    assert check.margin_spread > 1e-6


@pytest.mark.parametrize("c", [2, 3, 5])
def test_softmax_ratio_check_equals_the_per_sample_loop(c):
    for seed in range(20):
        ds, params = make_separable_subspace(c=c, m=c + 3, eps_margin=1e-3, n_per_class=3, seed=seed)
        assert fisher_hessian_ratio_check(params, ds) == softmax_ratio_check_oracle(params, ds)
    ds = multinomial_dataset(12, 10, 3, c)
    params = random_params(MultinomialLinear(n_classes=c, n_features=3), 13)
    check = fisher_hessian_ratio_check(params, ds)
    assert check.warning is not None
    assert check == softmax_ratio_check_oracle(params, ds)


def test_ratio_check_rejects_mlp_and_multi_head():
    ds = binary_dataset(6, 5, 2, 2)
    params = random_params(MultiAttrLinear(n_attrs=2, n_features=2), 1)
    with pytest.raises(InputError):
        fisher_hessian_ratio_check(params, ds)


# ---------------------------------------------------------------------------
# ModelParams and Dataset containers
# ---------------------------------------------------------------------------

def test_model_params_validation():
    shape = MultinomialLinear(n_classes=2, n_features=2)
    with pytest.raises(InputError):
        ModelParams(values=np.zeros(3), shape=shape)
    with pytest.raises(InputError):
        ModelParams(values=np.array([1.0, np.nan, 0.0, 0.0]), shape=shape)
    params = ModelParams(values=np.zeros(4), shape=shape)
    with pytest.raises(ValueError):
        params.values[0] = 1.0  # the stored vector is read-only


def test_params_digest_tracks_values_and_shape():
    a = ModelParams(values=np.zeros(4), shape=MultinomialLinear(n_classes=2, n_features=2))
    b = ModelParams(values=np.zeros(4), shape=MultinomialLinear(n_classes=2, n_features=2))
    c = a.with_values(np.array([0.0, 0.0, 0.0, 1e-300]))
    d = ModelParams(values=np.zeros(4), shape=MultiAttrLinear(n_attrs=2, n_features=2))
    assert params_digest(a) == params_digest(b)
    assert params_digest(a) != params_digest(c)
    assert params_digest(a) != params_digest(d)


def _digest_oracle(code, dims, values):
    """SHA-256 of the kind code byte, three little-endian u64 dims and the f64 values."""
    payload = bytes([code]) + struct.pack("<3Q", *dims) + struct.pack(f"<{len(values)}d", *values)
    return hashlib.sha256(payload).digest()


@pytest.mark.parametrize(
    "shape, code, dims",
    [
        (MultiAttrLinear(n_attrs=2, n_features=3), 1, (2, 3, 0)),
        (MultinomialLinear(n_classes=3, n_features=2), 2, (3, 2, 0)),
        (MLP(n_features=3, n_hidden=4, n_classes=2), 3, (3, 4, 2)),
    ],
    ids=["multi-attr", "multinomial", "mlp"],
)
def test_params_digest_is_the_sha256_of_kind_dims_and_values(shape, code, dims):
    params = random_params(shape, 5)
    expected = _digest_oracle(code, dims, params.values)
    assert params_digest(params) == expected  # computed
    assert params_digest(params) == expected  # kept with the instance
    moved = params.with_values(params.values + 1e-9)
    assert params_digest(moved) == _digest_oracle(code, dims, moved.values)
    replaced = dataclasses.replace(params, values=params.values[::-1])
    assert params_digest(replaced) == _digest_oracle(code, dims, params.values[::-1])
    assert params_digest(dataclasses.replace(params, seed=params.seed + 1)) == expected
    assert params_digest(params) == expected


def test_model_params_compare_by_fields_whether_or_not_hashed():
    # a one-parameter and a multi-parameter model: numpy can decide the
    # truth of an element-wise comparison only for the first
    for shape, values, other in (
        (MultiAttrLinear(n_attrs=1, n_features=1), [0.25], None),
        (MultiAttrLinear(n_attrs=2, n_features=3), [0.25, -1, 2, 0, 3, 4],
         MultinomialLinear(n_classes=2, n_features=3)),
    ):
        values = np.array(values, dtype=float)
        a = ModelParams(values=values, shape=shape)
        b = ModelParams(values=values.copy(), shape=shape)
        assert a == b
        params_digest(a)
        assert a == b and b == a
        params_digest(b)
        assert a == b
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert a != a.with_values(values + 0.5)
        assert a != dataclasses.replace(a, seed=1)
        if other is not None:
            assert a != ModelParams(values=values, shape=other)
        assert a != values.tolist() and a != None  # noqa: E711


def test_containers_of_arrays_compare_by_identity():
    ds = multinomial_dataset(0, 8, 2, 3)
    twin = Dataset(features=ds.features, labels=ds.labels, ids=ds.ids)
    assert ds == ds and ds != twin
    assert len({ds, twin, ds}) == 2
    params = random_params(MultinomialLinear(n_classes=3, n_features=2), 1)
    cfg = LossConfig(l2_coeff=0.1)
    finv = build_inverse_fisher(params, ds, cfg, 0.5, BlockSpec.single(params.shape.n_params), 1)
    twin_finv = dataclasses.replace(finv)
    assert finv == finv and finv != twin_finv and hash(finv) != hash(twin_finv)
    # the dataclasses that hold them compare and hash by field again
    result = TrainResult(params=params, final_loss=1.0, final_grad_norm=0.5, epochs_run=2,
                         loss_history=(2.0, 1.0))
    assert result == dataclasses.replace(result, params=params.with_values(params.values))
    assert hash(result) == hash(dataclasses.replace(result))
    assert result != dataclasses.replace(result, epochs_run=3)
    splits = SplitData(lko_train=ds, removed=twin, lko_test=ds, removed_test=twin)
    assert splits == dataclasses.replace(splits) and splits != dataclasses.replace(splits, removed=ds)
    split_set = SplitSet(removed=ds.ids[:2], lko_train=ds.ids[2:], removed_test=(), lko_test=())
    pipeline = Pipeline(train_ds=ds, test_ds=twin, loss_cfg=cfg, theta_star=params,
                        retrain=params, splits=split_set, finv=finv)
    assert pipeline == dataclasses.replace(pipeline)
    assert pipeline != dataclasses.replace(pipeline, finv=twin_finv)
    assert len({pipeline, dataclasses.replace(pipeline)}) == 1


def test_model_params_copy_a_view_of_the_callers_array():
    class Tagged(np.ndarray):
        pass

    source = np.arange(4.0).view(Tagged)
    params = ModelParams(values=source, shape=MultinomialLinear(n_classes=2, n_features=2))
    before = params_digest(params)
    source[0] = 9.0
    assert params.values.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert params_digest(params) == before == _digest_oracle(2, (2, 2, 0), np.arange(4.0))


def test_dataset_validation():
    feats = np.zeros((3, 2))
    ids = make_ids(3)
    with pytest.raises(InputError):
        Dataset(features=feats, labels=np.array([1, 2, 2]), ids=("a", "a", "b"))
    with pytest.raises(InputError):
        Dataset(features=feats, labels=np.array([0, 1, 2]), ids=ids)  # class 0
    with pytest.raises(InputError):
        Dataset(
            features=feats,
            labels=np.array([[0, 2], [1, 0], [1, 1]], dtype=np.uint8),
            ids=ids,
        )
    with pytest.raises(InputError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([1, 2, 1]), ids=ids)


def test_dataset_subset_preserves_row_order():
    ds = multinomial_dataset(1, 6, 2, 2)
    sub = ds.subset([ds.ids[4], ds.ids[1]])
    assert sub.ids == (ds.ids[1], ds.ids[4])
    np.testing.assert_array_equal(sub.features, ds.features[[1, 4]])
    with pytest.raises(InputError):
        ds.subset(["missing"])


def test_dataset_without_and_sorted_by_id():
    ds = multinomial_dataset(2, 5, 2, 2)
    rest = ds.without([ds.ids[0], ds.ids[3]])
    assert rest.ids == (ds.ids[1], ds.ids[2], ds.ids[4])
    shuffled = Dataset(
        features=ds.features[::-1].copy(),
        labels=ds.labels[::-1].copy(),
        ids=tuple(reversed(ds.ids)),
    )
    ordered = shuffled.sorted_by_id()
    assert ordered.ids == ds.ids
    np.testing.assert_array_equal(ordered.features, ds.features)


@pytest.mark.parametrize(
    "ids",
    [
        tuple(f"s{i:03d}" for i in np.random.default_rng(3).permutation(40)),
        ("ab", "a\x00", "a", "b", "", "a\x00\x00"),
        # precomposed and decomposed e-acute compare by code point, unnormalized
        ("\u00e9", "z", "Z", "日本", "\U0001f600", "e\u0301", "ß", "ss"),
        ("only",),
        (),
    ],
    ids=["shuffled", "prefixes", "non-ascii", "one-row", "empty"],
)
def test_id_order_is_the_object_argsort_of_the_ids(ids):
    n = len(ids)
    ds = Dataset(features=np.arange(2.0 * n).reshape(n, 2), labels=np.ones(n, dtype=np.int64),
                 ids=ids)
    expected = np.argsort(np.asarray(ids, dtype=object))
    order = ds._id_order()
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)
    ordered = ds.sorted_by_id()
    assert ordered.ids == tuple(ids[i] for i in expected)
    assert np.array_equal(ordered.features, ds.features[expected])

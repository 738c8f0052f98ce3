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
from hypothesis import given, settings, strategies as st

from helpers import (
    backward_oracle,
    binary_dataset,
    binary_loss_oracle,
    dataset_for_shape,
    fd_grad,
    fd_hessian,
    forward_oracle,
    hessian_dense_oracle,
    loss_of_values,
    make_parallel_planes_binary,
    make_separable_subspace,
    masked_sigmoid,
    multinomial_dataset,
    random_params,
    random_shape,
    sigmoid_oracle,
    softmax_oracle,
    uniform_margin_ratio_check,
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
    diagonal_inverse_fisher,
    grad_matrix,
    grad_mean,
    grad_sum,
    hessian_dense,
    loss,
    make_ids,
    onehot,
    params_digest,
    predict_labels,
    predict_proba,
)
from ssse import models
from ssse.cli import Pipeline
from ssse.models import (
    DENSE_HESSIAN_CAP,
    PROB_FLOOR,
    _BoundNet,
    _forward,
    _grad_sums,
    _hvp,
    _loss_from_proba,
    _sigmoid,
    _softmax,
    _targets,
)


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


def _same_bits(a, b):
    """Equal shapes, NaN in the same places, and every other entry equal bit for bit."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def test_sigmoid_is_bit_identical_to_the_masked_form():
    extremes = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.5, -745.5, 800.0, -800.0,
                         np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(0)
    for z in (extremes, 30.0 * rng.standard_normal((200, 8)), np.empty((0, 8)), np.empty(0)):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(_sigmoid(z), masked_sigmoid(z))


def test_head_kernels_are_bit_identical_to_the_out_of_place_formulas():
    extremes = np.array([[0.0, -0.0, 1e-300, -1e-300], [40.0, -40.0, 745.5, -745.5],
                         [40.0, -40.0, 800.0, -800.0],
                         [800.0, 800.0, -800.0, 0.0], [np.inf, -np.inf, 0.0, 1.0],
                         [np.nan, 0.0, 1.0, 2.0], [-800.0, -800.0, -800.0, -800.0]])
    rng = np.random.default_rng(1)
    for z in (extremes, 30.0 * rng.standard_normal((200, 8)), rng.standard_normal((7, 2)),
              30.0 * rng.standard_normal((1, 10)), np.empty((0, 8))):
        before = z.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(_sigmoid(z), sigmoid_oracle(z))
            assert np.array_equal(_softmax(z), softmax_oracle(z), equal_nan=True)
        assert np.array_equal(z, before, equal_nan=True)  # the logits are left alone


@pytest.mark.parametrize("scale", [0.5, 60.0], ids=["moderate", "saturated"])
@pytest.mark.parametrize(
    "shape",
    [MultiAttrLinear(n_attrs=3, n_features=5), MultinomialLinear(n_classes=4, n_features=5),
     MLP(n_features=5, n_hidden=6, n_classes=4),
     # from 8 classes on, numpy's pairwise row sum is not the class-order sum
     MultinomialLinear(n_classes=10, n_features=5), MLP(n_features=5, n_hidden=6, n_classes=10)],
    ids=["multi-attr", "multinomial", "mlp", "multinomial-10", "mlp-10"],
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
    net = _BoundNet(shape, values)
    got = [(*shape.spans[layer], delta.copy(), x.copy())
           for layer, delta, x in net.backward(net.forward(ds.features), targets)]
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


@pytest.mark.parametrize("family", ["mlp", "multinomial", "multi_attr"])
def test_grad_sums_norm_above_ends_the_pass_only_when_a_block_proves_the_norm_exceeds_it(family):
    shape = {"mlp": MLP(n_features=5, n_hidden=4, n_classes=3),
             "multinomial": MultinomialLinear(n_classes=3, n_features=5),
             "multi_attr": MultiAttrLinear(n_attrs=3, n_features=5)}[family]
    ds = dataset_for_shape(shape, 5, n=40)
    values = random_params(shape, 6).values
    targets = _targets(shape, ds.labels)
    full = _grad_sums(shape, values, ds.features, targets, 0.05)
    rows, cols = shape.layers[-1]
    head = full[0, shape.n_params - rows * cols:] / ds.n
    h, f = np.linalg.norm(head), np.linalg.norm(full[0] / ds.n)
    # the margin is 1e-6: a head norm 2e-6 above a bound ends the pass, 5e-7 above does not
    for above in (0.0, h / 2, h / (1 + 2e-6), h / (1 + 5e-7), h, (h + f) / 2, f, 2 * f):
        net = _BoundNet(shape, values, 0.05, np.empty(shape.n_params))
        got = net.grad_sum(net.forward(ds.features), targets, above)
        if len(shape.layers) > 1 and above < h / (1 + 1e-6):
            assert got is None and f > above
        else:
            assert got.tobytes() == full[0].tobytes()
    if len(shape.layers) > 1:
        assert h < f


@pytest.mark.parametrize("family", ["mlp", "multinomial", "multi_attr"])
@pytest.mark.parametrize("norm_above", [None, 0.0])
def test_a_consumed_forward_keeps_its_probabilities(family, norm_above):
    shape = {"mlp": MLP(n_features=5, n_hidden=4, n_classes=3),
             "multinomial": MultinomialLinear(n_classes=3, n_features=5),
             "multi_attr": MultiAttrLinear(n_attrs=3, n_features=5)}[family]
    ds = dataset_for_shape(shape, 5, n=40)
    values = random_params(shape, 6).values
    forward = _forward(shape, values, ds.features)
    before = forward[1].copy()
    # norm_above = 0 ends the MLP's pass after its head block
    net = _BoundNet(shape, values, 0.05, np.empty(shape.n_params))
    net.grad_sum(forward, _targets(shape, ds.labels), norm_above)
    assert forward[1].tobytes() == before.tobytes()


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


@pytest.mark.parametrize("size", [1, 7])
def test_grouped_mlp_gradient_sums_add_the_l2_term_without_a_copy_of_the_groups(size):
    shape = MLP(n_features=50, n_hidden=64, n_classes=10)
    n = 500
    ds = dataset_for_shape(shape, 3, n=n)
    values = random_params(shape, 4).values
    targets = _targets(shape, ds.labels)
    forward = _forward(shape, values, ds.features)
    out = np.empty((-(-n // size), shape.n_params))
    tracemalloc.start()
    try:
        _grad_sums(shape, values, ds.features, targets, 0.1, size, forward=forward, out=out)
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


@st.composite
def binary_head_outputs(draw):
    """Clamped sigmoid probabilities, the floors included, with all-0, all-1 and mixed label rows."""
    n = draw(st.integers(min_value=1, max_value=12))
    a = draw(st.integers(min_value=1, max_value=4))
    prob = st.one_of(st.sampled_from([PROB_FLOOR, 1.0 - PROB_FLOOR, 0.5]),
                     st.floats(PROB_FLOOR, 1.0 - PROB_FLOOR))
    p = np.array(draw(st.lists(prob, min_size=n * a, max_size=n * a))).reshape(n, a)
    row = st.one_of(st.just([0] * a), st.just([1] * a),
                    st.lists(st.integers(0, 1), min_size=a, max_size=a))
    labels = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.uint8)
    values = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6)))
    l2 = draw(st.sampled_from([0.0, 0.01, 0.5]))
    return p, labels, values, LossConfig(l2_coeff=l2)


@settings(max_examples=200, deadline=None)
@given(binary_head_outputs())
def test_binary_loss_equals_the_two_log_expression_bit_for_bit(case):
    p, labels, values, cfg = case
    ds = Dataset(features=np.zeros((p.shape[0], 1)), labels=labels, ids=make_ids(p.shape[0]))
    got = _loss_from_proba(p, ds, values, cfg)
    want = binary_loss_oracle(p, labels, values, cfg)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
    g_binary = grad_matrix(bparams, x[None, :], np.array([[1]], dtype=np.uint8), cfg)[0]

    mshape = MultinomialLinear(n_classes=2, n_features=m)
    theta = np.zeros((2, m))
    theta[1] = w
    mparams = ModelParams(values=theta.ravel(), shape=mshape)
    g_soft = grad_matrix(mparams, x[None, :], np.array([2]), cfg)[0].reshape(2, m)

    np.testing.assert_allclose(g_soft[1], g_binary, atol=1e-12)
    np.testing.assert_allclose(g_soft[0], -g_binary, atol=1e-12)


# ---------------------------------------------------------------------------
# Dense Hessians
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["multinomial", "binary", "mlp"])
def test_hessian_dense_matches_finite_differences(kind):
    if kind == "multinomial":
        shape = MultinomialLinear(n_classes=3, n_features=2)
        ds = multinomial_dataset(3, 6, 2, 3)
    elif kind == "binary":
        shape = MultiAttrLinear(n_attrs=2, n_features=2)
        ds = binary_dataset(4, 6, 2, 2)
    else:
        shape = MLP(n_features=2, n_hidden=3, n_classes=3)
        ds = multinomial_dataset(5, 6, 2, 3)
    cfg = LossConfig(l2_coeff=0.15)
    params = random_params(shape, 9)
    H = hessian_dense(params, ds, cfg)
    H_fd = fd_hessian(loss_of_values(shape, ds, cfg), params.values, h=1e-4)
    np.testing.assert_allclose(H, H_fd, atol=5e-6)
    np.testing.assert_allclose(H, H.T, atol=1e-12)


@pytest.mark.parametrize("shape", [
    MultinomialLinear(n_classes=3, n_features=4), MultinomialLinear(n_classes=2, n_features=4),
    MultiAttrLinear(n_attrs=3, n_features=4), MultiAttrLinear(n_attrs=1, n_features=4),
], ids=["multinomial", "multinomial-2", "multi-attr", "single-attr"])
def test_hvp_equals_the_closed_form_hessian_times_the_directions(shape):
    ds = dataset_for_shape(shape, 21, n=30)
    params = random_params(shape, 22)
    vectors = np.random.default_rng(23).standard_normal((5, shape.n_params))
    got = _hvp(shape, params.values, ds.features, _targets(shape, ds.labels), vectors)
    want = ds.n * (hessian_dense_oracle(params, ds, LossConfig()) @ vectors.T).T
    # entries near zero carry the rounding of the largest, so the bound scales with it
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(hessian_dense(params, ds, LossConfig(0.3)),
                               hessian_dense_oracle(params, ds, LossConfig(0.3)),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_hidden", [1, 5])
def test_mlp_hvp_is_a_central_difference_of_the_gradient_sum(n_hidden):
    shape = MLP(n_features=4, n_hidden=n_hidden, n_classes=3)
    ds = dataset_for_shape(shape, 24, n=30)
    values = random_params(shape, 25).values
    targets = _targets(shape, ds.labels)
    vectors = np.random.default_rng(26).standard_normal((4, shape.n_params))
    got = _hvp(shape, values, ds.features, targets, vectors)
    h = 1e-5
    want = np.stack([
        (_grad_sums(shape, values + h * v, ds.features, targets, 0.0)[0]
         - _grad_sums(shape, values - h * v, ds.features, targets, 0.0)[0]) / (2 * h)
        for v in vectors])
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())


def test_hessian_dense_on_an_mlp_is_symmetric_and_one_hvp_of_the_identity():
    shape = MLP(n_features=3, n_hidden=4, n_classes=3)
    ds = dataset_for_shape(shape, 27, n=20)
    params = random_params(shape, 28)
    cfg = LossConfig(l2_coeff=0.1)
    h = hessian_dense(params, ds, cfg)
    np.testing.assert_allclose(h, h.T, rtol=0, atol=1e-14 * np.abs(h).max())
    eye = np.eye(shape.n_params)
    want = _hvp(shape, params.values, ds.features, _targets(shape, ds.labels), eye) / ds.n
    np.testing.assert_allclose(h, want + 0.1 * eye, rtol=0, atol=1e-14 * np.abs(h).max())


@pytest.mark.parametrize("n, calls_wanted", [(1, 1), (400, 5)])
def test_hessian_dense_takes_the_identity_in_chunks(monkeypatch, n, calls_wanted):
    """Each chunk's (r, n, widest layer) stack stays within 16 MiB, and every row is taken once."""
    shape = MLP(n_features=3, n_hidden=64, n_classes=3)
    ds = dataset_for_shape(shape, 31, n=n)
    params = random_params(shape, 32)
    calls = []

    def spy(shape, values, features, targets, vectors):
        calls.append(vectors.copy())
        return hvp(shape, values, features, targets, vectors)

    hvp = models._hvp
    monkeypatch.setattr(models, "_hvp", spy)
    hessian_dense(params, ds, LossConfig(0.1))
    assert len(calls) == calls_wanted
    assert all(len(v) * n * 64 * 8 <= 1 << 24 for v in calls)
    np.testing.assert_array_equal(np.concatenate(calls), np.eye(shape.n_params))


def test_hessian_dense_refuses_d_above_the_cap_before_allocating(monkeypatch):
    shape = MultinomialLinear(n_classes=2, n_features=DENSE_HESSIAN_CAP // 2 + 1)
    ds = multinomial_dataset(29, 3, shape.n_features, 2)
    params = random_params(shape, 30)

    def refuse(*args):
        raise AssertionError("a Hessian-vector product was taken")

    monkeypatch.setattr(models, "_hvp", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"d={shape.n_params} > {DENSE_HESSIAN_CAP}"):
            hessian_dense(params, ds, LossConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < shape.n_params * 8


# ---------------------------------------------------------------------------
# Fisher/Hessian ratio check on common-margin data
# ---------------------------------------------------------------------------

def test_ratio_check_binary_planes():
    eps = 1e-3
    ds, params = make_parallel_planes_binary(m=4, eps_margin=eps, n_per_class=6, seed=2)
    _, max_dev, rho, spread = uniform_margin_ratio_check(params, ds)
    assert rho == pytest.approx((1 - eps) / eps, rel=1e-6)
    assert max_dev < 1e-6
    assert spread <= 1e-6


def test_ratio_check_softmax_margin():
    c, eps = 3, 1e-3
    ds, params = make_separable_subspace(c=c, m=c + 4, eps_margin=eps, n_per_class=4, seed=3)
    mean_dev, _, rho, spread = uniform_margin_ratio_check(params, ds)
    assert rho == pytest.approx(1.0 / (eps * (c - 1)), rel=1e-6)
    assert mean_dev <= 5 * c * eps
    assert spread <= 1e-6


def test_ratio_check_flags_nonuniform_margins():
    ds = multinomial_dataset(12, 10, 3, 3)
    params = random_params(MultinomialLinear(n_classes=3, n_features=3), 13)
    *_, spread = uniform_margin_ratio_check(params, ds)
    assert spread > 1e-6


@pytest.mark.parametrize("shape, ds, found, expected", [
    (MultiAttrLinear(n_attrs=1, n_features=2), binary_dataset(31, 8, 2, 3), 3, 1),
    (MultiAttrLinear(n_attrs=2, n_features=2), multinomial_dataset(32, 8, 2, 3), 0, 2),
    (MultinomialLinear(n_classes=3, n_features=2), binary_dataset(33, 8, 2, 1), 1, 0),
    (MLP(n_features=2, n_hidden=2, n_classes=3), binary_dataset(34, 8, 2, 3), 3, 0),
], ids=["fewer-heads", "binary-model-class-data", "softmax-model-attribute-data",
        "mlp-attribute-data"])
def test_every_gradient_path_refuses_labels_of_another_layout(shape, ds, found, expected):
    params = random_params(shape, 35)
    cfg = LossConfig(0.1)
    message = f"labels have {found} attribute columns, the model expects {expected}$"
    for compute in (lambda: grad_sum(params, ds, ds.ids[:2], cfg),
                    lambda: grad_matrix(params, ds.features, ds.labels, cfg),
                    lambda: diagonal_inverse_fisher(params, ds, cfg, 0.1),
                    lambda: build_inverse_fisher(params, ds, cfg, 0.1)):
        with pytest.raises(InputError, match=message):
            compute()


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
    result = TrainResult(params=params, final_loss=1.0, final_grad_norm=0.5, epochs_run=2)
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

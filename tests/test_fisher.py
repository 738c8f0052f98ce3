"""Closed-form block builds, the reference rank-one step, block structure, the container."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    apply_inverse_oracle,
    batch_means_oracle,
    dataset_for_shape,
    dense_block,
    dense_fisher,
    dense_fisher_inverse,
    multinomial_dataset,
    per_block_factors,
    random_params,
    random_shape,
)
from ssse import (
    BlockSpec,
    ContainerError,
    Dataset,
    InputError,
    InverseFisher,
    LossConfig,
    MLP,
    ModelParams,
    MultiAttrLinear,
    MultinomialLinear,
    NumericError,
    apply_inverse,
    build_inverse_fisher,
    diagonal_inverse_fisher,
    grad_matrix,
    load_inverse_fisher,
    params_digest,
    save_inverse_fisher,
    sherman_morrison_step,
)
from ssse import fisher


# ---------------------------------------------------------------------------
# The reference rank-one step
# ---------------------------------------------------------------------------

def test_step_scalar_oracle():
    # A = [1], g = [1], count 1: inverse of 1 + 1*1 is exactly 0.5.
    out = sherman_morrison_step(np.array([[1.0]]), np.array([1.0]), 1)
    assert out[0, 0] == pytest.approx(0.5, abs=0)


def test_step_two_by_two_oracle():
    # lam = 2, g = (1, 2), count 1. F = [[3, 2], [2, 6]], det 14, so the
    # inverse is [[6, -2], [-2, 3]] / 14. Hand-derived, frozen.
    start = np.eye(2) / 2.0
    out = sherman_morrison_step(start, np.array([1.0, 2.0]), 1)
    expected = np.array([[3.0 / 7.0, -1.0 / 7.0], [-1.0 / 7.0, 3.0 / 14.0]])
    np.testing.assert_allclose(out, expected, rtol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_step_matches_direct_inverse(seed):
    rng = np.random.default_rng(seed)
    d = 4
    base = rng.standard_normal((d, d))
    A = base @ base.T + d * np.eye(d)
    g = rng.standard_normal(d)
    count = int(rng.integers(1, 9))
    stepped = sherman_morrison_step(np.linalg.inv(A), g, count)
    direct = np.linalg.inv(A + np.outer(g, g) / count)
    np.testing.assert_allclose(stepped, direct, atol=1e-12)
    np.testing.assert_array_equal(stepped, stepped.T)


def test_step_rejects_bad_count_and_breakdown():
    with pytest.raises(InputError):
        sherman_morrison_step(np.eye(2), np.ones(2), 0)
    # an indefinite "inverse" can drive the denominator negative
    with pytest.raises(NumericError):
        sherman_morrison_step(np.array([[-5.0]]), np.array([1.0]), 1)


# ---------------------------------------------------------------------------
# Full builds against the direct dense inverse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_build_matches_dense_inverse_single_block(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    ds = dataset_for_shape(shape, seed + 50, n=int(rng.integers(3, 12)))
    cfg = LossConfig(l2_coeff=float(rng.uniform(0, 0.2)))
    params = random_params(shape, seed + 90)
    lam = float(rng.uniform(0.05, 1.0))
    finv = build_inverse_fisher(params, ds, cfg, lam, BlockSpec.single(shape.n_params), 1)
    oracle = dense_fisher_inverse(params, ds, cfg, lam)
    np.testing.assert_allclose(dense_block(finv, 0), oracle, atol=1e-9)


@pytest.mark.parametrize(
    "shape, n, batch_size",
    [
        (MultinomialLinear(n_classes=3, n_features=4), 9, 1),
        # blocks of 12 and 8 with 10 rows: the first is dual, the second primal
        (MLP(n_features=3, n_hidden=4, n_classes=2), 10, 1),
        (MLP(n_features=3, n_hidden=4, n_classes=2), 29, 3),
    ],
    ids=["multinomial", "mlp-both-forms", "mlp-both-forms-batched"],
)
def test_build_block_diagonal_matches_per_block_dense_inverse(shape, n, batch_size):
    ds = multinomial_dataset(3, n, shape.n_features, shape.n_classes)
    cfg = LossConfig(l2_coeff=0.05)
    params = random_params(shape, 4)
    lam = 0.3
    spec = BlockSpec.from_shape(shape)
    finv = build_inverse_fisher(params, ds, cfg, lam, spec, batch_size)
    ordered = ds.sorted_by_id()
    g = grad_matrix(params, ordered.features, ordered.labels, cfg)
    means = np.array([g[i:i + batch_size].mean(axis=0) for i in range(0, n, batch_size)])
    count = finv.rank_one_count
    assert means.shape[0] == count
    if isinstance(shape, MLP):
        assert {count < hi - lo for lo, hi in spec.ranges} == {True, False}
    for i, (lo, hi) in enumerate(spec.ranges):
        block = dense_block(finv, i)
        gb = means[:, lo:hi]
        dense = lam * np.eye(hi - lo) + (gb.T @ gb) / count
        np.testing.assert_allclose(block, np.linalg.inv(dense), atol=1e-9)
        folded = np.eye(hi - lo) / lam
        for row in gb:
            folded = sherman_morrison_step(folded, row, count)
        np.testing.assert_allclose(block, folded, atol=1e-9)


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize(
    "shape",
    [MultinomialLinear(n_classes=3, n_features=2), MLP(n_features=2, n_hidden=3, n_classes=2)],
    ids=["multinomial", "mlp"],
)
def test_build_over_several_chunks_matches_dense_inverse(shape, batch_size):
    # 1100 rows: three gradient chunks, the last one short, and with
    # batch_size 3 a last batch of 2 rows
    n = 1100
    ds = multinomial_dataset(5, n, shape.n_features, shape.n_classes)
    cfg = LossConfig(l2_coeff=0.02)
    params = random_params(shape, 6)
    lam = 0.3
    finv = build_inverse_fisher(params, ds, cfg, lam, None, batch_size)
    ordered = ds.sorted_by_id()
    g = grad_matrix(params, ordered.features, ordered.labels, cfg)
    means = np.array([g[i:i + batch_size].mean(axis=0) for i in range(0, n, batch_size)])
    assert means.shape[0] == finv.rank_one_count
    for i, (lo, hi) in enumerate(finv.spec.ranges):
        gb = means[:, lo:hi]
        dense = lam * np.eye(hi - lo) + (gb.T @ gb) / means.shape[0]
        np.testing.assert_allclose(dense_block(finv, i), np.linalg.inv(dense), atol=1e-9)


# 1100 rows make three 512-row chunks at batch size 1 and several chunks
# with a short last batch above it; the wide MLP's blocks of 1200 and 24
# are dual and primal at batch sizes 1, 2 and 3, the narrow one's blocks
# of 12 and 8 at batch size 100.
ORACLE_N = 1100
ORACLE_SHAPES = {
    "multi-attr": MultiAttrLinear(n_attrs=2, n_features=3),
    "multinomial": MultinomialLinear(n_classes=3, n_features=4),
    "mlp-narrow": MLP(n_features=3, n_hidden=4, n_classes=2),
    "mlp-wide": MLP(n_features=100, n_hidden=12, n_classes=2),
}
BOTH_FORMS = {("mlp-wide", 1), ("mlp-wide", 2), ("mlp-wide", 3), ("mlp-narrow", 100)}


@pytest.mark.parametrize("batch_size", [1, 2, 3, 100, 700, ORACLE_N, ORACLE_N + 5])
@pytest.mark.parametrize("family", list(ORACLE_SHAPES))
def test_batch_means_match_the_per_sample_row_oracle(monkeypatch, family, batch_size):
    shape = ORACLE_SHAPES[family]
    ds = dataset_for_shape(shape, 3, n=ORACLE_N)
    cfg = LossConfig(l2_coeff=0.05)
    params = random_params(shape, 4)
    finv = build_inverse_fisher(params, ds, cfg, 0.3, None, batch_size)
    monkeypatch.setattr(fisher, "_batch_means", batch_means_oracle)
    oracle = build_inverse_fisher(params, ds, cfg, 0.3, None, batch_size)
    forms = {finv.rank_one_count < hi - lo for lo, hi in finv.spec.ranges}
    assert (forms == {True, False}) == ((family, batch_size) in BOTH_FORMS)
    for block, expected in zip(finv.blocks, oracle.blocks):
        if batch_size == 1:
            assert np.array_equal(block, expected)
        else:
            # the sums round in another order: entries near zero carry the
            # rounding of the block's largest, so the bound scales with it
            np.testing.assert_allclose(block, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())


def test_build_is_independent_of_row_order():
    shape = MultinomialLinear(n_classes=2, n_features=3)
    ds = multinomial_dataset(6, 10, 3, 2)
    perm = np.random.default_rng(0).permutation(ds.n)
    shuffled = Dataset(
        features=ds.features[perm].copy(),
        labels=ds.labels[perm].copy(),
        ids=tuple(ds.ids[i] for i in perm),
    )
    cfg = LossConfig(l2_coeff=0.01)
    params = random_params(shape, 7)
    a = build_inverse_fisher(params, ds, cfg, 0.2, None, 1)
    b = build_inverse_fisher(params, shuffled, cfg, 0.2, None, 1)
    for ba, bb in zip(a.blocks, b.blocks):
        np.testing.assert_array_equal(ba, bb)


def test_batching_averages_id_ordered_groups():
    shape = MultiAttrLinear(n_attrs=1, n_features=3)
    ds = dataset_for_shape(shape, 8, n=7)  # 7 samples, batch 3 -> 3 batches
    cfg = LossConfig()
    params = random_params(shape, 2)
    lam = 0.4
    finv = build_inverse_fisher(params, ds, cfg, lam, None, batch_size=3)
    assert finv.rank_one_count == 3

    ordered = ds.sorted_by_id()
    g = grad_matrix(params, ordered.features, ordered.labels, cfg)
    means = np.array([g[0:3].mean(axis=0), g[3:6].mean(axis=0), g[6:7].mean(axis=0)])
    dense = lam * np.eye(shape.n_params) + (means.T @ means) / 3
    np.testing.assert_allclose(dense_block(finv, 0), np.linalg.inv(dense), atol=1e-9)


def test_build_input_validation():
    shape = MultinomialLinear(n_classes=2, n_features=2)
    ds = multinomial_dataset(1, 4, 2, 2)
    params = random_params(shape, 1)
    with pytest.raises(InputError):
        build_inverse_fisher(params, ds, LossConfig(), 0.0)
    with pytest.raises(InputError):
        build_inverse_fisher(params, ds, LossConfig(), 0.1, batch_size=0)
    with pytest.raises(InputError):
        build_inverse_fisher(params, ds, LossConfig(), 0.1, BlockSpec.single(3))


def test_non_finite_gradients_are_refused():
    shape = MultinomialLinear(n_classes=2, n_features=2)
    params = ModelParams(values=np.array([10.0, 0.0, -10.0, 0.0]), shape=shape)
    # the logits of sample b overflow, so its gradient row is NaN
    features = np.array([[0.5, 0.0], [1e308, 0.0], [1.0, 1.0]])
    ds = Dataset(features=features, labels=np.array([1, 2, 1]), ids=("a", "b", "c"))
    with np.errstate(over="ignore", invalid="ignore"):
        # batched, sample b shares its non-finite batch mean with a (size 2) or a and c (3)
        for batch_size in (1, 2, 3):
            with pytest.raises(NumericError, match="for sample b"):
                build_inverse_fisher(params, ds, LossConfig(), 0.1, batch_size=batch_size)
        with pytest.raises(NumericError, match="for sample b"):
            diagonal_inverse_fisher(params, ds, LossConfig(), 0.1)


# Finite gradient rows, each entry +-0.5 x at theta = 0, over blocks of 4
# (dual) or 2 (primal): 3 rows, or 2 batch means, whose squares overflow;
# and 2 batch means, the first of which, a sum of three rows of -+8.5e307,
# overflows itself. In _SECOND_FEATURE_OVERFLOWS only the entries of the
# second feature (parameters 1 and 3) overflow, so over blocks of 1, 1
# and 2 the first block to fail is the second of a run of two.
_SQUARES_OVERFLOW = ([[1e200, 0.0], [0.5, 1.0], [1.0, 1.0]], [1, 2, 1])
_MEAN_OVERFLOWS = ([[1.7e308, 0.0], [1.7e308, 0.0], [1.7e308, 0.0], [1.0, 1.0]], [1, 1, 1, 2])
_SECOND_FEATURE_OVERFLOWS = ([[0.5, 1e200], [0.5, 1.0], [1.0, 1.0]], [1, 2, 1])
_SIDES_1_1_2 = BlockSpec(ranges=((0, 1), (1, 2), (2, 4)))


@pytest.mark.parametrize(
    "spec, data, batch_size, block",
    [
        (BlockSpec.single(4), _SQUARES_OVERFLOW, 1, "0 (parameters 0:4)"),
        (None, _SQUARES_OVERFLOW, 1, "0 (parameters 0:2)"),
        (BlockSpec.single(4), _SQUARES_OVERFLOW, 2, "0 (parameters 0:4)"),
        (None, _SQUARES_OVERFLOW, 2, "0 (parameters 0:2)"),
        (BlockSpec.single(4), _MEAN_OVERFLOWS, 3, "0 (parameters 0:4)"),
        (None, _MEAN_OVERFLOWS, 3, "0 (parameters 0:2)"),
        (_SIDES_1_1_2, _SECOND_FEATURE_OVERFLOWS, 1, "1 (parameters 1:2)"),
        # two batch means: blocks of 1 are primal, the block of 2 is dual
        (_SIDES_1_1_2, _SECOND_FEATURE_OVERFLOWS, 2, "1 (parameters 1:2)"),
    ],
    ids=["dual", "primal", "dual-batched", "primal-batched", "dual-mean-overflows",
         "primal-mean-overflows", "second-of-a-run", "second-of-a-run-batched"],
)
def test_overflowing_fisher_block_is_refused(spec, data, batch_size, block):
    shape = MultinomialLinear(n_classes=2, n_features=2)
    params = ModelParams(values=np.zeros(4), shape=shape)
    features, labels = np.array(data[0]), np.array(data[1])
    ds = Dataset(features=features, labels=labels, ids=tuple("abcd"[:len(labels)]))
    message = f"Fisher block {block} has non-finite entries (gradient products overflow)"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=re.escape(message)):
            build_inverse_fisher(params, ds, LossConfig(), 0.1, spec, batch_size)


def test_cholesky_of_a_stack_names_the_first_failing_matrix():
    good = np.eye(2)
    stack = np.stack([good, -good, good, np.full((2, 2), np.inf)])
    names = ["w", "x", "y", "z"]
    with pytest.raises(NumericError, match="^x is not positive definite$"):
        fisher._cholesky(stack, names)
    with pytest.raises(NumericError, match="^z has non-finite entries$"):
        fisher._cholesky(stack[2:], names[2:])
    with pytest.raises(NumericError, match=re.escape("Fisher block 3 (parameters 6:8) has "
                                                     "non-finite entries (gradient products")):
        fisher._cholesky(stack[2:], ["y", "Fisher block 3 (parameters 6:8)"])


# family, samples, Fisher batch size, block sides (None: the family's own
# spec), and the runs of equally shaped factors that gives. The MLP's own
# blocks are 12 and 8 wide.
APPLY_CASES = {
    "multi-attr-primal": (MultiAttrLinear(n_attrs=3, n_features=4), 12, 1, None, 1),
    # three gradient chunks, the last one short
    "multi-attr-several-chunks": (MultiAttrLinear(n_attrs=3, n_features=4), 1100, 1, None, 1),
    "multi-attr-dual": (MultiAttrLinear(n_attrs=3, n_features=4), 12, 5, None, 1),
    "multinomial-primal": (MultinomialLinear(n_classes=3, n_features=4), 12, 1, None, 1),
    "multinomial-dual": (MultinomialLinear(n_classes=3, n_features=4), 12, 4, None, 1),
    "mlp-primal": (MLP(n_features=3, n_hidden=4, n_classes=2), 40, 1, None, 2),
    "mlp-dual": (MLP(n_features=3, n_hidden=4, n_classes=2), 40, 8, None, 2),
    "mlp-mixed": (MLP(n_features=3, n_hidden=4, n_classes=2), 10, 1, None, 2),
    "mlp-single-block": (MLP(n_features=3, n_hidden=4, n_classes=2), 40, 7, (20,), 1),
    # three factors of 3 x 3, three of 3 x 4 (dual), one of 2 x 2
    "runs-of-three-shapes": (MLP(n_features=3, n_hidden=4, n_classes=2), 9, 3,
                             (3, 3, 4, 4, 4, 2), 3),
}


def _apply_case(case):
    """Params, dataset, block spec (None: the family's own), batch size and run count of a case."""
    shape, n, batch_size, sides, runs = APPLY_CASES[case]
    spec = None
    if sides is not None:
        edges = np.cumsum((0,) + sides).tolist()
        spec = BlockSpec(ranges=tuple(zip(edges, edges[1:])))
    return random_params(shape, 3), dataset_for_shape(shape, 9, n=n), spec, batch_size, runs


@pytest.mark.parametrize("case", list(APPLY_CASES))
def test_run_wise_build_matches_the_per_block_oracle(case):
    params, ds, spec, batch_size, runs = _apply_case(case)
    cfg = LossConfig(0.05)
    finv = build_inverse_fisher(params, ds, cfg, 0.5, spec, batch_size)
    expected = per_block_factors(params, ds, cfg, 0.5, finv.spec, batch_size)
    assert len(finv._runs) == runs
    assert len(finv.blocks) == len(expected)
    for block, factor in zip(finv.blocks, expected):
        assert np.array_equal(block, factor)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("case", list(APPLY_CASES))
def test_apply_inverse_matches_the_per_block_oracle(monkeypatch, tmp_path, case, loaded):
    params, ds, spec, batch_size, runs = _apply_case(case)
    shape = params.shape
    # the factors as the build (or the file) hands them to the container
    passed = []
    real = fisher.InverseFisher

    def recording(**fields):
        passed.append(fields["blocks"])
        return real(**fields)

    monkeypatch.setattr(fisher, "InverseFisher", recording)
    finv = build_inverse_fisher(params, ds, LossConfig(0.05), 0.5, spec, batch_size)
    if loaded:
        save_inverse_fisher(finv, str(tmp_path / "f.bin"))
        finv = load_inverse_fisher(str(tmp_path / "f.bin"))
    factors = passed[-1]
    assert len({id(block.base) for block in finv.blocks}) == runs
    for block, factor in zip(finv.blocks, factors):
        assert not block.flags.writeable
        assert np.array_equal(block, factor)
        assert not np.shares_memory(block, factor)
    d = shape.n_params
    full = np.zeros((d, d))
    for i, (lo, hi) in enumerate(finv.spec.ranges):
        full[lo:hi, lo:hi] = dense_block(finv, i)
    rng = np.random.default_rng(len(case))
    for scale in (1e-3, 1.0, 1e3):
        v = scale * rng.standard_normal(d)
        out = apply_inverse(finv, v)
        assert np.array_equal(out, apply_inverse_oracle(finv, v))
        np.testing.assert_allclose(out, full @ v, rtol=1e-12, atol=1e-12 * np.abs(out).max())
    with pytest.raises(InputError):
        apply_inverse(finv, np.ones(d - 1))


def test_diagonal_inverse_fisher_formula():
    shape = MultiAttrLinear(n_attrs=2, n_features=2)
    ds = dataset_for_shape(shape, 5, n=8)
    cfg = LossConfig(l2_coeff=0.02)
    params = random_params(shape, 6)
    lam = 0.3
    diag = diagonal_inverse_fisher(params, ds, cfg, lam)
    g = grad_matrix(params, ds.features, ds.labels, cfg)
    np.testing.assert_allclose(diag, 1.0 / (lam + np.square(g).mean(axis=0)), rtol=1e-12)


# ---------------------------------------------------------------------------
# Block specs
# ---------------------------------------------------------------------------

def test_from_shape_blocks_per_family():
    assert BlockSpec.from_shape(MultiAttrLinear(n_attrs=3, n_features=4)).ranges == (
        (0, 4), (4, 8), (8, 12),
    )
    assert BlockSpec.from_shape(MultinomialLinear(n_classes=2, n_features=5)).ranges == (
        (0, 5), (5, 10),
    )
    assert BlockSpec.from_shape(MLP(n_features=3, n_hidden=2, n_classes=4)).ranges == (
        (0, 6), (6, 14),
    )


def test_block_spec_validation():
    with pytest.raises(InputError):
        BlockSpec(ranges=((0, 2), (3, 4)))  # gap
    with pytest.raises(InputError):
        BlockSpec(ranges=((0, 0),))  # empty interval
    with pytest.raises(InputError):
        BlockSpec(ranges=())
    # a fractional bound is refused, not truncated into another layout
    with pytest.raises(InputError, match="^block bound must be a whole number, got 1.5$"):
        BlockSpec(ranges=((0, 1.5), (1.5, 3)))
    spec = BlockSpec(ranges=((0, 2.0), (np.int64(2), np.float64(3))))
    assert spec.ranges == ((0, 2), (2, 3))
    assert all(type(bound) is int for pair in spec.ranges for bound in pair)


@pytest.mark.parametrize(
    "n_samples, factor, digest, error, match",
    [
        # one sample per row: count 3 >= side 2 is primal, count 1 < side 2 is dual
        (3, [[1.0, 0.5], [0.0, 1.0]], bytes(32), NumericError, "triangular"),
        (3, [[1.0, 0.0], [0.5, 0.0]], bytes(32), NumericError, "positive diagonal"),
        (3, [[1.0, 0.0], [0.5, -1.0]], bytes(32), NumericError, "positive diagonal"),
        (1, [[1.0, 0.0]], bytes(32), NumericError, "not positive definite"),
        (1, [[0.9, 0.9]], bytes(32), NumericError, "not positive definite"),
        (1, [[0.5, 0.0], [0.0, 0.5]], bytes(32), InputError, "shape"),
        (3, [[0.5, 0.0]], bytes(32), InputError, "shape"),
        (3, [[1.0, 0.0], [np.nan, 1.0]], bytes(32), NumericError, "non-finite"),
        (3, [[1.0, 0.0], [0.5, 1.0]], b"short", InputError, "digest"),
    ],
    ids=["non-triangular", "zero-diagonal", "negative-diagonal", "dual-norm-one",
         "dual-norm-above-one", "primal-rows-for-dual", "dual-rows-for-primal", "non-finite",
         "short-digest"],
)
def test_inverse_fisher_rejects_bad_factors(n_samples, factor, digest, error, match):
    with pytest.raises(error, match=match):
        InverseFisher(
            blocks=(np.array(factor),), spec=BlockSpec.single(2), dampening=1.0,
            n_samples=n_samples, batch_size=1, built_at_digest=digest,
        )


_SIDES_2_2_2 = BlockSpec(ranges=((0, 2), (2, 4), (4, 6)))
_SIDES_2_2 = BlockSpec(ranges=((0, 2), (2, 4)))


@pytest.mark.parametrize(
    "n_samples, spec, factors, message",
    [
        (1, BlockSpec.single(2), [[[1e200, 0.0]]],
         "block 0 (parameters 0:2): I - Z Z^T has non-finite entries"),
        (1, BlockSpec.single(2), [[[1.0, 0.0]]],
         "block 0 (parameters 0:2): I - Z Z^T is not positive definite"),
        (3, BlockSpec.single(2), [[[1.0, 0.5], [0.0, 1.0]]],
         "block 0 (parameters 0:2) is not triangular with a positive diagonal"),
        # the third block of a dual run, the second of a primal run
        (1, _SIDES_2_2_2, [[[0.5, 0.0]], [[0.0, 0.5]], [[1e200, 0.0]]],
         "block 2 (parameters 4:6): I - Z Z^T has non-finite entries"),
        (3, _SIDES_2_2,
         [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [np.inf, 1.0]]],
         "block 1 (parameters 2:4) has non-finite entries"),
        (3, _SIDES_2_2,
         [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]],
         "block 1 (parameters 2:4) is not triangular with a positive diagonal"),
    ],
    ids=["dual-overflow", "dual-norm-one", "above-diagonal", "third-of-a-dual-run",
         "non-finite-second-of-a-primal-run", "second-of-a-primal-run"],
)
def test_stored_factor_checks_name_the_block(n_samples, spec, factors, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            InverseFisher(
                blocks=tuple(np.array(f) for f in factors), spec=spec, dampening=1.0,
                n_samples=n_samples, batch_size=1, built_at_digest=bytes(32),
            )
    assert str(err.value) == f"inverse Fisher factor of {message}"


def test_inverse_fisher_accepts_factors_of_both_forms():
    for n_samples, factor in ((3, [[1.0, 0.0], [0.5, 1.0]]), (1, [[0.6, 0.7]])):
        InverseFisher(
            blocks=(np.array(factor),), spec=BlockSpec.single(2), dampening=1.0,
            n_samples=n_samples, batch_size=1, built_at_digest=bytes(32),
        )


# ---------------------------------------------------------------------------
# Container round-trip and corruption
# ---------------------------------------------------------------------------

def _sample_finv():
    shape = MultinomialLinear(n_classes=2, n_features=3)
    ds = multinomial_dataset(11, 7, 3, 2)
    params = random_params(shape, 12)
    return params, build_inverse_fisher(params, ds, LossConfig(0.01), 0.15, None, 2)


def test_container_round_trip(tmp_path):
    params, finv = _sample_finv()
    path = str(tmp_path / "f.bin")
    save_inverse_fisher(finv, path)
    loaded = load_inverse_fisher(path)
    assert loaded.dampening == finv.dampening
    assert loaded.n_samples == finv.n_samples
    assert loaded.batch_size == finv.batch_size
    assert loaded.built_at_digest == params_digest(params)
    assert loaded.spec.ranges == finv.spec.ranges
    for a, b in zip(loaded.blocks, finv.blocks):
        np.testing.assert_array_equal(a, b)


def test_container_rerun_is_byte_identical(tmp_path):
    _, finv = _sample_finv()
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_inverse_fisher(finv, p1)
    save_inverse_fisher(finv, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_container_bad_magic_reports_byte_zero(tmp_path):
    _, finv = _sample_finv()
    path = str(tmp_path / "f.bin")
    save_inverse_fisher(finv, path)
    blob = bytearray(Path(path).read_bytes())
    blob[0] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="byte 0"):
        load_inverse_fisher(path)


def test_container_truncation_reports_offset(tmp_path):
    _, finv = _sample_finv()
    path = str(tmp_path / "f.bin")
    save_inverse_fisher(finv, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) - 9])
    with pytest.raises(ContainerError, match="truncated at byte"):
        load_inverse_fisher(path)


def test_container_trailing_bytes_rejected(tmp_path):
    _, finv = _sample_finv()
    path = str(tmp_path / "f.bin")
    save_inverse_fisher(finv, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob + b"\x00")
    with pytest.raises(ContainerError, match="trailing"):
        load_inverse_fisher(path)


# block 0's row count follows the magic, version, dampening, n_samples,
# batch_size, digest and block count: byte 8 + 1 + 8 + 8 + 8 + 32 + 8 = 73
@pytest.mark.parametrize("rows", [0, 4], ids=["zero", "above-side"])
def test_container_rejects_block_rows_out_of_range(tmp_path, rows):
    _, finv = _sample_finv()
    path = str(tmp_path / "f.bin")
    save_inverse_fisher(finv, path)
    blob = bytearray(Path(path).read_bytes())
    assert int.from_bytes(blob[73:81], "little") == 3
    blob[73:81] = rows.to_bytes(8, "little")
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match=f"block 0 rows {rows}, side 3 at byte 73"):
        load_inverse_fisher(path)


def test_container_unsupported_version(tmp_path):
    _, finv = _sample_finv()
    path = str(tmp_path / "f.bin")
    save_inverse_fisher(finv, path)
    blob = bytearray(Path(path).read_bytes())
    blob[8] = 9
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="version"):
        load_inverse_fisher(path)


def test_container_missing_file():
    with pytest.raises(ContainerError, match="cannot read"):
        load_inverse_fisher("/nonexistent/fisher.bin")

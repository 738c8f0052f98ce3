"""Metrics: AUC, ratios, confusion distances, sweeps, boundary grids."""

import numpy as np
import pytest

from helpers import (
    auc_per_attribute_oracle,
    binary_dataset,
    confusion_matrix_oracle,
    multinomial_dataset,
    performance_similarity,
    random_params,
    roc_auc_oracle,
    similarity_ratio_oracle,
)
from ssse import (
    BlockSpec,
    Dataset,
    EvalReport,
    GridSpec,
    InputError,
    LossConfig,
    ModelParams,
    MultiAttrLinear,
    MultinomialLinear,
    SplitData,
    accuracy,
    auc_per_attribute,
    boundary_disagreement,
    build_inverse_fisher,
    build_splits,
    confusion_distance,
    confusion_matrix,
    epsilon_sweep,
    evaluate_erasure,
    make_blobs,
    make_ids,
    normalized_confusion_distance,
    normalized_param_distance,
    roc_auc,
    similarity_ratio,
    ssse_update,
    sweep_csv_text,
    sweep_report_text,
)
from ssse.data import RemovalSpec
from ssse.evaluation import _aucs


def pairwise_auc(scores, labels):
    """Independent oracle: the literal count over all positive/negative pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# ROC AUC
# ---------------------------------------------------------------------------

def test_roc_auc_frozen_oracle():
    # positives score 0.9 and 0.4, negatives 0.6 and 0.1: three of the
    # four pairs are ordered correctly, so the area is exactly 0.75.
    scores = np.array([0.9, 0.4, 0.6, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == pytest.approx(0.75, abs=0)


def test_roc_auc_perfect_and_inverted():
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0


def test_roc_auc_ties_count_half():
    scores = np.array([0.5, 0.5])
    labels = np.array([1, 0])
    assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0)


def test_roc_auc_degenerate_labels_return_zero():
    assert roc_auc(np.array([0.3, 0.7]), np.array([1, 1])) == 0.0
    assert roc_auc(np.array([0.3, 0.7]), np.array([0, 0])) == 0.0
    assert roc_auc(np.array([]), np.array([])) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roc_auc_refuses_non_finite_scores(bad):
    scores = np.array([0.2, bad, 0.7, 0.4])
    with pytest.raises(InputError, match="finite"):
        roc_auc(scores, np.array([1, 0, 1, 0]))


# bit patterns from scipy.stats.rankdata average ranks on the same inputs
@pytest.mark.parametrize("seed, expected", [
    (0, "0x1.1213562c8eec4p-1"),
    (1, "0x1.a68a68a68a68ap-2"),
    (2, "0x1.fc4503439d24dp-2"),
    (3, "0x1.0e9f2e141348fp-1"),
    (4, "0x1.15f06881ca7b8p-1"),
])
def test_roc_auc_bits_on_tie_heavy_scores(seed, expected):
    rng = np.random.default_rng(seed)
    n = 50 + 37 * seed
    scores = rng.integers(0, 7, n) / 8.0
    labels = rng.integers(0, 2, n)
    assert roc_auc(scores, labels).hex() == expected


@pytest.mark.parametrize("seed", range(10))
def test_roc_auc_matches_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    # quantized scores force plenty of ties
    scores = np.round(rng.random(n), 1)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


def _hex(values):
    return [float(v).hex() for v in values]


def _auc_case(rng, case):
    """An (n, a) score matrix and labels; ``case`` picks the score and label patterns."""
    n, a = int(rng.integers(0, 80)), int(rng.integers(1, 9))
    scores = (
        rng.standard_normal((n, a)),
        rng.integers(0, 4, (n, a)) / 4.0,  # quantized
        np.full((n, a), 0.5),  # all tied
        rng.choice([-0.0, 0.0, 1.0], (n, a)),  # signed zeros tie
        np.round(rng.random((n, a)), 1),
    )[case % 5]
    labels = rng.integers(0, 2, (n, a)) if case % 3 else rng.integers(-1, 3, (n, a))
    if case % 7 == 0:
        labels[:, 0] = 1  # no negatives
    if case % 11 == 0:
        labels[:, -1] = 0  # no positives
    return scores, labels


@pytest.mark.parametrize("seed", range(4))
def test_aucs_equals_the_oracle_column_by_column(seed):
    rng = np.random.default_rng(seed)
    for case in range(500):
        scores, labels = _auc_case(rng, case)
        want = [roc_auc_oracle(scores[:, j], labels[:, j]) for j in range(scores.shape[1])]
        assert _hex(_aucs(scores, labels)) == _hex(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_aucs_refuses_non_finite_scores(bad):
    scores = np.array([[0.2, 0.1], [0.3, bad], [0.7, 0.5]])
    with pytest.raises(InputError, match="finite"):
        _aucs(scores, np.array([[1, 0], [0, 1], [1, 0]]))


@pytest.mark.parametrize("n, a", [(225, 8), (40, 3), (2, 1)])
def test_auc_profile_and_gamma_equal_the_oracle(n, a):
    shape = MultiAttrLinear(n_attrs=a, n_features=5)
    ds = binary_dataset(n + a, n, 5, a)
    hat, star, retrain = (random_params(shape, seed, scale=2.0) for seed in range(3))
    assert _hex(auc_per_attribute(hat, ds)) == _hex(auc_per_attribute_oracle(hat, ds))
    assert (similarity_ratio(hat, star, retrain, ds).hex()
            == similarity_ratio_oracle(hat, star, retrain, ds).hex())


# ---------------------------------------------------------------------------
# Model-level metrics
# ---------------------------------------------------------------------------

def _binary_pair():
    shape = MultiAttrLinear(n_attrs=2, n_features=2)
    rng = np.random.default_rng(3)
    features = rng.standard_normal((12, 2))
    labels = (rng.random((12, 2)) < 0.5).astype(np.uint8)
    labels[0] = 0
    labels[1] = 1
    ds = Dataset(features=features, labels=labels, ids=make_ids(12))
    return shape, ds


def test_accuracy_multinomial_and_binary():
    shape = MultinomialLinear(n_classes=2, n_features=2)
    theta = np.array([[1.0, 0.0], [-1.0, 0.0]])
    params = ModelParams(values=theta.ravel(), shape=shape)
    ds = Dataset(
        features=np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]]),
        labels=np.array([1, 2, 2]),
        ids=make_ids(3),
    )
    assert accuracy(params, ds) == pytest.approx(2.0 / 3.0)

    bshape, bds = _binary_pair()
    bparams = random_params(bshape, 4)
    acc = accuracy(bparams, bds)
    assert 0.0 <= acc <= 1.0


def test_auc_per_attribute_shape_and_range():
    shape, ds = _binary_pair()
    params = random_params(shape, 5)
    aucs = auc_per_attribute(params, ds)
    assert aucs.shape == (2,)
    assert np.all((aucs >= 0) & (aucs <= 1))


def test_similarity_ratio_extremes_and_tie():
    shape, ds = _binary_pair()
    star = random_params(shape, 6)
    retrain = random_params(shape, 7)
    # identical AUC profiles with the retrain put gamma at 1 unless the
    # star profile also matches, which is the 0.5 tie sentinel
    if performance_similarity(star, retrain, ds) > 0:
        assert similarity_ratio(retrain, star, retrain, ds) == 1.0
        assert similarity_ratio(star, star, retrain, ds) == 0.0
    assert similarity_ratio(star, star, star, ds) == 0.5


def test_confusion_matrix_frozen_counts():
    shape = MultinomialLinear(n_classes=2, n_features=1)
    params = ModelParams(values=np.array([-1.0, 1.0]), shape=shape)
    ds = Dataset(
        features=np.array([[1.0], [1.0], [-1.0], [-1.0], [1.0]]),
        labels=np.array([2, 2, 1, 2, 1]),
        ids=make_ids(5),
    )
    cm = confusion_matrix(params, ds)
    # rows are true classes: class 1 samples predicted (1: one, 2: one),
    # class 2 samples predicted (1: one, 2: two)
    np.testing.assert_array_equal(cm, [[1, 1], [1, 2]])
    assert cm.sum() == ds.n


@pytest.mark.parametrize("c, n", [(2, 5), (3, 40), (10, 300), (10, 0)])
def test_confusion_matrix_equals_the_add_at_oracle(c, n):
    shape = MultinomialLinear(n_classes=c, n_features=4)
    ds = multinomial_dataset(c + n, n, 4, c)
    for seed in range(3):
        params = random_params(shape, seed, scale=2.0)
        cm = confusion_matrix(params, ds)
        assert cm.dtype == np.int64 and cm.shape == (c, c)
        assert np.array_equal(cm, confusion_matrix_oracle(params, ds))


def test_confusion_distance_is_even_for_equal_sample_counts():
    rng = np.random.default_rng(8)
    shape = MultinomialLinear(n_classes=3, n_features=3)
    ds = multinomial_dataset(9, 20, 3, 3)
    a = confusion_matrix(random_params(shape, 1), ds)
    b = confusion_matrix(random_params(shape, 2), ds)
    dist = confusion_distance(a, b)
    assert dist % 2 == 0
    with pytest.raises(InputError):
        confusion_distance(a, np.zeros((2, 2)))


def test_confusion_matrix_rejects_out_of_range_labels():
    shape = MultinomialLinear(n_classes=2, n_features=1)
    params = ModelParams(values=np.zeros(2), shape=shape)
    ds = Dataset(features=np.ones((2, 1)), labels=np.array([1, 3]), ids=make_ids(2))
    with pytest.raises(InputError):
        confusion_matrix(params, ds)


_MISMATCHED_METRICS = {
    "accuracy": lambda bad, good, ds: accuracy(bad, ds),
    "auc_per_attribute": lambda bad, good, ds: auc_per_attribute(bad, ds),
    "similarity_ratio": lambda bad, good, ds: similarity_ratio(bad, good, good, ds),
    "confusion_matrix": lambda bad, good, ds: confusion_matrix(bad, ds),
    "normalized_confusion_distance": lambda bad, good, ds: normalized_confusion_distance(
        bad, good, good, ds),
    "evaluate_erasure": lambda bad, good, ds: evaluate_erasure(
        bad, 1.0, good, good, SplitData(ds, ds, ds, ds), LossConfig(0.01)),
}


@pytest.mark.parametrize("metric", sorted(_MISMATCHED_METRICS))
@pytest.mark.parametrize("bad_shape", [
    MultinomialLinear(n_classes=3, n_features=4),
    MultiAttrLinear(n_attrs=2, n_features=4),
], ids=["other-kind", "attribute-count"])
def test_metrics_refuse_a_model_that_does_not_fit_the_data(metric, bad_shape):
    # 3-attribute binary data; only the evaluated model mismatches it, so
    # no reference profile can raise first
    ds = binary_dataset(13, 12, 4, 3)
    good = random_params(MultiAttrLinear(n_attrs=3, n_features=4), 1)
    with pytest.raises(InputError):
        _MISMATCHED_METRICS[metric](random_params(bad_shape, 2), good, ds)


@pytest.mark.parametrize("split", ["lko_train", "removed", "lko_test", "removed_test"])
def test_evaluate_erasure_checks_every_split(split):
    ds = binary_dataset(13, 12, 4, 3)
    good = random_params(MultiAttrLinear(n_attrs=3, n_features=4), 1)
    splits = dict.fromkeys(["lko_train", "removed", "lko_test", "removed_test"], ds)
    splits[split] = binary_dataset(14, 12, 5, 3)  # five features, not four
    with pytest.raises(InputError, match="5 features"):
        evaluate_erasure(good, 1.0, good, good, SplitData(**splits), LossConfig(0.01))


def test_normalized_distances_sentinels():
    shape = MultinomialLinear(n_classes=2, n_features=2)
    star = random_params(shape, 10)
    retrain = random_params(shape, 11)
    ds = multinomial_dataset(12, 15, 2, 2)
    assert normalized_confusion_distance(retrain, star, retrain, ds) in (0.0, 0.5)
    assert normalized_param_distance(retrain, star, retrain) == 0.0
    assert normalized_param_distance(star, star, retrain) == 1.0
    assert normalized_param_distance(star, star, star) == 0.5


def test_eval_report_rejects_out_of_range_ratios():
    kwargs = dict(
        epsilon=1.0,
        acc_lko_train=0.9, acc_removed=0.8, acc_lko_test=0.7, acc_removed_test=0.6,
        loss_lko_train=0.1, loss_removed=0.2, loss_lko_test=0.3, loss_removed_test=0.4,
        gamma=None, delta=1.5, param_dist=0.5, grad_norm_lko=0.01, auc_removed=None,
    )
    with pytest.raises(InputError):
        EvalReport(**kwargs)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _sweep_fixture():
    train_ds = make_blobs(1, 30, [(-2.0, 0.0), (2.0, 0.0)], 1.0, id_prefix="tr")
    test_ds = make_blobs(2, 30, [(-2.0, 0.0), (2.0, 0.0)], 1.0, id_prefix="te")
    shape = MultinomialLinear(n_classes=2, n_features=2)
    lc = LossConfig(0.01)
    from ssse import TrainConfig, retrain_scratch, train as run_train

    tc = TrainConfig(lr=0.4, epochs=120, batch_size=15, seed=3)
    star = run_train(train_ds, shape, lc, tc)
    splits = build_splits(train_ds, test_ds, RemovalSpec(kind="class", index=2, fraction=0.4, seed=4))
    retrain = retrain_scratch(train_ds, splits.removed, shape, lc, tc)
    finv = build_inverse_fisher(star.params, train_ds, lc, 0.01, BlockSpec.single(4), 1)
    return train_ds, test_ds, splits, star, retrain, finv, lc


def test_epsilon_sweep_reports_and_tie_break():
    train_ds, test_ds, splits, star, retrain, finv, lc = _sweep_fixture()
    grid = [0.5, 1.0, 2.0]
    sweep = epsilon_sweep(
        star.params, finv, train_ds, test_ds, splits, grid, "min_delta", retrain.params, lc
    )
    assert len(sweep.reports) == 3
    assert [r.epsilon for r in sweep.reports] == grid
    deltas = [r.delta for r in sweep.reports]
    best = min(range(3), key=lambda i: (deltas[i], i))
    assert sweep.best_epsilon == grid[best]

    # every report row evaluates the erased model at its own epsilon
    for eps, report in zip(grid, sweep.reports):
        from ssse import ErasureRequest

        theta = ssse_update(
            star.params, finv, train_ds, ErasureRequest(removed_ids=splits.removed, epsilon=eps), lc
        )
        sd = SplitData.from_splits(train_ds, test_ds, splits)
        again = evaluate_erasure(theta, eps, star.params, retrain.params, sd, lc)
        assert again.delta == report.delta
        assert again.acc_removed == report.acc_removed


def test_epsilon_sweep_validation():
    train_ds, test_ds, splits, star, retrain, finv, lc = _sweep_fixture()
    with pytest.raises(InputError):
        epsilon_sweep(star.params, finv, train_ds, test_ds, splits, [], "min_delta", retrain.params, lc)
    with pytest.raises(InputError):
        epsilon_sweep(star.params, finv, train_ds, test_ds, splits, [1.0, 0.5], "min_delta", retrain.params, lc)
    with pytest.raises(InputError):
        epsilon_sweep(star.params, finv, train_ds, test_ds, splits, [0.5], "max_gamma", retrain.params, lc)
    with pytest.raises(InputError):
        epsilon_sweep(star.params, finv, train_ds, test_ds, splits, [0.5], "plurality", retrain.params, lc)


def test_sweep_report_text_layout():
    train_ds, test_ds, splits, star, retrain, finv, lc = _sweep_fixture()
    sweep = epsilon_sweep(
        star.params, finv, train_ds, test_ds, splits, [0.5, 1.0], "min_delta", retrain.params, lc
    )
    text = sweep_report_text(sweep)
    lines = text.splitlines()
    assert lines[0] == "# erasure sweep"
    assert lines[1] == "criterion: min_delta"
    assert lines[2].startswith("best_epsilon: ")
    assert lines[3] == "records: 2"
    assert "gamma: na" in text  # multinomial task has no gamma
    assert sum(1 for ln in lines if ln.startswith("epsilon: ")) == 2

    csv = sweep_csv_text(sweep)
    rows = csv.splitlines()
    assert rows[0] == (
        "epsilon,gamma,delta,param_dist,acc_lko_train,acc_removed,"
        "acc_lko_test,acc_removed_test"
    )
    assert len(rows) == 3
    first = rows[1].split(",")
    assert first[0] == "0.5"
    assert first[1] == ""  # gamma column empty on multinomial tasks


# ---------------------------------------------------------------------------
# Boundary grids
# ---------------------------------------------------------------------------

def test_grid_spec_points_row_major():
    grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=2.0, nx=2, ny=3)
    pts = grid.points()
    assert pts.shape == (6, 2)
    np.testing.assert_allclose(pts[0], [0.0, 0.0])
    np.testing.assert_allclose(pts[1], [1.0, 0.0])
    np.testing.assert_allclose(pts[-1], [1.0, 2.0])
    with pytest.raises(InputError):
        GridSpec(x_min=1.0, x_max=0.0, y_min=0.0, y_max=1.0, nx=2, ny=2)
    with pytest.raises(InputError):
        GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=1, ny=2)


def test_boundary_disagreement_self_and_sign_flip():
    shape = MultinomialLinear(n_classes=2, n_features=2)
    params = ModelParams(values=np.array([0.7, -0.3, -0.7, 0.3]), shape=shape)
    grid = GridSpec(x_min=-3.0, x_max=3.0, y_min=-3.0, y_max=3.0, nx=21, ny=21)
    assert boundary_disagreement(params, params, grid) == 0.0
    flipped = params.with_values(-params.values)
    disagreement = boundary_disagreement(params, flipped, grid)
    assert disagreement > 0.9  # only exact-tie grid points can agree


def test_boundary_disagreement_requires_two_features():
    shape = MultinomialLinear(n_classes=2, n_features=3)
    params = random_params(shape, 1)
    grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=2, ny=2)
    with pytest.raises(InputError):
        boundary_disagreement(params, params, grid)

"""Erasure-quality metrics, the epsilon sweep, and report writers.

Two families of comparison metrics judge an erased model theta_hat
against both the original parameters theta_star and the gold-standard
retrain theta_retrain, always on the removed samples S:

* binary tasks: per-attribute ROC AUC differences summed over attributes
  (performance similarity D), normalized into the ratio
  gamma = D(hat, star) / (D(hat, star) + D(hat, retrain)), so gamma -> 1
  means the erased model behaves like the retrain and gamma -> 0 like
  the original.
* multinomial tasks: the L1 distance between confusion matrices
  (confusion distance S), normalized into
  delta = S(hat, retrain) / (S(hat, star) + S(hat, retrain)), so
  delta -> 0 means the erased model matches the retrain.

Both ratios, and the analogous normalized parameter distance, report the
0.5 tie sentinel when the two defining distances are both zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .erasure import (
    check_epsilon_grid,
    ssse_grid,
    ssse_update,  # unused here; the benchmark's traced runs patch evaluation.ssse_update
)
from .errors import InputError
from .fisher import InverseFisher
from .models import (
    Dataset,
    LossConfig,
    ModelParams,
    MultiAttrLinear,
    _check_task_match,
    _forward,
    _grad_sums,
    _labels_from_proba,
    _loss_from_proba,
    _targets,
    loss,
    predict_labels,
    predict_proba,
)
from .data import SplitSet


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------

def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, tied values sharing their mean rank; all NaN if any is NaN.

    Each tie run spans sorted positions [start, end) and gets the mean
    (start + end + 1) / 2 of its ranks, a half-integer, so exact in float64.
    """
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cuts = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [x.size]))
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney ROC AUC with ties counted one half.

    By convention a degenerate split (no positives or no negatives,
    including an empty input) scores 0. That makes an attribute with a
    single class on the evaluation samples contribute nothing to the
    performance-similarity distance between two models. Non-finite
    scores raise InputError rather than turning the area into NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be matching vectors")
    if not np.all(np.isfinite(scores)):
        raise InputError("scores must be finite")
    pos = labels == 1
    neg = labels == 0
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        return 0.0
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(params: ModelParams, dataset: Dataset) -> float:
    """Mean hard-prediction accuracy; nan on an empty dataset.

    Binary tasks average the per-attribute accuracies, which equals the
    mean over all (sample, attribute) cells.
    """
    if dataset.n == 0:
        return float("nan")
    preds = predict_labels(params, dataset.features)
    return float((preds == dataset.labels).mean())


def mean_loss(params: ModelParams, dataset: Dataset, cfg: LossConfig) -> float:
    if dataset.n == 0:
        return float("nan")
    return loss(params, dataset, cfg)


def auc_per_attribute(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """ROC AUC of each attribute head on the given samples."""
    _check_auc_task(params, dataset)
    return _auc_profile(predict_proba(params, dataset.features), dataset.labels)


def _check_auc_task(params: ModelParams, dataset: Dataset) -> None:
    if not isinstance(params.shape, MultiAttrLinear) or dataset.kind != "binary":
        raise InputError("per-attribute AUC requires a binary multi-attribute task")
    if dataset.n_attrs != params.shape.n_attrs:
        raise InputError("dataset attribute count does not match the model")


def _auc_profile(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.asarray(
        [roc_auc(p[:, j], labels[:, j]) for j in range(labels.shape[1])], dtype=np.float64
    )


def performance_similarity(a: ModelParams, b: ModelParams, samples: Dataset) -> float:
    """L1 distance between the two models' per-attribute AUC profiles."""
    return float(np.abs(auc_per_attribute(a, samples) - auc_per_attribute(b, samples)).sum())


def _ratio(toward_retrain: float, toward_star: float) -> float:
    total = toward_retrain + toward_star
    if total == 0.0:
        return 0.5
    return toward_retrain / total


def similarity_ratio(
    theta_hat: ModelParams,
    theta_star: ModelParams,
    theta_retrain: ModelParams,
    samples: Dataset,
) -> float:
    """gamma in [0, 1]: 1 when the erased model's AUC profile matches the retrain."""
    d_star = performance_similarity(theta_hat, theta_star, samples)
    d_retrain = performance_similarity(theta_hat, theta_retrain, samples)
    return _ratio(d_star, d_retrain)


def confusion_matrix(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Counts with true classes as rows and predicted classes as columns."""
    _check_confusion_task(params, dataset)
    preds = predict_labels(params, dataset.features)
    return _confusion(params.shape.n_classes, dataset.labels, preds)


def _check_confusion_task(params: ModelParams, dataset: Dataset) -> None:
    if isinstance(params.shape, MultiAttrLinear):
        raise InputError("confusion matrices require a multinomial task")
    if dataset.kind != "multinomial":
        raise InputError("confusion matrices require class labels")
    if dataset.n and dataset.labels.max() > params.shape.n_classes:
        raise InputError("class label out of range for the model shape")


def _confusion(c: int, labels: np.ndarray, preds: np.ndarray) -> np.ndarray:
    cm = np.zeros((c, c), dtype=np.int64)
    np.add.at(cm, (labels - 1, preds - 1), 1)
    return cm


def confusion_distance(cm_a: np.ndarray, cm_b: np.ndarray) -> int:
    """Entrywise L1 distance; even when both matrices count the same samples."""
    cm_a = np.asarray(cm_a)
    cm_b = np.asarray(cm_b)
    if cm_a.shape != cm_b.shape:
        raise InputError("confusion matrices must have the same shape")
    return int(np.abs(cm_a.astype(np.int64) - cm_b.astype(np.int64)).sum())


def normalized_confusion_distance(
    theta_hat: ModelParams,
    theta_star: ModelParams,
    theta_retrain: ModelParams,
    samples: Dataset,
) -> float:
    """delta in [0, 1]: 0 when the erased model confuses exactly like the retrain."""
    cm_hat = confusion_matrix(theta_hat, samples)
    s_retrain = confusion_distance(cm_hat, confusion_matrix(theta_retrain, samples))
    s_star = confusion_distance(cm_hat, confusion_matrix(theta_star, samples))
    return _ratio(float(s_retrain), float(s_star))


def normalized_param_distance(
    theta_hat: ModelParams, theta_star: ModelParams, theta_retrain: ModelParams
) -> float:
    """Euclidean analogue of delta on raw parameter vectors."""
    d_retrain = float(np.linalg.norm(theta_hat.values - theta_retrain.values))
    d_star = float(np.linalg.norm(theta_hat.values - theta_star.values))
    return _ratio(d_retrain, d_star)


# ---------------------------------------------------------------------------
# Per-epsilon evaluation and the sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    """Metrics for one erased model against the original and the retrain."""

    epsilon: float
    acc_lko_train: float
    acc_removed: float
    acc_lko_test: float
    acc_removed_test: float
    loss_lko_train: float
    loss_removed: float
    loss_lko_test: float
    loss_removed_test: float
    gamma: float | None
    delta: float | None
    param_dist: float
    grad_norm_lko: float
    auc_removed: tuple[float, ...] | None

    def __post_init__(self) -> None:
        for name, value in (("gamma", self.gamma), ("delta", self.delta)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 <= self.param_dist <= 1.0:
            raise InputError(f"param_dist must lie in [0, 1], got {self.param_dist}")


@dataclass(frozen=True)
class SweepResult:
    criterion: str
    best_epsilon: float
    reports: tuple[EvalReport, ...]


@dataclass(frozen=True)
class SplitData:
    """The four split datasets an evaluation runs over."""

    lko_train: Dataset
    removed: Dataset
    lko_test: Dataset
    removed_test: Dataset

    @staticmethod
    def from_splits(train: Dataset, test: Dataset, splits: SplitSet) -> "SplitData":
        return SplitData(
            lko_train=train.subset(splits.lko_train),
            removed=train.subset(splits.removed),
            lko_test=test.subset(splits.lko_test),
            removed_test=test.subset(splits.removed_test),
        )


def _removed_profile(params: ModelParams, removed: Dataset, p: np.ndarray) -> np.ndarray:
    """The AUC profile (binary task) or confusion matrix on the removed split, from ``p``."""
    if removed.kind == "binary":
        _check_auc_task(params, removed)
        return _auc_profile(p, removed.labels)
    _check_confusion_task(params, removed)
    return _confusion(params.shape.n_classes, removed.labels, _labels_from_proba(params.shape, p))


def _references(
    theta_star: ModelParams, theta_retrain: ModelParams, removed: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """theta*'s and the retrain's removed-split profiles, which every epsilon compares against."""
    if removed.n == 0:
        raise InputError("evaluation requires a nonempty removed split")
    return tuple(
        _removed_profile(t, removed, predict_proba(t, removed.features))
        for t in (theta_star, theta_retrain)
    )


def _split_scores(params: ModelParams, dataset: Dataset, cfg: LossConfig):
    """Accuracy and mean loss on one split, and the one forward pass they come from.

    An empty split scores nan twice and makes no pass.
    """
    if dataset.n == 0:
        return float("nan"), float("nan"), None
    forward = _forward(params.shape, params.values, dataset.features)
    p = forward[1]
    acc = float((_labels_from_proba(params.shape, p) == dataset.labels).mean())
    _check_task_match(params, dataset)
    return acc, _loss_from_proba(p, dataset, params.values, cfg), forward


def _report(
    theta_hat: ModelParams,
    epsilon: float,
    theta_star: ModelParams,
    theta_retrain: ModelParams,
    references: tuple[np.ndarray, np.ndarray],
    split_data: SplitData,
    loss_cfg: LossConfig,
) -> EvalReport:
    """One report row from one forward pass of theta_hat per split.

    Each number equals the public metric's (:func:`accuracy`,
    :func:`mean_loss`, :func:`similarity_ratio` or
    :func:`normalized_confusion_distance`, the norm of :func:`grad_mean`)
    bit for bit.
    """
    star, retrain = references
    removed, lko_train = split_data.removed, split_data.lko_train
    shape, values = theta_hat.shape, theta_hat.values
    acc_removed, loss_removed, forward = _split_scores(theta_hat, removed, loss_cfg)
    profile = _removed_profile(theta_hat, removed, forward[1])
    gamma = delta = auc_removed = None
    if removed.kind == "binary":
        d_star = float(np.abs(profile - star).sum())
        d_retrain = float(np.abs(profile - retrain).sum())
        gamma = _ratio(d_star, d_retrain)
        auc_removed = tuple(float(v) for v in profile)
    else:
        s_retrain = confusion_distance(profile, retrain)
        s_star = confusion_distance(profile, star)
        delta = _ratio(float(s_retrain), float(s_star))
    acc_lko_train, loss_lko_train, forward = _split_scores(theta_hat, lko_train, loss_cfg)
    if forward is None:
        raise InputError("gradient is undefined on an empty dataset")
    targets = _targets(shape, lko_train.labels)
    total = _grad_sums(shape, values, lko_train.features, targets, loss_cfg.l2_coeff,
                       forward=forward)[0]
    acc_lko_test, loss_lko_test, _ = _split_scores(theta_hat, split_data.lko_test, loss_cfg)
    acc_removed_test, loss_removed_test, _ = _split_scores(
        theta_hat, split_data.removed_test, loss_cfg
    )
    return EvalReport(
        epsilon=float(epsilon),
        acc_lko_train=acc_lko_train,
        acc_removed=acc_removed,
        acc_lko_test=acc_lko_test,
        acc_removed_test=acc_removed_test,
        loss_lko_train=loss_lko_train,
        loss_removed=loss_removed,
        loss_lko_test=loss_lko_test,
        loss_removed_test=loss_removed_test,
        gamma=gamma,
        delta=delta,
        param_dist=normalized_param_distance(theta_hat, theta_star, theta_retrain),
        grad_norm_lko=float(np.linalg.norm(total / lko_train.n)),
        auc_removed=auc_removed,
    )


def evaluate_erasure(
    theta_hat: ModelParams,
    epsilon: float,
    theta_star: ModelParams,
    theta_retrain: ModelParams,
    split_data: SplitData,
    loss_cfg: LossConfig,
) -> EvalReport:
    """Assemble one report row; gamma for binary tasks, delta for multinomial."""
    references = _references(theta_star, theta_retrain, split_data.removed)
    return _report(
        theta_hat, epsilon, theta_star, theta_retrain, references, split_data, loss_cfg
    )


_CRITERIA = ("max_gamma", "min_delta")


def epsilon_sweep(
    theta_star: ModelParams,
    finv: InverseFisher,
    train: Dataset,
    test: Dataset,
    splits: SplitSet,
    grid: Sequence[float],
    criterion: str,
    theta_retrain: ModelParams,
    loss_cfg: LossConfig,
) -> SweepResult:
    """Erase at every epsilon on the grid and pick the best one.

    The grid must pass :func:`check_epsilon_grid`. ``max_gamma``
    applies to binary tasks and picks the largest gamma, ``min_delta``
    to multinomial tasks and picks the smallest delta; ties keep the
    lowest epsilon because the scan only replaces on strict improvement.

    The erasure direction and the original and retrained models' profiles
    on the removed split are computed once; each epsilon then costs one
    forward pass per split. Every report equals :func:`evaluate_erasure`
    of :func:`ssse_update` at that epsilon bit for bit.
    """
    grid = check_epsilon_grid(grid)
    if criterion not in _CRITERIA:
        raise InputError(f"unknown sweep criterion: {criterion!r}")
    if criterion == "max_gamma" and train.kind != "binary":
        raise InputError("max_gamma requires a binary attribute task")
    if criterion == "min_delta" and train.kind != "multinomial":
        raise InputError("min_delta requires a multinomial task")

    erased = ssse_grid(theta_star, finv, train, splits.removed, grid, loss_cfg)
    split_data = SplitData.from_splits(train, test, splits)
    references = _references(theta_star, theta_retrain, split_data.removed)
    reports = []
    best_idx = 0
    best_value: float | None = None
    for i, (eps, (theta_hat, _)) in enumerate(zip(grid, erased)):
        report = _report(
            theta_hat, eps, theta_star, theta_retrain, references, split_data, loss_cfg
        )
        reports.append(report)
        value = report.gamma if criterion == "max_gamma" else report.delta
        assert value is not None
        better = best_value is None or (
            value > best_value if criterion == "max_gamma" else value < best_value
        )
        if better:
            best_idx = i
            best_value = value
    return SweepResult(
        criterion=criterion, best_epsilon=grid[best_idx], reports=tuple(reports)
    )


# ---------------------------------------------------------------------------
# Decision-boundary disagreement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Regular 2-d evaluation grid, row-major from (x_min, y_min)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise InputError("grid extents must satisfy max > min")
        if self.nx < 2 or self.ny < 2:
            raise InputError("grid needs nx >= 2 and ny >= 2")

    def points(self) -> np.ndarray:
        xs = np.linspace(self.x_min, self.x_max, self.nx)
        ys = np.linspace(self.y_min, self.y_max, self.ny)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


def boundary_disagreement(a: ModelParams, b: ModelParams, grid: GridSpec) -> float:
    """Fraction of grid points where the two models' hard predictions differ."""
    if a.shape.n_features != 2 or b.shape.n_features != 2:
        raise InputError("boundary comparison requires two-feature models")
    binary_a = isinstance(a.shape, MultiAttrLinear)
    binary_b = isinstance(b.shape, MultiAttrLinear)
    if binary_a != binary_b:
        raise InputError("cannot compare binary and multinomial predictions")
    pts = grid.points()
    pa = predict_labels(a, pts)
    pb = predict_labels(b, pts)
    if pa.shape != pb.shape:
        raise InputError("models predict different output spaces")
    if pa.ndim == 2:
        return float((pa != pb).any(axis=1).mean())
    return float((pa != pb).mean())


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "na"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


_REPORT_FIELDS = (
    "epsilon",
    "gamma",
    "delta",
    "param_dist",
    "acc_lko_train",
    "acc_removed",
    "acc_lko_test",
    "acc_removed_test",
    "loss_lko_train",
    "loss_removed",
    "loss_lko_test",
    "loss_removed_test",
    "grad_norm_lko",
)


def sweep_report_text(result: SweepResult) -> str:
    """Fixed-field text report: one record per epsilon plus the best line."""
    lines = [
        "# erasure sweep",
        f"criterion: {result.criterion}",
        f"best_epsilon: {_fmt(result.best_epsilon)}",
        f"records: {len(result.reports)}",
    ]
    for report in result.reports:
        lines.append("")
        for field in _REPORT_FIELDS:
            lines.append(f"{field}: {_fmt(getattr(report, field))}")
        if report.auc_removed is not None:
            joined = ",".join(_fmt(v) for v in report.auc_removed)
            lines.append(f"auc_removed: {joined}")
    lines.append("")
    return "\n".join(lines)


_CSV_FIELDS = (
    "epsilon",
    "gamma",
    "delta",
    "param_dist",
    "acc_lko_train",
    "acc_removed",
    "acc_lko_test",
    "acc_removed_test",
)


def sweep_csv_text(result: SweepResult) -> str:
    """CSV with one row per epsilon; inapplicable metrics are empty cells."""
    lines = [",".join(_CSV_FIELDS)]
    for report in result.reports:
        cells = []
        for field in _CSV_FIELDS:
            value = getattr(report, field)
            cells.append("" if value is None else _fmt(value))
        lines.append(",".join(cells))
    lines.append("")
    return "\n".join(lines)

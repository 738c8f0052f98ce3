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
    _whole,
    loss,
    predict_labels,
    predict_proba,
)
from .data import SplitSet


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------

def _aucs(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mann-Whitney ROC AUC of every column of (n, a) scores in one pass, ties counted one half.

    A tie run at sorted positions [start, end) of a column ranks (start + end + 1) / 2,
    a half-integer, so ranks and rank sums are exact: neither the order inside a run
    nor the summation order changes a bit. A column lacking a class (0 or 1) scores 0.
    """
    if not np.isfinite(scores).all():
        raise InputError("scores must be finite")
    n, a = scores.shape
    by_attr = scores.T.copy()
    order = by_attr.argsort(axis=1) + n * np.arange(a)[:, None]  # flat positions in by_attr
    sorted_scores, sorted_labels = by_attr.take(order), labels.T.take(order)
    run_start = np.ones((a, n), dtype=bool)  # each column's first position starts a run
    np.not_equal(sorted_scores[:, 1:], sorted_scores[:, :-1], out=run_start[:, 1:])
    bounds = np.concatenate((np.flatnonzero(run_start), [a * n]))
    lengths = bounds[1:] - bounds[:-1]
    ranks = np.repeat(bounds[:-1] % n + (lengths + 1) / 2.0, lengths).reshape(a, n)
    pos = sorted_labels == 1
    n_pos = pos.sum(axis=1)
    pairs = n_pos * (sorted_labels == 0).sum(axis=1)
    rank_sums = np.add.reduce(ranks, axis=1, where=pos)
    return np.divide(rank_sums - n_pos * (n_pos + 1) / 2.0, pairs,
                     out=np.zeros(a), where=pairs > 0)


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney ROC AUC with ties counted one half: :func:`_aucs` of one column.

    By convention a degenerate split (no positives or no negatives,
    including an empty input) scores 0, so an attribute with a single
    class on the evaluation samples adds nothing to the performance-
    similarity distance. Non-finite scores raise InputError. One pass
    ranks every attribute, and the order inside a tie does not matter.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be matching vectors")
    return float(_aucs(scores[:, None], labels[:, None])[0])


def accuracy(params: ModelParams, dataset: Dataset) -> float:
    """Mean hard-prediction accuracy; nan on an empty dataset.

    Binary tasks average the per-attribute accuracies, which equals the
    mean over all (sample, attribute) cells.
    """
    if dataset.n == 0:
        return float("nan")
    _check_task_match(params, dataset)
    preds = predict_labels(params, dataset.features)
    return float((preds == dataset.labels).mean())


def mean_loss(params: ModelParams, dataset: Dataset, cfg: LossConfig) -> float:
    if dataset.n == 0:
        return float("nan")
    return loss(params, dataset, cfg)


def _profile(
    params: ModelParams, dataset: Dataset, kind: str, p: np.ndarray | None = None
) -> np.ndarray:
    """The per-attribute AUC profile (``kind`` binary) or the confusion matrix (multinomial).

    ``p`` is the model's forward pass on ``dataset`` when the caller already
    has it, and has then already checked the pair with :func:`_check_task_match`.
    """
    if p is None:
        _check_task_match(params, dataset)
        p = predict_proba(params, dataset.features)
    if dataset.kind != kind:
        raise InputError(f"this metric requires a {kind} task, got {dataset.kind} labels")
    labels = dataset.labels
    if kind == "binary":
        return _aucs(p, labels)
    c = params.shape.n_classes
    pred = _labels_from_proba(params.shape, p)
    return np.bincount((labels - 1) * c + (pred - 1), minlength=c * c).reshape(c, c)


def _score(kind: str, hat: np.ndarray, star: np.ndarray, retrain: np.ndarray) -> float:
    """gamma (``kind`` binary) or delta (multinomial) from three :func:`_profile` results."""
    if kind == "binary":
        return _ratio(float(np.abs(hat - star).sum()), float(np.abs(hat - retrain).sum()))
    return _ratio(float(confusion_distance(hat, retrain)), float(confusion_distance(hat, star)))


def _ratio(toward_retrain: float, toward_star: float) -> float:
    total = toward_retrain + toward_star
    if total == 0.0:
        return 0.5
    return toward_retrain / total


def auc_per_attribute(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """ROC AUC of each attribute head on the given samples."""
    return _profile(params, dataset, "binary")


def similarity_ratio(
    theta_hat: ModelParams,
    theta_star: ModelParams,
    theta_retrain: ModelParams,
    samples: Dataset,
) -> float:
    """gamma in [0, 1]: 1 when the erased model's AUC profile matches the retrain."""
    thetas = (theta_hat, theta_star, theta_retrain)
    return _score("binary", *(_profile(t, samples, "binary") for t in thetas))


def confusion_matrix(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Counts with true classes as rows and predicted classes as columns."""
    return _profile(params, dataset, "multinomial")


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
    thetas = (theta_hat, theta_star, theta_retrain)
    return _score("multinomial", *(_profile(t, samples, "multinomial") for t in thetas))


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


def _check_splits(params: ModelParams, split_data: SplitData) -> None:
    """The task check of every split, made once per evaluation or sweep."""
    for dataset in vars(split_data).values():
        _check_task_match(params, dataset)


def _references(
    theta_star: ModelParams, theta_retrain: ModelParams, removed: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """theta*'s and the retrain's removed-split profiles, which every epsilon compares against."""
    if removed.n == 0:
        raise InputError("evaluation requires a nonempty removed split")
    return tuple(_profile(t, removed, removed.kind) for t in (theta_star, theta_retrain))


def _split_scores(params: ModelParams, dataset: Dataset, cfg: LossConfig):
    """Accuracy and mean loss on one split, and the one forward pass they come from.

    An empty split scores nan twice and makes no pass. The caller has run
    :func:`_check_splits`.
    """
    if dataset.n == 0:
        return float("nan"), float("nan"), None
    forward = _forward(params.shape, params.values, dataset.features)
    p = forward[1]
    acc = float((_labels_from_proba(params.shape, p) == dataset.labels).mean())
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
    removed, lko_train = split_data.removed, split_data.lko_train
    shape, values = theta_hat.shape, theta_hat.values
    binary = removed.kind == "binary"
    acc_removed, loss_removed, forward = _split_scores(theta_hat, removed, loss_cfg)
    profile = _profile(theta_hat, removed, removed.kind, forward[1])
    score = _score(removed.kind, profile, *references)
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
        gamma=score if binary else None,
        delta=None if binary else score,
        param_dist=normalized_param_distance(theta_hat, theta_star, theta_retrain),
        grad_norm_lko=float(np.linalg.norm(total / lko_train.n)),
        auc_removed=tuple(float(v) for v in profile) if binary else None,
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
    _check_splits(theta_hat, split_data)
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
    lowest epsilon.

    The erasure direction and the original and retrained models' profiles
    on the removed split are computed once; each epsilon then costs one
    forward pass per split. Every report equals :func:`evaluate_erasure`
    of :func:`ssse_update` at that epsilon bit for bit.
    """
    grid = check_epsilon_grid(grid)
    if criterion not in _CRITERIA:
        raise InputError(f"unknown sweep criterion: {criterion!r}")
    if criterion != ("max_gamma" if train.kind == "binary" else "min_delta"):
        raise InputError(f"{criterion} does not apply to a {train.kind} task")

    erased = ssse_grid(theta_star, finv, train, splits.removed, grid, loss_cfg)
    split_data = SplitData.from_splits(train, test, splits)
    _check_splits(theta_star, split_data)  # every erased model has theta*'s shape
    references = _references(theta_star, theta_retrain, split_data.removed)
    reports = tuple(
        _report(theta_hat, eps, theta_star, theta_retrain, references, split_data, loss_cfg)
        for eps, (theta_hat, _) in zip(grid, erased)
    )
    if criterion == "max_gamma":
        best = -max((r.gamma, -i) for i, r in enumerate(reports))[1]
    else:
        best = min((r.delta, i) for i, r in enumerate(reports))[1]
    return SweepResult(criterion=criterion, best_epsilon=grid[best], reports=reports)


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
        extents = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not np.isfinite(extents).all() or self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise InputError("grid extents must be finite and satisfy max > min")
        for name in ("nx", "ny"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, 2))

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


_CSV_FIELDS = _REPORT_FIELDS[:8]  # epsilon through acc_removed_test


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

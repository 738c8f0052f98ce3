"""Deterministic minibatch SGD with momentum, plus model file I/O.

Reproducibility is the point of this trainer: initialization draws come
from a counter-based stream (:mod:`ssse._splitmix`) seeded by the config
seed, epoch shuffles continue the same stream, and batches are visited
in shuffled order with plain float64 numpy arithmetic. Training twice
with the same config on the same data yields bit-identical parameters,
and retraining after sample removal starts from the exact same initial
vector because initialization depends only on the seed and the shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _container as cont
from ._splitmix import SplitMix64
from .errors import ContainerError, InputError, TrainingError
from .models import (
    Dataset,
    LossConfig,
    ModelParams,
    Shape,
    _check_task_match,
    _forward,
    _grad_sums,
    _loss_from_proba,
    _targets,
    # unused here; the benchmark's traced runs patch these three in training
    grad_matrix,
    grad_mean,
    loss,
    shape_dims,
    shape_from_kind_code,
    shape_kind_code,
)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings.

    ``lr_schedule`` is a tuple of (epoch, factor) pairs with strictly
    increasing 1-based epochs; the learning rate is multiplied by the
    factor at the start of the named epoch. ``grad_tol`` > 0 stops
    training after any epoch whose full-gradient norm falls to or below
    it; 0 disables early stopping.

    Full-batch runs (batch_size >= n, momentum 0) decrease the loss every
    epoch when the learning rate is below the curvature bound of the
    linear families, lr <= 4 / (max_i ||x_i||^2 + 2 * l2_coeff).
    """

    lr: float
    epochs: int
    batch_size: int
    seed: int
    momentum: float = 0.0
    grad_tol: float = 1e-5
    lr_schedule: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise InputError("lr must be finite and > 0")
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        if not 0 <= self.momentum < 1:
            raise InputError("momentum must lie in [0, 1)")
        if not np.isfinite(self.grad_tol) or self.grad_tol < 0:
            raise InputError("grad_tol must be finite and >= 0")
        sched = tuple((int(e), float(f)) for e, f in self.lr_schedule)
        last = 0
        for epoch, factor in sched:
            if epoch <= last:
                raise InputError("lr_schedule epochs must be strictly increasing and >= 1")
            if not np.isfinite(factor) or factor <= 0:
                raise InputError("lr_schedule factors must be finite and > 0")
            last = epoch
        object.__setattr__(self, "lr_schedule", sched)


@dataclass(frozen=True)
class TrainResult:
    """Final parameters plus convergence diagnostics.

    ``loss_history`` holds the full-data regularized loss measured at the
    end of each completed epoch.
    """

    params: ModelParams
    final_loss: float
    final_grad_norm: float
    epochs_run: int
    loss_history: tuple[float, ...]


def init_params(shape: Shape, seed: int) -> ModelParams:
    """The initial parameters :func:`train` starts from for this shape and seed."""
    shape.validate()
    return _draw_init(shape, SplitMix64(seed), seed)


def _draw_init(shape: Shape, stream: SplitMix64, seed: int) -> ModelParams:
    """Entrywise uniform(-1/sqrt(m), 1/sqrt(m)) draws, m = feature count."""
    bound = 1.0 / np.sqrt(shape.n_features)
    values = stream.uniform_vector(shape.n_params, -bound, bound)
    return ModelParams(values=values, shape=shape, seed=seed)


def train(dataset: Dataset, shape: Shape, loss_cfg: LossConfig, cfg: TrainConfig) -> TrainResult:
    """Minibatch SGD with momentum from the seeded initialization."""
    if dataset.n == 0:
        raise InputError("cannot train on an empty dataset")
    shape.validate()
    # The same stream feeds initialization and every epoch shuffle, so the
    # whole trajectory is a function of (seed, data, config) alone.
    stream = SplitMix64(cfg.seed)
    start = _draw_init(shape, stream, cfg.seed)
    _check_task_match(start, dataset)
    theta = start.values
    targets = _targets(shape, dataset.labels)

    velocity = np.zeros_like(theta)
    lr = cfg.lr
    schedule = dict(cfg.lr_schedule)
    order = np.arange(dataset.n, dtype=np.int64)

    history: list[float] = []
    grad_norm = float("inf")
    epochs_run = 0
    for epoch in range(1, cfg.epochs + 1):
        if epoch in schedule:
            lr *= schedule[epoch]
        stream.shuffle(order)
        for start in range(0, dataset.n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            g = _grad_sums(shape, theta, dataset.features[rows], targets[rows],
                           loss_cfg.l2_coeff)[0]
            g /= rows.shape[0]
            # overflow here is reported through TrainingError, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                velocity = cfg.momentum * velocity + g
                theta = theta - lr * velocity
            if not np.all(np.isfinite(theta)):
                raise TrainingError(
                    f"training diverged at epoch {epoch}: non-finite parameters"
                )

        epochs_run = epoch
        # One full-data forward pass gives the epoch's loss and its gradient.
        forward, value = _epoch_loss(shape, theta, dataset, loss_cfg, epoch)
        history.append(value)
        total = _grad_sums(shape, theta, dataset.features, targets, loss_cfg.l2_coeff,
                           forward=forward)[0]
        grad_norm = float(np.linalg.norm(total / dataset.n))
        if cfg.grad_tol > 0 and grad_norm <= cfg.grad_tol:
            break

    final = ModelParams(values=theta, shape=shape, seed=cfg.seed)
    return TrainResult(
        params=final,
        final_loss=history[-1],
        final_grad_norm=grad_norm,
        epochs_run=epochs_run,
        loss_history=tuple(history),
    )


def _epoch_loss(
    shape: Shape, theta: np.ndarray, dataset: Dataset, loss_cfg: LossConfig, epoch: int
):
    """The full-data forward pass at theta and the loss it gives; divergence is a TrainingError."""
    try:
        forward = _forward(shape, theta, dataset.features)
        value = _loss_from_proba(forward[1], dataset, theta, loss_cfg)
    except Exception as exc:
        raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
    return forward, value


def retrain_scratch(
    dataset: Dataset,
    removed_ids,
    shape: Shape,
    loss_cfg: LossConfig,
    cfg: TrainConfig,
) -> TrainResult:
    """Train on the dataset minus the removed samples, same seed and init.

    This is the gold-standard reference an erasure update is judged
    against. Removing every sample of a class or attribute is legal and
    only produces a warning.
    """
    remaining = dataset.without(removed_ids)
    if remaining.n == 0:
        raise InputError("removal leaves no training samples")
    _warn_if_emptied(dataset, remaining)
    return train(remaining, shape, loss_cfg, cfg)


def _warn_if_emptied(full: Dataset, remaining: Dataset) -> None:
    if full.kind == "multinomial":
        lost = set(np.unique(full.labels)) - set(np.unique(remaining.labels))
        for cls in sorted(lost):
            warnings.warn(f"removal leaves no samples of class {cls}", stacklevel=3)
    else:
        before = full.labels.sum(axis=0)
        after = remaining.labels.sum(axis=0)
        for j in range(full.n_attrs):
            if before[j] > 0 and after[j] == 0:
                warnings.warn(f"removal leaves no positives for attribute {j + 1}", stacklevel=3)


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

def save_model(params: ModelParams, loss_cfg: LossConfig, path: str) -> None:
    """Serialize parameters to the model container (layout in the README)."""
    w = cont.ByteWriter()
    w.magic(cont.MODEL_MAGIC)
    w.u8(cont.CONTAINER_VERSION)
    w.u8(shape_kind_code(params.shape))
    for dim in shape_dims(params.shape):
        w.u64(dim)
    w.i64(params.seed)
    w.f64(loss_cfg.l2_coeff)
    w.u64(params.values.shape[0])
    w.f64_array(params.values)
    cont.write_atomic(path, w.getvalue())


def load_model(path: str) -> tuple[ModelParams, LossConfig]:
    r = cont.ByteReader(cont.read_file(path), path)
    r.magic(cont.MODEL_MAGIC)
    version = r.u8("version")
    if version != cont.CONTAINER_VERSION:
        raise ContainerError(f"{path}: unsupported container version {version} at byte 8")
    kind = r.u8("shape kind")
    dims = (r.u64("dim 0"), r.u64("dim 1"), r.u64("dim 2"))
    seed = r.i64("seed")
    l2_coeff = r.f64("l2_coeff")
    d = r.u64("parameter count")
    try:
        shape = shape_from_kind_code(kind, dims)
    except InputError as exc:
        raise ContainerError(f"{path}: {exc}") from None
    if d != shape.n_params:
        raise ContainerError(
            f"{path}: parameter count {d} does not match shape ({shape.n_params})"
        )
    values = r.f64_array(d, "parameter payload")
    r.expect_end()
    return ModelParams(values=values, shape=shape, seed=seed), LossConfig(l2_coeff=l2_coeff)

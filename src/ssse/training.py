"""Deterministic minibatch SGD with momentum, plus model file I/O.

Reproducibility is the point of this trainer: initialization draws come
from a counter-based stream (:mod:`ssse._splitmix`) seeded by the config
seed, epoch shuffles continue the same stream, and batches are visited
in shuffled order with plain float64 numpy arithmetic. Every step and
epoch-end pass of a call runs on one network bound to the parameter
vector once per call (``models._BoundNet``), which the steps update in
place. Training twice with the same config on the same data yields
bit-identical parameters, and retraining after sample removal starts
from the exact same initial vector because initialization depends only
on the seed and the shape.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _container as cont
from ._splitmix import SplitMix64
from .errors import ContainerError, InputError, NumericError, TrainingError
from .models import (
    Dataset,
    LossConfig,
    ModelParams,
    Shape,
    _BoundNet,
    _check_task_match,
    _loss_from_proba,
    _real,
    _targets,
    _whole,
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

    ``epochs`` and ``batch_size`` (>= 1) and ``seed`` (any sign, since
    SplitMix64 masks it) are whole numbers, stored as ints (40.0 counts as
    40, 2.7 is refused); ``lr`` (> 0), ``momentum`` (>= 0 and < 1) and
    ``grad_tol`` (>= 0) are finite numbers, stored as floats.
    ``lr_schedule`` is a tuple of (epoch, factor) pairs with strictly
    increasing 1-based whole-number epochs and factors > 0; the learning
    rate is multiplied by the factor at the start of the named epoch.
    ``grad_tol`` > 0 stops training after any epoch whose full-gradient norm
    falls to or below it; 0 disables early stopping. Each epoch's gradient
    is computed layer by layer, last layer first, only until one layer's
    block rules out a stop (its own norm is already above ``grad_tol``);
    with ``grad_tol`` = 0 only the last epoch makes a full-data pass at all.
    ``final_grad_norm`` is always the exact full norm at the last epoch run.

    Divergence raises TrainingError naming the epoch: "non-finite
    parameters" after the epoch whose steps left one, and "loss is not
    finite" where the epoch-end loss would not be (its L2 term overflows,
    or an epoch-end pass finds non-finite probabilities). With ``grad_tol``
    = 0 no epoch-end pass runs before the last epoch, so probabilities that
    turn non-finite while the parameters stay finite are named one epoch
    late, as non-finite parameters.

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
        object.__setattr__(self, "lr", _real(self.lr, "lr", gt=0))
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", None)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        object.__setattr__(self, "momentum", _real(self.momentum, "momentum", ge=0, lt=1))
        object.__setattr__(self, "grad_tol", _real(self.grad_tol, "grad_tol", ge=0))
        sched = tuple((_whole(e, "lr_schedule epoch"), _real(f, "lr_schedule factor", gt=0))
                      for e, f in self.lr_schedule)
        last = 0
        for epoch, _ in sched:
            if epoch <= last:
                raise InputError("lr_schedule epochs must be strictly increasing and >= 1")
            last = epoch
        object.__setattr__(self, "lr_schedule", sched)


@dataclass(frozen=True)
class TrainResult:
    """Final parameters plus convergence diagnostics.

    ``final_loss`` is the full-data regularized loss at the end of the last
    epoch run, the only epoch whose loss :func:`train` computes.
    """

    params: ModelParams
    final_loss: float
    final_grad_norm: float
    epochs_run: int


def init_params(shape: Shape, seed: int) -> ModelParams:
    """The initial parameters :func:`train` starts from for this shape and seed."""
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
    # The same stream feeds initialization and every epoch shuffle, so the
    # whole trajectory is a function of (seed, data, config) alone.
    stream = SplitMix64(cfg.seed)
    start = _draw_init(shape, stream, cfg.seed)
    _check_task_match(start, dataset)
    theta = start.values.copy()
    targets = _targets(shape, dataset.labels)

    # Every step and epoch-end pass runs on this one binding: its weight
    # views follow theta's in-place updates, and each step overwrites every
    # block of its gradient buffer, so an epoch-end pass leaves nothing behind.
    net = _BoundNet(shape, theta, loss_cfg.l2_coeff, np.empty_like(theta))
    velocity = np.zeros_like(theta)
    step = np.empty_like(theta)
    lr = cfg.lr
    schedule = dict(cfg.lr_schedule)
    # A list, so the shuffle swaps its items without a round trip through numpy.
    order = list(range(dataset.n))

    grad_norm = float("inf")
    for epoch in range(1, cfg.epochs + 1):
        if epoch in schedule:
            lr *= schedule[epoch]
        stream.shuffle(order)
        # One gather per epoch; each batch is then a contiguous slice of it.
        rows = np.fromiter(order, dtype=np.intp, count=dataset.n)
        epoch_features = np.take(dataset.features, rows, axis=0)
        epoch_targets = np.take(targets, rows, axis=0)
        # overflow here is reported through TrainingError, not a warning: a
        # non-finite entry of theta stays non-finite through every later step
        # (m * inf and inf - inf are NaN), so one check after the epoch names
        # the epoch of the first non-finite step. Nothing in a step divides by
        # zero: softmax and sigmoid denominators are >= 1 or NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, dataset.n, cfg.batch_size):
                hi = min(lo + cfg.batch_size, dataset.n)
                g = net.grad_sum(net.forward(epoch_features[lo:hi]), epoch_targets[lo:hi])
                g /= hi - lo
                velocity *= cfg.momentum
                velocity += g
                np.multiply(velocity, lr, out=step)
                np.subtract(theta, step, out=theta)
        if not np.isfinite(theta).all():
            raise TrainingError(f"training diverged at epoch {epoch}: non-finite parameters")
        # The loss is computed only after the last epoch, but the L2 term
        # of a finite theta can overflow before theta does; this names the
        # epoch where it first does, as an epoch-end loss would.
        if not math.isfinite(0.5 * loss_cfg.l2_coeff * float(theta @ theta)):
            raise TrainingError(f"training diverged at epoch {epoch}: loss is not finite")

        last = epoch == cfg.epochs
        if not (cfg.grad_tol or last):
            continue
        forward = net.forward(dataset.features)
        # Before the last epoch the gradient is built layer by layer only
        # until one block proves its norm is above grad_tol.
        total = net.grad_sum(forward, targets, None if last else cfg.grad_tol)
        if total is None:
            continue
        grad_norm = float(np.linalg.norm(total / dataset.n))
        # A non-finite probability makes the gradient and the loss
        # non-finite alike (a finite one keeps every log finite); the
        # norm is the cheap test, so the probabilities are read only after it.
        if not math.isfinite(grad_norm) and not np.isfinite(forward[1]).all():
            raise TrainingError(f"training diverged at epoch {epoch}: loss is not finite")
        if cfg.grad_tol > 0 and grad_norm <= cfg.grad_tol:
            break

    # The gradient pass overwrote only the hidden activations, so the
    # probabilities of the last epoch's forward pass are intact.
    try:
        final_loss = _loss_from_proba(forward[1], dataset, theta, loss_cfg)
    except NumericError as exc:
        raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
    final = ModelParams(values=theta, shape=shape, seed=cfg.seed)
    return TrainResult(params=final, final_loss=final_loss, final_grad_norm=grad_norm,
                       epochs_run=epoch)


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

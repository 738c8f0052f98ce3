"""Closed-form removal of training samples from a trained model.

The central update shifts the trained parameters along the inverse
empirical Fisher applied to the summed gradients of the samples being
erased:

    theta_new = theta + (epsilon / (n - k)) * F_inv @ sum_{i in S} grad_i

where n is the training-set size, k = |S|, and epsilon scales the step.
Two influence-function variants replace the scaled inverse Fisher with
an exact dense Hessian inverse (built on the full data or on the
retained data), and two cheaper baselines take a plain gradient-ascent
step or use only the diagonal of the Fisher estimate plus optional
Gaussian noise. All updates are pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError, StaleFisherError
from .fisher import InverseFisher, _cholesky, apply_inverse
from .models import (
    Dataset,
    LossConfig,
    ModelParams,
    _grad_total,
    _targets,
    grad_sum,
    hessian_dense,
    params_digest,
)

_GRAD_SOURCES = ("removed", "remaining")


@dataclass(frozen=True)
class ErasureRequest:
    """Which samples to erase and how.

    ``epsilon`` scales the Fisher-based updates; 0 is allowed and leaves
    the parameters untouched. ``grad_source`` selects whose gradients
    feed the update: the removed samples themselves (default) or the
    negated gradient sum of the retained samples, which agrees with the
    default at an exact optimum where all per-sample gradients cancel.
    """

    removed_ids: tuple[str, ...]
    epsilon: float = 1.0
    noise_sigma: float = 0.0
    noise_seed: int = 0
    grad_source: str = "removed"

    def __post_init__(self) -> None:
        ids = tuple(str(s) for s in self.removed_ids)
        if not ids:
            raise InputError("removed_ids must be nonempty")
        if len(set(ids)) != len(ids):
            raise InputError("removed_ids must be unique")
        object.__setattr__(self, "removed_ids", ids)
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise InputError("epsilon must be finite and >= 0")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise InputError("noise_sigma must be finite and >= 0")
        if self.grad_source not in _GRAD_SOURCES:
            raise InputError(f"unknown grad_source: {self.grad_source!r}")


def _check_removal(dataset: Dataset, removed_ids: tuple[str, ...]) -> int:
    k = len(removed_ids)
    missing = set(removed_ids).difference(dataset.ids)
    if missing:
        raise InputError(f"removed ids not in the dataset: {sorted(missing)[:3]}")
    if k >= dataset.n:
        raise InputError("cannot erase every training sample")
    return k


def _erasure_direction(
    theta_star: ModelParams, dataset: Dataset, req: ErasureRequest, cfg: LossConfig
) -> np.ndarray:
    """Summed gradients driving the update, honoring grad_source."""
    if req.grad_source == "removed":
        return grad_sum(theta_star, dataset, req.removed_ids, cfg)
    # the retained rows of the already validated arrays, in dataset order
    removed = set(req.removed_ids)
    keep = [i for i, s in enumerate(dataset.ids) if s not in removed]
    shape = theta_star.shape
    targets = _targets(shape, dataset.labels[keep])
    return -_grad_total(shape, theta_star.values, dataset.features[keep], targets, cfg.l2_coeff)


def _finite_params(theta: ModelParams, values: np.ndarray, what: str) -> ModelParams:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{what} produced non-finite parameters")
    return theta.with_values(values)


def check_epsilon_grid(grid: Sequence[float]) -> list[float]:
    """The grid as floats; it must be nonempty, finite, >= 0 and strictly increasing."""
    grid = [float(e) for e in grid]
    if not grid:
        raise InputError("epsilon grid must be nonempty")
    if any(not np.isfinite(e) or e < 0 for e in grid):
        raise InputError("epsilon grid entries must be finite and >= 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("epsilon grid must be strictly increasing")
    return grid


def _ssse_direction(
    theta_star: ModelParams,
    finv: InverseFisher,
    dataset: Dataset,
    req: ErasureRequest,
    cfg: LossConfig,
) -> tuple[np.ndarray | None, int]:
    """Every check of :func:`ssse_update`, then v = F_inv g and n - k.

    The update at any epsilon is theta* + (epsilon / (n - k)) * v, so one
    v serves a whole grid. v is None when ``req.epsilon`` scales to zero,
    because that update needs no gradient.
    """
    if finv.built_at_digest != params_digest(theta_star):
        raise StaleFisherError(
            "inverse Fisher was built at different parameters than supplied"
        )
    if finv.n_samples != dataset.n:
        raise StaleFisherError(
            f"inverse Fisher was built on {finv.n_samples} samples, dataset has {dataset.n}"
        )
    if finv.n_params != theta_star.shape.n_params:
        raise InputError("inverse Fisher size does not match the parameter vector")
    kept = dataset.n - _check_removal(dataset, req.removed_ids)
    if req.epsilon / kept == 0.0:
        return None, kept
    return apply_inverse(finv, _erasure_direction(theta_star, dataset, req, cfg)), kept


def _ssse_at(
    theta_star: ModelParams, v: np.ndarray | None, kept: int, epsilon: float
) -> tuple[ModelParams, np.ndarray | None]:
    """theta* + (epsilon / (n - k)) * v and that step; a zero scale returns theta* and no step."""
    scale = epsilon / kept
    if scale == 0.0:
        return theta_star.with_values(theta_star.values), None
    step = scale * v
    return _finite_params(theta_star, theta_star.values + step, "ssse update"), step


def ssse_update(
    theta_star: ModelParams,
    finv: InverseFisher,
    dataset: Dataset,
    req: ErasureRequest,
    cfg: LossConfig,
) -> ModelParams:
    """Single-step erasure through the inverse Fisher estimate.

    Refuses an inverse Fisher whose stored digest does not match
    ``theta_star``, or that was built on a different number of samples
    than ``dataset`` holds: the estimate is only valid at the exact
    parameters and for the training set it was built at.
    """
    v, kept = _ssse_direction(theta_star, finv, dataset, req, cfg)
    return _ssse_at(theta_star, v, kept, req.epsilon)[0]


def ssse_grid(
    theta_star: ModelParams,
    finv: InverseFisher,
    dataset: Dataset,
    removed_ids,
    grid: Sequence[float],
    cfg: LossConfig,
    grad_source: str = "removed",
) -> list[tuple[ModelParams, float]]:
    """:func:`ssse_update` at every epsilon of the grid, each with its step's L2 norm.

    The grid must pass :func:`check_epsilon_grid`. One request at the
    largest epsilon makes every check of ssse_update, and the direction
    v is computed once; each point only scales it, so its model is
    bit-identical to ssse_update's at that epsilon. The norm is that of
    (epsilon / (n - k)) * v, 0.0 at epsilon 0.
    """
    grid = check_epsilon_grid(grid)
    req = ErasureRequest(removed_ids=removed_ids, epsilon=grid[-1], grad_source=grad_source)
    v, kept = _ssse_direction(theta_star, finv, dataset, req, cfg)
    points = []
    for eps in grid:
        theta_hat, step = _ssse_at(theta_star, v, kept, eps)
        points.append((theta_hat, 0.0 if step is None else float(np.linalg.norm(step))))
    return points


def influence_update(
    theta_star: ModelParams,
    dataset: Dataset,
    req: ErasureRequest,
    cfg: LossConfig,
    hessian_source: str = "full",
) -> ModelParams:
    """Influence-function step using an exact dense Hessian inverse.

    ``hessian_source`` picks where the Hessian is evaluated: "full" uses
    the whole training set, "lko" the retained samples only. The solve
    goes through a symmetric positive-definite factorization, so a
    strictly positive l2_coeff is required.
    """
    if hessian_source not in ("full", "lko"):
        raise InputError(f"unknown hessian_source: {hessian_source!r}")
    if cfg.l2_coeff <= 0:
        raise InputError("influence updates require l2_coeff > 0")
    k = _check_removal(dataset, req.removed_ids)
    base = dataset if hessian_source == "full" else dataset.without(req.removed_ids)
    h = hessian_dense(theta_star, base, cfg)
    g = grad_sum(theta_star, dataset, req.removed_ids, cfg)
    try:
        lower = _cholesky(h, "Hessian")
    except NumericError as exc:
        raise NumericError(f"Hessian solve failed: {exc}") from exc
    step = np.linalg.solve(lower.T, np.linalg.solve(lower, g))
    values = theta_star.values + step / (dataset.n - k)
    return _finite_params(theta_star, values, "influence update")


def gradient_ascent_step(
    theta_star: ModelParams,
    dataset: Dataset,
    removed_ids,
    lr: float,
    cfg: LossConfig,
) -> ModelParams:
    """One ascent step on the mean loss of the removed samples."""
    ids = tuple(str(s) for s in removed_ids)
    if not ids:
        raise InputError("removed ids must be nonempty")
    if not np.isfinite(lr) or lr < 0:
        raise InputError("lr must be finite and >= 0")
    k = _check_removal(dataset, ids)
    if lr == 0.0:
        return theta_star.with_values(theta_star.values)
    g = grad_sum(theta_star, dataset, ids, cfg)
    values = theta_star.values + lr * (g / k)
    return _finite_params(theta_star, values, "gradient ascent step")


def diag_scrub_update(
    theta_star: ModelParams,
    diag_finv: np.ndarray,
    dataset: Dataset,
    req: ErasureRequest,
    cfg: LossConfig,
) -> ModelParams:
    """Diagonal-Fisher erasure with optional Gaussian smoothing noise.

    The deterministic part mirrors :func:`ssse_update` with the inverse
    Fisher replaced by its diagonal estimate; noise adds one draw per
    coordinate with standard deviation noise_sigma * sqrt(diag_finv_j),
    seeded by ``noise_seed`` so reruns are reproducible.
    """
    diag_finv = np.asarray(diag_finv, dtype=np.float64)
    if diag_finv.shape != (theta_star.shape.n_params,):
        raise InputError("diagonal inverse Fisher length does not match parameters")
    if np.any(diag_finv <= 0) or not np.all(np.isfinite(diag_finv)):
        raise InputError("diagonal inverse Fisher entries must be finite and > 0")
    k = _check_removal(dataset, req.removed_ids)
    scale = req.epsilon / (dataset.n - k)
    if scale == 0.0 and req.noise_sigma == 0.0:
        return theta_star.with_values(theta_star.values)
    values = theta_star.values.copy()
    if scale != 0.0:
        g = _erasure_direction(theta_star, dataset, req, cfg)
        values = values + scale * (diag_finv * g)
    if req.noise_sigma > 0.0:
        rng = np.random.default_rng(req.noise_seed)
        values = values + req.noise_sigma * np.sqrt(diag_finv) * rng.standard_normal(values.shape)
    return _finite_params(theta_star, values, "diagonal scrub update")

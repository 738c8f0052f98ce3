"""Closed-form removal of training samples from a trained model.

Every update reads one :class:`ErasureRequest` whole and takes one step
from the trained parameters theta*, computed by one private function:

    theta_new = theta* + (epsilon / m) * P(g),    g = sum_{i in S} grad_i

where n is the training-set size, k = |S| and g is computed once per
call (not at all when every scale epsilon / m is 0, which returns theta*
unchanged). With ``grad_source = "remaining"`` g is minus the retained
rows' gradient sum instead, formed as the removed rows' sum minus G, the
gradient sum over all n rows at theta*. G is computed by the first such
request and kept on the dataset for its theta* and l2_coeff, so every
request sums only its k removed rows. The updates differ only in their
input checks, the divisor m and the direction P:

- :func:`ssse_update` (and :func:`ssse_grid`, one step per epsilon of a
  grid): m = n - k, P(g) = F_inv g through the inverse Fisher estimate.
- :func:`influence_update`: m = 1, P(g) = H_inv g / (n - k) through the
  exact dense Hessian (any family; it must be positive definite) of the
  full or the retained data.
- :func:`gradient_ascent_step`: m = 1, P(g) = g / k.
- :func:`diag_scrub_update`: m = n - k, P(g) = diag(F_inv) * g, plus
  seeded Gaussian noise.

All updates are pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError, StaleFisherError
from .fisher import InverseFisher, _cholesky, apply_inverse
from .models import (
    Dataset,
    LossConfig,
    ModelParams,
    _check_id_collection,
    _grad_sums,
    _real,
    _targets,
    _whole,
    grad_sum,  # unused here; the benchmark's traced runs wrap this name
    hessian_dense,
    params_digest,
)

_GRAD_SOURCES = ("removed", "remaining")


@dataclass(frozen=True)
class ErasureRequest:
    """Which samples to erase, how far to step, and along whose gradients.

    Every update reads all three fields. ``epsilon``, a finite number >= 0
    stored as a float, scales the step; 0 leaves the parameters untouched. ``grad_source``
    selects whose gradients feed the update: the removed samples
    themselves (default) or the negated gradient sum of the retained
    samples, which agrees with the default at an exact optimum where all
    per-sample gradients cancel.
    """

    removed_ids: tuple[str, ...]
    epsilon: float = 1.0
    grad_source: str = "removed"

    def __post_init__(self) -> None:
        _check_id_collection(self.removed_ids)
        ids = tuple(str(s) for s in self.removed_ids)
        if not ids:
            raise InputError("removed_ids must be nonempty")
        if len(set(ids)) != len(ids):
            raise InputError("removed_ids must be unique")
        object.__setattr__(self, "removed_ids", ids)
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon", ge=0))
        if self.grad_source not in _GRAD_SOURCES:
            raise InputError(f"unknown grad_source: {self.grad_source!r}")


def _check_removal(dataset: Dataset, removed_ids: tuple[str, ...]) -> np.ndarray:
    """The removed rows, ascending; they must exist and leave a sample behind."""
    rows = dataset.rows(removed_ids)
    if len(rows) >= dataset.n:
        raise InputError("cannot erase every training sample")
    return rows


def _full_grad_total(theta_star: ModelParams, dataset: Dataset, l2_coeff: float) -> np.ndarray:
    """The read-only gradient sum over all of ``dataset``'s rows at ``theta_star``.

    Kept on the dataset, keyed by theta*'s digest and ``l2_coeff``; another
    key recomputes and replaces it. A dataset's arrays are read-only, so
    the entry cannot go stale, and it is one deterministic computation
    whichever request makes it.
    """
    key = (params_digest(theta_star), l2_coeff)
    cached = dataset._full_grad
    if cached is not None and cached[0] == key:
        return cached[1]
    shape = theta_star.shape
    total = _grad_sums(shape, theta_star.values, dataset.features,
                       _targets(shape, dataset.labels), l2_coeff)[0]
    total.setflags(write=False)
    object.__setattr__(dataset, "_full_grad", (key, total))
    return total


def _erasure_direction(
    theta_star: ModelParams, dataset: Dataset, rows: np.ndarray, grad_source: str, cfg: LossConfig
) -> np.ndarray:
    """Summed gradients of the removed rows, or for "remaining" minus the retained rows' sum.

    Both sum the removed rows, sliced from the dataset's validated arrays.
    The retained rows' sum is the full-data sum minus the removed rows',
    so "remaining" subtracts the full-data sum :func:`_full_grad_total`.
    """
    shape = theta_star.shape
    targets = _targets(shape, dataset.labels[rows])
    total = _grad_sums(shape, theta_star.values, dataset.features[rows], targets,
                       cfg.l2_coeff)[0]
    if grad_source == "remaining":
        total -= _full_grad_total(theta_star, dataset, cfg.l2_coeff)
    return total


def _finite_params(theta: ModelParams, values: np.ndarray, what: str) -> ModelParams:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{what} produced non-finite parameters")
    return theta.with_values(values)


def _steps(
    theta_star: ModelParams, dataset: Dataset, req: ErasureRequest, rows: np.ndarray,
    cfg: LossConfig, grid: Sequence[float], divisor: float,
    direction: Callable[[np.ndarray], np.ndarray], what: str,
) -> list[tuple[ModelParams, np.ndarray | None]]:
    """theta* + (epsilon / divisor) * direction(g) at each epsilon of ``grid``, with its step.

    The one step behind every update. ``rows`` are the request's checked
    removed rows and g is their erasure direction for ``req.grad_source``.
    g is computed once, and not at all when every scale is 0; a zero
    scale gives a copy of theta* and the step None.
    """
    scales = [eps / divisor for eps in grid]
    if any(scales):
        v = direction(_erasure_direction(theta_star, dataset, rows, req.grad_source, cfg))
    points = []
    for scale in scales:
        if scale == 0.0:
            points.append((theta_star.with_values(theta_star.values), None))
            continue
        step = scale * v
        points.append((_finite_params(theta_star, theta_star.values + step, what), step))
    return points


def check_epsilon_grid(grid: Sequence[float]) -> list[float]:
    """The grid as floats; it must be nonempty, finite, >= 0 and strictly increasing."""
    grid = [_real(e, "epsilon grid entry", ge=0) for e in grid]
    if not grid:
        raise InputError("epsilon grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("epsilon grid must be strictly increasing")
    return grid


def _ssse_steps(
    theta_star: ModelParams, finv: InverseFisher, dataset: Dataset, req: ErasureRequest,
    cfg: LossConfig, grid: Sequence[float],
) -> list[tuple[ModelParams, np.ndarray | None]]:
    """The single-step update's checks, then :func:`_steps` at each epsilon of a checked grid."""
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
    rows = _check_removal(dataset, req.removed_ids)
    return _steps(theta_star, dataset, req, rows, cfg, grid, dataset.n - len(rows),
                  lambda g: apply_inverse(finv, g), "ssse update")


def ssse_update(
    theta_star: ModelParams, finv: InverseFisher, dataset: Dataset, req: ErasureRequest,
    cfg: LossConfig,
) -> ModelParams:
    """Single-step erasure through the inverse Fisher estimate.

    Refuses an inverse Fisher whose stored digest does not match
    ``theta_star`` or that was built on a different number of samples
    than ``dataset`` holds: the estimate is only valid at the exact
    parameters and for the training set it was built at.
    """
    return _ssse_steps(theta_star, finv, dataset, req, cfg, [req.epsilon])[0][0]


def ssse_grid(
    theta_star: ModelParams, finv: InverseFisher, dataset: Dataset, req: ErasureRequest,
    cfg: LossConfig, grid: Sequence[float],
) -> list[tuple[ModelParams, float]]:
    """:func:`ssse_update` at every epsilon of the grid, each with its step's L2 norm.

    The grid must pass :func:`check_epsilon_grid` and end at the
    request's own epsilon; the other checks are those of ssse_update. The
    direction F_inv g is computed once and each point only scales it, so
    its model is bit-identical to ssse_update's at that epsilon. The norm
    is that of (epsilon / (n - k)) F_inv g, 0.0 at epsilon 0.
    """
    grid = check_epsilon_grid(grid)
    if grid[-1] != req.epsilon:
        raise InputError("epsilon grid must end at the request's epsilon")
    return [(theta, 0.0 if step is None else float(np.linalg.norm(step)))
            for theta, step in _ssse_steps(theta_star, finv, dataset, req, cfg, grid)]


def influence_update(
    theta_star: ModelParams, dataset: Dataset, req: ErasureRequest, cfg: LossConfig,
    hessian_source: str = "full",
) -> ModelParams:
    """Influence-function step through the exact dense Hessian of any family.

    ``hessian_source`` picks where the Hessian is evaluated: "full" uses
    the whole training set, "lko" the retained samples only. The solve is
    a Cholesky factorization: l2_coeff must be > 0, and a Hessian that is
    not positive definite raises NumericError. At epsilon 0 no Hessian is
    built.
    """
    if hessian_source not in ("full", "lko"):
        raise InputError(f"unknown hessian_source: {hessian_source!r}")
    if cfg.l2_coeff <= 0:
        raise InputError("influence updates require l2_coeff > 0")
    rows = _check_removal(dataset, req.removed_ids)

    def direction(g: np.ndarray) -> np.ndarray:
        base = (dataset if hessian_source == "full"
                else dataset._take(np.delete(np.arange(dataset.n), rows)))
        try:
            lower = _cholesky(hessian_dense(theta_star, base, cfg), "Hessian")
        except NumericError as exc:
            raise NumericError(f"Hessian solve failed: {exc}") from exc
        return np.linalg.solve(lower.T, np.linalg.solve(lower, g)) / (dataset.n - len(rows))

    return _steps(theta_star, dataset, req, rows, cfg, [req.epsilon], 1, direction,
                  "influence update")[0][0]


def gradient_ascent_step(
    theta_star: ModelParams, dataset: Dataset, req: ErasureRequest, cfg: LossConfig
) -> ModelParams:
    """One ascent step of size ``req.epsilon`` on the mean loss of the removed samples."""
    rows = _check_removal(dataset, req.removed_ids)
    return _steps(theta_star, dataset, req, rows, cfg, [req.epsilon], 1,
                  lambda g: g / len(rows), "gradient ascent step")[0][0]


def diag_scrub_update(
    theta_star: ModelParams, diag_finv: np.ndarray, dataset: Dataset, req: ErasureRequest,
    cfg: LossConfig, noise_sigma: float = 0.0, noise_seed: int = 0,
) -> ModelParams:
    """Diagonal-Fisher erasure with optional Gaussian smoothing noise.

    The deterministic part mirrors :func:`ssse_update` with the inverse
    Fisher replaced by its diagonal estimate; noise adds one draw per
    coordinate with standard deviation noise_sigma * sqrt(diag_finv_j),
    seeded by ``noise_seed`` (a whole number >= 0) so reruns are
    reproducible.
    """
    noise_sigma = _real(noise_sigma, "noise_sigma", ge=0)
    noise_seed = _whole(noise_seed, "noise_seed", 0)
    diag_finv = np.asarray(diag_finv, dtype=np.float64)
    if diag_finv.shape != (theta_star.shape.n_params,):
        raise InputError("diagonal inverse Fisher length does not match parameters")
    if np.any(diag_finv <= 0) or not np.all(np.isfinite(diag_finv)):
        raise InputError("diagonal inverse Fisher entries must be finite and > 0")
    rows = _check_removal(dataset, req.removed_ids)
    theta = _steps(theta_star, dataset, req, rows, cfg, [req.epsilon], dataset.n - len(rows),
                   lambda g: diag_finv * g, "diagonal scrub update")[0][0]
    if noise_sigma == 0.0:
        return theta
    rng = np.random.default_rng(noise_seed)
    noise = noise_sigma * np.sqrt(diag_finv) * rng.standard_normal(theta.values.shape)
    return _finite_params(theta_star, theta.values + noise, "diagonal scrub update")

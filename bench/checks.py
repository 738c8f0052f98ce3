"""Output checks of a benchmark run. Each check is one counted operation.

The inverse-Fisher probe is an oracle that never forms a dense matrix and
does not depend on how the inverse was built, so it stays valid when the
Fisher build is rewritten: for seeded probes v it applies the stored
inverse, multiplies back by the Fisher itself,

    F_b w = dampening * w + G_b^T (G_b w) / count,

with G the per-sample gradient rows (batch means of consecutive id-ordered
rows when the batch size is above one), and requires the relative residual
||F_b (F_b^-1 v) - v|| / ||v|| to stay below PROBE_TOL on every block.
"""

from __future__ import annotations

import numpy as np

PROBE_TOL = 1e-8
PROBES_PER_BLOCK = 2

# The acceptance thresholds on the best point of the sweep.
MAX_BEST_DELTA = 0.5
MIN_BEST_GAMMA = 0.5


class CheckLog:
    """Counts checks; a check that fails or raises is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def fisher_rows(ssse, params, dataset, loss_cfg, batch_size: int) -> np.ndarray:
    """The rank-one terms of the Fisher: gradient rows or batch means, id order."""
    ordered = dataset.sorted_by_id()
    chunk = batch_size * max(1, 512 // batch_size)
    rows = []
    for start in range(0, ordered.n, chunk):
        stop = min(start + chunk, ordered.n)
        g = ssse.grad_matrix(params, ordered.features[start:stop], ordered.labels[start:stop],
                             loss_cfg)
        for lo in range(0, stop - start, batch_size):
            rows.append(g[lo:lo + batch_size].mean(axis=0))
    return np.asarray(rows)


def probe_residuals(ssse, finv, params, dataset, loss_cfg, seed: int) -> list[float]:
    """Worst relative probe residual of each block of ``finv``."""
    g = fisher_rows(ssse, params, dataset, loss_cfg, finv.batch_size)
    count = g.shape[0]
    probes = np.random.default_rng([seed, 17]).standard_normal((PROBES_PER_BLOCK, finv.n_params))
    applied = [ssse.apply_inverse(finv, v) for v in probes]
    worst = []
    for lo, hi in finv.spec.ranges:
        g_b = g[:, lo:hi]
        residual = 0.0
        for v, w in zip(probes, applied):
            v_b, w_b = v[lo:hi], w[lo:hi]
            f_w = finv.dampening * w_b + g_b.T @ (g_b @ w_b) / count
            residual = max(residual, float(np.linalg.norm(f_w - v_b) / np.linalg.norm(v_b)))
        worst.append(residual)
    return worst


def check_inverse_fisher(log: CheckLog, ssse, finv, params, dataset, loss_cfg, seed: int) -> None:
    try:
        worst = probe_residuals(ssse, finv, params, dataset, loss_cfg, seed)
    except Exception as exc:  # a probe that cannot run is a failed check
        log.record("fisher-probe", False, repr(exc))
        return
    for i, r in enumerate(worst):
        log.record(f"fisher-probe block {i}", r <= PROBE_TOL, f"residual {r:.3e} > {PROBE_TOL}")


def check_sweep_quality(log: CheckLog, sweep) -> float:
    """Best score of the sweep against the acceptance threshold; returns it."""
    best = next(r for r in sweep.reports if r.epsilon == sweep.best_epsilon)
    if sweep.criterion == "max_gamma":
        score = best.gamma
        log.record("best gamma", score > MIN_BEST_GAMMA, f"{score:.4f} <= {MIN_BEST_GAMMA}")
    else:
        score = best.delta
        log.record("best delta", score < MAX_BEST_DELTA, f"{score:.4f} >= {MAX_BEST_DELTA}")
    return score


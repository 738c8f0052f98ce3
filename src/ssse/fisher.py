"""Inverse empirical Fisher information, built block by block in closed form.

The empirical Fisher of a model at theta is the mean outer product of
per-sample loss gradients plus a dampening ridge:

    F = dampening * I + (1/count) * sum_j g_j g_j^T

Blocks are contiguous parameter intervals that follow the model's
natural units (attribute rows, class rows, layers); everything outside
the block diagonal is treated as zero. Each block of side s is stored as
the factor its build computes, in one of two forms picked by the row
count against s:

- primal (count >= s): the Gram product G_b^T G_b is accumulated over
  id-ordered gradient chunks, dampening * I + G_b^T G_b / count is
  factored as L L^T, and the block stores the lower-triangular
  W = L^{-1}; its inverse is W^T W;
- dual (count < s): the count x count matrix
  K = G_b G_b^T + count * dampening * I is factored as L L^T, and the
  block stores Z = L^{-1} G_b; by the Woodbury identity its inverse is
  (I - Z^T Z) / dampening.

A run is a maximal group of consecutive blocks of one side; the count
fixes the form, so a run's factors share one shape. The build
accumulates each run into one stack (the Gram products of a primal run,
the rows of a dual run) and factors it with one batched Cholesky and
one batched inverse. Applying the estimate is two mat-vecs with each
factor, taken as two stacked products per run; no inverse of a block is
formed.

The rows of G are the mean gradients of consecutive batches of b samples
(in id order, last batch possibly smaller), with ``count`` equal to the
number of batches. At every batch size, and for the diagonal estimate,
they come from one kernel, ``models._grad_sums``, which sums the
gradients of groups of rows; a group of one row is a per-sample gradient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _container as cont
from .errors import ContainerError, InputError, NumericError
from .models import (
    Dataset,
    LossConfig,
    ModelParams,
    Shape,
    _grad_sums,
    _targets,
    _whole,
    grad_matrix,  # unused here; the benchmark's traced runs patch this name
    params_digest,
)

# ---------------------------------------------------------------------------
# Block layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """Disjoint, ascending, contiguous index intervals covering 0..d."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise InputError("block spec needs at least one interval")
        ranges = tuple((_whole(lo, "block bound"), _whole(hi, "block bound"))
                       for lo, hi in self.ranges)
        cursor = 0
        for lo, hi in ranges:
            if lo != cursor or hi <= lo:
                raise InputError("block intervals must be contiguous, ascending, nonempty")
            cursor = hi
        object.__setattr__(self, "ranges", ranges)

    @property
    def n_params(self) -> int:
        return self.ranges[-1][1]

    @staticmethod
    def single(n_params: int) -> "BlockSpec":
        return BlockSpec(ranges=((0, n_params),))

    @staticmethod
    def from_shape(shape: Shape) -> "BlockSpec":
        """One interval per unit: an output row of a single-layer model, a layer otherwise."""
        if len(shape.layers) > 1:
            return BlockSpec(ranges=shape.spans)
        rows, cols = shape.layers[0]
        return BlockSpec(ranges=tuple((i * cols, (i + 1) * cols) for i in range(rows)))


# ---------------------------------------------------------------------------
# Inverse Fisher container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InverseFisher:
    """Block-diagonal inverse empirical Fisher tied to a parameter digest.

    ``blocks`` holds one factor per interval of ``spec`` (forms in the
    module docstring). Construction copies each maximal run of
    consecutive factors of one shape (r, s) into one read-only (b, r, s)
    stack, and ``blocks`` are views into those stacks. It checks that
    each factor is finite, has the shape ``rank_one_count`` implies for
    its side, and gives a positive-definite inverse: a primal W is
    exactly lower triangular with a positive diagonal, and a dual Z has
    I - Z Z^T positive definite, which holds exactly when its spectral
    norm is below 1. A failed check raises NumericError naming the block
    and its parameter range. Estimates compare by identity.
    """

    blocks: tuple[np.ndarray, ...]
    spec: BlockSpec
    dampening: float
    n_samples: int
    batch_size: int
    built_at_digest: bytes

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.spec.ranges):
            raise InputError("block count does not match the block spec")
        if self.dampening <= 0 or not np.isfinite(self.dampening):
            raise InputError("dampening must be finite and > 0")
        for name in ("n_samples", "batch_size"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, 1))
        if len(self.built_at_digest) != 32:
            raise InputError("parameter digest must be 32 bytes")
        count = self.rank_one_count
        arrays = [np.asarray(block, dtype=np.float64) for block in self.blocks]
        for arr, (lo, hi) in zip(arrays, self.spec.ranges):
            side = hi - lo
            if arr.shape != (min(count, side), side):
                raise InputError(f"factor shape {arr.shape} wrong for side {side}, count {count}")
        names = [f"inverse Fisher factor of block {i} (parameters {a}:{b})"
                 for i, (a, b) in enumerate(self.spec.ranges)]
        # maximal runs of consecutive blocks whose factors share one shape,
        # each copied into one read-only (b, r, s) stack that the blocks view
        runs, blocks, lo = [], [], 0
        for (rows, side), group in itertools.groupby(arrays, key=np.shape):
            stack = np.stack(list(group))
            run_names = names[len(blocks):len(blocks) + len(stack)]
            bad = ~np.isfinite(stack).all(axis=(1, 2))
            if bad.any():
                raise NumericError(f"{run_names[bad.argmax()]} has non-finite entries")
            if rows == side:
                bad = np.triu(stack, 1).any(axis=(1, 2))
                bad |= (stack.diagonal(axis1=1, axis2=2) <= 0).any(axis=1)
                if bad.any():
                    raise NumericError(
                        f"{run_names[bad.argmax()]} is not triangular with a positive diagonal")
            else:
                # an overflowing Z Z^T leaves inf entries, which _cholesky names
                with np.errstate(over="ignore", invalid="ignore"):
                    k = np.eye(rows) - stack @ stack.transpose(0, 2, 1)
                _cholesky(k, [f"{name}: I - Z Z^T" for name in run_names])
            stack.setflags(write=False)
            blocks.extend(stack)
            hi = lo + stack.shape[0] * side
            runs.append((lo, hi, stack))
            lo = hi
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "_runs", tuple(runs))

    @property
    def n_params(self) -> int:
        return self.spec.n_params

    @property
    def rank_one_count(self) -> int:
        """Denominator count used during the build: the number of batches."""
        return math.ceil(self.n_samples / self.batch_size)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def sherman_morrison_step(inv_block: np.ndarray, g: np.ndarray, count: int) -> np.ndarray:
    """Reference rank-one step: fold (1/count) g g^T into a maintained inverse.

    ``build_inverse_fisher`` does not call it; it is the independent
    oracle that the closed-form block builds are checked against. Given
    ``inv_block`` = A^{-1}, returns the exact inverse of
    ``A + (1/count) g g^T``:

        A^{-1} - (A^{-1} g g^T A^{-1}) / (count + g^T A^{-1} g)

    The result is re-symmetrized by averaging with its transpose so
    rounding cannot drift a folded block away from symmetry.
    """
    count = _whole(count, "count", 1)
    g = np.asarray(g, dtype=np.float64)
    u = inv_block @ g
    denom = float(count + g @ u)
    if not np.isfinite(denom) or denom <= 0:
        raise NumericError(f"Sherman-Morrison denominator is {denom}")
    out = inv_block - np.outer(u, u) / denom
    return (out + out.T) / 2.0


def _batch_means(params: ModelParams, dataset: Dataset, cfg: LossConfig, batch_size: int):
    """Yield the mean gradients of consecutive id-ordered batches, a chunk of rows at a time.

    Each chunk is one :func:`_grad_sums` call into one buffer, so a
    yielded array is overwritten by the next chunk. The rows of a batch
    are formed only when its mean is non-finite, to name the sample that
    made it so.
    """
    shape, values = params.shape, params.values
    chunk = batch_size * max(1, 512 // batch_size)
    buf = np.empty((math.ceil(min(chunk, dataset.n) / batch_size), shape.n_params))
    # the rows of the already validated arrays, in id order
    order = dataset._id_order()
    for lo in range(0, dataset.n, chunk):
        rows = order[lo:lo + chunk]
        n = len(rows)
        targets = _targets(shape, dataset.labels[rows])
        features = dataset.features[rows]
        means = _grad_sums(shape, values, features, targets, cfg.l2_coeff, batch_size,
                           out=buf[:math.ceil(n / batch_size)])
        if batch_size > 1:
            means /= np.minimum(batch_size, n - np.arange(0, n, batch_size))[:, None]
        if not np.isfinite(means).all():  # a whole-chunk test is the cheap one
            for j in np.flatnonzero(~np.isfinite(means).all(axis=1)):
                # raises on the batch's first non-finite row; a mean that
                # overflowed from finite rows is left to the factor's check
                batch = slice(j * batch_size, (j + 1) * batch_size)
                g = _grad_sums(shape, values, features[batch], targets[batch], cfg.l2_coeff, 1)
                bad = np.flatnonzero(~np.isfinite(g).all(axis=1))
                if bad.size:
                    sample_id = dataset.ids[rows[batch][bad[0]]]
                    raise NumericError(f"non-finite gradient for sample {sample_id}")
        yield means


# The factor and the solves use numpy's LAPACK; scipy.linalg would bring in
# a second BLAS whose work buffers its first call makes resident.
def _cholesky(f: np.ndarray, what: str | list[str] = "Fisher block") -> np.ndarray:
    """Lower Cholesky factor of ``f``, or of each matrix of a stack ``f``.

    Raises NumericError unless every matrix is finite and positive
    definite, naming the first that is not: ``what`` names the matrix, or
    for a stack either all of them or each in a list. A Fisher block (or
    its dual) turns non-finite only when gradient products overflow; the
    influence solve factors a "Hessian".
    """
    if np.isfinite(f).all():
        try:
            return np.linalg.cholesky(f)
        except np.linalg.LinAlgError:
            pass
    stack = f.reshape(-1, *f.shape[-2:])
    names = [what] * len(stack) if isinstance(what, str) else what
    for name, m in zip(names, stack):
        if not np.isfinite(m).all():
            cause = " (gradient products overflow)" if name.startswith("Fisher block") else ""
            raise NumericError(f"{name} has non-finite entries{cause}")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise NumericError(f"{name} is not positive definite") from None
    raise AssertionError("a stack that fails to factor has a failing matrix")


def _primal_factors(
    gram: np.ndarray, count: int, dampening: float, names: list[str]
) -> np.ndarray:
    """W = L^{-1} for the Cholesky factor L of each ``dampening * I + gram / count``.

    ``gram`` is a (b, s, s) stack and is overwritten. The inverse leaves
    rounding residues above the diagonal, which are cut so each stored W
    is exactly triangular.
    """
    side = gram.shape[-1]
    gram /= count
    gram.reshape(len(gram), -1)[:, ::side + 1] += dampening
    return np.tril(np.linalg.inv(_cholesky(gram, names)))


def _dual_factors(rows: np.ndarray, dampening: float, names: list[str]) -> np.ndarray:
    """Z = L^{-1} rows for the Cholesky factor L of each ``rows rows^T + count * dampening * I``.

    ``rows`` is a (b, count, s) stack. L is only count x count, so
    inverting it and taking one product is far cheaper than a general
    solve with one right-hand side per column.
    """
    count = rows.shape[1]
    k = np.matmul(rows, rows.transpose(0, 2, 1))
    k.reshape(len(k), -1)[:, ::count + 1] += count * dampening
    return np.matmul(np.linalg.inv(_cholesky(k, names)), rows)


def build_inverse_fisher(
    params: ModelParams,
    dataset: Dataset,
    cfg: LossConfig,
    dampening: float,
    spec: BlockSpec | None = None,
    batch_size: int = 1,
) -> InverseFisher:
    """Build the block-diagonal inverse empirical Fisher at ``params``.

    For ``batch_size`` 1 and a single full block the result equals the
    dense inverse of ``dampening * I + (1/n) sum_i g_i g_i^T``; larger
    batches use batch-mean gradients with the batch count as the
    denominator count. Samples are processed in id order (Python's
    code-point string order). A block with fewer rows than its side is
    built in the dual form.
    """
    if dampening <= 0 or not np.isfinite(dampening):
        raise InputError("dampening must be finite and > 0")
    batch_size = _whole(batch_size, "batch_size", 1)
    if dataset.n == 0:
        raise InputError("cannot build a Fisher estimate from an empty dataset")
    if spec is None:
        spec = BlockSpec.from_shape(params.shape)
    if spec.n_params != params.shape.n_params:
        raise InputError("block spec does not cover the parameter vector")

    count = math.ceil(dataset.n / batch_size)
    # maximal runs of consecutive blocks of one side s, as (lo, b, s); the
    # count fixes the form, so each run is one factor stack of the container
    runs, start = [], 0
    for side, group in itertools.groupby(hi - lo for lo, hi in spec.ranges):
        b = len(list(group))
        runs.append((start, b, side))
        start += b * side
    # dual runs keep their (b, count, s) rows, primal runs their (b, s, s) Gram products
    acc = [np.empty((b, count, s)) if count < s else np.zeros((b, s, s)) for _, b, s in runs]
    row = 0
    for means in _batch_means(params, dataset, cfg, batch_size):
        m = means.shape[0]
        for a, (lo, b, s) in zip(acc, runs):
            g = means[:, lo:lo + b * s].reshape(m, b, s).transpose(1, 0, 2)
            if count < s:
                a[:, row:row + m] = g
            else:
                a += np.matmul(g.transpose(0, 2, 1), g)
        row += m
    names = [f"Fisher block {i} (parameters {lo}:{hi})" for i, (lo, hi) in enumerate(spec.ranges)]
    blocks = []
    for a, (_, b, s) in zip(acc, runs):
        run_names = names[len(blocks):len(blocks) + b]
        blocks.extend(_dual_factors(a, dampening, run_names) if count < s
                      else _primal_factors(a, count, dampening, run_names))
    return InverseFisher(
        blocks=tuple(blocks),
        spec=spec,
        dampening=dampening,
        n_samples=dataset.n,
        batch_size=batch_size,
        built_at_digest=params_digest(params),
    )


def apply_inverse(finv: InverseFisher, v: np.ndarray) -> np.ndarray:
    """Blockwise matrix-vector product with the inverse Fisher estimate.

    Each run of equally shaped factors takes two stacked products, which
    run the same matrix-vector kernel per block as ``block @ x`` would.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (finv.n_params,):
        raise InputError(f"vector length {v.shape} does not match d={finv.n_params}")
    out = np.empty_like(v)
    for lo, hi, stack in finv._runs:
        b, rows, side = stack.shape
        x = v[lo:hi].reshape(b, side, 1)
        y = np.matmul(stack.transpose(0, 2, 1), np.matmul(stack, x))
        out[lo:hi] = ((x - y) / finv.dampening if rows < side else y).reshape(-1)
    return out


def diagonal_inverse_fisher(
    params: ModelParams, dataset: Dataset, cfg: LossConfig, dampening: float
) -> np.ndarray:
    """Elementwise reciprocal of ``dampening + mean_i g_i^2``."""
    if dampening <= 0 or not np.isfinite(dampening):
        raise InputError("dampening must be finite and > 0")
    if dataset.n == 0:
        raise InputError("cannot build a Fisher estimate from an empty dataset")
    acc = np.zeros(params.shape.n_params, dtype=np.float64)
    for g in _batch_means(params, dataset, cfg, 1):
        acc += np.square(g).sum(axis=0)
    return 1.0 / (dampening + acc / dataset.n)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def save_inverse_fisher(finv: InverseFisher, path: str) -> None:
    """Serialize to the inverse-Fisher container (layout in the README)."""
    w = cont.ByteWriter()
    w.magic(cont.FISHER_MAGIC)
    w.u8(cont.FISHER_VERSION)
    w.f64(finv.dampening)
    w.u64(finv.n_samples)
    w.u64(finv.batch_size)
    w.raw(finv.built_at_digest)
    w.u64(len(finv.blocks))
    for block in finv.blocks:
        w.u64(block.shape[0])
        w.u64(block.shape[1])
        w.f64_array(block.reshape(-1))
    cont.write_atomic(path, w.getvalue())


def load_inverse_fisher(path: str) -> InverseFisher:
    """Read a :func:`save_inverse_fisher` file; every error it raises names ``path``."""
    r = cont.ByteReader(cont.read_file(path), path)
    r.magic(cont.FISHER_MAGIC)
    version = r.u8("version")
    if version != cont.FISHER_VERSION:
        raise ContainerError(f"{path}: unsupported inverse-Fisher container version {version} "
                             f"at byte 8; rebuild it with `ssse fisher`")
    dampening = r.f64("dampening")
    n_samples = r.u64("n_samples")
    batch_size = r.u64("batch_size")
    digest = r.raw(32, "parameter digest")
    n_blocks = r.u64("block count")
    blocks = []
    ranges = []
    cursor = 0
    for i in range(n_blocks):
        rows = r.u64(f"block {i} rows")
        side = r.u64(f"block {i} side")
        if not 0 < rows <= side <= 10**9:
            raise ContainerError(f"{path}: implausible block {i} rows {rows}, side {side} "
                                 f"at byte {r.offset - 16}")
        blocks.append(r.f64_array(rows * side, f"block {i} payload").reshape(rows, side))
        ranges.append((cursor, cursor + side))
        cursor += side
    r.expect_end()
    try:
        return InverseFisher(
            blocks=tuple(blocks),
            spec=BlockSpec(ranges=tuple(ranges)),
            dampening=dampening,
            n_samples=n_samples,
            batch_size=batch_size,
            built_at_digest=digest,
        )
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    except InputError as exc:
        raise ContainerError(f"{path}: {exc}") from exc

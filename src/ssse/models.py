"""Model families, datasets, and the loss/gradient/Hessian surface.

Three bias-free families are supported:

* ``MultiAttrLinear``: one independent sigmoid head per binary attribute.
* ``MultinomialLinear``: a single softmax layer over ``c`` classes.
* ``MLP``: one tanh hidden layer followed by a softmax output layer.

All three are one tanh network of depth 0 or 1: each shape's ``layers``
lists the (out, in) shape of every weight matrix in parameter order, and
one forward pass, one backward pass and the Fisher's block layout follow
``layers`` for every family; only the head (a clipped sigmoid or a
softmax) differs. Parameters are always carried as a flat float64 vector
whose layout is row-major per weight matrix (output row by output row,
layer by layer). Every per-sample loss includes the full L2 term, so the
mean training loss is ``mean_i nll_i + (l2_coeff / 2) * ||theta||^2`` and
each per-sample gradient carries ``l2_coeff * theta``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, fields
from typing import Iterable, Union

import numpy as np

from .errors import InputError, NumericError

# Probabilities this close to 0 or 1 are clamped before logs are taken.
PROB_FLOOR = 1e-12

# Dense Hessians above this parameter count are refused.
DENSE_HESSIAN_CAP = 4096


# ---------------------------------------------------------------------------
# Shapes and parameters
# ---------------------------------------------------------------------------

class _Network:
    """Bias-free tanh network; ``layers`` is each weight's (out, in) in parameter order."""

    @property
    def n_params(self) -> int:
        return sum(rows * cols for rows, cols in self.layers)


@dataclass(frozen=True)
class MultiAttrLinear(_Network):
    """Independent binary heads: weight matrix (n_attrs, n_features)."""

    n_attrs: int
    n_features: int

    @property
    def layers(self) -> tuple[tuple[int, int], ...]:
        return ((self.n_attrs, self.n_features),)

    def validate(self) -> None:
        if self.n_attrs < 1 or self.n_features < 1:
            raise InputError("MultiAttrLinear needs n_attrs >= 1 and n_features >= 1")


@dataclass(frozen=True)
class MultinomialLinear(_Network):
    """Softmax layer: weight matrix (n_classes, n_features)."""

    n_classes: int
    n_features: int

    @property
    def layers(self) -> tuple[tuple[int, int], ...]:
        return ((self.n_classes, self.n_features),)

    def validate(self) -> None:
        if self.n_classes < 2 or self.n_features < 1:
            raise InputError("MultinomialLinear needs n_classes >= 2 and n_features >= 1")


@dataclass(frozen=True)
class MLP(_Network):
    """One hidden tanh layer: (n_hidden, n_features) then (n_classes, n_hidden)."""

    n_features: int
    n_hidden: int
    n_classes: int

    @property
    def layers(self) -> tuple[tuple[int, int], ...]:
        return ((self.n_hidden, self.n_features), (self.n_classes, self.n_hidden))

    def validate(self) -> None:
        if self.n_features < 1 or self.n_hidden < 1 or self.n_classes < 2:
            raise InputError("MLP needs n_features, n_hidden >= 1 and n_classes >= 2")


Shape = Union[MultiAttrLinear, MultinomialLinear, MLP]

# Serialized kind codes are 1-based positions here; the three serialized
# dims are a shape's dataclass fields in order, zero-padded.
_SHAPES = (MultiAttrLinear, MultinomialLinear, MLP)


def shape_kind_code(shape: Shape) -> int:
    """Stable integer tag for serialization (1, 2, 3 in the order above)."""
    if type(shape) not in _SHAPES:
        raise InputError(f"unknown shape type: {type(shape).__name__}")
    return _SHAPES.index(type(shape)) + 1


def shape_from_kind_code(code: int, dims: tuple[int, int, int]) -> Shape:
    """Inverse of ``shape_kind_code`` / ``shape_dims``; an unused dim must be zero."""
    if not 1 <= code <= len(_SHAPES):
        raise InputError(f"unknown shape kind code {code}")
    cls = _SHAPES[code - 1]
    used = len(fields(cls))
    for slot in range(used, len(dims)):
        if dims[slot] != 0:
            raise InputError(
                f"dim {slot} is {dims[slot]}, but {cls.__name__} leaves it unused (0)"
            )
    return cls(*dims[:used])


def shape_dims(shape: Shape) -> tuple[int, int, int]:
    """Three u64-serializable dims; unused slots are zero."""
    shape_kind_code(shape)  # rejects a foreign shape type
    dims = tuple(getattr(shape, f.name) for f in fields(shape))
    return dims + (0,) * (3 - len(dims))


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Immutable flat parameter vector plus its shape and origin seed.

    Two params are equal when their shapes and seeds are and their values
    agree byte for byte (so 0.0 and -0.0 differ, as their digests do);
    the hash comes from the cached digest.
    """

    values: np.ndarray
    shape: Shape
    seed: int = 0

    def __post_init__(self) -> None:
        self.shape.validate()
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InputError("parameter values must be a flat vector")
        if values.shape[0] != self.shape.n_params:
            raise InputError(
                f"parameter length {values.shape[0]} does not match "
                f"shape n_params {self.shape.n_params}"
            )
        if not np.all(np.isfinite(values)):
            raise InputError("parameter values must be finite")
        if values is self.values or values.base is not None:
            # a view (of a subclass instance, say) could still be written
            # through its base, which would leave the cached digest stale
            values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "ModelParams":
        return ModelParams(values=values, shape=self.shape, seed=self.seed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelParams):
            return NotImplemented
        return (self.shape == other.shape and self.seed == other.seed
                and self._digest == other._digest)

    def __hash__(self) -> int:
        return hash((self._digest, self.seed))

    @functools.cached_property
    def _digest(self) -> bytes:
        # the fields are frozen and ``values`` is read-only, so one hash per instance
        h = hashlib.sha256()
        h.update(bytes([shape_kind_code(self.shape)]))
        for dim in shape_dims(self.shape):
            h.update(int(dim).to_bytes(8, "little"))
        h.update(self.values.tobytes())
        return h.digest()


@dataclass(frozen=True)
class LossConfig:
    """L2 penalty strength for the regularized mean loss."""

    l2_coeff: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.l2_coeff) or self.l2_coeff < 0:
            raise InputError("l2_coeff must be finite and >= 0")


def params_digest(params: ModelParams) -> bytes:
    """SHA-256 over the shape descriptor and raw parameter bytes.

    Used to tie an inverse-Fisher file to the exact parameter vector it
    was built at. It is computed on the first call for a ``ModelParams``
    instance and kept with it.
    """
    return params._digest


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix, labels, and unique string sample ids.

    Labels are either a binary attribute matrix (n, n_attrs) with 0/1
    entries, or a class vector (n,) with integer entries in 1..c.
    Arrays are copied and frozen at construction. Datasets compare by
    identity.
    """

    features: np.ndarray
    labels: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise InputError("features must be a 2-d array")
        if not np.all(np.isfinite(features)):
            raise InputError("features must be finite")
        n = features.shape[0]

        labels = np.asarray(self.labels)
        if labels.ndim == 2:
            if labels.shape[0] != n:
                raise InputError("labels row count does not match features")
            arr = np.ascontiguousarray(labels)
            if not np.isin(arr, (0, 1)).all():
                raise InputError("binary attribute labels must be 0 or 1")
            labels = arr.astype(np.uint8)
        elif labels.ndim == 1:
            if labels.shape[0] != n:
                raise InputError("labels length does not match features")
            arr = np.ascontiguousarray(labels, dtype=np.int64)
            if not np.array_equal(arr, np.asarray(labels, dtype=np.float64)):
                raise InputError("class labels must be integers")
            if n and arr.min() < 1:
                raise InputError("class labels must be >= 1")
            labels = arr
        else:
            raise InputError("labels must be a vector or a 2-d attribute matrix")

        ids = tuple(str(i) for i in self.ids)
        if len(ids) != n:
            raise InputError("id count does not match features")
        row_of = dict(zip(ids, range(n)))
        if len(row_of) != n:
            raise InputError("sample ids must be unique")

        features = features.copy() if features is self.features else features
        features.setflags(write=False)
        labels = labels.copy() if labels is self.labels else labels
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_row_of", row_of)
        # ((params digest, l2_coeff), read-only full-data gradient sum) of the
        # last "remaining" erasure request, see erasure._full_grad_total
        object.__setattr__(self, "_full_grad", None)

    # -- basic views --------------------------------------------------------

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def kind(self) -> str:
        return "binary" if self.labels.ndim == 2 else "multinomial"

    @property
    def n_attrs(self) -> int:
        if self.kind != "binary":
            raise InputError("n_attrs is only defined for binary attribute datasets")
        return self.labels.shape[1]

    # -- subsetting ---------------------------------------------------------

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """Ascending int64 row indices of the given ids; a repeated id counts once.

        Unknown ids raise InputError naming the first three in sorted order.
        A bare ``str`` or ``bytes`` raises InputError rather than counting
        as its characters.
        """
        _check_id_collection(ids)
        ids = list(ids)
        try:
            rows = [self._row_of[s] for s in ids]
        except KeyError:
            missing = sorted(set(ids).difference(self._row_of))
            raise InputError(f"sample ids not in the dataset: {missing[:3]}") from None
        return np.array(sorted(set(rows)), dtype=np.int64)

    def subset(self, ids: Iterable[str]) -> "Dataset":
        """Rows with the given ids, kept in this dataset's own row order."""
        return self._take(self.rows(ids))

    def without(self, ids: Iterable[str]) -> "Dataset":
        """Rows without the given ids, kept in this dataset's own row order."""
        return self._take(np.delete(np.arange(self.n), self.rows(ids)))

    def sorted_by_id(self) -> "Dataset":
        return self._take(self._id_order())

    def _id_order(self) -> np.ndarray:
        """Row indices that put the samples in id order: Python's code-point string order.

        It is the order of numpy's argsort over the ids as an object
        array, which compares them with the same ``<``, at a fraction of
        its cost; the ids are unique, so stability does not matter.
        """
        return np.array(sorted(range(self.n), key=self.ids.__getitem__), dtype=np.intp)

    def _take(self, idx: np.ndarray) -> "Dataset":
        # Python ints index the id tuple much faster than numpy integers.
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            ids=tuple(self.ids[i] for i in idx.tolist()),
        )


def _check_id_collection(ids) -> None:
    if isinstance(ids, (str, bytes)):
        raise InputError(f"sample ids must be a collection of ids, not the string {ids!r}")


def onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Class vector with entries in 1..c to a float (n, c) indicator matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 1 or labels.max() > n_classes):
        raise InputError("class label out of range for the model shape")
    out = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels - 1] = 1.0
    return out


def _check_task_match(params: ModelParams, dataset: Dataset) -> None:
    shape = params.shape
    if dataset.n_features != shape.n_features:
        raise InputError(
            f"dataset has {dataset.n_features} features, shape expects {shape.n_features}"
        )
    if isinstance(shape, MultiAttrLinear):
        if dataset.kind != "binary":
            raise InputError("MultiAttrLinear requires binary attribute labels")
        if dataset.n_attrs != shape.n_attrs:
            raise InputError(
                f"dataset has {dataset.n_attrs} attributes, shape expects {shape.n_attrs}"
            )
    else:
        if dataset.kind != "multinomial":
            raise InputError("softmax shapes require a class-label vector")
        n_classes = shape.n_classes
        if dataset.n and dataset.labels.max() > n_classes:
            raise InputError("class label out of range for the model shape")


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _weights(shape: Shape, values: np.ndarray) -> list[np.ndarray]:
    """Views of the weight matrices of ``shape.layers`` into the flat vector."""
    weights, cut = [], 0
    for rows, cols in shape.layers:
        weights.append(values[cut:cut + rows * cols].reshape(rows, cols))
        cut += rows * cols
    return weights


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp
    # never overflows; the arithmetic runs in place on two temporaries.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.where(z >= 0, 1.0, e)
    e += 1.0
    p /= e
    return p


def _softmax(z: np.ndarray) -> np.ndarray:
    # Shift by the row max so exp stays bounded, then clamp and renormalize
    # so every entry is strictly inside (0, 1) and rows still sum to one.
    # Every step after the shift works in place on its result.
    p = z - z.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _checked_features(shape: Shape, features: np.ndarray) -> np.ndarray:
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != shape.n_features:
        raise InputError("feature matrix does not match the model shape")
    return features


def _forward(
    shape: Shape, values: np.ndarray, features: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The input of every layer, then the head's probabilities.

    Hidden layers are tanh; the head is a clipped sigmoid per attribute for
    the multi-attribute family and a softmax otherwise. Each hidden layer's
    tanh and the head's clip run in place on the array they act on, so a
    pass allocates one array per layer and a few for the head. The hidden
    activations it returns belong to the caller; :func:`_backward` reuses
    them as scratch.
    """
    features = _checked_features(shape, features)
    *hidden, head = _weights(shape, values)
    inputs = [features]
    for w in hidden:
        a = inputs[-1] @ w.T
        inputs.append(np.tanh(a, out=a))
    z = inputs[-1] @ head.T
    if isinstance(shape, MultiAttrLinear):
        p = _sigmoid(z)
        return inputs, np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR, out=p)
    return inputs, _softmax(z)


def predict_proba(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Per-sample probabilities.

    Returns (n, n_attrs) independent sigmoid probabilities for the
    multi-attribute family and (n, n_classes) softmax rows otherwise.
    """
    return _forward(params.shape, params.values, features)[1]


def predict_labels(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Hard predictions: argmax class in 1..c, or 0/1 per attribute.

    Argmax ties resolve to the lowest class index.
    """
    return _labels_from_proba(params.shape, predict_proba(params, features))


def _labels_from_proba(shape: Shape, p: np.ndarray) -> np.ndarray:
    if isinstance(shape, MultiAttrLinear):
        return (p > 0.5).astype(np.uint8)
    return np.argmax(p, axis=1).astype(np.int64) + 1


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def loss(params: ModelParams, dataset: Dataset, cfg: LossConfig) -> float:
    """Mean regularized loss over the dataset."""
    _check_task_match(params, dataset)
    if dataset.n == 0:
        raise InputError("loss is undefined on an empty dataset")
    return _loss_from_proba(predict_proba(params, dataset.features), dataset, params.values, cfg)


def _loss_from_proba(p: np.ndarray, dataset: Dataset, values: np.ndarray, cfg: LossConfig) -> float:
    """:func:`loss` from the head's probabilities ``p`` on the nonempty ``dataset``."""
    if dataset.kind == "binary":
        y = dataset.labels.astype(np.float64)
        nll = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum(axis=1)
    else:
        rows = np.arange(dataset.n)
        nll = -np.log(p[rows, dataset.labels - 1])
    value = float(nll.mean() + 0.5 * cfg.l2_coeff * float(values @ values))
    if not np.isfinite(value):
        raise NumericError("loss is not finite")
    return value


def _targets(shape: Shape, labels: np.ndarray) -> np.ndarray:
    """The head's float targets: the 0/1 attributes, or one-hot classes."""
    if isinstance(shape, MultiAttrLinear):
        return np.asarray(labels, dtype=np.float64)
    return onehot(np.asarray(labels), shape.n_classes)


def _backward(
    shape: Shape, values: np.ndarray, features: np.ndarray, targets: np.ndarray, forward=None
):
    """Yield ``(start, stop, delta, layer_input)`` for each layer, last layer first.

    ``delta`` is the data loss's gradient with respect to the layer's
    pre-activation, so sample i's data gradient in columns start:stop is
    ``outer(delta[i], layer_input[i])`` in the flat layout. ``forward`` is
    :func:`_forward` of the same arguments when the caller already has it.

    A hidden layer's input is valid only until the next item is drawn:
    its tanh activation x is then overwritten with 1 - x^2 to form the
    layer below's delta without a fresh array. So a ``forward`` passed
    in is consumed; its hidden activations must not be read afterwards.
    """
    inputs, p = _forward(shape, values, features) if forward is None else forward
    weights = _weights(shape, values)
    delta = p - targets
    stop = shape.n_params
    for layer in reversed(range(len(weights))):
        rows, cols = weights[layer].shape
        start = stop - rows * cols
        yield start, stop, delta, inputs[layer]
        if layer:
            x = inputs[layer]
            delta = delta @ weights[layer]
            np.multiply(x, x, out=x)
            np.subtract(1.0, x, out=x)
            delta *= x
        stop = start


def _grad_sums(
    shape: Shape,
    values: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    l2_coeff: float,
    size: int | None = None,
    forward=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Regularized gradient sums of consecutive groups of ``size`` rows, one row per group.

    The last group may be short; ``size=None`` is one group of all rows
    (one zero row for zero rows). A group of one row is a per-sample
    gradient, one einsum per layer; larger groups take one stacked
    product delta^T x per layer, and one more for a short last group.
    ``out`` is a C-contiguous float64 (groups, n_params) array to write.
    A ``forward`` passed in is consumed, as in :func:`_backward`.
    """
    n = features.shape[0]
    full = 0 if size is None else n // size
    cut = 0 if size is None else full * size
    groups = full + (size is None or cut < n)
    if out is None:
        out = np.empty((groups, shape.n_params), dtype=np.float64)
    for start, stop, delta, x in _backward(shape, values, features, targets, forward):
        r, c = delta.shape[1], x.shape[1]
        sums = out[:, start:stop].reshape(groups, r, c)
        if size == 1:
            np.einsum("nr,nc->nrc", delta, x, out=sums)
            continue
        if full:
            np.matmul(delta[:cut].reshape(full, size, r).transpose(0, 2, 1),
                      x[:cut].reshape(full, size, c), out=sums[:full])
        if groups > full:
            np.matmul(delta[cut:].T, x[cut:], out=sums[full])
    if l2_coeff:
        if full:
            out[:full] += (size * l2_coeff) * values
        if groups > full:
            out[full] += ((n - cut) * l2_coeff) * values
    return out


def grad_matrix(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample gradients of the regularized per-sample loss, one row each.

    Row i is the gradient of ``nll_i + (l2_coeff / 2) * ||theta||^2``, so
    the mean over rows equals the full-batch gradient of :func:`loss`.
    Every gradient in the package is a group sum of :func:`_grad_sums`;
    these rows are its groups of one row.
    ``out``, a C-contiguous float64 (rows, n_params) array, receives the
    rows in place of a fresh array.
    """
    shape = params.shape
    features = _checked_features(shape, features)
    n, d = features.shape[0], shape.n_params
    if out is not None and (
        out.shape != (n, d) or out.dtype != np.float64 or not out.flags.c_contiguous
    ):
        raise InputError(f"out must be a C-contiguous float64 array of shape {(n, d)}")
    targets = _targets(shape, labels)
    return _grad_sums(shape, params.values, features, targets, cfg.l2_coeff, 1, out=out)


def grad(params: ModelParams, x: np.ndarray, y, cfg: LossConfig) -> np.ndarray:
    """Gradient of one sample's regularized loss."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if isinstance(params.shape, MultiAttrLinear):
        labels = np.atleast_2d(np.asarray(y))
    else:
        labels = np.asarray([y], dtype=np.int64)
    return grad_matrix(params, x, labels, cfg)[0]


def grad_mean(params: ModelParams, dataset: Dataset, cfg: LossConfig) -> np.ndarray:
    """Full gradient of the mean regularized loss."""
    _check_task_match(params, dataset)
    if dataset.n == 0:
        raise InputError("gradient is undefined on an empty dataset")
    targets = _targets(params.shape, dataset.labels)
    total = _grad_sums(params.shape, params.values, dataset.features, targets, cfg.l2_coeff)[0]
    return total / dataset.n


def grad_sum(params: ModelParams, dataset: Dataset, ids: Iterable[str], cfg: LossConfig) -> np.ndarray:
    """Sum of per-sample gradients over the given sample ids."""
    rows = dataset.rows(ids)
    if rows.size == 0:
        raise InputError("gradient sum over an empty id set")
    targets = _targets(params.shape, dataset.labels[rows])
    return _grad_sums(params.shape, params.values, dataset.features[rows], targets,
                      cfg.l2_coeff)[0]


# ---------------------------------------------------------------------------
# Dense Hessian (linear families only)
# ---------------------------------------------------------------------------

def hessian_dense(params: ModelParams, dataset: Dataset, cfg: LossConfig) -> np.ndarray:
    """Dense Hessian of the mean regularized loss.

    Only the linear families admit the closed form used here; the
    multinomial data term is ``mean_i kron(diag(p_i) - p_i p_i^T, x_i x_i^T)``
    and the multi-attribute data term is block-diagonal with blocks
    ``mean_i p_ij (1 - p_ij) x_i x_i^T``. Refused for the MLP and for
    parameter counts above ``DENSE_HESSIAN_CAP``.
    """
    shape = params.shape
    if isinstance(shape, MLP):
        raise InputError("dense Hessian is not available for the MLP family")
    _check_task_match(params, dataset)
    if dataset.n == 0:
        raise InputError("Hessian is undefined on an empty dataset")
    d = shape.n_params
    if d > DENSE_HESSIAN_CAP:
        raise InputError(f"dense Hessian refused for d={d} > {DENSE_HESSIAN_CAP}")
    features = dataset.features
    p = predict_proba(params, features)
    if isinstance(shape, MultinomialLinear):
        c = shape.n_classes
        factors = np.einsum("ni,ij->nij", p, np.eye(c)) - np.einsum("ni,nj->nij", p, p)
        h = np.einsum("nij,na,nb->iajb", factors, features, features, optimize=True)
        h = h.reshape(d, d) / dataset.n
    else:
        m = shape.n_features
        h = np.zeros((d, d), dtype=np.float64)
        w = p * (1.0 - p)
        for j in range(shape.n_attrs):
            block = np.einsum("n,na,nb->ab", w[:, j], features, features) / dataset.n
            h[j * m : (j + 1) * m, j * m : (j + 1) * m] = block
    h += cfg.l2_coeff * np.eye(d)
    if not np.all(np.isfinite(h)):
        raise NumericError("Hessian has non-finite entries")
    return h


# ---------------------------------------------------------------------------
# Hessian / empirical-Fisher proportionality check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioCheck:
    """Outcome of the Hessian vs scaled-Fisher comparison.

    ``predicted_multiple`` is the scalar rho such that the data-term
    Hessian should match ``rho * gradient-outer-product`` on the dominant
    entries; deviations are relative to the predicted entries.
    """

    mean_rel_dev: float
    max_rel_dev: float
    predicted_multiple: float
    margin_mean: float
    margin_spread: float
    warning: str | None = None


_MARGIN_UNIFORMITY_TOL = 1e-6


def fisher_hessian_ratio_check(params: ModelParams, dataset: Dataset) -> RatioCheck:
    """Compare per-sample Hessian factors against the scaled gradient outer product.

    Requires a linear shape and a dataset whose samples share a common
    classification margin: for softmax models every wrong class gets
    probability eps and the true class 1 - (c-1) eps, for a single binary
    head |p - y| = eps. Under that margin the data-term Hessian equals a
    scalar multiple of the per-sample gradient outer product on the
    entries where the outer product carries its mass; the multiple is
    1 / (eps (c-1)) for softmax and (1 - eps) / eps for the binary head.

    The comparison is entrywise on the per-sample class factors (the
    feature outer product cancels) restricted to entries of magnitude at
    least max / c, which drops the rank-deficient residual the rank-one
    outer product cannot represent. Non-uniform margins produce a warning
    string, not an error.
    """
    shape = params.shape
    if isinstance(shape, MLP):
        raise InputError("ratio check requires a linear shape")
    _check_task_match(params, dataset)
    if dataset.n == 0:
        raise InputError("ratio check needs at least one sample")

    p = predict_proba(params, dataset.features)
    if isinstance(shape, MultiAttrLinear):
        if shape.n_attrs != 1:
            raise InputError("binary ratio check requires a single attribute head")
        y = dataset.labels[:, 0].astype(np.float64)
        q = np.abs(p[:, 0] - y)
        margin = float(q.mean())
        rho = (1.0 - margin) / margin
        hess_fac = p[:, 0] * (1.0 - p[:, 0])
        outer_fac = q * q
        devs = np.abs(hess_fac - rho * outer_fac) / np.abs(rho * outer_fac)
        mean_dev = float(devs.mean())
        max_dev = float(devs.max())
        spread = float(np.abs(q - margin).max() / margin)
    else:
        c = shape.n_classes
        y_idx = dataset.labels - 1
        rows = np.arange(dataset.n)
        eps_i = (1.0 - p[rows, y_idx]) / (c - 1)
        margin = float(eps_i.mean())
        rho = 1.0 / (margin * (c - 1))
        # Per row: the softmax Hessian factor diag(p) - p p^T against the
        # outer product r r^T of the residual r = p - onehot(y), compared
        # on the entries of at least the row's max |r r^T| / c.
        a = np.einsum("ni,ij->nij", p, np.eye(c)) - p[:, :, None] * p[:, None, :]
        r = p.copy()
        r[rows, y_idx] -= 1.0
        g = r[:, :, None] * r[:, None, :]
        keep = np.abs(g) >= np.abs(g).max(axis=(1, 2), keepdims=True) / c
        pred = rho * g[keep]
        devs = np.abs(a[keep] - pred) / np.abs(pred)
        mean_dev = float(devs.mean())
        max_dev = float(devs.max())
        spread = float(np.abs(eps_i - margin).max() / margin)

    warning = None
    if spread > _MARGIN_UNIFORMITY_TOL:
        warning = f"non-uniform margins: relative spread {spread:.3e}"
    return RatioCheck(
        mean_rel_dev=mean_dev,
        max_rel_dev=max_dev,
        predicted_multiple=rho,
        margin_mean=margin,
        margin_spread=spread,
        warning=warning,
    )

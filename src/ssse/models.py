"""Model families, datasets, and the loss/gradient/Hessian surface.

Three bias-free families are supported:

* ``MultiAttrLinear``: one independent sigmoid head per binary attribute.
* ``MultinomialLinear``: a single softmax layer over ``c`` classes.
* ``MLP``: one tanh hidden layer followed by a softmax output layer.

All three are one tanh network of depth 0 or 1: each shape's ``layers``
lists the (out, in) shape of every weight matrix in parameter order, and one
forward pass, one backward pass, their R-op (exact Hessian-vector products)
and the Fisher's block layout follow ``layers`` for every family; only the
head (a clipped sigmoid or a softmax) differs. Every pass runs on a network
bound once to a parameter vector (``_BoundNet``): training binds once per
call for all its steps, every other caller once per pass. Parameters are a
flat float64 vector, row-major per weight matrix (output row by output row,
layer by layer). Every per-sample loss includes the full L2 term, so the
mean training loss is ``mean_i nll_i + (l2_coeff / 2) * ||theta||^2`` and
each per-sample gradient carries ``l2_coeff * theta``.

The check of the paper's uniform-margin premise (with equal margins the
Hessian is a scalar multiple of the empirical Fisher) is not part of the
package: it lives in the test suite's ``tests/helpers.py``, beside the
generators of such data.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
import operator
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Union

import numpy as np

from .errors import InputError, NumericError

# Probabilities this close to 0 or 1 are clamped before logs are taken.
PROB_FLOOR = 1e-12

# Dense Hessians above this parameter count are refused.
DENSE_HESSIAN_CAP = 4096

# The rounding margin and floor of _BoundNet.grad_sum's norm_above early exit.
_NORM_MARGIN = 1.0 + 1e-6
_NORM_FLOOR = 1e-150


def _whole(value, name: str, least: int | None = None) -> int:
    """``value`` as an int: an integer, or a float with no fraction (40.0 counts as 40).

    Anything else (a bool, 2.5, NaN, an infinity, the string "3"), or a whole
    number below ``least``, raises InputError("<name> must be a whole
    number[ >= least], got <value>"). This is the one check of every count,
    index and seed the package takes.
    """
    whole = None
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        whole = int(value)
    elif not isinstance(value, bool):
        try:
            whole = operator.index(value)
        except TypeError:
            pass
    if whole is None or (least is not None and whole < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{name} must be a whole number{bound}, got {value}")
    return whole


def _real(value, name: str, *, gt=None, ge=None, lt=None, le=None) -> float:
    """``value`` as a float: a finite real number (an int, a float, a numpy scalar) in range.

    ``gt``/``ge`` and ``lt``/``le`` are an optional open or closed lower
    and upper bound. A bool, anything that is not a real number (the
    string "1", None), NaN, an infinity, or a number out of range raises
    InputError("<name> must be a finite number[ > gt][ and < lt], got
    <value>"). This is the one check of every rate, scale and tolerance
    the package takes.
    """
    # the magnitude test refuses NaN, the infinities and ints beyond the float range
    if ((type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool))
            and abs(value) <= sys.float_info.max):
        real = float(value)
        if ((gt is None or real > gt) and (ge is None or real >= ge)
                and (lt is None or real < lt) and (le is None or real <= le)):
            return real
    bounds = " and".join(f" {op} {bound}" for op, bound in
                         ((">", gt), (">=", ge), ("<", lt), ("<=", le)) if bound is not None)
    raise InputError(f"{name} must be a finite number{bounds}, got {value!r}")


# ---------------------------------------------------------------------------
# Shapes and parameters
# ---------------------------------------------------------------------------

class _Network:
    """Bias-free tanh network; ``layers`` is each weight's (out, in) in parameter order.

    Every field is a whole number, stored as an int: ``n_classes`` at
    least 2, every other field at least 1. A shape is checked once, when
    it is built.
    """

    def __post_init__(self) -> None:
        for f in fields(self):
            least = 2 if f.name == "n_classes" else 1
            whole = _whole(getattr(self, f.name), f"{type(self).__name__}.{f.name}", least)
            object.__setattr__(self, f.name, whole)

    @functools.cached_property
    def n_params(self) -> int:
        return sum(rows * cols for rows, cols in self.layers)

    @functools.cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Each weight's (start, stop) in the flat parameter vector, in parameter order."""
        spans, cut = [], 0
        for rows, cols in self.layers:
            spans.append((cut, cut + rows * cols))
            cut += rows * cols
        return tuple(spans)


@dataclass(frozen=True)
class MultiAttrLinear(_Network):
    """Independent binary heads: weight matrix (n_attrs, n_features)."""

    n_attrs: int
    n_features: int

    @functools.cached_property
    def layers(self) -> tuple[tuple[int, int], ...]:
        return ((self.n_attrs, self.n_features),)


@dataclass(frozen=True)
class MultinomialLinear(_Network):
    """Softmax layer: weight matrix (n_classes, n_features)."""

    n_classes: int
    n_features: int

    @functools.cached_property
    def layers(self) -> tuple[tuple[int, int], ...]:
        return ((self.n_classes, self.n_features),)


@dataclass(frozen=True)
class MLP(_Network):
    """One hidden tanh layer: (n_hidden, n_features) then (n_classes, n_hidden)."""

    n_features: int
    n_hidden: int
    n_classes: int

    @functools.cached_property
    def layers(self) -> tuple[tuple[int, int], ...]:
        return ((self.n_hidden, self.n_features), (self.n_classes, self.n_hidden))


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
            h.update(dim.to_bytes(8, "little"))
        h.update(self.values.tobytes())
        return h.digest()


@dataclass(frozen=True)
class LossConfig:
    """L2 penalty strength for the regularized mean loss: a finite number >= 0, a float."""

    l2_coeff: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "l2_coeff", _real(self.l2_coeff, "l2_coeff", ge=0))


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
        labels = labels.copy() if labels is self.labels else labels
        self._freeze(features, labels, ids, row_of)

    def _freeze(self, features: np.ndarray, labels: np.ndarray, ids: tuple[str, ...],
                row_of: dict[str, int]) -> None:
        """Set the validated fields, taking ownership of both arrays and freezing them."""
        features.setflags(write=False)
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
        """The rows ``idx`` of this dataset, which has already passed every check.

        The gathers are fresh C-contiguous arrays of the validated dtypes,
        so the result is built without validating or copying again.
        """
        # Python ints index the id tuple much faster than numpy integers.
        ids = tuple(self.ids[i] for i in idx.tolist())
        out = object.__new__(Dataset)
        out._freeze(self.features[idx], self.labels[idx], ids, dict(zip(ids, range(len(ids)))))
        return out


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
        raise InputError(f"dataset has {dataset.n_features} features, "
                         f"shape expects {shape.n_features}")
    _targets(shape, dataset.labels[:0])  # the labels' layout, checked on no rows
    if dataset.kind == "multinomial" and dataset.n and dataset.labels.max() > shape.n_classes:
        raise InputError("class label out of range for the model shape")


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _weights(shape: Shape, values: np.ndarray) -> list[np.ndarray]:
    """Views of the weight matrices of ``shape.layers`` into the flat vector."""
    return [values[start:stop].reshape(layer)
            for (start, stop), layer in zip(shape.spans, shape.layers)]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp
    # never overflows; the arithmetic runs in place on two temporaries. The
    # numerator max(e, z >= 0) is 1 where z >= 0 (e <= 1 there) and e below
    # (e < 1), NaN where z is NaN; e is never -0.0, so no zero changes sign.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.maximum(e, z >= 0)
    e += 1.0
    p /= e
    return p


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of the (n, c) logits as a class-major (F-ordered) array.

    The rows are shifted by their max so exp stays bounded, then clamped
    and renormalized so every entry is strictly inside (0, 1) and rows
    still sum to one. Every step after the shift works in place on one
    class-major array, so each per-sample max and sum is a pass over
    contiguous class columns rather than one short call per row, and each
    sum adds the classes in order (:func:`_class_sums`).
    """
    p = np.subtract(z, z.max(axis=1, keepdims=True), order="F")
    np.exp(p, out=p)
    p /= _class_sums(p)
    _clamp(p)
    p /= _class_sums(p)
    return p


def _clamp(p: np.ndarray) -> np.ndarray:
    """Clamp ``p`` into [PROB_FLOOR, 1 - PROB_FLOOR] in place, as ``np.clip`` would, NaN kept.

    Two ufunc calls skip the Python wrapper around ``np.clip``.
    """
    np.maximum(p, PROB_FLOOR, out=p)
    return np.minimum(p, 1.0 - PROB_FLOOR, out=p)


def _class_sums(p: np.ndarray) -> np.ndarray:
    """(n, 1) row sums of a class-major (n, c) array, each added in class order.

    numpy reduces two or more F-ordered rows one class column at a time,
    a sequential sum per row; a single row is one contiguous vector, which
    numpy would sum pairwise, so it is accumulated instead.
    """
    if p.shape[0] == 1:
        return np.add.accumulate(p, axis=1)[:, -1:]
    return p.sum(axis=1, keepdims=True)


def _checked_features(shape: Shape, features: np.ndarray) -> np.ndarray:
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != shape.n_features:
        raise InputError("feature matrix does not match the model shape")
    return features


class _BoundNet:
    """A network bound once to a flat parameter vector, for any number of passes.

    It holds the weight views into ``values`` and, given a gradient buffer
    ``grad``, that buffer's per-layer blocks, so a pass does no slicing,
    feature check, allocation of the gradient or per-layer reshape. The views
    follow in-place updates of ``values``: :func:`~ssse.training.train`
    binds once per call for all its steps and epoch-end passes, while
    :func:`_forward`, :func:`_grad_sums` and :func:`_hvp` bind once per
    call. Features reach a pass already checked.
    """

    def __init__(self, shape: Shape, values: np.ndarray, l2_coeff: float = 0.0,
                 grad: np.ndarray | None = None) -> None:
        self.weights = _weights(shape, values)
        *self.hidden, self.head = self.weights
        self.sigmoid = isinstance(shape, MultiAttrLinear)
        self.l2_coeff = l2_coeff
        self.grad = grad
        if grad is not None:
            self.blocks = _weights(shape, grad)

    def forward(self, features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """The input of every layer, then the head's probabilities; see :func:`_forward`."""
        inputs = [features]
        for w in self.hidden:
            a = inputs[-1] @ w.T
            inputs.append(np.tanh(a, out=a))
        if self.sigmoid:
            return inputs, _clamp(_sigmoid(inputs[-1] @ self.head.T))
        return inputs, _softmax((self.head @ inputs[-1].T).T)

    def backward(self, forward, targets: np.ndarray):
        """Yield ``(layer, delta, layer_input)`` for each layer, last layer first.

        ``delta`` is the data loss's gradient with respect to the layer's
        pre-activation, so sample i's data gradient in the layer's span of
        the flat layout is ``outer(delta[i], layer_input[i])``. ``forward``
        is :meth:`forward` of the rows ``targets`` belong to.

        A hidden layer's input is valid only until the next item is drawn:
        its tanh activation x is then overwritten with 1 - x^2 to form the
        layer below's delta without a fresh array. So ``forward`` is
        consumed; its hidden activations must not be read afterwards. Its
        probabilities are left intact.
        """
        inputs, p = forward
        delta = p - targets
        for layer in reversed(range(len(self.weights))):
            yield layer, delta, inputs[layer]
            if layer:
                x = inputs[layer]
                delta = delta @ self.weights[layer]
                np.multiply(x, x, out=x)
                np.subtract(1.0, x, out=x)
                delta *= x

    def block(self, layer: int, delta: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One layer's regularized gradient sum over the rows of ``x``, written to ``out``.

        It is one product delta^T x, then those rows' share
        ``rows * l2_coeff * weights`` of the L2 term.
        """
        np.matmul(delta.T, x, out=out)
        if self.l2_coeff:
            out += (len(x) * self.l2_coeff) * self.weights[layer]
        return out

    def grad_sum(self, forward, targets: np.ndarray,
                 norm_above: float | None = None) -> np.ndarray | None:
        """The regularized gradient sum over the rows of ``forward``, written to ``grad``.

        Each layer's block is :meth:`block` of that layer. It returns
        ``grad``, or None when ``norm_above`` ended the pass early; the
        blocks it skipped keep whatever they held.

        ``norm_above``, given on n > 0 rows, ends the pass as soon as one
        layer block shows that the mean gradient's norm,
        ``np.linalg.norm(grad / n)``, exceeds it: after every block but the
        last one computed (layers run last first), the block's own norm,
        divided by n, is compared with ``max(norm_above, 1e-150) * (1 + 1e-6)``,
        and above it the remaining layers are skipped. The block's entries,
        its share of the L2 term included, are the same floats as in the
        full vector, and both norms are the square root of a dot product
        over them, each with relative error below about n_params * 2^-53
        (4e-13 at 3840 entries). So for fewer than about 1e9 parameters the
        1e-6 margin covers the rounding of both, and the full norm would
        exceed ``norm_above``. The floor keeps the squares clear of
        subnormals, where that relative bound does not hold.
        """
        n = len(targets)
        if norm_above is not None:
            bound = max(norm_above, _NORM_FLOOR) * _NORM_MARGIN
        for layer, delta, x in self.backward(forward, targets):
            block = self.block(layer, delta, x, self.blocks[layer])
            if norm_above is not None and layer:
                mean = block.reshape(-1) / n
                if math.sqrt(mean @ mean) > bound:
                    return None
        return self.grad


def _forward(
    shape: Shape, values: np.ndarray, features: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The input of every layer, then the head's probabilities.

    Hidden layers are tanh; the head is a clipped sigmoid per attribute for
    the multi-attribute family and a softmax otherwise. Each hidden layer's
    tanh and the head's clip run in place on the array they act on, so a
    pass allocates one array per layer and a few for the head. The hidden
    activations it returns belong to the caller; a backward pass reuses
    them as scratch.

    Hidden layers and the sigmoid head are sample-major (C-ordered). The
    softmax head is class-major: its logits are the transpose of
    ``head @ inputs[-1].T``, the same dot products as ``inputs[-1] @ head.T``
    stored F-ordered, so the softmax's per-sample reductions run along
    contiguous memory and the probabilities come back F-ordered.
    """
    return _BoundNet(shape, values).forward(_checked_features(shape, features))


def predict_proba(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Per-sample probabilities.

    Returns (n, n_attrs) independent sigmoid probabilities for the
    multi-attribute family and (n, n_classes) softmax rows otherwise,
    the latter stored class-major (F-ordered).
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
        # one log of the label's probability: equal bit for bit to
        # y log(p) + (1 - y) log(1 - p), whose other term is a signed zero
        # because both logs of a clamped p are finite
        nll = -np.log(np.where(dataset.labels == 1, p, 1.0 - p)).sum(axis=1)
    else:
        rows = np.arange(dataset.n)
        nll = -np.log(p[rows, dataset.labels - 1])
    value = float(nll.mean() + 0.5 * cfg.l2_coeff * float(values @ values))
    if not np.isfinite(value):
        raise NumericError("loss is not finite")
    return value


def _targets(shape: Shape, labels: np.ndarray) -> np.ndarray:
    """The head's float targets, 0/1 attributes or one-hot classes, from labels of its layout."""
    labels = np.asarray(labels)
    heads = shape.n_attrs if isinstance(shape, MultiAttrLinear) else 0
    found = labels.shape[1] if labels.ndim == 2 else 0
    if labels.ndim != 1 + (heads > 0) or found != heads:
        raise InputError(f"labels have {found} attribute columns, the model expects {heads}")
    return labels.astype(np.float64) if heads else onehot(labels, shape.n_classes)


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
    (one zero row for zero rows), :meth:`_BoundNet.grad_sum` into
    ``out[0]``. A group of one row is a per-sample gradient, one einsum
    per layer; larger groups take one stacked product delta^T x per layer,
    then the L2 term, and a short last group :meth:`_BoundNet.block`, the
    one-group sum. ``out`` is a C-contiguous float64
    (groups, n_params) array to write. ``forward`` is :func:`_forward` of
    the same arguments when the caller already has it; it is consumed, as
    in :meth:`_BoundNet.backward`.
    """
    n = features.shape[0]
    groups = 1 if size is None else -(-n // size)
    if out is None:
        out = np.empty((groups, shape.n_params), dtype=np.float64)
    net = _BoundNet(shape, values, l2_coeff, out[0] if size is None else None)
    if forward is None:
        forward = net.forward(_checked_features(shape, features))
    if size is None:
        net.grad_sum(forward, targets)
        return out
    full = n // size
    cut = full * size
    for layer, delta, x in net.backward(forward, targets):
        start, stop = shape.spans[layer]
        r, c = delta.shape[1], x.shape[1]
        sums = out[:, start:stop].reshape(groups, r, c)
        if size == 1:
            np.einsum("nr,nc->nrc", delta, x, out=sums)
        elif full:
            np.matmul(delta[:cut].reshape(full, size, r).transpose(0, 2, 1),
                      x[:cut].reshape(full, size, c), out=sums[:full])
        # on the 2-D view: numpy copies the whole stack for an in-place
        # add of a broadcast (r, c) term to the strided 3-D one
        if l2_coeff and full:
            out[:full, start:stop] += (size * l2_coeff) * values[start:stop]
        if groups > full:
            net.block(layer, delta[cut:], x[cut:], sums[full])
    return out


def grad_matrix(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
) -> np.ndarray:
    """Per-sample gradients of the regularized per-sample loss, one row each.

    Row i is the gradient of ``nll_i + (l2_coeff / 2) * ||theta||^2``, so
    the mean over rows equals the full-batch gradient of :func:`loss`.
    Every gradient in the package is a group sum of :func:`_grad_sums`
    or, for one group, :meth:`_BoundNet.grad_sum`, on the same backward
    pass; these rows are its groups of one row.
    """
    shape = params.shape
    features = _checked_features(shape, features)
    return _grad_sums(shape, params.values, features, _targets(shape, labels), cfg.l2_coeff, 1)


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
# Hessian-vector products and the dense Hessian
# ---------------------------------------------------------------------------

def _hvp(shape: Shape, values, features, targets, vectors: np.ndarray) -> np.ndarray:
    """Pearlmutter's exact R-op: the summed data loss's Hessian times each row of ``vectors``.

    The r directions are the leading axis of every product: R(.) of (n, w) is (r, n, w).
    """
    net = _BoundNet(shape, values)
    r, weights = len(vectors), net.weights
    dirs = [vectors[:, start:stop].reshape(r, *w.shape)
            for (start, stop), w in zip(shape.spans, weights)]
    inputs, p = forward = net.forward(_checked_features(shape, features))
    r_xs, r_a = [None], inputs[0] @ dirs[0].swapaxes(1, 2)  # the features do not move
    for x, w, u in zip(inputs[1:], weights[1:], dirs[1:]):
        r_xs.append(r_a * (1.0 - x * x))  # R(tanh(a)) = (1 - tanh(a)^2) R(a)
        r_a = x @ u.swapaxes(1, 2) + r_xs[-1] @ w.T
    r_delta = r_a  # R(p - targets) = R(p), formed in place
    if isinstance(shape, MultiAttrLinear):
        r_delta *= p * (1.0 - p)
    else:
        r_delta -= np.einsum("nc,rnc->rn", p, r_delta)[..., None]
        r_delta *= p
    out = np.empty((r, shape.n_params), dtype=np.float64)
    backward = net.backward(forward, targets)
    for (layer, delta, x), w, u, r_x in zip(backward, weights[::-1], dirs[::-1], r_xs[::-1]):
        block = r_delta.swapaxes(1, 2) @ x
        if r_x is not None:  # x is the tanh activation until the next item; R(x^2) = 2 x R(x)
            block += delta.T @ r_x
            r_delta = (r_delta @ w + delta @ u) * (1.0 - x * x) - r_x * (2.0 * x * (delta @ w))
        start, stop = shape.spans[layer]
        out[:, start:stop] = block.reshape(r, -1)
    return out


def hessian_dense(params: ModelParams, dataset: Dataset, cfg: LossConfig) -> np.ndarray:
    """Dense Hessian of the mean regularized loss, exact for every family.

    Its rows are :func:`_hvp` of the identity's rows over n, plus the l2
    ridge. Refused for parameter counts above ``DENSE_HESSIAN_CAP``.
    """
    shape = params.shape
    _check_task_match(params, dataset)
    if dataset.n == 0:
        raise InputError("Hessian is undefined on an empty dataset")
    d = shape.n_params
    if d > DENSE_HESSIAN_CAP:
        raise InputError(f"dense Hessian refused for d={d} > {DENSE_HESSIAN_CAP}")
    targets = _targets(shape, dataset.labels)
    # chunks of the identity's rows whose (r, n, widest layer) stacks hold at most 16 MiB
    chunk = max(1, (1 << 24) // (8 * dataset.n * max(map(max, shape.layers))))
    h = np.empty((d, d), dtype=np.float64)
    for lo in range(0, d, chunk):
        eye = np.eye(min(chunk, d - lo), d, lo)
        hv = _hvp(shape, params.values, dataset.features, targets, eye)
        h[lo:lo + len(eye)] = hv / dataset.n + cfg.l2_coeff * eye
    if not np.all(np.isfinite(h)):
        raise NumericError("Hessian has non-finite entries")
    return h

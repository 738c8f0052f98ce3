"""Dataset generators, CSV ingestion, and removal-split construction.

Synthetic generators are pure functions of their seed, a whole number
>= 0 as ``numpy.random.default_rng`` takes it. Sample ids are
zero-padded strings so lexicographic id order equals generation order;
an optional prefix keeps id spaces disjoint when an experiment carries
separate train and test datasets.

The uniform-margin generators (every sample at one classification
margin, for checking the Hessian against the empirical Fisher) are test
data only and live in ``tests/helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .models import Dataset, _whole


def make_ids(n: int, prefix: str = "") -> tuple[str, ...]:
    return tuple(f"{prefix}{i:06d}" for i in range(_whole(n, "n", 0)))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def make_blobs(
    seed: int,
    n_per_class: int,
    centers: Sequence[Sequence[float]],
    spread: float,
    id_prefix: str = "",
) -> Dataset:
    """Two-dimensional Gaussian clusters, one class per center, labels 1..c."""
    centers_arr = np.asarray(centers, dtype=np.float64)
    if centers_arr.ndim != 2 or centers_arr.shape[1] != 2:
        raise InputError("centers must be a sequence of 2-d points")
    n_per_class = _whole(n_per_class, "n_per_class", 1)
    if spread <= 0:
        raise InputError("need spread > 0")
    c = centers_arr.shape[0]
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    features = np.vstack(
        [centers_arr[k] + spread * rng.standard_normal((n_per_class, 2)) for k in range(c)]
    )
    labels = np.repeat(np.arange(1, c + 1), n_per_class)
    return Dataset(features=features, labels=labels, ids=make_ids(c * n_per_class, id_prefix))


def make_gaussian_classes(
    seed: int,
    n_per_class: int,
    n_features: int,
    n_classes: int,
    center_scale: float = 3.0,
    spread: float = 1.0,
    id_prefix: str = "",
    center_seed: int | None = None,
) -> Dataset:
    """Gaussian class clusters in n_features dimensions with random centers.

    ``center_seed`` fixes the class centers independently of the sample
    noise. Two datasets drawn with different ``seed`` values but the same
    ``center_seed`` come from the same mixture; leaving it None keeps the
    single-stream draw where ``seed`` controls both. The center stream is
    keyed so it never replays the noise stream even when the seeds match.
    """
    n_per_class = _whole(n_per_class, "n_per_class", 1)
    n_features = _whole(n_features, "n_features", 1)
    n_classes = _whole(n_classes, "n_classes", 2)
    if spread <= 0:
        raise InputError("need spread > 0")
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    center_rng = (rng if center_seed is None
                  else np.random.default_rng([_whole(center_seed, "center_seed", 0), 1]))
    centers = center_scale * center_rng.standard_normal((n_classes, n_features))
    features = np.vstack(
        [centers[k] + spread * rng.standard_normal((n_per_class, n_features)) for k in range(n_classes)]
    )
    labels = np.repeat(np.arange(1, n_classes + 1), n_per_class)
    return Dataset(
        features=features, labels=labels, ids=make_ids(n_classes * n_per_class, id_prefix)
    )


def make_attributes(
    seed: int,
    n: int,
    n_features: int,
    n_attrs: int,
    frequencies: Sequence[float],
    overlap: float = 0.3,
    id_prefix: str = "",
    direction_seed: int | None = None,
) -> Dataset:
    """Correlated binary attributes from thresholded linear scores.

    Each attribute j gets a direction that mixes a shared component
    (weight ``overlap``) with an independent one, and its threshold is the
    empirical quantile that makes a fraction ``frequencies[j]`` of the
    samples positive. The shared component correlates attributes, so
    removing the positives of one attribute visibly shifts the others.

    ``direction_seed`` fixes the attribute directions independently of the
    feature noise, so datasets drawn with different ``seed`` values but the
    same ``direction_seed`` label points by the same rules (thresholds are
    still each sample's own quantiles). The direction stream is keyed so it
    never replays the feature stream even when the seeds match.
    """
    n = _whole(n, "n", 2)
    n_features = _whole(n_features, "n_features", 1)
    n_attrs = _whole(n_attrs, "n_attrs", 1)
    freqs = np.asarray(frequencies, dtype=np.float64)
    if freqs.shape != (n_attrs,) or np.any(freqs <= 0) or np.any(freqs >= 1):
        raise InputError("frequencies must hold n_attrs values strictly inside (0, 1)")
    if not 0 <= overlap < 1:
        raise InputError("overlap must lie in [0, 1)")
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    features = rng.standard_normal((n, n_features))
    dir_rng = (rng if direction_seed is None
               else np.random.default_rng([_whole(direction_seed, "direction_seed", 0), 1]))
    shared = dir_rng.standard_normal(n_features)
    shared /= np.linalg.norm(shared)
    labels = np.zeros((n, n_attrs), dtype=np.uint8)
    for j in range(n_attrs):
        own = dir_rng.standard_normal(n_features)
        own /= np.linalg.norm(own)
        direction = overlap * shared + (1.0 - overlap) * own
        direction /= np.linalg.norm(direction)
        scores = features @ direction
        labels[:, j] = scores > _quantile(scores, 1.0 - freqs[j])
    return Dataset(features=features, labels=labels, ids=make_ids(n, id_prefix))


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit, from one partition.

    numpy's default ``linear`` method: the virtual index ``(n - 1) * q``,
    the order statistics at its floor and the next position, and numpy's
    two-branch lerp. It stands in for ``np.quantile``, whose ``np.unique``
    call imports ``numpy.ma``.
    """
    pos = (values.size - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, values.size - 1)
    a, b = np.partition(values, (lo, hi))[[lo, hi]]
    t = pos - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _read_rows(path: str) -> tuple[list[list[str]], int]:
    """Rows plus the 1-based line number of the first data row."""
    import csv

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read CSV {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    start = 1
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        rows = rows[1:]
        start = 2
        if not rows:
            raise InputError(f"{path}: header but no data rows")
    return rows, start


def _parse_float_table(path: str) -> np.ndarray:
    rows, start = _read_rows(path)
    width = len(rows[0])
    out = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"{path}: row {start + i} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: row {start + i} column {j + 1}: not a number: {cell!r}"
                ) from None
    return out


def load_csv(features_path: str, labels_path: str, kind: str, id_prefix: str = "") -> Dataset:
    """Load a dataset from a features CSV and a labels CSV.

    ``kind`` is ``"binary"`` (one 0/1 column per attribute) or
    ``"multinomial"`` (a single integer class column with values 1..c).
    An optional header line is skipped in both files. Row ids are the
    zero-padded data-row positions.
    """
    if kind not in ("binary", "multinomial"):
        raise InputError(f"unknown dataset kind: {kind!r}")
    features = _parse_float_table(features_path)
    raw_labels = _parse_float_table(labels_path)
    if raw_labels.shape[0] != features.shape[0]:
        raise InputError(
            f"{labels_path}: {raw_labels.shape[0]} label rows for "
            f"{features.shape[0]} feature rows"
        )
    if kind == "binary":
        labels: np.ndarray = raw_labels
    else:
        if raw_labels.shape[1] != 1:
            raise InputError(f"{labels_path}: multinomial labels must be a single column")
        labels = raw_labels[:, 0]
    return Dataset(features=features, labels=labels, ids=make_ids(features.shape[0], id_prefix))


def save_csv(dataset: Dataset, features_path: str, labels_path: str) -> None:
    """Write a dataset back out; floats use shortest round-trip formatting."""
    import csv

    with open(features_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in dataset.features:
            writer.writerow([repr(float(v)) for v in row])
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if dataset.kind == "binary":
            for row in dataset.labels:
                writer.writerow([str(int(v)) for v in row])
        else:
            for v in dataset.labels:
                writer.writerow([str(int(v))])


# ---------------------------------------------------------------------------
# Removal splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemovalSpec:
    """What to erase: a class or an attribute, a fraction, and a sampling seed.

    ``index`` is 1-based for both kinds: class labels are 1..c and
    attribute heads are numbered 1..n_attrs. ``index`` (>= 1) and ``seed``
    (>= 0) are whole numbers, stored as ints.
    """

    kind: str
    index: int
    fraction: float
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in ("class", "attribute"):
            raise InputError(f"removal kind must be 'class' or 'attribute', got {self.kind!r}")
        object.__setattr__(self, "index", _whole(self.index, "removal index", 1))
        if not 0 < self.fraction <= 1:
            raise InputError("removal fraction must lie in (0, 1]")
        object.__setattr__(self, "seed", _whole(self.seed, "removal seed", 0))


@dataclass(frozen=True)
class SplitSet:
    """Id sets for the four evaluation splits.

    ``removed`` are the erased training samples, ``lko_train`` the
    retained ones; ``removed_test`` holds every test sample matching the
    removal target and ``lko_test`` the rest. The four sets are pairwise
    disjoint, which requires train and test id spaces not to collide.
    """

    removed: tuple[str, ...]
    lko_train: tuple[str, ...]
    removed_test: tuple[str, ...]
    lko_test: tuple[str, ...]

    def __post_init__(self) -> None:
        groups = [self.removed, self.lko_train, self.removed_test, self.lko_test]
        total = sum(len(g) for g in groups)
        if len(set().union(*groups)) != total:
            raise InputError("split id sets must be pairwise disjoint")
        if not self.removed:
            raise InputError("removed set must be nonempty")


def _matching_rows(dataset: Dataset, spec: RemovalSpec) -> np.ndarray:
    if spec.kind == "class":
        if dataset.kind != "multinomial":
            raise InputError("class removal requires a multinomial dataset")
        return np.flatnonzero(dataset.labels == spec.index)
    if dataset.kind != "binary":
        raise InputError("attribute removal requires a binary attribute dataset")
    if spec.index > dataset.n_attrs:
        raise InputError(f"attribute index {spec.index} exceeds n_attrs {dataset.n_attrs}")
    return np.flatnonzero(dataset.labels[:, spec.index - 1] == 1)


def draw_removed(train: Dataset, spec: RemovalSpec) -> tuple[str, ...]:
    """The removed training ids, in dataset order.

    A uniform sample without replacement of ``ceil(fraction * n_matching)``
    target-matching training samples, drawn with
    ``numpy.random.default_rng(spec.seed)``.
    """
    matching = _matching_rows(train, spec)
    if matching.size == 0:
        raise InputError("no training samples match the removal target")
    k = math.ceil(spec.fraction * matching.size)
    rng = np.random.default_rng(spec.seed)
    chosen = np.sort(matching[rng.permutation(matching.size)[:k]])
    return tuple(train.ids[i] for i in chosen)


def build_splits(train: Dataset, test: Dataset, spec: RemovalSpec) -> SplitSet:
    """The removed set of :func:`draw_removed` and the four disjoint splits around it.

    All matching test samples form ``removed_test``.
    """
    removed = draw_removed(train, spec)
    chosen_set = set(removed)

    test_matching = _matching_rows(test, spec)
    removed_test = {test.ids[i] for i in test_matching}

    return SplitSet(
        removed=removed,
        lko_train=tuple(s for s in train.ids if s not in chosen_set),
        removed_test=tuple(s for s in test.ids if s in removed_test),
        lko_test=tuple(s for s in test.ids if s not in removed_test),
    )

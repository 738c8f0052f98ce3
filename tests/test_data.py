"""Synthetic generators, CSV IO, and removal splits."""

import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    binary_dataset,
    make_parallel_planes_binary,
    make_separable_subspace,
    multinomial_dataset,
    random_params,
    run_fresh,
    select_oracle,
)
from ssse import (
    MLP,
    Dataset,
    GridSpec,
    InputError,
    LossConfig,
    MultiAttrLinear,
    MultinomialLinear,
    build_inverse_fisher,
    build_splits,
    init_params,
    load_csv,
    make_attributes,
    make_blobs,
    make_gaussian_classes,
    make_ids,
    predict_proba,
    save_csv,
)
from ssse import data
from ssse.data import RemovalSpec, SplitSet, draw_removed


# ---------------------------------------------------------------------------
# Ids
# ---------------------------------------------------------------------------

def test_make_ids_zero_padded_and_lexicographic():
    ids = make_ids(12, "tr")
    assert make_ids(12.0, "tr") == ids and make_ids(0) == ()
    assert ids[0] == "tr000000"
    assert ids[11] == "tr000011"
    assert list(ids) == sorted(ids)
    assert len(set(ids)) == 12


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_make_blobs_shapes_and_determinism():
    centers = [(-2.0, 1.0), (2.0, -1.0), (0.0, 3.0)]
    a = make_blobs(5, 10, centers, 0.7, id_prefix="x")
    b = make_blobs(5, 10, centers, 0.7, id_prefix="x")
    c = make_blobs(6, 10, centers, 0.7, id_prefix="x")
    assert a.n == 30 and a.n_features == 2 and a.kind == "multinomial"
    assert np.bincount(a.labels)[1:].tolist() == [10, 10, 10]
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_make_gaussian_classes_covers_all_classes():
    ds = make_gaussian_classes(3, 4, n_features=6, n_classes=5)
    assert ds.n == 20 and ds.n_features == 6
    assert sorted(set(ds.labels.tolist())) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("generator", ["blobs", "gaussian_classes"])
@pytest.mark.parametrize("spread", [0.0, -1.0])
def test_class_generators_refuse_a_spread_that_is_not_positive(generator, spread):
    with pytest.raises(InputError, match="spread > 0"):
        if generator == "blobs":
            make_blobs(1, 5, [(-2.0, 0.0), (2.0, 0.0)], spread)
        else:
            make_gaussian_classes(1, 5, n_features=3, n_classes=2, spread=spread)


def test_make_attributes_respects_frequencies():
    freqs = [0.5, 0.1]
    ds = make_attributes(7, 2000, n_features=6, n_attrs=2, frequencies=freqs)
    assert ds.kind == "binary" and ds.labels.shape == (2000, 2)
    rates = ds.labels.mean(axis=0)
    np.testing.assert_allclose(rates, freqs, atol=0.02)


def _quantile_cases():
    """(values, q) pairs: integer virtual indices, tied scores, and a seeded grid."""
    rng = np.random.default_rng(2024)
    yield np.array([0.3, -1.2, 2.5]), 0.5  # n = 3, q = 0.5: virtual index 1
    yield np.array([4.0, -1.0, 0.5, 2.0, 3.5]), 0.25  # n = 5, q = 0.25: virtual index 1
    yield np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0]), 0.6  # ties on both sides
    for n in (2, 3, 5, 7, 10, 33, 101, 1500):
        for tied in (False, True):
            values = (rng.integers(1, 6, n).astype(np.float64) if tied
                      else rng.standard_normal(n))
            # 1 - 1e-17 rounds to 1.0: the virtual index is the last position
            for q in (*rng.uniform(0.0, 1.0, 6), 0.25, 0.5, 0.6, 0.85, 1.0 - 1e-17):
                yield values, np.float64(q)


def test_partition_threshold_equals_np_quantile_bit_for_bit():
    cases = 0
    for values, q in _quantile_cases():
        before = values.copy()
        got = np.float64(data._quantile(values, q))
        assert got.tobytes() == np.float64(np.quantile(values, q)).tobytes(), (values.size, q)
        assert np.array_equal(values, before)
        cases += 1
    assert cases == 3 + 8 * 2 * 11


@pytest.mark.parametrize("n", [40, 1500])
def test_make_attributes_labels_equal_those_from_np_quantile(monkeypatch, n):
    common = dict(n=n, n_features=20, n_attrs=8, frequencies=(0.15,) + (0.4,) * 7,
                  overlap=0.4, direction_seed=41)
    got = [make_attributes(seed, **common) for seed in range(10)]
    monkeypatch.setattr(data, "_quantile", np.quantile)
    for seed, ds in enumerate(got):
        want = make_attributes(seed, **common)
        assert np.array_equal(ds.labels, want.labels) and ds.labels.dtype == want.labels.dtype
        assert np.array_equal(ds.features, want.features)


def test_make_attributes_does_not_import_numpy_ma():
    code = (
        "import sys, numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from ssse import make_attributes\n"
        "make_attributes(0, 50, n_features=4, n_attrs=2, frequencies=[0.2, 0.5])\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    before, after = run_fresh(code).split()
    if before == "True":
        pytest.skip("import numpy alone loads numpy.ma on this numpy release; nothing to check")
    assert after == "False"


def test_make_separable_subspace_hits_the_margin_exactly():
    c, eps = 4, 1e-3
    ds, params = make_separable_subspace(c=c, m=c + 3, eps_margin=eps, n_per_class=3, seed=1)
    assert sorted(set(ds.labels.tolist())) == list(range(1, c + 1))
    p = predict_proba(params, ds.features)
    rows = np.arange(ds.n)
    np.testing.assert_allclose(p[rows, ds.labels - 1], 1 - (c - 1) * eps, atol=1e-9)
    wrong = p.copy()
    wrong[rows, ds.labels - 1] = eps
    np.testing.assert_allclose(wrong, eps, atol=1e-9)


def test_make_parallel_planes_binary_margin():
    eps = 5e-4
    ds, params = make_parallel_planes_binary(m=5, eps_margin=eps, n_per_class=4, seed=2)
    assert ds.kind == "binary" and ds.n_attrs == 1
    p = predict_proba(params, ds.features)[:, 0]
    y = ds.labels[:, 0].astype(float)
    np.testing.assert_allclose(np.abs(p - y), eps, atol=1e-10)


@pytest.mark.parametrize("seed", [-1, 2.5, float("inf")])
@pytest.mark.parametrize("draw, name", [
    (lambda s: make_blobs(s, 3, [(0.0, 0.0), (1.0, 1.0)], 1.0), "seed"),
    (lambda s: make_gaussian_classes(s, 3, 2, 2), "seed"),
    (lambda s: make_gaussian_classes(1, 3, 2, 2, center_seed=s), "center_seed"),
    (lambda s: make_attributes(s, 10, 3, 1, [0.5]), "seed"),
    (lambda s: make_attributes(1, 10, 3, 1, [0.5], direction_seed=s), "direction_seed"),
    (lambda s: RemovalSpec(kind="class", index=1, fraction=0.5, seed=s), "removal seed"),
], ids=["blobs", "gaussian", "center", "attributes", "direction", "removal"])
def test_seeds_are_whole_numbers_from_zero(draw, name, seed):
    with pytest.raises(InputError, match=f"^{name} must be a whole number >= 0, got {seed}$"):
        draw(seed)


def test_a_whole_number_float_seed_draws_as_its_int():
    a = make_gaussian_classes(4.0, 3, 2, 2, center_seed=np.float64(5))
    b = make_gaussian_classes(4, 3, 2, 2, center_seed=5)
    assert a.features.tobytes() == b.features.tobytes()
    spec = RemovalSpec(kind="class", index=1, fraction=0.5, seed=9.0)
    assert type(spec.seed) is int and spec == RemovalSpec(kind="class", index=1, fraction=0.5,
                                                          seed=9)


def _tiny_fisher(batch_size=1):
    params = random_params(MultinomialLinear(n_classes=2, n_features=2), 1)
    return build_inverse_fisher(params, multinomial_dataset(2, 5, 2, 2), LossConfig(), 0.1,
                                batch_size=batch_size)


_GRID = (-1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("bad", ["least", 2.5, float("nan"), float("inf"), "3"])
@pytest.mark.parametrize("build, name, least", [
    (make_ids, "n", 0),
    (lambda v: make_blobs(1, v, [(0.0, 0.0), (1.0, 1.0)], 1.0), "n_per_class", 1),
    (lambda v: make_gaussian_classes(1, v, 2, 2), "n_per_class", 1),
    (lambda v: make_gaussian_classes(1, 3, v, 2), "n_features", 1),
    (lambda v: make_gaussian_classes(1, 3, 2, v), "n_classes", 2),
    (lambda v: make_attributes(1, v, 3, 1, [0.5]), "n", 2),
    (lambda v: make_attributes(1, 10, v, 1, [0.5]), "n_features", 1),
    (lambda v: make_attributes(1, 10, 3, v, [0.5]), "n_attrs", 1),
    (lambda v: RemovalSpec(kind="class", index=v, fraction=0.5, seed=0), "removal index", 1),
    (lambda v: GridSpec(*_GRID, nx=v, ny=3), "nx", 2),
    (lambda v: GridSpec(*_GRID, nx=3, ny=v), "ny", 2),
    (lambda v: _tiny_fisher(batch_size=v), "batch_size", 1),
    (lambda v: replace(_tiny_fisher(), n_samples=v), "n_samples", 1),
    (lambda v: replace(_tiny_fisher(), batch_size=v), "batch_size", 1),
    (lambda v: MultiAttrLinear(n_attrs=v, n_features=2), "MultiAttrLinear.n_attrs", 1),
    (lambda v: MultiAttrLinear(n_attrs=2, n_features=v), "MultiAttrLinear.n_features", 1),
    (lambda v: MultinomialLinear(n_classes=v, n_features=2), "MultinomialLinear.n_classes", 2),
    (lambda v: MultinomialLinear(n_classes=2, n_features=v), "MultinomialLinear.n_features", 1),
    (lambda v: MLP(n_features=v, n_hidden=2, n_classes=2), "MLP.n_features", 1),
    (lambda v: MLP(n_features=2, n_hidden=v, n_classes=2), "MLP.n_hidden", 1),
    (lambda v: MLP(n_features=2, n_hidden=2, n_classes=v), "MLP.n_classes", 2),
], ids=["ids-n", "blobs-n_per_class", "gaussian-n_per_class", "gaussian-n_features",
        "gaussian-n_classes", "attributes-n", "attributes-n_features", "attributes-n_attrs",
        "removal-index", "grid-nx", "grid-ny", "build-fisher-batch_size",
        "fisher-n_samples", "fisher-batch_size", "multi_attr-n_attrs",
        "multi_attr-n_features", "multinomial-n_classes", "multinomial-n_features",
        "mlp-n_features", "mlp-n_hidden", "mlp-n_classes"])
def test_counts_are_whole_numbers_from_their_least(build, name, least, bad):
    value = least - 1 if bad == "least" else bad
    refusal = f"{name} must be a whole number >= {least}, got {value}"
    with pytest.raises(InputError, match=f"^{re.escape(refusal)}$"):
        build(value)


def _same_dataset(a, b):
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes() and a.ids == b.ids


def test_whole_float_counts_draw_what_their_ints_draw():
    centers = [(0.0, 0.0), (1.0, 1.0)]
    _same_dataset(make_blobs(1, 2.0, centers, 1.0), make_blobs(1, 2, centers, 1.0))
    _same_dataset(make_gaussian_classes(1, 3.0, np.float64(2), 2.0),
                  make_gaussian_classes(1, 3, 2, 2))
    _same_dataset(make_attributes(1, 20.0, np.float64(3), 2.0, [0.3, 0.5]),
                  make_attributes(1, 20, 3, 2, [0.3, 0.5]))


@pytest.mark.parametrize("kind, index", [("class", 2.0), ("attribute", np.float64(2))])
def test_a_whole_float_removal_index_draws_as_its_int(kind, index):
    train = (multinomial_dataset(3, 30, 2, 3) if kind == "class"
             else binary_dataset(3, 30, 2, 2))
    spec = RemovalSpec(kind=kind, index=index, fraction=0.5, seed=4)
    assert type(spec.index) is int and spec == RemovalSpec(kind=kind, index=2, fraction=0.5, seed=4)
    assert draw_removed(train, spec) == draw_removed(train, replace(spec, index=2))


def test_whole_float_grid_and_fisher_counts_are_stored_as_ints():
    grid = GridSpec(*_GRID, nx=3.0, ny=np.float64(4))
    assert (type(grid.nx), type(grid.ny)) == (int, int)
    assert grid.points().tobytes() == GridSpec(*_GRID, nx=3, ny=4).points().tobytes()
    a, b = _tiny_fisher(batch_size=2.0), _tiny_fisher(batch_size=2)
    assert type(a.batch_size) is int and a.rank_one_count == b.rank_one_count == 3
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks, b.blocks))
    c = replace(b, n_samples=np.float64(5), batch_size=2.0)
    assert (type(c.n_samples), type(c.batch_size)) == (int, int)


@pytest.mark.parametrize("floats, ints", [
    (MultiAttrLinear(n_attrs=2.0, n_features=np.float64(3)), MultiAttrLinear(2, 3)),
    (MultinomialLinear(n_classes=np.float64(3), n_features=2.0), MultinomialLinear(3, 2)),
    (MLP(n_features=3.0, n_hidden=np.float64(4), n_classes=2.0), MLP(3, 4, 2)),
], ids=["multi_attr", "multinomial", "mlp"])
def test_a_shape_stores_whole_float_fields_as_ints(floats, ints):
    assert floats == ints and hash(floats) == hash(ints)
    assert all(type(getattr(floats, f.name)) is int for f in fields(floats))
    assert type(floats.n_params) is int
    assert init_params(floats, 7) == init_params(ints, 7)


def test_generator_input_validation():
    with pytest.raises(InputError):
        make_blobs(1, 0, [(0.0, 0.0)], 1.0)
    with pytest.raises(InputError):
        make_attributes(1, 10, n_features=3, n_attrs=2, frequencies=[0.5])


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_csv_round_trip_multinomial(tmp_path):
    ds = make_blobs(9, 6, [(-1.0, 0.0), (1.0, 0.0)], 1.3, id_prefix="")
    fpath, lpath = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    save_csv(ds, fpath, lpath)
    back = load_csv(fpath, lpath, "multinomial")
    np.testing.assert_array_equal(back.features, ds.features)  # repr round-trips exactly
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_csv_round_trip_binary(tmp_path):
    ds = make_attributes(4, 25, n_features=3, n_attrs=2, frequencies=[0.4, 0.6])
    fpath, lpath = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    save_csv(ds, fpath, lpath)
    back = load_csv(fpath, lpath, "binary")
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_csv_header_skipped(tmp_path):
    fpath, lpath = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    Path(fpath).write_text("f1,f2\n0.5,1.5\n-1.0,2.0\n")
    Path(lpath).write_text("label\n1\n2\n")
    ds = load_csv(fpath, lpath, "multinomial")
    assert ds.n == 2
    np.testing.assert_array_equal(ds.features, [[0.5, 1.5], [-1.0, 2.0]])
    assert ds.labels.tolist() == [1, 2]


def test_csv_errors_carry_row_numbers(tmp_path):
    fpath, lpath = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    Path(fpath).write_text("f1,f2\n1.0,2.0\n3.0\n")
    Path(lpath).write_text("1\n2\n")
    with pytest.raises(InputError, match="row 3"):
        load_csv(fpath, lpath, "multinomial")

    Path(fpath).write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(InputError, match="row 2 column 2"):
        load_csv(fpath, lpath, "multinomial")

    Path(fpath).write_text("")
    with pytest.raises(InputError, match="no data rows"):
        load_csv(fpath, lpath, "multinomial")


def test_unreadable_csv_raises_input_error_naming_the_path(tmp_path):
    fpath, lpath = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    Path(lpath).write_text("1\n2\n")
    with pytest.raises(InputError, match="x.csv"):
        load_csv(fpath, lpath, "multinomial")

    Path(fpath).write_bytes(b"f\xe9,f2\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(InputError, match="x.csv"):
        load_csv(fpath, lpath, "multinomial")


def test_csv_label_count_mismatch(tmp_path):
    fpath, lpath = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    Path(fpath).write_text("1.0,2.0\n3.0,4.0\n")
    Path(lpath).write_text("1\n")
    with pytest.raises(InputError, match="label rows"):
        load_csv(fpath, lpath, "multinomial")


# ---------------------------------------------------------------------------
# Removal splits
# ---------------------------------------------------------------------------

def _class_fixture():
    train = make_blobs(1, 20, [(-2.0, 0.0), (2.0, 0.0)], 1.0, id_prefix="tr")
    test = make_blobs(2, 10, [(-2.0, 0.0), (2.0, 0.0)], 1.0, id_prefix="te")
    return train, test


def test_build_splits_class_removal():
    train, test = _class_fixture()
    spec = RemovalSpec(kind="class", index=2, fraction=0.3, seed=9)
    splits = build_splits(train, test, spec)
    assert len(splits.removed) == math.ceil(0.3 * 20)
    removed_labels = train.subset(splits.removed).labels
    assert np.all(removed_labels == 2)
    assert set(splits.removed) | set(splits.lko_train) == set(train.ids)
    assert set(splits.removed_test) | set(splits.lko_test) == set(test.ids)
    # every matching test sample lands in removed_test
    assert len(splits.removed_test) == int((test.labels == 2).sum())

    again = build_splits(train, test, spec)
    assert again.removed == splits.removed
    other = build_splits(train, test, RemovalSpec(kind="class", index=2, fraction=0.3, seed=10))
    assert other.removed != splits.removed


@pytest.mark.parametrize("kind, index, fraction", [("class", 2, 0.3), ("class", 1, 1.0),
                                                    ("attribute", 2, 0.5)])
def test_draw_removed_is_the_removed_split(kind, index, fraction):
    if kind == "class":
        train, test = _class_fixture()
        matching = np.flatnonzero(train.labels == index)
    else:
        train = make_attributes(5, 120, n_features=4, n_attrs=3, frequencies=[0.5, 0.3, 0.2],
                                id_prefix="tr")
        test = make_attributes(6, 40, n_features=4, n_attrs=3, frequencies=[0.5, 0.3, 0.2],
                               id_prefix="te")
        matching = np.flatnonzero(train.labels[:, index - 1] == 1)
    spec = RemovalSpec(kind=kind, index=index, fraction=fraction, seed=9)
    removed = draw_removed(train, spec)
    assert removed == build_splits(train, test, spec).removed
    # the first ceil(fraction * m) of a seeded permutation of the m matching rows, in id order
    k = math.ceil(fraction * matching.size)
    chosen = {train.ids[i] for i in matching[np.random.default_rng(9).permutation(matching.size)[:k]]}
    assert removed == tuple(s for s in train.ids if s in chosen)


def test_build_splits_attribute_removal():
    train = make_attributes(5, 200, n_features=4, n_attrs=3, frequencies=[0.5, 0.3, 0.2], id_prefix="tr")
    test = make_attributes(6, 100, n_features=4, n_attrs=3, frequencies=[0.5, 0.3, 0.2], id_prefix="te")
    spec = RemovalSpec(kind="attribute", index=3, fraction=1.0, seed=1)
    splits = build_splits(train, test, spec)
    removed_rows = train.subset(splits.removed)
    assert np.all(removed_rows.labels[:, 2] == 1)
    assert len(splits.removed) == int(train.labels[:, 2].sum())


def test_build_splits_validation():
    train, test = _class_fixture()
    with pytest.raises(InputError):
        build_splits(train, test, RemovalSpec(kind="class", index=7, fraction=0.5, seed=1))
    with pytest.raises(InputError):
        RemovalSpec(kind="class", index=0, fraction=0.5, seed=1)
    with pytest.raises(InputError):
        RemovalSpec(kind="class", index=1, fraction=0.0, seed=1)
    with pytest.raises(InputError):
        RemovalSpec(kind="row", index=1, fraction=0.5, seed=1)

    attr_train = make_attributes(1, 30, n_features=3, n_attrs=1, frequencies=[0.5], id_prefix="tr")
    with pytest.raises(InputError, match="class removal"):
        build_splits(attr_train, attr_train, RemovalSpec(kind="class", index=1, fraction=0.5, seed=1))


def test_split_set_requires_disjoint_ids():
    with pytest.raises(InputError):
        SplitSet(removed=("a",), lko_train=("a",), removed_test=(), lko_test=())
    with pytest.raises(InputError):
        SplitSet(removed=(), lko_train=("a",), removed_test=(), lko_test=())


def test_dataset_round_trip_via_subset_covers_every_row():
    ds = make_blobs(3, 5, [(-1.0, 0.0), (1.0, 0.0)], 1.0)
    both = ds.subset(ds.ids)
    assert both.ids == ds.ids
    np.testing.assert_array_equal(both.features, ds.features)


def _shuffled(ds, seed):
    """The same rows under permuted ids, so that row order and id order differ."""
    perm = np.random.default_rng(seed).permutation(ds.n)
    return Dataset(features=ds.features, labels=ds.labels, ids=tuple(ds.ids[i] for i in perm))


def test_rows_are_ascending_and_count_a_repeat_once():
    ds = Dataset(features=np.zeros((4, 1)), labels=np.ones(4), ids=("d", "b", "a", "c"))
    rows = ds.rows(["c", "d", "a", "c"])
    assert rows.dtype == np.int64
    assert rows.tolist() == [0, 2, 3]
    assert ds.rows(s for s in ("b", "b")).tolist() == [1]
    assert ds.rows([]).tolist() == []


def test_rows_name_the_first_unknown_ids_even_from_a_generator():
    ds = multinomial_dataset(0, 6, 2, 2)
    ids = ("zz", ds.ids[0], "q", "m", "b")
    with pytest.raises(InputError, match=r"sample ids not in the dataset: \['b', 'm', 'q'\]$"):
        ds.rows(s for s in ids)
    for select in (ds.subset, ds.without):
        with pytest.raises(InputError, match="not in the dataset"):
            select(iter(ids))


def _assert_same_dataset(got, want):
    """Equal bytes, dtypes, shapes and flags of both arrays, equal ids and id -> row maps."""
    for a, b in ((got.features, want.features), (got.labels, want.labels)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not a.flags.writeable and not b.flags.writeable
        assert a.flags.c_contiguous and b.flags.c_contiguous
    assert got.ids == want.ids
    assert got._row_of == want._row_of
    assert got._full_grad is None


@pytest.mark.parametrize("n", [0, 12])
@pytest.mark.parametrize("kind", ["binary", "multinomial"])
def test_taken_rows_equal_a_freshly_validated_dataset(kind, n):
    base = binary_dataset(7, n, 3, 2) if kind == "binary" else multinomial_dataset(7, n, 3, 4)
    ds = _shuffled(base, 9)
    order = np.argsort(np.asarray(ds.ids, dtype=object)).astype(np.intp)
    fresh = Dataset(features=ds.features[order], labels=ds.labels[order],
                    ids=tuple(ds.ids[i] for i in order))
    taken = [(ds.sorted_by_id(), fresh)]
    for ids in ((), ds.ids[:1], ds.ids[3:8], ds.ids):
        for keep, select in ((True, ds.subset), (False, ds.without)):
            taken.append((select(ids), select_oracle(ds, ids, keep)))
    for got, want in taken:
        _assert_same_dataset(got, want)
        # the result owns its rows
        assert not np.shares_memory(got.features, ds.features)
        assert not np.shares_memory(got.labels, ds.labels)


@pytest.mark.parametrize("seed", range(6))
def test_subset_and_without_equal_the_scanning_oracle(seed):
    rng = np.random.default_rng(seed)
    base = binary_dataset(seed, 15, 3, 2) if seed % 2 else multinomial_dataset(seed, 15, 3, 4)
    ds = _shuffled(base, seed + 100)
    picks = [(), ds.ids] + [
        tuple(ds.ids[i] for i in rng.choice(ds.n, size=k, replace=False)) for k in (1, 4, 9, 14)
    ]
    for ids in picks:
        for keep, select in ((True, ds.subset), (False, ds.without)):
            got, want = select(ids), select_oracle(ds, ids, keep)
            assert got.ids == want.ids
            assert got.labels.dtype == want.labels.dtype
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.labels, want.labels)

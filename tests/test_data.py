"""Synthetic generators, CSV IO, and removal splits."""

import math
from pathlib import Path

import numpy as np
import pytest

from helpers import binary_dataset, multinomial_dataset, select_oracle
from ssse import (
    Dataset,
    InputError,
    build_splits,
    load_csv,
    make_attributes,
    make_blobs,
    make_gaussian_classes,
    make_ids,
    make_parallel_planes_binary,
    make_separable_subspace,
    predict_proba,
    save_csv,
)
from ssse.data import RemovalSpec, SplitSet


# ---------------------------------------------------------------------------
# Ids
# ---------------------------------------------------------------------------

def test_make_ids_zero_padded_and_lexicographic():
    ids = make_ids(12, "tr")
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


def test_make_attributes_respects_frequencies():
    freqs = [0.5, 0.1]
    ds = make_attributes(7, 2000, n_features=6, n_attrs=2, frequencies=freqs)
    assert ds.kind == "binary" and ds.labels.shape == (2000, 2)
    rates = ds.labels.mean(axis=0)
    np.testing.assert_allclose(rates, freqs, atol=0.02)


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


def test_generator_input_validation():
    with pytest.raises(InputError):
        make_blobs(1, 0, [(0.0, 0.0)], 1.0)
    with pytest.raises(InputError):
        make_separable_subspace(c=3, m=2, eps_margin=1e-3, n_per_class=2, seed=1)  # m < c
    with pytest.raises(InputError):
        make_separable_subspace(c=3, m=8, eps_margin=0.6, n_per_class=2, seed=1)
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

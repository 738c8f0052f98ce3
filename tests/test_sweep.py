"""The epsilon sweep against its one-point-at-a-time oracle, and the checks it keeps."""

import warnings

import numpy as np
import pytest

from helpers import sweep_oracle
from ssse import (
    MLP,
    BlockSpec,
    LossConfig,
    MultiAttrLinear,
    MultinomialLinear,
    NumericError,
    RemovalSpec,
    StaleFisherError,
    TrainConfig,
    build_inverse_fisher,
    build_splits,
    epsilon_sweep,
    make_attributes,
    make_gaussian_classes,
    retrain_scratch,
    sweep_csv_text,
    sweep_report_text,
    train,
)
from ssse import erasure, evaluation

GRID = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]


def _task(family):
    """A trained task: theta*, its inverse Fisher, train, test, splits, criterion, retrain, cfg."""
    if family == "multi_attr_linear":
        common = dict(n=240, n_features=6, n_attrs=3, frequencies=[0.2, 0.4, 0.4],
                      direction_seed=7)
        train_ds = make_attributes(7, id_prefix="tr", **common)
        test_ds = make_attributes(8, id_prefix="te", **common)
        shape = MultiAttrLinear(n_attrs=3, n_features=6)
        removal = RemovalSpec(kind="attribute", index=1, fraction=1.0, seed=0)
        criterion, fisher_batch = "max_gamma", 1
    else:
        common = dict(n_per_class=40, n_features=6, n_classes=4, spread=1.5, center_seed=9)
        train_ds = make_gaussian_classes(9, id_prefix="tr", **common)
        test_ds = make_gaussian_classes(10, id_prefix="te", **common)
        if family == "mlp":
            shape, fisher_batch = MLP(n_features=6, n_hidden=5, n_classes=4), 10
        else:
            shape, fisher_batch = MultinomialLinear(n_classes=4, n_features=6), 1
        removal = RemovalSpec(kind="class", index=2, fraction=1.0, seed=0)
        criterion = "min_delta"
    cfg = LossConfig(l2_coeff=0.01)
    tcfg = TrainConfig(lr=0.2, epochs=40, batch_size=40, seed=5, momentum=0.9)
    star = train(train_ds, shape, cfg, tcfg).params
    splits = build_splits(train_ds, test_ds, removal)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        retrain = retrain_scratch(train_ds, splits.removed, shape, cfg, tcfg).params
    finv = build_inverse_fisher(star, train_ds, cfg, 0.01, BlockSpec.from_shape(shape),
                                fisher_batch)
    return star, finv, train_ds, test_ds, splits, criterion, retrain, cfg


FAMILIES = ["multinomial_linear", "mlp", "multi_attr_linear"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("grid", [GRID, [0.0], [1.0]])
def test_sweep_reports_equal_the_oracle_exactly(family, grid):
    star, finv, train_ds, test_ds, splits, criterion, retrain, cfg = _task(family)
    sweep = epsilon_sweep(star, finv, train_ds, test_ds, splits, grid, criterion, retrain, cfg)
    oracle = sweep_oracle(star, finv, train_ds, test_ds, splits, grid, criterion, retrain, cfg)
    assert sweep_report_text(sweep) == sweep_report_text(oracle)
    assert sweep_csv_text(sweep) == sweep_csv_text(oracle)
    assert sweep.reports == oracle.reports


def test_sweep_refuses_a_fisher_built_at_other_parameters():
    star, _, train_ds, test_ds, splits, criterion, retrain, cfg = _task("multinomial_linear")
    stale = build_inverse_fisher(retrain, train_ds, cfg, 0.01, BlockSpec.from_shape(star.shape), 1)
    with pytest.raises(StaleFisherError, match="parameters"):
        epsilon_sweep(star, stale, train_ds, test_ds, splits, GRID, criterion, retrain, cfg)


def test_sweep_refuses_a_fisher_built_on_another_sample_count():
    star, _, train_ds, test_ds, splits, criterion, retrain, cfg = _task("multinomial_linear")
    fewer = train_ds.subset(train_ds.ids[:-3])
    stale = build_inverse_fisher(star, fewer, cfg, 0.01, BlockSpec.from_shape(star.shape), 1)
    with pytest.raises(StaleFisherError, match="samples"):
        epsilon_sweep(star, stale, train_ds, test_ds, splits, GRID, criterion, retrain, cfg)


def test_sweep_reports_a_non_finite_direction(monkeypatch):
    star, finv, train_ds, test_ds, splits, criterion, retrain, cfg = _task("mlp")
    monkeypatch.setattr(erasure, "apply_inverse", lambda finv, g: np.full_like(g, np.nan))
    with pytest.raises(NumericError, match="non-finite"):
        epsilon_sweep(star, finv, train_ds, test_ds, splits, GRID, criterion, retrain, cfg)


@pytest.mark.parametrize("family", ["multinomial_linear", "multi_attr_linear"])
def test_sweep_checks_each_split_once_whatever_the_grid_length(monkeypatch, family):
    star, finv, train_ds, test_ds, splits, criterion, retrain, cfg = _task(family)
    checked = []
    real = evaluation._check_task_match
    monkeypatch.setattr(evaluation, "_check_task_match",
                        lambda params, dataset: checked.append(dataset.n) or real(params, dataset))
    counts = []
    for grid in ([1.0], [0.0] + [2.0 ** i for i in range(-8, 8)]):
        checked.clear()
        epsilon_sweep(star, finv, train_ds, test_ds, splits, grid, criterion, retrain, cfg)
        counts.append(len(checked))
    # the four splits once against theta*, the removed split once each for
    # theta* and the retrain references
    assert counts == [6, 6]

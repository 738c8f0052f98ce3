"""End-to-end acceptance gate for the erasure package.

Nine checks covering inverse-Fisher correctness against dense oracles,
the uniform-margin ratio identity, the closed-form update identities,
erasure fidelity on trained models, metric invariants, and CLI
determinism. Each test prints one ``ACCEPTANCE <name>: PASS|FAIL`` line
and enforces its stated tolerance and wall-clock budget; everything is
seeded and runs in a single process.
"""

import math
import os
import textwrap
import time
import warnings

import numpy as np

import test_metric_properties as metric_props
from helpers import (
    dataset_for_shape,
    dense_block,
    dense_fisher_inverse,
    make_parallel_planes_binary,
    make_separable_subspace,
    multinomial_dataset,
    random_params,
    uniform_margin_ratio_check,
)
from ssse import (
    BlockSpec,
    ErasureRequest,
    GridSpec,
    LossConfig,
    MLP,
    MultiAttrLinear,
    MultinomialLinear,
    TrainConfig,
    accuracy,
    boundary_disagreement,
    build_inverse_fisher,
    build_splits,
    epsilon_sweep,
    grad_sum,
    influence_update,
    make_attributes,
    make_blobs,
    make_gaussian_classes,
    retrain_scratch,
    ssse_update,
    train,
)
from ssse.cli import main
from ssse.data import RemovalSpec


def _gate(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _retrain_quiet(train_ds, removed, shape, loss_cfg, train_cfg):
    """Full-group removals legitimately warn about emptied classes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return retrain_scratch(train_ds, removed, shape, loss_cfg, train_cfg)


# ---------------------------------------------------------------------------
# 1. Rank-one recursion vs dense inversion on random instances
# ---------------------------------------------------------------------------

def _small_shape(rng):
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return MultiAttrLinear(n_attrs=int(rng.integers(1, 5)), n_features=int(rng.integers(2, 6)))
    if pick == 1:
        return MultinomialLinear(
            n_classes=int(rng.integers(2, 5)), n_features=int(rng.integers(2, 6))
        )
    return MLP(n_features=int(rng.integers(2, 4)), n_hidden=2, n_classes=int(rng.integers(2, 4)))


def test_inverse_fisher_matches_dense_inversion_on_random_instances():
    t0 = time.monotonic()
    rng = np.random.default_rng(900)
    cfg = LossConfig(l2_coeff=0.0)
    dampenings = [1e-4, 1e-2, 1.0]
    worst = 0.0
    for i in range(50):
        shape = _small_shape(rng)
        assert shape.n_params <= 20
        n = int(rng.integers(5, 51))
        ds = dataset_for_shape(shape, 1000 + i, n)
        params = random_params(shape, 2000 + i)
        lam = dampenings[i % 3]
        finv = build_inverse_fisher(params, ds, cfg, lam, BlockSpec.single(shape.n_params), 1)
        dense = dense_fisher_inverse(params, ds, cfg, lam)
        rel = float(np.linalg.norm(dense_block(finv, 0) - dense) / np.linalg.norm(dense))
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _gate(
        "inverse-fisher-dense-equivalence",
        ok,
        f"worst rel frobenius {worst:.3e} <= 1e-9, {elapsed:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# 2. Uniform-margin Hessian is a scalar multiple of the Fisher
# ---------------------------------------------------------------------------

def test_uniform_margin_hessian_is_scalar_multiple_of_fisher():
    failures = []
    for c in (3, 10, 50):
        m = c + 10
        for eps in (1e-3, 1e-4):
            ds, params = make_separable_subspace(c, m, eps, n_per_class=3, seed=200 + c)
            _, max_dev, _, spread = uniform_margin_ratio_check(params, ds)
            bound = 5.0 * c * eps
            if max_dev > bound or spread > 1e-6:
                failures.append(f"softmax c={c} eps={eps}: {max_dev:.3e} > {bound:.3e}"
                                f" or margin spread {spread:.3e} > 1e-6")
    for eps in (1e-3, 1e-4):
        ds, params = make_parallel_planes_binary(12, eps, n_per_class=8, seed=77)
        _, max_dev, rho, _ = uniform_margin_ratio_check(params, ds)
        if max_dev > 1e-10:
            failures.append(f"binary eps={eps}: {max_dev:.3e} > 1e-10")
        if not math.isclose(rho, (1.0 - eps) / eps, rel_tol=1e-12):
            failures.append(f"binary eps={eps}: multiple {rho}")
    _gate(
        "uniform-margin-ratio-identity",
        not failures,
        "; ".join(failures) if failures else "softmax <= 5*c*eps, binary <= 1e-10",
    )


# ---------------------------------------------------------------------------
# 3. Update identities: zero scale, linearity, dense oracle
# ---------------------------------------------------------------------------

def test_erasure_update_identities_and_dense_oracle():
    shape = MultinomialLinear(n_classes=2, n_features=3)
    ds = multinomial_dataset(400, n=12, m=3, c=2)
    cfg = LossConfig(l2_coeff=0.05)
    params = random_params(shape, 401)
    finv = build_inverse_fisher(params, ds, cfg, 0.2, BlockSpec.single(shape.n_params), 1)
    removed = ds.ids[:3]

    def erased(eps):
        req = ErasureRequest(removed_ids=removed, epsilon=eps)
        return ssse_update(params, finv, ds, req, cfg)

    zero_ok = erased(0.0).values.tobytes() == params.values.tobytes()

    d1 = erased(0.3).values - params.values
    d2 = erased(0.6).values - params.values
    d3 = erased(0.9).values - params.values
    linear_ok = np.allclose(2.0 * d1, d2, rtol=1e-12, atol=0.0) and np.allclose(
        3.0 * d1, d3, rtol=1e-12, atol=0.0
    )

    eps = 0.7
    oracle = params.values + (eps / (ds.n - len(removed))) * (
        dense_fisher_inverse(params, ds, cfg, 0.2) @ grad_sum(params, ds, removed, cfg)
    )
    dense_err = float(np.abs(erased(eps).values - oracle).max())
    dense_ok = dense_err <= 1e-10

    _gate(
        "erasure-update-identities",
        zero_ok and linear_ok and dense_ok,
        f"zero-scale bitwise {zero_ok}, linearity 1e-12 {linear_ok}, "
        f"dense oracle max err {dense_err:.3e} <= 1e-10",
    )


# ---------------------------------------------------------------------------
# 4. Blob demo: erased boundary tracks retraining
# ---------------------------------------------------------------------------

def test_blob_demo_erased_boundary_tracks_retraining():
    t0 = time.monotonic()
    centers = [(-1.0, 0.0), (1.0, 0.0)]
    train_ds = make_blobs(21, 100, centers, 2.2, id_prefix="tr")
    test_ds = make_blobs(22, 100, centers, 2.2, id_prefix="te")
    shape = MultinomialLinear(n_classes=2, n_features=2)
    loss_cfg = LossConfig(l2_coeff=0.01)
    train_cfg = TrainConfig(
        lr=0.4, epochs=600, batch_size=200, seed=5, momentum=0.9, grad_tol=1e-9
    )
    star = train(train_ds, shape, loss_cfg, train_cfg)
    splits = build_splits(
        train_ds, test_ds, RemovalSpec(kind="class", index=2, fraction=0.1, seed=3)
    )
    assert len(splits.removed) == 10 and train_ds.n == 200
    retrained = retrain_scratch(train_ds, splits.removed, shape, loss_cfg, train_cfg)
    finv = build_inverse_fisher(
        star.params, train_ds, loss_cfg, 0.01, BlockSpec.single(shape.n_params), 1
    )
    sweep = epsilon_sweep(
        star.params, finv, train_ds, test_ds, splits,
        [0.5, 1.0, 2.0], "min_delta", retrained.params, loss_cfg,
    )
    req = ErasureRequest(removed_ids=splits.removed, epsilon=sweep.best_epsilon)
    erased = ssse_update(star.params, finv, train_ds, req, loss_cfg)
    infl_full = influence_update(star.params, train_ds, req, loss_cfg, "full")
    infl_lko = influence_update(star.params, train_ds, req, loss_cfg, "lko")

    grid = GridSpec(x_min=-6.0, x_max=6.0, y_min=-6.0, y_max=6.0, nx=161, ny=161)
    d_orig = boundary_disagreement(star.params, retrained.params, grid)
    d_erased = boundary_disagreement(erased, retrained.params, grid)
    d_full = boundary_disagreement(infl_full, retrained.params, grid)
    d_lko = boundary_disagreement(infl_lko, retrained.params, grid)
    elapsed = time.monotonic() - t0

    ok = d_erased < d_orig and d_lko <= d_full and elapsed < 30.0
    _gate(
        "blob-demo-boundary",
        ok,
        f"erased {d_erased:.5f} < original {d_orig:.5f}, "
        f"lko {d_lko:.5f} <= full {d_full:.5f}, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 5. Full-class removal: sweep reaches low delta at matched accuracy
# ---------------------------------------------------------------------------

def test_full_class_removal_sweep_reaches_low_delta_at_matched_accuracy():
    t0 = time.monotonic()
    common = dict(
        n_per_class=200, n_features=50, n_classes=10,
        center_scale=3.0, spread=2.0, center_seed=31,
    )
    train_ds = make_gaussian_classes(31, id_prefix="tr", **common)
    test_ds = make_gaussian_classes(32, id_prefix="te", **common)
    assert train_ds.n == 2000
    shape = MultinomialLinear(n_classes=10, n_features=50)
    loss_cfg = LossConfig(l2_coeff=0.01)
    train_cfg = TrainConfig(
        lr=0.2, epochs=150, batch_size=100, seed=5, momentum=0.9, grad_tol=1e-7
    )
    star = train(train_ds, shape, loss_cfg, train_cfg)
    splits = build_splits(
        train_ds, test_ds, RemovalSpec(kind="class", index=3, fraction=1.0, seed=0)
    )
    retrained = _retrain_quiet(train_ds, splits.removed, shape, loss_cfg, train_cfg)
    finv = build_inverse_fisher(
        star.params, train_ds, loss_cfg, 0.01, BlockSpec.from_shape(shape), 1
    )
    sweep = epsilon_sweep(
        star.params, finv, train_ds, test_ds, splits,
        [0.25, 0.5, 1.0, 2.0, 4.0], "min_delta", retrained.params, loss_cfg,
    )
    best = next(r for r in sweep.reports if r.epsilon == sweep.best_epsilon)
    d_train = abs(best.acc_lko_train - accuracy(retrained.params, train_ds.subset(splits.lko_train)))
    d_test = abs(best.acc_lko_test - accuracy(retrained.params, test_ds.subset(splits.lko_test)))
    elapsed = time.monotonic() - t0

    reaches = any(r.delta < 0.5 for r in sweep.reports)
    ok = reaches and best.delta < 0.5 and d_train <= 0.02 and d_test <= 0.02 and elapsed < 120.0
    _gate(
        "full-class-removal-sweep",
        ok,
        f"best delta {best.delta:.3f} < 0.5, acc gaps {d_train:.4f}/{d_test:.4f} <= 0.02, "
        f"{elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 6. Rare-attribute removal: gamma rises past the halfway point
# ---------------------------------------------------------------------------

def test_rare_attribute_removal_reaches_high_gamma():
    frequencies = [0.15, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4]
    common = dict(
        n=1500, n_features=20, n_attrs=8,
        frequencies=frequencies, overlap=0.4, direction_seed=41,
    )
    train_ds = make_attributes(41, id_prefix="tr", **common)
    test_ds = make_attributes(42, id_prefix="te", **common)
    shape = MultiAttrLinear(n_attrs=8, n_features=20)
    loss_cfg = LossConfig(l2_coeff=0.005)
    train_cfg = TrainConfig(
        lr=0.3, epochs=300, batch_size=200, seed=5, momentum=0.9, grad_tol=1e-7
    )
    star = train(train_ds, shape, loss_cfg, train_cfg)
    splits = build_splits(
        train_ds, test_ds, RemovalSpec(kind="attribute", index=1, fraction=1.0, seed=0)
    )
    retrained = _retrain_quiet(train_ds, splits.removed, shape, loss_cfg, train_cfg)
    finv = build_inverse_fisher(
        star.params, train_ds, loss_cfg, 0.005, BlockSpec.from_shape(shape), 1
    )
    sweep = epsilon_sweep(
        star.params, finv, train_ds, test_ds, splits,
        [0.25, 0.5, 1.0, 2.0, 4.0], "max_gamma", retrained.params, loss_cfg,
    )
    best_gamma = max(r.gamma for r in sweep.reports)
    _gate("rare-attribute-gamma", best_gamma > 0.5, f"max gamma {best_gamma:.3f} > 0.5")


# ---------------------------------------------------------------------------
# 7. MLP full-class removal with single-sample and batched Fisher
# ---------------------------------------------------------------------------

def test_mlp_full_class_removal_works_with_batched_fisher():
    t0 = time.monotonic()
    common = dict(
        n_per_class=150, n_features=20, n_classes=5,
        center_scale=2.5, spread=1.5, center_seed=51,
    )
    train_ds = make_gaussian_classes(51, id_prefix="tr", **common)
    test_ds = make_gaussian_classes(52, id_prefix="te", **common)
    shape = MLP(n_features=20, n_hidden=16, n_classes=5)
    loss_cfg = LossConfig(l2_coeff=0.01)
    train_cfg = TrainConfig(
        lr=0.1, epochs=300, batch_size=75, seed=5, momentum=0.9, grad_tol=1e-7
    )
    star = train(train_ds, shape, loss_cfg, train_cfg)
    splits = build_splits(
        train_ds, test_ds, RemovalSpec(kind="class", index=2, fraction=1.0, seed=0)
    )
    retrained = _retrain_quiet(train_ds, splits.removed, shape, loss_cfg, train_cfg)

    min_delta = {}
    for batch_size in (1, 10):
        finv = build_inverse_fisher(
            star.params, train_ds, loss_cfg, 0.01, BlockSpec.from_shape(shape), batch_size
        )
        sweep = epsilon_sweep(
            star.params, finv, train_ds, test_ds, splits,
            [0.25, 0.5, 1.0, 2.0, 4.0], "min_delta", retrained.params, loss_cfg,
        )
        min_delta[batch_size] = min(r.delta for r in sweep.reports)
    elapsed = time.monotonic() - t0

    ok = min_delta[1] < 0.5 and min_delta[10] < 0.5 and elapsed < 120.0
    _gate(
        "mlp-batched-fisher",
        ok,
        f"min delta batch1 {min_delta[1]:.3f}, batch10 {min_delta[10]:.3f} < 0.5, "
        f"{elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 8. Metric invariants over 200 random instances each
# ---------------------------------------------------------------------------

def test_metric_invariants_hold_over_random_instances():
    suite = [
        metric_props.test_auc_stays_in_unit_interval,
        metric_props.test_auc_label_flip_complements,
        metric_props.test_auc_invariant_under_increasing_affine_maps,
        metric_props.test_param_distance_bounds_and_complement,
        metric_props.test_confusion_metrics_invariants,
        metric_props.test_similarity_ratio_bounds_and_anchors,
        metric_props.test_accuracy_bounds,
        metric_props.test_boundary_disagreement_symmetric_zero_on_self,
    ]
    for prop in suite:
        prop()
    _gate("metric-property-suite", True, f"{len(suite)} properties x 200 instances")


# ---------------------------------------------------------------------------
# 9. CLI determinism: byte-identical reruns
# ---------------------------------------------------------------------------

CLI_CONFIG = textwrap.dedent(
    """
    [data]
    source = blobs
    seed = 7
    test_seed = 8
    n_per_class = 20
    centers = -2,0; 2,0
    spread = 1.2

    [model]
    family = multinomial_linear

    [loss]
    l2_coeff = 0.01

    [train]
    lr = 0.4
    epochs = 60
    batch_size = 10
    seed = 1

    [removal]
    kind = class
    index = 2
    fraction = 0.5
    seed = 11

    [sweep]
    grid = 0.5, 1, 2
    criterion = min_delta

    [boundary]
    nx = 41
    ny = 41

    [baselines]
    ga_lr = 0.05
    """
)


def _dirs_match_bytes(dir_a, dir_b):
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if names_a != names_b:
        return False, f"file sets differ: {names_a} vs {names_b}"
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(dir_b, name), "rb") as fb:
            b = fb.read()
        if a != b:
            return False, f"{name} differs between reruns"
    return True, f"{len(names_a)} files identical"


def test_cli_commands_are_byte_identical_on_rerun(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CLI_CONFIG)
    cfg = str(cfg_path)

    def run(command, out, extra=()):
        assert main([command, "--config", cfg, "--out", out, *extra]) == 0
        return out

    outs = {}
    for tag in ("a", "b"):
        outs["train", tag] = run("train", str(tmp_path / f"train_{tag}"))
    model = os.path.join(outs["train", "a"], "model.bin")
    for tag in ("a", "b"):
        outs["fisher", tag] = run("fisher", str(tmp_path / f"fisher_{tag}"), ("--model", model))
    fisher = os.path.join(outs["fisher", "a"], "fisher.bin")
    for tag in ("a", "b"):
        outs["erase", tag] = run(
            "erase", str(tmp_path / f"erase_{tag}"), ("--model", model, "--fisher", fisher)
        )
        outs["sweep", tag] = run("sweep", str(tmp_path / f"sweep_{tag}"))
        outs["demo-boundary", tag] = run("demo-boundary", str(tmp_path / f"demo_{tag}"))
        outs["compare-baselines", tag] = run(
            "compare-baselines", str(tmp_path / f"baselines_{tag}")
        )

    failures = []
    for command in ("train", "fisher", "erase", "sweep", "demo-boundary", "compare-baselines"):
        same, detail = _dirs_match_bytes(outs[command, "a"], outs[command, "b"])
        if not same:
            failures.append(f"{command}: {detail}")
    _gate(
        "cli-determinism",
        not failures,
        "; ".join(failures) if failures else "6 commands byte-identical on rerun",
    )

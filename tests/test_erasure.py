"""Closed-form erasure updates against dense linear-algebra oracles."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import helpers
from helpers import (
    dataset_for_shape,
    dense_fisher_inverse,
    fd_hessian,
    hessian_dense_oracle,
    loss_of_values,
    multinomial_dataset,
    random_params,
    random_shape,
)
from ssse import (
    BlockSpec,
    Dataset,
    ErasureRequest,
    InputError,
    LossConfig,
    MLP,
    MultiAttrLinear,
    MultinomialLinear,
    NumericError,
    StaleFisherError,
    TrainConfig,
    build_inverse_fisher,
    diag_scrub_update,
    diagonal_inverse_fisher,
    grad_matrix,
    grad_mean,
    grad_sum,
    gradient_ascent_step,
    hessian_dense,
    influence_update,
    make_blobs,
    ssse_update,
    train,
)
from ssse import erasure
from ssse.models import _grad_sums, _targets, params_digest


def _setup(seed=0, n=10):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    ds = dataset_for_shape(shape, seed + 30, n=n)
    cfg = LossConfig(l2_coeff=0.05)
    params = random_params(shape, seed + 60)
    finv = build_inverse_fisher(params, ds, cfg, 0.2, BlockSpec.single(shape.n_params), 1)
    return shape, ds, cfg, params, finv


# ---------------------------------------------------------------------------
# The single-step update
# ---------------------------------------------------------------------------

def test_epsilon_zero_returns_identical_values():
    _, ds, cfg, params, finv = _setup()
    req = ErasureRequest(removed_ids=ds.ids[:2], epsilon=0.0)
    out = ssse_update(params, finv, ds, req, cfg)
    np.testing.assert_array_equal(out.values, params.values)


def test_update_is_linear_in_epsilon():
    _, ds, cfg, params, finv = _setup(seed=1)
    small = ssse_update(params, finv, ds, ErasureRequest(removed_ids=ds.ids[:3], epsilon=0.7), cfg)
    large = ssse_update(params, finv, ds, ErasureRequest(removed_ids=ds.ids[:3], epsilon=1.4), cfg)
    np.testing.assert_allclose(
        large.values - params.values, 2.0 * (small.values - params.values), rtol=1e-12
    )


@pytest.mark.parametrize("grad_source", ["removed", "remaining"])
@pytest.mark.parametrize("seed", range(3))
def test_grid_updates_equal_ssse_update_bit_for_bit(seed, grad_source):
    _, ds, cfg, params, finv = _setup(seed=seed)
    grid = [0.0, 0.3, 1.0, 2.5]
    points = erasure.ssse_grid(params, finv, ds, ds.ids[:3], grid, cfg, grad_source)
    for eps, (theta, step_norm) in zip(grid, points):
        req = ErasureRequest(removed_ids=ds.ids[:3], epsilon=eps, grad_source=grad_source)
        np.testing.assert_array_equal(theta.values, ssse_update(params, finv, ds, req, cfg).values)
    norms = [step_norm for _, step_norm in points]
    assert norms[0] == 0.0
    assert norms == sorted(norms) and norms[-1] > 0.0


def test_grid_checks_the_grid_and_the_request():
    _, ds, cfg, params, finv = _setup(seed=2)
    for grid in ([], [1.0, 0.5], [-1.0, 1.0], [float("nan")]):
        with pytest.raises(InputError):
            erasure.ssse_grid(params, finv, ds, ds.ids[:2], grid, cfg)
    with pytest.raises(InputError):
        erasure.ssse_grid(params, finv, ds, (), [1.0], cfg)
    with pytest.raises(InputError):
        erasure.ssse_grid(params, finv, ds, ds.ids[:2], [1.0], cfg, grad_source="all")


@pytest.mark.parametrize("seed", range(5))
def test_update_matches_dense_oracle(seed):
    _, ds, cfg, params, finv = _setup(seed=seed)
    removed = ds.ids[: 2 + seed % 3]
    eps = 0.8
    req = ErasureRequest(removed_ids=removed, epsilon=eps)
    out = ssse_update(params, finv, ds, req, cfg)
    oracle_inv = dense_fisher_inverse(params, ds, cfg, 0.2)
    g = grad_sum(params, ds, removed, cfg)
    expected = params.values + (eps / (ds.n - len(removed))) * (oracle_inv @ g)
    np.testing.assert_allclose(out.values, expected, atol=1e-10)


def test_update_direction_adds_over_disjoint_removals():
    _, ds, cfg, params, finv = _setup(seed=2, n=12)
    s, t = ds.ids[:2], ds.ids[2:5]

    def direction(ids):
        out = ssse_update(params, finv, ds, ErasureRequest(removed_ids=ids, epsilon=1.0), cfg)
        return (out.values - params.values) * (ds.n - len(ids))

    np.testing.assert_allclose(
        direction(s + t), direction(s) + direction(t), rtol=1e-9, atol=1e-12
    )


def test_grad_source_remaining_differs_by_the_full_gradient():
    _, ds, cfg, params, finv = _setup(seed=3)
    removed = ds.ids[:3]
    scale = 1.0 / (ds.n - 3)
    a = ssse_update(
        params, finv, ds, ErasureRequest(removed_ids=removed, grad_source="removed"), cfg
    )
    b = ssse_update(
        params, finv, ds, ErasureRequest(removed_ids=removed, grad_source="remaining"), cfg
    )
    # sum_S g = -sum_rest g + n * full_mean_gradient, applied through F^{-1}
    full = ds.n * grad_mean(params, ds, cfg)
    from ssse import apply_inverse

    gap = a.values - b.values
    np.testing.assert_allclose(gap, scale * apply_inverse(finv, full), atol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_remaining_direction_is_the_negated_retained_row_sum(seed):
    from ssse.erasure import _erasure_direction

    _, ds, cfg, params, _ = _setup(seed=seed, n=12)
    removed = (ds.ids[2], ds.ids[7])
    keep = [i for i, s in enumerate(ds.ids) if s not in removed]
    rows = grad_matrix(params, ds.features[keep], ds.labels[keep], cfg)
    direction = _erasure_direction(params, ds, ds.rows(removed), "remaining", cfg)
    np.testing.assert_allclose(direction, -rows.sum(axis=0), rtol=1e-12)


def _fresh(ds):
    """The same rows in a new Dataset, which holds no full-data gradient sum yet."""
    return Dataset(features=ds.features, labels=ds.labels, ids=ds.ids)


def _spy_grad_rows(monkeypatch):
    """Record the row count of every ``_grad_sums`` call the erasure module makes."""
    calls = []
    real = erasure._grad_sums

    def spy(shape, values, features, *args, **kwargs):
        calls.append(features.shape[0])
        return real(shape, values, features, *args, **kwargs)

    monkeypatch.setattr(erasure, "_grad_sums", spy)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_remaining_requests_are_bit_identical_on_a_warm_and_a_cold_dataset(seed):
    _, ds, cfg, params, finv = _setup(seed=seed, n=14)
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.5, 2.0, params.shape.n_params)
    linear = not isinstance(params.shape, MLP)
    for k in (1, 4, 13):
        ids = tuple(str(s) for s in rng.choice(ds.ids, size=k, replace=False))
        req = ErasureRequest(removed_ids=ids, epsilon=0.7, grad_source="remaining")
        updates = [
            lambda d: ssse_update(params, finv, d, req, cfg).values,
            lambda d: [t.values for t, _ in erasure.ssse_grid(
                params, finv, d, ids, [0.0, 0.5, 2.0], cfg, "remaining")],
            lambda d: diag_scrub_update(params, diag, d, req, cfg).values,
        ]
        if linear:  # a random MLP's Hessian is indefinite, so its influence step fails
            updates.append(lambda d: influence_update(params, d, req, cfg).values)
        for update in updates:
            np.testing.assert_array_equal(update(ds), update(_fresh(ds)))
    key, cached = ds._full_grad
    assert key == (params_digest(params), cfg.l2_coeff)
    assert not cached.flags.writeable
    targets = _targets(params.shape, ds.labels)
    np.testing.assert_array_equal(
        cached, _grad_sums(params.shape, params.values, ds.features, targets, cfg.l2_coeff)[0])


def test_full_data_sum_is_recomputed_for_another_theta_or_l2(monkeypatch):
    _, ds, _, params, _ = _setup(seed=4, n=12)
    other = random_params(params.shape, 99)
    rows = ds.rows(ds.ids[:2])
    calls = _spy_grad_rows(monkeypatch)
    # (theta*, l2_coeff, whether the request makes a full-data pass)
    sequence = [(params, 0.05, True), (params, 0.05, False),
                (params.with_values(params.values), 0.05, False), (other, 0.05, True),
                (other, 0.2, True), (other, 0.0, True), (params, 0.05, True),
                (params, 0.05, False)]
    for theta, l2, full_pass in sequence:
        cfg = LossConfig(l2_coeff=l2)
        calls.clear()
        got = erasure._erasure_direction(theta, ds, rows, "remaining", cfg)
        assert calls == ([2, ds.n] if full_pass else [2])
        want = erasure._erasure_direction(theta, _fresh(ds), rows, "remaining", cfg)
        np.testing.assert_array_equal(got, want)


def test_later_remaining_requests_sum_only_their_removed_rows(monkeypatch):
    shape = MultinomialLinear(n_classes=3, n_features=4)
    ds = dataset_for_shape(shape, 5, n=30)
    cfg = LossConfig(l2_coeff=0.05)
    params = random_params(shape, 6)
    finv = build_inverse_fisher(params, ds, cfg, 0.2, BlockSpec.single(shape.n_params), 1)
    diag = np.full(shape.n_params, 0.5)
    calls = _spy_grad_rows(monkeypatch)

    def request(k):
        return ErasureRequest(removed_ids=ds.ids[:k], grad_source="remaining")

    ssse_update(params, finv, ds, request(3), cfg)
    assert calls == [3, ds.n]
    calls.clear()
    ssse_update(params, finv, ds, request(5), cfg)
    erasure.ssse_grid(params, finv, ds, ds.ids[:4], [0.5, 1.0], cfg, "remaining")
    influence_update(params, ds, request(2), cfg)
    influence_update(params, ds, request(6), cfg, hessian_source="lko")
    diag_scrub_update(params, diag, ds, request(7), cfg)
    assert calls == [5, 4, 2, 6, 7]


def test_a_bare_string_is_not_an_id_collection():
    shape = MultinomialLinear(n_classes=2, n_features=2)
    ds = Dataset(features=np.arange(6.0).reshape(3, 2), labels=np.array([1, 2, 1]),
                 ids=("1", "2", "12"))
    params = random_params(shape, 0)
    cfg = LossConfig(l2_coeff=0.1)
    finv = build_inverse_fisher(params, ds, cfg, 0.5, BlockSpec.single(shape.n_params), 1)
    from ssse import retrain_scratch

    calls = [
        lambda ids: ErasureRequest(removed_ids=ids),
        ds.rows, ds.subset, ds.without,
        lambda ids: grad_sum(params, ds, ids, cfg),
        lambda ids: erasure.ssse_grid(params, finv, ds, ids, [1.0], cfg),
        lambda ids: gradient_ascent_step(params, ds, ids, 0.1, cfg),
        lambda ids: retrain_scratch(ds, ids, shape, cfg, TrainConfig(lr=0.1, epochs=1, batch_size=1, seed=0)),
    ]
    for ids in ("12", b"12"):
        for call in calls:
            with pytest.raises(InputError, match="not the string"):
                call(ids)
    # as one element of a collection, "12" is the third sample
    assert ds.rows(["12"]).tolist() == [2]
    assert ErasureRequest(removed_ids=["12"]).removed_ids == ("12",)


@pytest.mark.parametrize("grad_source", ["removed", "remaining"])
def test_requests_build_no_dataset(monkeypatch, grad_source):
    """After setup a request only slices the validated arrays of the training set."""
    _, ds, cfg, params, finv = _setup(seed=1, n=12)
    want = ssse_update(params, finv, ds, ErasureRequest(removed_ids=ds.ids[3:6],
                                                       grad_source=grad_source), cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a request built a Dataset")

    for name in ("subset", "without", "__post_init__"):
        monkeypatch.setattr(Dataset, name, refuse)
    req = ErasureRequest(removed_ids=ds.ids[3:6], grad_source=grad_source)
    np.testing.assert_array_equal(ssse_update(params, finv, ds, req, cfg).values, want.values)
    points = erasure.ssse_grid(params, finv, ds, ds.ids[3:6], [0.0, 1.0], cfg, grad_source)
    np.testing.assert_array_equal(points[-1][0].values, want.values)


_PACKAGE = {f.__name__: f for f in (ssse_update, erasure.ssse_grid, influence_update,
                                     gradient_ascent_step, diag_scrub_update)}
_ORACLES = {name: getattr(helpers, name + "_oracle") for name in _PACKAGE}
# the influence body solves on the package's own Hessian here, so the two agree bit for
# bit; the influence tests below check that Hessian against the closed form
_ORACLES["influence_update"] = partial(helpers.influence_update_oracle, hessian=hessian_dense)


def _points(update, fns, params, finv, diag, ds, req, cfg):
    """``update`` computed by ``fns`` (the package or the oracles) as (model, step norm) pairs."""
    if update == "ssse_grid":
        grid = [e for e in (0.0, 0.5, 0.7, 1.0) if e <= req.epsilon]
        return fns["ssse_grid"](params, finv, ds, req.removed_ids, grid, cfg, req.grad_source)
    if update == "ssse":
        theta = fns["ssse_update"](params, finv, ds, req, cfg)
    elif update.startswith("influence_"):
        theta = fns["influence_update"](params, ds, req, cfg, update[len("influence_"):])
    elif update == "gradient_ascent":
        theta = fns["gradient_ascent_step"](params, ds, req.removed_ids, req.epsilon, cfg)
    else:
        noisy = replace(req, noise_sigma=0.05, noise_seed=4) if update == "scrub_noise" else req
        theta = fns["diag_scrub_update"](params, diag, ds, noisy, cfg)
    return [(theta, None)]


@pytest.mark.parametrize("epsilon", [0.0, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("grad_source", ["removed", "remaining"])
@pytest.mark.parametrize("update", ["ssse", "ssse_grid", "influence_full", "influence_lko",
                                    "gradient_ascent", "scrub", "scrub_noise"])
def test_updates_are_bit_identical_to_their_separate_bodies(update, grad_source, epsilon):
    """Each update through the shared step equals its own scale-and-check body bit for bit.

    The gradient-ascent step takes epsilon as its learning rate; the
    influence step ignores epsilon.
    """
    cfg = LossConfig(l2_coeff=0.05)
    shapes = [MultinomialLinear(n_classes=3, n_features=3), MultiAttrLinear(n_attrs=2, n_features=3)]
    if not update.startswith("influence_"):  # this MLP's Hessian is indefinite
        shapes.append(MLP(n_features=3, n_hidden=3, n_classes=3))
    for seed, shape in enumerate(shapes):
        ds = dataset_for_shape(shape, seed + 40, n=12)
        params = random_params(shape, seed + 70)
        finv = build_inverse_fisher(params, ds, cfg, 0.2, BlockSpec.from_shape(shape), 1)
        diag = diagonal_inverse_fisher(params, ds, cfg, 0.2)
        req = ErasureRequest(removed_ids=ds.ids[2:5], epsilon=epsilon, grad_source=grad_source)
        got = _points(update, _PACKAGE, params, finv, diag, ds, req, cfg)
        want = _points(update, _ORACLES, params, finv, diag, ds, req, cfg)
        assert len(got) == len(want)
        for (theta, norm), (theta_want, norm_want) in zip(got, want):
            assert np.array_equal(theta.values, theta_want.values)
            assert (theta.shape, theta.seed, norm) == (theta_want.shape, theta_want.seed, norm_want)


def test_updates_that_add_no_noise_refuse_a_noisy_request():
    shape = MultinomialLinear(n_classes=3, n_features=3)
    ds = multinomial_dataset(7, 9, 3, 3)
    cfg = LossConfig(l2_coeff=0.1)
    params = random_params(shape, 8)
    finv = build_inverse_fisher(params, ds, cfg, 0.2, BlockSpec.from_shape(shape), 1)
    req = ErasureRequest(removed_ids=ds.ids[:2], noise_sigma=0.1)
    with pytest.raises(InputError, match="noise_sigma"):
        ssse_update(params, finv, ds, req, cfg)
    for source in ("full", "lko"):
        with pytest.raises(InputError, match="noise_sigma"):
            influence_update(params, ds, req, cfg, source)


def test_stale_fisher_is_refused():
    _, ds, cfg, params, finv = _setup(seed=4)
    moved = params.with_values(params.values + 1e-9)
    with pytest.raises(StaleFisherError):
        ssse_update(moved, finv, ds, ErasureRequest(removed_ids=ds.ids[:1]), cfg)


def test_fisher_built_on_another_sample_count_is_refused():
    _, ds, cfg, params, finv = _setup(seed=4)
    fewer = ds.subset(ds.ids[:-3])
    with pytest.raises(StaleFisherError, match="samples"):
        ssse_update(params, finv, fewer, ErasureRequest(removed_ids=fewer.ids[:1]), cfg)


def test_removal_validation():
    _, ds, cfg, params, finv = _setup(seed=5)
    with pytest.raises(InputError, match="not in the dataset"):
        ssse_update(params, finv, ds, ErasureRequest(removed_ids=("ghost",)), cfg)
    with pytest.raises(InputError, match="every training sample"):
        ssse_update(params, finv, ds, ErasureRequest(removed_ids=ds.ids), cfg)


def test_request_validation():
    with pytest.raises(InputError):
        ErasureRequest(removed_ids=())
    with pytest.raises(InputError):
        ErasureRequest(removed_ids=("a", "a"))
    with pytest.raises(InputError):
        ErasureRequest(removed_ids=("a",), epsilon=-0.1)
    with pytest.raises(InputError):
        ErasureRequest(removed_ids=("a",), grad_source="elsewhere")


@pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), "3"])
def test_request_refuses_a_noise_seed_that_is_not_a_whole_number_from_zero(seed):
    with pytest.raises(InputError, match="noise_seed must be a whole number >= 0"):
        ErasureRequest(removed_ids=("a",), noise_seed=seed)


def test_request_stores_a_whole_number_noise_seed_as_an_int():
    req = ErasureRequest(removed_ids=("a",), noise_seed=np.float64(3.0))
    assert type(req.noise_seed) is int and req == ErasureRequest(removed_ids=("a",), noise_seed=3)


# ---------------------------------------------------------------------------
# Influence baselines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source", ["full", "lko"])
def test_influence_matches_dense_hessian_solve(source):
    shape = MultinomialLinear(n_classes=3, n_features=3)
    ds = multinomial_dataset(7, 9, 3, 3)
    cfg = LossConfig(l2_coeff=0.1)
    params = random_params(shape, 8)
    removed = ds.ids[:2]
    req = ErasureRequest(removed_ids=removed, epsilon=1.0)
    out = influence_update(params, ds, req, cfg, source)
    base = ds if source == "full" else ds.without(removed)
    h = hessian_dense_oracle(params, base, cfg)
    g = grad_sum(params, ds, removed, cfg)
    expected = params.values + np.linalg.solve(h, g) / (ds.n - 2)
    np.testing.assert_allclose(out.values, expected, atol=1e-9)


@pytest.mark.parametrize("source", ["full", "lko"])
def test_influence_remaining_steps_along_the_negated_retained_sum(source):
    shape = MultinomialLinear(n_classes=3, n_features=3)
    ds = multinomial_dataset(7, 9, 3, 3)
    cfg = LossConfig(l2_coeff=0.1)
    params = random_params(shape, 8)
    removed = ds.ids[:2]
    req = ErasureRequest(removed_ids=removed, grad_source="remaining")
    out = influence_update(params, ds, req, cfg, source)
    base = ds if source == "full" else ds.without(removed)
    kept = ds.without(removed)
    g = -grad_matrix(params, kept.features, kept.labels, cfg).sum(axis=0)
    h = hessian_dense_oracle(params, base, cfg)
    expected = params.values + np.linalg.solve(h, g) / (ds.n - 2)
    np.testing.assert_allclose(out.values, expected, atol=1e-9)
    removed_step = influence_update(params, ds, ErasureRequest(removed_ids=removed), cfg, source)
    assert np.abs(out.values - removed_step.values).max() > 1e-3


def test_influence_requires_l2():
    shape = MultinomialLinear(n_classes=2, n_features=2)
    ds = multinomial_dataset(9, 6, 2, 2)
    params = random_params(shape, 10)
    req = ErasureRequest(removed_ids=ds.ids[:1])
    with pytest.raises(InputError, match="l2_coeff"):
        influence_update(params, ds, req, LossConfig(), "full")


@pytest.mark.parametrize("shape", [MultinomialLinear(n_classes=3, n_features=3),
                                   MultiAttrLinear(n_attrs=2, n_features=3)],
                         ids=["multinomial", "multi-attr"])
@pytest.mark.parametrize("grad_source", ["removed", "remaining"])
@pytest.mark.parametrize("source", ["full", "lko"])
def test_influence_matches_the_closed_form_hessian_solve(shape, grad_source, source):
    ds = dataset_for_shape(shape, 36, n=12)
    cfg = LossConfig(l2_coeff=0.05)
    params = random_params(shape, 37)
    req = ErasureRequest(removed_ids=ds.ids[2:5], grad_source=grad_source)
    got = influence_update(params, ds, req, cfg, source).values
    want = helpers.influence_update_oracle(params, ds, req, cfg, source).values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("l2", [0.5, 0.01], ids=["positive-definite", "indefinite"])
@pytest.mark.parametrize("source", ["full", "lko"])
def test_influence_on_a_tiny_mlp_solves_the_finite_difference_hessian(source, l2):
    """The step is a solve on the exact Hessian, and an indefinite one is refused."""
    shape = MLP(n_features=2, n_hidden=2, n_classes=3)
    ds = multinomial_dataset(41, 12, 2, 3)
    params = random_params(shape, 40)
    cfg = LossConfig(l2_coeff=l2)
    removed = ds.ids[:2]
    base = ds if source == "full" else ds.without(removed)
    h_fd = fd_hessian(loss_of_values(shape, base, cfg), params.values, h=1e-4)
    req = ErasureRequest(removed_ids=removed)
    if l2 < 0.1:
        assert np.linalg.eigvalsh(h_fd)[0] < -0.1
        with pytest.raises(NumericError,
                           match="^Hessian solve failed: Hessian is not positive definite$"):
            influence_update(params, ds, req, cfg, source)
        return
    assert np.linalg.eigvalsh(h_fd)[0] > 0.1
    got = influence_update(params, ds, req, cfg, source).values - params.values
    want = np.linalg.solve(h_fd, grad_sum(params, ds, removed, cfg)) / (ds.n - 2)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("hessian, message", [
    (-np.eye(4), "Hessian is not positive definite"),
    (np.full((4, 4), np.nan), "Hessian has non-finite entries$"),
], ids=["indefinite", "nan"])
def test_influence_names_the_hessian_it_cannot_factor(monkeypatch, hessian, message):
    shape = MultinomialLinear(n_classes=2, n_features=2)
    ds = multinomial_dataset(9, 6, 2, 2)
    params = random_params(shape, 10)
    monkeypatch.setattr(erasure, "hessian_dense", lambda *args: hessian)
    req = ErasureRequest(removed_ids=ds.ids[:1])
    with pytest.raises(NumericError, match="Hessian solve failed: " + message):
        influence_update(params, ds, req, LossConfig(0.1), "full")


def test_influence_lko_tracks_retraining_on_a_convex_task():
    """At a tight optimum the influence step lands near the retrained model."""
    ds = make_blobs(13, 30, [(-1.5, 0.5), (1.5, -0.5)], 1.0, id_prefix="tr")
    shape = MultinomialLinear(n_classes=2, n_features=2)
    lc = LossConfig(l2_coeff=0.1)
    tc = TrainConfig(lr=0.4, epochs=3000, batch_size=ds.n, seed=2, grad_tol=1e-12)
    star = train(ds, shape, lc, tc)
    removed = tuple(ds.ids[i] for i in range(ds.n) if ds.labels[i] == 2)[:10]
    from ssse import retrain_scratch

    retrained = retrain_scratch(ds, removed, shape, lc, tc)
    req = ErasureRequest(removed_ids=removed, epsilon=1.0)
    stepped = influence_update(star.params, ds, req, lc, "lko")
    gap_before = np.linalg.norm(star.params.values - retrained.params.values)
    gap_after = np.linalg.norm(stepped.values - retrained.params.values)
    assert gap_after < 0.2 * gap_before


# ---------------------------------------------------------------------------
# Gradient ascent and diagonal scrub
# ---------------------------------------------------------------------------

def test_gradient_ascent_formula_and_zero_lr():
    _, ds, cfg, params, _ = _setup(seed=6)
    removed = ds.ids[:4]
    out = gradient_ascent_step(params, ds, removed, 0.3, cfg)
    expected = params.values + 0.3 * grad_sum(params, ds, removed, cfg) / 4
    np.testing.assert_allclose(out.values, expected, rtol=1e-12)
    frozen = gradient_ascent_step(params, ds, removed, 0.0, cfg)
    np.testing.assert_array_equal(frozen.values, params.values)


def test_gradient_ascent_refuses_repeated_or_no_ids():
    _, ds, cfg, params, _ = _setup(seed=6)
    with pytest.raises(InputError, match="unique"):
        gradient_ascent_step(params, ds, (ds.ids[0], ds.ids[0]), 0.3, cfg)
    with pytest.raises(InputError, match="nonempty"):
        gradient_ascent_step(params, ds, (), 0.3, cfg)
    with pytest.raises(InputError, match="not in the dataset"):
        gradient_ascent_step(params, ds, ("ghost",), 0.3, cfg)


def test_diag_scrub_formula_and_noise_determinism():
    _, ds, cfg, params, _ = _setup(seed=7)
    diag = diagonal_inverse_fisher(params, ds, cfg, 0.2)
    removed = ds.ids[:2]

    quiet = ErasureRequest(removed_ids=removed, epsilon=0.9)
    out = diag_scrub_update(params, diag, ds, quiet, cfg)
    g = grad_sum(params, ds, removed, cfg)
    expected = params.values + (0.9 / (ds.n - 2)) * (diag * g)
    np.testing.assert_allclose(out.values, expected, rtol=1e-12)

    noisy = ErasureRequest(removed_ids=removed, epsilon=0.9, noise_sigma=0.1, noise_seed=5)
    a = diag_scrub_update(params, diag, ds, noisy, cfg)
    b = diag_scrub_update(params, diag, ds, noisy, cfg)
    np.testing.assert_array_equal(a.values, b.values)
    other = ErasureRequest(removed_ids=removed, epsilon=0.9, noise_sigma=0.1, noise_seed=6)
    c = diag_scrub_update(params, diag, ds, other, cfg)
    assert not np.array_equal(a.values, c.values)


def test_diag_scrub_rejects_bad_diagonal():
    _, ds, cfg, params, _ = _setup(seed=8)
    req = ErasureRequest(removed_ids=ds.ids[:1])
    with pytest.raises(InputError):
        diag_scrub_update(params, np.ones(3), ds, req, cfg)
    with pytest.raises(InputError):
        diag_scrub_update(params, -np.ones(params.shape.n_params), ds, req, cfg)

"""Shared oracles and dataset builders for the test suite.

The finite-difference routines here are the independent ground truth for
every analytic gradient and Hessian in the package: they know nothing
about the model families beyond "loss is a function of a flat vector".

It also holds what only the tests call and the package does not ship:
the uniform-margin generators (``make_separable_subspace``,
``make_parallel_planes_binary``) and ``uniform_margin_ratio_check``, which
checks on their data that the Hessian is a scalar multiple of the
empirical Fisher, and ``performance_similarity``, the L1 distance between
two AUC profiles. Their inputs come only from tests, so they check none.
"""

import math
import os
import subprocess
import sys

import numpy as np

import ssse
from ssse import (
    Dataset,
    ErasureRequest,
    EvalReport,
    InputError,
    MLP,
    ModelParams,
    MultiAttrLinear,
    MultinomialLinear,
    NumericError,
    SplitData,
    StaleFisherError,
    SweepResult,
    accuracy,
    auc_per_attribute,
    grad_mean,
    loss,
    make_ids,
    mean_loss,
    normalized_confusion_distance,
    normalized_param_distance,
    predict_labels,
    predict_proba,
    ssse_update,
)
from ssse.erasure import _check_removal, _erasure_direction, _finite_params, check_epsilon_grid
from ssse.fisher import _batch_means, _cholesky, apply_inverse
from ssse.models import PROB_FLOOR, _grad_sums, _targets, _weights, params_digest


def run_fresh(code):
    """The stdout of ``code`` run by a fresh interpreter that imports this ``ssse``."""
    src = os.path.dirname(os.path.dirname(ssse.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stdout


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class ScalarSplitMix64:
    """One Python-int SplitMix64 draw at a time: the oracle for ``ssse._splitmix``."""

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform_vector(self, size, low, high):
        out = np.empty(size, dtype=np.float64)
        span = high - low
        for i in range(size):
            out[i] = low + span * ((self.next_u64() >> 11) * (1.0 / (1 << 53)))
        return out

    def shuffle(self, items):
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def fd_grad(f, x0, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        g[i] = (f(x0 + step) - f(x0 - step)) / (2.0 * h)
    return g


def fd_hessian(f, x0, h=1e-5):
    """Central-difference Hessian; only sensible for small vectors."""
    x0 = np.asarray(x0, dtype=np.float64)
    d = x0.size
    H = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(i, d):
            ej = np.zeros(d)
            ej[j] = h
            val = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4.0 * h * h)
            H[i, j] = val
            H[j, i] = val
    return H


def loss_of_values(shape, dataset, cfg):
    """Loss as a plain function of the flat parameter vector."""

    def f(values):
        return loss(ModelParams(values=values, shape=shape, seed=0), dataset, cfg)

    return f


def masked_sigmoid(z):
    """Logistic function through boolean masks: 1/(1+exp(-z)) where z >= 0, exp(z)/(1+exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# The forward and backward kernels written out of place, one fresh array per
# operation: the bit-for-bit reference for the in-place kernels.
# ---------------------------------------------------------------------------

def sigmoid_oracle(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sequential_row_sums(a):
    """(n, 1) row sums added one class at a time: ((a0 + a1) + a2) + ..."""
    total = a[:, :1]
    for j in range(1, a.shape[1]):
        total = total + a[:, j:j + 1]
    return total


def softmax_oracle(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / sequential_row_sums(e)
    p = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return p / sequential_row_sums(p)


def forward_oracle(shape, values, features):
    """Every layer's input, then the head's probabilities."""
    *hidden, head = _weights(shape, values)
    inputs = [features]
    for w in hidden:
        inputs.append(np.tanh(inputs[-1] @ w.T))
    z = inputs[-1] @ head.T
    if isinstance(shape, MultiAttrLinear):
        return inputs, np.clip(sigmoid_oracle(z), PROB_FLOOR, 1.0 - PROB_FLOOR)
    return inputs, softmax_oracle(z)


def backward_oracle(shape, values, features, targets):
    """``(start, stop, delta, layer_input)`` for each layer, last layer first, as a list."""
    inputs, p = forward_oracle(shape, values, features)
    weights = _weights(shape, values)
    delta = p - targets
    stop = shape.n_params
    out = []
    for layer in reversed(range(len(weights))):
        rows, cols = weights[layer].shape
        start = stop - rows * cols
        out.append((start, stop, delta, inputs[layer]))
        if layer:
            x = inputs[layer]
            delta = (delta @ weights[layer]) * (1.0 - x * x)
        stop = start
    return out


def binary_loss_oracle(p, labels, values, cfg):
    """The mean regularized binary loss with both logs taken, y log(p) + (1 - y) log(1 - p)."""
    y = labels.astype(np.float64)
    nll = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum(axis=1)
    return float(nll.mean() + 0.5 * cfg.l2_coeff * float(values @ values))


class OracleDiverged(Exception):
    """:func:`train_oracle`'s per-step check found non-finite parameters in ``epoch``."""

    def __init__(self, epoch):
        super().__init__(f"non-finite parameters after a step of epoch {epoch}")
        self.epoch = epoch


def train_oracle(dataset, shape, loss_cfg, cfg):
    """``train`` written plainly: two fancy-index gathers per batch, out-of-place momentum.

    The draws come from :class:`ScalarSplitMix64` and each epoch's loss and
    full gradient norm from the public ``loss`` and ``grad_mean``. Returns
    ``(theta, loss_history, final_grad_norm, epochs_run)``; every step is
    checked, and the first that leaves non-finite parameters raises
    :class:`OracleDiverged`.
    """
    stream = ScalarSplitMix64(cfg.seed)
    bound = 1.0 / np.sqrt(shape.n_features)
    theta = stream.uniform_vector(shape.n_params, -bound, bound)
    targets = _targets(shape, dataset.labels)
    velocity = np.zeros_like(theta)
    lr = cfg.lr
    schedule = dict(cfg.lr_schedule)
    order = np.arange(dataset.n, dtype=np.int64)
    history = []
    grad_norm = float("inf")
    epochs_run = 0
    for epoch in range(1, cfg.epochs + 1):
        if epoch in schedule:
            lr *= schedule[epoch]
        stream.shuffle(order)
        for start in range(0, dataset.n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            g = _grad_sums(shape, theta, dataset.features[rows], targets[rows],
                           loss_cfg.l2_coeff)[0]
            g /= rows.shape[0]
            velocity = cfg.momentum * velocity + g
            theta = theta - lr * velocity
            if not np.all(np.isfinite(theta)):
                raise OracleDiverged(epoch)
        epochs_run = epoch
        params = ModelParams(values=theta, shape=shape, seed=cfg.seed)
        history.append(loss(params, dataset, loss_cfg))
        grad_norm = float(np.linalg.norm(grad_mean(params, dataset, loss_cfg)))
        if cfg.grad_tol > 0 and grad_norm <= cfg.grad_tol:
            break
    return theta, tuple(history), grad_norm, epochs_run


def random_params(shape, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal(shape.n_params)
    return ModelParams(values=values, shape=shape, seed=seed)


def multinomial_dataset(seed, n, m, c, prefix="s"):
    """Random features, labels covering all classes when n >= c."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, m))
    labels = rng.integers(1, c + 1, size=n)
    if n >= c:
        labels[:c] = np.arange(1, c + 1)
    return Dataset(features=features, labels=labels.astype(np.int64), ids=make_ids(n, prefix))


def binary_dataset(seed, n, m, a, prefix="s"):
    """Random features with Bernoulli attribute labels, no all-constant column."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, m))
    labels = (rng.random((n, a)) < 0.5).astype(np.uint8)
    if n >= 2:
        labels[0] = 0
        labels[1] = 1
    return Dataset(features=features, labels=labels, ids=make_ids(n, prefix))


def select_oracle(dataset, ids, keep):
    """``subset`` (keep=True) or ``without`` (keep=False) by one scan over every id."""
    chosen = set(ids)
    rows = [i for i, s in enumerate(dataset.ids) if (s in chosen) is keep]
    idx = np.asarray(rows, dtype=np.int64)
    return Dataset(
        features=dataset.features[idx],
        labels=dataset.labels[idx],
        ids=tuple(dataset.ids[i] for i in rows),
    )


def random_shape(rng):
    """One of the three model families with small random dimensions."""
    pick = rng.integers(0, 3)
    m = int(rng.integers(2, 5))
    if pick == 0:
        return MultiAttrLinear(n_attrs=int(rng.integers(1, 4)), n_features=m)
    if pick == 1:
        return MultinomialLinear(n_classes=int(rng.integers(2, 5)), n_features=m)
    return MLP(n_features=m, n_hidden=int(rng.integers(2, 4)), n_classes=int(rng.integers(2, 4)))


def dataset_for_shape(shape, seed, n):
    if isinstance(shape, MultiAttrLinear):
        return binary_dataset(seed, n, shape.n_features, shape.n_attrs)
    return multinomial_dataset(seed, n, shape.n_features, shape.n_classes)


def dense_fisher(params, dataset, cfg, dampening):
    """Dampened empirical Fisher built the direct way: lam*I + mean(g g^T)."""
    from ssse import grad_matrix

    g = grad_matrix(params, dataset.features, dataset.labels, cfg)
    d = params.shape.n_params
    return dampening * np.eye(d) + (g.T @ g) / dataset.n


def dense_fisher_inverse(params, dataset, cfg, dampening):
    return np.linalg.inv(dense_fisher(params, dataset, cfg, dampening))


def hessian_dense_oracle(params, dataset, cfg):
    """The linear families' dense Hessian of the mean regularized loss in closed form.

    The multinomial data term is ``mean_i kron(diag(p_i) - p_i p_i^T, x_i x_i^T)``
    and the multi-attribute data term is block-diagonal with blocks
    ``mean_i p_ij (1 - p_ij) x_i x_i^T``.
    """
    shape = params.shape
    assert not isinstance(shape, MLP), "no closed form for the MLP"
    d = shape.n_params
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
    return h + cfg.l2_coeff * np.eye(d)


def dense_block(finv, i):
    """Block ``i`` of an inverse Fisher as a dense matrix.

    The blocks are stored as factors, so the block is formed by applying
    the estimate to the identity columns of its index interval.
    """
    from ssse import apply_inverse

    lo, hi = finv.spec.ranges[i]
    columns = []
    for j in range(lo, hi):
        unit = np.zeros(finv.n_params)
        unit[j] = 1.0
        columns.append(apply_inverse(finv, unit)[lo:hi])
    return np.column_stack(columns)


def apply_inverse_oracle(finv, v):
    """``fisher.apply_inverse`` one block at a time: two mat-vecs with each factor."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    for block, (lo, hi) in zip(finv.blocks, finv.spec.ranges):
        x = v[lo:hi]
        y = block.T @ (block @ x)
        out[lo:hi] = (x - y) / finv.dampening if block.shape[0] < hi - lo else y
    return out


def primal_factor_oracle(gram, count, dampening):
    """One primal factor W = L^{-1}, where L L^T = dampening * I + gram / count."""
    f = gram / count
    f.flat[::f.shape[0] + 1] += dampening
    return np.tril(np.linalg.solve(np.linalg.cholesky(f), np.eye(f.shape[0])))


def dual_factor_oracle(rows, dampening):
    """One dual factor Z = L^{-1} rows, where L L^T = rows rows^T + count * dampening * I."""
    count = rows.shape[0]
    k = rows @ rows.T
    k.flat[::count + 1] += count * dampening
    return np.linalg.inv(np.linalg.cholesky(k)) @ rows


def per_block_factors(params, dataset, cfg, dampening, spec, batch_size):
    """``fisher.build_inverse_fisher``'s factors one block at a time, from its own batch means."""
    count = math.ceil(dataset.n / batch_size)
    dual = [count < hi - lo for lo, hi in spec.ranges]
    acc = [np.empty((count, hi - lo)) if is_dual else np.zeros((hi - lo, hi - lo))
           for is_dual, (lo, hi) in zip(dual, spec.ranges)]
    row = 0
    for means in _batch_means(params, dataset, cfg, batch_size):
        for a, is_dual, (lo, hi) in zip(acc, dual, spec.ranges):
            g_b = means[:, lo:hi]
            if is_dual:
                a[row:row + means.shape[0]] = g_b
            else:
                a += g_b.T @ g_b
        row += means.shape[0]
    return [dual_factor_oracle(a, dampening) if is_dual
            else primal_factor_oracle(a, count, dampening) for a, is_dual in zip(acc, dual)]


def batch_means_oracle(params, dataset, cfg, batch_size):
    """``fisher._batch_means`` from ``grad_matrix`` rows of id-ordered chunks, by ``reduceat``."""
    from ssse import grad_matrix

    chunk = batch_size * max(1, 512 // batch_size)
    ordered = dataset.sorted_by_id()
    for lo in range(0, ordered.n, chunk):
        g = grad_matrix(params, ordered.features[lo:lo + chunk], ordered.labels[lo:lo + chunk], cfg)
        if batch_size == 1:
            yield g
            continue
        starts = np.arange(0, g.shape[0], batch_size)
        means = np.add.reduceat(g, starts, axis=0)
        means /= np.minimum(batch_size, g.shape[0] - starts)[:, None]
        yield means


def evaluation_oracle(theta_hat, epsilon, theta_star, theta_retrain, split_data, loss_cfg):
    """One sweep report row from the public metric functions, each with its own forward passes."""
    removed = split_data.removed
    gamma = delta = auc_removed = None
    if removed.kind == "binary":
        gamma = similarity_ratio_oracle(theta_hat, theta_star, theta_retrain, removed)
        auc_removed = tuple(float(v) for v in auc_per_attribute_oracle(theta_hat, removed))
    else:
        delta = normalized_confusion_distance(theta_hat, theta_star, theta_retrain, removed)
    return EvalReport(
        epsilon=float(epsilon),
        acc_lko_train=accuracy(theta_hat, split_data.lko_train),
        acc_removed=accuracy(theta_hat, removed),
        acc_lko_test=accuracy(theta_hat, split_data.lko_test),
        acc_removed_test=accuracy(theta_hat, split_data.removed_test),
        loss_lko_train=mean_loss(theta_hat, split_data.lko_train, loss_cfg),
        loss_removed=mean_loss(theta_hat, removed, loss_cfg),
        loss_lko_test=mean_loss(theta_hat, split_data.lko_test, loss_cfg),
        loss_removed_test=mean_loss(theta_hat, split_data.removed_test, loss_cfg),
        gamma=gamma,
        delta=delta,
        param_dist=normalized_param_distance(theta_hat, theta_star, theta_retrain),
        grad_norm_lko=float(np.linalg.norm(grad_mean(theta_hat, split_data.lko_train, loss_cfg))),
        auc_removed=auc_removed,
    )


def roc_auc_oracle(scores, labels):
    """Mann-Whitney ROC AUC of one score vector, from a stable sort and explicit tie runs.

    Each tie run spans sorted positions [start, end) and every member gets
    the mean rank (start + end + 1) / 2. A split without a positive or a
    negative scores 0; non-finite scores raise InputError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be matching vectors")
    if not np.all(np.isfinite(scores)):
        raise InputError("scores must be finite")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return 0.0
    order = np.argsort(scores, kind="stable")
    xs = scores[order]
    cuts = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [scores.size]))
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_per_attribute_oracle(params, dataset):
    """:func:`roc_auc_oracle` of each attribute head, one column at a time."""
    p = predict_proba(params, dataset.features)
    return np.array([roc_auc_oracle(p[:, j], dataset.labels[:, j]) for j in range(p.shape[1])])


def similarity_ratio_oracle(theta_hat, theta_star, theta_retrain, samples):
    """gamma = D(hat, star) / (D(hat, star) + D(hat, retrain)) from the oracle AUC profiles.

    Two zero distances give 0.5.
    """
    hat, star, retrain = (auc_per_attribute_oracle(t, samples)
                          for t in (theta_hat, theta_star, theta_retrain))
    to_retrain = float(np.abs(hat - star).sum())
    total = to_retrain + float(np.abs(hat - retrain).sum())
    return 0.5 if total == 0.0 else to_retrain / total


def performance_similarity(a, b, samples):
    """L1 distance between the two models' per-attribute AUC profiles."""
    return float(np.abs(auc_per_attribute(a, samples) - auc_per_attribute(b, samples)).sum())


def confusion_matrix_oracle(params, dataset):
    """Confusion counts through ``np.add.at``: true classes as rows, predictions as columns."""
    c = params.shape.n_classes
    cm = np.zeros((c, c), dtype=np.int64)
    np.add.at(cm, (dataset.labels - 1, predict_labels(params, dataset.features) - 1), 1)
    return cm


def sweep_oracle(theta_star, finv, train, test, splits, grid, criterion, theta_retrain, loss_cfg):
    """The epsilon sweep one grid point at a time: its own ssse_update, then evaluation_oracle.

    The best epsilon is the first one with the largest gamma (max_gamma)
    or the smallest delta (min_delta).
    """
    split_data = SplitData.from_splits(train, test, splits)
    reports = []
    for eps in grid:
        req = ErasureRequest(removed_ids=splits.removed, epsilon=eps)
        theta_hat = ssse_update(theta_star, finv, train, req, loss_cfg)
        reports.append(
            evaluation_oracle(theta_hat, eps, theta_star, theta_retrain, split_data, loss_cfg)
        )
    if criterion == "max_gamma":
        best = max(range(len(grid)), key=lambda i: (reports[i].gamma, -i))
    else:
        best = min(range(len(grid)), key=lambda i: (reports[i].delta, i))
    return SweepResult(criterion=criterion, best_epsilon=float(grid[best]), reports=tuple(reports))


# ---------------------------------------------------------------------------
# Uniform-margin data, where the data-term Hessian is a scalar multiple of the
# empirical Fisher, and the per-sample check of that multiple
# ---------------------------------------------------------------------------

_MARGIN_RESIDUAL_TOL = 1e-9


def _rank_c_matrix(rng, c, m):
    """The first of up to eight standard-normal c x m draws that has full rank c."""
    for _ in range(8):
        w = rng.standard_normal((c, m))
        sv = np.linalg.svd(w, compute_uv=False)
        if sv[-1] > 1e-8 * sv[0]:
            return w
    raise AssertionError("could not draw a full-rank weight matrix")


def make_separable_subspace(c, m, eps_margin, n_per_class, seed, id_prefix=""):
    """Softmax dataset where every sample has the same classification margin.

    Returns a rank-c weight matrix theta (m > c) and samples placed on the
    affine subspaces where the logits hit the exact target pattern: the
    true class gets probability 1 - (c-1) eps and every other class eps.
    Data within a class therefore varies only along the (m - c)-dimensional
    null space of theta.
    """
    rng = np.random.default_rng(seed)
    theta = _rank_c_matrix(rng, c, m)
    _, _, vt = np.linalg.svd(theta, full_matrices=True)
    null_basis = vt[c:].T
    pinv = np.linalg.pinv(theta)

    rows = []
    labels = []
    for cls in range(c):
        pattern = np.full(c, eps_margin)
        pattern[cls] = 1.0 - (c - 1) * eps_margin
        x0 = pinv @ np.log(pattern)
        offsets = rng.standard_normal((n_per_class, m - c))
        rows.append(x0 + offsets @ null_basis.T)
        labels.extend([cls + 1] * n_per_class)
    features = np.vstack(rows)
    dataset = Dataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        ids=make_ids(c * n_per_class, id_prefix),
    )
    params = ModelParams(
        values=theta.reshape(-1), shape=MultinomialLinear(n_classes=c, n_features=m)
    )
    probs = predict_proba(params, dataset.features)
    wrong = 1.0 - probs[np.arange(dataset.n), dataset.labels - 1]
    residual = float(np.abs(wrong / (c - 1) - eps_margin).max())
    assert residual <= _MARGIN_RESIDUAL_TOL, f"margin construction residual {residual:.3e}"
    return dataset, params


def make_parallel_planes_binary(m, eps_margin, n_per_class, seed, id_prefix=""):
    """Single sigmoid head with |p - y| = eps on every sample.

    Positive and negative samples sit on two parallel hyperplanes where
    the logit equals +/- log((1 - eps) / eps), varying freely along the
    (m - 1)-dimensional orthogonal complement of the weight vector.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    logit = math.log((1.0 - eps_margin) / eps_margin)
    _, _, vt = np.linalg.svd(w[None, :], full_matrices=True)
    null_basis = vt[1:].T

    rows = []
    labels = []
    for y, sign in ((1, 1.0), (0, -1.0)):
        base = sign * logit * w
        offsets = rng.standard_normal((n_per_class, m - 1))
        rows.append(base + offsets @ null_basis.T)
        labels.extend([y] * n_per_class)
    features = np.vstack(rows)
    dataset = Dataset(
        features=features,
        labels=np.asarray(labels, dtype=np.uint8).reshape(-1, 1),
        ids=make_ids(2 * n_per_class, id_prefix),
    )
    params = ModelParams(values=w.copy(), shape=MultiAttrLinear(n_attrs=1, n_features=m))
    probs = predict_proba(params, dataset.features)[:, 0]
    residual = float(np.abs(np.abs(probs - dataset.labels[:, 0]) - eps_margin).max())
    assert residual <= _MARGIN_RESIDUAL_TOL, f"margin construction residual {residual:.3e}"
    return dataset, params


def uniform_margin_ratio_check(params, dataset):
    """(mean deviation, max deviation, rho, margin spread) of H against rho times the Fisher.

    Under a common margin eps (softmax: every wrong class at eps; one
    sigmoid head: |p - y| = eps) the data-term Hessian of a linear model is
    rho times the empirical Fisher on the entries where the Fisher carries
    its mass, with rho = 1 / ((c-1) eps) for softmax and (1 - eps) / eps
    for the head, eps being the mean margin. Per sample the feature outer
    product cancels, leaving the class factor diag(p) - p p^T against rho
    r r^T with r = p - onehot(y); the head has r = p - y and c = 1, so it
    compares p - p^2 with rho r^2. Entries below max |r r^T| / c are
    dropped: that is the rank-deficient residual the rank-one r r^T cannot
    represent. Deviations are relative to rho r r^T, and the spread is the
    largest margin's distance from eps, relative to eps.
    """
    p = predict_proba(params, dataset.features)
    if isinstance(params.shape, MultiAttrLinear):
        c, r = 1, p - dataset.labels
        eps_i = np.abs(r[:, 0])
        margin = float(eps_i.mean())
        rho = (1.0 - margin) / margin
    else:
        c = params.shape.n_classes
        y_idx = dataset.labels - 1
        eps_i = (1.0 - p[np.arange(dataset.n), y_idx]) / (c - 1)
        margin = float(eps_i.mean())
        rho = 1.0 / (margin * (c - 1))
        r = p.copy()
        r[np.arange(dataset.n), y_idx] -= 1.0
    devs = []
    for pi, ri in zip(p, r):
        a = np.diag(pi) - np.outer(pi, pi)
        g = np.outer(ri, ri)
        keep = np.abs(g) >= np.abs(g).max() / c
        pred = rho * g[keep]
        devs.append(np.abs(a[keep] - pred) / np.abs(pred))
    devs = np.concatenate(devs)
    spread = float(np.abs(eps_i - margin).max() / margin)
    return float(devs.mean()), float(devs.max()), rho, spread


# ---------------------------------------------------------------------------
# The erasure updates as separate bodies, each with its own scale, zero-scale
# shortcut and finite check: the bit-for-bit reference for the shared step.
# ---------------------------------------------------------------------------

def _ssse_direction_oracle(theta_star, finv, dataset, req, cfg):
    if finv.built_at_digest != params_digest(theta_star):
        raise StaleFisherError("inverse Fisher was built at different parameters than supplied")
    if finv.n_samples != dataset.n:
        raise StaleFisherError(
            f"inverse Fisher was built on {finv.n_samples} samples, dataset has {dataset.n}"
        )
    if finv.n_params != theta_star.shape.n_params:
        raise InputError("inverse Fisher size does not match the parameter vector")
    rows = _check_removal(dataset, req.removed_ids)
    kept = dataset.n - len(rows)
    if req.epsilon / kept == 0.0:
        return None, kept
    g = _erasure_direction(theta_star, dataset, rows, req.grad_source, cfg)
    return apply_inverse(finv, g), kept


def _ssse_at_oracle(theta_star, v, kept, epsilon):
    scale = epsilon / kept
    if scale == 0.0:
        return theta_star.with_values(theta_star.values), None
    step = scale * v
    return _finite_params(theta_star, theta_star.values + step, "ssse update"), step


def ssse_update_oracle(theta_star, finv, dataset, req, cfg):
    v, kept = _ssse_direction_oracle(theta_star, finv, dataset, req, cfg)
    return _ssse_at_oracle(theta_star, v, kept, req.epsilon)[0]


def ssse_grid_oracle(theta_star, finv, dataset, removed_ids, grid, cfg, grad_source="removed"):
    grid = check_epsilon_grid(grid)
    req = ErasureRequest(removed_ids=removed_ids, epsilon=grid[-1], grad_source=grad_source)
    v, kept = _ssse_direction_oracle(theta_star, finv, dataset, req, cfg)
    points = []
    for eps in grid:
        theta_hat, step = _ssse_at_oracle(theta_star, v, kept, eps)
        points.append((theta_hat, 0.0 if step is None else float(np.linalg.norm(step))))
    return points


def influence_update_oracle(theta_star, dataset, req, cfg, hessian_source="full",
                            hessian=hessian_dense_oracle):
    """The influence step as a Cholesky solve on ``hessian`` (the closed form by default)."""
    rows = _check_removal(dataset, req.removed_ids)
    base = dataset if hessian_source == "full" else dataset.without(req.removed_ids)
    h = hessian(theta_star, base, cfg)
    g = _erasure_direction(theta_star, dataset, rows, req.grad_source, cfg)
    try:
        lower = _cholesky(h, "Hessian")
    except NumericError as exc:
        raise NumericError(f"Hessian solve failed: {exc}") from exc
    step = np.linalg.solve(lower.T, np.linalg.solve(lower, g))
    values = theta_star.values + step / (dataset.n - len(rows))
    return _finite_params(theta_star, values, "influence update")


def gradient_ascent_step_oracle(theta_star, dataset, removed_ids, lr, cfg):
    ids = ErasureRequest(removed_ids=removed_ids).removed_ids
    rows = _check_removal(dataset, ids)
    if lr == 0.0:
        return theta_star.with_values(theta_star.values)
    g = _erasure_direction(theta_star, dataset, rows, "removed", cfg)
    values = theta_star.values + lr * (g / len(rows))
    return _finite_params(theta_star, values, "gradient ascent step")


def diag_scrub_update_oracle(theta_star, diag_finv, dataset, req, cfg):
    rows = _check_removal(dataset, req.removed_ids)
    scale = req.epsilon / (dataset.n - len(rows))
    if scale == 0.0 and req.noise_sigma == 0.0:
        return theta_star.with_values(theta_star.values)
    values = theta_star.values.copy()
    if scale != 0.0:
        g = _erasure_direction(theta_star, dataset, rows, req.grad_source, cfg)
        values = values + scale * (diag_finv * g)
    if req.noise_sigma > 0.0:
        rng = np.random.default_rng(req.noise_seed)
        values = values + req.noise_sigma * np.sqrt(diag_finv) * rng.standard_normal(values.shape)
    return _finite_params(theta_star, values, "diagonal scrub update")


__all__ = [
    "ScalarSplitMix64",
    "auc_per_attribute_oracle",
    "backward_oracle",
    "binary_dataset",
    "confusion_matrix_oracle",
    "dataset_for_shape",
    "dense_block",
    "dense_fisher",
    "dense_fisher_inverse",
    "diag_scrub_update_oracle",
    "evaluation_oracle",
    "fd_grad",
    "fd_hessian",
    "forward_oracle",
    "gradient_ascent_step_oracle",
    "hessian_dense_oracle",
    "influence_update_oracle",
    "loss_of_values",
    "make_parallel_planes_binary",
    "make_separable_subspace",
    "masked_sigmoid",
    "multinomial_dataset",
    "performance_similarity",
    "random_params",
    "random_shape",
    "roc_auc_oracle",
    "sequential_row_sums",
    "sigmoid_oracle",
    "similarity_ratio_oracle",
    "softmax_oracle",
    "ssse_grid_oracle",
    "ssse_update_oracle",
    "sweep_oracle",
    "uniform_margin_ratio_check",
]

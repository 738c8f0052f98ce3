"""Shared oracles and dataset builders for the test suite.

The finite-difference routines here are the independent ground truth for
every analytic gradient and Hessian in the package: they know nothing
about the model families beyond "loss is a function of a flat vector".
"""

import numpy as np

from ssse import (
    Dataset,
    ErasureRequest,
    EvalReport,
    LossConfig,
    MLP,
    ModelParams,
    MultiAttrLinear,
    MultinomialLinear,
    SplitData,
    SweepResult,
    accuracy,
    auc_per_attribute,
    grad_mean,
    loss,
    make_ids,
    mean_loss,
    normalized_confusion_distance,
    normalized_param_distance,
    similarity_ratio,
    ssse_update,
)


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


def evaluation_oracle(theta_hat, epsilon, theta_star, theta_retrain, split_data, loss_cfg):
    """One sweep report row from the public metric functions, each with its own forward passes."""
    removed = split_data.removed
    gamma = delta = auc_removed = None
    if removed.kind == "binary":
        gamma = similarity_ratio(theta_hat, theta_star, theta_retrain, removed)
        auc_removed = tuple(float(v) for v in auc_per_attribute(theta_hat, removed))
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


__all__ = [
    "ScalarSplitMix64",
    "binary_dataset",
    "dataset_for_shape",
    "dense_block",
    "dense_fisher",
    "dense_fisher_inverse",
    "evaluation_oracle",
    "fd_grad",
    "fd_hessian",
    "loss_of_values",
    "masked_sigmoid",
    "multinomial_dataset",
    "random_params",
    "random_shape",
    "sweep_oracle",
]

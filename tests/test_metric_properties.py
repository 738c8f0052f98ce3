"""Property tests for the evaluation metrics.

Each invariant runs 200 generated instances. Model-level properties key
the instance off a drawn seed so hypothesis explores distinct problems
without paying for elementwise draws.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import auc_per_attribute_oracle, roc_auc_oracle, similarity_ratio_oracle
from ssse import (
    Dataset,
    GridSpec,
    ModelParams,
    MultinomialLinear,
    accuracy,
    auc_per_attribute,
    boundary_disagreement,
    confusion_distance,
    confusion_matrix,
    make_ids,
    normalized_confusion_distance,
    normalized_param_distance,
    roc_auc,
    similarity_ratio,
)
from ssse.evaluation import _aucs
from ssse.models import MultiAttrLinear

EXAMPLES = settings(max_examples=200, deadline=None)

finite_floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def scores_and_labels(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    scores = np.array(draw(st.lists(finite_floats, min_size=n, max_size=n)))
    if draw(st.booleans()):
        scores = np.round(scores, 1)  # provoke ties
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return scores, labels


@st.composite
def score_matrix_and_labels(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    a = draw(st.integers(min_value=1, max_value=6))
    # a few shared values, signed zeros among them, provoke ties within a column
    elements = st.one_of(finite_floats, st.sampled_from([-0.0, 0.0, 0.5, 1.0]))
    scores = draw(arrays(np.float64, (n, a), elements=elements))
    labels = draw(arrays(np.int64, (n, a), elements=st.integers(-1, 2)))
    return scores, labels


@st.composite
def multinomial_instance(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    m = draw(st.integers(min_value=2, max_value=4))
    c = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=c, max_value=30))
    rng = np.random.default_rng(seed)
    shape = MultinomialLinear(n_classes=c, n_features=m)
    features = rng.standard_normal((n, m))
    labels = rng.integers(1, c + 1, size=n)
    labels[:c] = np.arange(1, c + 1)
    ds = Dataset(features=features, labels=labels.astype(np.int64), ids=make_ids(n))
    models = tuple(
        ModelParams(values=rng.normal(scale=1.5, size=shape.n_params), shape=shape)
        for _ in range(3)
    )
    return ds, models


@st.composite
def binary_instance(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    m = draw(st.integers(min_value=2, max_value=4))
    a = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=4, max_value=30))
    rng = np.random.default_rng(seed)
    shape = MultiAttrLinear(n_attrs=a, n_features=m)
    features = rng.standard_normal((n, m))
    labels = (rng.random((n, a)) < 0.5).astype(np.uint8)
    ds = Dataset(features=features, labels=labels, ids=make_ids(n))
    models = tuple(
        ModelParams(values=rng.normal(scale=1.5, size=shape.n_params), shape=shape)
        for _ in range(3)
    )
    return ds, models


# ---------------------------------------------------------------------------
# ROC AUC
# ---------------------------------------------------------------------------

@EXAMPLES
@given(scores_and_labels())
def test_auc_stays_in_unit_interval(case):
    scores, labels = case
    assert 0.0 <= roc_auc(scores, labels) <= 1.0


@EXAMPLES
@given(scores_and_labels())
def test_auc_label_flip_complements(case):
    scores, labels = case
    if labels.min() == labels.max():
        return  # degenerate case pins both sides to the 0.0 convention
    assert roc_auc(scores, 1 - labels) == pytest.approx(
        1.0 - roc_auc(scores, labels), abs=1e-12
    )


@EXAMPLES
@given(scores_and_labels(), st.floats(0.1, 10.0), finite_floats)
def test_auc_invariant_under_increasing_affine_maps(case, slope, shift):
    scores, labels = case
    mapped = slope * scores + shift
    # rounding can merge nearly-equal scores; the invariant is about rank
    # structure, so only keep instances where the map preserved it
    assume(np.unique(mapped).size == np.unique(scores).size)
    assert roc_auc(mapped, labels) == roc_auc(scores, labels)


@EXAMPLES
@given(score_matrix_and_labels())
def test_aucs_equal_the_oracle_bit_for_bit(case):
    scores, labels = case
    want = [roc_auc_oracle(scores[:, j], labels[:, j]).hex() for j in range(scores.shape[1])]
    assert [v.hex() for v in _aucs(scores, labels).tolist()] == want


@EXAMPLES
@given(binary_instance())
def test_auc_profile_and_gamma_equal_the_oracle(case):
    ds, (hat, star, retrain) = case
    got, want = auc_per_attribute(hat, ds), auc_per_attribute_oracle(hat, ds)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert (similarity_ratio(hat, star, retrain, ds).hex()
            == similarity_ratio_oracle(hat, star, retrain, ds).hex())


# ---------------------------------------------------------------------------
# Ratio metrics
# ---------------------------------------------------------------------------

@EXAMPLES
@given(multinomial_instance())
def test_param_distance_bounds_and_complement(case):
    _, (hat, star, retrain) = case
    d = normalized_param_distance(hat, star, retrain)
    assert 0.0 <= d <= 1.0
    # swapping the two reference models complements the ratio
    assert d + normalized_param_distance(hat, retrain, star) == pytest.approx(1.0, abs=1e-12)
    assert normalized_param_distance(retrain, star, retrain) == 0.0
    assert normalized_param_distance(hat, hat, hat) == 0.5


@EXAMPLES
@given(multinomial_instance())
def test_confusion_metrics_invariants(case):
    ds, (hat, star, retrain) = case
    cm = confusion_matrix(hat, ds)
    assert cm.sum() == ds.n
    counts = np.bincount(ds.labels, minlength=hat.shape.n_classes + 1)[1:]
    np.testing.assert_array_equal(cm.sum(axis=1), counts)

    cm_star = confusion_matrix(star, ds)
    cm_retrain = confusion_matrix(retrain, ds)
    d_sr = confusion_distance(cm_star, cm_retrain)
    assert d_sr == confusion_distance(cm_retrain, cm_star)
    assert d_sr % 2 == 0
    assert d_sr <= confusion_distance(cm_star, cm) + confusion_distance(cm, cm_retrain)

    delta = normalized_confusion_distance(hat, star, retrain, ds)
    assert 0.0 <= delta <= 1.0
    assert normalized_confusion_distance(retrain, star, retrain, ds) in (0.0, 0.5)


@EXAMPLES
@given(binary_instance())
def test_similarity_ratio_bounds_and_anchors(case):
    ds, (hat, star, retrain) = case
    gamma = similarity_ratio(hat, star, retrain, ds)
    assert 0.0 <= gamma <= 1.0
    assert similarity_ratio(star, star, retrain, ds) in (0.0, 0.5)
    assert similarity_ratio(retrain, star, retrain, ds) in (1.0, 0.5)


@EXAMPLES
@given(multinomial_instance())
def test_accuracy_bounds(case):
    ds, (hat, _, _) = case
    assert 0.0 <= accuracy(hat, ds) <= 1.0


# ---------------------------------------------------------------------------
# Boundary disagreement
# ---------------------------------------------------------------------------

@EXAMPLES
@given(st.integers(0, 2**32 - 1))
def test_boundary_disagreement_symmetric_zero_on_self(seed):
    rng = np.random.default_rng(seed)
    shape = MultinomialLinear(n_classes=int(rng.integers(2, 4)), n_features=2)
    a = ModelParams(values=rng.standard_normal(shape.n_params), shape=shape)
    b = ModelParams(values=rng.standard_normal(shape.n_params), shape=shape)
    grid = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=7, ny=7)
    assert boundary_disagreement(a, a, grid) == 0.0
    d = boundary_disagreement(a, b, grid)
    assert 0.0 <= d <= 1.0
    assert d == boundary_disagreement(b, a, grid)

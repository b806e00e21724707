"""Row-index subgroups: fitting and estimating on ``(data, idx)`` equals
doing so on the copied rows ``(data.take(idx), arange(len(idx)))``, exactly,
for any index order and any duplicates. This is what lets the bootstrap
estimate a replicate on its resampled indices without copying the data."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from efftree.data import Categorical, Continuous, Dataset, Ordinal, Schema
from efftree.estimators import EstimatorKind, NuisanceModels, contributions, node_effect
from efftree.glm import FitError, fit_logistic, fit_ols, parse_spec

N = 60


def mixed_data():
    rng = np.random.default_rng(91)
    schema = Schema(
        (("x1", Continuous()), ("x2", Continuous()),
         ("c", Categorical(("A", "B", "C", "D"))), ("g", Ordinal(("lo", "mid", "hi")))),
        treatment="A", outcome="Y",
    )
    covariates = {"x1": rng.standard_normal(N), "x2": rng.standard_normal(N),
                  "c": rng.integers(0, 4, N), "g": rng.integers(0, 3, N)}
    return Dataset(schema, covariates, rng.integers(0, 2, N), rng.standard_normal(N))


DATA = mixed_data()
OUTCOME_SPEC = parse_spec(
    "1 + A + x1 + c + g + exp(x2) + cube(x1) + gt(x2,0.1) + in(c,B,D)"
    " + A:x2 + A:exp(x1) + A:cube(x2) + A:in(c,A,C)", "A")
PROPENSITY_SPEC = parse_spec("1 + x1 + exp(x2) + in(c,B,D)", "A")
MODELS = NuisanceModels(
    propensity=fit_logistic(DATA, np.arange(N), PROPENSITY_SPEC),
    outcome=fit_ols(DATA, np.arange(N), OUTCOME_SPEC),
)

row_indices = st.lists(st.integers(0, N - 1), min_size=30, max_size=3 * N).map(
    lambda idx: np.array(idx, dtype=np.intp))


def on_rows_and_on_copy(fn, idx):
    """``fn(data, rows)`` on the indexed rows and on a copy of them; a
    FitError counts as a result, so both sides must raise it alike."""
    results = []
    for data, rows in ((DATA, idx), (DATA.take(idx), np.arange(len(idx)))):
        try:
            results.append(fn(data, rows))
        except FitError as err:
            results.append(("FitError", str(err)))
    return results


@given(row_indices)
def test_fit_ols_on_rows_equals_fit_on_copied_rows(idx):
    a, b = on_rows_and_on_copy(lambda d, r: fit_ols(d, r, OUTCOME_SPEC), idx)
    if isinstance(a, tuple):
        assert a == b
        return
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(a.kept, b.kept)
    assert np.array_equal(a.dropped, b.dropped)


@given(row_indices)
def test_fit_logistic_on_rows_equals_fit_on_copied_rows(idx):
    a, b = on_rows_and_on_copy(lambda d, r: fit_logistic(d, r, PROPENSITY_SPEC), idx)
    if isinstance(a, tuple):
        assert a == b
        return
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.iterations == b.iterations


@given(row_indices, st.sampled_from(list(EstimatorKind)))
def test_contributions_on_rows_equal_contributions_on_copied_rows(idx, kind):
    a, b = on_rows_and_on_copy(lambda d, r: contributions(kind, d, r, MODELS), idx)
    for field in ("A", "Y", "e", "g1", "g0", "zdiff", "d1", "d0", "delta"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None and y is None) or np.array_equal(x, y), field
    ea, eb = node_effect(kind, a), node_effect(kind, b)
    assert (ea.mu1, ea.mu0, ea.effect, ea.n, ea.n_treated, ea.second_moment) == (
        eb.mu1, eb.mu0, eb.effect, eb.n, eb.n_treated, eb.second_moment)
    assert np.array_equal(ea.influence, eb.influence)

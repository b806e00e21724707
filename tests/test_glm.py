import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from efftree.data import Categorical, Continuous, Dataset, Ordinal, Schema
from efftree.glm import (
    IRLS_MAX_ITER,
    IRLS_TOL,
    Design,
    FitError,
    _pivoted_qr,
    _root_design,
    check_factor,
    fit_logistic,
    fit_ols,
    parse_spec,
    predict_mean,
)
from efftree.simulate import SimSetting, generate
from oracle import take


def make_data(x: dict, A, Y) -> Dataset:
    schema = Schema(
        tuple((name, Continuous()) for name in x),
        treatment="A",
        outcome="Y",
    )
    return Dataset(schema, {k: np.asarray(v, dtype=float) for k, v in x.items()},
                   np.asarray(A), np.asarray(Y, dtype=float))


def full(data):
    return np.arange(data.n)


# ---------------------------------------------------------------- grammar


def test_parse_round_trip():
    text = "1 + A + lt(x1,0) + exp(x2) + A:gt(x4,0) + cube(x5)"
    spec = parse_spec(text, "A")
    assert spec.to_string("A") == text
    assert [t.kind for t in spec.terms] == [
        "intercept", "treatment", "factor", "factor", "interaction", "factor"]


def test_parse_adds_intercept():
    spec = parse_spec("x1 + A", "A")
    assert spec.terms[0].kind == "intercept"
    assert len(spec.terms) == 3


def test_parse_rejects_duplicate_intercept():
    with pytest.raises(ValueError):
        parse_spec("1 + 1 + x1", "A")


def test_parse_rejects_non_treatment_interaction():
    with pytest.raises(ValueError):
        parse_spec("x1:x2", "A")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spec("1 + what(x1)", "A")


MIXED_SCHEMA = Schema((("x1", Continuous()), ("site", Categorical(("red", "blue"))),
                       ("grade", Ordinal(("lo", "hi")))), treatment="A", outcome="Y")


@pytest.mark.parametrize("term, message", [
    ("zz", "unknown column 'zz'"),
    ("Y", "unknown column 'Y'"),
    ("in(x1,a)", "in\\(\\) requires a categorical or ordinal column"),
    ("exp(site)", "exp\\(\\) requires a continuous column"),
    ("gt(grade,1)", "gt\\(\\) requires a continuous column"),
    ("in(site,red,pink)", "unknown level 'pink'"),
])
def test_check_factor_rejects_a_factor_that_does_not_fit_the_schema(term, message):
    factor = parse_spec(term, "A").terms[1].factor
    with pytest.raises(ValueError, match=message):
        check_factor(factor, MIXED_SCHEMA)
    data = Dataset(MIXED_SCHEMA, {"x1": np.zeros(2), "site": np.array([0, 1]),
                                  "grade": np.array([1, 0])}, np.array([0, 1]), np.zeros(2))
    with pytest.raises(ValueError, match=message):
        Design(data, full(data), parse_spec(term, "A"))


def test_check_factor_accepts_every_transform_on_its_kind():
    spec = parse_spec("1 + A + x1 + exp(x1) + cube(x1) + lt(x1,0) + A:gt(x1,0) + site"
                      " + grade + in(site,blue) + A:in(grade,lo,hi)", "A")
    for term in spec.terms:
        if term.factor is not None:
            check_factor(term.factor, MIXED_SCHEMA)


# ---------------------------------------------------------------- OLS


def test_fit_ols_intercept_only_is_mean():
    data = make_data({"x1": [0, 0, 0]}, [0, 0, 0], [1.0, 2.0, 3.0])
    fit = fit_ols(Design(data, full(data), parse_spec("1", "A")), data.outcome)
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)


def test_fit_ols_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    data = make_data({"x1": x}, np.zeros(5, dtype=int), 2 * x + 1)
    fit = fit_ols(Design(data, full(data), parse_spec("1 + x1", "A")), data.outcome)
    assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-10)


def normal_equations_ols(X, y):
    """Independent oracle: coefficients from the explicit normal equations."""
    xtx = np.zeros((X.shape[1], X.shape[1]))
    xty = np.zeros(X.shape[1])
    for i in range(X.shape[0]):
        xtx += np.outer(X[i], X[i])
        xty += X[i] * y[i]
    return np.linalg.solve(xtx, xty)


def test_fit_ols_matches_normal_equations():
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(8)
    x2 = rng.standard_normal(8)
    y = 1.5 + 0.5 * x1 - 2.0 * x2 + rng.standard_normal(8)
    data = make_data({"x1": x1, "x2": x2}, np.zeros(8, dtype=int), y)
    spec = parse_spec("1 + x1 + x2", "A")
    design = Design(data, full(data), spec)
    fit = fit_ols(design, y)
    X = design.observed()
    expected = normal_equations_ols(X, y)
    assert fit.coefficients == pytest.approx(expected, abs=1e-8)


def test_fit_ols_drops_collinear_column_deterministically():
    rng = np.random.default_rng(6)
    x1 = rng.standard_normal(20)
    data = make_data({"x1": x1, "x2": 2 * x1}, np.zeros(20, dtype=int), x1 + 1)
    fit = fit_ols(Design(data, full(data), parse_spec("1 + x1 + x2", "A")), data.outcome)
    assert len(fit.kept) == 2
    assert len(fit.dropped) == 1
    again = fit_ols(Design(data, full(data), parse_spec("1 + x1 + x2", "A")), data.outcome)
    assert np.array_equal(fit.dropped, again.dropped)
    assert fit.coefficients == pytest.approx(again.coefficients)


def test_fit_ols_insufficient_rows():
    data = make_data({"x1": [1.0, 2.0]}, [0, 0], [1.0, 2.0])
    with pytest.raises(FitError, match="insufficient"):
        fit_ols(Design(data, full(data), parse_spec("1 + x1 + exp(x1) + cube(x1)", "A")), data.outcome)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(7)
    n = 60
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    A = rng.integers(0, 2, n)
    y = 1 + x1 - x2 + 0.5 * A + rng.standard_normal(n)
    data = make_data({"x1": x1, "x2": x2}, A, y)
    spec = parse_spec("1 + x1 + x2 + A + A:x1", "A")
    design = Design(data, full(data), spec)
    fit = fit_ols(design, y)
    X = design.observed()
    resid = y - X @ fit.coefficients
    for j in fit.kept:
        assert abs(np.dot(resid, X[:, j])) < 1e-6 * n


# ---------------------------------------------------------------- logistic


def test_fit_logistic_intercept_only():
    data = make_data({"x1": [0, 0, 0, 0]}, [1, 1, 1, 0], [0.0] * 4)
    fit = fit_logistic(Design(data, full(data), parse_spec("1", "A")), data.treatment)
    assert fit.coefficients[0] == pytest.approx(math.log(3.0), abs=1e-6)
    assert fit.family == "binomial" and fit.iterations > 0


def test_fit_logistic_separation_fails():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    A = (x > 0).astype(int)
    data = make_data({"x1": x}, A, np.zeros(6))
    with pytest.raises(FitError, match="logistic fit failed"):
        fit_logistic(Design(data, full(data), parse_spec("1 + x1", "A")), A)


def test_fit_logistic_degenerate_response():
    data = make_data({"x1": [1.0, 2.0, 3.0]}, [1, 1, 1], np.zeros(3))
    with pytest.raises(FitError, match="degenerate response"):
        fit_logistic(Design(data, full(data), parse_spec("1 + x1", "A")), data.treatment)


def test_fit_logistic_rejects_a_response_other_than_0_and_1():
    # a continuous outcome would otherwise "converge" to huge coefficients
    data, _ = generate(SimSetting("heterogeneous", n=600, seed=3))
    design = Design(data, full(data), parse_spec("1 + A + x1", "A"))
    with pytest.raises(FitError, match="0 or 1"):
        fit_logistic(design, data.outcome)


def test_fit_logistic_empty_rows_is_a_degenerate_response():
    data = make_data({"x1": [1.0, 2.0, 3.0]}, [1, 0, 1], np.zeros(3))
    rows = np.array([], dtype=np.int64)
    for y in (data.treatment, np.array([0.0, 1.0, 1.0])):
        with pytest.raises(FitError, match="degenerate response"):
            fit_logistic(Design(data, rows, parse_spec("1 + x1", "A")), y[rows])


def reference_qr(Z):
    """``scipy.linalg.qr(Z, mode="economic", pivoting=True)`` and the rank
    rule: the number of |R_jj| above |R_00| * max(Z.shape) * eps."""
    Q, R, piv = scipy.linalg.qr(Z, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    return Q, R, piv, int(np.sum(diag > diag[0] * max(Z.shape) * np.finfo(np.float64).eps))


def reference_logistic(Z, y):
    """IRLS through the scipy.linalg front ends: the rank from
    ``reference_qr``, each step from ``scipy.linalg.solve(...,
    assume_a="pos")``. Returns (coefficients, kept, dropped, iterations), or
    None where the fit must fail."""
    _, _, piv, rank = reference_qr(Z)
    kept, dropped = np.sort(piv[:rank]), np.sort(piv[rank:])
    Zk = Z[:, kept]
    beta = np.zeros(rank)
    for iterations in range(1, IRLS_MAX_ITER + 1):
        eta = np.clip(Zk @ beta, -500.0, 500.0)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(p * (1.0 - p), 1e-10)
        wz = Zk * w[:, None]
        z_work = eta + (y - p) / w
        try:
            step = scipy.linalg.solve(Zk.T @ wz, wz.T @ z_work, assume_a="pos")
        except (scipy.linalg.LinAlgError, ValueError):
            return None
        delta = np.max(np.abs(step - beta))
        beta = step
        if not np.isfinite(beta).all():
            return None
        if delta < IRLS_TOL:
            break
    else:
        return None
    eta = Zk @ beta
    if np.max(np.abs(eta)) >= 30.0 and np.all((eta > 0) == (y == 1)):
        return None
    full = np.zeros(Z.shape[1])
    full[kept] = beta
    return full, kept, dropped, iterations


LOGISTIC_SPECS = {
    "full-rank": "1 + x1 + x2 + c",
    "constant-column": "1 + x1 + gt(x1,100) + x2",
    "duplicate-column": "1 + x1 + x2 + x1",
    "collinear-levels": "1 + x1 + c + in(c,B,C,D)",
    "intercept-only": "1",
}


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 120),
       spec=st.sampled_from(sorted(LOGISTIC_SPECS)), fit_outcome=st.booleans(),
       resample=st.booleans())
@example(seed=0, n=60, spec="duplicate-column", fit_outcome=False, resample=False)
@example(seed=1, n=80, spec="intercept-only", fit_outcome=True, resample=True)
@example(seed=2, n=50, spec="constant-column", fit_outcome=True, resample=False)
def test_fit_logistic_is_bitwise_the_scipy_reference(seed, n, spec, fit_outcome, resample):
    # fit_logistic calls LAPACK directly; its coefficients, kept and dropped
    # columns and iteration count must be those of the scipy front ends
    data = mixed_design_data(n=n, seed=seed)
    rng = np.random.default_rng(seed)
    treatment = (rng.random(n) < 1 / (1 + np.exp(-data.covariates["x1"]))).astype(int)
    data = Dataset(data.schema, data.covariates, treatment, (rng.random(n) < 0.4).astype(float))
    rows = rng.integers(0, n, n) if resample else np.arange(n)
    response = (data.outcome if fit_outcome else data.treatment)[rows]
    y = response.astype(np.float64)
    design = Design(data, rows, parse_spec(LOGISTIC_SPECS[spec], "A"))
    Z = design.observed()
    if y.min() == y.max() or Z.shape[0] < Z.shape[1]:
        with pytest.raises(FitError):
            fit_logistic(design, response)
        return
    expected = reference_logistic(Z, y)
    if expected is None:
        with pytest.raises(FitError, match="logistic fit failed"):
            fit_logistic(design, response)
        return
    fit = fit_logistic(design, response)
    coefficients, kept, dropped, iterations = expected
    assert fit.coefficients.tobytes() == coefficients.tobytes()
    assert fit.kept.dtype == kept.dtype and np.array_equal(fit.kept, kept)
    assert fit.dropped.dtype == dropped.dtype and np.array_equal(fit.dropped, dropped)
    assert fit.iterations == iterations


def reference_ols(Z, y):
    """Least squares through the scipy.linalg front ends: the factorization
    and rank from ``reference_qr``, the kept coefficients from
    ``scipy.linalg.solve_triangular``. Returns (coefficients, kept, dropped)."""
    Q, R, piv, rank = reference_qr(Z)
    beta = np.zeros(Z.shape[1])
    beta[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], Q[:, :rank].T @ y)
    return beta, np.sort(piv[:rank]), np.sort(piv[rank:])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 120),
       spec=st.sampled_from(sorted(LOGISTIC_SPECS)), resample=st.booleans())
@example(seed=0, n=60, spec="duplicate-column", resample=False)
@example(seed=1, n=80, spec="intercept-only", resample=True)
@example(seed=2, n=50, spec="constant-column", resample=False)
@example(seed=3, n=6, spec="collinear-levels", resample=True)
def test_fit_ols_is_bitwise_the_scipy_reference(seed, n, spec, resample):
    # fit_ols calls LAPACK directly; its coefficients and kept and dropped
    # columns must be those of the scipy front ends
    data = mixed_design_data(n=n, seed=seed)
    rows = np.random.default_rng(seed).integers(0, n, n) if resample else np.arange(n)
    design = Design(data, rows, parse_spec(LOGISTIC_SPECS[spec], "A"))
    Z = design.observed()
    if Z.shape[0] < Z.shape[1]:
        with pytest.raises(FitError, match="insufficient"):
            fit_ols(design, data.outcome[rows])
        return
    coefficients, kept, dropped = reference_ols(Z, data.outcome[rows])
    fit = fit_ols(design, data.outcome[rows])
    assert fit.coefficients.tobytes() == coefficients.tobytes()
    assert fit.kept.dtype == kept.dtype and np.array_equal(fit.kept, kept)
    assert fit.dropped.dtype == dropped.dtype and np.array_equal(fit.dropped, dropped)
    assert fit.family == "gaussian" and fit.iterations == 0


def test_fit_logistic_drops_a_duplicated_column():
    # the rank-deficient cases of the property above do reach the dropping
    data = mixed_design_data(n=60, seed=3)
    fit = fit_logistic(Design(data, full(data), parse_spec(LOGISTIC_SPECS["duplicate-column"], "A")),
                       data.treatment)
    assert len(fit.dropped) == 1 and fit.dropped[0] in (1, 3)
    assert fit.coefficients[fit.dropped[0]] == 0.0


@pytest.mark.parametrize("width", [1, 5, 140])
def test_pivoted_qr_is_that_of_scipy_qr(width):
    # past 128 columns dgeqp3 eliminates in blocks only when given the
    # workspace that scipy.linalg.qr queries, and the blocks round differently
    rng = np.random.default_rng(width)
    Z = rng.standard_normal((300, width))
    Z[:, -1] = Z[:, 0]
    Q, R, piv, rank = reference_qr(Z)
    assert rank == max(width - 1, 1)
    for with_q in (False, True):
        got_q, got_r, got_piv, got_rank = _pivoted_qr(Z, with_q=with_q)
        if with_q:
            assert got_q.tobytes() == Q.tobytes()
        else:
            assert got_q is None
        assert got_r.tobytes() == R.tobytes() and got_r.flags.c_contiguous == R.flags.c_contiguous
        assert got_piv.dtype == piv.dtype and np.array_equal(got_piv, piv)
        assert got_rank == rank


def test_pivoted_qr_rejects_a_non_finite_design():
    Z = np.ones((4, 2))
    Z[2, 1] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        _pivoted_qr(Z)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("x2_of_x1", [
    lambda x1: x1 + 1e-10 * np.cos(7.0 * x1),  # kept by the rank, singular once weighted
    lambda x1: 1e160 * x1,  # the weighted system overflows
], ids=["near-collinear", "overflowing"])
def test_fit_logistic_singular_weighted_system_is_a_fit_error(x2_of_x1):
    x1 = np.linspace(-2.0, 2.0, 40)
    A = (np.sin(3.0 * x1) > 0).astype(int)
    data = make_data({"x1": x1, "x2": x2_of_x1(x1)}, A, np.zeros(40))
    design = Design(data, full(data), parse_spec("1 + x1 + x2", "A"))
    assert reference_logistic(design.observed(), A.astype(np.float64)) is None
    with pytest.raises(FitError, match="singular weighted system"):
        fit_logistic(design, A)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("fit", [fit_ols, fit_logistic])
def test_a_design_of_rank_0_is_a_fit_error(fit):
    # |R_00| = 1e308 overflows the rank tolerance, so the rule keeps no column
    x1 = np.linspace(-2.0, 2.0, 100)
    x1[17] = 1e308
    A = (np.sin(3.0 * np.arange(100)) > 0).astype(int)
    data = make_data({"x1": x1}, A, np.zeros(100))
    design = Design(data, full(data), parse_spec("1 + x1", "A"))
    assert _pivoted_qr(design.observed())[3] == 0
    with pytest.raises(FitError, match="rank is 0"):
        fit(design, A)


def test_fit_logistic_rejects_boolean_rows():
    # a mask where rows are expected would index fine but count every row
    data = make_data({"x1": [0.5, 1.0, 2.0, 3.0, -1.0]}, [1, 0, 1, 0, 1], np.zeros(5))
    with pytest.raises(TypeError, match="integer index array"):
        Design(data, np.array([True, True, True, True, False]), parse_spec("1", "A"))


def test_fit_logistic_recovers_generator_coefficients():
    # consistency check against the heterogeneous-design treatment model
    data, _ = generate(SimSetting("heterogeneous", n=50_000, seed=42))
    fit = fit_logistic(Design(data, full(data), parse_spec("1 + x1 + x2 + x3", "A")), data.treatment)
    assert fit.coefficients[1:] == pytest.approx([0.6, -0.6, 0.6], abs=0.05)
    assert abs(fit.coefficients[0]) < 0.05


def test_logistic_score_equations_hold():
    rng = np.random.default_rng(8)
    n = 500
    x1 = rng.standard_normal(n)
    p = 1 / (1 + np.exp(-0.5 * x1))
    A = (rng.random(n) < p).astype(int)
    data = make_data({"x1": x1}, A, np.zeros(n))
    design = Design(data, full(data), parse_spec("1 + x1", "A"))
    fit = fit_logistic(design, A)
    X = design.observed()
    e = predict_mean(fit, X)
    score = X.T @ (A - e)
    assert np.all(np.abs(score) < 1e-6)


# ---------------------------------------------------------------- predictions


def test_predict_mean_linear_example():
    data = make_data({"x1": [3.0]}, [0], [0.0])
    base = make_data({"x1": [0.0, 1.0, 2.0]}, [0, 0, 0], [1.0, 3.0, 5.0])
    fit = fit_ols(Design(base, np.arange(3), parse_spec("1 + x1", "A")), base.outcome)
    pred = predict_mean(fit, Design(data, full(data), fit.spec).observed())
    assert pred[0] == pytest.approx(7.0, abs=1e-10)


def test_predict_mean_logistic_intercept_zero():
    data = make_data({"x1": [1.0, -1.0, 4.0]}, [0, 1, 0], np.zeros(3))
    base = make_data({"x1": [0.0, 0.0, 0.0, 0.0]}, [1, 0, 1, 0], np.zeros(4))
    fit = fit_logistic(Design(base, np.arange(4), parse_spec("1", "A")), base.treatment)
    pred = predict_mean(fit, Design(data, full(data), fit.spec).observed())
    assert pred == pytest.approx([0.5, 0.5, 0.5], abs=1e-8)


def test_predict_mean_matches_dot_product_oracle():
    rng = np.random.default_rng(9)
    n = 12
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    A = rng.integers(0, 2, n)
    y = rng.standard_normal(n)
    data = make_data({"x1": x1, "x2": x2}, A, y)
    spec = parse_spec("1 + x1 + A + A:x2", "A")
    fit = fit_ols(Design(data, full(data), spec), y)
    rows = np.flatnonzero(np.arange(n) % 3 == 0)
    pred = predict_mean(fit, Design(data, rows, spec).at_one)
    b = fit.coefficients
    expected = [b[0] + b[1] * x1[i] + b[2] * 1.0 + b[3] * 1.0 * x2[i] for i in rows]
    assert pred == pytest.approx(expected, abs=1e-10)


def test_predictions_invariant_to_row_order():
    rng = np.random.default_rng(10)
    n = 30
    x1 = rng.standard_normal(n)
    A = rng.integers(0, 2, n)
    y = x1 + A + rng.standard_normal(n)
    data = make_data({"x1": x1}, A, y)
    fit = fit_ols(Design(data, full(data), parse_spec("1 + x1 + A", "A")), y)
    rows = np.flatnonzero(np.arange(n) < 10)
    direct = predict_mean(fit, Design(data, rows, fit.spec).observed())
    perm = np.concatenate([np.arange(10)[::-1], np.arange(10, n)])
    reordered = Dataset(
        data.schema,
        {"x1": x1[perm]},
        A[perm],
        y[perm],
    )
    flipped = predict_mean(fit, Design(reordered, rows, fit.spec).observed())
    assert sorted(direct) == pytest.approx(sorted(flipped), abs=1e-12)


def test_design_arms_change_only_treatment_columns():
    rng = np.random.default_rng(12)
    n = 15
    x1 = rng.standard_normal(n)
    data = make_data({"x1": x1}, rng.integers(0, 2, n), rng.standard_normal(n))
    design = Design(data, full(data), parse_spec("1 + x1 + A + A:x1", "A"))
    diff = design.difference()
    assert np.allclose(design.at_one - design.at_zero(), diff)
    assert np.allclose(diff[:, 0], 0)  # intercept
    assert np.allclose(diff[:, 1], 0)  # x1 main effect
    assert np.allclose(diff[:, 2], 1)  # treatment main effect
    assert np.allclose(diff[:, 3], x1)  # interaction carries the factor


ROOT_DESIGN_SPEC = (
    "1 + A + x1 + c + g + exp(x2) + cube(x1) + gt(x2,0.1) + lt(x1,-0.2) + in(c,B,D)"
    " + in(g,hi) + A:x2 + A:c + A:exp(x1) + A:cube(x2) + A:gt(x1,0) + A:lt(x2,0.3)"
    " + A:in(c,A,C)"
)


def mixed_design_data(n=80, seed=14):
    rng = np.random.default_rng(seed)
    schema = Schema(
        (("x1", Continuous()), ("x2", Continuous()),
         ("c", Categorical(("A", "B", "C", "D"))), ("g", Ordinal(("lo", "mid", "hi")))),
        treatment="A", outcome="Y",
    )
    covariates = {"x1": rng.standard_normal(n), "x2": rng.standard_normal(n),
                  "c": rng.integers(0, 4, n), "g": rng.integers(0, 3, n)}
    return Dataset(schema, covariates, rng.integers(0, 2, n), rng.standard_normal(n))


# the columns of ROOT_DESIGN_SPEC, in order
ROOT_DESIGN_LABELS = [
    "1", "A", "x1", "c[B]", "c[C]", "c[D]", "g[mid]", "g[hi]", "exp(x2)", "cube(x1)",
    "gt(x2,0.1)", "lt(x1,-0.2)", "in(c,B,D)", "in(g,hi)", "A:x2", "A:c[B]", "A:c[C]",
    "A:c[D]", "A:exp(x1)", "A:cube(x2)", "A:gt(x1,0)", "A:lt(x2,0.3)", "A:in(c,A,C)",
]


def design_at(data, rows, spec, override):
    """The design at the observed treatment (override None) or at A=override."""
    design = Design(data, rows, spec)
    if override is None:
        return design.observed()
    return design.at_one if override == 1 else design.at_zero()


@pytest.mark.parametrize("override", [None, 0, 1])
def test_subgroup_design_equals_design_of_taken_rows(override):
    # A subgroup's design is a row slice of the dataset's root design; a
    # dataset made of just those rows builds its own root design, so the two
    # must agree exactly, for every transform and treatment arm.
    data = mixed_design_data()
    spec = parse_spec(ROOT_DESIGN_SPEC, "A")
    rng = np.random.default_rng(15)
    for size in (1, 17, data.n):
        rows = np.sort(rng.choice(data.n, size=size, replace=False))
        sub = take(data, rows)
        assert np.array_equal(design_at(data, rows, spec, override),
                              design_at(sub, full(sub), spec, override))
        assert np.array_equal(Design(data, rows, spec).difference(),
                              Design(sub, full(sub), spec).difference())


def test_design_columns_match_transforms_of_raw_columns():
    data = mixed_design_data()
    spec = parse_spec(ROOT_DESIGN_SPEC, "A")
    rows = np.arange(5, 60, 3)
    Z = Design(data, rows, spec).observed()
    assert Z.shape == (len(rows), len(ROOT_DESIGN_LABELS))
    col = dict(zip(ROOT_DESIGN_LABELS, Z.T))
    x1, x2 = data.covariates["x1"][rows], data.covariates["x2"][rows]
    c, g = data.covariates["c"][rows], data.covariates["g"][rows]
    a = data.treatment[rows].astype(float)
    assert np.array_equal(col["A"], a)
    assert np.array_equal(col["exp(x2)"], np.exp(x2))
    assert np.array_equal(col["cube(x1)"], x1**3)
    assert np.array_equal(col["gt(x2,0.1)"], (x2 > 0.1).astype(float))
    assert np.array_equal(col["in(c,B,D)"], np.isin(c, [1, 3]).astype(float))
    assert np.array_equal(col["in(g,hi)"], (g == 2).astype(float))
    assert np.array_equal(col["g[mid]"], (g == 1).astype(float))
    assert np.array_equal(col["A:x2"], x2 * a)
    assert np.array_equal(col["A:c[C]"], (c == 2) * a)
    assert np.array_equal(col["A:lt(x2,0.3)"], (x2 < 0.3) * a)


def test_design_difference_is_exact_difference_of_overrides():
    data = mixed_design_data()
    spec = parse_spec(ROOT_DESIGN_SPEC, "A")
    rows = np.flatnonzero(np.arange(data.n) % 3 != 1)
    design = Design(data, rows, spec)
    assert np.array_equal(design.difference(), design.at_one - design.at_zero())


def gathered_design(data, rows, spec, override):
    """Design and design difference by fancy indexing of the root design."""
    F, treated = _root_design(data, spec)
    Z = F[rows]
    if override is None:
        Z[:, treated] *= data.treatment[rows].astype(np.float64)[:, None]
    elif override != 1:
        Z[:, treated] *= float(override)
    D = np.zeros((len(rows), F.shape[1]))
    D[:, treated] = F[np.ix_(rows, np.flatnonzero(treated))]
    return Z, D


def assert_same_bytes(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("override", [None, 0, 1])
@pytest.mark.parametrize("rows", [
    np.array([57, 3, 41, 0, 79, 12]),
    np.array([5, 5, 70, 5, 0, 70]),
    np.array([], dtype=np.int64),
    np.arange(80, dtype=np.int32)[::-1],
], ids=["unsorted", "duplicated", "empty", "all-reversed-int32"])
def test_designs_equal_fancy_indexing_of_the_root_design(rows, override):
    # override None checks Design.observed, 1 and 0 check at_one and
    # at_zero; each case also checks the difference
    data = mixed_design_data()
    spec = parse_spec(ROOT_DESIGN_SPEC, "A")
    Z_ref, D_ref = gathered_design(data, rows, spec, override)
    assert_same_bytes(design_at(data, rows, spec, override), Z_ref)
    assert_same_bytes(Design(data, rows, spec).difference(), D_ref)


def test_design_difference_keeps_a_negative_zero_factor():
    # Z1 - Z0 would turn the -0.0 of an interaction column into +0.0
    x1 = np.array([-0.0, 1.5, -0.0, -2.0, 0.0])
    data = make_data({"x1": x1}, [1, 0, 0, 1, 1], np.zeros(5))
    spec = parse_spec("1 + A + x1 + A:x1", "A")
    rows = np.array([2, 0, 1, 4, 3, 0])
    design = Design(data, rows, spec)
    D = design.difference()
    assert np.signbit(D[:, 3]).tolist() == np.signbit(x1[rows]).tolist()
    for override in (None, 1, 0):
        assert_same_bytes(design_at(data, rows, spec, override),
                          gathered_design(data, rows, spec, override)[0])
    assert_same_bytes(D, gathered_design(data, rows, spec, 1)[1])


def test_design_without_a_treatment_column_is_the_observed_design_at_both_arms():
    data = mixed_design_data()
    spec = parse_spec("1 + x1 + c + exp(x2)", "A")
    rows = np.array([7, 3, 3, 60])
    design = Design(data, rows, spec)
    Z = design.observed()
    assert_same_bytes(Z, gathered_design(data, rows, spec, None)[0])
    assert_same_bytes(design.at_one, Z)
    assert_same_bytes(design.at_zero(), Z)
    assert_same_bytes(design.difference(), np.zeros_like(Z))


def test_design_derives_a_new_matrix_on_each_call():
    # at_one is read-only, and a caller may write into a derived matrix
    # without changing the design; a treatment-free design's observed
    # matrix is at_one itself
    data = mixed_design_data()
    rows = np.array([4, 9, 2])
    design = Design(data, rows, parse_spec(ROOT_DESIGN_SPEC, "A"))
    assert not design.at_one.flags.writeable
    at_one = design.at_one.copy()
    for derive in (design.observed, design.at_zero, design.difference):
        first = derive()
        first[...] = np.nan
        assert np.array_equal(design.at_one, at_one)
        assert not np.isnan(derive()).any()
    free = Design(data, rows, parse_spec("1 + x1 + c", "A"))
    assert free.observed() is free.at_one

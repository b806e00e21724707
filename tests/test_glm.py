import math

import numpy as np
import pytest

from efftree.data import Categorical, Continuous, Dataset, Ordinal, Schema
from efftree.glm import (
    FitError,
    build_design,
    build_design_difference,
    check_factor,
    fit_logistic,
    fit_ols,
    parse_spec,
    predict_mean,
)
from efftree.simulate import SimSetting, generate


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
        build_design(data, full(data), parse_spec(term, "A"))


def test_check_factor_accepts_every_transform_on_its_kind():
    spec = parse_spec("1 + A + x1 + exp(x1) + cube(x1) + lt(x1,0) + A:gt(x1,0) + site"
                      " + grade + in(site,blue) + A:in(grade,lo,hi)", "A")
    for term in spec.terms:
        if term.factor is not None:
            check_factor(term.factor, MIXED_SCHEMA)


# ---------------------------------------------------------------- OLS


def test_fit_ols_intercept_only_is_mean():
    data = make_data({"x1": [0, 0, 0]}, [0, 0, 0], [1.0, 2.0, 3.0])
    fit = fit_ols(data, full(data), parse_spec("1", "A"))
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)


def test_fit_ols_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    data = make_data({"x1": x}, np.zeros(5, dtype=int), 2 * x + 1)
    fit = fit_ols(data, full(data), parse_spec("1 + x1", "A"))
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
    fit = fit_ols(data, full(data), spec)
    X, _ = build_design(data, full(data), spec)
    expected = normal_equations_ols(X, y)
    assert fit.coefficients == pytest.approx(expected, abs=1e-8)


def test_fit_ols_drops_collinear_column_deterministically():
    rng = np.random.default_rng(6)
    x1 = rng.standard_normal(20)
    data = make_data({"x1": x1, "x2": 2 * x1}, np.zeros(20, dtype=int), x1 + 1)
    fit = fit_ols(data, full(data), parse_spec("1 + x1 + x2", "A"))
    assert fit.rank == 2
    assert len(fit.dropped) == 1
    again = fit_ols(data, full(data), parse_spec("1 + x1 + x2", "A"))
    assert np.array_equal(fit.dropped, again.dropped)
    assert fit.coefficients == pytest.approx(again.coefficients)


def test_fit_ols_insufficient_rows():
    data = make_data({"x1": [1.0, 2.0]}, [0, 0], [1.0, 2.0])
    with pytest.raises(FitError, match="insufficient"):
        fit_ols(data, full(data), parse_spec("1 + x1 + exp(x1) + cube(x1)", "A"))


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(7)
    n = 60
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    A = rng.integers(0, 2, n)
    y = 1 + x1 - x2 + 0.5 * A + rng.standard_normal(n)
    data = make_data({"x1": x1, "x2": x2}, A, y)
    spec = parse_spec("1 + x1 + x2 + A + A:x1", "A")
    fit = fit_ols(data, full(data), spec)
    X, _ = build_design(data, full(data), spec)
    resid = y - X @ fit.coefficients
    for j in fit.kept:
        assert abs(np.dot(resid, X[:, j])) < 1e-6 * n


# ---------------------------------------------------------------- logistic


def test_fit_logistic_intercept_only():
    data = make_data({"x1": [0, 0, 0, 0]}, [1, 1, 1, 0], [0.0] * 4)
    fit = fit_logistic(data, full(data), parse_spec("1", "A"))
    assert fit.coefficients[0] == pytest.approx(math.log(3.0), abs=1e-6)
    assert fit.converged


def test_fit_logistic_separation_fails():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    A = (x > 0).astype(int)
    data = make_data({"x1": x}, A, np.zeros(6))
    with pytest.raises(FitError, match="logistic fit failed"):
        fit_logistic(data, full(data), parse_spec("1 + x1", "A"))


def test_fit_logistic_degenerate_response():
    data = make_data({"x1": [1.0, 2.0, 3.0]}, [1, 1, 1], np.zeros(3))
    with pytest.raises(FitError, match="degenerate response"):
        fit_logistic(data, full(data), parse_spec("1 + x1", "A"))


def test_fit_logistic_rejects_boolean_rows():
    # a mask where rows are expected would index fine but count every row
    data = make_data({"x1": [0.5, 1.0, 2.0, 3.0, -1.0]}, [1, 0, 1, 0, 1], np.zeros(5))
    with pytest.raises(TypeError, match="integer index array"):
        fit_logistic(data, np.array([True, True, True, True, False]), parse_spec("1", "A"))


def test_fit_logistic_recovers_generator_coefficients():
    # consistency check against the heterogeneous-design treatment model
    data, _ = generate(SimSetting("heterogeneous", n=50_000, seed=42))
    fit = fit_logistic(data, full(data), parse_spec("1 + x1 + x2 + x3", "A"))
    assert fit.coefficients[1:] == pytest.approx([0.6, -0.6, 0.6], abs=0.05)
    assert abs(fit.coefficients[0]) < 0.05


def test_logistic_score_equations_hold():
    rng = np.random.default_rng(8)
    n = 500
    x1 = rng.standard_normal(n)
    p = 1 / (1 + np.exp(-0.5 * x1))
    A = (rng.random(n) < p).astype(int)
    data = make_data({"x1": x1}, A, np.zeros(n))
    spec = parse_spec("1 + x1", "A")
    fit = fit_logistic(data, full(data), spec)
    e = predict_mean(fit, data, full(data))
    X, _ = build_design(data, full(data), spec)
    score = X.T @ (A - e)
    assert np.all(np.abs(score) < 1e-6)


# ---------------------------------------------------------------- predictions


def test_predict_mean_linear_example():
    data = make_data({"x1": [3.0]}, [0], [0.0])
    fit = fit_ols(make_data({"x1": [0.0, 1.0, 2.0]}, [0, 0, 0], [1.0, 3.0, 5.0]),
                  np.arange(3), parse_spec("1 + x1", "A"))
    pred = predict_mean(fit, data, full(data))
    assert pred[0] == pytest.approx(7.0, abs=1e-10)


def test_predict_mean_logistic_intercept_zero():
    data = make_data({"x1": [1.0, -1.0, 4.0]}, [0, 1, 0], np.zeros(3))
    base = make_data({"x1": [0.0, 0.0, 0.0, 0.0]}, [1, 0, 1, 0], np.zeros(4))
    fit = fit_logistic(base, np.arange(4), parse_spec("1", "A"))
    pred = predict_mean(fit, data, full(data))
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
    fit = fit_ols(data, full(data), spec)
    rows = np.flatnonzero(np.arange(n) % 3 == 0)
    pred = predict_mean(fit, data, rows, treatment_override=1)
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
    fit = fit_ols(data, full(data), parse_spec("1 + x1 + A", "A"))
    direct = predict_mean(fit, data, np.flatnonzero(np.arange(n) < 10))
    perm = np.concatenate([np.arange(10)[::-1], np.arange(10, n)])
    reordered = Dataset(
        data.schema,
        {"x1": x1[perm]},
        A[perm],
        y[perm],
    )
    flipped = predict_mean(fit, reordered, np.flatnonzero(np.arange(n) < 10))
    assert sorted(direct) == pytest.approx(sorted(flipped), abs=1e-12)


def test_treatment_override_changes_only_treatment_columns():
    rng = np.random.default_rng(12)
    n = 15
    x1 = rng.standard_normal(n)
    data = make_data({"x1": x1}, rng.integers(0, 2, n), rng.standard_normal(n))
    spec = parse_spec("1 + x1 + A + A:x1", "A")
    Z1, _ = build_design(data, full(data), spec, treatment_override=1)
    Z0, _ = build_design(data, full(data), spec, treatment_override=0)
    diff = build_design_difference(data, full(data), spec)
    assert np.allclose(Z1 - Z0, diff)
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


@pytest.mark.parametrize("override", [None, 0, 1])
def test_subgroup_design_equals_design_of_taken_rows(override):
    # A subgroup's design is a row slice of the dataset's root design; a
    # dataset made of just those rows builds its own root design, so the two
    # must agree exactly, for every transform and treatment override.
    data = mixed_design_data()
    spec = parse_spec(ROOT_DESIGN_SPEC, "A")
    rng = np.random.default_rng(15)
    for size in (1, 17, data.n):
        rows = np.sort(rng.choice(data.n, size=size, replace=False))
        sub = data.take(rows)
        Z, labels = build_design(data, rows, spec, override)
        Z_sub, labels_sub = build_design(sub, full(sub), spec, override)
        assert np.array_equal(Z, Z_sub)
        assert labels == labels_sub
    assert labels[:3] == ["1", "A", "x1"]
    assert "c[B]" in labels and "A:c[D]" in labels and "A:in(c,A,C)" in labels


def test_design_columns_match_transforms_of_raw_columns():
    data = mixed_design_data()
    spec = parse_spec(ROOT_DESIGN_SPEC, "A")
    rows = np.arange(5, 60, 3)
    Z, labels = build_design(data, rows, spec)
    col = dict(zip(labels, Z.T))
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
    Z1, _ = build_design(data, rows, spec, treatment_override=1)
    Z0, _ = build_design(data, rows, spec, treatment_override=0)
    assert np.array_equal(build_design_difference(data, rows, spec), Z1 - Z0)

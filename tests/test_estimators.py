import numpy as np
import pytest

from efftree.data import Continuous, Dataset, Schema
from efftree.estimators import (
    Contributions,
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceModels,
    NuisanceScope,
    VarianceMethod,
    contributions,
    estimate_dr,
    estimate_g,
    estimate_ipw,
    g_variance_pooled,
    if_variance,
    ipw_variance_per_child,
    ipw_variance_pooled,
    node_effect,
    split_contrast,
)
from efftree.glm import build_design, fit_logistic, fit_ols, parse_spec, predict_mean
from efftree.tree import GrowConfig


def make_data(x: dict, A, Y) -> Dataset:
    schema = Schema(tuple((name, Continuous()) for name in x), treatment="A", outcome="Y")
    return Dataset(schema, {k: np.asarray(v, dtype=float) for k, v in x.items()},
                   np.asarray(A), np.asarray(Y, dtype=float))


def full(data):
    return np.arange(data.n)


class ConstantPropensity:
    """Stand-in fit whose predictions are a fixed probability."""

    family = "binomial"

    def __init__(self, p, spec):
        self.p = p
        self.spec = spec
        self.kept = np.array([0])
        self.coefficients = np.array([np.log(p / (1 - p))])


def constant_models(p=0.5, epsilon=0.01):
    spec = parse_spec("1", "A")
    return NuisanceModels(propensity=ConstantPropensity(p, spec), outcome=None, epsilon=epsilon)


# ---------------------------------------------------------------- point estimators


def test_ipw_constant_propensity_arithmetic():
    data = make_data({"x1": [0, 0, 0, 0]}, [1, 1, 0, 0], [2.0, 4.0, 1.0, 3.0])
    eff = estimate_ipw(data, full(data), constant_models(0.5))
    assert eff.mu1 == pytest.approx(3.0)
    assert eff.mu0 == pytest.approx(2.0)
    assert eff.effect == pytest.approx(1.0)


def test_ipw_single_treated_row():
    data = make_data({"x1": [0.0]}, [1], [5.0])
    terms = contributions(EstimatorKind.IPW, data, full(data), constant_models(0.5))
    eff = node_effect(terms)
    assert eff.mu1 == pytest.approx(10.0)
    assert eff.mu0 == 0.0
    assert terms.smaller_arm == 0


def test_ipw_matches_plugin_formula_oracle():
    rng = np.random.default_rng(21)
    n = 8
    x1 = rng.standard_normal(n)
    A = np.array([1, 0, 1, 0, 1, 1, 0, 0])
    Y = rng.standard_normal(n) + 2 * A
    data = make_data({"x1": x1}, A, Y)
    spec = parse_spec("1 + x1", "A")
    fit = fit_logistic(data, full(data), spec)
    models = NuisanceModels(propensity=fit, outcome=None, epsilon=0.01)
    eff = estimate_ipw(data, full(data), models)

    # oracle: plug-in evaluation, term by term
    e = np.clip(predict_mean(fit, data, full(data)), 0.01, 0.99)
    mu1 = sum(A[i] * Y[i] / e[i] for i in range(n)) / n
    mu0 = sum((1 - A[i]) * Y[i] / (1 - e[i]) for i in range(n)) / n
    assert eff.mu1 == pytest.approx(mu1, abs=1e-10)
    assert eff.mu0 == pytest.approx(mu0, abs=1e-10)
    assert eff.effect == pytest.approx(mu1 - mu0, abs=1e-10)


def test_g_constant_predictions():
    data = make_data({"x1": [0.0, 1.0, 2.0]}, [1, 0, 1], [4.0, 4.0, 4.0])
    spec = parse_spec("1", "A")
    fit = fit_ols(data, full(data), spec)
    fit.coefficients[:] = [4.0]
    models_hi = NuisanceModels(outcome=fit, epsilon=0.01)
    eff = estimate_g(data, full(data), models_hi)
    assert eff.effect == pytest.approx(0.0)

    spec_a = parse_spec("1 + A", "A")
    fit_a = fit_ols(data, full(data), spec_a)
    fit_a.coefficients[:] = [1.0, 3.0]  # g0 = 1, g1 = 4
    eff = estimate_g(data, full(data), NuisanceModels(outcome=fit_a, epsilon=0.01))
    assert eff.mu1 == pytest.approx(4.0)
    assert eff.mu0 == pytest.approx(1.0)
    assert eff.effect == pytest.approx(3.0)


def test_g_is_mean_of_predictions():
    data = make_data({"x1": [1.0, 2.0, 3.0]}, [0, 1, 0], [1.0, 2.0, 3.0])
    spec = parse_spec("1 + x1", "A")
    fit = fit_ols(data, full(data), spec)
    fit.coefficients[:] = [0.0, 1.0]  # g_a(x) = x for both arms
    eff = estimate_g(data, full(data), NuisanceModels(outcome=fit, epsilon=0.01))
    assert eff.mu1 == pytest.approx(2.0)


def test_g_matches_prediction_average_oracle():
    rng = np.random.default_rng(22)
    n = 8
    x1 = rng.standard_normal(n)
    A = rng.integers(0, 2, n)
    Y = 1 + x1 + 2 * A + rng.standard_normal(n)
    data = make_data({"x1": x1}, A, Y)
    spec = parse_spec("1 + x1 + A", "A")
    fit = fit_ols(data, full(data), spec)
    models = NuisanceModels(outcome=fit, epsilon=0.01)
    eff = estimate_g(data, full(data), models)
    b = fit.coefficients
    mu1 = np.mean([b[0] + b[1] * x1[i] + b[2] for i in range(n)])
    mu0 = np.mean([b[0] + b[1] * x1[i] for i in range(n)])
    assert eff.mu1 == pytest.approx(mu1, abs=1e-10)
    assert eff.mu0 == pytest.approx(mu0, abs=1e-10)


def test_dr_equals_g_when_residuals_vanish():
    rng = np.random.default_rng(23)
    n = 10
    x1 = rng.standard_normal(n)
    A = rng.integers(0, 2, n)
    Y = 1 + 2 * x1 + 3 * A  # exactly linear: residuals are zero
    data = make_data({"x1": x1}, A, Y)
    out = fit_ols(data, full(data), parse_spec("1 + x1 + A", "A"))
    models = NuisanceModels(propensity=ConstantPropensity(0.5, parse_spec("1", "A")),
                            outcome=out, epsilon=0.01)
    dr = estimate_dr(data, full(data), models)
    g = estimate_g(data, full(data), models)
    assert dr.mu1 == pytest.approx(g.mu1, abs=1e-10)
    assert dr.mu0 == pytest.approx(g.mu0, abs=1e-10)


def test_dr_equals_ipw_when_outcome_predictions_vanish():
    rng = np.random.default_rng(24)
    n = 10
    x1 = rng.standard_normal(n)
    A = rng.integers(0, 2, n)
    Y = rng.standard_normal(n)
    data = make_data({"x1": x1}, A, Y)
    out = fit_ols(data, full(data), parse_spec("1", "A"))
    out.coefficients[:] = 0.0
    models = NuisanceModels(propensity=ConstantPropensity(0.4, parse_spec("1", "A")),
                            outcome=out, epsilon=0.01)
    dr = estimate_dr(data, full(data), models)
    ipw = estimate_ipw(data, full(data), models)
    assert dr.mu1 == pytest.approx(ipw.mu1, abs=1e-12)
    assert dr.mu0 == pytest.approx(ipw.mu0, abs=1e-12)


def test_dr_matches_augmented_formula_oracle():
    rng = np.random.default_rng(25)
    n = 8
    x1 = rng.standard_normal(n)
    A = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    Y = 1 + x1 + 2 * A + rng.standard_normal(n)
    data = make_data({"x1": x1}, A, Y)
    prop = fit_logistic(data, full(data), parse_spec("1 + x1", "A"))
    out = fit_ols(data, full(data), parse_spec("1 + x1 + A", "A"))
    models = NuisanceModels(propensity=prop, outcome=out, epsilon=0.01)
    eff = estimate_dr(data, full(data), models)

    e = np.clip(predict_mean(prop, data, full(data)), 0.01, 0.99)
    b = out.coefficients
    g1 = np.array([b[0] + b[1] * x1[i] + b[2] for i in range(n)])
    g0 = np.array([b[0] + b[1] * x1[i] for i in range(n)])
    mu1 = np.mean([g1[i] + A[i] * (Y[i] - g1[i]) / e[i] for i in range(n)])
    mu0 = np.mean([g0[i] + (1 - A[i]) * (Y[i] - g0[i]) / (1 - e[i]) for i in range(n)])
    assert eff.mu1 == pytest.approx(mu1, abs=1e-10)
    assert eff.mu0 == pytest.approx(mu0, abs=1e-10)


def test_estimators_reject_empty_subgroup():
    data = make_data({"x1": [1.0]}, [1], [1.0])
    empty = np.flatnonzero(np.zeros(1, dtype=bool))
    with pytest.raises(ValueError, match="empty"):
        estimate_ipw(data, empty, constant_models())


# ---------------------------------------------------------------- influence variance


def fake_terms(influence):
    """Child terms with zero effect whose per-row effect terms are ``influence``."""
    delta = np.asarray(influence, dtype=float)
    zeros = np.zeros(len(delta))
    return Contributions(A=zeros, Y=zeros, e=None, g1=None, g0=None, zdiff=None,
                         d1=zeros, d0=zeros, delta=delta)


def test_if_variance_two_contribution_example():
    # pooled contributions {+1, -1}: sample variance 2, divided by n_union 2
    terms_l = fake_terms([0.5])
    terms_r = fake_terms([0.5])
    assert if_variance(terms_l, terms_r, 2) == pytest.approx(1.0)


def test_if_variance_degenerate_inadmissible():
    terms_l = fake_terms([0.0, 0.0])
    terms_r = fake_terms([0.0, 0.0])
    with pytest.raises(InadmissibleSplitError):
        if_variance(terms_l, terms_r, 4)


def test_if_variance_single_contribution_inadmissible():
    with pytest.raises(InadmissibleSplitError):
        if_variance(fake_terms([0.1]), fake_terms([]), 1)


# ---------------------------------------------------------------- sandwich oracles


def fixture_40(seed=31):
    rng = np.random.default_rng(seed)
    n = 40
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    logit = 0.8 * x1 - 0.5 * x2
    A = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    Y = 1 + x1 + 2 * A + rng.standard_normal(n)
    data = make_data({"x1": x1, "x2": x2}, A, Y)
    left = np.flatnonzero(x2 < 0)
    right = np.flatnonzero(x2 >= 0)
    return data, left, right


def theorem_pooled_variance_oracle(data, rows_l, rows_r, fit, epsilon):
    """From-scratch pooled sandwich evaluation with explicit loops."""
    rows = np.union1d(rows_l, rows_r)
    X = build_design(data, rows, fit.spec)[0][:, fit.kept]
    e = np.clip(predict_mean(fit, data, rows), epsilon, 1 - epsilon)
    A = data.treatment[rows].astype(float)
    Y = data.outcome[rows]
    in_l = np.isin(rows, rows_l)
    n_p = len(rows)
    n_l, n_r = in_l.sum(), n_p - in_l.sum()
    p_l, p_r = n_l / n_p, n_r / n_p

    d = X.shape[1]
    E = np.zeros((d, d))
    H_l = np.zeros(d)
    H_r = np.zeros(d)
    mu = {("1", "l"): 0.0, ("0", "l"): 0.0, ("1", "r"): 0.0, ("0", "r"): 0.0}
    for i in range(n_p):
        E += e[i] * (1 - e[i]) * np.outer(X[i], X[i]) / n_p
        h_i = (A[i] * Y[i] * (1 - e[i]) / e[i] + (1 - A[i]) * Y[i] * e[i] / (1 - e[i])) * X[i]
        if in_l[i]:
            H_l += h_i / n_l
            mu[("1", "l")] += A[i] * Y[i] / e[i] / n_l
            mu[("0", "l")] += (1 - A[i]) * Y[i] / (1 - e[i]) / n_l
        else:
            H_r += h_i / n_r
            mu[("1", "r")] += A[i] * Y[i] / e[i] / n_r
            mu[("0", "r")] += (1 - A[i]) * Y[i] / (1 - e[i]) / n_r
    t_l = mu[("1", "l")] - mu[("0", "l")]
    t_r = mu[("1", "r")] - mu[("0", "r")]
    t_hat = t_l - t_r
    corr_vec = np.linalg.solve(E, H_l - H_r)
    total = 0.0
    for i in range(n_p):
        delta_i = A[i] * Y[i] / e[i] - (1 - A[i]) * Y[i] / (1 - e[i])
        base = delta_i / p_l if in_l[i] else -delta_i / p_r
        infl = base - t_hat - (A[i] - e[i]) * np.dot(X[i], corr_vec)
        total += infl * infl
    return (total / n_p - (p_r * t_l + p_l * t_r) ** 2 / (p_l * p_r)) / n_p


def test_ipw_pooled_variance_matches_oracle():
    data, left, right = fixture_40()
    spec = parse_spec("1 + x1 + x2", "A")
    fit = fit_logistic(data, full(data), spec)
    got = ipw_variance_pooled(data, left, right, fit, 0.01)
    expected = theorem_pooled_variance_oracle(data, left, right, fit, 0.01)
    assert got == pytest.approx(expected, abs=1e-8)


def test_ipw_pooled_variance_swap_invariant():
    data, left, right = fixture_40(seed=32)
    fit = fit_logistic(data, full(data), parse_spec("1 + x1 + x2", "A"))
    a = ipw_variance_pooled(data, left, right, fit, 0.01)
    b = ipw_variance_pooled(data, right, left, fit, 0.01)
    assert a == pytest.approx(b, rel=1e-12)


def theorem_per_child_variance_oracle(data, rows_l, rows_r, fit_l, fit_r, epsilon):
    """From-scratch per-child sandwich evaluation with explicit loops."""
    sides = {}
    for name, rows, fit in (("l", rows_l, fit_l), ("r", rows_r, fit_r)):
        X = build_design(data, rows, fit.spec)[0][:, fit.kept]
        e = np.clip(predict_mean(fit, data, rows), epsilon, 1 - epsilon)
        A = data.treatment[rows].astype(float)
        Y = data.outcome[rows]
        n_s = len(rows)
        d = X.shape[1]
        E = np.zeros((d, d))
        H = np.zeros(d)
        t_s = 0.0
        for i in range(n_s):
            E += e[i] * (1 - e[i]) * np.outer(X[i], X[i]) / n_s
            H += (A[i] * Y[i] * (1 - e[i]) / e[i] + (1 - A[i]) * Y[i] * e[i] / (1 - e[i])) * X[i] / n_s
            t_s += (A[i] * Y[i] / e[i] - (1 - A[i]) * Y[i] / (1 - e[i])) / n_s
        sides[name] = dict(X=X, e=e, A=A, Y=Y, n=n_s, c=np.linalg.solve(E, H), t=t_s)
    n_p = sides["l"]["n"] + sides["r"]["n"]
    p_l = sides["l"]["n"] / n_p
    p_r = sides["r"]["n"] / n_p
    t_hat = sides["l"]["t"] - sides["r"]["t"]
    total = 0.0
    for name, sign, p_s in (("l", 1.0, p_l), ("r", -1.0, p_r)):
        s = sides[name]
        for i in range(s["n"]):
            delta_i = s["A"][i] * s["Y"][i] / s["e"][i] - (1 - s["A"][i]) * s["Y"][i] / (1 - s["e"][i])
            corr_i = (s["A"][i] - s["e"][i]) * np.dot(s["X"][i], s["c"])
            infl = sign * (delta_i - corr_i) / p_s - t_hat
            total += infl * infl
    return (total / n_p - (p_r * sides["l"]["t"] + p_l * sides["r"]["t"]) ** 2 / (p_l * p_r)) / n_p


def test_ipw_per_child_variance_matches_oracle():
    data, left, right = fixture_40(seed=33)
    spec = parse_spec("1 + x1", "A")
    fit_l = fit_logistic(data, left, spec)
    fit_r = fit_logistic(data, right, spec)
    got = ipw_variance_per_child(data, left, right, fit_l, fit_r, 0.01)
    expected = theorem_per_child_variance_oracle(data, left, right, fit_l, fit_r, 0.01)
    assert got == pytest.approx(expected, abs=1e-8)


def test_ipw_per_child_variance_swap_invariant():
    data, left, right = fixture_40(seed=34)
    spec = parse_spec("1 + x1", "A")
    fit_l = fit_logistic(data, left, spec)
    fit_r = fit_logistic(data, right, spec)
    a = ipw_variance_per_child(data, left, right, fit_l, fit_r, 0.01)
    b = ipw_variance_per_child(data, right, left, fit_r, fit_l, 0.01)
    assert a == pytest.approx(b, rel=1e-12)


def g_pooled_variance_oracle(data, rows_l, rows_r, fit):
    """From-scratch g-formula sandwich evaluation with explicit loops."""
    rows = np.union1d(rows_l, rows_r)
    Z = build_design(data, rows, fit.spec)[0][:, fit.kept]
    Z1 = build_design(data, rows, fit.spec, treatment_override=1)[0][:, fit.kept]
    Z0 = build_design(data, rows, fit.spec, treatment_override=0)[0][:, fit.kept]
    beta = fit.coefficients[fit.kept]
    Y = data.outcome[rows]
    in_l = np.isin(rows, rows_l)
    n_p = len(rows)
    n_l = in_l.sum()
    n_r = n_p - n_l
    p_l, p_r = n_l / n_p, n_r / n_p
    q = Z.shape[1]
    info = np.zeros((q, q))
    D_l = np.zeros(q)
    D_r = np.zeros(q)
    t_l = t_r = 0.0
    for i in range(n_p):
        info += np.outer(Z[i], Z[i]) / n_p
        zd = Z1[i] - Z0[i]
        delta_i = np.dot(zd, beta)
        if in_l[i]:
            D_l += zd / n_l
            t_l += delta_i / n_l
        else:
            D_r += zd / n_r
            t_r += delta_i / n_r
    c = np.linalg.solve(info, D_l - D_r)
    total = 0.0
    for i in range(n_p):
        delta_i = np.dot(Z1[i] - Z0[i], beta)
        base = (delta_i - t_l) / p_l if in_l[i] else -(delta_i - t_r) / p_r
        infl = base + (Y[i] - np.dot(Z[i], beta)) * np.dot(Z[i], c)
        total += infl * infl
    return total / n_p / n_p


def test_g_pooled_variance_matches_oracle():
    data, left, right = fixture_40(seed=35)
    fit = fit_ols(data, full(data), parse_spec("1 + x1 + A + A:x1", "A"))
    got = g_variance_pooled(data, left, right, fit)
    expected = g_pooled_variance_oracle(data, left, right, fit)
    assert got == pytest.approx(expected, abs=1e-10)


def test_g_pooled_variance_swap_invariant():
    data, left, right = fixture_40(seed=36)
    fit = fit_ols(data, full(data), parse_spec("1 + x1 + A + A:x1", "A"))
    a = g_variance_pooled(data, left, right, fit)
    b = g_variance_pooled(data, right, left, fit)
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------- split contrast


def test_split_contrast_identical_children_zero_statistic():
    # identical (x, A, Y) patterns on both sides: child effects match exactly
    x = np.array([1.0, 2.0, 3.0, 4.0] * 2)
    A = np.array([1, 0, 1, 0] * 2)
    Y = np.array([2.0, 1.0, 4.0, 3.0] * 2)
    data = make_data({"x1": x}, A, Y)
    left = np.arange(8) < 4
    contrast = split_contrast(
        data, np.flatnonzero(left), np.flatnonzero(~left),
        GrowConfig(EstimatorKind.IPW, propensity_spec=parse_spec("1", "A"),
                   scope=NuisanceScope.PARENT, variance_method=VarianceMethod.POOLED_SANDWICH),
    )
    assert contrast.t_hat == pytest.approx(0.0, abs=1e-12)
    assert contrast.statistic == pytest.approx(0.0, abs=1e-12)


def test_split_contrast_statistic_definition():
    terms_l = fake_terms([0.5, -0.5])
    terms_r = fake_terms([0.5, -0.5])
    var = if_variance(terms_l, terms_r, 4)
    assert var > 0
    # statistic = t^2 / var by construction
    data, left, right = fixture_40(seed=37)
    contrast = split_contrast(
        data, left, right,
        GrowConfig(EstimatorKind.DR, propensity_spec=parse_spec("1 + x1", "A"),
                   outcome_spec=parse_spec("1 + x1 + A", "A"), scope=NuisanceScope.PARENT),
    )
    assert contrast.statistic == pytest.approx(contrast.t_hat**2 / contrast.variance, rel=1e-12)


def test_split_contrast_matches_manual_pipeline():
    data, left, right = fixture_40(seed=38)
    spec = parse_spec("1 + x1 + x2", "A")
    contrast = split_contrast(
        data, left, right,
        GrowConfig(EstimatorKind.IPW, propensity_spec=spec, scope=NuisanceScope.PARENT,
                   variance_method=VarianceMethod.POOLED_SANDWICH),
    )
    fit = fit_logistic(data, full(data), spec)
    models = NuisanceModels(propensity=fit, outcome=None, epsilon=0.01)
    eff_l = estimate_ipw(data, left, models)
    eff_r = estimate_ipw(data, right, models)
    var = theorem_pooled_variance_oracle(data, left, right, fit, 0.01)
    t = eff_l.effect - eff_r.effect
    assert contrast.t_hat == pytest.approx(t, abs=1e-10)
    assert contrast.statistic == pytest.approx(t * t / var, rel=1e-8)


def test_split_contrast_statistic_symmetric_under_relabeling():
    data, left, right = fixture_40(seed=39)
    kwargs = dict(
        propensity_spec=parse_spec("1 + x1", "A"),
        outcome_spec=parse_spec("1 + x1 + A + A:x1", "A"),
    )
    for kind in (EstimatorKind.IPW, EstimatorKind.GFORMULA, EstimatorKind.DR):
        config = GrowConfig(kind, scope=NuisanceScope.PARENT, **kwargs)
        a = split_contrast(data, left, right, config)
        b = split_contrast(data, right, left, config)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-9)
        assert a.t_hat == pytest.approx(-b.t_hat, rel=1e-9)


def test_split_contrast_rejects_overlapping_children():
    data, left, right = fixture_40(seed=40)
    with pytest.raises(ValueError, match="disjoint"):
        split_contrast(data, left, left, GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.PARENT,
                                                    propensity_spec=parse_spec("1", "A")))


@pytest.mark.parametrize("shared", ["one-row", "one-row-repeated-in-left", "last-row-first"])
def test_split_contrast_rejects_children_that_share_a_row(shared):
    # unsorted children, duplicates allowed within a child, one row in both
    data, left, right = fixture_40(seed=40)
    rng = np.random.default_rng(41)
    left, right = rng.permutation(left), rng.permutation(right)
    if shared == "one-row":
        right = np.append(right, left[3])
    elif shared == "one-row-repeated-in-left":
        left = np.append(left, [left[3], left[3]])
        right = np.insert(right, 2, left[3])
    else:
        left = np.append(left, data.n - 1)
        right = np.insert(right[right != data.n - 1], 0, data.n - 1)
    config = GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.PARENT,
                        propensity_spec=parse_spec("1", "A"))
    with pytest.raises(ValueError, match="disjoint"):
        split_contrast(data, left, right, config)
    with pytest.raises(ValueError, match="disjoint"):
        split_contrast(data, right, left, config)


def test_split_contrast_accepts_duplicates_within_a_child():
    data, left, right = fixture_40(seed=40)
    config = GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.PARENT,
                        propensity_spec=parse_spec("1", "A"))
    contrast = split_contrast(data, np.concatenate([left, left[:5]]), right[::-1], config)
    assert np.isfinite(contrast.statistic)


def test_split_contrast_rejects_boolean_rows():
    data, left, right = fixture_40(seed=40)
    in_l = np.isin(np.arange(data.n), left)
    with pytest.raises(TypeError, match="integer index array"):
        split_contrast(data, in_l, ~in_l, GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.PARENT,
                                                     propensity_spec=parse_spec("1", "A")))


def test_split_contrast_empty_arm_inadmissible():
    x = np.arange(20.0)
    A = (x < 10).astype(int)  # left child all treated
    Y = np.ones(20)
    data = make_data({"x1": x}, A, Y)
    left = x < 10
    with pytest.raises(InadmissibleSplitError):
        split_contrast(data, np.flatnonzero(left), np.flatnonzero(~left),
                       GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.PARENT,
                                  propensity_spec=parse_spec("1", "A")),
                       min_per_arm=1)


def test_dr_influence_variance_tracks_monte_carlo():
    # fixed split at x4 > 0 under the heterogeneous design with true models
    from efftree.simulate import SimSetting, generate

    p_spec = parse_spec("1 + x1 + x2 + x3", "A")
    o_spec = parse_spec("1 + A + lt(x1,0) + exp(x2) + A:gt(x4,0) + cube(x5)", "A")
    R = 2000
    config = GrowConfig(EstimatorKind.DR, propensity_spec=p_spec, outcome_spec=o_spec,
                        scope=NuisanceScope.PARENT, variance_method=VarianceMethod.INFLUENCE)
    t_hats, variances = [], []
    for rep in range(R):
        data, _ = generate(SimSetting("heterogeneous", 1000, seed=11_000_000 + rep))
        x4 = data.column("x4")
        contrast = split_contrast(data, np.flatnonzero(x4 > 0), np.flatnonzero(x4 <= 0), config)
        t_hats.append(contrast.t_hat)
        variances.append(contrast.variance)
    ratio = np.mean(variances) / np.var(t_hats)
    assert abs(ratio - 1.0) <= 0.15, f"ratio {ratio:.3f}"


def test_ipw_whole_scope_reuses_models():
    data, left, right = fixture_40(seed=41)
    spec = parse_spec("1 + x1", "A")
    whole = NuisanceModels(propensity=fit_logistic(data, full(data), spec), epsilon=0.01)
    config = GrowConfig(EstimatorKind.IPW, propensity_spec=spec, scope=NuisanceScope.WHOLE)
    a = split_contrast(data, left, right, config, whole_models=whole)
    b = split_contrast(data, left, right, config)
    assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

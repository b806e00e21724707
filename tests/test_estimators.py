import numpy as np
import pytest

import oracle
from efftree import glm
from efftree.data import Continuous, Dataset, Schema
from efftree.estimators import (
    Contributions,
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceModels,
    NuisanceScope,
    VarianceMethod,
    estimate_dr,
    estimate_g,
    estimate_ipw,
    node_effect,
    shared_models,
    subgroup_terms,
)
from efftree.glm import Design, fit_logistic, fit_ols, parse_spec, predict_mean
from efftree.search import if_variance, ipw_variance_per_child, node_tables, split_contrast
from efftree.tree import GrowConfig
from oracle import fit_on, g_variance_pooled, ipw_variance_pooled, terms_of


def make_data(x: dict, A, Y) -> Dataset:
    schema = Schema(tuple((name, Continuous()) for name in x), treatment="A", outcome="Y")
    return Dataset(schema, {k: np.asarray(v, dtype=float) for k, v in x.items()},
                   np.asarray(A), np.asarray(Y, dtype=float))


def full(data):
    return np.arange(data.n)


def ols(data, rows, spec):
    """Least squares of the outcome on ``spec`` over ``rows``."""
    return fit_ols(Design(data, rows, spec), data.outcome[rows])


def propensity_fit(data, rows, spec):
    """Logistic regression of the treatment on ``spec`` over ``rows``."""
    return fit_logistic(Design(data, rows, spec), data.treatment[rows])


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
    terms = terms_of(EstimatorKind.IPW, data, full(data), constant_models(0.5))
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
    fit = propensity_fit(data, full(data), spec)
    models = NuisanceModels(propensity=fit, outcome=None, epsilon=0.01)
    eff = estimate_ipw(data, full(data), models)

    # oracle: plug-in evaluation, term by term
    e = np.clip(predict_mean(fit, Design(data, full(data), spec).observed()), 0.01, 0.99)
    mu1 = sum(A[i] * Y[i] / e[i] for i in range(n)) / n
    mu0 = sum((1 - A[i]) * Y[i] / (1 - e[i]) for i in range(n)) / n
    assert eff.mu1 == pytest.approx(mu1, abs=1e-10)
    assert eff.mu0 == pytest.approx(mu0, abs=1e-10)
    assert eff.effect == pytest.approx(mu1 - mu0, abs=1e-10)


def test_g_constant_predictions():
    data = make_data({"x1": [0.0, 1.0, 2.0]}, [1, 0, 1], [4.0, 4.0, 4.0])
    spec = parse_spec("1", "A")
    fit = ols(data, full(data), spec)
    fit.coefficients[:] = [4.0]
    models_hi = NuisanceModels(outcome=fit, epsilon=0.01)
    eff = estimate_g(data, full(data), models_hi)
    assert eff.effect == pytest.approx(0.0)

    spec_a = parse_spec("1 + A", "A")
    fit_a = ols(data, full(data), spec_a)
    fit_a.coefficients[:] = [1.0, 3.0]  # g0 = 1, g1 = 4
    eff = estimate_g(data, full(data), NuisanceModels(outcome=fit_a, epsilon=0.01))
    assert eff.mu1 == pytest.approx(4.0)
    assert eff.mu0 == pytest.approx(1.0)
    assert eff.effect == pytest.approx(3.0)


def test_g_is_mean_of_predictions():
    data = make_data({"x1": [1.0, 2.0, 3.0]}, [0, 1, 0], [1.0, 2.0, 3.0])
    spec = parse_spec("1 + x1", "A")
    fit = ols(data, full(data), spec)
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
    fit = ols(data, full(data), spec)
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
    out = ols(data, full(data), parse_spec("1 + x1 + A", "A"))
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
    out = ols(data, full(data), parse_spec("1", "A"))
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
    prop = propensity_fit(data, full(data), parse_spec("1 + x1", "A"))
    out = ols(data, full(data), parse_spec("1 + x1 + A", "A"))
    models = NuisanceModels(propensity=prop, outcome=out, epsilon=0.01)
    eff = estimate_dr(data, full(data), models)

    e = np.clip(predict_mean(prop, Design(data, full(data), prop.spec).observed()), 0.01, 0.99)
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


# ---------------------------------------------------------------- nuisance policy


def policy_config(estimator, scope=NuisanceScope.WHOLE):
    return GrowConfig(estimator, scope=scope, propensity_spec=parse_spec("1 + x1", "A"),
                      outcome_spec=parse_spec("1 + A + x1", "A"))


@pytest.mark.parametrize("scope", [NuisanceScope.PARENT, NuisanceScope.CHILD])
def test_shared_models_are_none_outside_whole_scope(scope):
    data, _, _ = fixture_40()
    assert shared_models(data, full(data), policy_config(EstimatorKind.DR, scope)) is None


def test_shared_models_in_whole_scope_are_the_fit_on_the_rows_in_play():
    data, left, _ = fixture_40()
    config = policy_config(EstimatorKind.DR)
    for rows in (full(data), left):
        shared = shared_models(data, rows, config)
        fit = fit_on(data, rows, config)
        assert np.array_equal(shared.propensity.coefficients, fit.propensity.coefficients)
        assert np.array_equal(shared.outcome.coefficients, fit.outcome.coefficients)


@pytest.mark.parametrize("estimator", list(EstimatorKind))
def test_subgroup_terms_with_an_empty_arm_under_shared_models(estimator):
    data, _, _ = fixture_40()
    config = policy_config(estimator)
    shared = shared_models(data, full(data), config)
    treated = np.flatnonzero(data.treatment == 1)
    if estimator == EstimatorKind.GFORMULA:
        models, terms = subgroup_terms(data, treated, config, shared)
        assert models is shared
        assert terms.smaller_arm == 0
        assert np.array_equal(terms.delta, terms_of(estimator, data, treated, shared).delta)
    else:
        with pytest.raises(InadmissibleSplitError, match="empty treatment arm"):
            subgroup_terms(data, treated, config, shared)


def test_subgroup_terms_turn_a_failed_fit_into_an_inadmissible_subgroup():
    data, _, _ = fixture_40()
    config = policy_config(EstimatorKind.IPW, NuisanceScope.PARENT)
    with pytest.raises(InadmissibleSplitError, match="nuisance fit failed"):
        subgroup_terms(data, np.flatnonzero(data.treatment == 1), config)


def test_subgroup_terms_fit_the_subgroup_without_shared_models():
    data, left, _ = fixture_40()
    config = policy_config(EstimatorKind.DR, NuisanceScope.PARENT)
    models, terms = subgroup_terms(data, left, config)
    fit = fit_on(data, left, config)
    assert np.array_equal(models.propensity.coefficients, fit.propensity.coefficients)
    assert np.array_equal(terms.delta, terms_of(EstimatorKind.DR, data, left, fit).delta)


@pytest.mark.parametrize("estimator, family, lookups", [
    (EstimatorKind.IPW, "gaussian", 1),
    (EstimatorKind.GFORMULA, "gaussian", 1),
    (EstimatorKind.GFORMULA, "binomial", 1),
    (EstimatorKind.DR, "gaussian", 2),
], ids=["ipw", "g-gaussian", "g-binomial", "dr"])
def test_a_parent_scope_node_gathers_each_model_design_once(monkeypatch, estimator, family,
                                                           lookups):
    # the fit, the per-row terms and the sandwich share one Design per model
    rng = np.random.default_rng(41)
    x1 = rng.standard_normal(200)
    A = (rng.random(200) < 1 / (1 + np.exp(-x1))).astype(int)
    Y = (rng.random(200) < 1 / (1 + np.exp(-0.5 * x1 - A))).astype(float)
    data = make_data({"x1": x1}, A, Y)
    config = GrowConfig(estimator, scope=NuisanceScope.PARENT, outcome_family=family,
                        propensity_spec=parse_spec("1 + x1", "A"),
                        outcome_spec=parse_spec("1 + A + x1 + A:x1", "A"))
    calls = []
    root_design = glm._root_design
    monkeypatch.setattr(glm, "_root_design", lambda *args: calls.append(1) or root_design(*args))
    models, terms = subgroup_terms(data, full(data), config)
    node_tables(config, models, terms)
    assert len(calls) == lookups


@pytest.mark.parametrize("scope", [NuisanceScope.WHOLE, NuisanceScope.PARENT],
                         ids=lambda v: v.value)
def test_binomial_outcome_at_the_observed_arm_is_g1_or_g0_bitwise(scope):
    # the pooled sandwich takes each row's observed-arm prediction from g1
    # (treated) or g0 (control); A:x1 with negative x1 gives -0.0 in a
    # control row, in the observed design and at A=0 alike
    rng = np.random.default_rng(43)
    x1 = rng.standard_normal(300)
    A = (rng.random(300) < 1 / (1 + np.exp(-x1))).astype(int)
    Y = (rng.random(300) < 1 / (1 + np.exp(-0.5 * x1 - A + A * x1))).astype(float)
    data = make_data({"x1": x1}, A, Y)
    config = GrowConfig(EstimatorKind.GFORMULA, scope=scope, outcome_family="binomial",
                        outcome_spec=parse_spec("1 + A + x1 + A:x1", "A"))
    shared = shared_models(data, full(data), config)
    for rows in (full(data), np.flatnonzero(x1 > -0.5), rng.permutation(data.n)[:120]):
        models, terms = subgroup_terms(data, rows, config, shared)
        observed = predict_mean(models.outcome, terms.designs[1].observed())
        assert np.where(terms.A == 1, terms.g1, terms.g0).tobytes() == observed.tobytes()


# ---------------------------------------------------------------- influence variance


def fake_terms(influence):
    """Child terms with zero effect whose per-row effect terms are ``influence``."""
    delta = np.asarray(influence, dtype=float)
    zeros = np.zeros(len(delta))
    return Contributions(A=zeros, Y=zeros, e=None, g1=None, g0=None, zdiff=None,
                         d1=zeros, d0=zeros, delta=delta, designs=(None, None))


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
    X = Design(data, rows, fit.spec).observed()
    e = np.clip(predict_mean(fit, X), epsilon, 1 - epsilon)
    X = X[:, fit.kept]
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
    fit = propensity_fit(data, full(data), spec)
    got = ipw_variance_pooled(data, left, right, fit, 0.01)
    expected = theorem_pooled_variance_oracle(data, left, right, fit, 0.01)
    assert got == pytest.approx(expected, abs=1e-8)


def test_ipw_pooled_variance_swap_invariant():
    data, left, right = fixture_40(seed=32)
    fit = propensity_fit(data, full(data), parse_spec("1 + x1 + x2", "A"))
    a = ipw_variance_pooled(data, left, right, fit, 0.01)
    b = ipw_variance_pooled(data, right, left, fit, 0.01)
    assert a == pytest.approx(b, rel=1e-12)


def theorem_per_child_variance_oracle(data, rows_l, rows_r, fit_l, fit_r, epsilon):
    """From-scratch per-child sandwich evaluation with explicit loops."""
    sides = {}
    for name, rows, fit in (("l", rows_l, fit_l), ("r", rows_r, fit_r)):
        X = Design(data, rows, fit.spec).observed()
        e = np.clip(predict_mean(fit, X), epsilon, 1 - epsilon)
        X = X[:, fit.kept]
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


def ipw_child_fit(data, rows, fit, epsilon=0.01):
    """A child's (models, terms) under its own propensity fit, as
    ``subgroup_terms`` gives them in child scope."""
    models = NuisanceModels(propensity=fit, epsilon=epsilon)
    return models, terms_of(EstimatorKind.IPW, data, rows, models)


def test_ipw_per_child_variance_matches_oracle():
    data, left, right = fixture_40(seed=33)
    spec = parse_spec("1 + x1", "A")
    fit_l = propensity_fit(data, left, spec)
    fit_r = propensity_fit(data, right, spec)
    got = ipw_variance_per_child(ipw_child_fit(data, left, fit_l),
                                 ipw_child_fit(data, right, fit_r))
    expected = theorem_per_child_variance_oracle(data, left, right, fit_l, fit_r, 0.01)
    assert got == pytest.approx(expected, abs=1e-8)


def test_ipw_per_child_variance_swap_invariant():
    data, left, right = fixture_40(seed=34)
    spec = parse_spec("1 + x1", "A")
    fitted_l = ipw_child_fit(data, left, propensity_fit(data, left, spec))
    fitted_r = ipw_child_fit(data, right, propensity_fit(data, right, spec))
    a = ipw_variance_per_child(fitted_l, fitted_r)
    b = ipw_variance_per_child(fitted_r, fitted_l)
    assert a == pytest.approx(b, rel=1e-12)


def g_pooled_variance_oracle(data, rows_l, rows_r, fit):
    """From-scratch g-formula sandwich evaluation with explicit loops."""
    rows = np.union1d(rows_l, rows_r)
    design = Design(data, rows, fit.spec)
    Z = design.observed()[:, fit.kept]
    Z1, Z0 = design.at_one[:, fit.kept], design.at_zero()[:, fit.kept]
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
    fit = ols(data, full(data), parse_spec("1 + x1 + A + A:x1", "A"))
    got = g_variance_pooled(data, left, right, fit)
    expected = g_pooled_variance_oracle(data, left, right, fit)
    assert got == pytest.approx(expected, abs=1e-10)


def test_g_pooled_variance_swap_invariant():
    data, left, right = fixture_40(seed=36)
    fit = ols(data, full(data), parse_spec("1 + x1 + A + A:x1", "A"))
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
        data, np.arange(8), left,
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
        data, full(data), np.isin(full(data), left),
        GrowConfig(EstimatorKind.DR, propensity_spec=parse_spec("1 + x1", "A"),
                   outcome_spec=parse_spec("1 + x1 + A", "A"), scope=NuisanceScope.PARENT),
    )
    assert contrast.statistic == pytest.approx(contrast.t_hat**2 / contrast.variance, rel=1e-12)


def test_split_contrast_matches_manual_pipeline():
    data, left, right = fixture_40(seed=38)
    spec = parse_spec("1 + x1 + x2", "A")
    contrast = split_contrast(
        data, full(data), np.isin(full(data), left),
        GrowConfig(EstimatorKind.IPW, propensity_spec=spec, scope=NuisanceScope.PARENT,
                   variance_method=VarianceMethod.POOLED_SANDWICH),
    )
    fit = propensity_fit(data, full(data), spec)
    models = NuisanceModels(propensity=fit, outcome=None, epsilon=0.01)
    eff_l = estimate_ipw(data, left, models)
    eff_r = estimate_ipw(data, right, models)
    var = theorem_pooled_variance_oracle(data, left, right, fit, 0.01)
    t = eff_l.effect - eff_r.effect
    assert contrast.t_hat == pytest.approx(t, abs=1e-10)
    assert contrast.statistic == pytest.approx(t * t / var, rel=1e-8)


def test_split_contrast_statistic_symmetric_under_relabeling():
    data, left, right = fixture_40(seed=39)
    in_l = np.isin(full(data), left)
    kwargs = dict(
        propensity_spec=parse_spec("1 + x1", "A"),
        outcome_spec=parse_spec("1 + x1 + A + A:x1", "A"),
    )
    for kind in (EstimatorKind.IPW, EstimatorKind.GFORMULA, EstimatorKind.DR):
        config = GrowConfig(kind, scope=NuisanceScope.PARENT, **kwargs)
        a = split_contrast(data, full(data), in_l, config)
        b = split_contrast(data, full(data), ~in_l, config)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-9)
        assert a.t_hat == pytest.approx(-b.t_hat, rel=1e-9)


def test_split_contrast_accepts_duplicates_within_a_child():
    # the node's rows unsorted, five left rows listed twice: every scope
    # counts a row as often as it is listed, in t_hat and in the variance,
    # as the oracle does on the same inputs
    data, left, right = fixture_40(seed=40)
    rows = np.concatenate([left, left[:5], right[::-1]])
    in_l = np.arange(len(rows)) < len(left) + 5
    for scope in NuisanceScope:
        config = GrowConfig(EstimatorKind.IPW, scope=scope, variance_method=VarianceMethod.INFLUENCE,
                            propensity_spec=parse_spec("1 + x1", "A"))
        shared = shared_models(data, full(data), config)
        contrast = split_contrast(data, rows, in_l, config, shared=shared)
        expected = oracle.split_contrast(data, rows, in_l, config, shared=shared)
        assert np.isfinite(contrast.statistic)
        assert contrast.t_hat == pytest.approx(expected.t_hat, rel=1e-9)
        assert contrast.variance == pytest.approx(expected.variance, rel=1e-9)
        once = split_contrast(data, full(data), np.isin(full(data), left), config, shared=shared)
        assert contrast.t_hat != pytest.approx(once.t_hat, rel=1e-6)


def test_split_contrast_counts_each_listed_row_in_every_scope():
    # listing every node row twice keeps t_hat and doubles each sum: the
    # pooled and per-child sandwich variances halve, and the influence
    # variance, a ddof=1 sample variance over the listed rows divided by
    # their count, scales by (n - 1) / (2n - 1)
    from efftree.simulate import SimSetting, generate, make_config

    setting = SimSetting("heterogeneous", 600, seed=5)
    data, _ = generate(setting)
    rows = np.arange(0, data.n, 2)
    left = data.column("x4")[rows] > 0
    n = len(rows)
    checked = set()
    for kind in EstimatorKind:
        for scope in NuisanceScope:
            for variance in VarianceMethod:
                try:
                    config = make_config(setting, kind, outcome_variant="mis-func", scope=scope,
                                         variance_method=variance)
                except ValueError:
                    continue
                shared = shared_models(data, rows, config)
                once = split_contrast(data, rows, left, config, shared=shared)
                twice = split_contrast(data, np.repeat(rows, 2), np.repeat(left, 2), config,
                                       shared=shared)
                label = (kind.value, scope.value, config.variance_method.value)
                influence = config.variance_method == VarianceMethod.INFLUENCE
                ratio = (n - 1) / (2 * n - 1) if influence else 0.5
                assert twice.t_hat == pytest.approx(once.t_hat, rel=1e-12), label
                assert twice.variance == pytest.approx(ratio * once.variance, rel=1e-9), label
                checked.add(label)
    assert len(checked) == 14


def test_split_contrast_rejects_boolean_rows():
    data, left, right = fixture_40(seed=40)
    in_l = np.isin(np.arange(data.n), left)
    with pytest.raises(TypeError, match="integer index array"):
        split_contrast(data, in_l, in_l, GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.PARENT,
                                                    propensity_spec=parse_spec("1", "A")))


@pytest.mark.parametrize("left", [
    pytest.param(lambda rows: np.flatnonzero(rows < 20), id="indices"),
    pytest.param(lambda rows: (rows < 20).astype(float), id="floats"),
    pytest.param(lambda rows: rows[:-1] < 20, id="shorter-than-rows"),
    pytest.param(lambda rows: (rows < 20)[None, :], id="two-dimensional"),
])
def test_split_contrast_left_is_a_boolean_mask_over_rows(left):
    data, _, _ = fixture_40(seed=40)
    config = GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.PARENT,
                        propensity_spec=parse_spec("1", "A"))
    with pytest.raises(TypeError, match="boolean mask over rows"):
        split_contrast(data, full(data), left(full(data)), config)


def test_split_contrast_refuses_an_empty_side_and_whole_scope_without_shared_models():
    data, left, _ = fixture_40(seed=40)
    rows = full(data)
    config = GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.PARENT,
                        propensity_spec=parse_spec("1", "A"))
    for side in (np.ones(data.n, dtype=bool), np.zeros(data.n, dtype=bool)):
        with pytest.raises(InadmissibleSplitError, match="empty child"):
            split_contrast(data, rows, side, config)
    whole = GrowConfig(EstimatorKind.IPW, scope=NuisanceScope.WHOLE,
                       propensity_spec=parse_spec("1", "A"))
    with pytest.raises(ValueError, match="shared models"):
        split_contrast(data, rows, np.isin(rows, left), whole)


def test_split_contrast_empty_arm_inadmissible():
    x = np.arange(20.0)
    A = (x < 10).astype(int)  # left child all treated
    Y = np.ones(20)
    data = make_data({"x1": x}, A, Y)
    left = x < 10
    with pytest.raises(InadmissibleSplitError):
        split_contrast(data, np.arange(20), left,
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
        contrast = split_contrast(data, np.arange(data.n), x4 > 0, config)
        t_hats.append(contrast.t_hat)
        variances.append(contrast.variance)
    ratio = np.mean(variances) / np.var(t_hats)
    assert abs(ratio - 1.0) <= 0.15, f"ratio {ratio:.3f}"


def test_ipw_whole_scope_reuses_models():
    # whole scope scores on exactly the models it is given: the shared fit
    # on every row scores as the oracle does with it, and a fit on other
    # rows changes the statistic
    data, left, right = fixture_40(seed=41)
    spec = parse_spec("1 + x1", "A")
    whole = NuisanceModels(propensity=propensity_fit(data, full(data), spec), epsilon=0.01)
    config = GrowConfig(EstimatorKind.IPW, propensity_spec=spec, scope=NuisanceScope.WHOLE)
    rows, in_l = full(data), np.isin(full(data), left)
    a = split_contrast(data, rows, in_l, config, shared=whole)
    assert a.statistic == split_contrast(data, rows, in_l, config,
                                         shared=shared_models(data, rows, config)).statistic
    expected = oracle.split_contrast(data, rows, in_l, config, shared=whole)
    assert a.statistic == pytest.approx(expected.statistic, rel=1e-8)
    other = shared_models(data, rows[:30], config)
    assert a.statistic != pytest.approx(
        split_contrast(data, rows, in_l, config, shared=other).statistic, rel=1e-6)
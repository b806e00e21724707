"""Subgroup potential-outcome-mean estimators and the parts of split variances.

Three estimators of the pair (mu1, mu0) inside a subgroup w are provided:

* inverse probability weighting: weights observed outcomes by the inverse of
  the fitted (and truncated) propensity score,
* g-formula: averages outcome-model predictions at A=1 and A=0 over the
  subgroup's covariates,
* doubly robust: augments the g-formula predictions with inverse-weighted
  residuals, consistent when either nuisance model is correct.

All three write their per-row terms in one place, ``contributions``; those
terms, arm counts included, live only while a node or a split is scored,
and a tree node keeps just its ``NodeEffect``. Subgroups are row-index
arrays (integer indices into the dataset, order kept, duplicates allowed;
see ``glm``), so a bootstrap replicate is estimated on its resampled
indices without copying the data.

A candidate split of a parent into children (l, r) is scored by the squared
standardized contrast  statistic = t_hat^2 / var_hat  where t_hat is the
difference of the two child effects. Variances come either from sandwich
(M-estimation) formulas that account for nuisance estimation, or from the
empirical variance of pooled per-observation influence contributions.

The nuisance scope (which rows fit the models behind a subgroup's estimate)
is decided here alone: ``shared_models`` is the whole-scope fit on every
row in play, and ``subgroup_terms`` gives a subgroup's models and per-row
terms, or InadmissibleSplitError on a failed fit or an IPW or DR empty arm.

Splits are scored in ``search``: its batched kernel scores every whole- and
parent-scope split, and ``search.split_contrast`` scores one realized
split in any scope. The sandwich parts it shares with this module have one
owner each here: ``sandwich_terms`` (per-row design, residual and contrast
gradient, and the information matrix), ``solve_information`` (the one
Cholesky solve, which decides singularity) and ``variance_floor`` (the one
degeneracy floor). Child scope, whose models are refit per child, takes
its variance from ``if_variance`` or ``ipw_variance_per_child``.
Fitting and scoring take the fit's ``tree.GrowConfig``, the one place that
decides which (estimator, scope, variance) combinations are valid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
import scipy.linalg

from .data import Dataset
from .glm import Design, DesignSpec, FitError, ModelFit, fit_logistic, fit_ols, predict_mean

if TYPE_CHECKING:
    from .tree import GrowConfig

# A subgroup's (propensity, outcome) designs, None for a model not in use.
Designs = tuple[Optional[Design], Optional[Design]]

# Relative floor distinguishing true degenerate contrasts (identical
# contributions, variance exactly zero up to rounding) from genuinely tiny
# but meaningful variances.
REL_VAR_TOL = 1e-12


class EstimatorKind(str, enum.Enum):
    IPW = "ipw"
    GFORMULA = "g"
    DR = "dr"


class NuisanceScope(str, enum.Enum):
    WHOLE = "whole"
    PARENT = "parent"
    CHILD = "child"


class VarianceMethod(str, enum.Enum):
    POOLED_SANDWICH = "pooled-sandwich"
    PER_CHILD_SANDWICH = "per-child-sandwich"
    INFLUENCE = "influence"


class InadmissibleSplitError(RuntimeError):
    """A candidate split cannot be scored (fit failure, singular information
    matrix, degenerate variance, or an empty child arm)."""


@dataclass(frozen=True)
class NuisanceModels:
    """Fitted nuisance models plus the propensity truncation bound."""

    propensity: Optional[ModelFit] = None
    outcome: Optional[ModelFit] = None
    epsilon: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")


@dataclass(frozen=True)
class NodeEffect:
    """Subgroup effect estimate: mu1, mu0 and their difference, the three
    numbers ``tree.json`` stores for a node."""

    mu1: float
    mu0: float
    effect: float


@dataclass(frozen=True)
class Contributions:
    """Per-row terms of a subgroup estimate, one entry per subgroup row.

    ``d1`` and ``d0`` are the per-row terms whose means are mu1 and mu0, and
    ``delta`` is the per-row effect contribution. ``e`` is the truncated
    propensity (IPW, DR), ``g1``/``g0`` the outcome predictions at A=1 and
    A=0 (g-formula, DR), and ``zdiff`` the kept columns of a gaussian
    outcome model's design difference Z(A=1) - Z(A=0); each is None where
    it does not apply.
    """

    A: np.ndarray
    Y: np.ndarray
    e: Optional[np.ndarray]
    g1: Optional[np.ndarray]
    g0: Optional[np.ndarray]
    zdiff: Optional[np.ndarray]
    d1: np.ndarray
    d0: np.ndarray
    delta: np.ndarray
    designs: Designs  # of the rows, reused by ``sandwich_terms``

    @property
    def smaller_arm(self) -> int:
        """Rows in the smaller treatment arm of the subgroup."""
        n_treated = int(self.A.sum())
        return min(n_treated, len(self.A) - n_treated)


def contributions(kind: EstimatorKind, data: Dataset, rows: np.ndarray,
                  models: NuisanceModels, designs: Designs) -> Contributions:
    """The estimator's per-row terms on the given rows.

    ``designs`` are the rows' designs (``model_designs``): the propensity
    is evaluated at the observed treatment, the outcome at A=1 and A=0.
    The g-formula contrast of a gaussian outcome model is taken from the
    design difference, so a spec without treatment interactions gives an
    exactly constant delta; the doubly robust delta adds the two
    inverse-weighted residuals to that contrast.
    """
    if len(rows) == 0:
        raise ValueError("empty subgroup")
    A = data.treatment[rows].astype(np.float64)
    Y = data.outcome[rows]
    e = g1 = g0 = zdiff = None
    if kind != EstimatorKind.GFORMULA:
        prop = models.propensity
        if prop is None:
            raise ValueError("propensity model required")
        e = np.clip(predict_mean(prop, designs[0].observed()),
                    models.epsilon, 1.0 - models.epsilon)
    if kind != EstimatorKind.IPW:
        outcome = models.outcome
        if outcome is None:
            raise ValueError("outcome model required")
        g1 = predict_mean(outcome, designs[1].at_one)
        g0 = predict_mean(outcome, designs[1].at_zero())
        if outcome.family == "binomial":
            gdelta = g1 - g0
        else:
            zdiff = designs[1].difference()[:, outcome.kept]
            gdelta = zdiff @ outcome.coefficients[outcome.kept]

    if kind == EstimatorKind.IPW:
        d1 = A * Y / e
        d0 = (1.0 - A) * Y / (1.0 - e)
        delta = d1 - d0
    elif kind == EstimatorKind.GFORMULA:
        d1, d0, delta = g1, g0, gdelta
    else:
        r1 = A * (Y - g1) / e
        r0 = (1.0 - A) * (Y - g0) / (1.0 - e)
        d1 = g1 + r1
        d0 = g0 + r0
        delta = gdelta + r1 - r0
    return Contributions(A, Y, e, g1, g0, zdiff, d1, d0, delta, designs)


def node_effect(c: Contributions) -> NodeEffect:
    """Subgroup effect estimate from the estimator's per-row terms."""
    mu1 = float(c.d1.mean())
    mu0 = float(c.d0.mean())
    return NodeEffect(mu1=mu1, mu0=mu0, effect=mu1 - mu0)


def _estimate(kind: EstimatorKind, data: Dataset, rows: np.ndarray,
              models: NuisanceModels) -> NodeEffect:
    designs = tuple(None if fit is None else Design(data, rows, fit.spec)
                    for fit in (models.propensity, models.outcome))
    return node_effect(contributions(kind, data, rows, models, designs))


def estimate_ipw(data: Dataset, rows: np.ndarray, models: NuisanceModels) -> NodeEffect:
    """Inverse-probability-weighted subgroup means: each arm's outcomes are
    weighted by the inverse truncated propensity and averaged over the whole
    subgroup."""
    return _estimate(EstimatorKind.IPW, data, rows, models)


def estimate_g(data: Dataset, rows: np.ndarray, models: NuisanceModels) -> NodeEffect:
    """G-formula subgroup means: outcome-model predictions at A=1 and A=0
    averaged over the subgroup's covariates."""
    return _estimate(EstimatorKind.GFORMULA, data, rows, models)


def estimate_dr(data: Dataset, rows: np.ndarray, models: NuisanceModels) -> NodeEffect:
    """Doubly robust subgroup means: g-formula predictions augmented with
    inverse-weighted residuals of the observed arm."""
    return _estimate(EstimatorKind.DR, data, rows, models)


ESTIMATE = {
    EstimatorKind.IPW: estimate_ipw,
    EstimatorKind.GFORMULA: estimate_g,
    EstimatorKind.DR: estimate_dr,
}


def variance_floor(scale: float, n: int) -> float:
    """Degeneracy floor of a split variance: with ``scale`` the mean of
    delta^2 over the n scored rows, a variance at or below it is rounding
    noise of identical contributions, and the split is inadmissible."""
    return REL_VAR_TOL * scale / n


def _checked_variance(var: float, scale: float, n: int) -> float:
    if not np.isfinite(var) or var <= variance_floor(scale, n):
        raise InadmissibleSplitError("degenerate variance")
    return var


def solve_information(info: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """info^-1 rhs by Cholesky; a singular information matrix makes the
    split (or every split of the node) inadmissible."""
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(info), rhs)
    except scipy.linalg.LinAlgError:
        raise InadmissibleSplitError("singular information matrix")


def sandwich_terms(kind: EstimatorKind, models: NuisanceModels, terms: Contributions):
    """Per-row pieces of the sandwich variance on the rows of ``terms``, the
    estimator's contributions: ``(design, residual, grad, info)``.

    ``design`` holds the nuisance model's kept design columns (the
    propensity model for IPW, the outcome model for g-formula), and
    ``residual * design`` is each row's score: A - e for IPW, Y - g_hat (or
    Y - Z beta) for g-formula. ``grad`` is the per-row gradient of the
    contrast in the model coefficients, and ``info`` the information matrix
    over the rows. The model matrices come from the design that ``terms``
    carries, so no row is gathered again.
    """
    fit = models.propensity if kind == EstimatorKind.IPW else models.outcome
    built = terms.designs[0 if kind == EstimatorKind.IPW else 1]
    Z = built.observed()
    design = Z[:, fit.kept]
    if kind == EstimatorKind.IPW:
        A, Y, e = terms.A, terms.Y, terms.e
        h = A * Y * (1.0 - e) / e + (1.0 - A) * Y * e / (1.0 - e)
        grad = h[:, None] * design
        weight = e * (1.0 - e)
        residual = A - e
    elif fit.family == "binomial":
        g1, g0 = terms.g1, terms.g0
        Z1, Z0 = built.at_one[:, fit.kept], built.at_zero()[:, fit.kept]
        grad = (g1 * (1 - g1))[:, None] * Z1 - (g0 * (1 - g0))[:, None] * Z0
        # Z's rows are at_one's (A=1) or at_zero()'s (A=0): predicted as g1 or g0
        ghat = np.where(terms.A == 1.0, g1, g0)
        weight = ghat * (1 - ghat)
        residual = terms.Y - ghat
    else:
        info = design.T @ design / len(Z)
        residual = terms.Y - design @ fit.coefficients[fit.kept]
        return design, residual, terms.zdiff, info
    info = (design * weight[:, None]).T @ design / len(Z)
    return design, residual, grad, info


def if_variance(terms_l: Contributions, terms_r: Contributions, n_union: int) -> float:
    """Variance of t_hat from pooled per-observation influence contributions.

    A child's contribution is delta_i - effect, both read from its terms.
    Left contributions are scaled by 1/p_l, right by -1/p_r (p_s the child
    share of the union); the sample variance of the pooled vector divided by
    n_union estimates Var[t_hat]. Degenerate pools (fewer than two
    contributions, or variance at the rounding floor) are inadmissible.
    """
    n_l, n_r = len(terms_l.delta), len(terms_r.delta)
    if n_l + n_r < 2:
        raise InadmissibleSplitError("fewer than 2 influence contributions")
    pooled = np.concatenate([
        (terms_l.delta - node_effect(terms_l).effect) * (n_union / n_l),
        -(terms_r.delta - node_effect(terms_r).effect) * (n_union / n_r),
    ])
    var = float(pooled.var(ddof=1)) / n_union
    scale = (n_l * float(np.mean(terms_l.delta**2))
             + n_r * float(np.mean(terms_r.delta**2))) / n_union
    return _checked_variance(var, scale, n_union)


def uncentered_sandwich(sum_sq_infl, n_p, p_l, p_r, t_l, t_r):
    """Sandwich variance from the sum of squared uncentered influences:
    subtract the subgroup-share centering term; elementwise on arrays."""
    return (sum_sq_infl / n_p - (p_r * t_l + p_l * t_r) ** 2 / (p_l * p_r)) / n_p


def ipw_variance_per_child(
    fitted_l: tuple[NuisanceModels, Contributions],
    fitted_r: tuple[NuisanceModels, Contributions],
) -> float:
    """Sandwich variance of the IPW contrast with separate propensity fits per
    child, each child's (models, terms) from ``subgroup_terms``.

    Each child's score correction is scaled by that child's share of the
    union and enters with the sign of the child's term in the contrast, so
    the per-observation influence is antisymmetric under relabeling the
    children (the child score blocks of the estimating-equation Jacobian
    carry the subgroup shares).
    """
    n_l, n_r = len(fitted_l[1].delta), len(fitted_r[1].delta)
    n_p = n_l + n_r
    p_l, p_r = n_l / n_p, n_r / n_p

    parts = []
    for models, terms in (fitted_l, fitted_r):
        X, residual, grad, info = sandwich_terms(EstimatorKind.IPW, models, terms)
        c = solve_information(info, grad.mean(axis=0))
        delta = terms.delta
        parts.append((float(delta.mean()), delta - residual * (X @ c), float(np.sum(delta**2))))
    (t_l, infl_l, sq_l), (t_r, infl_r, sq_r) = parts

    t_hat = t_l - t_r
    sum_sq = float(np.sum((infl_l / p_l - t_hat)**2) + np.sum((-infl_r / p_r - t_hat)**2))
    var = uncentered_sandwich(sum_sq, n_p, p_l, p_r, t_l, t_r)
    return _checked_variance(var, (sq_l + sq_r) / n_p, n_p)


def model_specs(config: GrowConfig) -> tuple[Optional[DesignSpec], Optional[DesignSpec]]:
    """``(propensity, outcome)`` specs of the estimator's models, None for one it does not use."""
    return (None if config.estimator == EstimatorKind.GFORMULA else config.propensity_spec,
            None if config.estimator == EstimatorKind.IPW else config.outcome_spec)


def model_designs(data: Dataset, rows: np.ndarray, config: GrowConfig) -> Designs:
    """``(propensity, outcome)`` designs of the given rows, one gather per
    ``model_specs`` spec and None for the other."""
    return tuple(None if spec is None else Design(data, rows, spec) for spec in model_specs(config))


def fit_nuisance(data: Dataset, rows: np.ndarray, config: GrowConfig,
                 designs: Designs) -> NuisanceModels:
    """Fit the nuisance models the configured estimator needs on the given
    rows, whose ``model_designs`` are ``designs``."""
    propensity = outcome = None
    if designs[0] is not None:
        propensity = fit_logistic(designs[0], data.treatment[rows])
    if designs[1] is not None:
        fit = fit_logistic if config.outcome_family == "binomial" else fit_ols
        outcome = fit(designs[1], data.outcome[rows])
    return NuisanceModels(propensity=propensity, outcome=outcome, epsilon=config.epsilon)


def shared_models(data: Dataset, rows: np.ndarray, config: GrowConfig) -> Optional[NuisanceModels]:
    """The models every subgroup shares: in whole scope the one fit on
    ``rows``, all the rows in play; None in parent and child scope, where
    each subgroup fits its own. A FitError propagates."""
    if config.scope != NuisanceScope.WHOLE:
        return None
    return fit_nuisance(data, rows, config, model_designs(data, rows, config))


def subgroup_terms(data: Dataset, rows: np.ndarray, config: GrowConfig,
                   shared: Optional[NuisanceModels] = None) -> tuple[NuisanceModels, Contributions]:
    """A subgroup's models (``shared`` if given, else a fit on ``rows``) and
    its per-row terms from one ``model_designs`` of the rows;
    InadmissibleSplitError when that fit fails or, under IPW or DR, an arm
    is empty."""
    designs = model_designs(data, rows, config)
    models = shared
    if models is None:
        try:
            models = fit_nuisance(data, rows, config, designs)
        except FitError as err:
            raise InadmissibleSplitError(f"nuisance fit failed: {err}") from err
    terms = contributions(config.estimator, data, rows, models, designs)
    if config.estimator != EstimatorKind.GFORMULA and terms.smaller_arm == 0:
        raise InadmissibleSplitError("empty treatment arm")
    return models, terms

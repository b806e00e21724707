"""Subgroup potential-outcome-mean estimators and their per-row terms.

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

The nuisance scope (which rows fit the models behind a subgroup's estimate)
is decided here alone: ``shared_models`` is the whole-scope fit on every
row in play, and ``subgroup_terms`` gives a subgroup's models and per-row
terms, or InadmissibleSplitError on a failed fit or an IPW or DR empty arm.
Splits are scored, and their variances computed, in ``search`` from these
models and terms.
Fitting and scoring take the fit's ``tree.GrowConfig``, the one place that
decides which (estimator, scope, variance) combinations are valid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .data import Dataset
from .glm import Design, DesignSpec, FitError, ModelFit, fit_logistic, fit_ols, predict_mean

if TYPE_CHECKING:
    from .tree import GrowConfig

# A subgroup's (propensity, outcome) designs, None for a model not in use.
Designs = tuple[Optional[Design], Optional[Design]]


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

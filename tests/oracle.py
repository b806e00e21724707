"""Scalar reference scorers the batched split kernel is tested against.

``split_contrast`` here scores one split at a time with explicit per-child
terms: whole and parent scope share one nuisance fit, take the child
effects from each child's own rows and the variance from the pooled
sandwich on the union of the children (``ipw_variance_pooled``,
``g_variance_pooled``) or from the influence contributions
(``estimators.if_variance``); child scope refits per child. The package
scores realized splits with ``efftree.search.split_contrast``, which runs
the batched kernel in whole and parent scope; these functions are the
independent arithmetic its tests compare against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from efftree.data import Dataset
from efftree.estimators import (
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceModels,
    NuisanceScope,
    VarianceMethod,
    _checked_variance,
    _uncentered_sandwich,
    contributions,
    fit_nuisance,
    if_variance,
    ipw_variance_per_child,
    node_effect,
    sandwich_terms,
    solve_information,
)
from efftree.glm import FitError, ModelFit, check_rows
from efftree.search import SplitContrast
from efftree.tree import GrowConfig


def _pooled_sandwich(kind: EstimatorKind, data: Dataset, rows_l: np.ndarray,
                     rows_r: np.ndarray, models: NuisanceModels) -> float:
    """Pooled sandwich variance of the contrast with one nuisance fit on the
    union of the children's rows (the IPW propensity or the g-formula
    outcome model): each row's base influence plus its score projected
    through the inverse information matrix onto the difference of the
    child-mean gradients."""
    rows = np.union1d(rows_l, rows_r)
    in_l = np.isin(rows, rows_l)
    n_p = len(rows)
    n_l = int(in_l.sum())
    if n_l == 0 or n_l == n_p:
        raise InadmissibleSplitError("empty child")
    p_l, p_r = n_l / n_p, (n_p - n_l) / n_p

    terms = contributions(kind, data, rows, models)
    design, residual, grad, info = sandwich_terms(kind, data, rows, models, terms)
    delta = terms.delta
    t_l = float(delta[in_l].mean())
    t_r = float(delta[~in_l].mean())
    c = solve_information(info, grad[in_l].mean(axis=0) - grad[~in_l].mean(axis=0))
    if kind == EstimatorKind.IPW:
        infl = np.where(in_l, delta / p_l, -delta / p_r) - (t_l - t_r) - residual * (design @ c)
        var = _uncentered_sandwich(float(np.sum(infl**2)), n_p, p_l, p_r, t_l, t_r)
    else:
        infl = np.where(in_l, (delta - t_l) / p_l, -(delta - t_r) / p_r) + residual * (design @ c)
        var = float(np.sum(infl**2)) / n_p / n_p
    return _checked_variance(var, float(np.mean(delta**2)), n_p)


def ipw_variance_pooled(
    data: Dataset,
    rows_l: np.ndarray,
    rows_r: np.ndarray,
    fit: ModelFit,
    epsilon: float,
) -> float:
    """Sandwich variance of the IPW contrast with one propensity fit on the union.

    Each observation's influence combines its inverse-weighted outcome terms
    with a correction for propensity estimation: the score (A - e)X is
    projected through the inverse information matrix onto the difference of
    the child-specific outcome-by-score means.
    """
    return _pooled_sandwich(EstimatorKind.IPW, data, rows_l, rows_r,
                            NuisanceModels(propensity=fit, epsilon=epsilon))


def g_variance_pooled(
    data: Dataset,
    rows_l: np.ndarray,
    rows_r: np.ndarray,
    fit: ModelFit,
) -> float:
    """Sandwich variance of the g-formula contrast with one outcome fit on the union.

    Mirrors the pooled IPW sandwich: the outcome-model score Z(Y - g) is
    projected through the inverse of the information matrix onto the
    difference of child-mean prediction gradients. The base influence is
    centered within each child, which absorbs the subgroup-share centering
    term exactly and keeps the estimate a nonnegative mean of squares (the
    explicit-subtraction form is numerically fragile here because the
    g-formula contrast has little per-row noise relative to the between-
    child separation).
    """
    return _pooled_sandwich(EstimatorKind.GFORMULA, data, rows_l, rows_r,
                            NuisanceModels(outcome=fit))


def split_contrast(
    data: Dataset,
    rows_l: np.ndarray,
    rows_r: np.ndarray,
    config: GrowConfig,
    min_per_arm: int = 1,
    whole_models: Optional[NuisanceModels] = None,
) -> SplitContrast:
    """Score one candidate split under ``config``'s estimator, scope and
    variance method; raises InadmissibleSplitError when it cannot be scored.

    ``GrowConfig`` has already decided that the variance method fits the
    estimator and scope.
    """
    rows_l, rows_r = check_rows(rows_l), check_rows(rows_r)
    in_left = np.zeros(data.n, dtype=bool)
    in_left[rows_l] = True
    if in_left[rows_r].any():
        raise ValueError("child rows must be disjoint")
    if len(rows_l) == 0 or len(rows_r) == 0:
        raise InadmissibleSplitError("empty child")
    kind = config.estimator
    n_union = len(rows_l) + len(rows_r)

    try:
        if config.scope == NuisanceScope.CHILD:
            models_l = fit_nuisance(data, rows_l, config)
            models_r = fit_nuisance(data, rows_r, config)
        elif config.scope == NuisanceScope.WHOLE:
            models_l = models_r = whole_models or fit_nuisance(data, np.arange(data.n), config)
        else:
            models_l = models_r = fit_nuisance(data, np.union1d(rows_l, rows_r), config)
    except FitError as err:
        raise InadmissibleSplitError(f"nuisance fit failed: {err}") from err

    terms_l = contributions(kind, data, rows_l, models_l)
    terms_r = contributions(kind, data, rows_r, models_r)
    smaller_arm = min(terms_l.smaller_arm, terms_r.smaller_arm)
    if kind != EstimatorKind.GFORMULA and smaller_arm == 0:
        raise InadmissibleSplitError("empty child arm")
    if smaller_arm < min_per_arm:
        raise InadmissibleSplitError("child arm below minimum size")

    t_hat = node_effect(terms_l).effect - node_effect(terms_r).effect

    if config.variance_method == VarianceMethod.INFLUENCE:
        variance = if_variance(terms_l, terms_r, n_union)
    elif config.variance_method == VarianceMethod.PER_CHILD_SANDWICH:
        variance = ipw_variance_per_child(data, rows_l, rows_r, (models_l, terms_l),
                                          (models_r, terms_r))
    elif kind == EstimatorKind.IPW:
        variance = ipw_variance_pooled(data, rows_l, rows_r, models_l.propensity, config.epsilon)
    else:
        variance = g_variance_pooled(data, rows_l, rows_r, models_l.outcome)

    statistic = t_hat**2 / variance
    if not np.isfinite(statistic):
        raise InadmissibleSplitError("non-finite statistic")
    return SplitContrast(t_hat=t_hat, variance=variance, statistic=statistic)

"""Scalar reference scorers the batched split kernel is tested against.

``split_contrast`` here scores one split at a time with explicit per-child
terms: whole and parent scope share one nuisance fit, take the child
effects from each child's own rows and the variance from the pooled
sandwich on the node's rows (``ipw_variance_pooled``,
``g_variance_pooled``) or from the influence contributions
(``search.if_variance``); child scope refits per child. The package
scores realized splits with ``efftree.search.split_contrast``, which runs
the batched kernel in whole and parent scope; these functions are the
independent arithmetic its tests compare against. ``take`` (a row copy of
a dataset) and ``enumerate_splits`` (every candidate rule of a node) are
the references for row-index and candidate-order tests, and
``load_csv_rows`` (a CSV reader that checks one row at a time) is the
reference the column-wise ``efftree.data.load_csv`` is tested against.
"""

from __future__ import annotations

import array
import csv
from typing import Optional

import numpy as np

from efftree.data import (
    MISSING_TOKENS,
    Continuous,
    Dataset,
    DataError,
    Schema,
    _level_parser,
    _parse_continuous,
)
from efftree.estimators import (
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceModels,
    NuisanceScope,
    VarianceMethod,
    contributions,
    fit_nuisance,
    model_designs,
    node_effect,
)
from efftree.glm import Design, FitError, ModelFit, check_rows
from efftree.search import (
    SplitContrast,
    SplitRule,
    _checked_variance,
    if_variance,
    ipw_variance_per_child,
    iter_candidate_blocks,
    sandwich_terms,
    solve_information,
    uncentered_sandwich,
)
from efftree.tree import GrowConfig


def take(data: Dataset, rows: np.ndarray) -> Dataset:
    """New dataset holding a copy of the selected rows. The package passes
    row indices instead; this copy is the reference its tests compare to."""
    return Dataset(
        data.schema,
        {name: arr[rows] for name, arr in data.covariates.items()},
        data.treatment[rows],
        data.outcome[rows],
    )


def load_csv_rows(path, schema: Schema, missing_policy: str = "drop_rows") -> Dataset:
    """``efftree.data.load_csv`` one row at a time: every row is stripped,
    checked for missing cells and parsed cell by cell, in file order."""
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        try:
            return _load_rows(fh, schema, missing_policy)
        except UnicodeDecodeError as err:
            raise DataError(f"not UTF-8 text: {err}") from None


def _load_rows(fh, schema: Schema, missing_policy: str) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty CSV file")
    expected = set(schema.covariate_names) | {schema.treatment, schema.outcome}
    duplicated = sorted({name for name in header if header.count(name) > 1})
    if duplicated:
        raise DataError(f"duplicated header column(s) {duplicated!r}")
    if set(header) != expected:
        raise DataError(f"header {header!r} does not match schema columns {sorted(expected)!r}")
    pos = {name: header.index(name) for name in expected}
    columns = {
        name: array.array("d" if isinstance(kind, Continuous) else "q")
        for name, kind in schema.columns
    }
    treatment = array.array("b")
    outcome = array.array("d")
    a_pos = pos[schema.treatment]
    cells = [(pos[schema.outcome], outcome.append, _parse_continuous, schema.outcome)] + [
        (pos[name], columns[name].append,
         _parse_continuous if isinstance(kind, Continuous) else _level_parser(kind.levels), name)
        for name, kind in schema.columns
    ]
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"line {line_no}: expected {len(header)} fields, found {len(row)}")
        row = [token.strip() for token in row]
        if not MISSING_TOKENS.isdisjoint(row):
            if missing_policy == "reject":
                raise DataError(f"line {line_no}: missing cell")
            continue
        a_token = row[a_pos]
        if a_token not in ("0", "1"):
            raise DataError(f"line {line_no}: invalid treatment value {a_token!r}")
        treatment.append(int(a_token))
        for p, append, parse, name in cells:
            append(parse(row[p], name, line_no))
    arrays = {
        name: np.asarray(vals, dtype=np.float64 if isinstance(schema.kind_of(name), Continuous) else np.int64)
        for name, vals in columns.items()
    }
    return Dataset(schema, arrays, np.asarray(treatment), np.asarray(outcome))


def enumerate_splits(data: Dataset, rows: np.ndarray) -> list[SplitRule]:
    """All permissible split rules for the given rows, in scan order."""
    rules: list[SplitRule] = []
    for block in iter_candidate_blocks(data, rows):
        rules.extend(block.rules())
    return rules


def designs_of(data: Dataset, rows: np.ndarray, models: NuisanceModels) -> tuple:
    """``(propensity, outcome)`` designs of ``rows`` under the specs of
    ``models``, None where a model is absent."""
    return tuple(None if fit is None else Design(data, rows, fit.spec)
                 for fit in (models.propensity, models.outcome))


def fit_on(data: Dataset, rows: np.ndarray, config: GrowConfig) -> NuisanceModels:
    """``fit_nuisance`` on the ``model_designs`` of ``rows``."""
    return fit_nuisance(data, rows, config, model_designs(data, rows, config))


def terms_of(kind: EstimatorKind, data: Dataset, rows: np.ndarray, models: NuisanceModels):
    """``contributions`` on ``rows`` with the designs of ``models``' specs."""
    return contributions(kind, data, rows, models, designs_of(data, rows, models))


def _pooled_sandwich(kind: EstimatorKind, data: Dataset, rows: np.ndarray,
                     left: np.ndarray, models: NuisanceModels) -> float:
    """Pooled sandwich variance of the contrast with one nuisance fit on the
    node's ``rows`` (the IPW propensity or the g-formula outcome model),
    ``left`` the boolean mask over them of the left child; a row listed
    twice counts twice. Each row's base influence plus its score projected
    through the inverse information matrix onto the difference of the
    child-mean gradients."""
    in_l = np.asarray(left)
    n_p = len(rows)
    n_l = int(in_l.sum())
    if n_l == 0 or n_l == n_p:
        raise InadmissibleSplitError("empty child")
    p_l, p_r = n_l / n_p, (n_p - n_l) / n_p

    terms = terms_of(kind, data, rows, models)
    design, residual, grad, info = sandwich_terms(kind, models, terms)
    delta = terms.delta
    t_l = float(delta[in_l].mean())
    t_r = float(delta[~in_l].mean())
    c = solve_information(info, grad[in_l].mean(axis=0) - grad[~in_l].mean(axis=0))
    if kind == EstimatorKind.IPW:
        infl = np.where(in_l, delta / p_l, -delta / p_r) - (t_l - t_r) - residual * (design @ c)
        var = uncentered_sandwich(float(np.sum(infl**2)), n_p, p_l, p_r, t_l, t_r)
    else:
        infl = np.where(in_l, (delta - t_l) / p_l, -(delta - t_r) / p_r) + residual * (design @ c)
        var = float(np.sum(infl**2)) / n_p / n_p
    return _checked_variance(var, float(np.mean(delta**2)), n_p)


def ipw_variance_pooled(
    data: Dataset,
    rows: np.ndarray,
    left: np.ndarray,
    fit: ModelFit,
    epsilon: float,
) -> float:
    """Sandwich variance of the IPW contrast with one propensity fit on the node.

    Each observation's influence combines its inverse-weighted outcome terms
    with a correction for propensity estimation: the score (A - e)X is
    projected through the inverse information matrix onto the difference of
    the child-specific outcome-by-score means.
    """
    return _pooled_sandwich(EstimatorKind.IPW, data, rows, left,
                            NuisanceModels(propensity=fit, epsilon=epsilon))


def g_variance_pooled(
    data: Dataset,
    rows: np.ndarray,
    left: np.ndarray,
    fit: ModelFit,
) -> float:
    """Sandwich variance of the g-formula contrast with one outcome fit on the node.

    Mirrors the pooled IPW sandwich: the outcome-model score Z(Y - g) is
    projected through the inverse of the information matrix onto the
    difference of child-mean prediction gradients. The base influence is
    centered within each child, which absorbs the subgroup-share centering
    term exactly and keeps the estimate a nonnegative mean of squares (the
    explicit-subtraction form is numerically fragile here because the
    g-formula contrast has little per-row noise relative to the between-
    child separation).
    """
    return _pooled_sandwich(EstimatorKind.GFORMULA, data, rows, left,
                            NuisanceModels(outcome=fit))


def split_contrast(
    data: Dataset,
    rows: np.ndarray,
    left: np.ndarray,
    config: GrowConfig,
    min_per_arm: int = 1,
    shared: Optional[NuisanceModels] = None,
) -> SplitContrast:
    """Score one candidate split, ``left`` the boolean mask over the node's
    ``rows`` of its left child, under ``config``'s estimator, scope and
    variance method; raises InadmissibleSplitError when it cannot be scored.

    ``GrowConfig`` has already decided that the variance method fits the
    estimator and scope; whole scope scores on ``shared``.
    """
    rows, left = check_rows(rows), np.asarray(left)
    if left.dtype != bool or left.shape != rows.shape:
        raise TypeError("left must be a boolean mask over rows")
    if config.scope == NuisanceScope.WHOLE and shared is None:
        raise ValueError("whole scope scores a split on the shared models")
    rows_l, rows_r = rows[left], rows[~left]
    if len(rows_l) == 0 or len(rows_r) == 0:
        raise InadmissibleSplitError("empty child")
    kind = config.estimator

    try:
        if config.scope == NuisanceScope.CHILD:
            models_l = fit_on(data, rows_l, config)
            models_r = fit_on(data, rows_r, config)
        elif config.scope == NuisanceScope.WHOLE:
            models_l = models_r = shared
        else:
            models_l = models_r = fit_on(data, rows, config)
    except FitError as err:
        raise InadmissibleSplitError(f"nuisance fit failed: {err}") from err

    terms_l = terms_of(kind, data, rows_l, models_l)
    terms_r = terms_of(kind, data, rows_r, models_r)
    smaller_arm = min(terms_l.smaller_arm, terms_r.smaller_arm)
    if kind != EstimatorKind.GFORMULA and smaller_arm == 0:
        raise InadmissibleSplitError("empty child arm")
    if smaller_arm < min_per_arm:
        raise InadmissibleSplitError("child arm below minimum size")

    t_hat = node_effect(terms_l).effect - node_effect(terms_r).effect

    if config.variance_method == VarianceMethod.INFLUENCE:
        variance = if_variance(terms_l, terms_r, len(rows))
    elif config.variance_method == VarianceMethod.PER_CHILD_SANDWICH:
        variance = ipw_variance_per_child((models_l, terms_l), (models_r, terms_r))
    elif kind == EstimatorKind.IPW:
        variance = ipw_variance_pooled(data, rows, left, models_l.propensity, config.epsilon)
    else:
        variance = g_variance_pooled(data, rows, left, models_l.outcome)

    statistic = t_hat**2 / variance
    if not np.isfinite(statistic):
        raise InadmissibleSplitError("non-finite statistic")
    return SplitContrast(t_hat=t_hat, variance=variance, statistic=statistic)

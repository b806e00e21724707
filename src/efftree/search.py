"""The split statistic, and the vectorized search that scores every candidate split of a node.

A candidate split of a parent into children (l, r) is scored by the squared
standardized contrast  statistic = t_hat^2 / var_hat,  t_hat the difference
of the two child effects. Its variance comes from sandwich (M-estimation)
formulas that account for nuisance estimation, or from the empirical
variance of pooled per-observation influence contributions. Every formula
lives here, and ``variance_admissible`` is the one test, against the one
floor ``variance_floor``, of whether a variance can be scored. Child scope,
whose models are refit per child, takes its variance from ``if_variance``
or ``ipw_variance_per_child``.

For a node with fixed nuisance models (whole or parent scope), the splitting
statistic of every threshold / level-subset / ordinal-cut candidate is a
function of left-child aggregates of a small set of per-row quantities (the
node tables' ``packed`` columns) and of their node totals (one ``totals``
row, each column summed once): a right child's sums are the totals minus
the left child's. The left aggregates come from cumulative sums along each
covariate's sort order (or per-level sums for categorical covariates), so a
node with n rows and C candidates costs O(n log n + C) for the influence
variance and O(n log n + n q^2 + C q^2) for the sandwich variances (q =
design width), instead of O(n C). For the sandwich variances the node takes
its per-row design, residual and gradient from ``sandwich_terms``, inverts
its q x q information matrix I once (``solve_information``; a singular I
raises InadmissibleSplitError) and precomputes I^-1 S I^-1, S the outer
product of the per-row scores. Each candidate batch then needs
two (C x q)(q x q) matrix products, c = d I^-1 and the quadratic form
d I^-1 S I^-1 d', with d the candidates' differences of child-mean
gradients, and no solve per candidate.

A realized partition, such as the winner of a search or a split of a
fitted tree recomputed on validation rows, is scored as a 1-candidate
batch (``score_partition``) from the node's tables. ``split_contrast`` is
the one scorer of a realized split, given as the node's rows and a left
mask over them, as growth holds it: in whole and parent scope it builds
the node's tables and scores that batch; in child scope it refits the
models per child. Child-scope fitting cannot be batched (each candidate
refits its own models), so a child-scope node has no tables and the
candidate loop scores each partition once with ``split_contrast``
(inadmissible: -inf, as in the kernel). The search takes the fit's
``tree.GrowConfig``; the candidate kernel reads the variance method from
the node's tables.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np
import scipy.linalg

from .data import Categorical, Continuous, DataError, Dataset, Ordinal, Schema, json_value
from .estimators import (
    Contributions,
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceModels,
    NuisanceScope,
    VarianceMethod,
    node_effect,
    subgroup_terms,
)
from .glm import check_rows

if TYPE_CHECKING:
    from .tree import GrowConfig

logger = logging.getLogger(__name__)

MAX_CATEGORICAL_LEVELS = 15

# Relative floor distinguishing true degenerate contrasts (identical
# contributions, variance exactly zero up to rounding) from genuinely tiny
# but meaningful variances.
REL_VAR_TOL = 1e-12


class CategoricalCardinalityError(DataError):
    """Categorical covariate has too many levels to enumerate subsets."""


@dataclass(frozen=True)
class SplitRule:
    """A binary split on one covariate.

    kind "threshold": left = {x < threshold}.
    kind "subset": left = {level in left_levels}; right_levels is the
    complement among the levels present when the rule was made.
    kind "ordinal_cut": left = {declared level index <= cut}.
    """

    column: str
    column_index: int
    kind: str
    threshold: Optional[float] = None
    left_levels: Optional[tuple[str, ...]] = None
    right_levels: Optional[tuple[str, ...]] = None
    cut: Optional[int] = None

    def to_dict(self) -> dict:
        """The rule's JSON form: its fields that are set, level tuples as lists."""
        return {f.name: list(value) if isinstance(value, tuple) else value
                for f in fields(self) if (value := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, payload: dict, schema: Schema) -> "SplitRule":
        """The rule written by ``to_dict``; ValueError unless it names a schema
        covariate at its index, its kind fits that covariate, and its values
        pass ``data.json_value`` and lie within the covariate's levels. A
        subset rule's two sides must be non-empty, disjoint and free of
        repeats, as growth writes them."""
        column, kind = payload["column"], payload["kind"]
        index = json_value(payload, "column_index", int)
        if column not in schema.covariate_names or index != schema.column_index(column):
            raise ValueError(f"rule column {column!r} at index {index!r} "
                             "is not that schema covariate")
        covariate = schema.kind_of(column)
        if kind == "threshold" and isinstance(covariate, Continuous):
            return cls(column, index, kind, threshold=json_value(payload, "threshold", float))
        if kind == "subset" and isinstance(covariate, Categorical):
            left = json_value(payload, "left_levels", tuple)
            right = json_value(payload, "right_levels", tuple)
            both = left + right
            if left and right and len(set(both)) == len(both) and set(both) <= set(covariate.levels):
                return cls(column, index, kind, left_levels=left, right_levels=right)
        if kind == "ordinal_cut" and isinstance(covariate, Ordinal):
            cut = json_value(payload, "cut", int)
            if 0 <= cut < len(covariate.levels) - 1:
                return cls(column, index, kind, cut=cut)
        raise ValueError(f"rule kind {kind!r} does not fit covariate {column!r}")

    def describe(self) -> str:
        if self.kind == "threshold":
            return f"{self.column} < {self.threshold:g}"
        if self.kind == "subset":
            return f"{self.column} in {{{','.join(self.left_levels)}}}"
        return f"{self.column} <= {self.cut}"

    def goes_left(self, data: Dataset, rows: np.ndarray, unseen_left: bool = False) -> np.ndarray:
        """Left membership of the given rows: the one decision of a row's side.
        A subset rule reads each row's side from one per-level table: its left
        levels, its right levels, and ``unseen_left`` for a level on neither
        side, one absent from the rows the rule was made on; how many rows
        took that side is logged at INFO."""
        values = data.covariates[self.column][rows]
        if self.kind == "threshold":
            return values < self.threshold
        if self.kind == "ordinal_cut":
            return values <= self.cut
        levels = data.schema.kind_of(self.column).levels
        seen = self.left_levels + self.right_levels
        side = np.array([lv in self.left_levels if lv in seen else unseen_left for lv in levels])
        unseen = [c for c, lv in enumerate(levels) if lv not in seen]
        n_unseen = int(np.bincount(values, minlength=len(levels))[unseen].sum())
        if n_unseen:
            logger.info("%d rows with unseen level for %s routed %s", n_unseen, self.column,
                        "left" if unseen_left else "right")
        return side[values]


@dataclass
class _CovariateBlock:
    """Candidates of one covariate plus the left-aggregation map.

    ``aggregate(mat)`` turns an (n x m) per-row matrix into the (C x m)
    matrix of left-child column sums, one row per candidate. Rule objects
    are built on demand (only the winning candidate needs one).
    """

    n_rules: int
    make_rule: Callable[[int], SplitRule]
    aggregate: Callable[[np.ndarray], np.ndarray]

    def rules(self) -> list[SplitRule]:
        return [self.make_rule(j) for j in range(self.n_rules)]


def _categorical_subsets(present: list[int], column: str) -> list[tuple[int, ...]]:
    """Canonical left-side subsets: every unordered binary partition of the
    present levels exactly once, smaller side (ties: the side holding the
    first present level) on the left, ordered by size then level indices."""
    k = len(present)
    if k > MAX_CATEGORICAL_LEVELS:
        raise CategoricalCardinalityError(
            f"categorical column {column!r} has {k} levels present; "
            f"subset enumeration is capped at {MAX_CATEGORICAL_LEVELS}"
        )
    subsets: list[tuple[int, ...]] = []
    for size in range(1, k // 2 + 1):
        for combo in itertools.combinations(present, size):
            if 2 * size == k and combo[0] != present[0]:
                continue
            subsets.append(combo)
    return subsets


def _level_sums(values: np.ndarray, mat: np.ndarray, n_levels: int) -> np.ndarray:
    """(n_levels x m) column sums of ``mat``'s rows per level code in
    ``values``, each level's rows added in row order."""
    return np.column_stack([np.bincount(values, weights=col, minlength=n_levels)
                            for col in mat.T])


def iter_candidate_blocks(data: Dataset, rows: np.ndarray) -> Iterator[_CovariateBlock]:
    """Per-covariate candidate blocks in deterministic enumeration order:
    column order, then ascending threshold / canonical subset order / cut."""
    schema = data.schema
    for col_idx, (name, kind) in enumerate(schema.columns):
        values = data.covariates[name][rows]
        if isinstance(kind, Continuous):
            order = np.argsort(values, kind="stable")
            v = values[order]
            boundaries = np.nonzero(np.diff(v) > 0)[0]
            if len(boundaries) == 0:
                continue
            thresholds = (v[boundaries] + v[boundaries + 1]) / 2.0

            def rule_cont(j, name=name, col_idx=col_idx, thresholds=thresholds):
                return SplitRule(name, col_idx, "threshold", threshold=float(thresholds[j]))

            def agg_cont(mat, order=order, boundaries=boundaries):
                return np.take(np.cumsum(np.take(mat, order, axis=0), axis=0), boundaries, axis=0)

            yield _CovariateBlock(len(thresholds), rule_cont, agg_cont)
        else:
            counts = np.bincount(values, minlength=len(kind.levels))
            present = [c for c in range(len(kind.levels)) if counts[c] > 0]
            if len(present) < 2:
                continue
            if isinstance(kind, Categorical):
                subsets = _categorical_subsets(present, name)
                sel = np.zeros((len(subsets), len(kind.levels)))
                for j, left in enumerate(subsets):
                    sel[j, list(left)] = 1.0

                def rule_cat(j, name=name, col_idx=col_idx, subsets=subsets,
                             present=present, levels=kind.levels):
                    left = subsets[j]
                    right = tuple(c for c in present if c not in left)
                    return SplitRule(
                        name, col_idx, "subset",
                        left_levels=tuple(levels[c] for c in left),
                        right_levels=tuple(levels[c] for c in right),
                    )

                def agg_cat(mat, values=values, sel=sel, n_levels=len(kind.levels)):
                    return sel @ _level_sums(values, mat, n_levels)

                yield _CovariateBlock(len(subsets), rule_cat, agg_cat)
            else:
                cuts = present[:-1]

                def rule_ord(j, name=name, col_idx=col_idx, cuts=cuts):
                    return SplitRule(name, col_idx, "ordinal_cut", cut=int(cuts[j]))

                def agg_ord(mat, values=values, cuts=cuts, n_levels=len(kind.levels)):
                    return np.cumsum(_level_sums(values, mat, n_levels), axis=0)[cuts]

                yield _CovariateBlock(len(cuts), rule_ord, agg_ord)


@dataclass
class BestSplit:
    rule: SplitRule
    statistic: float
    left_local: np.ndarray  # bool over node rows
    n_candidates: int
    n_admissible: int


@dataclass(frozen=True)
class SplitContrast:
    """Effect difference between two children, its variance, and the statistic."""

    t_hat: float
    variance: float
    statistic: float


def variance_floor(scale: float, n: int) -> float:
    """Degeneracy floor of a split variance: with ``scale`` the mean of
    delta^2 over the n scored rows, a variance at or below it is rounding
    noise of identical contributions, and the split is inadmissible."""
    return REL_VAR_TOL * scale / n


def variance_admissible(variance, scale, n):
    """The one admissibility test of a split variance: True where it is
    finite and above ``variance_floor(scale, n)``; elementwise on arrays."""
    return np.isfinite(variance) & (variance > variance_floor(scale, n))


def _checked_variance(var: float, scale: float, n: int) -> float:
    if not variance_admissible(var, scale, n):
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


@dataclass
class _NodeTables:
    """Per-row quantities entering every candidate statistic at one node,
    their column sums, and the matrices every candidate batch reuses."""

    # per row: 1, A, delta, delta^2, then for the sandwich the gradient,
    # score * delta and (centered only) the score; left-child column sums
    # of this matrix drive every statistic
    packed: np.ndarray
    # column sums of packed, each column summed on its own (totals[0] is
    # the row count); a right child's sums are totals - its left child's
    totals: np.ndarray
    score_total: Optional[np.ndarray]     # IPW sandwich: the scores' sum, not in packed
    info_inv: Optional[np.ndarray]        # I^-1, inverse information matrix
    sandwich_form: Optional[np.ndarray]   # I^-1 S I^-1, S the score outer product
    centered: bool                 # center the base influence within children


def node_tables(config: GrowConfig, models: NuisanceModels, terms: Contributions) -> _NodeTables:
    """Tables of a node's rows from their per-row ``terms`` under ``models``.

    Only the pooled sandwich needs the information matrix, so ``info_inv``
    is None exactly when the variance is the influence one."""
    A, delta = terms.A, terms.delta
    delta_sq = delta**2
    centered = config.estimator != EstimatorKind.IPW
    columns = [np.ones(len(delta)), A, delta, delta_sq]
    info_inv = sandwich_form = score_total = None
    if config.variance_method == VarianceMethod.POOLED_SANDWICH:
        design, residual, grad, info = sandwich_terms(config.estimator, models, terms)
        score = residual[:, None] * design
        # Precomputed once per node so that each candidate batch needs only
        # two GEMMs: c = d I^-1 and the quadratic form d I^-1 S I^-1 d.
        info_inv = solve_information(info, np.eye(len(info)))
        sandwich_form = info_inv @ (score.T @ score) @ info_inv
        dscore = score * delta[:, None]
        columns += [grad, dscore, score] if centered else [grad, dscore]
        score_total = None if centered else score.sum(axis=0)
    return _NodeTables(
        packed=np.column_stack(columns),
        totals=np.hstack([column.sum(axis=0) for column in columns]),
        score_total=score_total,
        info_inv=info_inv,
        sandwich_form=sandwich_form,
        centered=centered,
    )


def candidate_statistics(
    tables: _NodeTables,
    left_agg: np.ndarray,
    min_node: int,
    min_per_arm: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(statistic, ok, t_hat, variance) arrays for one candidate batch, from
    its left-child column sums of ``tables.packed`` (``left_agg``); a right
    child's sums are ``tables.totals`` minus them. ``ok`` marks the scored
    candidates (both children and all four child arms reach the minimum
    sizes, ``variance_admissible`` holds and the statistic is finite); the
    others score -inf."""
    totals = tables.totals
    n_p = totals[0]
    sandwich = tables.info_inv is not None
    q = len(tables.info_inv) if sandwich else 0

    n_l = left_agg[:, 0]
    n_r = n_p - n_l
    m1_l = left_agg[:, 1]
    m1_r = totals[1] - m1_l
    left_delta = left_agg[:, 2]
    left_delta_sq = left_agg[:, 3]
    admissible = (
        (n_l >= min_node)
        & (n_r >= min_node)
        & (m1_l >= min_per_arm)
        & (n_l - m1_l >= min_per_arm)
        & (m1_r >= min_per_arm)
        & (n_r - m1_r >= min_per_arm)
    )

    with np.errstate(divide="ignore", invalid="ignore"):
        p_l = n_l / n_p
        p_r = n_r / n_p
        t_l = left_delta / n_l
        t_r = (totals[2] - left_delta) / n_r
        t_hat = t_l - t_r

        if not sandwich or tables.centered:
            # squared deviations of delta from its child mean, each child's
            # scaled by 1 / p^2: the influence centered within each child
            within_sq = (
                (left_delta_sq - n_l * t_l**2) / p_l**2
                + ((totals[3] - left_delta_sq) - n_r * t_r**2) / p_r**2
            )
        if not sandwich:
            variance = within_sq / (n_p - 1) / n_p
        else:
            left_grad = left_agg[:, 4:4 + q]
            left_dscore = left_agg[:, 4 + q:4 + 2 * q]
            # The (C, q) arrays are updated in place to save temporaries;
            # the operations and their order are those of the expression in
            # each comment, so the rounding is too.
            d_diff = left_grad / n_l[:, None]
            work = totals[4:4 + q] - left_grad
            work /= n_r[:, None]
            d_diff -= work  # left mean gradient - right mean gradient
            c = d_diff @ tables.info_inv
            np.matmul(d_diff, tables.sandwich_form, out=work)
            corr_sq = np.einsum("cq,cq->c", work, d_diff)  # c S c', row by row
            np.subtract(totals[4 + q:4 + 2 * q], left_dscore, out=work)  # right dscore
            if tables.centered:
                left_score = left_agg[:, 4 + 2 * q:4 + 3 * q]
                # (left dscore - t_l left score) / p_l
                #   - (right dscore - t_r right score) / p_r
                right_score = totals[4 + 2 * q:4 + 3 * q] - left_score
                right_score *= t_r[:, None]
                work -= right_score
                work /= p_r[:, None]
                base_score = t_l[:, None] * left_score
                np.subtract(left_dscore, base_score, out=base_score)
                base_score /= p_l[:, None]
                base_score -= work
                cross = np.einsum("cq,cq->c", base_score, c)  # g-formula: enters with +
                variance = (within_sq + 2.0 * cross + corr_sq) / n_p / n_p
            else:
                base_sq = (
                    left_delta_sq / p_l**2
                    - 2.0 * t_hat * left_delta / p_l
                    + n_l * t_hat**2
                    + (totals[3] - left_delta_sq) / p_r**2
                    + 2.0 * t_hat * (totals[2] - left_delta) / p_r
                    + n_r * t_hat**2
                )
                # left dscore / p_l - right dscore / p_r - t_hat score total
                work /= p_r[:, None]
                base_score = left_dscore / p_l[:, None]
                base_score -= work
                base_score -= t_hat[:, None] * tables.score_total[None, :]
                cross = np.einsum("cq,cq->c", base_score, c)  # IPW: enters with -
                sum_sq = base_sq - 2.0 * cross + corr_sq
                variance = uncentered_sandwich(sum_sq, n_p, p_l, p_r, t_l, t_r)

        msq = totals[3] / n_p  # mean(delta^2), the degeneracy scale
        ok = admissible & variance_admissible(variance, msq, n_p)
        statistic = np.where(ok, t_hat**2 / np.where(ok, variance, 1.0), -np.inf)
    ok &= np.isfinite(statistic)
    statistic = np.where(ok, statistic, -np.inf)
    return statistic, ok, t_hat, variance


def find_best_split(
    data: Dataset,
    rows: np.ndarray,
    config: GrowConfig,
    tables: Optional[_NodeTables],
) -> Optional[BestSplit]:
    """Best admissible candidate split of the node, or None.

    Whole and parent scope score each candidate block from the node's
    ``tables`` and rescore the winner's realized partition with
    ``score_partition``. Child scope has no tables: each candidate whose
    children both reach ``min_node`` is scored once by ``split_contrast``,
    which refits the models per child, and the winner keeps that statistic.
    Inadmissible candidates score -inf. Ties on the statistic keep the
    earlier candidate in enumeration order (column order, then threshold /
    canonical subset / cut order).
    """
    min_node, min_per_arm = config.min_node, config.min_per_arm
    best = None  # (stat, rule)
    n_cand = 0
    n_adm = 0
    for block in iter_candidate_blocks(data, rows):
        if tables is None:
            stats = np.full(block.n_rules, -np.inf)
            for j, rule in enumerate(block.rules()):
                left = rule.goes_left(data, rows)
                if not min_node <= left.sum() <= len(rows) - min_node:
                    continue
                try:
                    stats[j] = split_contrast(data, rows, left, config,
                                              min_per_arm=min_per_arm).statistic
                except InadmissibleSplitError:
                    pass
        else:
            stats = candidate_statistics(tables, block.aggregate(tables.packed),
                                         min_node, min_per_arm)[0]
        n_cand += block.n_rules
        n_adm += int(np.isfinite(stats).sum())
        j = int(np.argmax(stats))
        if stats[j] > 0.0 and (best is None or stats[j] > best[0]):
            best = (float(stats[j]), block.make_rule(j))
    if best is None:
        return None

    statistic, rule = best
    left_local = rule.goes_left(data, rows)
    if tables is not None:
        # Rescore the winner from its realized partition, so the stored
        # values match the partition exactly even if a midpoint threshold
        # rounded onto a data value.
        scored = score_partition(tables, left_local, min_node, min_per_arm)
        if scored is None or scored.statistic <= 0.0:
            return None
        statistic = scored.statistic
    return BestSplit(rule, statistic, left_local, n_cand, n_adm)


def score_partition(
    tables: _NodeTables,
    left_local: np.ndarray,
    min_node: int,
    min_per_arm: int,
) -> Optional[SplitContrast]:
    """The contrast of one realized partition of the node's rows
    (``left_local`` is left membership over them), scored from the node's
    ``tables`` as a 1-candidate batch; None when it is inadmissible."""
    left_agg = tables.packed[left_local].sum(axis=0)[None, :]
    stats, adm, t_hats, variances = candidate_statistics(tables, left_agg, min_node, min_per_arm)
    if not adm[0]:
        return None
    return SplitContrast(t_hat=float(t_hats[0]), variance=float(variances[0]),
                         statistic=float(stats[0]))


def split_contrast(
    data: Dataset,
    rows: np.ndarray,
    left: np.ndarray,
    config: GrowConfig,
    min_per_arm: int = 1,
    shared: Optional[NuisanceModels] = None,
) -> SplitContrast:
    """Score one realized split of the node's row indices ``rows``
    (``glm.check_rows``), ``left`` the boolean mask over them of its left
    child, under ``config``'s estimator, scope and variance method; raises
    InadmissibleSplitError when it cannot be scored, an empty side included.

    Whole and parent scope score the split as the kernel does: the node's
    ``estimators.subgroup_terms`` (whole scope shares ``shared``, the fit of
    ``estimators.shared_models``), then its tables and ``score_partition``
    with one row per child as the minimum. Child scope fits ``rows[left]``
    and ``rows[~left]`` and takes the influence or per-child sandwich
    variance. In every scope a row counts as often as ``rows`` lists it.
    """
    rows, left = check_rows(rows), np.asarray(left)
    if left.dtype != bool or left.shape != rows.shape:
        raise TypeError("left must be a boolean mask over rows")
    if config.scope == NuisanceScope.WHOLE and shared is None:
        raise ValueError("whole scope scores a split on the shared models")
    if left.all() or not left.any():
        raise InadmissibleSplitError("empty child")

    if config.scope != NuisanceScope.CHILD:
        models, terms = subgroup_terms(data, rows, config, shared)
        scored = score_partition(node_tables(config, models, terms), left, 1, min_per_arm)
        if scored is None:
            raise InadmissibleSplitError("inadmissible split")
        return scored

    fitted_l = subgroup_terms(data, rows[left], config)
    fitted_r = subgroup_terms(data, rows[~left], config)
    terms_l, terms_r = fitted_l[1], fitted_r[1]
    if min(terms_l.smaller_arm, terms_r.smaller_arm) < min_per_arm:
        raise InadmissibleSplitError("child arm below minimum size")

    t_hat = node_effect(terms_l).effect - node_effect(terms_r).effect
    if config.variance_method == VarianceMethod.INFLUENCE:
        variance = if_variance(terms_l, terms_r, len(rows))
    else:
        variance = ipw_variance_per_child(fitted_l, fitted_r)
    statistic = t_hat**2 / variance
    if not np.isfinite(statistic):
        raise InadmissibleSplitError("non-finite statistic")
    return SplitContrast(t_hat=t_hat, variance=variance, statistic=statistic)

"""Vectorized split search: scores every candidate split of a node in batch.

For a node with fixed nuisance models (whole or parent scope), the splitting
statistic of every threshold / level-subset / ordinal-cut candidate is a
function of left-child aggregates of a small set of per-row quantities.
Those aggregates come from cumulative sums along each covariate's sort order
(or per-level sums for categorical covariates), so a node with n rows and C
candidates costs O(n log n + C) for the influence variance and
O(n log n + n q^2 + C q^2) for the sandwich variances (q = design width),
instead of O(n C). For the sandwich variances the node takes its per-row
design, residual and gradient from ``estimators.sandwich_terms``, inverts
its q x q information matrix I once (``estimators.solve_information``; a
singular I raises InadmissibleSplitError) and precomputes I^-1 S I^-1, S
the outer product of the per-row scores. Each candidate batch then needs
two (C x q)(q x q) matrix products, c = d I^-1 and the quadratic form
d I^-1 S I^-1 d', with d the candidates' differences of child-mean
gradients, and no solve per candidate.

A realized partition, such as the winner of a search or a split of a
fitted tree recomputed on validation rows, is scored by
``partition_statistic``: as a 1-candidate batch (``score_partition``) from
the node's tables, or, in child scope, by ``split_contrast``. Child-scope
fitting cannot be batched (each candidate refits its own models), so a
child-scope node has no tables and the same candidate loop scores its
blocks one partition at a time (inadmissible: -inf, as in the kernel).
The search takes the fit's ``tree.GrowConfig``; the candidate kernel reads
the variance method from the node's tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from .data import Categorical, Continuous, Dataset
from .estimators import (
    Contributions,
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceModels,
    VarianceMethod,
    sandwich_terms,
    solve_information,
    split_contrast,
    variance_floor,
)

if TYPE_CHECKING:
    from .tree import GrowConfig

MAX_CATEGORICAL_LEVELS = 15


class CategoricalCardinalityError(ValueError):
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

    def describe(self, schema=None) -> str:
        if self.kind == "threshold":
            return f"{self.column} < {self.threshold:g}"
        if self.kind == "subset":
            return f"{self.column} in {{{','.join(self.left_levels)}}}"
        return f"{self.column} <= {self.cut}"

    def goes_left(self, data: Dataset, rows: np.ndarray) -> np.ndarray:
        """Left membership for the given rows; a categorical level matching
        neither side (unseen during training) is reported as right here and
        rerouted by the tree's larger-child policy."""
        values = data.covariates[self.column][rows]
        if self.kind == "threshold":
            return values < self.threshold
        if self.kind == "ordinal_cut":
            return values <= self.cut
        kind = data.schema.kind_of(self.column)
        left_codes = [kind.levels.index(lv) for lv in self.left_levels]
        return np.isin(values, left_codes)

    def is_known(self, data: Dataset, rows: np.ndarray) -> np.ndarray:
        """False for rows whose level matched neither recorded side."""
        if self.kind != "subset":
            return np.ones(len(rows), dtype=bool)
        kind = data.schema.kind_of(self.column)
        codes = [kind.levels.index(lv) for lv in self.left_levels + self.right_levels]
        return np.isin(data.covariates[self.column][rows], codes)


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
                    level_sums = np.zeros((n_levels, mat.shape[1]))
                    np.add.at(level_sums, values, mat)
                    return sel @ level_sums

                yield _CovariateBlock(len(subsets), rule_cat, agg_cat)
            else:
                cuts = present[:-1]

                def rule_ord(j, name=name, col_idx=col_idx, cuts=cuts):
                    return SplitRule(name, col_idx, "ordinal_cut", cut=int(cuts[j]))

                def agg_ord(mat, values=values, cuts=cuts, n_levels=len(kind.levels)):
                    level_sums = np.zeros((n_levels, mat.shape[1]))
                    np.add.at(level_sums, values, mat)
                    return np.cumsum(level_sums, axis=0)[cuts]

                yield _CovariateBlock(len(cuts), rule_ord, agg_ord)


def enumerate_splits(data: Dataset, rows: np.ndarray) -> list[SplitRule]:
    """All permissible split rules for the given rows, in scan order."""
    rules: list[SplitRule] = []
    for block in iter_candidate_blocks(data, rows):
        rules.extend(block.rules())
    return rules


@dataclass
class BestSplit:
    rule: SplitRule
    statistic: float
    left_local: np.ndarray  # bool over node rows
    n_candidates: int
    n_admissible: int


@dataclass
class _NodeTables:
    """Per-row quantities entering every candidate statistic at one node,
    plus the node-level sums and matrices every candidate batch reuses."""

    # per row: 1, A, delta, delta^2, then for the sandwich the gradient,
    # score * delta and (centered only) the score; left-child column sums
    # of this matrix drive every statistic
    packed: np.ndarray
    info_inv: Optional[np.ndarray]        # I^-1, inverse information matrix
    sandwich_form: Optional[np.ndarray]   # I^-1 S I^-1, S the score outer product
    score_total: Optional[np.ndarray]
    dscore_total: Optional[np.ndarray]
    grad_total: Optional[np.ndarray]
    total_treated: float
    total_delta: float
    total_delta_sq: float
    corr_sign: float
    centered: bool                 # center the base influence within children
    msq: float                     # mean(delta^2), degeneracy scale


def node_tables(
    data: Dataset,
    rows: np.ndarray,
    config: GrowConfig,
    models: NuisanceModels,
    terms: Contributions,
) -> _NodeTables:
    """Tables of the node's rows from their per-row ``terms`` under ``models``.

    Only the pooled sandwich needs the information matrix, so ``info_inv``
    is None exactly when the variance is the influence one."""
    A, delta = terms.A, terms.delta

    grad = score = info_inv = sandwich_form = score_total = None
    corr_sign = 0.0
    if config.variance_method == VarianceMethod.POOLED_SANDWICH:
        design, residual, grad, info = sandwich_terms(config.estimator, data, rows, models, terms)
        score = residual[:, None] * design
        corr_sign = -1.0 if config.estimator == EstimatorKind.IPW else 1.0
        # Precomputed once per node so that each candidate batch needs only
        # two GEMMs: c = d I^-1 and the quadratic form d I^-1 S I^-1 d.
        info_inv = solve_information(info, np.eye(len(info)))
        sandwich_form = info_inv @ (score.T @ score) @ info_inv
        score_total = score.sum(axis=0)

    delta_sq = delta**2
    centered = config.estimator != EstimatorKind.IPW
    columns = [np.ones(len(rows)), A, delta, delta_sq]
    dscore = None
    if score is not None:
        dscore = score * delta[:, None]
        columns += [grad, dscore, score] if centered else [grad, dscore]
    return _NodeTables(
        packed=np.column_stack(columns),
        info_inv=info_inv,
        sandwich_form=sandwich_form,
        score_total=score_total,
        dscore_total=dscore.sum(axis=0) if dscore is not None else None,
        grad_total=grad.sum(axis=0) if grad is not None else None,
        total_treated=float(A.sum()),
        total_delta=float(delta.sum()),
        total_delta_sq=float(delta_sq.sum()),
        corr_sign=corr_sign,
        centered=centered,
        msq=float(np.mean(delta_sq)),
    )


def candidate_statistics(
    tables: _NodeTables,
    left_agg: np.ndarray,
    n_p: int,
    min_node: int,
    min_per_arm: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(statistic, admissible, t_hat, variance) arrays for one candidate batch."""
    sandwich = tables.info_inv is not None
    q = len(tables.grad_total) if sandwich else 0

    left_counts = left_agg[:, 0]
    left_treated = left_agg[:, 1]
    left_delta = left_agg[:, 2]
    left_delta_sq = left_agg[:, 3]

    total_treated = tables.total_treated
    total_delta = tables.total_delta
    total_delta_sq = tables.total_delta_sq

    n_l = left_counts
    n_r = n_p - n_l
    m1_l = left_treated
    m1_r = total_treated - m1_l
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
        t_r = (total_delta - left_delta) / n_r
        t_hat = t_l - t_r

        if not sandwich:
            ss_l = left_delta_sq - n_l * t_l**2
            ss_r = (total_delta_sq - left_delta_sq) - n_r * t_r**2
            pooled_ss = ss_l / p_l**2 + ss_r / p_r**2
            variance = pooled_ss / (n_p - 1) / n_p
        else:
            left_grad = left_agg[:, 4:4 + q]
            left_dscore = left_agg[:, 4 + q:4 + 2 * q]
            # The (C, q) arrays are updated in place to save temporaries;
            # the operations and their order are those of the expression in
            # each comment, so the rounding is too.
            d_diff = left_grad / n_l[:, None]
            work = tables.grad_total - left_grad
            work /= n_r[:, None]
            d_diff -= work  # left mean gradient - right mean gradient
            c = d_diff @ tables.info_inv
            np.matmul(d_diff, tables.sandwich_form, out=work)
            corr_sq = np.einsum("cq,cq->c", work, d_diff)  # c S c', row by row
            np.subtract(tables.dscore_total, left_dscore, out=work)  # right dscore
            if tables.centered:
                # base influence centered within each child: nonnegative
                # mean of squares, no explicit centering subtraction
                base_sq = (
                    (left_delta_sq - n_l * t_l**2) / p_l**2
                    + ((total_delta_sq - left_delta_sq) - n_r * t_r**2) / p_r**2
                )
                left_score = left_agg[:, 4 + 2 * q:4 + 3 * q]
                # (left dscore - t_l left score) / p_l
                #   - (right dscore - t_r right score) / p_r
                right_score = tables.score_total - left_score
                right_score *= t_r[:, None]
                work -= right_score
                work /= p_r[:, None]
                base_score = t_l[:, None] * left_score
                np.subtract(left_dscore, base_score, out=base_score)
                base_score /= p_l[:, None]
                base_score -= work
                cross = np.einsum("cq,cq->c", base_score, c)
                variance = (base_sq + 2.0 * tables.corr_sign * cross + corr_sq) / n_p / n_p
            else:
                base_sq = (
                    left_delta_sq / p_l**2
                    - 2.0 * t_hat * left_delta / p_l
                    + n_l * t_hat**2
                    + (total_delta_sq - left_delta_sq) / p_r**2
                    + 2.0 * t_hat * (total_delta - left_delta) / p_r
                    + n_r * t_hat**2
                )
                # left dscore / p_l - right dscore / p_r - t_hat score total
                work /= p_r[:, None]
                base_score = left_dscore / p_l[:, None]
                base_score -= work
                base_score -= t_hat[:, None] * tables.score_total[None, :]
                cross = np.einsum("cq,cq->c", base_score, c)
                sum_sq = base_sq + 2.0 * tables.corr_sign * cross + corr_sq
                variance = (sum_sq / n_p - (p_r * t_l + p_l * t_r) ** 2 / (p_l * p_r)) / n_p

        ok = admissible & np.isfinite(variance) & (variance > variance_floor(tables.msq, n_p))
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
    ``tables``; child scope has none and refits per candidate
    (``partition_statistic``). Ties on the statistic keep the earlier candidate
    in enumeration order (column order, then threshold / canonical subset /
    cut order).
    """
    min_node, min_per_arm = config.min_node, config.min_per_arm
    best = None  # (stat, rule)
    n_cand = 0
    n_adm = 0
    for block in iter_candidate_blocks(data, rows):
        if tables is None:
            stats = np.array([partition_statistic(data, rows, rule.goes_left(data, rows), config,
                                                  None, min_node, min_per_arm)
                              for rule in block.rules()])
        else:
            stats = candidate_statistics(tables, block.aggregate(tables.packed), len(rows),
                                         min_node, min_per_arm)[0]
        n_cand += block.n_rules
        n_adm += int(np.isfinite(stats).sum())  # inadmissible candidates score -inf
        j = int(np.argmax(stats))
        if stats[j] > 0.0 and (best is None or stats[j] > best[0]):
            best = (float(stats[j]), block.make_rule(j))
    if best is None:
        return None

    rule = best[1]
    # Rebuild the winner from its rule and rescore from the realized
    # partition, so the stored values match the partition exactly even if a
    # midpoint threshold rounded onto a data value.
    left_local = rule.goes_left(data, rows)
    statistic = partition_statistic(data, rows, left_local, config, tables, min_node, min_per_arm)
    if statistic <= 0.0:
        return None
    return BestSplit(rule, statistic, left_local, n_cand, n_adm)


def score_partition(
    tables: _NodeTables,
    left_local: np.ndarray,
    min_node: int,
    min_per_arm: int,
) -> Optional[tuple[float, float, float]]:
    """(statistic, t_hat, variance) of one realized partition of the node's
    rows (``left_local`` is left membership over them), scored as a
    1-candidate batch; None when the partition is inadmissible."""
    left_agg = tables.packed[left_local].sum(axis=0)[None, :]
    stats, adm, t_hats, variances = candidate_statistics(
        tables, left_agg, len(left_local), min_node, min_per_arm,
    )
    if not adm[0]:
        return None
    return float(stats[0]), float(t_hats[0]), float(variances[0])


def partition_statistic(
    data: Dataset,
    rows: np.ndarray,
    left_local: np.ndarray,
    config: GrowConfig,
    tables: Optional[_NodeTables],
    min_node: int,
    min_per_arm: int,
) -> float:
    """Statistic of one realized partition of the node's ``rows``
    (``left_local`` is left membership over them); -inf where the partition
    is inadmissible. With the node's ``tables`` (whole and parent scope) it
    is scored as a 1-candidate batch; without them (child scope) by
    ``split_contrast`` with per-child nuisance refits."""
    if tables is not None:
        scored = score_partition(tables, left_local, min_node, min_per_arm)
        return -np.inf if scored is None else scored[0]
    n_l = int(left_local.sum())
    if n_l < min_node or len(rows) - n_l < min_node:
        return -np.inf
    try:
        return split_contrast(data, rows[left_local], rows[~left_local], config,
                              min_per_arm=min_per_arm).statistic
    except InadmissibleSplitError:
        return -np.inf

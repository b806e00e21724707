"""The fit pipeline, final tree selection on held-out rows, and bootstrap intervals.

A fit grows the max tree and selects from it: the candidates are the max
tree and its weakest-link prunes, taken from the prune order, and only the
winner is built. Each candidate subtree is scored by recomputing its
internal-node splitting statistics from validation rows routed down the
tree and penalizing the internal-node count (lambda per node, finite and
>= 0); the candidate maximizing this validation split complexity wins,
ties going to the smaller tree. Selection and the bootstrap use the tree's
own config. The validation rows are a row-index array into the dataset
the tree was grown on, so selection copies no data and reuses that
dataset's root designs. A node's validation statistic comes from the one
scorer of a realized split, ``search.split_contrast``. Bootstrap intervals
re-estimate terminal effects on resampled row indices, with the structure
and the routing of the rows fixed and no copy of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .estimators import InadmissibleSplitError, node_effect, shared_models, subgroup_terms
from .glm import FitError
from .prune import weakest_link_sequence
from .search import split_contrast
from .tree import GrowConfig, Tree, grow_max_tree

__all__ = [
    "check_lambda",
    "fit_tree",
    "validation_statistics",
    "select_final",
    "SelectionTrace",
    "bootstrap_effects",
    "TerminalInterval",
]


def check_lambda(lam: float) -> None:
    """ValueError unless the penalty per internal node ``lam`` is finite and >= 0."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")


def fit_tree(data: Dataset, build_rows: np.ndarray, validation_rows: np.ndarray,
             config: GrowConfig, lam: float) -> tuple[Tree, Tree, SelectionTrace]:
    """Grow the max tree on row indices ``build_rows``, then select among its
    weakest-link prunes on ``validation_rows`` (``select_final``); returns (max
    tree, final tree, trace). A bad ``lam`` raises ValueError before any growth."""
    check_lambda(lam)
    max_tree = grow_max_tree(data, build_rows, config)
    final, trace = select_final(max_tree, data, validation_rows, lam)
    return max_tree, final, trace


def validation_statistics(tree: Tree, data: Dataset, rows: np.ndarray) -> dict[int, float]:
    """Splitting statistic of each internal node recomputed on validation ``rows``.

    Each node's split is scored by ``search.split_contrast`` from the rows
    reaching it and the mask of those reaching its left child (routing is
    ``Tree.rows_by_node``'s alone), with the nuisance models fit per the
    tree config's scope: on the node's rows (parent) or per child (child).
    In whole scope every node shares the one fit that
    ``estimators.shared_models`` makes on all the validation rows, and if
    that fit fails every node contributes 0. A node whose statistic cannot
    be computed (empty child or arm, failed fit, singular information
    matrix, degenerate variance) contributes 0.
    """
    config = tree.config
    reach = tree.rows_by_node(data, rows)
    try:
        shared = shared_models(data, rows, config)
    except FitError:
        return dict.fromkeys(tree.internal_ids(), 0.0)

    stats: dict[int, float] = {}
    for node_id in tree.internal_ids():
        node_rows = reach[node_id]
        left = np.isin(node_rows, reach[tree.node(node_id).left])
        try:
            stats[node_id] = split_contrast(data, node_rows, left, config, shared=shared).statistic
        except InadmissibleSplitError:
            stats[node_id] = 0.0
    return stats


@dataclass
class SelectionTrace:
    """Per-candidate validation complexities and the chosen index."""

    n_internal: list[int]
    complexities: list[float]
    chosen: int

    def to_dict(self) -> dict:
        return {
            "candidates": [
                {"index": i, "internal_nodes": n, "validation_complexity": c}
                for i, (n, c) in enumerate(zip(self.n_internal, self.complexities))
            ],
            "chosen": self.chosen,
        }


def select_final(max_tree: Tree, data: Dataset, rows: np.ndarray,
                 lam: float) -> tuple[Tree, SelectionTrace]:
    """Candidate maximizing split complexity on validation ``rows``; ties prefer fewer internal nodes.

    The candidates are ``max_tree`` and its weakest-link prunes
    (``weakest_link_sequence``); ``lam`` is the penalty per internal node,
    finite and >= 0. A node's validation statistic is the same in every
    candidate that contains it (pruning preserves ancestors), so the
    statistics are computed once on the max tree and summed in ascending id
    order, as in ``split_complexity``, over each candidate's internal nodes,
    which follow from the prune order. Only the chosen candidate is
    materialized: ``max_tree`` itself when it wins.
    """
    check_lambda(lam)
    order = weakest_link_sequence(max_tree)
    stats = validation_statistics(max_tree, data, rows)
    kept = max_tree.internal_ids()
    sizes: list[int] = []
    complexities: list[float] = []
    for h in order + [None]:
        sizes.append(len(kept))
        complexities.append(sum(stats[i] for i in kept) - lam * len(kept))
        if h is not None:
            gone = set(max_tree.branch_internal(h))
            kept = [i for i in kept if i not in gone]
    chosen = max(range(len(sizes)), key=lambda k: (complexities[k], -sizes[k]))
    final = max_tree.prune_at(*order[:chosen]) if chosen else max_tree
    return final, SelectionTrace(sizes, complexities, chosen)


@dataclass
class TerminalInterval:
    node_id: int
    point: float
    lower: float
    upper: float
    n_replicates: int
    n_dropped: int

    def to_dict(self) -> dict:
        return {"terminal": self.node_id, "effect": self.point, "lower": self.lower,
                "upper": self.upper, "replicates": self.n_replicates, "dropped": self.n_dropped}


def bootstrap_effects(
    tree: Tree,
    data: Dataset,
    B: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> list[TerminalInterval]:
    """Percentile bootstrap intervals for each terminal effect of a fixed tree.

    Rows are resampled with replacement; terminal effects are re-estimated
    with the tree's estimator on the resampled indices reaching each
    terminal, in draw order with duplicates, structure unchanged. A
    replicate leaving some terminal with an empty treatment arm (or an
    unfittable model) is redrawn up to 10 times, then dropped and counted;
    FitError if every replicate is dropped.
    Replicate b draws from an independent substream of (seed, b), so results
    do not depend on evaluation order.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    terminal_ids = tree.terminal_ids()
    terminal = tree.route(data)
    draws: dict[int, list[float]] = {t: [] for t in terminal_ids}
    n_dropped = 0
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        effects = None
        for _ in range(10):
            idx = rng.integers(0, data.n, size=data.n)
            effects = _terminal_effects(data, idx, terminal[idx], tree.config, terminal_ids)
            if effects is not None:
                break
        if effects is None:
            n_dropped += 1
            continue
        for t in terminal_ids:
            draws[t].append(effects[t])

    alpha = (1.0 - level) / 2.0
    out = []
    for t in terminal_ids:
        values = np.asarray(draws[t])
        if len(values) == 0:
            raise FitError("all bootstrap replicates were dropped")
        out.append(
            TerminalInterval(
                node_id=t,
                point=tree.node(t).effect.effect,
                lower=float(np.quantile(values, alpha)),
                upper=float(np.quantile(values, 1.0 - alpha)),
                n_replicates=len(values),
                n_dropped=n_dropped,
            )
        )
    return out


def _terminal_effects(data: Dataset, idx: np.ndarray, reached: np.ndarray, config: GrowConfig,
                      terminal_ids: list[int]) -> Optional[dict[int, float]]:
    """Terminal effects on the resampled rows ``idx`` of ``data``, ``reached[j]``
    the terminal that row ``idx[j]`` reaches; None if the replicate is unusable."""
    try:
        shared = shared_models(data, idx, config)
    except FitError:
        return None
    effects: dict[int, float] = {}
    for t in terminal_ids:
        rows = idx[reached == t]
        if len(rows) == 0:
            return None
        try:
            # no terms outlive their terminal: they hold the designs of its rows
            effects[t] = node_effect(subgroup_terms(data, rows, config, shared)[1]).effect
        except InadmissibleSplitError:
            return None
    return effects

"""Greedy growth of the maximum-sized effect tree, prediction, and serialization.

Growth splits nodes on the candidate with the largest splitting statistic,
one node at a time in preorder from a stack of pending children, stopping
when no admissible candidate remains, the depth cap is reached, or children
would fall below the node- or arm-size minimums. Node effects are computed
with the configured estimator on the models that ``estimators.subgroup_terms``
gives each node; a node whose own models are inadmissible takes its parent's
and is not split; in child scope only the root can fail, as every other node
is a child whose fit the search admitted. Every walk of a built tree is
``Tree.preorder``, which does not recurse, so depth is not bounded by
Python's recursion limit; routing takes each row's side at a split from
``SplitRule.goes_left`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Container, Iterator, Optional, get_type_hints

import numpy as np

from .data import Categorical, Continuous, Dataset, Ordinal, Schema, json_value
from .estimators import (
    EstimatorKind,
    InadmissibleSplitError,
    NodeEffect,
    NuisanceScope,
    VarianceMethod,
    model_specs,
    node_effect,
    shared_models,
    subgroup_terms,
)
from .glm import DesignSpec, FitError, check_columns, check_rows, parse_spec
from .search import SplitRule, find_best_split, node_tables

TREE_FORMAT = "cit-tree/1"


@dataclass(frozen=True)
class GrowConfig:
    """Everything growth needs: estimator, nuisance specs, scope, variance
    method, stopping limits, truncation bound, and the seed recorded with
    the tree. The only place that decides which (estimator, scope,
    variance) combinations are valid; frozen, so a config keeps that
    decision (``dataclasses.replace`` makes it again).

    Growth never reads ``seed``: it records the seed of the fit's
    build/validation split in ``tree.json``, so a tree names the split it
    was selected on. Its JSON form (``to_dict``) is one key per field."""

    estimator: EstimatorKind
    propensity_spec: Optional[DesignSpec] = None
    outcome_spec: Optional[DesignSpec] = None
    scope: NuisanceScope = NuisanceScope.PARENT
    variance_method: Optional[VarianceMethod] = None
    min_node: int = 30
    min_per_arm: int = 10
    max_depth: int = 10
    epsilon: float = 0.01
    seed: int = 0
    outcome_family: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "estimator", EstimatorKind(self.estimator))
        object.__setattr__(self, "scope", NuisanceScope(self.scope))
        variance = self.variance_method
        if variance is None:
            # the pooled sandwich where one fit is shared (DR: see below)
            if self.scope != NuisanceScope.CHILD:
                variance = VarianceMethod.POOLED_SANDWICH
            elif self.estimator == EstimatorKind.IPW:
                variance = VarianceMethod.PER_CHILD_SANDWICH
            else:
                variance = VarianceMethod.INFLUENCE
        object.__setattr__(self, "variance_method", VarianceMethod(variance))
        if not (self.min_node >= 2 * self.min_per_arm >= 2):
            raise ValueError("require min_node >= 2*min_per_arm >= 2")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.outcome_family not in ("gaussian", "binomial"):
            raise ValueError("outcome_family must be gaussian or binomial")
        if self.estimator in (EstimatorKind.IPW, EstimatorKind.DR) and self.propensity_spec is None:
            raise ValueError(f"estimator {self.estimator.value} requires a propensity spec")
        if self.propensity_spec is not None and any(
                t.kind in ("treatment", "interaction") for t in self.propensity_spec.terms):
            raise ValueError("the propensity spec models the treatment and cannot contain it")
        if self.estimator in (EstimatorKind.GFORMULA, EstimatorKind.DR) and self.outcome_spec is None:
            raise ValueError(f"estimator {self.estimator.value} requires an outcome spec")
        if self.variance_method == VarianceMethod.PER_CHILD_SANDWICH:
            if self.estimator != EstimatorKind.IPW or self.scope != NuisanceScope.CHILD:
                raise ValueError("per-child sandwich variance requires the IPW estimator with child scope")
        if self.variance_method == VarianceMethod.POOLED_SANDWICH:
            if self.scope == NuisanceScope.CHILD:
                raise ValueError("pooled sandwich variance requires whole or parent scope")
            if self.estimator == EstimatorKind.DR:
                # the DR M-estimation variance reduces to the influence form
                object.__setattr__(self, "variance_method", VarianceMethod.INFLUENCE)

    @classmethod
    def from_strings(cls, estimator: str, treatment_name: str,
                     propensity: Optional[str] = None, outcome: Optional[str] = None,
                     **kwargs) -> "GrowConfig":
        return cls(
            estimator=EstimatorKind(estimator),
            propensity_spec=parse_spec(propensity, treatment_name) if propensity else None,
            outcome_spec=parse_spec(outcome, treatment_name) if outcome else None,
            **kwargs,
        )

    def to_dict(self, treatment_name: str) -> dict:
        """One key per field: specs as their strings, enums as their values."""
        def plain(value):
            if isinstance(value, DesignSpec):
                return value.to_string(treatment_name)
            return value.value if isinstance(value, Enum) else value

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict, treatment_name: str) -> "GrowConfig":
        """The config written by ``to_dict``: numbers, strings and specs pass
        ``data.json_value``, enums their own constructors, and the whole
        config the usual validation."""
        values = {}
        for name, hint in get_type_hints(cls).items():
            if hint == Optional[DesignSpec]:
                spec = json_value(payload, name, str, optional=True)
                values[name] = None if spec is None else parse_spec(spec, treatment_name)
            elif hint in (int, float, str):
                values[name] = json_value(payload, name, hint)
            else:
                values[name] = payload[name]
        return cls(**values)


@dataclass
class TreeNode:
    id: int
    depth: int
    n: int
    effect: NodeEffect
    rule: Optional[SplitRule] = None
    statistic: Optional[float] = None
    left: Optional[int] = None
    right: Optional[int] = None
    # training-time attachments, not serialized
    n_candidates: int = 0
    n_admissible: int = 0

    @property
    def is_terminal(self) -> bool:
        return self.rule is None

    def to_dict(self) -> dict:
        return {"id": self.id, "depth": self.depth, "n": self.n, "effect": self.effect.effect,
                "mu1": self.effect.mu1, "mu0": self.effect.mu0,
                "rule": None if self.rule is None else self.rule.to_dict(),
                "statistic": self.statistic, "left": self.left, "right": self.right}

    @classmethod
    def from_dict(cls, payload: dict, schema: Schema) -> "TreeNode":
        """The node written by ``to_dict``; every value passes ``data.json_value``
        and the rule ``SplitRule.from_dict``."""
        return cls(
            id=json_value(payload, "id", int),
            depth=json_value(payload, "depth", int),
            n=json_value(payload, "n", int),
            effect=NodeEffect(**{key: json_value(payload, key, float)
                                 for key in ("mu1", "mu0", "effect")}),
            rule=None if payload["rule"] is None else SplitRule.from_dict(payload["rule"], schema),
            statistic=json_value(payload, "statistic", float, optional=True),
            left=json_value(payload, "left", int, optional=True),
            right=json_value(payload, "right", int, optional=True),
        )


class Tree:
    """Binary effect tree over a dataset schema."""

    def __init__(self, nodes: dict[int, TreeNode], root_id: int, config: GrowConfig,
                 schema: Schema):
        self.nodes = nodes
        self.root_id = root_id
        self.config = config
        self.schema = schema

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def internal_ids(self) -> list[int]:
        return sorted(i for i, nd in self.nodes.items() if not nd.is_terminal)

    def terminal_ids(self) -> list[int]:
        return sorted(i for i, nd in self.nodes.items() if nd.is_terminal)

    def n_internal(self) -> int:
        return sum(1 for nd in self.nodes.values() if not nd.is_terminal)

    def preorder(self, node_id: Optional[int] = None,
                 stop: Container[int] = ()) -> Iterator[tuple[int, int]]:
        """Each node id of the subtree rooted at node_id (the root by
        default) with its level below it, parent before children and left
        subtree before right; a node in ``stop`` is yielded but not descended."""
        stack = [(self.root_id if node_id is None else node_id, 0)]
        while stack:
            i, level = stack.pop()
            yield i, level
            nd = self.nodes[i]
            if not nd.is_terminal and i not in stop:
                stack += ((nd.right, level + 1), (nd.left, level + 1))

    def branch_internal(self, node_id: int) -> list[int]:
        """Internal nodes of the subtree rooted at node_id, itself included, preorder."""
        return [i for i, _ in self.preorder(node_id) if not self.nodes[i].is_terminal]

    def prune_at(self, *node_ids: int) -> "Tree":
        """Copy of the tree with all descendants of each given node removed;
        those nodes keep their effect estimates and become terminal."""
        cut = set(node_ids)
        nodes = {}
        for i, _ in self.preorder(stop=cut):
            nd = self.nodes[i]
            nodes[i] = (replace(nd, rule=None, statistic=None, left=None, right=None)
                        if i in cut else replace(nd))
        return Tree(nodes, self.root_id, self.config, self.schema)

    def rows_by_node(self, data: Dataset, rows: np.ndarray) -> dict[int, np.ndarray]:
        """The indices in ``rows`` of the rows of ``data`` reaching each node,
        kept in the order given, so ascending ``rows`` give ascending subsets.

        The walk is ``preorder``, and each split's rule decides its rows'
        sides (``SplitRule.goes_left``); a categorical level unseen at a split
        goes to the child with more training rows.
        """
        if data.schema != self.schema:
            raise ValueError("dataset schema does not match the tree's schema")
        reach = {self.root_id: rows}
        for node_id, _ in self.preorder():
            nd = self.nodes[node_id]
            if nd.is_terminal:
                continue
            rows = reach[node_id]
            left = nd.rule.goes_left(data, rows, self.nodes[nd.left].n >= self.nodes[nd.right].n)
            reach[nd.left] = rows[left]
            reach[nd.right] = rows[~left]
        return reach

    def route(self, data: Dataset) -> np.ndarray:
        """Terminal node id reached by each row (see ``rows_by_node``)."""
        reach = self.rows_by_node(data, np.arange(data.n))
        out = np.empty(data.n, dtype=np.int64)
        for node_id in self.terminal_ids():
            out[reach[node_id]] = node_id
        return out

    def predict(self, data: Dataset) -> np.ndarray:
        """Estimated subgroup effect of the terminal node reached by each row."""
        ids = self.terminal_ids()
        effects = np.array([self.nodes[i].effect.effect for i in ids])
        return effects[np.searchsorted(ids, self.route(data))]

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "format": TREE_FORMAT,
            "root": self.root_id,
            "estimator": self.config.estimator.value,
            "nodes": [self.nodes[i].to_dict() for i in sorted(self.nodes)],
            "schema": schema_to_dict(self.schema),
            "config": self.config.to_dict(self.schema.treatment),
        }

    def render_text(self) -> str:
        lines: list[str] = []
        for node_id, level in self.preorder():
            nd = self.nodes[node_id]
            head = f"node {nd.id}: n={nd.n} effect={nd.effect.effect:.4f}"
            if not nd.is_terminal:
                head += f" | split {nd.rule.describe()} (G={nd.statistic:.3f})"
            lines.append("  " * level + head)
        return "\n".join(lines) + "\n"


def schema_to_dict(schema: Schema) -> dict:
    cols = []
    for name, kind in schema.columns:
        if isinstance(kind, Continuous):
            cols.append({"name": name, "kind": "continuous"})
        elif isinstance(kind, Categorical):
            cols.append({"name": name, "kind": "categorical", "levels": list(kind.levels)})
        else:
            cols.append({"name": name, "kind": "ordinal", "levels": list(kind.levels)})
    return {"covariates": cols, "treatment": schema.treatment, "outcome": schema.outcome}


def schema_from_dict(payload: dict) -> Schema:
    cols = []
    for col in payload["covariates"]:
        if col["kind"] == "continuous":
            kind = Continuous()
        elif col["kind"] in ("categorical", "ordinal"):
            kind = (Categorical if col["kind"] == "categorical" else Ordinal)(
                json_value(col, "levels", tuple))
        else:
            raise ValueError(f"unknown covariate kind {col['kind']!r}")
        cols.append((col["name"], kind))
    return Schema(tuple(cols), payload["treatment"], payload["outcome"])


def tree_from_dict(payload: dict) -> Tree:
    """Rebuild a tree from its JSON document (effects only, no models);
    ValueError unless its nodes form one binary tree from the root and
    every value passes ``data.json_value``. The check walks ``Tree.preorder``
    and vets each node before the walk reads its children, so a cycle or a
    shared child fails at its first repeat."""
    if not isinstance(payload, dict):
        raise ValueError("a tree document must be a JSON object")
    if payload.get("format") != TREE_FORMAT:
        raise ValueError(f"unsupported tree format {payload.get('format')!r}")
    schema = schema_from_dict(payload["schema"])
    config = GrowConfig.from_dict(payload["config"], schema.treatment)
    nodes: dict[int, TreeNode] = {}
    for item in payload["nodes"]:
        node = TreeNode.from_dict(item, schema)
        if node.id in nodes:
            raise ValueError(f"duplicate tree node id {node.id!r}")
        nodes[node.id] = node
    tree = Tree(nodes, json_value(payload, "root", int), config, schema)
    reached = set()
    for i, _ in tree.preorder():
        if i not in nodes or i in reached:
            raise ValueError(f"tree node {i!r} is missing or reached twice")
        reached.add(i)
        nd = nodes[i]
        if (nd.left is None, nd.right is None) != (nd.is_terminal, nd.is_terminal):
            raise ValueError(f"tree node {i!r} must have two children exactly when it has a rule")
    if len(reached) != len(nodes):
        raise ValueError("some tree nodes are not reached from the root")
    return tree


# ----------------------------------------------------------------------
# growth


def grow_max_tree(data: Dataset, rows: np.ndarray, config: GrowConfig) -> Tree:
    """Grow the maximum-sized tree on row indices ``rows`` by repeatedly taking
    the largest-statistic split; DataError first if a model column fails
    ``glm.check_columns``, then FitError, before any fit, if the rows hold one arm."""
    rows = check_rows(rows)
    if len(rows) < config.min_node:
        raise ValueError("root below min_node")
    for spec in filter(None, model_specs(config)):
        check_columns(data, spec)
    if int(data.treatment[rows].sum()) in (0, len(rows)):
        raise FitError(f"treatment column {data.schema.treatment!r} holds one arm only "
                       f"on the {len(rows)} root rows")
    shared = shared_models(data, rows, config)

    nodes: dict[int, TreeNode] = {}
    # a child's rows, depth and inherited models, and the parent field its id goes to
    pending = [(rows, 0, None, None, None)]
    while pending:  # the left child is popped first, so ids are in preorder
        node_rows, depth, parent_models, parent, side = pending.pop()
        node_id = len(nodes)
        if parent is not None:
            setattr(parent, side, node_id)
        try:
            models, terms = subgroup_terms(data, node_rows, config, shared)
        except InadmissibleSplitError as err:
            if parent_models is None:
                raise FitError("cannot fit nuisance models on the root node") from err
            models = None  # the effect uses the parent's models; parent scope stops here
            terms = subgroup_terms(data, node_rows, config, parent_models)[1]
        effect_models = models if models is not None else parent_models
        node = TreeNode(id=node_id, depth=depth, n=len(node_rows), effect=node_effect(terms))
        nodes[node_id] = node

        can_split = (
            depth < config.max_depth
            and len(node_rows) >= 2 * config.min_node
            and terms.smaller_arm >= 2 * config.min_per_arm
            and models is not None
        )
        tables = None
        if can_split and config.scope != NuisanceScope.CHILD:
            try:
                tables = node_tables(config, models, terms)
            except InadmissibleSplitError:
                can_split = False  # e.g. a singular information matrix on the node's rows
        del terms  # neither the terms nor the tables may stay alive while children grow
        best = find_best_split(data, node_rows, config, tables) if can_split else None
        del tables
        if best is None:
            continue
        node.n_candidates = best.n_candidates
        node.n_admissible = best.n_admissible
        node.rule = best.rule
        node.statistic = best.statistic
        pending.append((node_rows[~best.left_local], depth + 1, effect_models, node, "right"))
        pending.append((node_rows[best.left_local], depth + 1, effect_models, node, "left"))
    return Tree(nodes, 0, config, data.schema)

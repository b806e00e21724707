import dataclasses
import json
import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from efftree.data import Categorical, Continuous, Dataset, Ordinal, Schema
from efftree.estimators import (
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceScope,
    VarianceMethod,
)
from efftree.glm import FitError, parse_spec
from efftree.prune import weakest_link_sequence
from efftree.search import CategoricalCardinalityError, SplitRule, node_tables
from efftree.simulate import SimSetting, generate, make_config
from efftree.tree import GrowConfig, Tree, TreeNode, grow_max_tree, tree_from_dict
from oracle import enumerate_splits, fit_on, split_contrast, terms_of
from util_trees import build_tree, leaf_effect, random_tree, recursive_preorder


def make_data(x: dict, A, Y, kinds=None) -> Dataset:
    kinds = kinds or {}
    cols = tuple((name, kinds.get(name, Continuous())) for name in x)
    schema = Schema(cols, treatment="A", outcome="Y")
    return Dataset(schema, {k: np.asarray(v) for k, v in x.items()},
                   np.asarray(A), np.asarray(Y, dtype=float))


# ---------------------------------------------------------------- enumeration


def test_enumerate_continuous_midpoints():
    data = make_data({"x1": [1.0, 2.0, 4.0]}, [0, 1, 0], [0.0, 1.0, 2.0])
    rules = enumerate_splits(data, np.arange(3))
    assert [r.threshold for r in rules] == [1.5, 3.0]
    assert all(r.kind == "threshold" for r in rules)


def test_enumerate_categorical_three_levels():
    kinds = {"c": Categorical(("A", "B", "C"))}
    data = make_data({"c": [0, 1, 2, 0]}, [0, 1, 0, 1], [0.0] * 4, kinds)
    rules = enumerate_splits(data, np.arange(4))
    assert [r.left_levels for r in rules] == [("A",), ("B",), ("C",)]
    assert rules[0].right_levels == ("B", "C")


def test_enumerate_categorical_four_levels_count():
    kinds = {"c": Categorical(("A", "B", "C", "D"))}
    data = make_data({"c": [0, 1, 2, 3]}, [0, 1, 0, 1], [0.0] * 4, kinds)
    rules = enumerate_splits(data, np.arange(4))
    assert len(rules) == 7  # 2^(4-1) - 1 unordered partitions
    assert [r.left_levels for r in rules[:4]] == [("A",), ("B",), ("C",), ("D",)]
    assert [r.left_levels for r in rules[4:]] == [("A", "B"), ("A", "C"), ("A", "D")]


def test_enumerate_ordinal_cuts():
    kinds = {"g": Ordinal(("A", "B", "C", "D"))}
    data = make_data({"g": [0, 1, 2, 3]}, [0, 1, 0, 1], [0.0] * 4, kinds)
    rules = enumerate_splits(data, np.arange(4))
    assert len(rules) == 3
    assert [r.cut for r in rules] == [0, 1, 2]


def test_enumerate_respects_mask():
    data = make_data({"x1": [1.0, 2.0, 4.0, 9.0]}, [0, 1, 0, 1], [0.0] * 4)
    rules = enumerate_splits(data, np.flatnonzero([True, True, False, False]))
    assert [r.threshold for r in rules] == [1.5]


def test_enumerate_cardinality_cap():
    levels = tuple(f"L{i}" for i in range(16))
    kinds = {"c": Categorical(levels)}
    data = make_data({"c": list(range(16))}, [0, 1] * 8, [0.0] * 16, kinds)
    with pytest.raises(CategoricalCardinalityError):
        enumerate_splits(data, np.arange(16))


def test_enumeration_order_is_by_column_then_value():
    data = make_data({"x1": [1.0, 2.0], "x2": [5.0, 6.0]}, [0, 1], [0.0, 1.0])
    rules = enumerate_splits(data, np.arange(2))
    assert [(r.column, r.threshold) for r in rules] == [("x1", 1.5), ("x2", 5.5)]


# ---------------------------------------------------------------- growth


def grow_setting(n=400, seed=3, estimator="dr", **overrides):
    setting = SimSetting("heterogeneous", n=n, seed=seed)
    data, oracle = generate(setting)
    config = make_config(setting, estimator, **overrides)
    return data, oracle, config


def test_grow_root_only_when_below_min_node():
    data, _, config = grow_setting(n=40)
    with pytest.raises(ValueError):
        # root itself below min_node is a precondition violation
        grow_max_tree(data, np.arange(20), GrowConfig(
            estimator=config.estimator, propensity_spec=config.propensity_spec,
            outcome_spec=config.outcome_spec, min_node=25, min_per_arm=2))
    # and a root that satisfies min_node but cannot produce two children stays root-only
    tree = grow_max_tree(data, np.arange(40), GrowConfig(
        estimator=config.estimator, propensity_spec=config.propensity_spec,
        outcome_spec=config.outcome_spec, min_node=25, min_per_arm=2))
    assert tree.n_internal() == 0
    assert tree.node(tree.root_id).is_terminal


def test_grow_deterministic_serialization():
    data, _, config = grow_setting(n=500, seed=9)
    t1 = grow_max_tree(data, np.arange(data.n), config)
    t2 = grow_max_tree(data, np.arange(data.n), config)
    assert json.dumps(t1.to_dict(), sort_keys=True) == json.dumps(t2.to_dict(), sort_keys=True)


def test_grow_first_split_on_effect_variable():
    data, oracle, config = grow_setting(n=1000, seed=11, estimator="g")
    tree = grow_max_tree(data, np.arange(data.n), config)
    root = tree.node(tree.root_id)
    assert root.rule.column == "x4"
    assert abs(root.rule.threshold) < 0.3


def test_grow_respects_min_node_and_min_per_arm():
    rng = np.random.default_rng(13)
    for trial in range(5):
        min_node = int(rng.integers(20, 60))
        min_per_arm = int(rng.integers(2, min_node // 2 + 1))
        data, _, config = grow_setting(n=600, seed=100 + trial)
        config = GrowConfig(
            estimator=config.estimator, propensity_spec=config.propensity_spec,
            outcome_spec=config.outcome_spec, min_node=min_node,
            min_per_arm=min_per_arm, max_depth=6)
        tree = grow_max_tree(data, np.arange(data.n), config)
        reach = tree.rows_by_node(data, np.arange(data.n))
        for node_id, node in tree.nodes.items():
            assert node.n >= min_node
            treated = int(data.treatment[reach[node_id]].sum())
            assert min(treated, node.n - treated) >= min_per_arm
            assert node.depth <= 6


def test_chosen_split_maximizes_statistic_exhaustively():
    data, _, config = grow_setting(n=220, seed=17, estimator="dr")
    config = GrowConfig(
        estimator=config.estimator, propensity_spec=config.propensity_spec,
        outcome_spec=config.outcome_spec, min_node=40, min_per_arm=10, max_depth=1)
    tree = grow_max_tree(data, np.arange(data.n), config)
    root = tree.node(tree.root_id)
    assert root.rule is not None
    best = root.statistic
    rows = np.arange(data.n)
    for rule in enumerate_splits(data, rows):
        left = rule.goes_left(data, rows)
        if min(left.sum(), (~left).sum()) < 40:
            continue
        try:
            contrast = split_contrast(data, rows, left, config, min_per_arm=config.min_per_arm)
        except InadmissibleSplitError:
            continue
        assert contrast.statistic <= best * (1 + 1e-6)


def test_equal_statistics_tie_break_to_first_column():
    # x2 duplicates x1, so every x1 candidate has an identical twin on x2;
    # the winner must come from the earlier column
    rng = np.random.default_rng(47)
    n = 200
    x1 = rng.standard_normal(n)
    A = rng.integers(0, 2, n)
    Y = 1 + 2 * A + 1.5 * A * (x1 > 0) + rng.standard_normal(n)
    data = make_data({"x1": x1, "x2": x1.copy()}, A, Y)
    config = GrowConfig(
        estimator=EstimatorKind.GFORMULA,
        outcome_spec=parse_spec("1 + A + A:gt(x1,0)", "A"),
        min_node=30, min_per_arm=10, max_depth=1,
    )
    tree = grow_max_tree(data, np.arange(n), config)
    root = tree.node(tree.root_id)
    assert root.rule is not None
    assert root.rule.column == "x1"


def test_whole_scope_singular_child_information_leaves_node_terminal():
    # gt(x1,2.5) is zero on every row of some nodes, so the root-fitted
    # model's information matrix is singular there; those nodes stay
    # terminal instead of aborting growth
    data, _ = generate(SimSetting("heterogeneous", n=1000, seed=1))
    config = GrowConfig.from_strings(
        "g", "A", outcome="1 + A + x1 + gt(x1,2.5) + A:x2",
        scope=NuisanceScope.WHOLE, variance_method=VarianceMethod.POOLED_SANDWICH,
    )
    tree = grow_max_tree(data, np.arange(data.n), config)
    assert tree.n_internal() >= 1
    whole = fit_on(data, np.arange(data.n), config)
    reach = tree.rows_by_node(data, np.arange(data.n))
    singular = []
    for node_id in tree.terminal_ids():
        rows = reach[node_id]
        terms = terms_of(config.estimator, data, rows, whole)
        try:
            node_tables(config, whole, terms)
        except InadmissibleSplitError:
            singular.append(node_id)
    assert singular


def test_internal_nodes_carry_positive_statistic():
    data, _, config = grow_setting(n=800, seed=19)
    tree = grow_max_tree(data, np.arange(data.n), config)
    for i in tree.internal_ids():
        assert tree.node(i).statistic > 0
    for i in tree.terminal_ids():
        assert tree.node(i).rule is None


def test_children_partition_parent():
    data, _, config = grow_setting(n=700, seed=23)
    tree = grow_max_tree(data, np.arange(data.n), config)
    reach = tree.rows_by_node(data, np.arange(data.n))
    assert all(len(reach[i]) == node.n for i, node in tree.nodes.items())
    for i in tree.internal_ids():
        node = tree.node(i)
        left = tree.node(node.left)
        right = tree.node(node.right)
        assert left.n + right.n == node.n
        merged = np.sort(np.concatenate([reach[node.left], reach[node.right]]))
        assert np.array_equal(merged, np.sort(reach[i]))


def test_ipw_whole_scope_child_means_reconstruct_parent():
    data, _, config = grow_setting(n=900, seed=29, estimator="ipw", scope=NuisanceScope.WHOLE)
    tree = grow_max_tree(data, np.arange(data.n), config)
    assert tree.n_internal() >= 1
    for i in tree.internal_ids():
        node = tree.node(i)
        left = tree.node(node.left)
        right = tree.node(node.right)
        for field in ("mu1", "mu0"):
            parent_val = getattr(node.effect, field) * node.n
            combined = getattr(left.effect, field) * left.n + getattr(right.effect, field) * right.n
            assert combined == pytest.approx(parent_val, rel=1e-10)


# ---------------------------------------------------------------- prediction


def toy_tree(schema, config):
    # depth-2 tree: root splits x4 at 0; right child splits x1 at 1, effects 2/5/7
    nodes = {
        0: TreeNode(id=0, depth=0, n=40, effect=leaf_effect(3.0),
                    rule=SplitRule("x4", 3, "threshold", threshold=0.0),
                    statistic=10.0, left=1, right=2),
        1: TreeNode(id=1, depth=1, n=25, effect=leaf_effect(2.0)),
        2: TreeNode(id=2, depth=1, n=15, effect=leaf_effect(5.0),
                    rule=SplitRule("x1", 0, "threshold", threshold=1.0),
                    statistic=6.0, left=3, right=4),
        3: TreeNode(id=3, depth=2, n=8, effect=leaf_effect(5.0)),
        4: TreeNode(id=4, depth=2, n=7, effect=leaf_effect(7.0)),
    }
    return Tree(nodes, 0, config, schema)


def test_predict_root_only_constant():
    data, _, config = grow_setting(n=400, seed=31)
    config = GrowConfig(estimator=config.estimator, propensity_spec=config.propensity_spec,
                        outcome_spec=config.outcome_spec, min_node=300, min_per_arm=10)
    tree = grow_max_tree(data, np.arange(data.n), config)
    assert tree.n_internal() == 0
    pred = tree.predict(data)
    assert np.allclose(pred, tree.node(tree.root_id).effect.effect)


def test_predict_routing_single_split():
    data, _, config = grow_setting(n=100, seed=37)
    tree = toy_tree(data.schema, config)
    # prune to a single split for the simple routing check
    single = tree.prune_at(2)
    row = {name: data.column(name).copy() for name in data.schema.covariate_names}
    row["x4"][:] = 1.0
    up = Dataset(data.schema, row, data.treatment, data.outcome)
    assert up.n == 100
    pred = single.predict(up)
    assert np.allclose(pred, 5.0)


def test_predict_matches_hand_traced_paths():
    data, _, config = grow_setting(n=100, seed=41)
    tree = toy_tree(data.schema, config)
    pred = tree.predict(data)
    x1 = data.column("x1")
    x4 = data.column("x4")
    for i in range(10):
        if x4[i] < 0.0:
            expected = 2.0
        elif x1[i] < 1.0:
            expected = 5.0
        else:
            expected = 7.0
        assert pred[i] == expected


UNSEEN_KINDS = {"c": Categorical(("A", "B", "C"))}


def unseen_level_tree(left_n=20, right_n=10):
    """Split on c in {A} vs {B} of left_n and right_n training rows: level C
    was unseen at the split."""
    data = make_data({"c": [0, 1, 0, 1]}, [0, 1, 0, 1], [0.0] * 4, UNSEEN_KINDS)
    config = GrowConfig(estimator=EstimatorKind.GFORMULA,
                        outcome_spec=parse_spec("1 + A", "A"),
                        min_node=2, min_per_arm=1)
    nodes = {
        0: TreeNode(id=0, depth=0, n=30, effect=leaf_effect(1.0),
                    rule=SplitRule("c", 0, "subset", left_levels=("A",), right_levels=("B",)),
                    statistic=5.0, left=1, right=2),
        1: TreeNode(id=1, depth=1, n=left_n, effect=leaf_effect(1.0)),
        2: TreeNode(id=2, depth=1, n=right_n, effect=leaf_effect(9.0)),
    }
    return Tree(nodes, 0, config, data.schema)


def test_route_unseen_level_goes_to_larger_child():
    tree = unseen_level_tree()
    scoring = make_data({"c": [2, 2]}, [0, 1], [0.0, 0.0], UNSEEN_KINDS)
    pred = tree.predict(scoring)
    assert np.allclose(pred, 1.0)  # larger child is the left one


def test_rows_by_node_match_route():
    tree = unseen_level_tree()
    scoring = make_data({"c": [1, 2, 0, 2, 1]}, [0, 1, 0, 1, 1], [0.0] * 5, UNSEEN_KINDS)
    reach = tree.rows_by_node(scoring, np.arange(scoring.n))
    terminal = tree.route(scoring)
    np.testing.assert_array_equal(reach[0], np.arange(5))
    for node_id in tree.terminal_ids():
        np.testing.assert_array_equal(reach[node_id], np.nonzero(terminal == node_id)[0])
    np.testing.assert_array_equal(reach[1], [1, 2, 3])  # unseen C rows join the larger child


@pytest.mark.parametrize("left_n, right_n, unseen_to", [(10, 20, 2), (15, 15, 1)])
def test_rows_by_node_sends_unseen_rows_to_the_child_with_more_training_rows(left_n, right_n,
                                                                              unseen_to):
    tree = unseen_level_tree(left_n, right_n)
    scoring = make_data({"c": [1, 2, 0, 2, 1]}, [0, 1, 0, 1, 1], [0.0] * 5, UNSEEN_KINDS)
    reach = tree.rows_by_node(scoring, np.arange(scoring.n))
    expected = {1: [2], 2: [0, 4]}  # the rows of the seen levels A and B
    expected[unseen_to] = sorted(expected[unseen_to] + [1, 3])
    np.testing.assert_array_equal(reach[1], expected[1])
    np.testing.assert_array_equal(reach[2], expected[2])


def test_goes_left_decides_the_side_of_an_unseen_level_for_subset_rules_only(caplog):
    kinds = {"c": Categorical(("A", "B", "C")), "g": Ordinal(("lo", "hi"))}
    data = make_data({"x": [0.0, 2.0, 0.0, 2.0], "c": [0, 1, 2, 2], "g": [0, 1, 0, 1]},
                     [0, 1, 0, 1], [0.0] * 4, kinds)
    rows = np.arange(4)
    subset = SplitRule("c", 1, "subset", left_levels=("A",), right_levels=("B",))
    with caplog.at_level(logging.INFO, logger="efftree.search"):
        assert subset.goes_left(data, rows, unseen_left=True).tolist() == [True, False, True, True]
        assert subset.goes_left(data, rows).tolist() == [True, False, False, False]
        assert subset.goes_left(data, rows[:2], unseen_left=True).tolist() == [True, False]
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, "2 rows with unseen level for c routed left"),
        (logging.INFO, "2 rows with unseen level for c routed right"),
    ]  # rows of seen levels only: no record
    for rule in (SplitRule("x", 0, "threshold", threshold=1.0),
                 SplitRule("g", 2, "ordinal_cut", cut=0)):
        assert rule.goes_left(data, rows, unseen_left=True).tolist() == [True, False, True, False]
        assert rule.goes_left(data, rows).tolist() == [True, False, True, False]


@pytest.mark.parametrize("estimator", ["ipw", "g", "dr"])
def test_grow_refuses_rows_holding_one_treatment_arm_before_any_fit(estimator, monkeypatch):
    data, _, config = grow_setting(n=400, seed=3, estimator=estimator)
    treated = np.nonzero(data.treatment == 1)[0]

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted")

    monkeypatch.setattr("efftree.tree.shared_models", no_fit)
    monkeypatch.setattr("efftree.tree.subgroup_terms", no_fit)
    with pytest.raises(FitError, match=f"'A' holds one arm only on the {len(treated)} root rows"):
        grow_max_tree(data, treated, config)


# ---------------------------------------------------------------- walks


def test_preorder_matches_the_recursive_reference_on_random_trees():
    rng = np.random.default_rng(17)
    for _ in range(40):
        tree = random_tree(rng, max_internal=12)
        stop = set(rng.choice(sorted(tree.nodes), size=2).tolist())
        assert list(tree.preorder()) == recursive_preorder(tree)
        assert list(tree.preorder(stop=stop)) == recursive_preorder(tree, stop=stop)
        for h in tree.nodes:
            assert list(tree.preorder(h)) == recursive_preorder(tree, h)


def test_grown_node_ids_are_in_preorder_and_depths_are_levels():
    data, _, config = grow_setting(n=600, seed=43)
    tree = grow_max_tree(data, np.arange(data.n), config)
    assert tree.n_internal() >= 3
    walk = list(tree.preorder())
    assert [i for i, _ in walk] == sorted(tree.nodes)
    assert all(tree.node(i).depth == level for i, level in walk)


def test_a_3000_deep_chain_walks_without_recursion():
    # internal nodes 0..2999 each split into the next one (left, x1 < 0) and
    # a leaf 3001 + i (right); node 3000 is the leftmost leaf
    depth = 3000
    tree = build_tree({i: 10.0 if i < 1500 else 1.0 for i in range(depth)},
                      {i: (i + 1, depth + 1 + i) for i in range(depth)})
    # branch means are exact: 1 from node 1500 down, 10 above once it is pruned
    assert weakest_link_sequence(tree) == [1500, 0]
    lines = tree.render_text().splitlines()
    assert len(lines) == 2 * depth + 1
    assert lines[depth] == "  " * depth + "node 3000: n=10 effect=1.0000"
    assert lines[-1] == "  " + "node 3001: n=10 effect=1.0000"
    assert tree.branch_internal(0) == list(range(depth))
    pruned = tree.prune_at(1500)
    assert sorted(pruned.nodes) == list(range(1501)) + list(range(depth + 1, depth + 1501))
    assert pruned.node(1500).is_terminal and pruned.n_internal() == 1500
    data = Dataset(tree.schema, {"x1": np.array([-1.0, 1.0, -2.0, 2.0])},
                   np.array([0, 1, 0, 1]), np.zeros(4))
    reach = tree.rows_by_node(data, np.arange(4))
    np.testing.assert_array_equal(reach[depth], [0, 2])
    np.testing.assert_array_equal(reach[depth + 1], [1, 3])
    assert len(reach) == 2 * depth + 1


# ---------------------------------------------------------------- serialization


def test_json_round_trip_preserves_structure_and_predictions():
    data, _, config = grow_setting(n=600, seed=43)
    tree = grow_max_tree(data, np.arange(data.n), config)
    payload = json.loads(json.dumps(tree.to_dict(), sort_keys=True))
    assert payload["format"] == "cit-tree/1"
    again = tree_from_dict(payload)
    assert np.allclose(tree.predict(data), again.predict(data))
    assert again.n_internal() == tree.n_internal()
    assert json.loads(json.dumps(again.to_dict(), sort_keys=True)) == payload


ROUND_TRIP_SCHEMA = Schema(
    (("x", Continuous()), ("c", Categorical(("A", "B", "C", "D"))),
     ("g", Ordinal(("lo", "mid", "hi")))),
    treatment="A", outcome="Y",
)


def round_trip_data(seed: int, n: int = 240) -> Dataset:
    """Random draw whose effect moves with x, c and g by random amounts."""
    rng = np.random.default_rng(seed)
    x, c, g = rng.standard_normal(n), rng.integers(0, 4, n), rng.integers(0, 3, n)
    a = (rng.random(n) < 1 / (1 + np.exp(-0.5 * x))).astype(int)
    size = rng.uniform(0.0, 3.0, 3)
    y = x + a * (size[0] * (x > 0) + size[1] * np.isin(c, (1, 3)) + size[2] * (g >= 1))
    return Dataset(ROUND_TRIP_SCHEMA, {"x": x, "c": c, "g": g}, a,
                   y + rng.standard_normal(n))


@given(st.integers(0, 2**32 - 1), st.sampled_from(["ipw", "g", "dr"]))
def test_json_round_trip_keeps_the_bytes_routing_and_predictions(seed, estimator):
    data = round_trip_data(seed)
    config = GrowConfig.from_strings(
        estimator, "A",
        propensity=None if estimator == "g" else "1 + x + in(c,B,D)",
        outcome=None if estimator == "ipw" else "1 + A + x + c + g + A:x + A:c + A:g",
        max_depth=3, min_node=30, min_per_arm=5,
    )
    tree = grow_max_tree(data, np.arange(data.n), config)
    text = json.dumps(tree.to_dict(), sort_keys=True)
    again = tree_from_dict(json.loads(text))
    assert json.dumps(again.to_dict(), sort_keys=True) == text
    assert np.array_equal(again.route(data), tree.route(data))
    assert np.array_equal(again.predict(data), tree.predict(data))


@pytest.mark.parametrize("estimator", ["ipw", "g", "dr"])
def test_loaded_tree_has_the_grown_effects_and_predictions(estimator):
    # A node's effect is exactly the three numbers tree.json stores, so a
    # loaded node equals the grown one; arm counts are not part of it.
    data, _, config = grow_setting(n=600, seed=43, estimator=estimator)
    tree = grow_max_tree(data, np.arange(data.n), config)
    again = tree_from_dict(json.loads(json.dumps(tree.to_dict(), sort_keys=True)))
    assert sorted(again.nodes) == sorted(tree.nodes)
    for node_id, node in tree.nodes.items():
        assert again.node(node_id).effect == node.effect
    assert np.array_equal(again.predict(data), tree.predict(data))


def test_grow_config_validation():
    spec = parse_spec("1 + A", "A")
    with pytest.raises(ValueError):
        GrowConfig(estimator="dr", outcome_spec=spec)  # missing propensity
    with pytest.raises(ValueError):
        GrowConfig(estimator="g", outcome_spec=spec, min_node=5, min_per_arm=10)
    with pytest.raises(ValueError):
        GrowConfig(estimator="g", outcome_spec=spec, max_depth=0)
    with pytest.raises(ValueError):
        GrowConfig(estimator="g", outcome_spec=spec,
                   variance_method=VarianceMethod.PER_CHILD_SANDWICH)
    for propensity in ("1 + A + x1", "1 + x1 + A:x2"):
        with pytest.raises(ValueError, match="propensity spec"):
            GrowConfig(estimator="ipw", propensity_spec=parse_spec(propensity, "A"))
    cfg = GrowConfig(estimator="dr", outcome_spec=spec, propensity_spec=parse_spec("1", "A"),
                     variance_method=VarianceMethod.POOLED_SANDWICH)
    assert cfg.variance_method == VarianceMethod.INFLUENCE


def test_binomial_outcome_model_of_a_continuous_outcome_is_a_fit_error():
    data, _ = generate(SimSetting("heterogeneous", n=600, seed=3))
    config = GrowConfig.from_strings("g", "A", outcome="1 + A + x1", outcome_family="binomial")
    with pytest.raises(FitError, match="root node"):
        grow_max_tree(data, np.arange(data.n), config)


def test_grow_config_is_frozen_and_replace_revalidates():
    spec = parse_spec("1 + A", "A")
    cfg = GrowConfig(estimator="dr", outcome_spec=spec, propensity_spec=parse_spec("1", "A"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.variance_method = VarianceMethod.POOLED_SANDWICH
    assert cfg.variance_method == VarianceMethod.INFLUENCE
    with pytest.raises(ValueError):
        dataclasses.replace(GrowConfig(estimator="g", outcome_spec=spec),
                            scope=NuisanceScope.CHILD)  # keeps the pooled sandwich

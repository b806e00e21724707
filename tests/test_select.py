import json

import numpy as np
import pytest

import oracle
from efftree import estimators, select
from efftree.data import Continuous, Dataset, Schema
from efftree.estimators import (
    ESTIMATE,
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceScope,
)
from efftree.glm import FitError
from efftree.prune import DEFAULT_LAMBDA, split_complexity, weakest_link_sequence
from efftree.select import (
    bootstrap_effects,
    fit_tree,
    select_final,
    validation_statistics,
)
from efftree.search import SplitRule
from efftree.simulate import SimSetting, generate, make_config, run_experiment
from efftree.tree import GrowConfig, Tree, TreeNode, grow_max_tree
from util_trees import leaf_effect, prune_candidates


def fit_sequence(n=1000, seed=5, estimator="dr", design="heterogeneous", **overrides):
    setting = SimSetting(design, n=n, seed=seed)
    data, oracle = generate(setting)
    config = make_config(setting, estimator, **overrides)
    n_build = int(0.8 * n)
    tree = grow_max_tree(data, np.arange(n_build), config)
    candidates = prune_candidates(tree, weakest_link_sequence(tree))
    return data, np.arange(n_build, n), config, tree, candidates


def test_validation_complexity_root_only_is_zero():
    data, rows, config, tree, seq = fit_sequence(n=600, seed=7)
    root_only = seq[-1]
    assert root_only.n_internal() == 0
    stats = validation_statistics(root_only, data, rows)
    assert split_complexity(root_only, DEFAULT_LAMBDA, stats) == 0.0


def test_validation_complexity_arithmetic_once_statistic_known():
    data, rows, config, tree, seq = fit_sequence(n=1000, seed=9, estimator="g")
    one_split = seq[-2]
    assert one_split.n_internal() == 1
    stats = validation_statistics(one_split, data, rows)
    (node_id, stat), = stats.items()
    got = split_complexity(one_split, 3.84, stats)
    assert got == pytest.approx(stat - 3.84)


@pytest.mark.parametrize("scope", ["whole", "parent"])
@pytest.mark.parametrize("estimator", ["ipw", "g", "dr"])
def test_validation_statistics_match_route_and_recompute_oracle(estimator, scope):
    data, rows, config, tree, seq = fit_sequence(
        n=900, seed=11, estimator=estimator, scope=NuisanceScope(scope))
    candidate = seq[0]
    stats = validation_statistics(candidate, data, rows)
    validation = oracle.take(data, rows)
    whole_models = None
    if config.scope == NuisanceScope.WHOLE:
        whole_models = oracle.fit_on(validation, np.arange(validation.n), config)

    # oracle: walk the tree, routing a copy of the validation rows and
    # recomputing each internal statistic independently with the scalar
    # split contrast
    def assign(node_id, rows, out):
        node = candidate.node(node_id)
        if node.is_terminal:
            return
        left = node.rule.goes_left(validation, rows)
        out[node_id] = (rows, left)
        assign(node.left, rows[left], out)
        assign(node.right, rows[~left], out)

    split_rows = {}
    assign(candidate.root_id, np.arange(validation.n), split_rows)
    assert set(split_rows) == set(stats)
    for node_id, (node_rows, left) in split_rows.items():
        if left.all() or not left.any():
            assert stats[node_id] == 0.0
            continue
        try:
            contrast = oracle.split_contrast(validation, node_rows, left, config,
                                             min_per_arm=1, shared=whole_models)
            expected = contrast.statistic
        except InadmissibleSplitError:
            expected = 0.0
        assert stats[node_id] == pytest.approx(expected, rel=1e-8)


def test_validation_scoring_lets_configuration_errors_through(monkeypatch):
    data, rows, config, tree, seq = fit_sequence(n=600, seed=7)
    assert tree.n_internal() >= 1

    def broken_fit(*args, **kwargs):
        raise ValueError("bad configuration")

    monkeypatch.setattr(estimators, "fit_nuisance", broken_fit)
    with pytest.raises(ValueError, match="bad configuration"):
        validation_statistics(tree, data, rows)


def test_incomputable_node_counts_in_penalty():
    data, rows, config, tree, seq = fit_sequence(n=800, seed=13)
    candidate = seq[0]
    if candidate.n_internal() < 2:
        pytest.skip("tree too small for this check")
    stats = validation_statistics(candidate, data, rows)
    complexity = split_complexity(candidate, DEFAULT_LAMBDA, stats)
    assert complexity == pytest.approx(sum(stats.values()) - DEFAULT_LAMBDA * len(stats))
    assert len(stats) == candidate.n_internal()


def test_select_final_single_candidate():
    data, rows, config, tree, seq = fit_sequence(n=400, seed=15)
    root_only = seq[-1]
    final, trace = select_final(root_only, data, rows, DEFAULT_LAMBDA)
    assert final is root_only
    assert trace.chosen == 0


def test_select_final_rejects_a_non_finite_or_negative_lambda():
    data, rows, config, tree, seq = fit_sequence(n=400, seed=15)
    for lam in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="lambda"):
            select_final(tree, data, rows, lam)


@pytest.mark.parametrize("lam", [float("nan"), -1.0])
def test_a_bad_lambda_is_refused_before_any_growth(lam, monkeypatch):
    grown = []
    monkeypatch.setattr(select, "grow_max_tree", lambda *args: grown.append(args))
    setting = SimSetting("heterogeneous", n=300, seed=5)
    config = make_config(setting, "dr")
    data, _ = generate(setting)
    with pytest.raises(ValueError, match="lambda"):
        fit_tree(data, np.arange(240), np.arange(240, 300), config, lam)
    with pytest.raises(ValueError, match="lambda"):
        run_experiment(setting, config, replications=1, seed=5, lam=lam, threads=1)
    assert grown == []


def test_select_final_tie_breaks_toward_smaller_tree():
    data, rows, config, tree, seq = fit_sequence(n=1000, seed=17, estimator="g",
                                                       design="homogeneous")
    # homogeneous truth: all candidates should collapse to the root-only tree
    final, trace = select_final(tree, data, rows, DEFAULT_LAMBDA)
    assert final.n_internal() == 0
    best = max(trace.complexities)
    ties = [i for i, c in enumerate(trace.complexities) if c == best]
    assert trace.chosen == min(ties, key=lambda i: trace.n_internal[i])


@pytest.mark.parametrize("lam", [0.0, DEFAULT_LAMBDA])
def test_select_final_returns_the_max_tree_or_builds_only_its_chosen_prune(lam):
    # scored on its own build rows, the max tree wins with no penalty and a
    # middle candidate wins with the default one
    data, rows, config, tree, seq = fit_sequence(n=900, seed=19)
    before = json.dumps(tree.to_dict(), sort_keys=True)
    order = weakest_link_sequence(tree)
    final, trace = select_final(tree, data, np.arange(720), lam)
    if lam == 0.0:
        assert trace.chosen == 0
        assert final is tree
    else:
        assert 0 < trace.chosen < len(order)
        assert sorted(final.nodes) == sorted(tree.prune_at(*order[:trace.chosen]).nodes)
    assert json.dumps(tree.to_dict(), sort_keys=True) == before
    assert len(trace.complexities) == len(order) + 1
    assert trace.n_internal[trace.chosen] == final.n_internal()


def test_select_final_complexities_match_split_complexity():
    data, rows, config, tree, seq = fit_sequence(n=900, seed=19)
    assert len(seq) >= 3
    final, trace = select_final(tree, data, rows, DEFAULT_LAMBDA)
    stats = validation_statistics(seq[0], data, rows)
    for k, candidate in enumerate(seq):
        assert trace.complexities[k] == split_complexity(candidate, DEFAULT_LAMBDA, stats)
        assert trace.n_internal[k] == candidate.n_internal()


def test_select_final_heterogeneous_keeps_true_split():
    data, rows, config, tree, seq = fit_sequence(n=1000, seed=21, estimator="g")
    final, _ = select_final(tree, data, rows, DEFAULT_LAMBDA)
    assert final.n_internal() >= 1
    assert final.node(final.root_id).rule.column == "x4"


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_single_replicate_collapses_interval():
    data, rows, config, tree, seq = fit_sequence(n=500, seed=23, estimator="g")
    final = seq[-2] if len(seq) > 1 else seq[-1]
    out = bootstrap_effects(final, data, B=1, level=0.95, seed=3)
    for iv in out:
        assert iv.lower == pytest.approx(iv.upper)
        assert iv.n_replicates == 1


def test_bootstrap_default_is_1000():
    import inspect

    sig = inspect.signature(bootstrap_effects)
    assert sig.parameters["B"].default == 1000


def test_bootstrap_interval_contains_point_estimate():
    data, rows, config, tree, seq = fit_sequence(n=800, seed=25, estimator="g")
    final = seq[-2] if len(seq) > 1 else seq[-1]
    out = bootstrap_effects(final, data, B=60, level=0.95, seed=11)
    for iv in out:
        assert iv.lower - 1e-9 <= iv.point <= iv.upper + 1e-9


def test_bootstrap_deterministic_given_seed():
    data, rows, config, tree, seq = fit_sequence(n=500, seed=27, estimator="g")
    final = seq[-2] if len(seq) > 1 else seq[-1]
    a = bootstrap_effects(final, data, B=25, seed=5)
    b = bootstrap_effects(final, data, B=25, seed=5)
    assert [(iv.lower, iv.upper) for iv in a] == [(iv.lower, iv.upper) for iv in b]


def test_bootstrap_validates_arguments():
    data, rows, config, tree, seq = fit_sequence(n=400, seed=29, estimator="g")
    with pytest.raises(ValueError):
        bootstrap_effects(seq[-1], data, B=0)
    with pytest.raises(ValueError):
        bootstrap_effects(seq[-1], data, B=10, level=1.5)


def test_bootstrap_coverage_of_true_effects():
    # fixed split at x4 > 0 on heterogeneous data: true subgroup effects are
    # 2 (left, x4 <= 0 routed right of the rule below) and 5
    from efftree.search import SplitRule
    from efftree.tree import Tree, TreeNode

    setting = SimSetting("heterogeneous", n=2000, seed=0)
    config = make_config(setting, "g")

    def fixed_tree(data, eff_l, eff_r):
        n_l = int((data.column("x4") < 0).sum())
        nodes = {
            0: TreeNode(id=0, depth=0, n=data.n, effect=leaf_effect(3.5),
                        rule=SplitRule("x4", 3, "threshold", threshold=0.0),
                        statistic=50.0, left=1, right=2),
            1: TreeNode(id=1, depth=1, n=n_l, effect=leaf_effect(eff_l)),
            2: TreeNode(id=2, depth=1, n=data.n - n_l, effect=leaf_effect(eff_r)),
        }
        return Tree(nodes, 0, config, data.schema)

    outer = 200
    covered = {1: 0, 2: 0}
    truth = {1: 2.0, 2: 5.0}
    for rep in range(outer):
        data, _ = generate(SimSetting("heterogeneous", 2000, seed=700000 + rep))
        tree = fixed_tree(data, 2.0, 5.0)
        intervals = bootstrap_effects(tree, data, B=150, level=0.95, seed=rep)
        for iv in intervals:
            if iv.lower <= truth[iv.node_id] <= iv.upper:
                covered[iv.node_id] += 1
    for node_id in (1, 2):
        coverage = covered[node_id] / outer
        print(f"bootstrap coverage terminal {node_id}: {coverage:.3f}")
        assert 0.90 <= coverage <= 0.99


# Reference bootstrap: each replicate copies its resampled rows into a new
# dataset, routes that copy down the tree and fits on the copy's rows.
def take_based_bootstrap(tree, data, B, level, seed, config):
    terminal_ids = tree.terminal_ids()
    draws = {t: [] for t in terminal_ids}
    n_dropped = 0
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        effects = None
        for _ in range(10):
            idx = rng.integers(0, data.n, size=data.n)
            effects = take_based_terminal_effects(tree, oracle.take(data, idx), config, terminal_ids)
            if effects is not None:
                break
        if effects is None:
            n_dropped += 1
            continue
        for t in terminal_ids:
            draws[t].append(effects[t])
    alpha = (1.0 - level) / 2.0
    return [
        (t, float(np.quantile(draws[t], alpha)), float(np.quantile(draws[t], 1.0 - alpha)),
         len(draws[t]), n_dropped)
        for t in terminal_ids
    ]


def take_based_terminal_effects(tree, sample, config, terminal_ids):
    reach = tree.rows_by_node(sample, np.arange(sample.n))
    whole_models = None
    if config.scope == NuisanceScope.WHOLE:
        try:
            whole_models = oracle.fit_on(sample, np.arange(sample.n), config)
        except FitError:
            return None
    effects = {}
    for t in terminal_ids:
        rows = reach[t]
        if len(rows) == 0:
            return None
        if whole_models is not None:
            models = whole_models
        else:
            try:
                models = oracle.fit_on(sample, rows, config)
            except FitError:
                return None
        effect = ESTIMATE[config.estimator](sample, rows, models)
        treated = sample.treatment[rows]
        if config.estimator in (EstimatorKind.IPW, EstimatorKind.DR) and \
                (treated.all() or not treated.any()):
            return None
        effects[t] = effect.effect
    return effects


def assert_bootstrap_matches_take_based(tree, data, B, seed, config):
    got = bootstrap_effects(tree, data, B=B, level=0.9, seed=seed)
    expected = take_based_bootstrap(tree, data, B, 0.9, seed, config)
    assert [(iv.node_id, iv.lower, iv.upper, iv.n_replicates, iv.n_dropped)
            for iv in got] == expected
    return got


def test_bootstrap_matches_take_based_reference_dr_binomial_parent_scope():
    data, _ = generate(SimSetting("binary-mixed-heterogeneous", 2000, seed=31))
    config = GrowConfig.from_strings(
        "dr", "A", propensity="1 + x2 + x3 + in(x6,B,C)",
        outcome="1 + A + x2 + A:in(x4,B,D)", outcome_family="binomial",
        variance_method="influence", scope="parent", min_node=100, max_depth=2,
    )
    tree = grow_max_tree(data, np.arange(data.n), config)
    assert len(tree.terminal_ids()) >= 2
    assert_bootstrap_matches_take_based(tree, data, B=20, seed=3, config=config)


def test_bootstrap_matches_take_based_reference_g_whole_scope():
    data, _ = generate(SimSetting("heterogeneous", 1000, seed=33))
    config = GrowConfig.from_strings(
        "g", "A", outcome="1 + A + lt(x1,0) + exp(x2) + A:gt(x4,0) + cube(x5)",
        scope="whole", max_depth=2,
    )
    tree = grow_max_tree(data, np.arange(data.n), config)
    assert len(tree.terminal_ids()) >= 2
    assert_bootstrap_matches_take_based(tree, data, B=20, seed=4, config=config)


def test_bootstrap_matches_take_based_reference_with_redraws_and_drops():
    # Two 2-row terminals, each with one treated and one control row: a
    # resample keeps both arms of both only about 16% of the time, so
    # replicates are redrawn and some are dropped after ten tries.
    n = 200
    rng = np.random.default_rng(35)
    A = rng.integers(0, 2, n)
    A[-4:] = [1, 0, 1, 0]
    schema = Schema((("x1", Continuous()),), treatment="A", outcome="Y")
    data = Dataset(schema, {"x1": np.arange(n, dtype=float)}, A, rng.standard_normal(n) + A)
    config = GrowConfig.from_strings("ipw", "A", propensity="1", scope="parent",
                                     min_node=2, min_per_arm=1)

    def node(i, depth, rows, **split):
        return TreeNode(id=i, depth=depth, n=rows, effect=leaf_effect(float(i)), **split)

    nodes = {
        0: node(0, 0, n, rule=SplitRule("x1", 0, "threshold", threshold=n - 4.5),
                statistic=1.0, left=1, right=2),
        1: node(1, 1, n - 4),
        2: node(2, 1, 4, rule=SplitRule("x1", 0, "threshold", threshold=n - 2.5),
                statistic=1.0, left=3, right=4),
        3: node(3, 2, 2),
        4: node(4, 2, 2),
    }
    tree = Tree(nodes, 0, config, schema)
    got = assert_bootstrap_matches_take_based(tree, data, B=40, seed=6, config=config)
    assert 0 < got[0].n_dropped < 40

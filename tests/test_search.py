import dataclasses

import numpy as np
import pytest

import oracle
from efftree import search
from efftree.data import Categorical, Continuous, Dataset, Ordinal, Schema
from efftree.estimators import (
    EstimatorKind,
    InadmissibleSplitError,
    NuisanceScope,
    VarianceMethod,
    shared_models,
    subgroup_terms,
)
from efftree.glm import parse_spec
from efftree.search import (
    _level_sums,
    candidate_statistics,
    find_best_split,
    iter_candidate_blocks,
    node_tables,
    split_contrast,
)
from efftree.tree import GrowConfig
from oracle import enumerate_splits


def mixed_data(n=260, seed=61, binomial=False):
    rng = np.random.default_rng(seed)
    schema = Schema(
        (
            ("x1", Continuous()),
            ("x2", Continuous()),
            ("c", Categorical(("A", "B", "C", "D"))),
            ("g", Ordinal(("lo", "mid", "hi"))),
        ),
        treatment="A",
        outcome="Y",
    )
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    c = rng.integers(0, 4, n)
    g = rng.integers(0, 3, n)
    logit = 0.5 * x1 - 0.4 * x2
    A = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    Y = 1 + x1 + (c == 2) + 2 * A + 1.5 * A * (x2 > 0) + rng.standard_normal(n)
    if binomial:
        Y = (rng.random(n) < 1 / (1 + np.exp(-(Y - 3) / 2))).astype(float)
    data = Dataset(schema, {"x1": x1, "x2": x2, "c": c, "g": g}, A, Y)
    return data


CASES = [
    (EstimatorKind.IPW, VarianceMethod.POOLED_SANDWICH),
    (EstimatorKind.IPW, VarianceMethod.INFLUENCE),
    (EstimatorKind.GFORMULA, VarianceMethod.POOLED_SANDWICH),
    (EstimatorKind.GFORMULA, VarianceMethod.INFLUENCE),
    (EstimatorKind.DR, VarianceMethod.INFLUENCE),
]

# the batched-vs-scalar comparison also covers the binomial outcome family,
# whose g-formula sandwich gradient and DR contrast differ from the gaussian
BATCHED_CASES = [pytest.param(kind, variance, "gaussian", id=f"{kind.value}-{variance.value}")
                 for kind, variance in CASES] + [
    pytest.param(EstimatorKind.GFORMULA, VarianceMethod.POOLED_SANDWICH, "binomial",
                 id="g-pooled-sandwich-binomial"),
    pytest.param(EstimatorKind.DR, VarianceMethod.INFLUENCE, "binomial",
                 id="dr-influence-binomial"),
]

P_SPEC = parse_spec("1 + x1 + x2", "A")
O_SPEC = parse_spec("1 + x1 + A + A:x2 + c", "A")


def parent_config(kind, variance, family="gaussian"):
    return GrowConfig(kind, propensity_spec=P_SPEC, outcome_spec=O_SPEC, scope=NuisanceScope.PARENT,
                      variance_method=variance, min_node=20, min_per_arm=5, outcome_family=family)


@pytest.mark.parametrize("kind,variance,family", BATCHED_CASES)
def test_batched_statistics_match_scalar_split_contrast(kind, variance, family):
    # the kernel against the scalar oracle, in whole scope (one fit on all
    # of the data, node rows a subset) and in parent scope (one fit on the
    # node's rows)
    data = mixed_data(binomial=family == "binomial")
    parent = parent_config(kind, variance, family)
    for config, rows in ((dataclasses.replace(parent, scope=NuisanceScope.WHOLE),
                          np.flatnonzero(data.column("g") != 1)),
                         (parent, np.arange(data.n))):
        models = oracle.fit_on(data, np.arange(data.n) if config.scope == NuisanceScope.WHOLE
                               else rows, config)
        terms = oracle.terms_of(kind, data, rows, models)
        tables = node_tables(config, models, terms)
        shared = shared_models(data, np.arange(data.n), config)

        checked = 0
        for block in iter_candidate_blocks(data, rows):
            left_agg = block.aggregate(tables.packed)
            stats, adm, t_hats, variances = candidate_statistics(tables, left_agg, 20, 5)
            # sample a handful of admissible candidates per covariate
            idx = np.nonzero(adm)[0]
            for j in idx[:: max(1, len(idx) // 5)]:
                rule = block.make_rule(int(j))
                left = rule.goes_left(data, rows)
                contrast = oracle.split_contrast(data, rows, left, config, min_per_arm=5,
                                                 shared=shared)
                assert stats[j] == pytest.approx(contrast.statistic, rel=1e-8), rule.describe()
                assert t_hats[j] == pytest.approx(contrast.t_hat, rel=1e-8)
                assert variances[j] == pytest.approx(contrast.variance, rel=1e-8)
                checked += 1
        assert checked >= 10, config.scope


@pytest.mark.parametrize("kind,variance,family", [
    pytest.param(EstimatorKind.IPW, VarianceMethod.POOLED_SANDWICH, "gaussian", id="ipw-sandwich"),
    pytest.param(EstimatorKind.GFORMULA, VarianceMethod.POOLED_SANDWICH, "gaussian",
                 id="g-sandwich-gaussian"),
    pytest.param(EstimatorKind.GFORMULA, VarianceMethod.POOLED_SANDWICH, "binomial",
                 id="g-sandwich-binomial"),
    pytest.param(EstimatorKind.DR, VarianceMethod.INFLUENCE, "gaussian", id="dr-influence"),
])
def test_totals_row_is_the_column_sums_of_packed(kind, variance, family):
    # every right-child sum is totals - left, so each total must be its
    # column's own sum, bit for bit
    data = mixed_data(binomial=family == "binomial")
    config = parent_config(kind, variance, family)
    rows = np.arange(data.n)
    models = oracle.fit_on(data, rows, config)
    terms = oracle.terms_of(kind, data, rows, models)
    tables = node_tables(config, models, terms)
    column_sums = np.array([np.ascontiguousarray(col).sum() for col in tables.packed.T])
    assert tables.totals.shape == column_sums.shape
    assert tables.totals.tobytes() == column_sums.tobytes()
    assert tables.totals[0] == len(rows)
    assert tables.totals[3] / tables.totals[0] == np.mean(terms.delta**2)


def oracle_partitions(data):
    """(node rows, left mask) pairs: sampled rules on all rows and on a
    node's rows given out of order, and splits with an empty child arm."""
    rng = np.random.default_rng(73)
    rows = np.arange(data.n)
    node = rng.permutation(np.flatnonzero(data.column("c") != 3))
    pairs = []
    for subset in (rows, node):
        rules = enumerate_splits(data, subset)
        for rule in rules[:: max(1, len(rules) // 8)]:
            left = rule.goes_left(data, subset)
            pairs.append((subset, left))
    treated = np.flatnonzero(data.treatment == 1)
    pairs.append((rows, np.isin(rows, treated[:3])))  # left has no control row
    pairs.append((node, data.treatment[node] == 0))
    return pairs


@pytest.mark.parametrize("family", ["gaussian", "binomial"])
@pytest.mark.parametrize("scope", [NuisanceScope.WHOLE, NuisanceScope.PARENT],
                         ids=lambda v: v.value)
@pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda v: v.value)
def test_split_contrast_matches_scalar_oracle(kind, scope, family):
    data = mixed_data(binomial=family == "binomial")
    variances = [None] if kind == EstimatorKind.DR else [None, VarianceMethod.INFLUENCE]
    scored = refused = 0
    for variance in variances:
        config = dataclasses.replace(parent_config(kind, variance, family), scope=scope)
        shared = shared_models(data, np.arange(data.n), config)
        for rows, left in oracle_partitions(data):
            try:
                expected = oracle.split_contrast(data, rows, left, config, shared=shared)
            except InadmissibleSplitError:
                with pytest.raises(InadmissibleSplitError):
                    split_contrast(data, rows, left, config, shared=shared)
                refused += 1
                continue
            got = split_contrast(data, rows, left, config, shared=shared)
            assert got.t_hat == pytest.approx(expected.t_hat, rel=1e-8)
            assert got.variance == pytest.approx(expected.variance, rel=1e-8)
            assert got.statistic == pytest.approx(expected.statistic, rel=1e-8)
            scored += 1
    assert scored >= 10 * len(variances)
    assert refused >= 2 * len(variances)


@pytest.mark.parametrize("kind,variance", CASES, ids=lambda v: getattr(v, "value", v))
def test_best_split_is_argmax_of_scalar_evaluation(kind, variance):
    data = mixed_data(seed=67)
    rows = np.arange(data.n)
    config = parent_config(kind, variance)
    models = oracle.fit_on(data, rows, config)
    terms = oracle.terms_of(kind, data, rows, models)
    best = find_best_split(data, rows, config, node_tables(config, models, terms))
    assert best is not None

    top = -np.inf
    for rule in enumerate_splits(data, rows):
        left = rule.goes_left(data, rows)
        if min(left.sum(), (~left).sum()) < 20:
            continue
        try:
            contrast = oracle.split_contrast(data, rows, left, config, min_per_arm=5)
        except InadmissibleSplitError:
            continue
        top = max(top, contrast.statistic)
    assert best.statistic == pytest.approx(top, rel=1e-8)


def test_child_scope_search_uses_per_child_fits():
    data = mixed_data(n=150, seed=71)
    rows = np.arange(data.n)
    config = GrowConfig(EstimatorKind.IPW, propensity_spec=parse_spec("1 + x1", "A"),
                        scope=NuisanceScope.CHILD,
                        variance_method=VarianceMethod.PER_CHILD_SANDWICH,
                        min_node=40, min_per_arm=8)
    best = find_best_split(data, rows, config, None)
    # per-child refits may fail on small children; when a split is found its
    # statistic must match the scalar child-scope evaluation
    if best is None:
        pytest.skip("no admissible child-scope split on this fixture")
    left = best.rule.goes_left(data, rows)
    contrast = split_contrast(data, rows, left, config, min_per_arm=8)
    assert best.statistic == pytest.approx(contrast.statistic, rel=1e-10)


def test_child_scope_search_scores_each_candidate_partition_once(monkeypatch):
    # one split_contrast per candidate whose children reach min_node, and
    # none more for the winner, which keeps its scan statistic
    data = mixed_data(seed=71)
    rows = np.arange(data.n)
    config = GrowConfig(EstimatorKind.IPW, propensity_spec=parse_spec("1 + x1", "A"),
                        scope=NuisanceScope.CHILD,
                        variance_method=VarianceMethod.PER_CHILD_SANDWICH,
                        min_node=40, min_per_arm=8)
    calls = []
    scorer = search.split_contrast
    monkeypatch.setattr(search, "split_contrast",
                        lambda *args, **kwargs: calls.append(1) or scorer(*args, **kwargs))
    best = find_best_split(data, rows, config, None)
    assert best is not None
    sizes = [rule.goes_left(data, rows).sum() for rule in enumerate_splits(data, rows)]
    assert len(calls) == sum(1 for n_l in sizes if 40 <= n_l <= data.n - 40)
    left = best.rule.goes_left(data, rows)
    assert np.array_equal(best.left_local, left)
    assert best.statistic == scorer(data, rows, left, config, min_per_arm=8).statistic


def test_variance_admissible_refuses_the_floor_and_non_finite_variances():
    scale, n = 2.5, 40
    floor = search.variance_floor(scale, n)
    above = np.nextafter(floor, np.inf)
    variances = np.array([floor, above, np.nan, np.inf, -np.inf, 0.0, 1.0])
    assert search.variance_admissible(variances, scale, n).tolist() == [
        False, True, False, False, False, False, True]
    assert not search.variance_admissible(floor, scale, n)
    assert search.variance_admissible(float(above), scale, n)
    for variance in (np.nan, np.inf, -np.inf):
        assert not search.variance_admissible(variance, scale, n)
    with pytest.raises(InadmissibleSplitError):
        search._checked_variance(floor, scale, n)
    assert search._checked_variance(float(above), scale, n) == above


@pytest.mark.parametrize("scope,kind,variance", [
    (NuisanceScope.PARENT, EstimatorKind.IPW, VarianceMethod.POOLED_SANDWICH),
    (NuisanceScope.CHILD, EstimatorKind.IPW, VarianceMethod.PER_CHILD_SANDWICH),
    (NuisanceScope.CHILD, EstimatorKind.GFORMULA, VarianceMethod.INFLUENCE),
], ids=["parent-ipw", "child-ipw-per-child", "child-g-influence"])
def test_every_scope_decides_admissibility_with_variance_admissible(scope, kind, variance,
                                                                    monkeypatch):
    data = mixed_data(seed=71)
    rows = np.arange(data.n)
    config = GrowConfig(kind, propensity_spec=P_SPEC, outcome_spec=O_SPEC, scope=scope,
                        variance_method=variance, min_node=40, min_per_arm=8)
    tables = None
    if scope != NuisanceScope.CHILD:
        tables = node_tables(config, *subgroup_terms(data, rows, config))
    calls = []
    admissible = search.variance_admissible
    monkeypatch.setattr(search, "variance_admissible",
                        lambda *args: calls.append(1) or admissible(*args))
    assert find_best_split(data, rows, config, tables) is not None
    assert calls


def test_constant_continuous_covariate_yields_no_candidates():
    data = mixed_data()
    data = Dataset(data.schema, {**data.covariates, "x1": np.full(data.n, 0.5)},
                   data.treatment, data.outcome)
    rules = enumerate_splits(data, np.arange(data.n))
    assert {rule.column for rule in rules} == {"x2", "c", "g"}


@pytest.mark.parametrize("left,right", [(["A"], ["A"]), ([], ["A", "B"]), (["A", "B"], []),
                                        (["A", "A"], ["B"])],
                         ids=["sides-share-a-level", "empty-left", "empty-right", "repeated-level"])
def test_subset_rule_from_dict_rejects_malformed_sides(left, right):
    schema = mixed_data(n=10).schema
    payload = {"column": "c", "column_index": 2, "kind": "subset",
               "left_levels": left, "right_levels": right}
    with pytest.raises(ValueError):
        search.SplitRule.from_dict(payload, schema)
    payload.update(left_levels=["A", "C"], right_levels=["B"])
    rule = search.SplitRule.from_dict(payload, schema)
    assert (rule.left_levels, rule.right_levels) == (("A", "C"), ("B",))


@pytest.mark.parametrize("n,width", [(1, 1), (1, 46), (300, 1), (300, 46)])
def test_level_sums_equal_add_at_bitwise(n, width):
    rng = np.random.default_rng(n + width)
    n_levels = 7
    values = rng.choice([0, 2, 3, 6], size=n)  # levels 1, 4 and 5 absent
    mat = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))
    expected = np.zeros((n_levels, width))
    np.add.at(expected, values, mat)
    got = _level_sums(values, mat, n_levels)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("variance", [None, *VarianceMethod], ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("scope", list(NuisanceScope), ids=lambda v: v.value)
@pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda v: v.value)
def test_grow_config_alone_decides_which_combinations_are_valid(kind, scope, variance):
    # Every (estimator, scope, variance) is either refused by GrowConfig or
    # scored by split_contrast without a ValueError, as the scalar oracle
    # scores it.
    try:
        config = GrowConfig(kind, propensity_spec=P_SPEC, outcome_spec=O_SPEC, scope=scope,
                            variance_method=variance, min_node=20, min_per_arm=5)
    except ValueError:
        return
    data = mixed_data()
    rows = np.arange(data.n)
    left = data.column("x1") < 0
    shared = shared_models(data, rows, config)
    contrast = split_contrast(data, rows, left, config, shared=shared)
    expected = oracle.split_contrast(data, rows, left, config, shared=shared)
    assert contrast.statistic == pytest.approx(expected.statistic, rel=1e-8)
    assert contrast.t_hat == pytest.approx(expected.t_hat, rel=1e-8)
    assert contrast.variance == pytest.approx(expected.variance, rel=1e-8)

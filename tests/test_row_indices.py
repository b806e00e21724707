"""Row-index subgroups: fitting and estimating on ``(data, idx)`` equals
doing so on the copied rows ``(take(data, idx), arange(len(idx)))``, exactly,
for any index order and any duplicates. This is what lets the bootstrap
estimate a replicate on its resampled indices without copying the data.
Likewise routing and selection on ascending validation rows ``(data, rows)``
equal routing and selection on a copy of those rows, which is what lets
selection score the held-out rows of the dataset a tree was grown on."""

import json
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from efftree.data import Categorical, Continuous, Dataset, Ordinal, Schema, SubgroupMask
from efftree.estimators import EstimatorKind, NuisanceModels, NuisanceScope, node_effect
from efftree.glm import Design, FitError, fit_logistic, fit_ols, parse_spec
from efftree.select import select_final, validation_statistics
from efftree.tree import GrowConfig, Tree, grow_max_tree
from oracle import take, terms_of

N = 60


def mixed_data():
    rng = np.random.default_rng(91)
    schema = Schema(
        (("x1", Continuous()), ("x2", Continuous()),
         ("c", Categorical(("A", "B", "C", "D"))), ("g", Ordinal(("lo", "mid", "hi")))),
        treatment="A", outcome="Y",
    )
    covariates = {"x1": rng.standard_normal(N), "x2": rng.standard_normal(N),
                  "c": rng.integers(0, 4, N), "g": rng.integers(0, 3, N)}
    return Dataset(schema, covariates, rng.integers(0, 2, N), rng.standard_normal(N))


DATA = mixed_data()
OUTCOME_SPEC = parse_spec(
    "1 + A + x1 + c + g + exp(x2) + cube(x1) + gt(x2,0.1) + in(c,B,D)"
    " + A:x2 + A:exp(x1) + A:cube(x2) + A:in(c,A,C)", "A")
PROPENSITY_SPEC = parse_spec("1 + x1 + exp(x2) + in(c,B,D)", "A")
MODELS = NuisanceModels(
    propensity=fit_logistic(Design(DATA, np.arange(N), PROPENSITY_SPEC), DATA.treatment),
    outcome=fit_ols(Design(DATA, np.arange(N), OUTCOME_SPEC), DATA.outcome),
)

row_indices = st.lists(st.integers(0, N - 1), min_size=30, max_size=3 * N).map(
    lambda idx: np.array(idx, dtype=np.intp))


def on_rows_and_on_copy(fn, idx):
    """``fn(data, rows)`` on the indexed rows and on a copy of them; a
    FitError counts as a result, so both sides must raise it alike."""
    results = []
    for data, rows in ((DATA, idx), (take(DATA, idx), np.arange(len(idx)))):
        try:
            results.append(fn(data, rows))
        except FitError as err:
            results.append(("FitError", str(err)))
    return results


@given(row_indices)
def test_fit_ols_on_rows_equals_fit_on_copied_rows(idx):
    a, b = on_rows_and_on_copy(lambda d, r: fit_ols(Design(d, r, OUTCOME_SPEC), d.outcome[r]), idx)
    if isinstance(a, tuple):
        assert a == b
        return
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(a.kept, b.kept)
    assert np.array_equal(a.dropped, b.dropped)


@given(row_indices)
def test_fit_logistic_on_rows_equals_fit_on_copied_rows(idx):
    a, b = on_rows_and_on_copy(lambda d, r: fit_logistic(Design(d, r, PROPENSITY_SPEC), d.treatment[r]), idx)
    if isinstance(a, tuple):
        assert a == b
        return
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.iterations == b.iterations


@given(row_indices, st.sampled_from(list(EstimatorKind)))
def test_contributions_on_rows_equal_contributions_on_copied_rows(idx, kind):
    a, b = on_rows_and_on_copy(lambda d, r: terms_of(kind, d, r, MODELS), idx)
    for field in ("A", "Y", "e", "g1", "g0", "zdiff", "d1", "d0", "delta"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None and y is None) or np.array_equal(x, y), field
    assert node_effect(a) == node_effect(b)


# ---------------------------------------------------------------- selection

M = 600
LEVEL_D = 3


def selection_data():
    """Effect moderated by c and x1; level D of c is left out of growth, so
    every split on c meets it unseen in the validation rows."""
    rng = np.random.default_rng(93)
    schema = Schema((("x1", Continuous()), ("x2", Continuous()),
                     ("c", Categorical(("A", "B", "C", "D")))), treatment="A", outcome="Y")
    x1, x2, c = rng.standard_normal(M), rng.standard_normal(M), rng.integers(0, 4, M)
    a = (rng.random(M) < 1 / (1 + np.exp(-0.5 * x1))).astype(int)
    y = x2 + a * (1 + 3 * np.isin(c, (0, 2)) + 2 * (x1 > 0)) + rng.standard_normal(M)
    return Dataset(schema, {"x1": x1, "x2": x2, "c": c}, a, y)


SEL = selection_data()


@lru_cache(maxsize=None)
def grown(estimator, scope):
    """Config and max tree of depth 3 grown on the rows without level D."""
    config = GrowConfig.from_strings(
        estimator, "A",
        propensity=None if estimator == "g" else "1 + x1 + in(c,B,D)",
        outcome=None if estimator == "ipw" else "1 + A + x1 + x2 + c + A:x1",
        scope=scope, max_depth=3, min_node=30, min_per_arm=5,
    )
    tree = grow_max_tree(SEL, np.flatnonzero(SEL.column("c") != LEVEL_D), config)
    return config, tree


# The parent-scope DR tree of ``grown`` as ``grow_max_tree`` gave it when it
# took a ``SubgroupMask`` of the same rows: each node's size, rule and effect.
MASK_GROWN_DR_TREE = [
    (458, {"column": "c", "kind": "subset", "left_levels": ["B"], "right_levels": ["A", "C"]},
     4.02348895534228),
    (158, {"column": "x1", "kind": "threshold", "threshold": -0.04212469394360442},
     1.9596600377584037),
    (78, {"column": "x2", "kind": "threshold", "threshold": 0.2014921701277711},
     0.8150486932845772),
    (48, None, 1.1237005415518688),
    (30, None, 0.16150586812948076),
    (80, {"column": "x2", "kind": "threshold", "threshold": -0.18101917314521687},
     3.036564444348938),
    (31, None, 2.1099614609634476),
    (49, None, 3.3062211033152864),
    (300, {"column": "x1", "kind": "threshold", "threshold": -0.0037725129127441255},
     5.097889542603826),
    (142, {"column": "x1", "kind": "threshold", "threshold": -0.6697915356453511},
     4.203059752167336),
    (71, None, 4.472694122151204),
    (71, None, 3.995853508799376),
    (158, {"column": "x1", "kind": "threshold", "threshold": 0.5434185067015997},
     5.819459475916015),
    (73, None, 5.527726797934856),
    (85, None, 6.1228995628210745),
]


def test_grow_max_tree_takes_row_indices_and_refuses_a_mask():
    config, tree = grown("dr", "parent")
    mask = SEL.column("c") != LEVEL_D
    for not_rows in (mask, SubgroupMask(mask)):
        with pytest.raises(TypeError, match="integer index array"):
            grow_max_tree(SEL, not_rows, config)
    assert sorted(tree.nodes) == list(range(len(MASK_GROWN_DR_TREE)))
    for node_id, (n, rule, effect) in enumerate(MASK_GROWN_DR_TREE):
        nd = tree.node(node_id)
        assert nd.n == n
        got = nd.rule.to_dict() if nd.rule is not None else None
        if got is not None:
            del got["column_index"]
        assert got == rule
        assert nd.effect.effect == pytest.approx(effect, rel=1e-9)


# Ascending validation rows of every density, down to a few rows, where
# children empty out and fits fail.
validation_rows = st.tuples(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0)).map(
    lambda t: np.flatnonzero(np.random.default_rng(t[0]).random(M) < t[1]))


def assert_selection_on_rows_equals_selection_on_copy(tree, rows):
    copy, copy_rows = take(SEL, rows), np.arange(len(rows))
    assert (validation_statistics(tree, SEL, rows)
            == validation_statistics(tree, copy, copy_rows))
    final, trace = select_final(tree, SEL, rows, 3.84)
    final_copy, trace_copy = select_final(tree, copy, copy_rows, 3.84)
    assert trace.to_dict() == trace_copy.to_dict()
    assert (json.dumps(final.to_dict(), sort_keys=True)
            == json.dumps(final_copy.to_dict(), sort_keys=True))


@pytest.mark.parametrize("scope", ["whole", "parent"])
@pytest.mark.parametrize("estimator", ["ipw", "g", "dr"])
@given(validation_rows)
@example(np.arange(M))  # every row in order, as `efftree fit --train-frac 1` selects
@example(np.arange(480, M))
def test_selection_on_rows_equals_selection_on_copied_rows(estimator, scope, rows):
    config, tree = grown(estimator, scope)
    assert_selection_on_rows_equals_selection_on_copy(tree, rows)


def test_child_scope_selection_on_rows_equals_selection_on_copied_rows():
    # Child-scope growth is slow, so the parent-scope tree is given a
    # child-scope config: selection reads the scope from the tree's config.
    config, grown_tree = grown("dr", "parent")
    child_tree = Tree(grown_tree.nodes, grown_tree.root_id,
                      replace(config, scope=NuisanceScope.CHILD), grown_tree.schema)
    rows = np.flatnonzero(np.random.default_rng(5).random(M) < 0.4)
    assert_selection_on_rows_equals_selection_on_copy(child_tree, rows)


@given(validation_rows)
@example(np.arange(M))
def test_rows_by_node_on_rows_equals_routing_a_copy(rows):
    tree = grown("dr", "parent")[1]
    root = tree.node(tree.root_id)
    assert root.rule.kind == "subset" and "D" not in root.rule.left_levels + root.rule.right_levels
    reach = tree.rows_by_node(SEL, rows)
    reach_on_copy = tree.rows_by_node(take(SEL, rows), np.arange(len(rows)))
    assert sorted(reach) == sorted(reach_on_copy) == sorted(tree.nodes)
    for node_id in tree.nodes:
        assert np.array_equal(reach[node_id], rows[reach_on_copy[node_id]])
        assert (np.diff(reach[node_id]) > 0).all()
    # rows of the level unseen at the root split join its larger child
    larger = root.left if tree.node(root.left).n >= tree.node(root.right).n else root.right
    unseen = rows[SEL.column("c")[rows] == LEVEL_D]
    assert np.isin(unseen, reach[larger]).all()

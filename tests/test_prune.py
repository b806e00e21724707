import numpy as np
import pytest

from efftree.prune import DEFAULT_LAMBDA, split_complexity, weakest_link_sequence

from util_trees import brute_force_sequence, build_tree, prune_candidates, random_tree


def test_split_complexity_root_only():
    tree = build_tree({}, {})
    assert split_complexity(tree, DEFAULT_LAMBDA) == 0.0


def test_split_complexity_arithmetic():
    tree = build_tree({0: 5.0, 1: 4.0}, {0: (1, 2), 1: (3, 4)})
    assert split_complexity(tree, 3.84) == pytest.approx(5.0 + 4.0 - 2 * 3.84)
    assert split_complexity(tree, 3.84) == pytest.approx(1.32)


def test_split_complexity_single_node_at_default_lambda():
    tree = build_tree({0: 3.84}, {0: (1, 2)})
    assert split_complexity(tree, 3.84) == pytest.approx(0.0)


def test_split_complexity_with_external_values():
    tree = build_tree({0: 5.0, 1: 4.0}, {0: (1, 2), 1: (3, 4)})
    assert split_complexity(tree, 1.0, g_values={0: 2.0, 1: 1.0}) == pytest.approx(1.0)


def test_sequence_root_only_input():
    tree = build_tree({}, {})
    order = weakest_link_sequence(tree)
    assert order == []
    assert [t.n_internal() for t in prune_candidates(tree, order)] == [0]


def test_sequence_single_internal_node():
    tree = build_tree({0: 4.2}, {0: (1, 2)})
    order = weakest_link_sequence(tree)
    assert order == [0]
    assert [t.n_internal() for t in prune_candidates(tree, order)] == [1, 0]


def test_sequence_three_internal_hand_oracle():
    # statistics: root 10, left child 2, right child 8
    tree = build_tree({0: 10.0, 1: 2.0, 2: 8.0}, {0: (1, 2), 1: (3, 4), 2: (5, 6)})
    order = weakest_link_sequence(tree)
    # prune left (g=2), then right (g(root)=9 vs g(right)=8), then root
    assert order == [1, 2, 0]
    assert [t.n_internal() for t in prune_candidates(tree, order)] == [3, 2, 1, 0]


def test_pruned_node_keeps_effect_loses_split():
    tree = build_tree({0: 10.0, 1: 2.0}, {0: (1, 2), 1: (3, 4)})
    pruned = prune_candidates(tree, weakest_link_sequence(tree))[1]
    assert pruned.node(1).is_terminal
    assert pruned.node(1).effect.effect == tree.node(1).effect.effect
    assert 3 not in pruned.nodes and 4 not in pruned.nodes
    # the original tree is untouched
    assert not tree.node(1).is_terminal


def test_sequence_matches_brute_force_on_random_trees():
    rng = np.random.default_rng(71)
    for _ in range(60):
        tree = random_tree(rng)
        order = weakest_link_sequence(tree)
        expected_trees, expected_pruned = brute_force_sequence(tree)
        assert order == expected_pruned
        assert ([sorted(t.nodes) for t in prune_candidates(tree, order)]
                == [sorted(t.nodes) for t in expected_trees])


def test_ties_on_integer_statistics_prune_the_smaller_id_as_brute_force_does():
    # Statistics in {1, 2, 3} make every branch sum exact, so the pruner's
    # incremental totals and the brute force's fresh sums tie exactly; ids
    # are in creation order, each split made at a random leaf.
    rng = np.random.default_rng(103)
    for _ in range(300):
        statistics, children, leaves = {}, {}, [0]
        for _ in range(int(rng.integers(1, 26))):
            h = leaves.pop(int(rng.integers(len(leaves))))
            n = 2 * len(children) + 1
            statistics[h] = float(rng.choice([1.0, 2.0, 3.0]))
            children[h] = (n, n + 1)
            leaves += [n, n + 1]
        tree = build_tree(statistics, children)
        order = weakest_link_sequence(tree)
        expected_trees, expected_pruned = brute_force_sequence(tree)
        assert order == expected_pruned
        assert ([sorted(t.nodes) for t in prune_candidates(tree, order)]
                == [sorted(t.nodes) for t in expected_trees])


def test_internal_count_strictly_decreases():
    rng = np.random.default_rng(73)
    for _ in range(20):
        tree = random_tree(rng)
        sizes = [t.n_internal() for t in prune_candidates(tree, weakest_link_sequence(tree))]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 0


def test_rerunning_from_middle_reproduces_tail():
    rng = np.random.default_rng(79)
    for _ in range(20):
        tree = random_tree(rng)
        order = weakest_link_sequence(tree)
        candidates = prune_candidates(tree, order)
        if len(candidates) < 3:
            continue
        k = len(candidates) // 2
        tail = weakest_link_sequence(candidates[k])
        assert tail == order[k:]
        assert ([sorted(t.nodes) for t in prune_candidates(candidates[k], tail)]
                == [sorted(t.nodes) for t in candidates[k:]])


def test_ties_prune_smaller_node_id():
    tree = build_tree({0: 9.0, 1: 3.0, 2: 3.0}, {0: (1, 2), 1: (3, 4), 2: (5, 6)})
    assert weakest_link_sequence(tree)[0] == 1


def complete_tree(statistics, depth):
    """Complete binary tree of the given depth, heap-numbered; node i has
    children 2i+1 and 2i+2."""
    n_internal = 2**depth - 1
    children = {i: (2 * i + 1, 2 * i + 2) for i in range(n_internal)}
    return build_tree({i: statistics(i) for i in range(n_internal)}, children)


def test_complete_depth_8_tree_matches_brute_force():
    rng = np.random.default_rng(83)
    tree = complete_tree(lambda i: float(rng.uniform(0.1, 12.0)), 8)
    order = weakest_link_sequence(tree)
    expected_trees, expected_pruned = brute_force_sequence(tree)
    assert tree.n_internal() == 255
    assert order == expected_pruned
    assert ([sorted(t.nodes) for t in prune_candidates(tree, order)]
            == [sorted(t.nodes) for t in expected_trees])


def test_complete_depth_10_tree_prunes_every_internal_node():
    # 1023 internal nodes, the largest tree max_depth=10 allows. Statistics
    # rise toward the root (random within each depth), so every branch mean
    # exceeds that of its deepest internal node and each step prunes one node.
    rng = np.random.default_rng(89)
    tree = complete_tree(
        lambda i: 12.0 * (11 - (i + 1).bit_length()) + float(rng.uniform(0.0, 12.0)), 10)
    order = weakest_link_sequence(tree)
    assert len(order) == 1023
    sizes = [t.n_internal() for t in prune_candidates(tree, order)]
    assert sizes[0] == 1023
    assert all(a - b >= 1 for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 0


def test_2000_deep_chain_weakest_at_the_bottom_prunes_deepest_first():
    # internal nodes 0..1999 each split into the next one (left) and a leaf
    # 2001 + i (right), with statistic 2000 - i: the deepest branch is the
    # weakest at every step, so each prune updates every remaining ancestor
    depth = 2000
    tree = build_tree({i: float(depth - i) for i in range(depth)},
                      {i: (i + 1, depth + 1 + i) for i in range(depth)})
    assert weakest_link_sequence(tree) == list(range(depth - 1, -1, -1))

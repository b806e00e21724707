"""Shared helpers for building synthetic trees in tests."""

from efftree.data import Continuous, Schema
from efftree.estimators import NodeEffect
from efftree.glm import parse_spec
from efftree.search import SplitRule
from efftree.tree import GrowConfig, Tree, TreeNode


def leaf_effect(value=1.0):
    return NodeEffect(mu1=value, mu0=0.0, effect=value)


def tiny_schema():
    return Schema((("x1", Continuous()),), treatment="A", outcome="Y")


def tiny_config():
    return GrowConfig(estimator="g", outcome_spec=parse_spec("1 + A", "A"),
                      min_node=2, min_per_arm=1)


def build_tree(statistics: dict[int, float], children: dict[int, tuple[int, int]]) -> Tree:
    """Tree from an explicit parent -> (left, right) map with given statistics."""
    ids = set(children) | {c for pair in children.values() for c in pair}
    if not ids:
        ids = {0}
    nodes = {}
    for i in sorted(ids):
        if i in children:
            left, right = children[i]
            nodes[i] = TreeNode(id=i, depth=0, n=10, effect=leaf_effect(),
                                rule=SplitRule("x1", 0, "threshold", threshold=0.0),
                                statistic=statistics[i], left=left, right=right)
        else:
            nodes[i] = TreeNode(id=i, depth=0, n=10, effect=leaf_effect())
    return Tree(nodes, 0, tiny_config(), tiny_schema())


def random_tree(rng, max_internal=5) -> Tree:
    """Random binary tree with random positive statistics."""
    children = {}
    statistics = {}
    next_id = [0]

    def build(depth):
        node_id = next_id[0]
        next_id[0] += 1
        if depth < 4 and len(children) < max_internal and rng.random() < 0.6:
            statistics[node_id] = float(rng.uniform(0.1, 12.0))
            left = build(depth + 1)
            right = build(depth + 1)
            children[node_id] = (left, right)
        return node_id

    build(0)
    return build_tree(statistics, children)


def prune_candidates(tree: Tree, order: list[int]) -> list[Tree]:
    """Candidate k of a prune order: ``tree`` with its first k prunes made."""
    return [tree.prune_at(*order[:k]) for k in range(len(order) + 1)]


def brute_force_sequence(tree: Tree):
    """Weakest-link re-derivation scanning all internal nodes every step."""
    pruned = []
    trees = [tree]
    current = tree
    while current.n_internal() > 0:
        candidates = []
        for h in current.internal_ids():
            ids = current.branch_internal(h)
            g = sum(current.node(i).statistic for i in ids) / len(ids)
            candidates.append((g, h))
        candidates.sort()
        h_star = candidates[0][1]
        current = current.prune_at(h_star)
        pruned.append(h_star)
        trees.append(current)
    return trees, pruned


def recursive_preorder(tree: Tree, node_id=None, stop=(), level=0):
    """Reference for ``Tree.preorder``: (node id, level) pairs by recursion."""
    node_id = tree.root_id if node_id is None else node_id
    nd = tree.node(node_id)
    out = [(node_id, level)]
    if not nd.is_terminal and node_id not in stop:
        for child in (nd.left, nd.right):
            out += recursive_preorder(tree, child, stop, level + 1)
    return out

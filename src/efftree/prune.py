"""Split complexity and weakest-link pruning.

The split complexity of a tree is the sum of its internal-node statistics
minus a penalty per internal node. Weakest-link pruning repeatedly removes
the branch whose internal nodes have the smallest mean statistic, producing
a nested sequence of candidate subtrees that ends at the root-only tree.
That sequence is held as a prune order, the list of nodes pruned at each
step: candidate k is ``tree.prune_at(*order[:k])`` and candidate 0 is the
max tree itself. The order is built with O(K depth) updates of bottom-up
branch sums for K internal nodes (Breiman et al. 1984) and no tree copy.
Every walk is ``Tree.preorder``: the branch sums read it reversed, so no
depth of tree exhausts the stack.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Optional

from .tree import Tree

DEFAULT_LAMBDA = 3.84  # 95th percentile of chi-square with 1 df


def split_complexity(tree: Tree, lam: float,
                     g_values: Optional[Mapping[int, float]] = None) -> float:
    """Sum of internal-node statistics minus lam times the internal count."""
    internal = tree.internal_ids()
    if g_values is None:
        total = sum(tree.node(i).statistic for i in internal)
    else:
        total = sum(g_values[i] for i in internal)
    return total - lam * len(internal)


def weakest_link_sequence(tree: Tree) -> list[int]:
    """Prune order: the node pruned at each step, repeatedly dropping the weakest branch.

    At each step the internal node h minimizing the branch mean statistic
    g(h) loses all its descendants (keeping its own effect estimate); ties
    prefer the smaller node id. Each node's branch statistic sum and
    internal count are kept and, after a prune, taken off its ancestors, so
    ties are decided on means of these incremental totals: the smaller-id
    rule is exact when every branch sum is exactly representable (integer
    statistics, say), and otherwise rounding may break a tie either way.
    """
    parent: dict[int, int] = {}
    total: dict[int, float] = {}
    count: dict[int, int] = {}  # only internal nodes have a count
    for h, _ in reversed(list(tree.preorder())):  # children before their parent
        nd = tree.node(h)
        if not nd.is_terminal:
            parent[nd.left] = parent[nd.right] = h
            total[h] = nd.statistic + total.get(nd.left, 0.0) + total.get(nd.right, 0.0)
            count[h] = 1 + count.get(nd.left, 0) + count.get(nd.right, 0)

    # A heap entry is current while its node is internal (still in count)
    # with the count it was pushed with; every prune below a node lowers it.
    # Each internal node has exactly one current entry, so the heap is built
    # from them at the start, again once stale entries outnumber them, and
    # instead of pushing a prune's ancestors when they are most of the live
    # nodes: the pop order is the same, and the heap stays O(K) on any tree.
    heap: list[tuple[float, int, int]] = []
    pruned: list[int] = []
    done: set[int] = set()  # the walk below stops at earlier prunes: O(K) in all
    while count:
        if not heap or len(heap) > 2 * len(count) + 16:
            heap = [(total[a] / count[a], a, count[a]) for a in count]
            heapq.heapify(heap)
        _, h, c = heapq.heappop(heap)
        if count.get(h) != c:
            continue
        pruned.append(h)
        for d, _ in tree.preorder(h, stop=done):
            count.pop(d, None)  # h and its internal descendants stop being internal
        done.add(h)
        ancestors: list[int] = []
        a = parent.get(h)
        while a is not None:
            total[a] -= total[h]
            count[a] -= c
            ancestors.append(a)
            a = parent.get(a)
        if 2 * len(ancestors) > len(count):
            heap = []
        else:
            for a in ancestors:
                heapq.heappush(heap, (total[a] / count[a], a, count[a]))
    return pruned

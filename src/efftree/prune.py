"""Split complexity and weakest-link pruning.

The split complexity of a tree is the sum of its internal-node statistics
minus a penalty per internal node. Weakest-link pruning repeatedly removes
the branch whose internal nodes have the smallest mean statistic, producing
a nested sequence of candidate subtrees that ends at the root-only tree.
The sequence is a prune order (the max tree and the node pruned at each
step), built with O(K depth) updates of bottom-up branch sums for K
internal nodes (Breiman et al. 1984) and no tree copy; selection
materializes only the chosen candidate. Every walk is ``Tree.preorder``:
the branch sums read it reversed, so no depth of tree exhausts the stack.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
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


@dataclass
class PruneSequence:
    """Nested candidate subtrees from the max tree down to root-only.

    ``seq[k]`` is a copy of the max tree with the first k nodes of
    ``pruned_node_per_step`` made terminal; ``seq[0]`` is the max tree itself.
    """

    tree: Tree
    pruned_node_per_step: list[int]

    def __len__(self) -> int:
        return len(self.pruned_node_per_step) + 1

    def __getitem__(self, k: int) -> Tree:
        if not -len(self) <= k < len(self):
            raise IndexError("prune sequence index out of range")
        k %= len(self)
        return self.tree.prune_at(*self.pruned_node_per_step[:k]) if k else self.tree


def weakest_link_sequence(tree: Tree) -> PruneSequence:
    """Prune order by repeatedly dropping the weakest branch.

    At each step the internal node h minimizing the branch mean statistic
    g(h) loses all its descendants (keeping its own effect estimate); ties
    prefer the smaller node id. Each node's branch statistic sum and
    internal count are kept and, after a prune, taken off its ancestors.
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
    heap = [(total[h] / count[h], h, count[h]) for h in count]
    heapq.heapify(heap)
    pruned: list[int] = []
    done: set[int] = set()  # the walk below stops at earlier prunes: O(K) in all
    while heap:
        _, h, c = heapq.heappop(heap)
        if count.get(h) != c:
            continue
        pruned.append(h)
        for d, _ in tree.preorder(h, stop=done):
            count.pop(d, None)  # h and its internal descendants stop being internal
        done.add(h)
        a = parent.get(h)
        while a is not None:
            total[a] -= total[h]
            count[a] -= c
            heapq.heappush(heap, (total[a] / count[a], a, count[a]))
            a = parent.get(a)
    return PruneSequence(tree, pruned)

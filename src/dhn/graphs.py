"""Bundled test graphs and small synthetic generators.

Everything here is deterministic (generators take explicit seeds), so test and
demo runs need no network access or external data files.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .clustering import WeightedGraph

__all__ = [
    "disjoint_pairs_graph",
    "karate_club",
    "ring_graph",
    "two_component_graph",
]

# Zachary's karate club, unweighted: 34 members, 78 friendship ties.
# Edges are written in the original member numbering.
KARATE_CLUB_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31),
    (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30),
    (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32),
    (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16),
    (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33), (22, 32),
    (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33), (24, 25), (24, 27),
    (24, 31), (25, 31), (26, 29), (26, 33), (27, 33), (28, 31), (28, 33), (29, 32),
    (29, 33), (30, 32), (30, 33), (31, 32), (31, 33), (32, 33),
)


# Node order used by the bundled graph: a fixed breadth-first traversal
# (root 9, neighbors by ascending degree).  Node order determines the cyclic
# sweep schedule of serial runs, so it is pinned here the same way a seed
# would be; labels stay the original member numbers.
KARATE_NODE_ORDER = (
    9, 2, 33, 28, 7, 27, 8, 13, 3, 1, 32, 0, 14, 15, 18, 20, 22, 26,
    19, 29, 30, 23, 31, 24, 12, 17, 21, 11, 4, 10, 5, 6, 25, 16,
)


def _from_edges(n: int, edges, node_labels=None) -> WeightedGraph:
    """Graph whose every listed edge adds weight 1 in both directions."""
    u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    w = sp.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return WeightedGraph(w, node_labels=node_labels)


def karate_club() -> WeightedGraph:
    """Zachary's 34-node karate club graph with unit weights.

    Node labels are the original member numbers; the index order follows
    KARATE_NODE_ORDER.
    """
    position = {member: i for i, member in enumerate(KARATE_NODE_ORDER)}
    edges = [(position[u], position[v]) for u, v in KARATE_CLUB_EDGES]
    return _from_edges(34, edges, node_labels=[str(m) for m in KARATE_NODE_ORDER])


def disjoint_pairs_graph(pairs: int = 2) -> WeightedGraph:
    """``pairs`` disjoint unit edges: nodes (0,1), (2,3), ...

    The 2-pair case is the smallest graph with an unambiguous best
    2-clustering (the two components, modularity 1/2).
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    return _from_edges(2 * pairs, [(2 * k, 2 * k + 1) for k in range(pairs)])


def ring_graph(n: int) -> WeightedGraph:
    """Cycle on n nodes."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    return _from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def two_component_graph(
    n1: int,
    n2: int,
    p: float = 0.5,
    seed: Optional[int] = None,
) -> WeightedGraph:
    """Two disconnected seeded random components with edge probability ``p``.

    Every node gets at least one incident edge inside its component, so the
    volume is always positive.
    """
    if min(n1, n2) < 2:
        raise ValueError("each component needs at least 2 nodes")
    rng = np.random.default_rng(seed)
    edges = []
    for offset, size in ((0, n1), (n1, n2)):
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < p:
                    edges.append((offset + i, offset + j))
        for i in range(size):
            node = offset + i
            if not any(node in e for e in edges):
                other = offset + int((i + 1) % size)
                edges.append((min(node, other), max(node, other)))
    return _from_edges(n1 + n2, edges)

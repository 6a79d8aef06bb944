"""Planted-partition graphs with known blocks, and scores against those blocks.

The generator follows the planted l-partition model used by Lancichinetti,
Fortunato & Radicchi (PRE 78, 046110, 2008) without their power-law degree and
block-size tails: n nodes in k equal blocks, ``avg_degree * n / 2`` distinct
undirected edges, of which a share ``mixing`` joins different blocks.  Only the
Python standard library is used, so the same seed gives byte-identical text on
every platform.
"""

from __future__ import annotations

import math
import random
from collections import Counter


def planted_partition(n: int, k: int, avg_degree: float, mixing: float, seed: int):
    """Return ``(edge_list_text, blocks)`` for one planted partition.

    ``blocks`` maps each label ``n<i>`` to its block index.  Blocks are dealt
    to labels by a seeded permutation, every edge line lists its endpoints in
    random order, and the lines are shuffled, so the order in which a loader
    first meets the labels (which fixes the node index order and hence the
    serial sweep order) is unrelated to the blocks.  No node is isolated.
    """
    if not (1 <= k <= n and 0.0 <= mixing <= 1.0 and avg_degree > 0):
        raise ValueError("need 1 <= k <= n, 0 <= mixing <= 1 and a positive degree")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    block_of = [0] * n
    members = [[] for _ in range(k)]
    for rank, node in enumerate(order):
        block_of[node] = rank % k
        members[rank % k].append(node)

    m = round(avg_degree * n / 2)
    m_out = round(mixing * m) if k > 1 else 0
    intra_pairs = sum(len(b) * (len(b) - 1) // 2 for b in members)
    if m - m_out > intra_pairs or m_out > n * (n - 1) // 2 - intra_pairs:
        raise ValueError(f"{m} edges with mixing {mixing} do not fit in {k} blocks of {n} nodes")
    edges: set = set()

    def add(u: int, v: int) -> None:
        if u != v:
            edges.add((u, v) if u < v else (v, u))

    while len(edges) < m - m_out:
        block = members[rng.randrange(k)]
        add(block[rng.randrange(len(block))], block[rng.randrange(len(block))])
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if block_of[u] != block_of[v]:
            add(u, v)

    touched = {u for edge in edges for u in edge}
    for u in range(n):
        if u not in touched:
            block = members[block_of[u]]
            if len(block) == 1:
                raise ValueError(f"node n{u} is alone in its block and has no edge")
            v = u
            while v == u:
                v = block[rng.randrange(len(block))]
            add(u, v)
            touched.update((u, v))

    lines = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edges)]
    rng.shuffle(lines)
    text = "".join(f"n{u} n{v}\n" for u, v in lines)
    return text, {f"n{u}": block_of[u] for u in range(n)}


def _entropy(counts) -> float:
    total = sum(counts)
    return -sum(c / total * math.log(c / total) for c in counts if c)


def nmi(truth: dict, found: dict) -> float:
    """Normalized mutual information I(T;F) / mean(H(T), H(F)) over shared labels."""
    labels = list(truth)
    pairs = Counter((truth[x], found[x]) for x in labels)
    h_t = _entropy(Counter(truth[x] for x in labels).values())
    h_f = _entropy(Counter(found[x] for x in labels).values())
    h_joint = _entropy(pairs.values())
    if h_t + h_f == 0.0:
        return 1.0
    return (h_t + h_f - h_joint) / ((h_t + h_f) / 2)

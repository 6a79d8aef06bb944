"""Modularity matrices, greedy modularity search, and power-method bisection.

Modularity scores a clustering against the configuration-model null: Q_ij is
the observed weight minus the degree-expected weight, normalized by graph
volume.  Maximizing modularity equals minimizing the d-cut of the Q-weighted
graph, so both the greedy search and the spectral bisection below are network
runs in disguise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import Clustering, WeightedGraph, clustering_from_matrix, clustering_to_matrix
from .core import (
    Activation,
    ConvergenceCriterion,
    DhnNetwork,
    RunReport,
    WeightMatrix,
    iterate,
    parallel_step,
    run_parallel,
)

__all__ = [
    "DegenerateGraphError",
    "DegenerateSpectrumError",
    "ModularityMatrix",
    "build_lms_network",
    "louvain_update",
    "modularity_matrix",
    "modularity_score",
    "newman_bisect",
    "power_method",
    "run_lms",
    "run_plms",
]


class DegenerateGraphError(ValueError):
    """The graph volume is zero or negative, so modularity is undefined."""


class DegenerateSpectrumError(RuntimeError):
    """Power iteration hit an exactly zero vector (start orthogonal to range, or M = 0)."""


@dataclass(frozen=True)
class ModularityMatrix:
    """Q_ij = (W_ij - k_i k_j / Vol) / Vol.

    Held as a WeightMatrix: the sparse W / Vol plus the rank-one term -k kt / Vol^2.
    """

    q: WeightMatrix
    volume: float
    degrees: np.ndarray


def _positive_volume(graph: WeightedGraph) -> float:
    vol = graph.volume
    if vol <= 0:
        raise DegenerateGraphError(f"graph volume is {vol:g}; modularity needs positive volume")
    return vol


def modularity_matrix(graph: WeightedGraph) -> ModularityMatrix:
    """Build the modularity operator; rejects graphs with volume <= 0."""
    vol = _positive_volume(graph)
    k = graph.degrees
    q = WeightMatrix(graph.weights / vol, k, -1.0 / vol**2)
    return ModularityMatrix(q=q, volume=vol, degrees=k)


def modularity_score(graph: WeightedGraph, c: Clustering) -> float:
    """Sum of Q entries over intra-cluster pairs (diagonal included).

    Computed from cluster aggregates in O(m + n): sum over clusters of
    in_c / Vol - (K_c / Vol)^2, with in_c the weight inside cluster c (both
    directions) and K_c its total degree.
    """
    if c.n != graph.n:
        raise ValueError(f"clustering covers {c.n} nodes but the graph has {graph.n}")
    vol = _positive_volume(graph)
    w = graph.weights
    a = np.array(c.assignment, dtype=int)
    row_labels = np.repeat(a, np.diff(w.indptr))
    same = row_labels == a[w.indices]
    inside = np.bincount(row_labels[same], weights=w.data[same], minlength=c.d)
    totals = np.bincount(a, weights=graph.degrees, minlength=c.d)
    return float(np.sum(inside / vol - (totals / vol) ** 2))


def build_lms_network(graph: WeightedGraph, d: int) -> DhnNetwork:
    """The classification network whose serial dynamics is greedy modularity search.

    Weights are Q with the diagonal zeroed (symmetric, nonnegative diagonal),
    bias is the n x d zero matrix: d potential clusters.
    """
    mm = modularity_matrix(graph)
    return DhnNetwork(mm.q.zero_diagonal(), np.zeros((graph.n, d)), Activation.CLASSIFICATION)


class _ClusterDegrees:
    """Cluster degree totals K_c, with lazy heaps for the best cluster outside a set.

    A cluster with no edge to node i scores -k_i K_c, so the best of them has
    the least K_c when k_i > 0 and the largest when k_i < 0 (ties to the
    lowest index).  Each sign gets a heap of (sign * K_c, c), built on first
    use; moves push fresh entries and entries whose key no longer matches
    K_c are dropped when they surface.
    """

    def __init__(self, totals: list):
        self.totals = totals
        self._heaps = {}

    def _heap(self, sign: float) -> list:
        heap = self._heaps.get(sign)
        if heap is None or len(heap) > 3 * len(self.totals):  # rebuild once mostly stale
            heap = [(sign * t, c) for c, t in enumerate(self.totals)]
            heapq.heapify(heap)
            self._heaps[sign] = heap
        return heap

    def move(self, k_i: float, src: int, dst: int) -> None:
        t = self.totals
        t[src] -= k_i
        t[dst] += k_i
        for sign, heap in self._heaps.items():
            heapq.heappush(heap, (sign * t[src], src))
            heapq.heappush(heap, (sign * t[dst], dst))

    def best_outside(self, k_i: float, taken) -> Optional[int]:
        """Lowest-index cluster not in ``taken`` maximizing -k_i K_c; None if all are taken."""
        if k_i == 0:
            return next((c for c in range(len(self.totals)) if c not in taken), None)
        sign = 1.0 if k_i > 0 else -1.0
        heap, t = self._heap(sign), self.totals
        skipped, best = [], None
        while heap:
            key, c = heap[0]
            if key != sign * t[c]:
                heapq.heappop(heap)
            elif c in taken:
                skipped.append(heapq.heappop(heap))
            else:
                best = c
                break
        for entry in skipped:
            heapq.heappush(heap, entry)
        return best


def _best_move(
    node: int, labels: list, clusters: _ClusterDegrees, csr: tuple, vol: float, k_i: float
) -> tuple:
    """The greedy modularity move of ``node``: (target cluster, S_target - S_own).

    S_c = Vol A_{node,c} - k_node K'_c is row ``node`` of the zero-diagonal Q
    times one-hot column c, scaled by Vol^2: A_{node,c} is the weight from
    ``node`` into c without self-loops, and K'_c is K_c less k_node for the
    node's own cluster.  On integer weights every S_c is an exact integer in
    float64, so ties are real and go to the lowest cluster index, as in the
    network's argmax.  Costs O(deg log d).
    """
    indptr, indices, data = csr
    own = labels[node]
    links = {own: 0.0}
    for p in range(indptr[node], indptr[node + 1]):
        j = indices[p]
        if j != node:
            c = labels[j]
            links[c] = links.get(c, 0.0) + data[p]
    totals = clusters.totals
    own_score = vol * links[own] - k_i * (totals[own] - k_i)
    target, best = own, own_score
    for c, a in links.items():
        score = vol * a - k_i * totals[c] if c != own else own_score
        if score > best or (score == best and c < target):
            target, best = c, score
    outside = clusters.best_outside(k_i, links)
    if outside is not None:
        score = -k_i * totals[outside]
        if score > best or (score == best and outside < target):
            target, best = outside, score
    return target, best - own_score


def _csr_views(graph: WeightedGraph) -> tuple:
    # memoryviews index as Python scalars without copying the arrays into lists
    w = graph.weights
    return memoryview(w.indptr), memoryview(w.indices), memoryview(w.data)


def _lms_sweeps(
    graph: WeightedGraph, labels, d: int, max_sweeps: int, track_energy: bool
) -> RunReport:
    """Cyclic serial sweeps of the LMS network, held as a label vector.

    The run of ``run_serial`` on ``build_lms_network(graph, d)`` from the
    one-hot state of ``labels`` (with scores scaled by Vol^2, so exact ties
    on integer weights), without the n x d state: STABLE once a sweep
    moves no node, else BUDGET_EXHAUSTED after ``max_sweeps``; ``iterations``
    counts sweeps.  The energy trace (Q units, 1 + n * sweeps entries) adds
    -2 (S_target - S_own) / Vol^2 per move.  ``final_state`` is the label vector.
    """
    vol = _positive_volume(graph)
    k = graph.degrees
    start = np.array([int(c) for c in labels])
    totals = np.bincount(start, weights=k, minlength=d)
    trace = None
    if track_energy:
        w = graph.weights
        rows = np.repeat(np.arange(graph.n), np.diff(w.indptr))
        inside = w.data[(start[rows] == start[w.indices]) & (rows != w.indices)].sum()
        trace = [-(vol * inside - (totals @ totals - k @ k)) / vol**2]
    clusters = _ClusterDegrees(totals.tolist())
    csr, degrees = _csr_views(graph), memoryview(k)

    def sweep(state):
        labels = state.tolist()
        for i in range(graph.n):
            k_i = degrees[i]
            target, gain = _best_move(i, labels, clusters, csr, vol, k_i)
            if target != labels[i]:
                clusters.move(k_i, labels[i], target)
                labels[i] = target
            if trace is not None:
                trace.append(trace[-1] - 2.0 * gain / vol**2)
        return np.array(labels)

    # the exact fixed point, as in run_serial
    crit = ConvergenceCriterion(window=1, max_iters=max_sweeps)
    report = iterate(sweep, start, crit, exact=True)
    report.energy_trace = trace
    return report


def louvain_update(graph: WeightedGraph, c: Clustering, node: int) -> Clustering:
    """Greedily move one node to the cluster that maximizes modularity.

    The argmax runs over all clusters (not just neighboring ones), so negative
    weights are handled; ties go to the lowest cluster index.  Moving ``node``
    to cluster m changes modularity by an amount monotone in
    sum_{j in c_m} Qz_{node,j} with Qz the zero-diagonal modularity matrix,
    which is what is maximized here, scaled by Vol^2.  Costs O(m + n).
    """
    if not 0 <= node < graph.n:
        raise IndexError(f"node {node} out of range for n={graph.n}")
    vol = _positive_volume(graph)
    k = graph.degrees
    clusters = _ClusterDegrees(np.bincount(c.assignment, weights=k, minlength=c.d).tolist())
    labels = list(c.assignment)
    target, _ = _best_move(node, labels, clusters, _csr_views(graph), vol, float(k[node]))
    if target == labels[node]:
        return c
    labels[node] = target
    return Clustering(labels, c.d)


def run_lms(graph: WeightedGraph, crit: Optional[ConvergenceCriterion] = None) -> tuple:
    """Louvain-method search: serial run from the singleton clustering.

    Every node starts in its own cluster (d = n) and nodes are visited
    cyclically until no move improves modularity.  Returns (Clustering,
    RunReport); the report's final state is the length-n label vector.
    """
    crit = crit if crit is not None else ConvergenceCriterion()
    report = _lms_sweeps(graph, range(graph.n), graph.n, crit.max_iters, track_energy=True)
    return Clustering(report.final_state, graph.n), report


def run_plms(
    graph: WeightedGraph,
    d: int,
    seed: Optional[int] = None,
    crit: Optional[ConvergenceCriterion] = None,
) -> tuple:
    """Parallel Louvain-method search from a seeded random d-cluster state.

    Parallel classification runs on symmetric weights end in a stable state or
    a two-cycle; on a two-cycle the higher-modularity cycle state is returned.
    """
    net = build_lms_network(graph, d)
    rng = np.random.default_rng(seed)
    x0 = clustering_to_matrix(Clustering(rng.integers(0, d, size=graph.n), d))
    report = run_parallel(net, x0, crit=crit)
    best = clustering_from_matrix(report.final_state)
    if report.cycle_length == 2:
        other = clustering_from_matrix(parallel_step(net, report.final_state))
        if modularity_score(graph, other) > modularity_score(graph, best):
            best = other
    return best, report


def power_method(
    m,
    seed: Optional[int] = None,
    crit: Optional[ConvergenceCriterion] = None,
) -> np.ndarray:
    """Dominant eigendirection of a symmetric matrix by normalized iteration.

    Iterates v <- M v / ||M v||_2 until the direction revisits one of the last
    ``crit.window`` directions within ``crit.epsilon`` (a lag-2 revisit covers
    the sign-alternating case of a negative dominant eigenvalue).  The start
    vector is drawn uniformly from (-1, 1)^n under ``seed``.  ``m`` is a
    WeightMatrix or any dense or sparse matrix.  Exactly zero products raise
    DegenerateSpectrumError.
    """
    if not isinstance(m, WeightMatrix):
        m = WeightMatrix(m)
    if m.n == 0:
        raise ValueError("power_method expects a nonempty square matrix")
    crit = crit if crit is not None else ConvergenceCriterion()
    # an all-zero start has probability at most 2^-53, so it is not checked
    v = np.random.default_rng(seed).uniform(-1.0, 1.0, size=m.n)

    def step(v):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise DegenerateSpectrumError("iteration reached an exactly zero vector")
        return w / norm

    return iterate(step, v / np.linalg.norm(v), crit).final_state


def newman_bisect(
    graph: WeightedGraph,
    seed: Optional[int] = None,
    crit: Optional[ConvergenceCriterion] = None,
) -> Clustering:
    """Two-way split by the sign pattern of the dominant modularity eigendirection.

    sgn(0) counts as +1.  Cluster 0 collects the nonnegative entries, cluster 1
    the negative ones; either may come out empty.  The direction itself is only
    defined up to sign, which permutes the two cluster labels.

    The unshifted iteration converges to the eigenvalue largest in magnitude;
    on graphs whose most negative modularity eigenvalue dominates (the karate
    club is one) the returned split follows that negative direction and scores
    poorly.  The multi-frame methods in the stiefel module are the intended
    remedy.
    """
    q = modularity_matrix(graph).q
    v = power_method(q, seed=seed, crit=crit)
    return Clustering(np.where(v >= 0.0, 0, 1), 2)

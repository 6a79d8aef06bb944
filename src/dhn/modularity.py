"""Modularity matrices, greedy modularity search, and power-method bisection.

Modularity scores a clustering against the configuration-model null: Q_ij is
the observed weight minus the degree-expected weight, normalized by graph
volume.  Maximizing modularity equals minimizing the d-cut of the Q-weighted
graph, so both the greedy search and the spectral bisection below are network
runs in disguise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import Clustering, WeightedGraph, clustering_from_matrix, clustering_to_matrix
from .core import (
    Activation,
    ConvergenceCriterion,
    DhnNetwork,
    WeightMatrix,
    parallel_step,
    revisit_lag,
    run_parallel,
    run_serial,
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


def build_lms_network(graph: WeightedGraph, d: Optional[int] = None) -> DhnNetwork:
    """The classification network whose serial dynamics is greedy modularity search.

    Weights are Q with the diagonal zeroed (symmetric, nonnegative diagonal),
    bias is zero.  State dimension d defaults to n, one potential cluster per
    node.
    """
    mm = modularity_matrix(graph)
    d = graph.n if d is None else int(d)
    if d < 1:
        raise ValueError("state dimension d must be positive")
    return DhnNetwork(mm.q.zero_diagonal(), np.zeros((graph.n, d)), Activation.CLASSIFICATION)


def louvain_update(graph: WeightedGraph, c: Clustering, node: int) -> Clustering:
    """Greedily move one node to the cluster that maximizes modularity.

    The argmax runs over all clusters (not just neighboring ones), so negative
    weights are handled; ties go to the lowest cluster index.  Moving ``node``
    to cluster m changes modularity by an amount monotone in
    sum_{j in c_m} Qz_{node,j} with Qz the zero-diagonal modularity matrix,
    which is what is maximized here.

    A reference for the network's serial step: every call rebuilds the
    modularity operator and the n x d clustering matrix.
    """
    if not 0 <= node < graph.n:
        raise IndexError(f"node {node} out of range for n={graph.n}")
    qz = modularity_matrix(graph).q.zero_diagonal()
    scores = qz.row(clustering_to_matrix(c), node)
    target = int(np.argmax(scores))
    if target == c.assignment[node]:
        return c
    new = list(c.assignment)
    new[node] = target
    return Clustering(new, c.d)


def run_lms(graph: WeightedGraph, crit: Optional[ConvergenceCriterion] = None) -> tuple:
    """Louvain-method search: serial run from the singleton clustering.

    Every node starts in its own cluster (state matrix I_n) and nodes are
    visited cyclically until no move improves modularity.  Returns
    (Clustering, RunReport).
    """
    net = build_lms_network(graph)
    net.validate_energy_hypotheses()
    report = run_serial(net, np.eye(graph.n), schedule="cyclic", crit=crit)
    return clustering_from_matrix(report.final_state), report


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
    if d < 1:
        raise ValueError("cluster count d must be positive")
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
    v0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dominant eigendirection of a symmetric matrix by normalized iteration.

    Iterates v <- M v / ||M v||_2 until the direction revisits one of the last
    ``crit.window`` directions within ``crit.epsilon`` (a lag-2 revisit covers
    the sign-alternating case of a negative dominant eigenvalue).  The start
    vector is drawn uniformly from (-1, 1)^n under ``seed`` unless ``v0`` is
    given.  ``m`` is a WeightMatrix or any dense or sparse matrix.  Exactly
    zero products raise DegenerateSpectrumError.
    """
    if not isinstance(m, WeightMatrix):
        m = WeightMatrix(m)
    if m.n == 0:
        raise ValueError("power_method expects a nonempty square matrix")
    crit = crit if crit is not None else ConvergenceCriterion()
    if v0 is None:
        v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=m.n)
    v = np.asarray(v0, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DegenerateSpectrumError("start vector is zero")
    v = v / norm
    history = deque([v], maxlen=crit.window)
    for _ in range(crit.max_iters):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise DegenerateSpectrumError("iteration reached an exactly zero vector")
        v = w / norm
        if revisit_lag(history, v, crit.epsilon) is not None:
            return v
    return v


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

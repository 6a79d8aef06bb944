"""Graph clusterings, cut values, extended graphs, and exhaustive oracles.

A d-clustering of n nodes is encoded either as an assignment vector (cluster
index per node, empty clusters allowed) or as an n x d one-hot matrix.  The
matrix form is exactly the state space of a classification-activated network,
which is what ties network dynamics to cut minimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .core import Activation, DhnNetwork, canonical_csr, max_asymmetry

__all__ = [
    "Clustering",
    "ExtendedGraph",
    "InstanceTooLargeError",
    "KappaPolicy",
    "WeightedGraph",
    "brute_force_min_dcut",
    "build_extended_graph",
    "canonical_extension",
    "clustering_from_matrix",
    "clustering_to_matrix",
    "d_cut_value",
    "d_cut_via_trace",
    "kappa_policy",
    "stable_states_census",
    "validate_clustering_matrix",
]

# Largest |W_ij - W_ji| that counts as symmetric for graphs and couplings.
_SYMMETRY_TOL = 1e-12

# Exhaustive oracles refuse instances with more than this many assignments.
ENUMERATION_LIMIT = 10_000_000


class InstanceTooLargeError(ValueError):
    """An exhaustive oracle was asked to enumerate too many assignments."""


@dataclass(frozen=True)
class WeightedGraph:
    """A weighted graph on nodes 0..n-1 with symmetric edge weight matrix.

    The weights are stored as a canonical CSR matrix (sorted, summed, no
    stored zeros); dense or sparse input is converted on construction, and
    non-finite weights are rejected.
    """

    weights: sp.csr_array
    node_labels: Optional[tuple] = None

    def __init__(self, weights, node_labels=None):
        weights = canonical_csr(weights)
        asym = max_asymmetry(weights)
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"edge weight matrix is asymmetric: max |W - Wt| = {asym:g}")
        if node_labels is not None:
            node_labels = tuple(str(l) for l in node_labels)
            if len(node_labels) != weights.shape[0]:
                raise ValueError("node_labels length must equal the node count")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "node_labels", node_labels)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def volume(self) -> float:
        """Sum of all weight matrix entries (every edge counted both ways)."""
        return float(self.weights.sum())

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def labels(self) -> tuple:
        if self.node_labels is not None:
            return self.node_labels
        return tuple(str(i) for i in range(self.n))


@dataclass(frozen=True)
class Clustering:
    """Assignment of n nodes to clusters 0..d-1; clusters may be empty."""

    assignment: tuple
    d: int

    def __init__(self, assignment: Sequence[int], d: int):
        assignment = tuple(int(a) for a in assignment)
        if d < 1:
            raise ValueError("cluster count d must be positive")
        for a in assignment:
            if not 0 <= a < d:
                raise ValueError(f"cluster index {a} outside 0..{d - 1}")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def canonical(self) -> "Clustering":
        """Relabel clusters by first occurrence: node 0's cluster becomes 0, etc.

        Unused labels are dropped, so two clusterings encode the same partition
        iff their canonical forms have equal assignment vectors.
        """
        relabel = {}
        new = []
        for a in self.assignment:
            if a not in relabel:
                relabel[a] = len(relabel)
            new.append(relabel[a])
        return Clustering(new, max(len(relabel), 1))

    def same_partition(self, other: "Clustering") -> bool:
        return self.canonical().assignment == other.canonical().assignment


def clustering_to_matrix(c: Clustering) -> np.ndarray:
    """One-hot n x d encoding of a clustering."""
    x = np.zeros((c.n, c.d))
    x[np.arange(c.n), np.array(c.assignment, dtype=int)] = 1.0
    return x


def validate_clustering_matrix(x: np.ndarray) -> np.ndarray:
    """Check that every row is one-hot (exact 0/1 entries); return as float array."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("clustering matrix must be n x d with d >= 1")
    if not np.all((x == 0.0) | (x == 1.0)) or not np.all(x.sum(axis=1) == 1.0):
        raise ValueError("matrix rows must be one-hot (exactly one 1 per row)")
    return x


def clustering_from_matrix(x: np.ndarray) -> Clustering:
    """Decode a one-hot matrix into a Clustering (column index per row)."""
    x = validate_clustering_matrix(x)
    return Clustering(np.argmax(x, axis=1), x.shape[1])


def d_cut_value(graph: WeightedGraph, c: Clustering) -> float:
    """Total weight crossing between distinct clusters, summed over the stored entries."""
    if c.n != graph.n:
        raise ValueError(f"clustering covers {c.n} nodes but the graph has {graph.n}")
    w = graph.weights
    a = np.array(c.assignment, dtype=int)
    row_labels = np.repeat(a, np.diff(w.indptr))
    return float(w.data[row_labels != a[w.indices]].sum())


def d_cut_via_trace(graph: WeightedGraph, x: np.ndarray) -> float:
    """Cut value through the quadratic form: Vol(G) - Tr(Xt W X)."""
    x = validate_clustering_matrix(x)
    if x.shape[0] != graph.n:
        raise ValueError(f"matrix has {x.shape[0]} rows but the graph has {graph.n} nodes")
    return float(graph.volume - np.sum(x * (graph.weights @ x)))


def canonical_extension(x: np.ndarray) -> np.ndarray:
    """Stack the d x d identity below a clustering matrix.

    The extra rows pin one anchor node per cluster, turning bias terms into
    plain edges of the extended graph.
    """
    x = validate_clustering_matrix(x)
    return np.vstack([x, np.eye(x.shape[1])])


@dataclass(frozen=True)
class ExtendedGraph:
    """The (n+d)-node graph [[W, B], [Bt, U]] built from weights, bias, coupling."""

    base: WeightedGraph
    bias: np.ndarray
    coupling: np.ndarray

    @cached_property
    def assembled(self) -> np.ndarray:
        return np.block([[self.base.weights.toarray(), self.bias], [self.bias.T, self.coupling]])

    def as_graph(self) -> WeightedGraph:
        return WeightedGraph(self.assembled)


def build_extended_graph(weights, bias, coupling) -> ExtendedGraph:
    """Assemble the extended graph from an n x n W, n x d B and d x d U.

    W and U must be symmetric so the result is a graph.
    """
    bias = np.asarray(bias, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    base = WeightedGraph(weights)  # symmetry check included
    if coupling.ndim != 2 or coupling.shape[0] != coupling.shape[1]:
        raise ValueError("coupling matrix must be square")
    if coupling.size and float(np.max(np.abs(coupling - coupling.T))) > _SYMMETRY_TOL:
        raise ValueError("coupling matrix must be symmetric")
    if bias.shape != (base.n, coupling.shape[0]):
        raise ValueError(
            f"bias must be {base.n}x{coupling.shape[0]}, got {bias.shape[0]}x{bias.shape[1]}"
        )
    return ExtendedGraph(base, bias, coupling)


@dataclass(frozen=True)
class KappaPolicy:
    """Anchor-repulsion strength making every global min-cut keep anchors apart.

    ``bound_m <= -Tr(Xt W X + 2 Xt B Y) <= bound_M`` holds for all clustering
    matrices X, Y, and ``bound_m + kappa > bound_M``, which is what the global
    optimality argument needs.
    """

    kappa: float
    bound_m: float
    bound_M: float

    def coupling(self, d: int) -> np.ndarray:
        """The d x d coupling with -kappa off the diagonal and 0 on it."""
        u = np.full((d, d), -self.kappa)
        np.fill_diagonal(u, 0.0)
        return u


def kappa_policy(weights, bias) -> KappaPolicy:
    """Concrete absolute-sum bounds: M = sum|W| + 2 sum|B|, m = -M, kappa = 2M + 1."""
    weights = np.asarray(weights, dtype=float)
    bias = np.asarray(bias, dtype=float)
    bound = float(np.abs(weights).sum() + 2.0 * np.abs(bias).sum())
    return KappaPolicy(kappa=2.0 * bound + 1.0, bound_m=-bound, bound_M=bound)


def _check_enumeration_size(n: int, d: int) -> int:
    total = d**n
    if total > ENUMERATION_LIMIT:
        raise InstanceTooLargeError(
            f"{d}^{n} = {total} assignments exceeds the enumeration limit of {ENUMERATION_LIMIT}"
        )
    return total


def _assignment_chunks(n: int, d: int, chunk: int = 8192):
    """All length-n assignment vectors over 0..d-1 in lexicographic order, batched."""
    total = d**n
    place = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield (idx[:, None] // place[None, :]) % d


def brute_force_min_dcut(graph: WeightedGraph, d: int) -> tuple:
    """Exhaustive global minimum of the d-cut value.

    Returns (Clustering, value).  Among equal minimizers the lexicographically
    smallest assignment vector wins.  Refuses instances with d^n beyond the
    enumeration limit.
    """
    if d < 1:
        raise ValueError("cluster count d must be positive")
    _check_enumeration_size(graph.n, d)
    w = graph.weights.toarray()
    best_value = np.inf
    best_assignment = None
    for batch in _assignment_chunks(graph.n, d):
        cross = batch[:, :, None] != batch[:, None, :]
        values = (cross * w).sum(axis=(1, 2))
        k = int(np.argmin(values))  # first minimum = lexicographically smallest in batch
        if values[k] < best_value:
            best_value = float(values[k])
            best_assignment = batch[k].copy()
    return Clustering(best_assignment, d), best_value


def stable_states_census(net: DhnNetwork) -> frozenset:
    """All classification states no serial update can improve.

    A state is counted as stable when, for every neuron, the current label
    already attains the row maximum of H = W X + B.  Ties therefore count as
    stable: no move strictly lowers the energy, equivalently no single-node
    move strictly lowers the extended-graph cut.  Returns a frozenset of
    Clustering values (one per stable state matrix).
    """
    if net.activation is not Activation.CLASSIFICATION:
        raise ValueError("the census is defined for classification networks")
    n, d = net.n, net.d
    _check_enumeration_size(n, d)
    w = net.weights.toarray()
    stable = []
    rows = np.arange(n)
    for batch in _assignment_chunks(n, d):
        onehot = np.zeros((batch.shape[0], n, d))
        onehot[np.arange(batch.shape[0])[:, None], rows[None, :], batch] = 1.0
        h = np.einsum("ij,sjc->sic", w, onehot) + net.bias
        current = np.take_along_axis(h, batch[:, :, None], axis=2)[:, :, 0]
        ok = np.all(current >= h.max(axis=2), axis=1)
        stable.extend(Clustering(a, d) for a in batch[ok])
    return frozenset(stable)


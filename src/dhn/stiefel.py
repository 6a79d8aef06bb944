"""The generalized Newman method family: orthonormal-frame dynamics on Q.

Replacing the sign vector of two-way spectral bisection with an n x d
orthonormal frame lets power iteration produce d coupled directions at once:
iterate X <- P(Q X) where P projects onto the orthonormal d-frames, then read a
clustering off the rows.  For d = 1 this is exactly the normalized power
method.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .clustering import Clustering, WeightedGraph, clustering_to_matrix
from .core import (
    Activation,
    ConvergenceCriterion,
    DhnNetwork,
    iterate,
    run_parallel,
    stiefel_project,
)
from .modularity import _lms_sweeps, modularity_matrix

__all__ = ["run_gnm", "run_gnm_plus_lms", "run_sgnm"]


def _frame_network(graph: WeightedGraph, d: int) -> DhnNetwork:
    q = modularity_matrix(graph).q
    return DhnNetwork(q, np.zeros((graph.n, d)), Activation.STIEFEL_PROJECTION)


def _initial_frame(n: int, d: int, seed: Optional[int]) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return stiefel_project(rng.uniform(-1.0, 1.0, size=(n, d)))


def run_gnm(
    graph: WeightedGraph,
    d: int,
    seed: Optional[int] = None,
    crit: Optional[ConvergenceCriterion] = None,
) -> tuple:
    """Generalized Newman method: parallel frame iteration, then rowwise labels.

    Starts from the projection of a seeded uniform(-1, 1) matrix, iterates
    X <- P(Q X) until the directional criterion fires, and labels each node by
    the argmax of its row of the final frame (ties to the lowest index).
    Returns (Clustering, RunReport); the report's final state is the frame.
    """
    net = _frame_network(graph, d)
    x0 = _initial_frame(graph.n, d, seed)
    report = run_parallel(net, x0, crit=crit)
    return Clustering(np.argmax(report.final_state, axis=1), d), report


def run_sgnm(
    graph: WeightedGraph,
    d: int,
    seed: Optional[int] = None,
    crit: Optional[ConvergenceCriterion] = None,
) -> tuple:
    """Serial variant of the generalized Newman method.

    Sweeps neurons 0..n-1; each step recomputes H = Q X, projects it, and
    replaces only that neuron's row with the corresponding row of the
    projection.  The full state is re-projected at the end of every sweep so a
    valid frame enters the next sweep, and the directional stopping criterion
    is checked on sweep boundaries.
    """
    net = _frame_network(graph, d)
    crit = crit if crit is not None else ConvergenceCriterion()

    def sweep(x):
        x = x.copy()
        for i in range(graph.n):
            h = net.weights @ x  # zero bias
            x[i] = stiefel_project(h)[i]
        return stiefel_project(x)

    report = iterate(sweep, _initial_frame(graph.n, d, seed), crit)
    return Clustering(np.argmax(report.final_state, axis=1), d), report


def run_gnm_plus_lms(
    graph: WeightedGraph,
    d: int,
    seed: Optional[int] = None,
    crit: Optional[ConvergenceCriterion] = None,
) -> tuple:
    """Generalized Newman method followed by one greedy modularity sweep.

    The GNM clustering matrix seeds a single cyclic serial sweep of the
    zero-diagonal modularity network, which can only keep or raise modularity.
    The returned report carries the post-sweep clustering matrix as its final
    state; iterations count the GNM parallel steps plus the one sweep.
    """
    gnm_clustering, gnm_report = run_gnm(graph, d, seed=seed, crit=crit)
    sweep = _lms_sweeps(graph, gnm_clustering.assignment, d, 1, track_energy=False)
    clustering = Clustering(sweep.final_state, d)
    final = clustering_to_matrix(clustering)
    return clustering, replace(gnm_report, final_state=final, iterations=gnm_report.iterations + 1)

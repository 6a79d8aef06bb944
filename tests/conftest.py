"""Shared random-instance builders and fixtures for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp

import dhn
from dhn.graphs import karate_club
from dhn.io import load_edge_list, write_edge_list


def random_symmetric(rng, n, scale=1.0, diag="nonneg"):
    """Random symmetric n x n matrix; diag is 'nonneg', 'zero', or 'any'."""
    a = rng.uniform(-scale, scale, size=(n, n))
    w = (a + a.T) / 2.0
    if diag == "zero":
        np.fill_diagonal(w, 0.0)
    elif diag == "nonneg":
        np.fill_diagonal(w, np.abs(np.diagonal(w)))
    elif diag != "any":
        raise ValueError(diag)
    return w


def random_onehot(rng, n, d):
    return dhn.clustering_to_matrix(dhn.Clustering(rng.integers(0, d, size=n), d))


def random_classification_net(rng, n, d, diag="nonneg", with_bias=True):
    w = random_symmetric(rng, n, diag=diag)
    b = rng.uniform(-1.0, 1.0, size=(n, d)) if with_bias else np.zeros((n, d))
    return dhn.DhnNetwork(w, b, dhn.Activation.CLASSIFICATION)


def svd_polar(m):
    """Polar factor U Vt of the thin SVD M = U S Vt: the reference for ``dhn.stiefel_project``."""
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    return u @ vt


def random_positive_graph(rng, n, density=0.6, self_loops=False):
    """Random symmetric graph with nonnegative weights and volume > 0.

    The diagonal is zero unless ``self_loops``: then each node has a loop of
    integer weight 1..3 with probability 0.4.
    """
    mask = rng.random((n, n)) < density
    w = rng.uniform(0.2, 2.0, size=(n, n)) * mask
    w = np.triu(w, k=1)
    w = w + w.T
    if w.sum() == 0.0:  # guarantee at least one edge
        w[0, 1] = w[1, 0] = 1.0
    if self_loops:
        np.fill_diagonal(w, rng.integers(1, 4, size=n) * (rng.random(n) < 0.4))
    return dhn.WeightedGraph(w)


@pytest.fixture(scope="session")
def karate_with_self_loops(tmp_path_factory):
    """Karate loaded from its edge list with the i-th line weighing i % 3 + 1, then
    the lines ``0 0 2`` and ``5 5 3``: integer weights, ties and two self-loops."""
    path = tmp_path_factory.mktemp("loops") / "loops.edges"
    write_edge_list(karate_club(), path)
    edges = [line.split()[:2] for line in path.read_text().splitlines()]
    lines = [f"{u} {v} {i % 3 + 1}" for i, (u, v) in enumerate(edges, 1)] + ["0 0 2", "5 5 3"]
    path.write_text("\n".join(lines) + "\n")
    graph = load_edge_list(path)
    assert np.count_nonzero(graph.weights.diagonal()) == 2
    return graph


def planted_graph(rng, n, blocks, avg_degree=16, mixing=0.3):
    """Sparse unit-weight planted partition, built without an n x n array.

    Node i is in block i % blocks (n a multiple of blocks).  Of the
    avg_degree * n / 2 edge draws, a ``mixing`` share goes to any node and the
    rest inside the drawing node's block; repeats and self-pairs are dropped.
    """
    m = avg_degree * n // 2
    src = rng.integers(0, n, size=m)
    inside = src % blocks + blocks * rng.integers(0, n // blocks, size=m)
    dst = np.where(rng.random(m) < mixing, rng.integers(0, n, size=m), inside)
    keep = src != dst
    w = sp.coo_array((np.ones(keep.sum()), (src[keep], dst[keep])), shape=(n, n))
    return dhn.WeightedGraph(((w + w.T) > 0).astype(float))


def serial_fixed_points(net, states):
    """Filter states that every single deterministic serial step leaves unchanged.

    This is the operational fixed-point notion (argmax with lowest-index
    tie-break); on tie-free instances it coincides with the census.
    """
    out = []
    for c in states:
        x = dhn.clustering_to_matrix(c)
        if all(np.array_equal(dhn.serial_step(net, x, i), x) for i in range(net.n)):
            out.append(c)
    return out


def extended_cut_of_state(ext, x):
    """d-cut of the canonical extension of X inside the extended graph."""
    return dhn.d_cut_via_trace(ext.as_graph(), dhn.canonical_extension(x))

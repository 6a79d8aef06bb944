"""Embedding propagation: iterated neighbor averaging with row normalization.

Each node carries a d-dimensional embedding row.  One propagation step
replaces every row by the weighted sum of its neighbors' rows and rescales it
to unit length; this is exactly a parallel network step with the row
normalizer as activation and zero bias.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .clustering import WeightedGraph
from .core import l2_normalize_rows

__all__ = ["run_cleora", "write_embedding"]

# Default propagations of run_cleora and of `dhn cluster --method cleora`; more make
# rows collinear (karate, d = 2: least |cos| 0.005 after 3 steps, 0.9988 after 30).
CLEORA_ITERS = 3


def run_cleora(
    graph: WeightedGraph,
    d: int,
    iters: int = CLEORA_ITERS,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Propagate seeded random embeddings through the graph.

    The n x d start matrix has i.i.d. uniform(-1, 1) entries drawn from
    ``seed``; each of the ``iters`` steps computes l2_normalize_rows(W X).
    With iters = 0 the start matrix is returned unchanged.  Rows that become
    exactly zero stay zero, but a graph with no nonzero weight raises ValueError.
    """
    if d < 1:
        raise ValueError("embedding dimension d must be positive")
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    if iters >= 1 and graph.weights.nnz == 0:
        raise ValueError("the graph has no nonzero weight: every propagated row would be zero")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(graph.n, d))
    for _ in range(iters):
        x = graph.weights @ x  # frees the old state before the normalized one is made
        x = l2_normalize_rows(x)
    return x


def write_embedding(path, embedding: np.ndarray, labels=None) -> None:
    """Write one node per line: its label then d decimals with 17 significant digits."""
    embedding = np.asarray(embedding, dtype=float)
    if embedding.ndim != 2:
        raise ValueError("embedding must be a 2-d matrix")
    if labels is None:
        labels = range(embedding.shape[0])
    if len(labels) != embedding.shape[0]:
        raise ValueError("label count must match the number of embedding rows")
    # one format call per row; a whole-matrix tolist() would hold n*d floats
    template = "%s " + " ".join(["%.17g"] * embedding.shape[1]) + "\n"
    with open(path, "w") as fh:
        for label, row in zip(labels, embedding):
            fh.write(template % (label, *row.tolist()))

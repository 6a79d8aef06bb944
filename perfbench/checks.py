"""Output checks for ``dhn cluster`` results; each failure raises ``CheckFailed``."""

from __future__ import annotations

import json
import math

import numpy as np


class CheckFailed(ValueError):
    """An output of the program is wrong."""


def _reject_constant(name: str):
    raise CheckFailed(f"result is not strict JSON: contains {name}")


def load_strict(text: str):
    """Parse JSON, rejecting the ``NaN``/``Infinity`` extensions Python accepts."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"result is not JSON: {exc}") from None


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_assignment(doc: dict, labels) -> dict:
    """The assignment maps exactly the input labels to cluster indices."""
    assignment = doc.get("assignment")
    if not isinstance(assignment, dict):
        raise CheckFailed("result has no assignment")
    if set(assignment) != set(labels):
        missing = sorted(set(labels) - set(assignment))[:3]
        extra = sorted(set(assignment) - set(labels))[:3]
        raise CheckFailed(f"assignment labels differ from the input: missing {missing}, extra {extra}")
    if not all(isinstance(c, int) and c >= 0 for c in assignment.values()):
        raise CheckFailed("assignment has a non-integer or negative cluster")
    return assignment


def check_modularity(doc: dict, nx_graph) -> None:
    """Stored modularity equals networkx's independent computation to 1e-9."""
    import networkx as nx

    clusters: dict = {}
    for label, c in doc["assignment"].items():
        clusters.setdefault(c, set()).add(label)
    expected = nx.community.modularity(nx_graph, list(clusters.values()))
    stored = doc.get("modularity")
    if not isinstance(stored, float) or not _close(stored, expected):
        raise CheckFailed(f"stored modularity {stored!r} != networkx {expected!r}")


def check_rescore(doc: dict, scores: dict) -> None:
    """``dhn eval`` on the stored assignment reproduces the stored scores."""
    for key in ("modularity", "d_cut"):
        stored = doc.get(key)
        if not isinstance(stored, float) or not _close(stored, scores[key]):
            raise CheckFailed(f"stored {key} {stored!r} != re-scored {scores[key]!r}")


def load_embedding(path, labels, dim: int) -> tuple:
    """Return (labels in file order, n x dim rows); every row finite and unit-norm."""
    names, rows = [], []
    with open(path) as fh:
        for line in fh:
            tokens = line.split()
            if len(tokens) != dim + 1:
                raise CheckFailed(f"embedding row has {len(tokens) - 1} values, expected {dim}")
            names.append(tokens[0])
            rows.append(tokens[1:])
    if sorted(names) != sorted(labels):
        raise CheckFailed(f"embedding has {len(names)} rows that do not match the {len(labels)} input labels")
    x = np.array(rows, dtype=float)
    if not np.all(np.isfinite(x)):
        raise CheckFailed("embedding has a non-finite value")
    norms = np.linalg.norm(x, axis=1)
    if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-9):
        raise CheckFailed(f"embedding row norms range {norms.min():.17g}..{norms.max():.17g}, not 1")
    return names, x


def nn_block_share(names, x: np.ndarray, blocks: dict, chunk: int = 512) -> float:
    """Share of rows whose cosine-nearest other row lies in the same planted block."""
    block = np.array([blocks[name] for name in names])
    hits = 0
    for start in range(0, x.shape[0], chunk):
        sims = x[start : start + chunk] @ x.T
        rows = np.arange(sims.shape[0])
        sims[rows, start + rows] = -np.inf
        hits += int(np.sum(block[np.argmax(sims, axis=1)] == block[start : start + chunk]))
    return hits / x.shape[0]

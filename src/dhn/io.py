"""Edge-list ingestion, run configuration, and result documents.

The edge-list format is line-oriented: ``source target [weight]`` with
whitespace separation, ``#`` starting a comment line, default weight 1.0.
Results are stored as JSON documents with a fixed field order and full
round-trip float precision, so re-scoring a stored assignment reproduces the
stored numbers.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import count
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .clustering import Clustering, WeightedGraph, d_cut_value
from .core import ConvergenceCriterion, RunReport, canonical_csr, max_asymmetry
from .embedding import CLEORA_ITERS
from .modularity import modularity_score

__all__ = [
    "EdgeListParseError",
    "RunConfig",
    "load_edge_list",
    "load_result",
    "result_document",
    "score_assignment",
    "write_edge_list",
    "write_result",
]

RESULT_FORMAT_VERSION = 2

METHODS = ("lms", "plms", "gnm", "sgnm", "gnm-lms", "newman", "cleora")


class EdgeListParseError(ValueError):
    """A malformed edge-list line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class RunConfig:
    """Everything a clustering run needs besides the graph itself."""

    method: str
    dim: int = 2
    seed: int = 0
    epsilon: float = ConvergenceCriterion.epsilon
    window: int = ConvergenceCriterion.window
    max_iters: Optional[int] = None  # the stopping budget; cleora's propagation count
    input: str = ""
    output: str = ""
    directed_reject: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose one of {', '.join(METHODS)}")
        if self.max_iters is None:
            default = CLEORA_ITERS if self.method == "cleora" else ConvergenceCriterion.max_iters
            object.__setattr__(self, "max_iters", default)
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.method == "newman" and self.dim != 2:
            raise ValueError("method 'newman' always produces 2 clusters; use --dim 2")
        self.criterion()  # rejects a bad epsilon, window or max_iters

    def criterion(self) -> ConvergenceCriterion:
        return ConvergenceCriterion(self.epsilon, self.window, self.max_iters)


def load_edge_list(path, directed_reject: bool = False) -> WeightedGraph:
    """Parse a whitespace-separated edge list into a weighted graph.

    Node labels become indices 0..n-1 in order of first appearance.  Repeated
    records of the same (unordered) pair sum their weights and the matrix is
    symmetrized.  With ``directed_reject`` records are taken as directed
    entries instead and any asymmetry in the resulting matrix is an error.
    Weights must be finite numbers.
    """
    with open(path) as fh:  # a file that is not plain is parsed again, line by line
        labels, i, j, data = _parse_plain(fh) or _parse_lines(fh)
    n = len(labels)
    if not directed_reject:  # sum each unordered pair once, then mirror it
        i, j = np.minimum(i, j), np.maximum(i, j)
    w = canonical_csr(sp.coo_array((data, (i, j)), shape=(n, n)))
    del i, j, data
    if directed_reject:
        if max_asymmetry(w) > 0.0:
            raise ValueError("edge list is not symmetric (running with --directed-reject)")
    elif w.nnz:  # W = upper + triu(upper, 1).T: with the transposed entries first,
        # the stable COO -> CSR bins leave every row sorted and sum no value
        rows = np.repeat(np.arange(n, dtype=w.indices.dtype), np.diff(w.indptr))
        off = rows != w.indices
        data = np.concatenate([w.data[off], w.data])
        i, j = np.concatenate([w.indices[off], rows]), np.concatenate([rows[off], w.indices])
        del w, rows, off
        w = sp.coo_array((data, (i, j)), shape=(n, n)).tocsr()
        del i, j, data
    return WeightedGraph(w, node_labels=labels)


# Characters read per block by the plain-file parse.  Blocks of 2 KiB parse
# as fast as 16 KiB ones, and their short-lived tokens leave no measurable
# rise in peak resident memory, where 16 KiB blocks raised the cleora-6k
# benchmark's peak by about 0.2 MiB.
_BLOCK_CHARS = 1 << 11


def _parse_plain(fh):
    """``(labels, i, j, data)`` of a file of plain ``u v`` lines, else None.

    A block is plain when it holds no ``#`` and its tokens, rejoined as
    ``u v\\n`` lines with single spaces, give back the block (the file's last
    line may lack its newline).  Every other input, and the line number of
    any error, is left to the per-line parse.
    """
    index = defaultdict(count().__next__)  # a new label takes the next index
    ids = array("q")  # endpoint ids, source and target in turn
    while block := fh.read(_BLOCK_CHARS):
        block += fh.readline()  # end the block on a whole line
        tokens = block.split()
        pairs = len(tokens) // 2
        if "#" in block or 2 * pairs != len(tokens):
            return None
        lines = "%s %s\n" * pairs % tuple(tokens)
        if lines != block and lines != block + "\n":
            return None
        ids.extend(map(index.__getitem__, tokens))
    if not ids:  # an empty file, which the per-line parse reports
        return None
    labels = tuple(index)
    del index
    ends = np.frombuffer(ids, dtype=np.int64)  # a view: no copy of the ids is made
    return labels, ends[0::2], ends[1::2], np.ones(len(ends) // 2)


def _parse_lines(fh):
    """``(labels, i, j, data)`` of any edge-list file, one line at a time from its start."""
    fh.seek(0)
    index: dict = {}
    # flat lists, not a tuple per edge: surviving tuples are tracked by the
    # cyclic garbage collector and made large loads pay full collections
    sources, targets, weights = [], [], []
    for lineno, raw in enumerate(fh, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) == 2:
            u, v = tokens
            weight = 1.0
        elif len(tokens) == 3:
            u, v, text = tokens
            try:
                weight = float(text)
            except ValueError:
                raise EdgeListParseError(f"weight {text!r} is not a number", lineno) from None
            if not math.isfinite(weight):
                raise EdgeListParseError(f"weight {text!r} is not finite", lineno)
        else:
            raise EdgeListParseError(
                f"expected 'source target [weight]', got {len(tokens)} tokens", lineno
            )
        sources.append(index.setdefault(u, len(index)))
        targets.append(index.setdefault(v, len(index)))
        weights.append(weight)
    if not sources:
        raise EdgeListParseError("edge list contains no edges", 0)
    # each list is dropped once its array exists
    labels = tuple(index)
    del index
    i = np.array(sources)
    del sources
    j = np.array(targets)
    del targets
    data = np.array(weights)
    del weights
    return labels, i, j, data


def write_edge_list(graph: WeightedGraph, path) -> None:
    """Write each undirected edge once as ``u v weight``.

    Edges are grouped by their larger endpoint in increasing order, so that
    whenever every node (after the first) has a lower-index neighbor, loading
    the file reproduces the graph's node order exactly.
    """
    labels = graph.labels()
    upper = sp.triu(graph.weights).tocoo()  # entries (j, k) with j <= k
    order = np.lexsort((upper.row, upper.col))
    with open(path, "w") as fh:
        for j, k, value in zip(upper.row[order], upper.col[order], upper.data[order]):
            fh.write(f"{labels[j]} {labels[k]} {value:.17g}\n")


def score_assignment(graph: WeightedGraph, assignment_by_label: dict) -> dict:
    """Re-score a stored label->cluster mapping on a graph.

    It must map every graph node, and no other label, to a non-negative int
    (not a bool); the offending label is named otherwise.  Scores are taken on
    the clusters renumbered by first appearance, so a huge index costs
    nothing; ``clusters`` is the largest stored index plus one.
    """
    if not isinstance(assignment_by_label, dict):
        raise ValueError("the assignment must be a JSON object mapping node labels to clusters")
    labels = graph.labels()
    known = set(labels)
    for label, value in assignment_by_label.items():
        if label not in known:
            raise ValueError(f"assignment mentions unknown node label {label!r}")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"node label {label!r} has cluster {value!r}, not an int >= 0")
    missing = [label for label in labels if label not in assignment_by_label]
    if missing:
        raise ValueError(f"assignment does not cover node label {missing[0]!r}")
    values = [assignment_by_label[label] for label in labels]
    clustering = Clustering(values, max(values) + 1).canonical()
    return {
        "modularity": modularity_score(graph, clustering),
        "d_cut": d_cut_value(graph, clustering),
        "clusters": max(values) + 1,
    }


def result_document(
    config: RunConfig,
    graph: WeightedGraph,
    clustering: Optional[Clustering],
    embedding_path: Optional[str],
    report: Optional[RunReport],
    wall_time_s: float,
) -> dict:
    """Assemble the result document with a fixed field order."""
    assignment = modularity = d_cut = None
    if clustering is not None:
        assignment = dict(zip(graph.labels(), clustering.assignment))
        modularity = modularity_score(graph, clustering)
        d_cut = d_cut_value(graph, clustering)
    # only cleora runs without a report; its iterations are its propagations
    iterations, outcome, energy_trace = config.max_iters, None, None
    if report is not None:
        iterations, outcome = report.iterations, report.outcome.value
        energy_trace = report.energy_trace
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "method": config.method,
        "config": {k: v for k, v in asdict(config).items() if k not in ("method", "output")},
        "n_nodes": graph.n,
        "assignment": assignment,
        "embedding_path": embedding_path,
        "modularity": modularity,
        "d_cut": d_cut,
        "energy_trace": energy_trace,
        "iterations": iterations,
        "outcome": outcome,
        "wall_time_s": wall_time_s,
    }


# json.dumps indents with its pure-Python encoder; this C encoding of a flat
# list or object puts each entry on its own line, as indent=2 does one level in
_encode_flat = json.JSONEncoder(allow_nan=False, separators=(",\n    ", ": ")).encode


def write_result(document: dict, path) -> None:
    """Write json.dumps(document, indent=2) for a document nested one level deep, as
    result documents are.  It is strict JSON: NaN or infinite values raise ValueError."""
    fields = []
    for key, value in document.items():
        text = _encode_flat(value)
        if isinstance(value, (dict, list)) and value:
            text = f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}"
        fields.append(f"  {_encode_flat(key)}: {text}")
    text = "{\n" + ",\n".join(fields) + "\n}" if fields else "{}"
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_result(path) -> dict:
    with open(path) as fh:
        return json.load(fh)

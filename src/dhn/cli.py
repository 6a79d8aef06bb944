"""Command-line interface: cluster a graph, or re-score a stored assignment.

Exit codes: 0 success, 2 usage error, 3 edge-list parse error, 4 numeric or
degenerate-input error, or an allocation that fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .clustering import WeightedGraph
from .embedding import run_cleora, write_embedding
from .io import (
    METHODS,
    EdgeListParseError,
    RunConfig,
    load_edge_list,
    load_result,
    result_document,
    score_assignment,
    write_result,
)
from .modularity import DegenerateSpectrumError, _newman_run, run_lms, run_plms
from .stiefel import run_gnm, run_gnm_plus_lms, run_sgnm

__all__ = ["cluster_command", "eval_command", "main"]

USAGE_ERROR, PARSE_ERROR, NUMERIC_ERROR = 2, 3, 4


class UsageError(ValueError):
    """Method/config mismatch detected before any computation."""


def cluster_command(config: RunConfig, graph: WeightedGraph) -> dict:
    """Run the configured method on a graph and assemble its result document."""
    if config.method in ("gnm", "sgnm", "gnm-lms") and config.dim > graph.n:
        raise UsageError(
            f"method {config.method!r} needs --dim <= node count ({config.dim} > {graph.n})"
        )
    crit = config.criterion()
    start = time.perf_counter()
    clustering = embedding_path = report = None
    if config.method == "cleora":
        embedding = run_cleora(graph, config.dim, iters=config.max_iters, seed=config.seed)
        embedding_path = config.output + ".emb"
        write_embedding(embedding_path, embedding, labels=graph.labels())
    elif config.method == "newman":
        clustering, report = _newman_run(graph, config.seed, crit)
    elif config.method == "lms":
        clustering, report = run_lms(graph, crit=crit)
    else:  # same signature; built per call, so names patched here (perfbench's tracer) are used
        runner = {"plms": run_plms, "gnm": run_gnm, "sgnm": run_sgnm, "gnm-lms": run_gnm_plus_lms}
        clustering, report = runner[config.method](graph, config.dim, seed=config.seed, crit=crit)
    wall_time_s = time.perf_counter() - start
    return result_document(config, graph, clustering, embedding_path, report, wall_time_s)


def eval_command(graph: WeightedGraph, assignment_path) -> dict:
    """Re-score the ``assignment`` field of a JSON object, such as a result document."""
    document = load_result(assignment_path)
    assignment = document.get("assignment") if isinstance(document, dict) else None
    if assignment is None:
        raise ValueError(f"{assignment_path} contains no 'assignment' mapping")
    return score_assignment(graph, assignment)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dhn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # an omitted flag takes its RunConfig default
    cluster = sub.add_parser(
        "cluster", help="cluster a graph and store the result", argument_default=argparse.SUPPRESS
    )
    cluster.add_argument("--method", required=True, choices=METHODS)
    cluster.add_argument("--input", required=True, help="edge-list file")
    cluster.add_argument("--output", required=True, help="result JSON path")
    cluster.add_argument("--dim", type=int, help="cluster/embedding dimension")
    cluster.add_argument("--seed", type=int, help="RNG seed (or env DHN_SEED)")
    cluster.add_argument("--epsilon", type=float)
    cluster.add_argument("--window", type=int)
    cluster.add_argument("--max-iters", type=int)
    cluster.add_argument("--directed-reject", action="store_true")

    evaluate = sub.add_parser("eval", help="re-score a stored assignment")
    evaluate.add_argument("--input", required=True, help="edge-list file")
    evaluate.add_argument("--assignment", required=True, help="result JSON with an assignment")
    evaluate.add_argument("--directed-reject", action="store_true")
    return parser


def _resolve_seed(seed) -> int:
    if seed is not None:
        return seed
    text = os.environ.get("DHN_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"DHN_SEED must be an integer, got {text!r}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "cluster":
            flags = {name: value for name, value in vars(args).items() if name != "command"}
            try:  # bad flags or DHN_SEED are usage errors, caught before the input is read
                flags["seed"] = _resolve_seed(flags.get("seed"))
                config = RunConfig(**flags)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            graph = load_edge_list(config.input, directed_reject=config.directed_reject)
            document = cluster_command(config, graph)
            try:
                write_result(document, config.output)
            except BaseException:  # a failed run leaves no embedding behind either
                if document["embedding_path"] is not None:
                    os.remove(document["embedding_path"])
                raise
            if document["modularity"] is not None:
                print(f"modularity {document['modularity']:.6f}  d-cut {document['d_cut']:.6f}")
            print(f"wrote {config.output}")
        else:
            graph = load_edge_list(args.input, directed_reject=args.directed_reject)
            scores = eval_command(graph, args.assignment)
            print(f"modularity {scores['modularity']:.17g}")
            print(f"d_cut {scores['d_cut']:.17g}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except EdgeListParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (ValueError, OSError, MemoryError, DegenerateSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())

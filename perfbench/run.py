"""Benchmark of the ``dhn cluster`` command on planted-partition graphs.

    python3 perfbench/run.py --workload lms-1k --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Inputs are generated from ``--seed`` in this process.  A fresh worker process
(``worker.py``, BLAS pinned to one thread) then calls ``dhn.cli.main``
in-process for ``--seconds``, timing ``dhn.io.load_edge_list`` between the
calls.  Back here every output is checked, and the last
line printed is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics (spans around each ``dhn`` module's public functions) with
``--trace 1``.  The exit code is non-zero when any output check fails.
See README.md beside this file for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

AVG_DEGREE = 16
MIXING = 0.3
# Share of an untraced window spent timing set-up loads, between the cluster
# calls, so that they sample the whole window.
SETUP_SHARE = 0.15
WORKER_GRACE_S = 60  # a worker still running this long after its window is killed


def upper_quartile(values: list) -> float:
    """75th percentile: the set-up statistic.

    Set-up is mostly Python parsing, and the host runs it either fast or about
    1.6 times slower (about 16 or 27 ms per lms-1k load), in stretches that can
    cover a whole run.  The median of a run's loads follows whichever stretch
    holds half of them: over ten seeds its spread on lms-1k was 0.34 of the
    median.  The upper quartile reads the common slow level unless three
    quarters of a run are fast.
    """
    return statistics.quantiles(values, n=4)[2]


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    args: tuple
    graphs: int  # distinct graphs per untraced run, each called at least once; quality is their mean

    @property
    def method(self) -> str:
        return self.args[self.args.index("--method") + 1]

    @property
    def dim(self) -> int:
        return int(self.args[self.args.index("--dim") + 1]) if "--dim" in self.args else 2


# Sweep and step budgets sit below where LMS (7-13 sweeps), PLMS (15-29
# steps) and GNM (about 800 to over 1000 steps) converge on these graphs, so
# every graph costs the same number of sweeps or steps and run time reads the
# per-sweep/per-step cost, not how soon a given graph happens to converge.
# Graph counts are set so that the minimum of one call per graph plus the
# repeat of graph 0 fits a 26 s window at the measured call times; plms-4k5's
# four calls fill it, and run a few seconds past it when the host is slow.
# Reasons for each workload: BENCHMARK.json.
WORKLOADS = {
    "lms-1k": Workload(1000, 10, ("--method", "lms", "--max-iters", "6"), 8),
    "plms-4k5": Workload(4500, 16, ("--method", "plms", "--dim", "16", "--max-iters", "12"), 3),
    "gnm-lms-2k": Workload(2000, 10, ("--method", "gnm-lms", "--dim", "10", "--max-iters", "200"), 12),
    "cleora-6k": Workload(6000, 20, ("--method", "cleora", "--dim", "64", "--max-iters", "3"), 4),
}

class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed output check)."""


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": PINNED_THREADS,
    }


def dhn_eval(input_path, output_path) -> dict:
    """Scores from ``dhn eval`` on a stored assignment."""
    import dhn.cli
    from checks import CheckFailed

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = dhn.cli.main(["eval", "--input", str(input_path), "--assignment", str(output_path)])
    if rc != 0:
        raise CheckFailed(f"dhn eval exited {rc}")
    return {key: float(value) for key, value in (line.split() for line in buf.getvalue().splitlines())}


def _fingerprint(doc: dict, output: str) -> str:
    """Everything a run on the same input must reproduce exactly."""
    doc = {key: value for key, value in doc.items() if key not in ("wall_time_s", "embedding_path")}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    if os.path.exists(output + ".emb"):
        with open(output + ".emb", "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class OutputChecker:
    """Checks each invocation's output; a repeat on the same graph must match the first."""

    def __init__(self, workload: Workload, graphs: list):
        self.workload = workload
        self.graphs = graphs
        self.first: dict = {}  # graph index -> (fingerprint, scores)

    def check(self, invocation: dict) -> dict:
        from checks import (
            CheckFailed,
            check_assignment,
            check_modularity,
            check_rescore,
            load_embedding,
            load_strict,
            nn_block_share,
        )
        from planted import nmi

        if invocation["rc"] != 0:
            raise CheckFailed(f"exit code {invocation['rc']!r}")
        output = invocation["output"]
        with open(output) as fh:
            doc = load_strict(fh.read())
        key = _fingerprint(doc, output)
        index = invocation["graph"]
        if index in self.first:
            if self.first[index][0] != key:
                raise CheckFailed("output differs from an earlier run on the same input and seed")
            return self.first[index][1]

        graph = self.graphs[index]
        if self.workload.method == "cleora":
            names, x = load_embedding(output + ".emb", graph["labels"], self.workload.dim)
            share = nn_block_share(names, x, graph["blocks"])
            scores = {"quality.modularity": 0.0, "quality.nmi": 0.0, "quality.nn_block_share": share}
            scores["block_agreement"] = share
        else:
            assignment = check_assignment(doc, graph["labels"])
            check_modularity(doc, graph["nx"])
            check_rescore(doc, dhn_eval(graph["input"], output))
            agreement = nmi(graph["blocks"], assignment)
            scores = {"quality.modularity": doc["modularity"], "quality.nmi": agreement}
            scores.update({"quality.nn_block_share": 0.0, "block_agreement": agreement})
        self.first[index] = (key, scores)
        return scores


def make_graphs(name: str, workload: Workload, seed: int, count: int, rundir: Path) -> list:
    import networkx as nx

    from planted import planted_partition

    rng = random.Random(f"{name}:{seed}")
    graphs = []
    for j in range(count):
        graph_seed = rng.randrange(2**31)
        text, blocks = planted_partition(workload.n, workload.k, AVG_DEGREE, MIXING, graph_seed)
        path = rundir / f"graph-{j}.txt"
        path.write_text(text)
        nx_graph = nx.Graph()
        nx_graph.add_edges_from(line.split() for line in text.splitlines())
        graphs.append(
            {"input": str(path), "seed": graph_seed, "blocks": blocks, "labels": list(blocks), "nx": nx_graph}
        )
    return graphs


def run_worker(name: str, rundir: Path, spec: dict) -> dict:
    """Run one worker process to completion and return what it measured."""
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = {**os.environ, **PINNED_THREADS}
    limit = spec["seconds"] + WORKER_GRACE_S
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)], env=env, timeout=limit)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name}: worker did not finish within {limit:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{name}: worker exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text())


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns attempted, failed, metrics {name: (value, unit, samples)}."""
    workload = WORKLOADS[name]
    rundir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    graphs = make_graphs(name, workload, seed, 1 if trace else workload.graphs, rundir)
    spec = {
        "src": str(SRC),
        "graphs": [{"input": g["input"], "seed": g["seed"]} for g in graphs],
        "args": list(workload.args),
        "setup_share": SETUP_SHARE,
        "outdir": str(rundir),
        "spans": str(WORK / f"spans-{name}-seed{seed}.jsonl"),
        "result": str(rundir / "worker.json"),
    }
    result = run_worker(name, rundir, {**spec, "mode": "trace" if trace else "cluster", "seconds": seconds})

    checker = OutputChecker(workload, graphs)
    failed = 0
    quality = {}
    for invocation in result["invocations"]:
        try:
            quality[invocation["graph"]] = checker.check(invocation)
        except (ValueError, KeyError, TypeError, OSError) as exc:  # CheckFailed, or output too malformed to check
            failed += 1
            print(f"{name}: check failed for {invocation['output']}: {exc}", file=sys.stderr)
        with contextlib.suppress(FileNotFoundError):
            os.remove(invocation["output"] + ".emb")

    times = [inv["s"] for inv in result["invocations"] if not inv["traced"]]
    if trace:
        from layers import per_layer_metrics

        traced = [inv["s"] for inv in result["invocations"] if inv["traced"]]
        metrics = {}
        for metric, unit in per_layer_metrics():
            values = [layer[metric] for layer in result["layers"] if metric in layer]
            if values:
                metrics[metric] = (statistics.median(values), unit, len(values))
        scores = quality.get(0, {})
        for metric in ("quality.modularity", "quality.nmi", "quality.nn_block_share"):
            metrics[metric] = (scores.get(metric, 0.0), "1", 1 if scores else 0)
        metrics["cli.import_s"] = (result["import_s"], "s", 1)
        metrics["trace.cluster_s"] = (statistics.median(traced), "s", len(traced))
        overhead = statistics.median(traced) / statistics.median(times) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "1", len(traced) + len(times))
        if result["absent"]:
            print(f"{name}: absent from the library: {', '.join(result['absent'])}")
    else:
        agreement = [scores["block_agreement"] for scores in quality.values()]
        metrics = {
            "cluster_s": (statistics.median(times), "s", len(times)),
            "setup_s": (upper_quartile(result["setup_s"]), "s", len(result["setup_s"])),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB", 1),
            "block_agreement": (statistics.fmean(agreement) if agreement else 0.0, "1", len(agreement)),
        }
    shutil.rmtree(rundir, ignore_errors=True)
    return {"attempted": len(result["invocations"]), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dhn" / "__init__.py").is_file():
        print(f"error: no dhn sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)  # before numpy loads its BLAS in this process
    sys.path[:0] = [str(HERE), str(SRC)]

    print("env " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined = {}
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += report["attempted"]
        failed += report["failed"]
        print(f"{name}: {report['failed']} of {report['attempted']} invocations failed a check")
        for metric, (value, unit, samples) in report["metrics"].items():
            print(f"{name} {metric} = {value:.6g} {unit} (n={samples})")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            combined[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

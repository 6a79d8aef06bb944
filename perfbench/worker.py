"""One measuring process: times in-process ``dhn`` calls for a fixed window.

Run as ``python3 worker.py SPEC.json`` by ``run.py``, one worker at a time and a
fresh one per benchmark run, so its peak resident set is that of this run alone.
The spec names the generated input files, the ``dhn cluster`` arguments, the
window length and the mode, ``cluster`` or ``trace``.  The worker writes its
measurements to the spec's ``result`` path.  Outputs are checked by ``run.py``
after the worker has exited, so checking adds neither time nor memory here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _invoke(main, argv) -> tuple:
    """Run ``dhn.cli.main(argv)`` with its console output discarded."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed invocation, not a failed benchmark
        print(f"worker: {argv[:4]} raised {exc!r}", file=sys.stderr)
        rc = repr(exc)
    return time.perf_counter() - start, rc


def _peak_rss_mb() -> float:
    """High-water resident set of this process's own address space, in MiB.

    ``ru_maxrss`` would not do: Linux carries the parent's high-water mark
    into the child across exec, so it would report the footprint of run.py.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _layer_metrics(tracer, graph, output) -> dict:
    from layers import SPAN_NAMES  # imported late: it loads scipy, which import_s must include

    totals = tracer.totals()
    out = {}
    for name in SPAN_NAMES:
        entry = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for stat in ("s", "self_s", "calls"):
            out[f"{name}.{stat}"] = entry[stat]
    for name in (
        "core.run_serial.sweeps",
        "core.run_parallel.steps",
        "core.run_parallel.budget_exhausted",
        "core.weights_stored",
        "core.weights_bytes",
    ):
        out[name] = tracer.counts.get(name, 0)
    sweeps = out["core.run_serial.sweeps"]
    calls = out["core.parallel_step.calls"]
    out["core.run_serial.s_per_sweep"] = out["core.run_serial.s"] / sweeps if sweeps else 0.0
    out["core.parallel_step.s_per_call"] = out["core.parallel_step.s"] / calls if calls else 0.0
    out["io.input_bytes"] = _file_size(graph["input"])
    out["io.result_bytes"] = _file_size(output)
    out["embedding.emb_bytes"] = _file_size(output + ".emb")
    return out


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import dhn.cli
    import dhn.io

    import_s = time.perf_counter() - start
    if not os.path.realpath(dhn.cli.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"worker: imported dhn from {dhn.cli.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2

    graphs = spec["graphs"]
    deadline = time.perf_counter() + spec["seconds"]
    result = {"import_s": import_s, "setup_s": [], "invocations": [], "layers": [], "absent": []}

    # Untraced runs call every graph once, then repeat graph 0 (the repeat
    # check), then cycle through the graphs until the window ends.  Before each
    # call they time ``load_edge_list`` until loads have taken ``setup_share``
    # of the time so far, so set-up is sampled across the whole window.
    # Traced runs alternate untraced and traced calls on the first graph, so
    # the two sides see the same input.
    trace = spec["mode"] == "trace"
    modes = [True, False] if trace else [False]
    minimum = len(modes) if trace else len(graphs) + 1
    setup_ratio = 0.0 if trace else spec["setup_share"] / (1.0 - spec["setup_share"])
    called = 0.0  # seconds spent in untraced calls
    tracers = []
    last = {}
    index = 0
    while True:
        traced = modes[index % len(modes)]
        if index >= minimum and time.perf_counter() + last[traced] * (1.0 + setup_ratio) > deadline:
            break
        while not trace and (not result["setup_s"] or sum(result["setup_s"]) < setup_ratio * called):
            start = time.perf_counter()
            dhn.io.load_edge_list(graphs[len(result["setup_s"]) % len(graphs)]["input"])
            result["setup_s"].append(time.perf_counter() - start)
        graph_index = 0 if trace or index == len(graphs) else index % len(graphs)
        graph = graphs[graph_index]
        output = os.path.join(spec["outdir"], f"out-{index}.json")
        argv = ["cluster", "--input", graph["input"], "--output", output, "--seed", str(graph["seed"])]
        argv += spec["args"]
        if traced:
            from layers import Tracer, install, restore

            tracer = Tracer()
            undo, result["absent"] = install(tracer)
            try:
                seconds, rc = _invoke(dhn.cli.main, argv)
            finally:
                restore(undo)
            tracers.append(tracer)
            result["layers"].append(_layer_metrics(tracer, graph, output))
        else:
            seconds, rc = _invoke(dhn.cli.main, argv)
            called += seconds
        last[traced] = seconds
        result["invocations"].append(
            {"graph": graph_index, "output": output, "rc": rc, "s": seconds, "traced": traced}
        )
        index += 1

    result["peak_rss_mb"] = _peak_rss_mb()
    if tracers:
        with open(spec["spans"], "w") as fh:
            for run, tracer in enumerate(tracers):
                for name, begin, end, parent in tracer.spans:
                    fh.write(json.dumps([run, name, begin, end, parent]) + "\n")
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

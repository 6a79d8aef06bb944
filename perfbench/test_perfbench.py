"""Tests of the benchmark's own code: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import networkx as nx  # noqa: E402

from checks import CheckFailed, check_modularity, check_rescore, load_strict  # noqa: E402
from layers import Tracer, install, per_layer_metrics, restore  # noqa: E402
from planted import nmi, planted_partition  # noqa: E402


def test_same_seed_gives_byte_identical_edge_lists():
    first, blocks = planted_partition(300, 6, 16, 0.3, seed=7)
    second, again = planted_partition(300, 6, 16, 0.3, seed=7)
    assert first == second and blocks == again
    assert planted_partition(300, 6, 16, 0.3, seed=8)[0] != first


def test_planted_partition_shape():
    text, blocks = planted_partition(300, 6, 16, 0.3, seed=3)
    edges = [tuple(line.split()) for line in text.splitlines()]
    assert len(edges) == 300 * 16 // 2
    assert len({frozenset(e) for e in edges}) == len(edges)
    assert {u for e in edges for u in e} == set(blocks)  # no isolated node
    crossing = sum(blocks[u] != blocks[v] for u, v in edges)
    assert crossing == round(0.3 * len(edges))
    # labels first met in file order are not grouped by block
    first_seen = list(dict.fromkeys(u for e in edges for u in e))
    assert [blocks[u] for u in first_seen[:20]] != sorted(blocks[u] for u in first_seen[:20])
    with pytest.raises(ValueError, match="do not fit"):
        planted_partition(10, 10, 4, 0.3, seed=0)  # singleton blocks hold no intra-block edge


def test_nmi_is_one_on_relabelled_truth_and_low_on_noise():
    truth = {f"n{i}": i % 4 for i in range(40)}
    assert nmi(truth, {x: 3 - c for x, c in truth.items()}) == pytest.approx(1.0)
    assert nmi(truth, {x: 0 for x in truth}) == pytest.approx(0.0)


def test_strict_json_rejects_nan():
    doc = json.dumps({"modularity": math.nan})
    assert "NaN" in doc
    with pytest.raises(CheckFailed, match="NaN"):
        load_strict(doc)


def _two_triangles():
    graph = nx.Graph([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")])
    assignment = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    return graph, assignment


def test_modularity_check_accepts_oracle_value_and_rejects_wrong_one():
    graph, assignment = _two_triangles()
    right = nx.community.modularity(graph, [{"a", "b", "c"}, {"d", "e", "f"}])
    check_modularity({"assignment": assignment, "modularity": right}, graph)
    with pytest.raises(CheckFailed, match="modularity"):
        check_modularity({"assignment": assignment, "modularity": right + 1e-6}, graph)


def test_rescore_check_rejects_mismatch():
    doc = {"modularity": 0.25, "d_cut": 2.0}
    check_rescore(doc, {"modularity": 0.25, "d_cut": 2.0})
    with pytest.raises(CheckFailed, match="d_cut"):
        check_rescore(doc, {"modularity": 0.25, "d_cut": 4.0})


def test_tracer_self_time_excludes_children_and_restore_undoes_patches():
    import dhn.core
    import dhn.modularity

    original = dhn.modularity.run_serial
    tracer = Tracer()
    undo, absent = install(tracer)
    try:
        assert absent == []
        assert dhn.modularity.run_serial is not original
        assert dhn.core.run_serial is dhn.modularity.run_serial
        from dhn.graphs import karate_club

        dhn.modularity.run_lms(karate_club())
    finally:
        restore(undo)
    assert dhn.modularity.run_serial is original
    totals = tracer.totals()
    lms, serial = totals["modularity.run_lms"], totals["core.run_serial"]
    assert lms["calls"] == serial["calls"] == 1
    assert lms["self_s"] < lms["s"] - serial["s"] + 1e-9
    assert tracer.counts["core.run_serial.sweeps"] >= 1
    assert tracer.counts["core.weights_stored"] == 34 * 34


def test_benchmark_json_lists_every_workload_and_per_layer_metric():
    from run import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == per_layer_metrics()


def test_worker_peak_rss_excludes_the_parents_footprint():
    ballast = bytearray(300 * 2**20)  # touched pages: the parent's RSS grows by 300 MiB
    code = "import worker; print(worker._peak_rss_mb())"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
    assert 0 < float(out.stdout) < 200
    del ballast

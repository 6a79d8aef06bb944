import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dhn
from dhn import cli
from dhn.cli import cluster_command, main
from dhn.embedding import run_cleora, write_embedding
from dhn.graphs import disjoint_pairs_graph, karate_club
from dhn.io import (
    METHODS,
    EdgeListParseError,
    RunConfig,
    load_edge_list,
    load_result,
    score_assignment,
    write_edge_list,
    write_result,
)
from dhn.modularity import newman_bisect, run_lms, run_plms
from dhn.stiefel import run_gnm, run_gnm_plus_lms, run_sgnm


def write(tmp_path, text, name="graph.edges"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_default_weight_and_first_appearance_order(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a b\nb c\n"))
        assert g.labels() == ("a", "b", "c")
        assert g.weights.toarray().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_duplicate_records_sum(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a b 2\na b 3\n"))
        assert g.weights.toarray().tolist() == [[0, 5], [5, 0]]

    def test_reversed_duplicates_sum_symmetrically(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a b 2\nb a 3\n"))
        assert g.weights.toarray().tolist() == [[0, 5], [5, 0]]

    def test_bad_weight_reports_line(self, tmp_path):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(write(tmp_path, "a b x\n"))
        assert err.value.line_number == 1

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_weight_reports_line(self, tmp_path, weight):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(write(tmp_path, f"a b 1\nb c {weight}\n"))
        assert err.value.line_number == 2

    def test_wrong_token_count_reports_line(self, tmp_path):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(write(tmp_path, "a b 1\nlonely\n"))
        assert err.value.line_number == 2

    def test_comments_and_blanks_skipped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n\na b 1.5\n"))
        assert g.weights[0, 1] == 1.5

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(EdgeListParseError):
            load_edge_list(write(tmp_path, "# nothing here\n"))

    def test_self_loop(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a a 2\na b 1\n"))
        assert g.weights[0, 0] == 2.0

    def test_directed_reject_flags_asymmetry(self, tmp_path):
        path = write(tmp_path, "a b 1\n")
        with pytest.raises(ValueError):
            load_edge_list(path, directed_reject=True)
        both = write(tmp_path, "a b 1\nb a 1\n", name="sym.edges")
        g = load_edge_list(both, directed_reject=True)
        assert g.weights.toarray().tolist() == [[0, 1], [1, 0]]

    def test_write_read_round_trip(self, tmp_path):
        g = karate_club()
        path = tmp_path / "karate.edges"
        write_edge_list(g, path)
        g2 = load_edge_list(path)
        assert g2.labels() == g.labels()
        assert np.array_equal(g2.weights.toarray(), g.weights.toarray())

    @pytest.mark.parametrize(
        "text",
        [
            "a\tb\t2\nb\tc\n",
            "   # indented comment\na b 2\n\t# tabbed comment\nb c\n",
            "a b 2\r\nb c\r\n",
            "a b 2\n   \n\t\nb c\n \t \r\n",
        ],
        ids=["tabs", "indented-comments", "crlf", "whitespace-lines"],
    )
    def test_separators_and_skipped_lines(self, tmp_path, text):
        path = tmp_path / "graph.edges"
        path.write_bytes(text.encode())
        g = load_edge_list(path)
        assert g.labels() == ("a", "b", "c")
        assert g.weights.toarray().tolist() == [[0, 2, 0], [2, 0, 1], [0, 1, 0]]

    @pytest.mark.parametrize("bad, tokens", [("lonely", 1), ("a b 1 extra", 4)])
    def test_token_count_line_after_comments_and_blanks(self, tmp_path, bad, tokens):
        text = "# header\na b 1\n\n   # note\n \t\nb c\n" + bad + "\nc d\n"
        with pytest.raises(EdgeListParseError, match=f"got {tokens} tokens") as err:
            load_edge_list(write(tmp_path, text))
        assert err.value.line_number == 7


@st.composite
def labelled_graphs(draw):
    """A random graph with distinct labels in which every node after the first
    has a lower-index neighbour, so writing and loading keeps the node order."""
    n = draw(st.integers(1, 12))
    label_text = st.text("abcXYZ019_-.:", min_size=1, max_size=4)
    labels = draw(st.lists(label_text, min_size=n, max_size=n, unique=True))
    weight = st.one_of(
        st.integers(-3, 5).filter(bool).map(float),
        st.floats(-1e6, 1e6, allow_nan=False).filter(bool),
    )
    edges = {}
    for i in range(1, n):
        edges[(draw(st.integers(0, i - 1)), i)] = draw(weight)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)
    edges.update(draw(st.dictionaries(pairs, weight, max_size=2 * n)))  # self-loops included
    if n == 1 and not edges:
        edges[(0, 0)] = 1.0
    w = np.zeros((n, n))
    for (i, j), value in edges.items():
        w[i, j] = w[j, i] = value
    return dhn.WeightedGraph(w, node_labels=labels)


class TestEdgeListRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(labelled_graphs())
    def test_write_then_load_reproduces_graph(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("round") / "g.edges"
        write_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.labels() == g.labels()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(loaded.weights, part), getattr(g.weights, part))


@st.composite
def edge_lists_with_a_bad_line(draw):
    """Valid edge lines with one malformed line at a drawn position: (text, its line number)."""
    edges = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 9))
    lines = [f"n{u} n{v} {w}" for u, v, w in draw(st.lists(edges, min_size=1, max_size=8))]
    wrong_count = st.integers(1, 6).filter(lambda k: k not in (2, 3)).map(lambda k: " ".join("t" * k))
    bad_weight = st.sampled_from(["x", "one", "1.0.0", "0x10", "nan", "NaN", "inf", "-inf", "1e400"])
    bad = draw(st.one_of(wrong_count, bad_weight.map(lambda w: f"a b {w}")))
    position = draw(st.integers(0, len(lines)))
    lines.insert(position, bad)
    return "\n".join(lines) + "\n", position + 1


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


@st.composite
def usage_errors(draw):
    """(method, flags, DHN_SEED) for a `dhn cluster` call with exactly one bad setting."""
    method = draw(st.sampled_from(METHODS))
    kind = draw(st.sampled_from(["count", "epsilon", "newman-dim", "env-seed"]))
    if kind == "env-seed":
        ascii_text = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=6)
        return method, [], draw(ascii_text.filter(_not_an_int))
    if kind == "count":
        flag = draw(st.sampled_from(["--dim", "--max-iters", "--window"]))
        value = draw(st.integers(-5, 0))
    elif kind == "epsilon":
        flag, value = "--epsilon", draw(st.sampled_from(["-1", "-1e-300", "nan", "inf", "-inf"]))
    else:
        method, flag, value = "newman", "--dim", draw(st.integers(-2, 9).filter(lambda d: d != 2))
    return method, [f"{flag}={value}"], "0"


class TestExitCodeContract:
    @settings(max_examples=50, deadline=None)
    @given(edge_lists_with_a_bad_line(), st.sampled_from(METHODS))
    def test_malformed_line_exits_3_naming_it(self, tmp_path_factory, case, method):
        text, line_number = case
        folder = tmp_path_factory.mktemp("bad")
        path, out = folder / "g.edges", folder / "x.json"
        path.write_text(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["cluster", "--method", method, "--input", str(path), "--output", str(out)])
        assert code == 3
        assert f"line {line_number}:" in stderr.getvalue()
        assert not out.exists()

    @settings(max_examples=50, deadline=None)
    @given(usage_errors())
    def test_bad_flag_or_env_seed_exits_2_before_reading_input(self, tmp_path_factory, case):
        method, flags, env_seed = case
        folder = tmp_path_factory.mktemp("usage")
        out = folder / "x.json"
        argv = ["cluster", "--method", method, *flags,
                "--input", str(folder / "absent.edges"), "--output", str(out)]
        stderr = io.StringIO()
        with mock.patch.dict(os.environ, {"DHN_SEED": env_seed}), contextlib.redirect_stderr(
            stderr
        ):
            code = main(argv)
        assert code == 2
        assert "absent.edges" not in stderr.getvalue()
        assert list(folder.iterdir()) == []


@st.composite
def nonpositive_edge_lists(draw):
    """Edge lines over at least 2 nodes, every weight an integer in -3..0."""
    weight = st.integers(-3, 0)
    edges = st.tuples(st.integers(0, 5), st.integers(0, 5), weight)
    lines = [f"n{u} n{v} {w}" for u, v, w in [(0, 1, draw(weight)), *draw(st.lists(edges))]]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def cancelling_edge_lists(draw):
    """Edge lines over at least 2 nodes in which each record has a record of opposite weight."""
    weight = st.integers(-3, 3).filter(bool)
    edges = st.tuples(st.integers(0, 5), st.integers(0, 5), weight)
    records = [(0, 1, draw(weight)), *draw(st.lists(edges, max_size=6))]
    lines = [f"n{u} n{v} {w}" for u, v, w in records]
    lines += [f"n{v} n{u} {-w}" for u, v, w in records]
    return "\n".join(draw(st.permutations(lines))) + "\n"


def run_cli_quietly(method, text, folder):
    path, out = folder / "g.edges", folder / "x.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["cluster", "--method", method, "--input", str(path), "--output", str(out)])
    return code, out


class TestNumericExitContract:
    @settings(max_examples=50, deadline=None)
    @given(nonpositive_edge_lists(), st.sampled_from([m for m in METHODS if m != "cleora"]))
    def test_nonpositive_volume_exits_4_without_output(self, tmp_path_factory, text, method):
        code, out = run_cli_quietly(method, text, tmp_path_factory.mktemp("vol"))
        assert code == 4
        assert not out.exists()

    @settings(max_examples=50, deadline=None)
    @given(cancelling_edge_lists())
    def test_cleora_without_nonzero_weight_exits_4_without_output(self, tmp_path_factory, text):
        code, out = run_cli_quietly("cleora", text, tmp_path_factory.mktemp("zero"))
        assert code == 4
        assert not out.exists()
        assert not out.with_name(out.name + ".emb").exists()


class TestLabelRenaming:
    def test_renamed_labels_same_partition_and_scores(self, tmp_path):
        # renaming labels while keeping line order relabels the output only
        original = write(tmp_path, "a b 2\nb c 1\nc d 2\nd a 1\n")
        renamed = write(tmp_path, "x y 2\ny z 1\nz w 2\nw x 1\n", name="renamed.edges")
        rename = dict(zip("abcd", "xyzw"))
        docs = []
        for path, name in ((original, "orig.json"), (renamed, "ren.json")):
            out = tmp_path / name
            assert run_cli(["cluster", "--method", "lms", "--input", path, "--output", out]) == 0
            docs.append(load_result(out))
        first, second = docs
        assert first["modularity"] == second["modularity"]
        assert first["d_cut"] == second["d_cut"]
        assert {rename[k]: v for k, v in first["assignment"].items()} == second["assignment"]


class TestScoreAssignment:
    def test_unknown_label_named(self):
        g = disjoint_pairs_graph(2)
        mapping = {label: 0 for label in g.labels()}
        mapping["ghost"] = 1
        with pytest.raises(ValueError, match="ghost"):
            score_assignment(g, mapping)

    def test_missing_label_named(self):
        g = disjoint_pairs_graph(2)
        mapping = {label: 0 for label in g.labels()[:-1]}
        with pytest.raises(ValueError, match="3"):
            score_assignment(g, mapping)

    def test_single_cluster_zero_cut(self):
        g = karate_club()
        scores = score_assignment(g, {label: 0 for label in g.labels()})
        assert scores["d_cut"] == 0.0

    def test_split_single_edge(self):
        g = dhn.WeightedGraph([[0.0, 1.0], [1.0, 0.0]], node_labels=("a", "b"))
        scores = score_assignment(g, {"a": 0, "b": 1})
        assert scores["modularity"] == pytest.approx(-0.5, abs=1e-15)

    def test_huge_cluster_index_is_scored_on_compact_labels(self):
        # scoring on max + 1 clusters would allocate 10**15 cluster totals
        g = karate_club()
        c, _ = dhn.run_lms(g)
        labels = g.labels()
        compact = score_assignment(g, dict(zip(labels, c.assignment)))
        spread = [10**15 if a == c.assignment[0] else a for a in c.assignment]
        scores = score_assignment(g, dict(zip(labels, spread)))
        assert scores["modularity"] == pytest.approx(compact["modularity"], abs=1e-12)
        assert scores["d_cut"] == compact["d_cut"]
        assert scores["clusters"] == 10**15 + 1

    @pytest.mark.parametrize("value", [True, 1.0, -1, None, "0"])
    def test_cluster_must_be_a_non_negative_int(self, value):
        g = dhn.WeightedGraph([[0.0, 1.0], [1.0, 0.0]], node_labels=("a", "b"))
        with pytest.raises(ValueError, match="'b'"):
            score_assignment(g, {"a": 0, "b": value})


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture()
def karate_file(tmp_path):
    path = tmp_path / "karate.edges"
    write_edge_list(karate_club(), path)
    return path


class TestClusterCommand:
    def test_lms_on_karate(self, tmp_path, karate_file, capsys):
        out = tmp_path / "lms.json"
        assert run_cli(["cluster", "--method", "lms", "--input", karate_file, "--output", out]) == 0
        doc = load_result(out)
        assert doc["format_version"] == 1
        assert doc["modularity"] >= 0.38
        # independent re-scoring of the emitted assignment
        rescored = score_assignment(karate_club(), doc["assignment"])
        assert rescored["modularity"] == pytest.approx(doc["modularity"], abs=1e-9)
        assert rescored["d_cut"] == pytest.approx(doc["d_cut"], abs=1e-9)

    def test_newman_two_clusters(self, tmp_path, karate_file):
        out = tmp_path / "newman.json"
        assert run_cli(
            ["cluster", "--method", "newman", "--input", karate_file, "--output", out, "--seed", 1]
        ) == 0
        doc = load_result(out)
        assert set(doc["assignment"].values()) <= {0, 1}
        assert doc["config"]["dim"] == 2

    def test_newman_dim_mismatch_is_usage_error(self, tmp_path, karate_file):
        code = run_cli(
            ["cluster", "--method", "newman", "--dim", 3, "--input", karate_file,
             "--output", tmp_path / "x.json"]
        )
        assert code == 2

    def test_newman_dim_mismatch_is_usage_error_before_reading_input(self, tmp_path):
        out = tmp_path / "x.json"
        code = run_cli(
            ["cluster", "--method", "newman", "--dim", 3, "--input", tmp_path / "absent.edges",
             "--output", out]
        )
        assert code == 2
        assert not out.exists()

    def test_gnm_dim_too_large_is_usage_error(self, tmp_path):
        pairs = tmp_path / "pairs.edges"
        write_edge_list(disjoint_pairs_graph(2), pairs)
        code = run_cli(
            ["cluster", "--method", "gnm", "--dim", 9, "--input", pairs,
             "--output", tmp_path / "x.json"]
        )
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = write(tmp_path, "a b x\n")
        code = run_cli(
            ["cluster", "--method", "lms", "--input", bad, "--output", tmp_path / "x.json"]
        )
        assert code == 3

    @pytest.mark.parametrize("method", ["lms", "cleora", "gnm"])
    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_exit_code(self, tmp_path, capsys, method, weight):
        bad = write(tmp_path, f"a b 1\nb c {weight}\nc a 1\n")
        out = tmp_path / "x.json"
        code = run_cli(["cluster", "--method", method, "--input", bad, "--output", out])
        assert code == 3
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_graph_exit_code(self, tmp_path):
        zero = write(tmp_path, "a b 1\na b -1\n")
        code = run_cli(
            ["cluster", "--method", "lms", "--input", zero, "--output", tmp_path / "x.json"]
        )
        assert code == 4

    def test_cleora_without_nonzero_weight_exits_4_without_output(self, tmp_path, capsys):
        zero = write(tmp_path, "a b 1\na b -1\n")
        out = tmp_path / "x.json"
        code = run_cli(
            ["cluster", "--method", "cleora", "--dim", 3, "--input", zero, "--output", out]
        )
        assert code == 4
        assert "no nonzero weight" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.json.emb").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--dim", 0), ("--max-iters", 0), ("--window", 0)]
        + [("--epsilon", e) for e in (-1, "nan", "inf")],
    )
    def test_out_of_range_flag_is_usage_error_before_reading_input(
        self, tmp_path, capsys, flag, value
    ):
        # the input does not exist: reading it first would exit 4 with an OSError
        out = tmp_path / "x.json"
        code = run_cli(
            ["cluster", "--method", "lms", flag, value, "--input", tmp_path / "absent.edges",
             "--output", out]
        )
        assert code == 2
        assert "absent.edges" not in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_byte_identical_modulo_wall_time(self, tmp_path, karate_file):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(
                ["cluster", "--method", "plms", "--dim", 4, "--seed", 5,
                 "--input", karate_file, "--output", out]
            ) == 0
            doc = load_result(out)
            doc["wall_time_s"] = None
            outs.append(json.dumps(doc, sort_keys=False))
        assert outs[0] == outs[1]

    def test_env_seed_fallback(self, tmp_path, karate_file, monkeypatch):
        monkeypatch.setenv("DHN_SEED", "5")
        a = tmp_path / "env.json"
        assert run_cli(
            ["cluster", "--method", "plms", "--dim", 4, "--input", karate_file, "--output", a]
        ) == 0
        b = tmp_path / "explicit.json"
        assert run_cli(
            ["cluster", "--method", "plms", "--dim", 4, "--seed", 5,
             "--input", karate_file, "--output", b]
        ) == 0
        da, db = load_result(a), load_result(b)
        assert da["assignment"] == db["assignment"]
        assert da["config"]["seed"] == 5

    def test_malformed_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DHN_SEED", "abc")
        out = tmp_path / "x.json"
        code = run_cli(
            ["cluster", "--method", "lms", "--input", tmp_path / "absent.edges", "--output", out]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "DHN_SEED" in err and "'abc'" in err
        assert not out.exists()

    def test_cleora_writes_embedding(self, tmp_path, karate_file):
        out = tmp_path / "cleora.json"
        assert run_cli(
            ["cluster", "--method", "cleora", "--dim", 8, "--max-iters", 3,
             "--seed", 0, "--input", karate_file, "--output", out]
        ) == 0
        doc = load_result(out)
        assert doc["assignment"] is None and doc["modularity"] is None
        emb_lines = (tmp_path / "cleora.json.emb").read_text().strip().split("\n")
        assert len(emb_lines) == 34
        assert len(emb_lines[0].split()) == 9


# The library call that `dhn cluster` must make for each method, with dim 3 and seed 5
DIRECT_RUNS = {
    "lms": lambda g, crit: run_lms(g, crit=crit),
    "plms": lambda g, crit: run_plms(g, 3, seed=5, crit=crit),
    "gnm": lambda g, crit: run_gnm(g, 3, seed=5, crit=crit),
    "sgnm": lambda g, crit: run_sgnm(g, 3, seed=5, crit=crit),
    "gnm-lms": lambda g, crit: run_gnm_plus_lms(g, 3, seed=5, crit=crit),
    "newman": lambda g, crit: (newman_bisect(g, seed=5, crit=crit), None),
}


class TestDispatch:
    @pytest.mark.parametrize("method", sorted(DIRECT_RUNS))
    def test_document_equals_the_direct_library_call(self, method):
        g = karate_club()
        dim = 2 if method == "newman" else 3
        config = RunConfig(method=method, dim=dim, seed=5, epsilon=1e-6, window=3, max_iters=40)
        document = cluster_command(config, g)
        clustering, report = DIRECT_RUNS[method](g, config.criterion())
        assert document["assignment"] == dict(zip(g.labels(), map(int, clustering.assignment)))
        if report is None:
            assert (document["iterations"], document["outcome"], document["energy_trace"]) == (
                None, None, None
            )
        else:
            assert document["iterations"] == report.iterations
            assert document["outcome"] == report.outcome.value
            assert document["energy_trace"] == report.energy_trace

    @pytest.mark.parametrize(
        "method, name",
        [("plms", "run_plms"), ("gnm", "run_gnm"), ("sgnm", "run_sgnm"),
         ("gnm-lms", "run_gnm_plus_lms")],
    )
    def test_runner_is_called_through_its_cli_module_name(self, monkeypatch, method, name):
        # perfbench's layer tracer times a runner by replacing its name on dhn.cli
        original, seen = getattr(cli, name), []
        monkeypatch.setattr(cli, name, lambda *a, **k: seen.append(name) or original(*a, **k))
        cluster_command(RunConfig(method=method, dim=3, max_iters=5), karate_club())
        assert seen == [name]

    def test_cleora_embedding_equals_the_direct_library_call(self, tmp_path):
        g = karate_club()
        config = RunConfig(method="cleora", dim=3, seed=5, max_iters=4, output=str(tmp_path / "c"))
        document = cluster_command(config, g)
        direct = tmp_path / "direct.emb"
        write_embedding(direct, run_cleora(g, 3, iters=4, seed=5), labels=g.labels())
        assert document["embedding_path"] == config.output + ".emb"
        assert (tmp_path / "c.emb").read_bytes() == direct.read_bytes()
        assert (document["iterations"], document["outcome"], document["energy_trace"]) == (
            4, None, None
        )

    def test_omitted_flags_record_the_defaults(self, tmp_path, karate_file, monkeypatch):
        monkeypatch.delenv("DHN_SEED", raising=False)
        out = tmp_path / "defaults.json"
        code = run_cli(["cluster", "--method", "plms", "--input", karate_file, "--output", out])
        assert code == 0
        config = load_result(out)["config"]
        assert config == {
            "dim": 2,
            "seed": 0,
            "epsilon": 1e-8,
            "window": 2,
            "max_iters": 1000,
            "input": str(karate_file),
            "directed_reject": False,
        }

    def test_cleora_with_max_iters_omitted_runs_the_library_default(
        self, tmp_path, karate_file, monkeypatch
    ):
        monkeypatch.delenv("DHN_SEED", raising=False)
        out = tmp_path / "cleora.json"
        code = run_cli(["cluster", "--method", "cleora", "--input", karate_file, "--output", out])
        assert code == 0
        document = load_result(out)
        assert document["config"]["max_iters"] == document["iterations"] == 3
        g = load_edge_list(karate_file)
        direct = tmp_path / "direct.emb"
        write_embedding(direct, run_cleora(g, 2, iters=3, seed=0), labels=g.labels())
        assert (tmp_path / "cleora.json.emb").read_bytes() == direct.read_bytes()


class TestEvalCommand:
    def test_round_trip_re_scoring(self, tmp_path, karate_file, capsys):
        out = tmp_path / "lms.json"
        run_cli(["cluster", "--method", "lms", "--input", karate_file, "--output", out])
        stored = load_result(out)
        capsys.readouterr()
        assert run_cli(["eval", "--input", karate_file, "--assignment", out]) == 0
        printed = capsys.readouterr().out
        rescored = float(printed.split("modularity")[1].split()[0])
        assert rescored == pytest.approx(stored["modularity"], abs=1e-9)

    def test_result_is_strict_json(self, tmp_path):
        out = tmp_path / "nan.json"
        with pytest.raises(ValueError):
            write_result({"modularity": float("nan")}, out)
        assert not out.exists()

    def test_missing_assignment_key(self, tmp_path, karate_file):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert run_cli(["eval", "--input", karate_file, "--assignment", bogus]) == 4

    @pytest.mark.parametrize("assignment", ["5", "null", "[0, 1]", '"0"'])
    def test_assignment_that_is_no_mapping(self, tmp_path, karate_file, capsys, assignment):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(f'{{"assignment": {assignment}}}')
        assert run_cli(["eval", "--input", karate_file, "--assignment", bogus]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ["null", "[1]", "1.7", "1.0", "true", "-1", '"1"'])
    def test_malformed_cluster_value_names_its_label(self, tmp_path, karate_file, capsys, value):
        mapping = {label: 0 for label in karate_club().labels()}
        text = json.dumps({"assignment": mapping}).replace('"7": 0', f'"7": {value}')
        bogus = tmp_path / "bogus.json"
        bogus.write_text(text)
        assert run_cli(["eval", "--input", karate_file, "--assignment", bogus]) == 4
        assert "'7'" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path, karate_file):
        out = tmp_path / "cli.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dhn.cli", "cluster", "--method", "newman",
             "--seed", "1", "--input", str(karate_file), "--output", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert load_result(out)["method"] == "newman"


class TestRunConfig:
    def test_method_validated(self):
        with pytest.raises(ValueError):
            RunConfig(method="banana")

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            RunConfig(method="lms", dim=0)

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dhn
from dhn import cli
from dhn.cli import cluster_command, main
from dhn.core import canonical_csr
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
from dhn.modularity import _newman_run, newman_bisect, run_lms, run_plms
from dhn.stiefel import run_gnm, run_gnm_plus_lms, run_sgnm

import reference_runs as ref
from conftest import planted_graph


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("lonely", "expected 'source target [weight]', got 1 tokens"),
            ("a b 1 extra", "expected 'source target [weight]', got 4 tokens"),
            ("a b x", "weight 'x' is not a number"),
            ("a b inf", "weight 'inf' is not finite"),
        ],
    )
    def test_error_line_after_plain_blocks(self, tmp_path, bad, message):
        lines = [f"n{k} n{k + 1}" for k in range(40)]
        text = "\n".join(lines[:33] + [bad] + lines[33:]) + "\n"
        with mock.patch.object(dhn.io, "_BLOCK_CHARS", 16):  # the bad line is in block 12
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(write(tmp_path, text))
        assert (str(err.value), err.value.line_number) == (f"line 34: {message}", 34)

    @pytest.mark.parametrize("block_chars", [16, 1 << 11])
    def test_undecodable_byte_reports_line(self, tmp_path, block_chars):
        # with 16-character blocks the bad line is in block 12, past plain blocks
        lines = [f"n{k} n{k + 1}".encode() for k in range(40)]
        path = tmp_path / "g.edges"
        path.write_bytes(b"\n".join(lines[:33] + [b"a\xe9 b"] + lines[33:]) + b"\n")
        with mock.patch.object(dhn.io, "_BLOCK_CHARS", block_chars):
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(path)
        assert (str(err.value), err.value.line_number) == (
            "line 34: byte 0xe9 is not valid UTF-8",
            34,
        )

    def test_utf8_labels(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes("é ü\nü ∂ 2\n# ü\n".encode())
        g = load_edge_list(path)
        assert g.labels() == ("é", "ü", "∂")
        assert g.weights.toarray()[1, 2] == 2.0
        write_edge_list(g, tmp_path / "copy.edges")
        assert load_edge_list(tmp_path / "copy.edges").labels() == g.labels()

    @staticmethod
    def peak_of_a_load(path):
        """tracemalloc peak of loading ``path``, over the bytes of the loaded W's CSR."""
        load_edge_list(path)  # first-call allocations are not the load's
        tracemalloc.start()
        try:
            w = load_edge_list(path).weights
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)

    def test_peak_memory_of_a_load(self, tmp_path):
        # the parse lists, their arrays, the upper triangle and W are dropped in turn; holding
        # them, and summing W from two copies of the triangle, peaked at 7.65 times W's CSR
        g = planted_graph(np.random.default_rng(45), 4500, 16)
        path = tmp_path / "planted.edges"
        write_edge_list(g, path)
        # 2.72 times with numpy 2.4 and SciPy 1.17
        assert self.peak_of_a_load(path) <= 3

    def test_peak_memory_of_a_plain_load(self, tmp_path):
        # the same bound on 2-token lines, which take the block parse: the peak is in the
        # CSR build, not in the parse (2.72 times with numpy 2.4 and SciPy 1.17)
        g = planted_graph(np.random.default_rng(45), 4500, 16)
        path = tmp_path / "planted.edges"
        write_edge_list(g, path)
        path.write_text("".join(line.rsplit(" ", 1)[0] + "\n" for line in path.read_text().splitlines()))
        with mock.patch.object(dhn.io, "_parse_lines", wraps=dhn.io._parse_lines) as per_line:
            load_edge_list(path)
        per_line.assert_not_called()
        assert self.peak_of_a_load(path) <= 3


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


@st.composite
def plain_edge_lists(draw):
    """Plain ``u v`` lines with self-loops and pairs repeated in both orientations,
    over labels that may be non-ASCII or hold a ``#`` (never as the first character)."""
    first = st.sampled_from("abzXé中😀_0")
    label = st.tuples(first, st.text("abzé中😀#_0-", max_size=3)).map("".join)
    labels = draw(st.lists(label, min_size=1, max_size=8, unique=True))
    node = st.sampled_from(labels)
    records = draw(st.lists(st.tuples(node, node), min_size=1, max_size=25))
    records += [(v, u) for u, v in draw(st.lists(st.sampled_from(records), max_size=8))]
    return [f"{u} {v}" for u, v in draw(st.permutations(records))]


class TestBlockParse:
    @settings(max_examples=150, deadline=None)
    @given(
        plain_edge_lists(),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.integers(1, 24),
        st.data(),
    )
    def test_block_and_per_line_parses_agree(
        self, tmp_path_factory, lines, line_end, final_newline, block_chars, data
    ):
        # a header line sends a load down the per-line parse; so does one line
        # with its weight written out, from the block that holds it on
        at = data.draw(st.integers(0, len(lines) - 1))
        variants = {
            "plain": lines,
            "header": ["# header", *lines],
            "weighted": [*lines[:at], lines[at] + " 1", *lines[at + 1:]],
        }
        folder = tmp_path_factory.mktemp("paths")
        loaded = {}
        for name, variant in variants.items():
            path = folder / f"{name}.edges"
            path.write_text("\n".join(variant) + ("\n" if final_newline else ""), newline=line_end)
            with mock.patch.object(dhn.io, "_BLOCK_CHARS", block_chars), mock.patch.object(
                dhn.io, "_parse_lines", wraps=dhn.io._parse_lines
            ) as per_line:
                loaded[name] = load_edge_list(path)
            took_block_parse = not any("#" in line for line in lines) and name == "plain"
            assert per_line.called != took_block_parse
        want = loaded.pop("header")
        for got in loaded.values():
            assert got.labels() == want.labels()
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got.weights, part), getattr(want.weights, part)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


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


def summed_mirror(text):
    """W of ``u v weight`` lines built as upper + triu(upper, 1).T, as loads once did."""
    index, i, j, data = {}, [], [], []
    for line in text.splitlines():
        u, v, weight = line.split()
        i.append(index.setdefault(u, len(index)))
        j.append(index.setdefault(v, len(index)))
        data.append(float(weight))
    i, j, n = np.array(i), np.array(j), len(index)
    pairs = (np.minimum(i, j), np.maximum(i, j))
    upper = canonical_csr(sp.coo_array((np.array(data), pairs), shape=(n, n)))
    return upper + sp.triu(upper, k=1).T


@st.composite
def weighted_edge_lists(draw, weight=None):
    """``u v weight`` lines with self-loops and pairs repeated in both orientations."""
    if weight is None:
        weight = st.one_of(
            st.integers(-3, 5).map(float),
            st.floats(-1e3, 1e3, allow_nan=False),
            st.sampled_from([0.1, -0.25, 1 / 3]),
        )
    edges = st.tuples(st.integers(0, 7), st.integers(0, 7), weight)
    records = draw(st.lists(edges, min_size=1, max_size=30))
    records += [(v, u, w) for u, v, w in draw(st.lists(st.sampled_from(records), max_size=10))]
    return "".join(f"n{u} n{v} {w!r}\n" for u, v, w in draw(st.permutations(records)))


class TestMirroredLoad:
    @settings(max_examples=100, deadline=None)
    @given(weighted_edge_lists())
    def test_weights_are_the_summed_mirror_bit_for_bit(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("mirror") / "g.edges"
        path.write_text(text)
        got, want = load_edge_list(path).weights, summed_mirror(text)
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())

    @settings(max_examples=50, deadline=None)
    @given(
        weighted_edge_lists(st.integers(-3, 3)),
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3)),
    )
    def test_asymmetric_list_exits_4_under_directed_reject(self, tmp_path_factory, text, extra):
        # every line mirrored is symmetric; one more directed integer weight is not
        u, v, w = extra
        lines = text.splitlines()
        lines += [" ".join((b, a, c)) for a, b, c in map(str.split, lines)]
        folder = tmp_path_factory.mktemp("directed")
        path, out = folder / "g.edges", folder / "x.json"
        path.write_text("\n".join(lines) + "\n")
        load_edge_list(path, directed_reject=True)  # symmetric, so accepted
        if u == v or w == 0:
            return
        path.write_text("\n".join(lines) + f"\nn{u} n{v} {w}\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["cluster", "--method", "lms", "--directed-reject",
                         "--input", str(path), "--output", str(out)])
        assert code == 4
        message = "error: edge list is not symmetric (running with --directed-reject)\n"
        assert stderr.getvalue() == message
        assert not out.exists()


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
    kind = draw(st.sampled_from(["count", "epsilon", "newman-dim", "env-seed", "negative-seed"]))
    if kind == "env-seed":
        ascii_text = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=6)
        return method, [], draw(ascii_text.filter(_not_an_int))
    if kind == "negative-seed":
        seed = draw(st.integers(max_value=-1))
        return draw(st.sampled_from([(method, [f"--seed={seed}"], "0"), (method, [], str(seed))]))
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
    @example(("plms", ["--seed=-1"], "0"))
    @example(("plms", ["--seed", "-1"], "0"))
    @example(("lms", [], "-3"))
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

    @pytest.mark.parametrize("text", ["", " \n\t\n\n"])
    def test_file_without_edges_exits_3(self, tmp_path, capsys, text):
        path, out = write(tmp_path, text), tmp_path / "x.json"
        assert main(["cluster", "--method", "lms", "--input", str(path), "--output", str(out)]) == 3
        assert "edge list contains no edges" in capsys.readouterr().err
        assert not out.exists()


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

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(METHODS), st.integers(-600, 600))
    @example("lms", 532)  # Vol^2 overflows
    @example("gnm-lms", -532)  # Vol^2 underflows
    @example("cleora", 532)  # squared embedding entries overflow
    @example("cleora", -600)  # and underflow
    def test_any_weight_scale_exits_0_or_4(self, tmp_path_factory, method, k):
        # two triangles, a self-loop and an isolated pair, every weight scaled by 2^k
        edges = [("a", "b", 1), ("b", "c", 2), ("c", "a", 1), ("c", "d", 3), ("d", "e", 1),
                 ("e", "f", 2), ("f", "d", 1), ("f", "f", 2), ("x", "y", 0)]
        text = "".join(f"{u} {v} {w * 2.0**k!r}\n" for u, v, w in edges)
        folder = tmp_path_factory.mktemp("scale")
        code, out = run_cli_quietly(method, text, folder)
        assert code in (0, 4)
        if code == 4:
            assert list(folder.iterdir()) == [folder / "g.edges"]
            return
        doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in {out}"))
        assert all(np.isfinite(doc[f]) for f in ("modularity", "d_cut") if doc[f] is not None)
        if method == "cleora":
            rows = np.loadtxt(doc["embedding_path"], usecols=(1, 2))
            norms = np.linalg.norm(rows, axis=1)
            isolated = load_edge_list(folder / "g.edges").degrees == 0
            assert np.all(np.where(isolated, norms == 0.0, np.abs(norms - 1.0) < 1e-12))


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
        assert doc["format_version"] == 2
        assert doc["modularity"] >= 0.38
        trace = doc["energy_trace"]  # the start, then one energy per sweep, never rising
        assert len(trace) == doc["iterations"] + 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))
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

    def test_newman_records_an_exhausted_budget(self, tmp_path, karate_file):
        out = tmp_path / "newman.json"
        assert run_cli(
            ["cluster", "--method", "newman", "--max-iters", 1, "--input", karate_file,
             "--output", out]
        ) == 0
        doc = load_result(out)
        assert (doc["iterations"], doc["outcome"]) == (1, "budget_exhausted")

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

    def test_non_utf8_edge_list_exits_3_naming_the_line(self, tmp_path, capsys):
        bad, out = tmp_path / "bad.edges", tmp_path / "x.json"
        bad.write_bytes(b"a b\n\xff\xfe c\n")
        assert run_cli(["cluster", "--method", "lms", "--input", bad, "--output", out]) == 3
        assert "line 2: byte 0xff is not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

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
        [("--dim", 0), ("--max-iters", 0), ("--window", 0), ("--window", 2**63)]
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
            assert doc["format_version"] == 2
            assert len(doc["energy_trace"]) == doc["iterations"] + 1
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

    def test_failed_allocation_exits_4_without_output(self, tmp_path, karate_file, capsys):
        # a 34 x 10^15 state is beyond any 64-bit address space, so the request fails at once
        out = tmp_path / "x.json"
        code = run_cli(
            ["cluster", "--method", "plms", "--dim", 10**15, "--input", karate_file,
             "--output", out]
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_cleora_whose_result_cannot_be_written_leaves_no_embedding(
        self, tmp_path, karate_file, capsys
    ):
        out = tmp_path / "taken"
        out.mkdir()  # a directory: the result write fails after the embedding is written
        code = run_cli(
            ["cluster", "--method", "cleora", "--dim", 4, "--input", karate_file, "--output", out]
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["karate.edges", "taken"]

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
    "newman": lambda g, crit: (newman_bisect(g, seed=5, crit=crit), _newman_run(g, 5, crit)[1]),
}


class TestDispatch:
    @pytest.mark.parametrize(
        "method, self_loops",
        [pytest.param(m, False, id=m) for m in sorted(DIRECT_RUNS)]
        + [pytest.param(m, True, id=f"loops-{m}") for m in sorted(DIRECT_RUNS)],
    )
    def test_document_equals_the_direct_library_call(
        self, method, self_loops, karate_with_self_loops
    ):
        g = karate_with_self_loops if self_loops else karate_club()
        dim = 2 if method == "newman" else 3
        config = RunConfig(method=method, dim=dim, seed=5, epsilon=1e-6, window=3, max_iters=40)
        document = cluster_command(config, g)
        clustering, report = DIRECT_RUNS[method](g, config.criterion())
        assert document["assignment"] == dict(zip(g.labels(), map(int, clustering.assignment)))
        assert document["iterations"] == report.iterations
        assert document["outcome"] == report.outcome.value
        assert document["energy_trace"] == report.energy_trace
        if report.energy_trace is not None:  # the start, then each lms sweep or plms step
            assert len(document["energy_trace"]) == document["iterations"] + 1

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
        for method in ("plms", "lms"):
            out = tmp_path / f"{method}.json"
            argv = ["cluster", "--method", method, "--input", karate_file, "--output", out]
            assert run_cli(argv) == 0
            config = load_result(out)["config"]
            assert config == {
                "dim": 2,
                "seed": 0,
                "epsilon": 1e-8,
                "window": 2,
                "max_iters": 1000,
                "input": str(karate_file),
                "directed_reject": False,
            }, method

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


class TestWriteResult:
    """write_result indents C-encoded fields by hand; the text is json.dumps(indent=2)'s."""

    @staticmethod
    def assert_written_as_json_dumps(document, path):
        write_result(document, path)
        assert path.read_bytes() == (json.dumps(document, indent=2, allow_nan=False) + "\n").encode()

    @pytest.mark.parametrize("method", METHODS)
    def test_documents_of_every_method(self, tmp_path, method):
        # labels with quotes, a backslash and non-ASCII characters, which JSON escapes
        labels = tuple(f'nœud "{i}" \\ é' for i in range(34))
        g = dhn.WeightedGraph(karate_club().weights, node_labels=labels)
        dim = 2 if method == "newman" else 3
        config = RunConfig(method=method, dim=dim, seed=5, max_iters=20, output=str(tmp_path / "c"))
        document = cluster_command(config, g)
        self.assert_written_as_json_dumps(document, tmp_path / "doc.json")
        nulls = dict(document, assignment=None, energy_trace=None)
        self.assert_written_as_json_dumps(nulls, tmp_path / "nulls.json")
        empty = dict(document, assignment={}, energy_trace=[])
        self.assert_written_as_json_dumps(empty, tmp_path / "empty.json")

    def test_empty_document(self, tmp_path):
        self.assert_written_as_json_dumps({}, tmp_path / "empty.json")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_nested_value_is_rejected(self, tmp_path, value):
        out = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            write_result({"method": "plms", "energy_trace": [0.0, value]}, out)
        assert not out.exists()


class TestEvalCommand:
    def test_non_utf8_edge_list_exits_3_naming_the_line(self, tmp_path, karate_file, capsys):
        out = tmp_path / "lms.json"
        run_cli(["cluster", "--method", "lms", "--input", karate_file, "--output", out])
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"a b\n\xff\xfe c\n")
        capsys.readouterr()
        assert run_cli(["eval", "--input", bad, "--assignment", out]) == 3
        assert "line 2: byte 0xff is not valid UTF-8" in capsys.readouterr().err

    def test_round_trip_re_scoring(self, tmp_path, karate_file, capsys):
        out = tmp_path / "lms.json"
        run_cli(["cluster", "--method", "lms", "--input", karate_file, "--output", out])
        stored = load_result(out)
        capsys.readouterr()
        assert run_cli(["eval", "--input", karate_file, "--assignment", out]) == 0
        printed = capsys.readouterr().out
        rescored = float(printed.split("modularity")[1].split()[0])
        assert rescored == pytest.approx(stored["modularity"], abs=1e-9)

    def test_format_version_1_document_is_re_scored(self, tmp_path, karate_file, capsys):
        # a document as version 1 stored it, every per-visit lms energy in the trace;
        # eval reads only the assignment, so the stored scores are placeholders
        g = karate_club()
        clustering = run_lms(g)[0]
        report = ref.lms_sweeps(g, range(g.n), g.n, 1000, track_energy=True)
        stored = tmp_path / "v1.json"
        stored.write_text(json.dumps({
            "format_version": 1,
            "method": "lms",
            "config": {"dim": 2, "seed": 0, "epsilon": 1e-8, "window": 2, "max_iters": 1000,
                       "input": str(karate_file), "directed_reject": False},
            "n_nodes": g.n,
            "assignment": dict(zip(g.labels(), map(int, clustering.assignment))),
            "embedding_path": None,
            "modularity": 0.0,
            "d_cut": 0.0,
            "energy_trace": report.energy_trace,
            "iterations": report.iterations,
            "outcome": report.outcome.value,
            "wall_time_s": 0.1,
        }, indent=2))
        assert len(report.energy_trace) == 1 + g.n * report.iterations
        assert run_cli(["eval", "--input", karate_file, "--assignment", stored]) == 0
        printed = capsys.readouterr().out.split()
        scores = dict(zip(printed[0::2], map(float, printed[1::2])))
        assert scores == {"modularity": dhn.modularity_score(g, clustering),
                          "d_cut": dhn.d_cut_value(g, clustering)}

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
        # a frame method's projection raises no rank-deficiency warning on karate
        env = {k: v for k, v in os.environ.items() if k != "DHN_SEED"}
        for method, flags in (("newman", ["--seed", "1"]), ("gnm-lms", ["--dim", "4"])):
            out = tmp_path / f"{method}.json"
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "dhn.cli", "cluster",
                 "--method", method, *flags, "--input", str(karate_file), "--output", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            doc = load_result(out)
            assert doc["method"] == method
            assert doc["iterations"] is not None and doc["outcome"] is not None


class TestRunConfig:
    def test_method_validated(self):
        with pytest.raises(ValueError):
            RunConfig(method="banana")

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            RunConfig(method="lms", dim=0)

    def test_seed_validated(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            RunConfig(method="lms", seed=-1)

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dhn
from dhn.embedding import run_cleora, write_embedding
from dhn.graphs import disjoint_pairs_graph, ring_graph

from conftest import planted_graph


class TestRowNormalization:
    def test_scales_to_unit(self):
        out = dhn.l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]])

    def test_zero_row_preserved(self):
        out = dhn.l2_normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert out[0].tolist() == [0.0, 0.0]

    def test_unit_row_unchanged(self):
        row = np.array([[0.6, 0.8]])
        assert np.allclose(dhn.l2_normalize_rows(row), row)

    def test_underflow_row_becomes_zero(self):
        out = dhn.l2_normalize_rows(np.array([[1e-301, 0.0]]))
        assert out.tolist() == [[0.0, 0.0]]


class TestRunCleora:
    def test_zero_iters_returns_start(self):
        g = ring_graph(5)
        x = run_cleora(g, 4, iters=0, seed=8)
        expected = np.random.default_rng(8).uniform(-1, 1, size=(5, 4))
        assert np.array_equal(x, expected)
        assert np.all((x > -1) & (x < 1))

    def test_rows_unit_or_zero_after_each_step(self):
        g = ring_graph(6)
        for iters in (1, 2, 5):
            x = run_cleora(g, 3, iters=iters, seed=0)
            norms = np.linalg.norm(x, axis=1)
            assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))

    def test_two_node_swap_graph(self):
        g = dhn.WeightedGraph([[0.0, 1.0], [1.0, 0.0]])
        x0 = np.random.default_rng(4).uniform(-1, 1, size=(2, 3))
        two = run_cleora(g, 3, iters=2, seed=4)
        assert np.allclose(two, dhn.l2_normalize_rows(x0), atol=1e-15)

    def test_equals_iterated_parallel_step_exactly(self):
        g = disjoint_pairs_graph(3)
        net = dhn.DhnNetwork(g.weights, np.zeros((g.n, 4)), dhn.Activation.L2_NORMALIZE)
        for iters in (0, 1, 3, 7):
            direct = run_cleora(g, 4, iters=iters, seed=13)
            x = np.random.default_rng(13).uniform(-1, 1, size=(g.n, 4))
            for _ in range(iters):
                x = dhn.parallel_step(net, x)
            assert np.array_equal(direct, x)

    def test_fixed_seed_byte_identical(self):
        g = ring_graph(7)
        a = run_cleora(g, 5, iters=4, seed=21)
        b = run_cleora(g, 5, iters=4, seed=21)
        assert a.tobytes() == b.tobytes()

    def test_scale_robustness(self):
        g = ring_graph(6)
        scaled = dhn.WeightedGraph(3.0 * g.weights)
        a = run_cleora(g, 3, iters=4, seed=2)
        b = run_cleora(scaled, 3, iters=4, seed=2)
        nonzero = np.linalg.norm(a, axis=1) > 0
        assert np.allclose(a[nonzero], b[nonzero], atol=1e-12)

    def test_parameter_validation(self):
        g = ring_graph(4)
        with pytest.raises(ValueError):
            run_cleora(g, 0)
        with pytest.raises(ValueError):
            run_cleora(g, 2, iters=-1)

    def test_graph_without_nonzero_weight_rejected(self):
        empty = dhn.WeightedGraph(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="no nonzero weight"):
            run_cleora(empty, 2, iters=1, seed=0)
        # no propagation step, so the start matrix is still returned
        start = np.random.default_rng(0).uniform(-1, 1, size=(3, 2))
        assert np.array_equal(run_cleora(empty, 2, iters=0, seed=0), start)

    def test_peak_memory_is_one_state(self):
        # W X is formed 8 columns at a time over the state and normalized in place: 1.25
        # states with numpy 2.4 and SciPy 1.17 (a new W X and a normalized copy: 2.04)
        g = planted_graph(np.random.default_rng(1), 6000, 20)
        run_cleora(g, 64, seed=0)  # first-call allocations are not the run's
        tracemalloc.start()
        try:
            x = run_cleora(g, 64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * x.nbytes

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9)),
        st.integers(1, 20),
    )
    def test_in_place_normalizer_is_bitwise_the_whole_matrix_one(self, m, block_values):
        # the whole-matrix rule: norms from squared entries, and where those underflow
        # (below 1e-150) or overflow, from the row scaled by its largest |entry|
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(m, axis=1)
            scale = np.max(np.abs(m), axis=1, initial=0.0)
            scaled = m / scale[:, None]
            scaled_norms = np.linalg.norm(scaled, axis=1)
            redo = (norms < 1e-150) | (norms == np.inf)
            keep = np.where(redo, scale * scaled_norms, norms) >= 1e-300
            norms = np.where(redo, scaled_norms, norms)
            rows = np.where(redo[:, None], scaled, m)
            want = np.divide(rows, norms[:, None], out=np.zeros(m.shape), where=keep[:, None])
            with mock.patch.object(dhn.core, "_NORM_BLOCK_VALUES", block_values):
                got = dhn.core._normalize_rows_inplace(m.copy())
                public = dhn.l2_normalize_rows(m)
        assert got.tobytes() == want.tobytes() == public.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-1074, 1023), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_rows_at_any_scale_come_out_unit(self, k, d, seed):
        # squared entries under- or overflow far inside the float range; the norm must not
        u = dhn.l2_normalize_rows(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(1, d)))
        row = u * 2.0**k
        norm = math.hypot(*row[0])
        want = row / norm if norm >= 1e-300 else np.zeros_like(row)
        assert np.allclose(dhn.l2_normalize_rows(row), want, rtol=0.0, atol=1e-15)

    def test_column_blocks_give_the_whole_product(self):
        g = planted_graph(np.random.default_rng(2), 300, 3)
        x = np.random.default_rng(5).uniform(-1, 1, size=(g.n, 19))
        for _ in range(3):
            x = dhn.l2_normalize_rows(g.weights @ x)
        for columns in (1, 4, 19, 64):
            with mock.patch.object(dhn.embedding, "_PRODUCT_COLUMNS", columns):
                assert run_cleora(g, 19, seed=5).tobytes() == x.tobytes()

    def test_isolated_node_keeps_its_zero_row(self):
        g = dhn.WeightedGraph([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        x = run_cleora(g, 3, iters=2, seed=1)
        assert np.array_equal(x[2], np.zeros(3))
        assert np.allclose(np.linalg.norm(x[:2], axis=1), 1.0, atol=1e-12)


def reference_write_embedding(path, embedding, labels=None):
    """The per-value writer the row template replaced: the byte-identity reference."""
    embedding = np.asarray(embedding, dtype=float)
    if labels is None:
        labels = [str(i) for i in range(embedding.shape[0])]
    with open(path, "w") as fh:
        for label, row in zip(labels, embedding):
            fh.write(str(label) + " " + " ".join(f"{v:.17g}" for v in row) + "\n")


EDGE_VALUES = np.array(
    [
        [-0.0, 5e-324, 1e-300, 1.0],
        [-1.0, 0.1, 1e16, 123456789.123],
        [0.0, 0.0, 0.0, 0.0],
        [np.nan, np.inf, -np.inf, 1e308],
    ]
)


def assert_same_bytes(tmp_path, embedding, labels=None):
    new, old = tmp_path / "new.emb", tmp_path / "old.emb"
    write_embedding(new, embedding, labels=labels)
    reference_write_embedding(old, embedding, labels=labels)
    assert new.read_bytes() == old.read_bytes()


class TestEmbeddingExport:
    def test_round_trip_precision(self, tmp_path):
        g = ring_graph(5)
        emb = run_cleora(g, 3, iters=2, seed=6)
        path = tmp_path / "ring.emb"
        write_embedding(path, emb, labels=g.labels())
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5
        for i, line in enumerate(lines):
            tokens = line.split()
            assert tokens[0] == g.labels()[i]
            values = np.array([float(t) for t in tokens[1:]])
            assert np.array_equal(values, emb[i])  # 17 significant digits round-trip

    def test_label_count_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_embedding(tmp_path / "x.emb", np.zeros((2, 2)), labels=["only-one"])

    def test_non_2d_rejected_before_file_exists(self, tmp_path):
        path = tmp_path / "x.emb"
        for bad in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                write_embedding(path, bad)
            assert not path.exists()

    @pytest.mark.parametrize(
        "labels", [None, ["a", "b", "long-label_3", "d"], [10, -2, 0, 7]], ids=["none", "str", "int"]
    )
    def test_bytes_equal_per_value_writer(self, tmp_path, labels):
        assert_same_bytes(tmp_path, EDGE_VALUES, labels)

    def test_bytes_equal_on_cleora_output_and_empty_rows(self, tmp_path):
        g = ring_graph(9)
        assert_same_bytes(tmp_path, run_cleora(g, 6, iters=3, seed=3), g.labels())
        g = planted_graph(np.random.default_rng(3), 2400, 12)
        assert_same_bytes(tmp_path, run_cleora(g, 64, seed=7), g.labels())
        assert_same_bytes(tmp_path, np.zeros((3, 0)))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)))
    def test_bytes_equal_on_any_float64_matrix(self, tmp_path_factory, embedding):
        assert_same_bytes(tmp_path_factory.mktemp("emb"), embedding)

    def test_memory_stays_per_row(self, tmp_path):
        # 6000 x 64 as on the cleora-6k benchmark; turning the whole matrix
        # into Python floats at once peaks at about 12 MiB
        embedding = np.random.default_rng(0).uniform(-1.0, 1.0, size=(6000, 64))
        labels = [f"n{i}" for i in range(6000)]
        tracemalloc.start()
        try:
            write_embedding(tmp_path / "big.emb", embedding, labels=labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def near_power_of_ten(k, ulps):
    """The double ``ulps`` steps from the double nearest 10**k."""
    return float((np.array(float(f"1e{k}")).view(np.int64) + ulps).view(np.float64))


FALLBACK_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1.0, -1.0, 1e16, np.nan, np.inf, -np.inf]
SIGNS = st.sampled_from([1.0, -1.0])
FORMATTER_VALUES = st.one_of(
    st.builds(
        lambda k, ulps, sign: sign * near_power_of_ten(k, ulps),
        st.integers(-5, 0),
        st.integers(-200, 200),
        SIGNS,
    ),
    st.builds(lambda v, sign: sign * v, st.floats(5e-5, 2e-4), SIGNS),
    st.builds(lambda v, sign: sign * v, st.floats(0.5, 2.0), SIGNS),
    st.floats(-1.0, 1.0),
    st.sampled_from(FALLBACK_VALUES),
)


class TestVectorisedFormatter:
    """write_embedding's numpy %.17g against the per-value writer, in blocks of a few values."""

    @pytest.mark.parametrize("k", range(-5, 1))
    def test_bytes_equal_within_200_ulps_of_powers_of_ten(self, tmp_path, k):
        values = np.array([near_power_of_ten(k, ulps) for ulps in range(-200, 201)])
        assert_same_bytes(tmp_path, np.stack([values, -values[::-1]], axis=1))
        if -4 <= k <= -1:
            # the double nearest 10**k lies above it, and the one below prints below 10**k,
            # so no double rounds up to 10**k at 17 digits
            assert Fraction(float(f"1e{k}")) > Fraction(1, 10**-k)
            assert Decimal(f"{near_power_of_ten(k, -1):.17g}") < Decimal(f"1e{k}")

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(0, 9), st.integers(0, 7), st.integers(1, 12))
    def test_bytes_equal_on_mixed_values(self, tmp_path_factory, data, n, d, block_values):
        embedding = data.draw(hnp.arrays(np.float64, (n, d), elements=FORMATTER_VALUES))
        with mock.patch.object(dhn.embedding, "_BLOCK_VALUES", block_values):
            assert_same_bytes(tmp_path_factory.mktemp("emb"), embedding)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 9), st.integers(1, 30))
    def test_bytes_equal_on_unit_rows(self, tmp_path_factory, seed, n, d, block_values):
        rows = np.random.default_rng(seed).standard_normal((n, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        with mock.patch.object(dhn.embedding, "_BLOCK_VALUES", block_values):
            assert_same_bytes(tmp_path_factory.mktemp("emb"), rows)

    @pytest.mark.parametrize("labels_kind", ["none", "int", "str"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: x[:0],
            lambda x: x[:, :0],
            lambda x: x[::2, 1::3],
            lambda x: x.astype(np.float32),
            lambda x: x,
        ],
        ids=["n=0", "d=0", "slice", "float32", "whole"],
    )
    def test_bytes_equal_on_shapes_and_labels(self, tmp_path, make, labels_kind):
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(11, 7))
        x[3, 2], x[6, :] = 5e-5, 0.0
        embedding = make(x)
        n = embedding.shape[0]
        labels = {"none": None, "int": list(range(100, 100 + n)), "str": [f"v{i}" for i in range(n)]}
        labels = labels[labels_kind]
        with mock.patch.object(dhn.embedding, "_BLOCK_VALUES", 5):
            assert_same_bytes(tmp_path, embedding, labels)

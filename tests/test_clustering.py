import itertools

import numpy as np
import pytest

import dhn

from conftest import extended_cut_of_state, random_onehot, random_symmetric, serial_fixed_points


def triangle():
    w = np.ones((3, 3)) - np.eye(3)
    return dhn.WeightedGraph(w)


class TestTypes:
    def test_graph_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            dhn.WeightedGraph([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            dhn.WeightedGraph([[0.0, 1.0], [2.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_graph_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError):
            dhn.WeightedGraph([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError):
            dhn.DhnNetwork([[0.0, bad], [bad, 0.0]], np.zeros((2, 1)))

    def test_graph_volume_and_degrees(self):
        g = triangle()
        assert g.volume == 6.0
        assert g.degrees.tolist() == [2.0, 2.0, 2.0]

    def test_clustering_validation(self):
        with pytest.raises(ValueError):
            dhn.Clustering([0, 2], d=2)
        with pytest.raises(ValueError):
            dhn.Clustering([0], d=0)

    @pytest.mark.parametrize(
        "assignment, first_bad",
        [([0, 2, -1], 2), ([0, -1, 2], -1), (np.array([1, 5, 0, 3]), 5), ([1, 0, 1, 9], 9)],
    )
    def test_clustering_names_the_first_index_out_of_range(self, assignment, first_bad):
        with pytest.raises(ValueError, match=rf"^cluster index {first_bad} outside 0\.\.1$"):
            dhn.Clustering(assignment, d=2)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_clustering_from_integer_array_holds_builtin_ints(self, dtype):
        c = dhn.Clustering(np.array([1, 0, 2, 1], dtype=dtype), d=3)
        assert c.assignment == (1, 0, 2, 1)
        assert all(type(a) is int for a in c.assignment)  # so result JSON stays the same

    def test_matrix_round_trip(self):
        c = dhn.Clustering([2, 0, 2, 1], d=3)
        assert dhn.clustering_from_matrix(dhn.clustering_to_matrix(c)) == c

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            dhn.validate_clustering_matrix([[0.5, 0.5]])
        with pytest.raises(ValueError):
            dhn.validate_clustering_matrix([[1.0, 1.0]])

    def test_canonical_first_occurrence(self):
        c = dhn.Clustering([2, 2, 0, 1], d=3)
        assert c.canonical().assignment == (0, 0, 1, 2)

    def test_same_partition_under_column_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 5))
            c = dhn.Clustering(rng.integers(0, d, n), d)
            perm = rng.permutation(d)
            x = dhn.clustering_to_matrix(c)[:, perm]
            assert dhn.clustering_from_matrix(x).same_partition(c)


class TestDCut:
    def test_triangle_split(self):
        assert dhn.d_cut_value(triangle(), dhn.Clustering([0, 0, 1], 2)) == 4.0

    def test_single_cluster_is_zero(self):
        rng = np.random.default_rng(1)
        g = dhn.WeightedGraph(random_symmetric(rng, 6))
        assert dhn.d_cut_value(g, dhn.Clustering([0] * 6, 1)) == 0.0

    def test_negative_edge(self):
        g = dhn.WeightedGraph([[0.0, -1.0], [-1.0, 0.0]])
        assert dhn.d_cut_value(g, dhn.Clustering([0, 1], 2)) == -2.0

    def test_trace_form_on_triangle(self):
        x = dhn.clustering_to_matrix(dhn.Clustering([0, 0, 1], 2))
        assert dhn.d_cut_via_trace(triangle(), x) == 4.0

    def test_trace_form_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            dhn.d_cut_via_trace(triangle(), np.full((3, 2), 0.5))

    def test_trace_equals_direct_sum_random(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n, d = int(rng.integers(2, 11)), int(rng.integers(1, 5))
            g = dhn.WeightedGraph(random_symmetric(rng, n))
            c = dhn.Clustering(rng.integers(0, d, n), d)
            direct = dhn.d_cut_value(g, c)
            trace = dhn.d_cut_via_trace(g, dhn.clustering_to_matrix(c))
            assert abs(direct - trace) <= 1e-9 * max(1.0, abs(direct))

    def test_trace_exact_on_integer_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n, d = int(rng.integers(2, 11)), int(rng.integers(1, 5))
            w = rng.integers(-3, 4, size=(n, n))
            w = np.triu(w, 1) + np.triu(w, 1).T + np.diag(rng.integers(0, 3, n))
            g = dhn.WeightedGraph(w.astype(float))
            c = dhn.Clustering(rng.integers(0, d, n), d)
            assert dhn.d_cut_value(g, c) == dhn.d_cut_via_trace(g, dhn.clustering_to_matrix(c))

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        g = dhn.WeightedGraph(random_symmetric(rng, 7))
        x = random_onehot(rng, 7, 3)
        for perm in itertools.permutations(range(3)):
            assert dhn.d_cut_via_trace(g, x[:, perm]) == dhn.d_cut_via_trace(g, x)


class TestExtension:
    def test_canonical_extension_identity(self):
        out = dhn.canonical_extension(np.eye(2))
        assert out.tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]

    def test_canonical_extension_shared_cluster(self):
        out = dhn.canonical_extension(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert out.tolist() == [[1, 0], [1, 0], [1, 0], [0, 1]]

    def test_canonical_extension_rows_one_hot(self):
        rng = np.random.default_rng(5)
        x = random_onehot(rng, 6, 3)
        dhn.validate_clustering_matrix(dhn.canonical_extension(x))

    def test_build_zero_blocks(self):
        ext = dhn.build_extended_graph(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((3, 3)))
        assert np.array_equal(ext.assembled, np.zeros((5, 5)))

    def test_build_block_layout(self):
        ext = dhn.build_extended_graph([[2.0]], [[3.0]], [[-5.0]])
        assert ext.assembled.tolist() == [[2, 3], [3, -5]]

    def test_build_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            dhn.build_extended_graph([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 1)), [[0.0]])
        with pytest.raises(ValueError):
            dhn.build_extended_graph(np.zeros((2, 2)), np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]])

    def test_extended_cut_identity(self):
        # cut of the canonical extension = Vol - Tr(U) + V(X), both sides computed
        rng = np.random.default_rng(6)
        for _ in range(30):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            w = random_symmetric(rng, n)
            b = rng.uniform(-1, 1, size=(n, d))
            u = random_symmetric(rng, d, diag="any")
            ext = dhn.build_extended_graph(w, b, u)
            net = dhn.DhnNetwork(w, b)
            x = random_onehot(rng, n, d)
            lhs = extended_cut_of_state(ext, x)
            rhs = ext.as_graph().volume - np.trace(u) + dhn.energy(net, x)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestCutMonotonicity:
    def test_zero_bias_runs_never_raise_the_cut(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            n, d = int(rng.integers(3, 10)), int(rng.integers(2, 5))
            w = random_symmetric(rng, n)
            g = dhn.WeightedGraph(w)
            net = dhn.DhnNetwork(w, np.zeros((n, d)))
            x = random_onehot(rng, n, d)
            cut = dhn.d_cut_via_trace(g, x)
            for _sweep in range(5):
                for i in range(n):
                    stepped = dhn.serial_step(net, x, i)
                    new_cut = dhn.d_cut_via_trace(g, stepped)
                    if np.array_equal(stepped, x):
                        assert new_cut == cut
                    else:
                        assert new_cut < cut
                    x, cut = stepped, new_cut

    def test_extended_cut_nonincreasing_with_bias(self):
        # any symmetric coupling only shifts the cut by a constant
        rng = np.random.default_rng(21)
        for _ in range(10):
            n, d = int(rng.integers(3, 8)), int(rng.integers(2, 4))
            w = random_symmetric(rng, n)
            b = rng.uniform(-1, 1, size=(n, d))
            u = random_symmetric(rng, d, diag="any")
            ext = dhn.build_extended_graph(w, b, u)
            net = dhn.DhnNetwork(w, b)
            x = random_onehot(rng, n, d)
            cut = extended_cut_of_state(ext, x)
            for _sweep in range(4):
                for i in range(n):
                    x = dhn.serial_step(net, x, i)
                    new_cut = extended_cut_of_state(ext, x)
                    assert new_cut <= cut + 1e-9
                    cut = new_cut


class TestKappaPolicy:
    def test_zero_instance(self):
        kp = dhn.kappa_policy(np.zeros((2, 2)), np.zeros((2, 2)))
        assert kp.kappa == 1.0 and kp.bound_M == 0.0

    def test_single_edge(self):
        kp = dhn.kappa_policy([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)))
        assert kp.bound_M == 2.0 and kp.kappa == 5.0

    def test_coupling_shape(self):
        u = dhn.kappa_policy(np.zeros((2, 2)), np.zeros((2, 2))).coupling(3)
        assert np.array_equal(u, -np.ones((3, 3)) + np.eye(3))

    def test_bounds_hold_exhaustively(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            w = random_symmetric(rng, n, diag="any")
            b = rng.uniform(-1, 1, size=(n, d))
            kp = dhn.kappa_policy(w, b)
            assert kp.bound_m + kp.kappa > kp.bound_M
            for ax in itertools.product(range(d), repeat=n):
                x = dhn.clustering_to_matrix(dhn.Clustering(ax, d))
                for ay in itertools.product(range(d), repeat=d):
                    y = dhn.clustering_to_matrix(dhn.Clustering(ay, d))
                    value = -np.trace(x.T @ w @ x + 2.0 * x.T @ b @ y)
                    assert kp.bound_m <= value <= kp.bound_M


class TestBruteForce:
    def test_negative_edge_prefers_split(self):
        g = dhn.WeightedGraph([[0.0, -1.0], [-1.0, 0.0]])
        c, value = dhn.brute_force_min_dcut(g, 2)
        assert value == -2.0
        assert c.assignment == (0, 1)

    def test_triangle_keeps_one_cluster(self):
        c, value = dhn.brute_force_min_dcut(triangle(), 2)
        assert value == 0.0
        assert c.assignment == (0, 0, 0)  # lexicographically smallest minimizer

    def test_disjoint_pairs_component_split(self):
        from dhn.graphs import disjoint_pairs_graph

        c, value = dhn.brute_force_min_dcut(disjoint_pairs_graph(2), 2)
        assert value == 0.0
        assert c.assignment == (0, 0, 0, 0)  # all-in-one also cuts nothing and sorts first

    def test_matches_plain_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            g = dhn.WeightedGraph(random_symmetric(rng, n, diag="any"))
            best = min(
                (dhn.d_cut_value(g, dhn.Clustering(a, d)), a)
                for a in itertools.product(range(d), repeat=n)
            )
            c, value = dhn.brute_force_min_dcut(g, d)
            assert value == pytest.approx(best[0], abs=1e-12)
            assert c.assignment == best[1]

    def test_size_guard(self):
        g = dhn.WeightedGraph(np.zeros((40, 40)))
        with pytest.raises(dhn.InstanceTooLargeError):
            dhn.brute_force_min_dcut(g, 4)


class TestCensus:
    def test_zero_network_every_state_stable(self):
        net = dhn.DhnNetwork(np.zeros((3, 3)), np.zeros((3, 2)))
        census = dhn.stable_states_census(net)
        assert len(census) == 2**3

    def test_matches_serial_fixed_points_on_tie_free_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            w = random_symmetric(rng, n)
            b = rng.uniform(-1, 1, size=(n, d))
            net = dhn.DhnNetwork(w, b)
            census = dhn.stable_states_census(net)
            everything = [
                dhn.Clustering(a, d) for a in itertools.product(range(d), repeat=n)
            ]
            fixed = set(serial_fixed_points(net, everything))
            assert census == fixed

    def test_census_is_extended_cut_local_minimality_for_zero_diag(self):
        # the two notions coincide exactly when the diagonal is zero
        rng = np.random.default_rng(10)
        for _ in range(8):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            w = random_symmetric(rng, n, diag="zero")
            b = rng.uniform(-1, 1, size=(n, d))
            u = random_symmetric(rng, d, diag="any")
            net = dhn.DhnNetwork(w, b)
            ext = dhn.build_extended_graph(w, b, u)
            census = dhn.stable_states_census(net)
            for a in itertools.product(range(d), repeat=n):
                c = dhn.Clustering(a, d)
                x = dhn.clustering_to_matrix(c)
                base = extended_cut_of_state(ext, x)
                improvable = False
                for node in range(n):
                    for target in range(d):
                        if target == a[node]:
                            continue
                        moved = list(a)
                        moved[node] = target
                        xm = dhn.clustering_to_matrix(dhn.Clustering(moved, d))
                        if extended_cut_of_state(ext, xm) < base:
                            improvable = True
                if improvable:
                    assert c not in census
                else:
                    assert c in census

    def test_positive_diagonal_breaks_the_equivalence(self):
        # stable state whose extended cut a single move still improves
        w = np.array([[2.0, -0.5], [-0.5, 2.0]])
        net = dhn.DhnNetwork(w, np.zeros((2, 2)))
        ext = dhn.build_extended_graph(w, np.zeros((2, 2)), np.zeros((2, 2)))
        together = dhn.Clustering([0, 0], 2)
        assert together in dhn.stable_states_census(net)
        x = dhn.clustering_to_matrix(together)
        split = dhn.clustering_to_matrix(dhn.Clustering([0, 1], 2))
        assert extended_cut_of_state(ext, split) < extended_cut_of_state(ext, x)

    def test_global_minimizer_appears_in_census(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            w = random_symmetric(rng, n)
            b = rng.uniform(-1, 1, size=(n, d))
            kp = dhn.kappa_policy(w, b)
            ext = dhn.build_extended_graph(w, b, kp.coupling(d))
            best, _ = dhn.brute_force_min_dcut(ext.as_graph(), d)
            anchors = best.assignment[n:]
            assert len(set(anchors)) == d  # anchors end up in d distinct clusters
            relabel = {cluster: j for j, cluster in enumerate(anchors)}
            aligned = dhn.Clustering([relabel[a] for a in best.assignment[:n]], d)
            net = dhn.DhnNetwork(w, b)
            assert aligned in dhn.stable_states_census(net)

    def test_census_requires_classification(self):
        net = dhn.DhnNetwork(np.zeros((2, 2)), np.zeros((2, 2)), dhn.Activation.L2_NORMALIZE)
        with pytest.raises(ValueError):
            dhn.stable_states_census(net)

    def test_census_size_guard(self):
        net = dhn.DhnNetwork(np.zeros((30, 30)), np.zeros((30, 4)))
        with pytest.raises(dhn.InstanceTooLargeError):
            dhn.stable_states_census(net)


# each input check with the exception and message it raises
INPUT_CHECKS = [
    pytest.param(
        lambda: dhn.WeightedGraph(np.ones((3, 3)) - np.eye(3), node_labels=["a", "b"]),
        ValueError, "node_labels length must equal the node count", id="node-labels-length",
    ),
    pytest.param(
        lambda: dhn.validate_clustering_matrix(np.zeros((3, 0))),
        ValueError, "must be n x d with d >= 1", id="n-by-0-clustering-matrix",
    ),
    pytest.param(
        lambda: dhn.d_cut_value(triangle(), dhn.Clustering([0, 1], 2)),
        ValueError, "covers 2 nodes but the graph has 3", id="d-cut-size",
    ),
    pytest.param(
        lambda: dhn.d_cut_via_trace(triangle(), np.eye(2)),
        ValueError, "matrix has 2 rows but the graph has 3 nodes", id="d-cut-via-trace-size",
    ),
    pytest.param(
        lambda: dhn.build_extended_graph(triangle().weights, np.zeros((3, 2)), np.zeros((2, 3))),
        ValueError, "coupling matrix must be square", id="non-square-coupling",
    ),
    pytest.param(
        lambda: dhn.build_extended_graph(triangle().weights, np.zeros((3, 3)), np.zeros((2, 2))),
        ValueError, r"bias must be 3x2, got shape \(3, 3\)", id="bias-shape",
    ),
    pytest.param(
        lambda: dhn.build_extended_graph(triangle().weights, np.zeros(3), np.zeros((2, 2))),
        ValueError, r"bias must be 3x2, got shape \(3,\)", id="one-dimensional-bias",
    ),
    pytest.param(
        lambda: dhn.brute_force_min_dcut(triangle(), 0),
        ValueError, "cluster count d must be positive", id="brute-force-zero-clusters",
    ),
]


@pytest.mark.parametrize("call, error, message", INPUT_CHECKS)
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()

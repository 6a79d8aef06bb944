import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import dhn
from dhn.core import ConvergenceCriterion, Outcome
from dhn.graphs import disjoint_pairs_graph, karate_club, ring_graph
from dhn.modularity import _lms_sweeps

from conftest import random_positive_graph


def single_edge_graph():
    return dhn.WeightedGraph([[0.0, 1.0], [1.0, 0.0]])


def random_integer_graph(rng, n):
    """Integer weights in -2..3, self-loops included, resampled until the volume is positive."""
    while True:
        w = np.triu(rng.integers(-2, 4, size=(n, n)) * (rng.random((n, n)) < 0.4))
        w = w + np.triu(w, 1).T
        if w.sum() > 0:
            return dhn.WeightedGraph(w.astype(float))


def exact_lms_network(g, d):
    """Vol^2 times the LMS network: M = Vol W - k kt with a zeroed diagonal.

    On integer weights every entry and every row product is an exact integer
    in float64, so its argmax decides ties by the lowest index alone.
    """
    k = g.degrees
    m = g.volume * g.weights.toarray() - np.outer(k, k)
    np.fill_diagonal(m, 0.0)
    return dhn.DhnNetwork(m, np.zeros((g.n, d)))


class TestModularityMatrix:
    def test_single_edge_entries(self):
        mm = dhn.modularity_matrix(single_edge_graph())
        assert np.allclose(mm.q.toarray(), [[-0.25, 0.25], [0.25, -0.25]])
        assert mm.volume == 2.0

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_positive_graph(rng, int(rng.integers(3, 12)))
            mm = dhn.modularity_matrix(g)
            assert np.all(np.abs(mm.q @ np.ones(g.n)) <= 1e-9)

    def test_zero_diag_variant(self):
        mm = dhn.modularity_matrix(single_edge_graph())
        assert np.all(mm.q.zero_diagonal().diagonal() == 0.0)
        off = ~np.eye(2, dtype=bool)
        assert np.array_equal(mm.q.zero_diagonal().toarray()[off], mm.q.toarray()[off])

    def test_zero_volume_rejected(self):
        with pytest.raises(dhn.DegenerateGraphError):
            dhn.modularity_matrix(dhn.WeightedGraph(np.zeros((3, 3))))

    def test_negative_volume_rejected(self):
        g = dhn.WeightedGraph([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(dhn.DegenerateGraphError):
            dhn.modularity_matrix(g)


class TestModularityScore:
    def test_single_edge_together(self):
        assert dhn.modularity_score(single_edge_graph(), dhn.Clustering([0, 0], 1)) == 0.0

    def test_single_edge_split(self):
        got = dhn.modularity_score(single_edge_graph(), dhn.Clustering([0, 1], 2))
        assert got == pytest.approx(-0.5, abs=1e-15)

    def test_disjoint_pairs_components(self):
        got = dhn.modularity_score(disjoint_pairs_graph(2), dhn.Clustering([0, 0, 1, 1], 2))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_networkx_oracle(self):
        networkx = pytest.importorskip("networkx")
        g = karate_club()
        rng = np.random.default_rng(1)
        G = networkx.Graph()
        G.add_nodes_from(range(g.n))
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.weights[i, j]:
                    G.add_edge(i, j)
        for _ in range(5):
            assignment = rng.integers(0, 4, size=g.n)
            communities = [set(np.nonzero(assignment == k)[0].tolist()) for k in range(4)]
            ours = dhn.modularity_score(g, dhn.Clustering(assignment, 4))
            theirs = networkx.community.modularity(
                G, [c for c in communities if c], weight=None
            )
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_duality_with_q_weighted_cut(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            g = random_positive_graph(rng, int(rng.integers(3, 10)))
            q = dhn.modularity_matrix(g).q.toarray()
            gq = dhn.WeightedGraph(q)
            d = int(rng.integers(1, 5))
            c = dhn.Clustering(rng.integers(0, d, g.n), d)
            lhs = dhn.modularity_score(g, c)
            rhs = q.sum() - dhn.d_cut_value(gq, c)
            assert abs(lhs - rhs) <= 1e-9


class TestLmsNetwork:
    def test_construction(self):
        g = single_edge_graph()
        net = dhn.build_lms_network(g, g.n)
        assert np.all(net.weights.diagonal() == 0.0)
        assert net.d == 2

    def test_serial_energy_monotone_from_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_positive_graph(rng, int(rng.integers(3, 9)))
            net = dhn.build_lms_network(g, g.n)
            report = dhn.run_serial(net, np.eye(g.n))
            assert report.outcome is Outcome.STABLE
            assert np.all(np.diff(report.energy_trace) <= 0)


class TestLouvainUpdate:
    def test_disjoint_pairs_first_move(self):
        g = disjoint_pairs_graph(2)
        singletons = dhn.Clustering(range(4), 4)
        moved = dhn.louvain_update(g, singletons, 0)
        assert moved.assignment[0] == moved.assignment[1]

    def test_already_optimal_is_identity(self):
        g = disjoint_pairs_graph(2)
        c = dhn.Clustering([0, 0, 1, 1], 2)
        assert dhn.louvain_update(g, c, 2) is c

    def test_matches_network_step_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            g = random_positive_graph(rng, int(rng.integers(3, 13)))
            d = int(rng.integers(2, 5))
            c = dhn.Clustering(rng.integers(0, d, g.n), d)
            net = dhn.build_lms_network(g, d)
            x = dhn.clustering_to_matrix(c)
            for u in range(g.n):
                via_louvain = dhn.louvain_update(g, c, u)
                via_network = dhn.clustering_from_matrix(dhn.serial_step(net, x, u))
                assert via_network.same_partition(via_louvain)


class TestRunLms:
    def test_disjoint_pairs_reaches_brute_force_optimum(self):
        g = disjoint_pairs_graph(2)
        best = max(
            dhn.modularity_score(g, dhn.Clustering(a, 4))
            for a in itertools.product(range(4), repeat=4)
        )
        c, report = dhn.run_lms(g)
        assert report.outcome is Outcome.STABLE
        assert dhn.modularity_score(g, c) == pytest.approx(best, abs=1e-15)
        assert best == pytest.approx(0.5, abs=1e-15)

    def test_single_edge_merges(self):
        g = single_edge_graph()
        c, _ = dhn.run_lms(g)
        assert c.canonical().assignment == (0, 0)
        assert dhn.modularity_score(g, c) == 0.0

    def test_modularity_nondecreasing_along_run(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_positive_graph(rng, int(rng.integers(3, 9)))
            net = dhn.build_lms_network(g, g.n)
            x = np.eye(g.n)
            previous = dhn.modularity_score(g, dhn.clustering_from_matrix(x))
            for _sweep in range(4):
                for u in range(g.n):
                    x = dhn.serial_step(net, x, u)
                    current = dhn.modularity_score(g, dhn.clustering_from_matrix(x))
                    assert current >= previous - 1e-12
                    previous = current


class TestLmsExactOracle:
    """The label-vector sweep against run_serial on the exact integer network."""

    def test_run_lms_matches_exact_network(self):
        rng = np.random.default_rng(12)
        for case in range(80):
            g = random_integer_graph(rng, int(rng.integers(2, 41)))
            crit = ConvergenceCriterion(max_iters=2 if case % 4 == 0 else 1000)
            c, report = dhn.run_lms(g, crit=crit)
            oracle = dhn.run_serial(exact_lms_network(g, g.n), np.eye(g.n), crit=crit)
            assert np.array_equal(report.final_state, np.argmax(oracle.final_state, axis=1))
            assert c == dhn.clustering_from_matrix(oracle.final_state)
            assert report.iterations == oracle.iterations
            assert report.outcome is oracle.outcome

    def test_gnm_lms_sweep_matches_exact_network(self):
        rng = np.random.default_rng(13)
        crit = ConvergenceCriterion(max_iters=50)
        for seed in range(30):
            g = random_integer_graph(rng, int(rng.integers(4, 41)))
            d = int(rng.integers(2, 7))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # rank-deficient frames
                gnm_c, _ = dhn.run_gnm(g, d, seed=seed, crit=crit)
                c, report = dhn.run_gnm_plus_lms(g, d, seed=seed, crit=crit)
            oracle = dhn.run_serial(
                exact_lms_network(g, d),
                dhn.clustering_to_matrix(gnm_c),
                crit=ConvergenceCriterion(max_iters=1),
            )
            assert np.array_equal(report.final_state, oracle.final_state)
            assert c == dhn.clustering_from_matrix(oracle.final_state)

    def test_exact_tie_goes_to_lowest_index(self):
        # node 2 (degree 6, Vol 14) scores 14*2 - 6*2 = 16 in its own cluster 2
        # (holding node 0) and 14*2 - 6*2 = 16 in cluster 4: it stays in 2.
        # The unscaled float scores 16/196 round apart and once picked 4.
        w = np.zeros((6, 6))
        for i, j, weight in [(0, 2, 2), (1, 5, 1), (2, 3, 1), (2, 4, 2), (2, 5, 1)]:
            w[i, j] = w[j, i] = weight
        g = dhn.WeightedGraph(w)
        c = dhn.Clustering([2, 1, 2, 3, 4, 5], 6)
        row = exact_lms_network(g, 6).weights.row(dhn.clustering_to_matrix(c), 2)
        assert row[2] == row[4] == np.max(row) == 16.0
        assert dhn.louvain_update(g, c, 2) is c
        lms_c, _ = dhn.run_lms(g)
        assert lms_c.assignment == (2, 5, 2, 2, 2, 5)

    def test_energy_trace(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            g = random_integer_graph(rng, int(rng.integers(2, 30)))
            c, report = dhn.run_lms(g)
            trace = np.array(report.energy_trace)
            assert len(trace) == 1 + g.n * report.iterations
            assert np.all(np.diff(trace) <= 0.0)
            final = dhn.energy(dhn.build_lms_network(g, g.n), dhn.clustering_to_matrix(c))
            assert abs(trace[-1] - final) <= 1e-12

    def test_energy_trace_from_any_start(self):
        # the exact network's energy is Vol^2 times the LMS network's
        rng = np.random.default_rng(16)
        for _ in range(40):
            g = random_integer_graph(rng, int(rng.integers(2, 30)))
            d = int(rng.integers(1, 5))
            labels = rng.integers(0, d, g.n)
            report = _lms_sweeps(g, labels, d, 1000, track_energy=True)
            x0 = dhn.clustering_to_matrix(dhn.Clustering(labels, d))
            oracle = dhn.run_serial(exact_lms_network(g, d), x0)
            assert np.array_equal(report.final_state, np.argmax(oracle.final_state, axis=1))
            expected = np.array(oracle.energy_trace) / g.volume**2
            assert np.allclose(report.energy_trace, expected, rtol=0.0, atol=1e-12)

    def test_energy_falls_at_every_move(self):
        # continuous weights: no exact ties, so every move strictly gains
        rng = np.random.default_rng(15)
        for _ in range(20):
            g = random_positive_graph(rng, int(rng.integers(3, 15)))
            _, report = dhn.run_lms(g)
            net, x = dhn.build_lms_network(g, g.n), np.eye(g.n)
            for step, drop in enumerate(np.diff(report.energy_trace)):
                stepped = dhn.serial_step(net, x, step % g.n)
                if np.array_equal(stepped, x):
                    assert drop == 0.0
                else:
                    assert drop < 0.0
                x = stepped
            assert np.array_equal(np.argmax(x, axis=1), report.final_state)

    def test_no_n_squared_allocation(self):
        # one 3000 x 3000 float64 array is 72 MB
        g = ring_graph(3000)
        tracemalloc.start()
        try:
            dhn.run_lms(g, crit=ConvergenceCriterion(max_iters=3))
            dhn.run_gnm_plus_lms(g, 4, seed=0, crit=ConvergenceCriterion(max_iters=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRunPlms:
    def test_outcomes_are_short_cycles(self):
        rng = np.random.default_rng(6)
        for seed in range(25):
            g = random_positive_graph(rng, int(rng.integers(3, 10)))
            _, report = dhn.run_plms(g, 3, seed=seed)
            assert report.outcome in (Outcome.STABLE, Outcome.TWO_CYCLE)

    def test_fixed_seed_is_deterministic(self):
        g = karate_club()
        c1, _ = dhn.run_plms(g, 4, seed=11)
        c2, _ = dhn.run_plms(g, 4, seed=11)
        assert c1 == c2

    def test_two_cycle_resolution_takes_better_state(self):
        g = disjoint_pairs_graph(2)
        net = dhn.build_lms_network(g, 2)
        for seed in range(16):
            c, report = dhn.run_plms(g, 2, seed=seed)
            if report.cycle_length == 2:
                other = dhn.clustering_from_matrix(
                    dhn.parallel_step(net, report.final_state)
                )
                assert dhn.modularity_score(g, c) >= dhn.modularity_score(g, other)

    def test_disjoint_pairs_basin_is_exactly_the_optimum_itself(self):
        # enumerating all 16 one-hot starts: only the two encodings of the
        # optimal partition reach modularity 1/2, so random starts rarely do
        g = disjoint_pairs_graph(2)
        net = dhn.build_lms_network(g, 2)
        winners = 0
        for labels in itertools.product(range(2), repeat=4):
            x0 = dhn.clustering_to_matrix(dhn.Clustering(labels, 2))
            report = dhn.run_parallel(net, x0)
            score = dhn.modularity_score(g, dhn.clustering_from_matrix(report.final_state))
            if report.cycle_length == 2:
                other = dhn.clustering_from_matrix(dhn.parallel_step(net, report.final_state))
                score = max(score, dhn.modularity_score(g, other))
            if score == pytest.approx(0.5, abs=1e-15):
                winners += 1
                assert dhn.Clustering(labels, 2).same_partition(dhn.Clustering([0, 0, 1, 1], 2))
        assert winners == 2
        hits = sum(
            dhn.modularity_score(g, dhn.run_plms(g, 2, seed=s)[0]) == pytest.approx(0.5, abs=1e-15)
            for s in range(32)
        )
        assert hits >= 1  # observed 3/32 under these seeds; majority is impossible


class TestPowerMethod:
    def test_diagonal_dominant_axis(self):
        v = dhn.power_method(np.diag([2.0, 1.0]), seed=0)
        assert abs(abs(v[0]) - 1.0) <= 1e-7
        assert abs(v[1]) <= 1e-7

    def test_known_eigenpair(self):
        v = dhn.power_method(np.array([[2.0, 1.0], [1.0, 2.0]]), seed=1)
        target = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(v - target), np.linalg.norm(v + target)) <= 1e-7

    def test_identity_returns_normalized_start(self):
        seed = 5
        v0 = np.random.default_rng(seed).uniform(-1, 1, size=4)
        v = dhn.power_method(np.eye(4), seed=seed)
        assert np.allclose(v, v0 / np.linalg.norm(v0))

    def test_zero_matrix_degenerate(self):
        with pytest.raises(dhn.DegenerateSpectrumError):
            dhn.power_method(np.zeros((3, 3)), seed=0)

    def test_rayleigh_residual_small_with_gap(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
            spectrum = np.concatenate([[1.0], rng.uniform(-0.85, 0.85, size=n - 1)])
            m = (basis * spectrum) @ basis.T
            u = dhn.power_method(m, seed=int(rng.integers(1 << 31)))
            rho = u @ m @ u
            assert np.linalg.norm(m @ u - rho * u) <= 1e-6


class TestNewmanBisect:
    def test_disjoint_pairs_component_split(self):
        g = disjoint_pairs_graph(2)
        c = dhn.newman_bisect(g, seed=0)
        assert c.same_partition(dhn.Clustering([0, 0, 1, 1], 2))
        assert dhn.modularity_score(g, c) == pytest.approx(0.5, abs=1e-15)

    def test_two_clusters_always(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            g = random_positive_graph(rng, int(rng.integers(3, 10)))
            c = dhn.newman_bisect(g, seed=seed)
            assert c.d == 2
            assert set(c.assignment) <= {0, 1}

    def test_sign_flip_only_permutes_labels(self):
        g = karate_club()
        q = dhn.modularity_matrix(g).q
        v = dhn.power_method(q, seed=3)
        a = dhn.Clustering(np.where(v >= 0.0, 0, 1), 2)
        b = dhn.Clustering(np.where(-v >= 0.0, 0, 1), 2)
        # sgn(0) = +1 can move a zero entry across, but v has no exact zeros here
        assert np.all(v != 0.0)
        assert a.same_partition(b)

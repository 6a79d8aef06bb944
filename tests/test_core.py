import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dhn
from dhn.core import Activation, Outcome
from dhn.graphs import ring_graph
from dhn.io import load_edge_list, write_edge_list

from conftest import (
    random_classification_net,
    random_onehot,
    random_positive_graph,
    random_symmetric,
)


def two_neuron_net(w01=-1.0):
    w = np.array([[0.0, w01], [w01, 0.0]])
    return dhn.DhnNetwork(w, np.zeros((2, 2)))


class TestClassify:
    # single-row inputs are the serial-step case: one 1 x d pre-activation row
    def test_unique_argmax(self):
        assert dhn.classify_rows([[0.2, 0.7, 0.1]]).tolist() == [[0, 1, 0]]

    def test_tie_goes_to_lowest_index(self):
        assert dhn.classify_rows([[1.0, 1.0]]).tolist() == [[1, 0]]

    def test_all_negative(self):
        assert dhn.classify_rows([[-3.0, -1.0, -2.0]]).tolist() == [[0, 1, 0]]

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            dhn.classify_rows(np.zeros((1, 0)))
        with pytest.raises(ValueError):
            dhn.classify_rows([0.2, 0.7])  # a bare vector is not a 1 x d row

    def test_rows_identity(self):
        assert np.array_equal(dhn.classify_rows(np.eye(2)), np.eye(2))

    def test_rows_argmax(self):
        out = dhn.classify_rows([[0.1, 0.9], [0.8, 0.2]])
        assert out.tolist() == [[0, 1], [1, 0]]

    def test_rows_all_zero_ties(self):
        out = dhn.classify_rows(np.zeros((3, 2)))
        assert out.tolist() == [[1, 0], [1, 0], [1, 0]]

    def test_rows_always_one_hot(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(50, 7))
        out = dhn.classify_rows(m)
        assert np.all((out == 0) | (out == 1))
        assert np.all(out.sum(axis=1) == 1)


class TestSteps:
    def test_serial_step_updates_one_row(self):
        net = two_neuron_net()
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = dhn.serial_step(net, x, 0)
        assert out.tolist() == [[0, 1], [1, 0]]
        assert x.tolist() == [[1, 0], [1, 0]]  # input untouched

    def test_serial_step_fixed_point(self):
        net = two_neuron_net()
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        for i in range(2):
            assert np.array_equal(dhn.serial_step(net, x, i), x)

    def test_serial_step_bias_drives_argmax(self):
        net = dhn.DhnNetwork(np.zeros((1, 1)), np.array([[0.0, 5.0]]))
        out = dhn.serial_step(net, np.array([[1.0, 0.0]]), 0)
        assert out.tolist() == [[0, 1]]

    def test_serial_step_index_out_of_range(self):
        net = two_neuron_net()
        with pytest.raises(IndexError):
            dhn.serial_step(net, np.eye(2), 2)

    def test_parallel_step_classification(self):
        net = two_neuron_net()
        out = dhn.parallel_step(net, np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert out.tolist() == [[0, 1], [0, 1]]

    def test_parallel_step_identity(self):
        net = dhn.DhnNetwork(np.eye(3), np.zeros((3, 2)), Activation.IDENTITY)
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(dhn.parallel_step(net, x), x)

    def test_parallel_step_l2(self):
        net = dhn.DhnNetwork(np.eye(1), np.zeros((1, 2)), Activation.L2_NORMALIZE)
        out = dhn.parallel_step(net, np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]])

    def test_parallel_step_stiefel_d_gt_n(self):
        net = dhn.DhnNetwork(np.eye(2), np.zeros((2, 3)), Activation.STIEFEL_PROJECTION)
        with pytest.raises(ValueError):
            dhn.parallel_step(net, np.zeros((2, 3)))

    def test_serial_step_rejects_whole_matrix_activation(self):
        net = dhn.DhnNetwork(np.eye(3), np.zeros((3, 2)), Activation.STIEFEL_PROJECTION)
        with pytest.raises(ValueError):
            dhn.serial_step(net, np.zeros((3, 2)), 0)


class TestEnergy:
    def test_identity_state_zero_diag(self):
        net = dhn.DhnNetwork([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)))
        assert dhn.energy(net, np.eye(2)) == 0.0

    def test_same_cluster_state(self):
        net = dhn.DhnNetwork([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)))
        assert dhn.energy(net, np.array([[1.0, 0.0], [1.0, 0.0]])) == -2.0

    def test_bias_only(self):
        net = dhn.DhnNetwork(np.zeros((2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert dhn.energy(net, np.array([[0.0, 1.0], [1.0, 0.0]])) == -10.0

    def test_delta_zero(self):
        rng = np.random.default_rng(1)
        net = random_classification_net(rng, 5, 3)
        x = random_onehot(rng, 5, 3)
        assert dhn.energy_delta(net, x, np.zeros((5, 3))) == 0.0

    def test_delta_matches_recomputation(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            net = random_classification_net(rng, n, d)
            x = rng.normal(size=(n, d))
            delta = np.zeros((n, d))
            k = int(rng.integers(n))
            delta[k] = rng.normal(size=d)
            expected = dhn.energy(net, x + delta) - dhn.energy(net, x)
            got = dhn.energy_delta(net, x, delta)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_delta_single_row_swap(self):
        net = dhn.DhnNetwork([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)))
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        delta = np.array([[-1.0, 1.0], [0.0, 0.0]])
        expected = dhn.energy(net, x + delta) - dhn.energy(net, x)
        assert abs(dhn.energy_delta(net, x, delta) - expected) <= 1e-9


class TestRunSerial:
    def test_two_neuron_anti_edge(self):
        net = two_neuron_net()
        report = dhn.run_serial(net, np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert report.outcome is Outcome.STABLE
        assert report.iterations <= 2
        assert report.final_state.tolist() == [[0, 1], [1, 0]]

    def test_stable_start_takes_one_sweep(self):
        net = two_neuron_net()
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = dhn.run_serial(net, x)
        assert report.outcome is Outcome.STABLE
        assert report.iterations == 1
        assert np.array_equal(report.final_state, x)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 4),
        schedule=st.sampled_from(["cyclic", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_instances_converge_with_monotone_energy(self, n, d, schedule, seed):
        # symmetric weights, nonnegative diagonal, argmax: the energy guarantee holds
        rng = np.random.default_rng(seed)
        net = random_classification_net(rng, n, d)
        report = dhn.run_serial(net, random_onehot(rng, n, d), schedule=schedule, seed=seed)
        assert report.outcome is Outcome.STABLE
        trace = np.array(report.energy_trace)
        assert len(trace) == 1 + n * report.iterations
        assert np.all(np.diff(trace) <= 0)
        # the trace accumulates per-move deltas; it must meet a full recomputation
        final = dhn.energy(net, report.final_state)
        assert abs(trace[-1] - final) <= 1e-9 * max(1.0, abs(final))

    def test_schedule_permutation_keeps_monotonicity(self):
        rng = np.random.default_rng(4)
        for seed in range(15):
            net = random_classification_net(rng, 8, 3)
            report = dhn.run_serial(net, random_onehot(rng, 8, 3), schedule="random", seed=seed)
            assert report.outcome is Outcome.STABLE
            assert report.schedule_seed == seed
            assert np.all(np.diff(report.energy_trace) <= 0)

    def test_unknown_schedule(self):
        with pytest.raises(ValueError):
            dhn.run_serial(two_neuron_net(), np.eye(2), schedule="sideways")

    def test_budget_exhaustion_is_reported(self):
        # asymmetric weights void the guarantee; a one-sweep budget must not raise
        net = dhn.DhnNetwork(np.array([[0.0, 2.0], [-2.0, 0.0]]), np.zeros((2, 2)))
        report = dhn.run_serial(
            net,
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            crit=dhn.ConvergenceCriterion(max_iters=1),
        )
        assert report.outcome in (Outcome.STABLE, Outcome.BUDGET_EXHAUSTED)


class TestRunParallel:
    def test_two_cycle(self):
        net = two_neuron_net()
        report = dhn.run_parallel(net, np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert report.outcome is Outcome.TWO_CYCLE
        assert report.cycle_length == 2
        flip = dhn.parallel_step(net, report.final_state)
        assert not np.array_equal(flip, report.final_state)
        assert np.array_equal(dhn.parallel_step(net, flip), report.final_state)

    def test_fixed_point_is_stable(self):
        net = two_neuron_net()
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = dhn.run_parallel(net, x)
        assert report.outcome is Outcome.STABLE
        assert report.cycle_length == 1
        assert report.iterations == 1

    def test_random_symmetric_ends_in_short_cycle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n, d = int(rng.integers(2, 13)), int(rng.integers(1, 5))
            net = dhn.DhnNetwork(
                random_symmetric(rng, n, diag="any"),
                rng.uniform(-1, 1, size=(n, d)),
            )
            report = dhn.run_parallel(net, random_onehot(rng, n, d))
            assert report.outcome in (Outcome.STABLE, Outcome.TWO_CYCLE)

    def test_directional_criterion_for_continuous(self):
        # contraction toward a fixed ray: identity activation, scaled projector
        w = np.array([[0.5, 0.0], [0.0, 0.1]])
        net = dhn.DhnNetwork(w, np.zeros((2, 1)), Activation.IDENTITY)
        report = dhn.run_parallel(net, np.array([[1.0], [1.0]]))
        assert report.outcome is Outcome.STABLE


class TestNetworkValidation:
    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            dhn.DhnNetwork(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dhn.DhnNetwork(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="d >= 1"):
            dhn.DhnNetwork(np.zeros((2, 2)), np.zeros((2, 0)))

    @pytest.mark.parametrize(
        "name", ["build_lms_network", "run_plms", "run_gnm", "run_sgnm", "run_gnm_plus_lms"]
    )
    def test_zero_state_dimension_rejected_by_the_network(self, name):
        with pytest.raises(ValueError, match="d >= 1"):
            getattr(dhn, name)(ring_graph(5), 0)

    def test_criterion_validation(self):
        with pytest.raises(ValueError):
            dhn.ConvergenceCriterion(epsilon=-1.0)
        with pytest.raises(ValueError):
            dhn.ConvergenceCriterion(window=0)
        with pytest.raises(ValueError):
            dhn.ConvergenceCriterion(max_iters=0)


def dense_modularity(g):
    """Reference Q_ij = (W_ij - k_i k_j / Vol) / Vol, computed densely."""
    w = g.weights.toarray()
    k = w.sum(axis=1)
    vol = w.sum()
    return (w - np.outer(k, k) / vol) / vol


class TestOperatorWeights:
    def test_lms_network_matches_dense_q(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_positive_graph(rng, int(rng.integers(3, 12)))
            d = int(rng.integers(2, 5))
            qz = dense_modularity(g)
            np.fill_diagonal(qz, 0.0)
            operator = dhn.build_lms_network(g, d)
            dense = dhn.DhnNetwork(qz, np.zeros((g.n, d)))
            x0 = random_onehot(rng, g.n, d)
            ro, rd = dhn.run_serial(operator, x0), dhn.run_serial(dense, x0)
            assert np.array_equal(ro.final_state, rd.final_state)
            assert ro.iterations == rd.iterations
            assert np.allclose(ro.energy_trace, rd.energy_trace, rtol=1e-12, atol=1e-12)
            po, pd = dhn.run_parallel(operator, x0), dhn.run_parallel(dense, x0)
            assert np.array_equal(po.final_state, pd.final_state)
            assert po.outcome == pd.outcome

    def test_frame_network_matches_dense_q(self):
        rng = np.random.default_rng(7)
        crit = dhn.ConvergenceCriterion(epsilon=0.0, max_iters=40)  # a fixed 40 steps
        for _ in range(10):
            g = random_positive_graph(rng, int(rng.integers(4, 12)))
            d = int(rng.integers(1, 4))
            zeros = np.zeros((g.n, d))
            frame = Activation.STIEFEL_PROJECTION
            operator = dhn.DhnNetwork(dhn.modularity_matrix(g).q, zeros, frame)
            dense = dhn.DhnNetwork(dense_modularity(g), zeros, frame)
            x0 = dhn.stiefel_project(rng.uniform(-1.0, 1.0, size=(g.n, d)))
            po = dhn.run_parallel(operator, x0, crit=crit)
            pd = dhn.run_parallel(dense, x0, crit=crit)
            assert np.allclose(po.final_state, pd.final_state, rtol=0.0, atol=1e-9)
            labels = dhn.classify_rows(po.final_state)
            assert np.array_equal(labels, dhn.classify_rows(pd.final_state))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        d=st.integers(1, 4),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_match_dense_q(self, n, d, density, seed):
        rng = np.random.default_rng(seed)
        g = random_positive_graph(rng, n, density)
        mm = dhn.modularity_matrix(g)
        q = dense_modularity(g)
        qz = q.copy()
        np.fill_diagonal(qz, 0.0)
        x = rng.uniform(-1.0, 1.0, size=(n, d))
        for operator, reference in ((mm.q, q), (mm.q.zero_diagonal(), qz)):
            assert np.max(np.abs(operator.toarray() - reference)) <= 1e-12
            assert np.max(np.abs(operator @ x - reference @ x)) <= 1e-12
            assert np.max(np.abs(operator @ x[:, 0] - reference @ x[:, 0])) <= 1e-12
            for i in range(n):
                assert np.max(np.abs(operator.row(x, i) - reference[i] @ x)) <= 1e-12
            assert np.max(np.abs(operator.diagonal() - np.diagonal(reference))) <= 1e-12
        assert np.all(mm.q.zero_diagonal().diagonal() == 0.0)

    def test_no_n_by_n_array_from_load_to_score(self, tmp_path):
        # one n x n float64 array would take 72 MB at n = 3000
        n, d = 3000, 4
        path = tmp_path / "ring.edges"
        write_edge_list(ring_graph(n), path)
        x0 = random_onehot(np.random.default_rng(8), n, d)
        tracemalloc.start()
        try:
            g = load_edge_list(path)
            net = dhn.build_lms_network(g, d)
            c = dhn.clustering_from_matrix(dhn.parallel_step(net, x0))
            dhn.modularity_score(g, c)
            dhn.d_cut_value(g, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

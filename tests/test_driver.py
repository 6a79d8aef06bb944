"""The one stopping driver, ``core.iterate``, against the loops it replaced."""

import itertools
import tracemalloc
import warnings
import weakref
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dhn
import reference_runs as ref
from dhn.core import _HEAD, Activation, ConvergenceCriterion, Outcome, _onehot, iterate
from dhn.graphs import disjoint_pairs_graph
from dhn.modularity import DegenerateSpectrumError, _lms_sweeps, _power_run, modularity_matrix
from dhn.stiefel import _initial_frame

from conftest import planted_graph, random_positive_graph, random_symmetric

criteria = st.builds(
    ConvergenceCriterion,
    epsilon=st.sampled_from([0.0, 1e-12, 1e-8, 1e-3, 0.5]),
    window=st.integers(1, 4),
    max_iters=st.integers(1, 40),
)


def random_weights(rng, n, symmetric):
    if symmetric:
        return random_symmetric(rng, n, diag="any")
    return rng.uniform(-1.0, 1.0, size=(n, n))


def same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_report(got, want):
    assert same_array(got.final_state, want.final_state)
    assert got.iterations == want.iterations
    assert got.outcome is want.outcome
    assert got.cycle_length == want.cycle_length
    if want.energy_trace is None:
        assert got.energy_trace is None
    else:
        assert same_array(got.energy_trace, want.energy_trace)


def assert_same_label_run(got, want, qz):
    """A label run against the reference's one-hot run of the network with weights ``qz``.

    Labels, iterations, outcome and cycle length are equal.  The energies sum
    the same terms in another order, and the rank-one totals bin in label
    order, not BLAS order: each is within n d eps of Σ|Qz|, an upper bound of
    Σ_i |(Qz X)_{i, label_i}| for every one-hot X (the rank-one term counted
    as |coef| (Σ|u|)^2).
    """
    assert same_array(got.final_state, np.argmax(want.final_state, axis=1))
    assert got.iterations == want.iterations
    assert got.outcome is want.outcome
    assert got.cycle_length == want.cycle_length
    n, d = want.final_state.shape
    terms = np.abs(qz.sparse.data).sum() + abs(qz.coef) * np.abs(qz.vector).sum() ** 2
    assert len(got.energy_trace) == len(want.energy_trace)
    gap = np.abs(np.subtract(got.energy_trace, want.energy_trace))
    assert np.all(gap <= n * d * np.finfo(float).eps * terms)


def per_sweep(report, n):
    """A reference serial report with its per-visit energy trace cut to one entry per sweep."""
    if report.energy_trace is None:
        return report
    return replace(report, energy_trace=report.energy_trace[::n])


class TestIterate:
    def cycle_net(self):
        # a permutation of three neurons: e0 -> e1 -> e2 -> e0
        w = np.roll(np.eye(3), 1, axis=0)
        return dhn.DhnNetwork(w, np.zeros((3, 1)), Activation.L2_NORMALIZE)

    def test_three_cycle_inside_window(self):
        crit = ConvergenceCriterion(window=3)
        report = dhn.run_parallel(self.cycle_net(), [[1.0], [0.0], [0.0]], crit)
        assert report.outcome is Outcome.CYCLE
        assert report.cycle_length == 3
        assert report.iterations == 3
        assert report.final_state.tolist() == [[1.0], [0.0], [0.0]]

    def test_three_cycle_beyond_window_exhausts_budget(self):
        crit = ConvergenceCriterion(window=2, max_iters=50)
        report = dhn.run_parallel(self.cycle_net(), [[1.0], [0.0], [0.0]], crit)
        assert report.outcome is Outcome.BUDGET_EXHAUSTED
        assert report.cycle_length is None
        assert report.iterations == 50

    def test_directional_match_ignores_scale(self):
        report = iterate(lambda x: 2.0 * x, np.ones(3), ConvergenceCriterion())
        assert report.outcome is Outcome.STABLE
        assert report.iterations == 1
        assert report.final_state.tolist() == [2.0, 2.0, 2.0]

    def test_exact_match_sees_scale(self):
        crit = ConvergenceCriterion(max_iters=5)
        report = iterate(lambda x: 2.0 * x, np.ones(3), crit, exact=True)
        assert report.outcome is Outcome.BUDGET_EXHAUSTED
        assert report.iterations == 5

    def test_zero_state_is_its_own_direction(self):
        report = iterate(lambda x: 0.0 * x, np.ones(2), ConvergenceCriterion())
        assert report.outcome is Outcome.STABLE
        assert report.iterations == 2

    def test_step_argument_is_never_modified(self):
        seen = []

        def step(x):
            seen.append(x)
            return np.roll(x, 1)

        x0 = np.array([1.0, 2.0, 3.0])
        iterate(step, x0, ConvergenceCriterion(window=3), exact=True)
        assert x0.tolist() == [1.0, 2.0, 3.0]
        assert [s.tolist() for s in seen] == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]

    def test_keeps_no_state_beyond_the_window(self):
        # on large graphs every state is an n x d array, so a stray reference costs memory
        outputs = []

        def step(x):
            assert sum(ref() is not None for ref in outputs) <= 2
            y = x + 1.0
            outputs.append(weakref.ref(y))
            return y

        crit = ConvergenceCriterion(window=2, max_iters=10)
        report = iterate(step, np.zeros(2), crit, exact=True)
        assert report.iterations == 10

    def test_keeps_no_state_beyond_the_window_in_continuous_mode(self):
        # the window holds the states themselves, with their norms, and no normalized copy
        outputs = []

        def step(x):
            assert sum(ref() is not None for ref in outputs) <= 2
            y = np.array([x[0] + 1.0, x[0] ** 2])  # a new direction at every step
            outputs.append(weakref.ref(y))
            return y

        crit = ConvergenceCriterion(window=2, max_iters=10)
        report = iterate(step, np.zeros(2), crit)
        assert report.iterations == 10


class TestTwoStageRevisitTest:
    """A continuous revisit test that rejects on the head's distance decides as the full one."""

    @staticmethod
    def reference(states, crit):
        # the loop before the head bound: every state normalized, every distance in full
        seq = itertools.cycle(states)
        history = deque([ref._direction(next(seq))], maxlen=crit.window)
        for iteration in range(1, crit.max_iters + 1):
            x = next(seq)
            lag = ref.revisit_lag(history, ref._direction(x), crit.epsilon)
            if lag is not None:
                return x, iteration, lag
        return x, crit.max_iters, None

    @settings(max_examples=400, deadline=None)
    @given(
        shape=st.sampled_from([(3,), (12,), (3, 2), (7, 3), (30, 2)]),
        ratio=st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]),
        crit=criteria,
        order=st.lists(st.integers(0, 6), min_size=1, max_size=8),
        spot=st.integers(0, 2**16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decisions_match_the_reference(self, shape, ratio, crit, order, spot, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=shape)
        flat = np.arange(a.size).reshape(shape)
        tail = flat[_HEAD:].ravel()
        j, k = rng.choice(tail if tail.size >= 2 else flat.ravel(), 2, replace=False)
        # rotating entries j and k keeps the norm, so the directions differ there only,
        # by about ratio * epsilon
        norm, rho = np.linalg.norm(a), np.hypot(a.flat[j], a.flat[k])
        theta = 2.0 * np.arcsin(min(1.0, ratio * crit.epsilon * norm / (2.0 * rho)))
        b = a.copy()
        b.flat[j] = np.cos(theta) * a.flat[j] - np.sin(theta) * a.flat[k]
        b.flat[k] = np.sin(theta) * a.flat[j] + np.cos(theta) * a.flat[k]
        with_nan, with_inf = a.copy(), b.copy()
        with_nan.flat[spot % a.size] = np.nan
        with_inf.flat[(spot // 7) % a.size] = -np.inf
        pool = [a, b, 3.0 * b, np.zeros(shape), with_nan, with_inf, -a]
        states = [pool[i] for i in order]
        seq = itertools.cycle(states)
        start = next(seq)
        with np.errstate(all="ignore"):
            got = iterate(lambda _: next(seq), start, crit)
            final, iterations, lag = self.reference(states, crit)
        assert (got.iterations, got.cycle_length) == (iterations, lag)
        assert got.outcome is (Outcome.BUDGET_EXHAUSTED if lag is None else Outcome.of_lag(lag))
        assert got.final_state is final

    def test_peak_memory_of_a_frame_run(self):
        # no normalized copy of a state is made or kept, and W X adds its rank-one term in place
        g = planted_graph(np.random.default_rng(45), 2000, 10)
        net, x0 = ref.frame_network(g, 10), _initial_frame(g.n, 10, 0)
        crit = ConvergenceCriterion(max_iters=50)
        dhn.run_parallel(net, x0, crit)  # first-call allocations are not the run's
        tracemalloc.start()
        try:
            report = dhn.run_parallel(net, x0, crit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.outcome, report.iterations) == (Outcome.BUDGET_EXHAUSTED, 50)
        # with numpy 2.4 and SciPy 1.17 the run peaked at 647,548 B, four 2,000 x 10 states;
        # normalized copies in the window and an n x d sum for W X took it to 962,212 B
        assert peak <= 662_000


class TestMatchesReferenceLoops:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 9),
        d=st.integers(1, 4),
        activation=st.sampled_from(list(Activation)),
        weights=st.sampled_from(["any", "symmetric", "modularity", "frame"]),
        self_loops=st.booleans(),
        onehot_start=st.booleans(),
        crit=criteria,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_parallel(self, n, d, activation, weights, self_loops, onehot_start, crit, seed):
        rng = np.random.default_rng(seed)
        graph_weights = weights in ("modularity", "frame")
        if graph_weights:  # a CSR part and a rank-one term; lms networks zero the diagonal
            n += 1  # a random_positive_graph needs two nodes
        if activation is Activation.STIEFEL_PROJECTION:
            d = min(d, n)
        if graph_weights:
            build = dhn.build_lms_network if weights == "modularity" else ref.frame_network
            net = build(random_positive_graph(rng, n, self_loops=self_loops), d)
            net = replace(net, activation=activation)
        else:
            bias = rng.uniform(-1.0, 1.0, size=(n, d))
            net = dhn.DhnNetwork(random_weights(rng, n, weights == "symmetric"), bias, activation)
        if activation is Activation.CLASSIFICATION and onehot_start:
            x0 = dhn.clustering_to_matrix(dhn.Clustering(rng.integers(0, d, size=n), d))
        else:
            x0 = rng.uniform(-1.0, 1.0, size=(n, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rank-deficient frames
            assert_same_report(dhn.run_parallel(net, x0, crit), ref.run_parallel(net, x0, crit))

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 9),
        d=st.integers(1, 4),
        activation=st.sampled_from([Activation.CLASSIFICATION, Activation.L2_NORMALIZE]),
        symmetric=st.booleans(),
        crit=criteria,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_serial(self, n, d, activation, symmetric, crit, seed):
        rng = np.random.default_rng(seed)
        bias = rng.uniform(-1.0, 1.0, size=(n, d))
        net = dhn.DhnNetwork(random_weights(rng, n, symmetric), bias, activation)
        x0 = dhn.clustering_to_matrix(dhn.Clustering(rng.integers(0, d, size=n), d))
        want = per_sweep(ref.run_serial(net, x0, crit=crit), n)
        assert_same_report(dhn.run_serial(net, x0, crit=crit), want)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 9), d=st.integers(1, 4), crit=criteria, seed=st.integers(0, 2**32 - 1))
    def test_run_gnm(self, n, d, crit, seed):
        # a frame step, P(Q X), is the parallel step of the explicit network (Q, 0, P)
        g = random_positive_graph(np.random.default_rng(seed), n, self_loops=True)
        d = min(d, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rank-deficient frames
            want = ref.run_parallel(ref.frame_network(g, d), _initial_frame(n, d, seed), crit)
            clustering, got = dhn.run_gnm(g, d, seed=seed, crit=crit)
            both_c, both = dhn.run_gnm_plus_lms(g, d, seed=seed, crit=crit)
        assert_same_report(got, want)
        labels = np.argmax(want.final_state, axis=1)
        assert clustering.assignment == tuple(labels)
        # the GNM phase of gnm-lms, then its one sweep from the phase's labels
        assert both.iterations == want.iterations + 1
        assert (both.outcome, both.cycle_length) == (want.outcome, want.cycle_length)
        assert both_c.assignment == tuple(_lms_sweeps(g, labels, d, 1).final_state)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), d=st.integers(1, 3), crit=criteria, seed=st.integers(0, 2**32 - 1))
    def test_run_sgnm(self, n, d, crit, seed):
        g = random_positive_graph(np.random.default_rng(seed), n)
        d = min(d, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            clustering, got = dhn.run_sgnm(g, d, seed=seed, crit=crit)
            want = ref.run_sgnm(g, d, seed=seed, crit=crit)
        assert_same_report(got, want)
        assert clustering.assignment == tuple(np.argmax(want.final_state, axis=1))

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 10),
        crit=criteria,
        seed=st.integers(0, 2**32 - 1),
        start_seed=st.integers(0, 2**32 - 1),
        modularity=st.booleans(),
    )
    @example(n=1, crit=ConvergenceCriterion(), seed=5129, start_seed=0, modularity=True)
    def test_power_method(self, n, crit, seed, start_seed, modularity):
        rng = np.random.default_rng(seed)
        if modularity:  # newman's operator, on a graph with self-loops
            m = modularity_matrix(random_positive_graph(rng, n + 1, self_loops=True)).q
        else:
            m = dhn.WeightMatrix(random_symmetric(rng, n, diag="any"))
        states = []  # the reference returns its last vector; the ones it multiplies tell the rest

        class Recorded:
            def __matmul__(self, v):
                states.append(v)
                return m @ v

        v0 = np.random.default_rng(start_seed).uniform(-1.0, 1.0, size=m.n)
        try:
            want = ref.power_method(Recorded(), v0, crit)
        except DegenerateSpectrumError:  # e.g. Q = 0 on a pair with equal loops and edge
            with pytest.raises(DegenerateSpectrumError):
                dhn.power_method(m, seed=start_seed, crit=crit)
            return
        assert same_array(dhn.power_method(m, seed=start_seed, crit=crit), want)
        lag = ref.revisit_lag(deque(states[-crit.window:]), want, crit.epsilon)
        report = _power_run(m, start_seed, crit)
        assert report.iterations == len(states)
        assert report.outcome is (Outcome.BUDGET_EXHAUSTED if lag is None else Outcome.of_lag(lag))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 30),
        max_iters=st.sampled_from([1, 2, 3, 1000]),
        self_loops=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_lms(self, n, max_iters, self_loops, seed):
        rng = np.random.default_rng(seed)
        g = random_positive_graph(rng, n, density=0.3, self_loops=self_loops)
        clustering, got = dhn.run_lms(g, crit=ConvergenceCriterion(max_iters=max_iters))
        want = per_sweep(ref.lms_sweeps(g, range(n), n, max_iters, track_energy=True), n)
        assert_same_report(got, want)
        assert clustering.assignment == tuple(want.final_state)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 30),
        d=st.integers(1, 6),
        self_loops=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lms_sweeps_from_any_start(self, n, d, self_loops, seed):
        rng = np.random.default_rng(seed)
        g = random_positive_graph(rng, n, density=0.3, self_loops=self_loops)
        labels = rng.integers(0, d, size=n)
        for sweeps in (1, 1000):
            want = ref.lms_sweeps(g, labels, d, sweeps, track_energy=True)
            assert_same_report(_lms_sweeps(g, labels, d, sweeps), per_sweep(want, n))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 12),
        d=st.integers(1, 4),
        integer_weights=st.booleans(),
        self_loops=st.booleans(),
        crit=criteria,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_plms(self, n, d, integer_weights, self_loops, crit, seed):
        # plms is the parallel run of the LMS network, here with an explicit zeros bias, from
        # the seeded one-hot start, held as labels; integer weights make ties in Qz X and more
        # two-cycles
        g = random_positive_graph(np.random.default_rng(seed), n, self_loops=self_loops)
        if integer_weights:
            g = dhn.WeightedGraph(np.ceil(g.weights.toarray()))
        net = replace(dhn.build_lms_network(g, d), bias=np.zeros((n, d)))
        x0 = _onehot(np.random.default_rng(seed).integers(0, d, size=n), d)
        clustering, got = dhn.run_plms(g, d, seed=seed, crit=crit)
        want = ref.run_parallel(net, x0, crit)
        assert_same_label_run(got, want, net.weights)
        best = dhn.Clustering(np.argmax(want.final_state, axis=1), d)
        if want.cycle_length == 2:  # the better of the cycle's two states
            other = dhn.Clustering(np.argmax(dhn.parallel_step(net, want.final_state), axis=1), d)
            if dhn.modularity_score(g, other) > dhn.modularity_score(g, best):
                best = other
        assert clustering == best

    def test_run_plms_at_scale(self, karate_with_self_loops):
        # the reference keeps every one-hot state and adds an explicit zeros bias; on the
        # weighted karate with self-loops it also builds Q's zero diagonal by two subtractions
        g = planted_graph(np.random.default_rng(3), 2400, 12)
        d, crit = 16, ConvergenceCriterion(max_iters=12)
        net = replace(dhn.build_lms_network(g, d), bias=np.zeros((g.n, d)))
        x0 = _onehot(np.random.default_rng(4).integers(0, d, size=g.n), d)
        clustering, got = dhn.run_plms(g, d, seed=4, crit=crit)
        want = ref.run_parallel(net, x0, crit)
        assert_same_label_run(got, want, net.weights)
        assert got.iterations > 1
        if want.cycle_length != 2:
            assert clustering.assignment == tuple(np.argmax(want.final_state, axis=1))

        g, d = karate_with_self_loops, 4
        net = dhn.DhnNetwork(ref.zero_diagonal(modularity_matrix(g).q), np.zeros((g.n, d)))
        x0 = _onehot(np.random.default_rng(5).integers(0, d, size=g.n), d)
        clustering, got = dhn.run_plms(g, d, seed=5)
        want = ref.run_parallel(net, x0)
        assert_same_label_run(got, want, net.weights)
        best = dhn.Clustering(np.argmax(want.final_state, axis=1), d)
        if want.cycle_length == 2:  # the better of the cycle's two states
            other = dhn.Clustering(np.argmax(dhn.parallel_step(net, want.final_state), axis=1), d)
            if dhn.modularity_score(g, other) > dhn.modularity_score(g, best):
                best = other
        assert clustering == best


class TestLabelHistory:
    """Classification runs compare states exactly, so a start that is not one-hot is no revisit."""

    # on two disjoint unit edges, the two components are a parallel fixed point and
    # splitting both edges alike flips every node each step
    SPLIT, CROSSED = [0, 0, 1, 1], [0, 1, 0, 1]

    def run_both(self, x0):
        net = dhn.build_lms_network(disjoint_pairs_graph(2), 2)
        got = dhn.run_parallel(net, x0)
        assert_same_report(got, ref.run_parallel(net, x0))
        return got

    def test_one_hot_fixed_point_is_stable_at_once(self):
        report = self.run_both(_onehot(np.array(self.SPLIT), 2))
        assert (report.outcome, report.iterations) == (Outcome.STABLE, 1)

    def test_two_cycle_through_the_start(self):
        report = self.run_both(_onehot(np.array(self.CROSSED), 2))
        assert (report.outcome, report.iterations) == (Outcome.TWO_CYCLE, 2)

    def test_scaled_one_hot_start_is_no_revisit(self):
        # same argmax as the one-hot state, but no step can return to it
        stable = self.run_both(2.0 * _onehot(np.array(self.SPLIT), 2))
        assert (stable.outcome, stable.iterations) == (Outcome.STABLE, 2)
        cycle = self.run_both(2.0 * _onehot(np.array(self.CROSSED), 2))
        assert (cycle.outcome, cycle.iterations) == (Outcome.TWO_CYCLE, 3)

    def test_start_with_a_nan_entry(self):
        x0 = _onehot(np.array(self.SPLIT), 2)
        x0[1, 0] = np.nan
        report = self.run_both(x0)
        assert np.isnan(report.energy_trace[0])

"""The one stopping driver, ``core.iterate``, against the loops it replaced."""

import warnings
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dhn
import reference_runs as ref
from dhn.core import Activation, ConvergenceCriterion, Outcome, iterate
from dhn.modularity import _lms_sweeps

from conftest import random_positive_graph, random_symmetric

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
    assert got.schedule_seed == want.schedule_seed


class TestIterate:
    def cycle_net(self):
        # a permutation of three neurons: e0 -> e1 -> e2 -> e0
        w = np.roll(np.eye(3), 1, axis=0)
        return dhn.DhnNetwork(w, np.zeros((3, 1)), Activation.IDENTITY)

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


class TestMatchesReferenceLoops:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 9),
        d=st.integers(1, 4),
        activation=st.sampled_from(list(Activation)),
        symmetric=st.booleans(),
        crit=criteria,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_parallel(self, n, d, activation, symmetric, crit, seed):
        rng = np.random.default_rng(seed)
        if activation is Activation.STIEFEL_PROJECTION:
            d = min(d, n)
        bias = rng.uniform(-1.0, 1.0, size=(n, d))
        net = dhn.DhnNetwork(random_weights(rng, n, symmetric), bias, activation)
        if activation is Activation.CLASSIFICATION:
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
        activation=st.sampled_from(
            [Activation.CLASSIFICATION, Activation.IDENTITY, Activation.L2_NORMALIZE]
        ),
        symmetric=st.booleans(),
        schedule=st.sampled_from(["cyclic", "random"]),
        crit=criteria,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_serial(self, n, d, activation, symmetric, schedule, crit, seed):
        rng = np.random.default_rng(seed)
        bias = rng.uniform(-1.0, 1.0, size=(n, d))
        net = dhn.DhnNetwork(random_weights(rng, n, symmetric), bias, activation)
        x0 = dhn.clustering_to_matrix(dhn.Clustering(rng.integers(0, d, size=n), d))
        got = dhn.run_serial(net, x0, schedule=schedule, crit=crit, seed=seed)
        want = ref.run_serial(net, x0, schedule=schedule, crit=crit, seed=seed)
        assert_same_report(got, want)

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
    )
    def test_power_method(self, n, crit, seed, start_seed):
        m = random_symmetric(np.random.default_rng(seed), n, diag="any")
        v0 = np.random.default_rng(start_seed).uniform(-1.0, 1.0, size=n)
        want = ref.power_method(dhn.WeightMatrix(m), v0, crit)
        assert same_array(dhn.power_method(m, seed=start_seed, crit=crit), want)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 30),
        max_iters=st.sampled_from([1, 2, 3, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_lms(self, n, max_iters, seed):
        g = random_positive_graph(np.random.default_rng(seed), n, density=0.3)
        clustering, got = dhn.run_lms(g, crit=ConvergenceCriterion(max_iters=max_iters))
        want = ref.lms_sweeps(g, range(n), n, max_iters, track_energy=True)
        assert_same_report(got, want)
        assert clustering.assignment == tuple(want.final_state)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_lms_sweeps_from_any_start(self, n, d, seed):
        rng = np.random.default_rng(seed)
        g = random_positive_graph(rng, n, density=0.3)
        labels = rng.integers(0, d, size=n)
        for sweeps, track in ((1, False), (1000, True)):
            got = _lms_sweeps(g, labels, d, sweeps, track_energy=track)
            assert_same_report(got, ref.lms_sweeps(g, labels, d, sweeps, track_energy=track))

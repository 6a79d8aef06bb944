import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dhn
from dhn import core, stiefel
from dhn.graphs import disjoint_pairs_graph, karate_club
from dhn.modularity import modularity_matrix

from conftest import random_positive_graph, svd_polar


def frame_error(s):
    d = s.shape[1]
    return np.linalg.norm(s.T @ s - np.eye(d))


def signed_permutation_frames(d):
    for perm in itertools.permutations(range(d)):
        base = np.eye(d)[:, perm]
        for signs in itertools.product((-1.0, 1.0), repeat=d):
            yield base * np.array(signs)


class TestProjection:
    def test_frame_maps_to_itself(self):
        rng = np.random.default_rng(0)
        s = dhn.stiefel_project(rng.normal(size=(6, 3)))
        assert np.allclose(dhn.stiefel_project(s), s, atol=1e-12)

    def test_diagonal_matrix(self):
        assert np.allclose(dhn.stiefel_project(np.diag([3.0, 2.0])), np.eye(2))

    def test_single_column_is_normalization(self):
        out = dhn.stiefel_project(np.array([[3.0], [0.0], [4.0]]))
        assert np.allclose(out, [[0.6], [0.0], [0.8]])

    def test_d_gt_n_rejected(self):
        with pytest.raises(ValueError):
            dhn.stiefel_project(np.zeros((2, 3)))

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match=r"d >= 1, got \(3, 0\)"):
            dhn.stiefel_project(np.zeros((3, 0)))

    def test_rank_deficient_warns_but_returns_frame(self):
        with pytest.warns(RuntimeWarning):
            s = dhn.stiefel_project(np.ones((4, 2)))
        assert frame_error(s) <= 1e-10

    def test_nan_input_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            dhn.stiefel_project(np.array([[np.nan, 1.0], [2.0, 3.0], [4.0, 5.0]]))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        d_share=st.floats(0.0, 1.0),
        gram_ratio_exponent=st.floats(-12.0, 0.0),  # log10 w_min / w_max; the SVD below -2
        scale_exponent=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_polar_factor(self, n, d_share, gram_ratio_exponent, scale_exponent, seed):
        d = max(1, round(d_share * n))
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(n, d)))[0]
        v = np.linalg.qr(rng.normal(size=(d, d)))[0]
        singular = 10.0 ** rng.uniform(gram_ratio_exponent / 2, 0.0, size=d)
        singular[0], singular[-1] = 1.0, 10.0 ** (gram_ratio_exponent / 2)
        m = (u * singular) @ v.T * 10.0**scale_exponent
        p = dhn.stiefel_project(m)
        assert np.abs(p - svd_polar(m)).max() <= 1e-12
        assert frame_error(p) <= 1e-12

    def test_frame_validity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, d = int(rng.integers(2, 12)), 0
            d = int(rng.integers(1, n + 1))
            s = dhn.stiefel_project(rng.normal(size=(n, d)))
            assert frame_error(s) <= 1e-10

    def test_trace_maximality_random_frames(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n, d = int(rng.integers(2, 8)), 0
            d = int(rng.integers(1, n + 1))
            m = rng.normal(size=(n, d))
            p = dhn.stiefel_project(m)
            best = np.trace(p.T @ m)
            for _ in range(200):
                s = dhn.stiefel_project(rng.normal(size=(n, d)))
                assert best >= np.trace(s.T @ m) - 1e-10

    def test_trace_maximality_signed_permutations(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            m = rng.normal(size=(d, d))
            p = dhn.stiefel_project(m)
            best = np.trace(p.T @ m)
            for s in signed_permutation_frames(d):
                assert best >= np.trace(s.T @ m) - 1e-10


class TestClassificationIsNearestClusteringMatrix:
    def test_exhaustive_small(self):
        rng = np.random.default_rng(4)
        for n, d in [(2, 2), (4, 3), (5, 2)]:
            assignments = list(itertools.product(range(d), repeat=n))
            for _ in range(20):
                m = rng.normal(size=(n, d))
                cl = dhn.classify_rows(m)
                cl_trace = np.trace(cl.T @ m)
                cl_dist = np.linalg.norm(cl - m)
                for a in assignments:
                    s = dhn.clustering_to_matrix(dhn.Clustering(a, d))
                    assert cl_trace >= np.trace(s.T @ m) - 1e-12
                    assert cl_dist <= np.linalg.norm(s - m) + 1e-12


class TestRunGnm:
    def test_intermediate_states_stay_frames(self):
        g = karate_club()
        q = modularity_matrix(g).q
        net = dhn.DhnNetwork(q, np.zeros((34, 4)), dhn.Activation.STIEFEL_PROJECTION)
        x = dhn.stiefel_project(np.random.default_rng(0).uniform(-1, 1, (34, 4)))
        for _ in range(15):
            x = dhn.parallel_step(net, x)
            assert frame_error(x) <= 1e-8

    def test_disjoint_pairs_component_clustering(self):
        g = disjoint_pairs_graph(2)
        c, _ = dhn.run_gnm(g, 2, seed=1)
        assert c.same_partition(dhn.Clustering([0, 0, 1, 1], 2))
        assert dhn.modularity_score(g, c) == pytest.approx(0.5, abs=1e-15)

    def test_fixed_seed_deterministic(self):
        g = karate_club()
        c1, r1 = dhn.run_gnm(g, 4, seed=9)
        c2, r2 = dhn.run_gnm(g, 4, seed=9)
        assert c1 == c2
        assert np.array_equal(r1.final_state, r2.final_state)

    def test_d_gt_n_rejected(self):
        with pytest.raises(ValueError):
            dhn.run_gnm(disjoint_pairs_graph(2), 5, seed=0)

    def test_reduces_to_power_method_for_d_1(self):
        for graph, seed in [(karate_club(), 3), (disjoint_pairs_graph(3), 7)]:
            q = modularity_matrix(graph).q
            net = dhn.DhnNetwork(
                q, np.zeros((graph.n, 1)), dhn.Activation.STIEFEL_PROJECTION
            )
            x = dhn.stiefel_project(
                np.random.default_rng(seed).uniform(-1, 1, (graph.n, 1))
            )
            v = np.random.default_rng(seed).uniform(-1, 1, graph.n)
            v = v / np.linalg.norm(v)
            for _ in range(30):
                x = dhn.parallel_step(net, x)
                w = q @ v
                v = w / np.linalg.norm(w)
                assert np.linalg.norm(x.ravel() - v) <= 1e-8


class TestRunSgnm:
    def test_final_state_is_frame(self):
        g = disjoint_pairs_graph(2)
        _, report = dhn.run_sgnm(g, 2, seed=0, crit=dhn.ConvergenceCriterion(max_iters=50))
        assert frame_error(report.final_state) <= 1e-8

    def test_fixed_seed_deterministic(self):
        g = karate_club()
        crit = dhn.ConvergenceCriterion(max_iters=400)
        c1, r1 = dhn.run_sgnm(g, 4, seed=2, crit=crit)
        c2, r2 = dhn.run_sgnm(g, 4, seed=2, crit=crit)
        assert c1 == c2
        assert r1.iterations == r2.iterations

    def test_recorded_comparison_with_plms(self):
        # cross-method harness: recorded, not asserted (either may win)
        g = disjoint_pairs_graph(2)
        crit = dhn.ConvergenceCriterion(max_iters=60)
        sgnm_scores = [
            dhn.modularity_score(g, dhn.run_sgnm(g, 2, seed=s, crit=crit)[0]) for s in range(8)
        ]
        plms_scores = [dhn.modularity_score(g, dhn.run_plms(g, 2, seed=s)[0]) for s in range(32)]
        print(
            f"sgnm median {np.median(sgnm_scores):+.4f} vs plms median {np.median(plms_scores):+.4f}"
        )
        assert np.all(np.isfinite(sgnm_scores))


class TestRunGnmPlusLms:
    def test_never_below_gnm(self):
        g = karate_club()
        for seed in range(8):
            cg, _ = dhn.run_gnm(g, 4, seed=seed)
            cl, _ = dhn.run_gnm_plus_lms(g, 4, seed=seed)
            assert dhn.modularity_score(g, cl) >= dhn.modularity_score(g, cg) - 1e-12

    def test_idempotent_when_already_stable(self):
        g = disjoint_pairs_graph(2)
        cg, _ = dhn.run_gnm(g, 2, seed=1)  # already the optimum
        cl, _ = dhn.run_gnm_plus_lms(g, 2, seed=1)
        assert cl.same_partition(cg)

    def test_disjoint_pairs_optimum(self):
        g = disjoint_pairs_graph(2)
        c, _ = dhn.run_gnm_plus_lms(g, 2, seed=1)
        assert dhn.modularity_score(g, c) == pytest.approx(0.5, abs=1e-15)

    def test_random_graphs_improve_or_hold(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            g = random_positive_graph(rng, int(rng.integers(4, 10)))
            d = int(rng.integers(1, g.n + 1))
            cg, _ = dhn.run_gnm(g, d, seed=seed)
            cl, _ = dhn.run_gnm_plus_lms(g, d, seed=seed)
            assert dhn.modularity_score(g, cl) >= dhn.modularity_score(g, cg) - 1e-12


# Unbudgeted, the 192 karate runs of run_sgnm below take about 30 s; its frames
# are compared after a fixed number of sweeps instead.
FRAME_RUNS = [
    (dhn.run_gnm, None),
    (dhn.run_gnm_plus_lms, None),
    (dhn.run_sgnm, dhn.ConvergenceCriterion(max_iters=15)),
]


class TestFrameRunsMatchSvdProjection:
    """Frame runs end as they do with the SVD projection: labels, steps, outcome, final state."""

    @staticmethod
    def assert_matches_svd_run(monkeypatch, run, graph, d, seed, crit):
        c_fast, r_fast = run(graph, d, seed=seed, crit=crit)
        with monkeypatch.context() as patch:
            patch.setattr(core, "stiefel_project", svd_polar)
            patch.setattr(stiefel, "stiefel_project", svd_polar)
            c_ref, r_ref = run(graph, d, seed=seed, crit=crit)
        assert c_fast == c_ref
        assert (r_fast.iterations, r_fast.outcome) == (r_ref.iterations, r_ref.outcome)
        assert np.abs(r_fast.final_state - r_ref.final_state).max() <= 1e-9

    @pytest.mark.parametrize("run, crit", FRAME_RUNS)
    def test_karate(self, monkeypatch, run, crit):
        g = karate_club()
        for d in (2, 3, 4):
            for seed in range(32):
                self.assert_matches_svd_run(monkeypatch, run, g, d, seed, crit)

    @pytest.mark.parametrize("run, crit", FRAME_RUNS)
    def test_random_graph(self, monkeypatch, run, crit):
        g = random_positive_graph(np.random.default_rng(6), 200, density=0.05)
        self.assert_matches_svd_run(monkeypatch, run, g, 4, 0, crit)

"""The five iterate-and-stop loops as they stood before ``core.iterate`` replaced them.

Each keeps its own revisit history and builds its own outcome.  They are the
reference that the driver-based runs must reproduce bit for bit: final state,
iteration count, outcome, cycle length and energy trace.  ``zero_diagonal`` is
the two-subtraction build that ``WeightMatrix.zero_diagonal`` must reproduce
array for array.  ``frame_network`` is the explicit network whose parallel run
the frame methods must reproduce.
"""

from collections import deque

import numpy as np
import scipy.sparse as sp

from dhn.core import (
    Activation,
    ConvergenceCriterion,
    DhnNetwork,
    Outcome,
    RunReport,
    WeightMatrix,
    _row_preactivation,
    _row_update_energy_delta,
    _serial_row,
    energy,
    parallel_step,
    stiefel_project,
)
from dhn.modularity import (
    DegenerateSpectrumError,
    _best_move,
    _ClusterDegrees,
    _csr_views,
    _positive_volume,
    modularity_matrix,
)
from dhn.stiefel import _initial_frame


def frame_network(graph, d):
    """The network (Q, 0, STIEFEL_PROJECTION), with an explicit n x d zero bias."""
    q = modularity_matrix(graph).q
    return DhnNetwork(q, np.zeros((graph.n, d)), Activation.STIEFEL_PROJECTION)


def revisit_lag(history, state, epsilon, exact=False):
    for lag, prev in enumerate(reversed(history), start=1):
        if np.array_equal(state, prev) if exact else np.linalg.norm(state - prev) < epsilon:
            return lag
    history.append(state)
    return None


def _direction(x):
    norm = np.linalg.norm(x)
    return x / norm if norm > 0 else x


def run_serial(net, x0, crit=None, track_energy=True):
    crit = crit if crit is not None else ConvergenceCriterion()
    x = np.array(x0, dtype=float)
    trace = None
    if track_energy and net.activation is Activation.CLASSIFICATION:
        trace = [energy(net, x)]
    w_diag = net.weights.diagonal()
    for sweep in range(1, crit.max_iters + 1):
        changed = False
        for i in range(net.n):
            h = _row_preactivation(net, x, i)
            new_row = _serial_row(net.activation, h)
            if not np.array_equal(new_row, x[i]):
                if trace is not None:
                    trace.append(trace[-1] + _row_update_energy_delta(h, x[i], new_row, w_diag[i]))
                x[i] = new_row
                changed = True
            elif trace is not None:
                trace.append(trace[-1])
        if not changed:
            return RunReport(x, sweep, Outcome.STABLE, 1, trace)
    return RunReport(x, crit.max_iters, Outcome.BUDGET_EXHAUSTED, None, trace)


def run_parallel(net, x0, crit=None, track_energy=True):
    crit = crit if crit is not None else ConvergenceCriterion()
    x = np.array(x0, dtype=float)
    normalize = net.activation is not Activation.CLASSIFICATION
    exact = not normalize
    trace = None
    if track_energy and net.activation is Activation.CLASSIFICATION:
        trace = [energy(net, x)]

    def comparable(state):
        return _direction(state) if normalize else state

    history = deque([comparable(x)], maxlen=crit.window)
    for step in range(1, crit.max_iters + 1):
        x = parallel_step(net, x)
        if trace is not None:
            trace.append(energy(net, x))
        lag = revisit_lag(history, comparable(x), crit.epsilon, exact)
        if lag is not None:
            return RunReport(x, step, Outcome.of_lag(lag), lag, trace)
    return RunReport(x, crit.max_iters, Outcome.BUDGET_EXHAUSTED, None, trace)


def lms_sweeps(graph, labels, d, max_sweeps, track_energy):
    vol = _positive_volume(graph)
    k = graph.degrees
    labels = [int(a) for a in labels]
    totals = np.bincount(labels, weights=k, minlength=d)
    trace = None
    if track_energy:
        w = graph.weights
        rows = np.repeat(np.arange(graph.n), np.diff(w.indptr))
        a = np.asarray(labels)
        inside = w.data[(a[rows] == a[w.indices]) & (rows != w.indices)].sum()
        trace = [-(vol * inside - (totals @ totals - k @ k)) / vol**2]
    clusters = _ClusterDegrees(totals.tolist())
    csr, degrees = _csr_views(graph), memoryview(k)
    for sweep in range(1, max_sweeps + 1):
        moved = False
        for i in range(graph.n):
            k_i = degrees[i]
            target, gain = _best_move(i, labels, clusters, csr, vol, k_i)
            if target != labels[i]:
                clusters.move(k_i, labels[i], target)
                labels[i] = target
                moved = True
            if trace is not None:
                trace.append(trace[-1] - 2.0 * gain / vol**2)
        if not moved:
            return RunReport(np.array(labels), sweep, Outcome.STABLE, 1, trace)
    return RunReport(np.array(labels), max_sweeps, Outcome.BUDGET_EXHAUSTED, None, trace)


def zero_diagonal(w):
    s = w.sparse - sp.diags_array(w.sparse.diagonal())
    s = s - sp.diags_array(w.vector * (w.coef * w.vector))
    return WeightMatrix(s, w.vector, w.coef)


def power_method(m, v0, crit=None):
    crit = crit if crit is not None else ConvergenceCriterion()
    v = np.asarray(v0, dtype=float)
    v = v / np.linalg.norm(v)
    history = deque([v], maxlen=crit.window)
    for _ in range(crit.max_iters):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise DegenerateSpectrumError("iteration reached an exactly zero vector")
        v = w / norm
        if revisit_lag(history, v, crit.epsilon) is not None:
            return v
    return v


def run_sgnm(graph, d, seed=None, crit=None):
    net = frame_network(graph, d)
    crit = crit if crit is not None else ConvergenceCriterion()
    x = _initial_frame(graph.n, d, seed)

    def direction(state):
        return state / np.linalg.norm(state)

    history = deque([direction(x)], maxlen=crit.window)
    outcome, cycle_length, sweeps = Outcome.BUDGET_EXHAUSTED, None, crit.max_iters
    for sweep in range(1, crit.max_iters + 1):
        for i in range(graph.n):
            h = net.weights @ x
            x[i] = stiefel_project(h)[i]
        x = stiefel_project(x)
        lag = revisit_lag(history, direction(x), crit.epsilon)
        if lag is not None:
            outcome, cycle_length, sweeps = Outcome.of_lag(lag), lag, sweep
            break
    return RunReport(x, sweeps, outcome, cycle_length)

"""Multidimensional Hopfield networks: states, activations, and discrete dynamics.

A network couples n neurons through an n x n weight matrix W and an n x d bias
matrix B.  Each neuron carries a d-dimensional state row; the state of the whole
network is an n x d matrix X.  A serial update recomputes one row of X from the
pre-activation H = W X + B, a parallel update recomputes all rows at once.
W is held as a sparse matrix plus a symmetric rank-one term (zero for plain
graphs), which covers graphs and their modularity matrices in O(nnz + n) memory.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Activation",
    "ConvergenceCriterion",
    "DhnNetwork",
    "Outcome",
    "RunReport",
    "WeightMatrix",
    "classify_rows",
    "energy",
    "energy_delta",
    "iterate",
    "l2_normalize_rows",
    "parallel_step",
    "run_parallel",
    "run_serial",
    "serial_step",
    "stiefel_project",
]

# Rows with l2 norm below this are treated as exactly zero by the row
# normalizer, so near-underflow rows cannot blow up.
_ZERO_ROW_NORM = 1e-300


class Activation(Enum):
    """Activation kinds a network can carry.

    The first three act row by row on the state matrix; STIEFEL_PROJECTION acts
    on the whole matrix at once and is only meaningful in parallel mode.
    """

    CLASSIFICATION = "classification"
    L2_NORMALIZE = "l2_normalize"
    IDENTITY = "identity"
    STIEFEL_PROJECTION = "stiefel_projection"


class Outcome(Enum):
    """How a run terminated."""

    STABLE = "stable"
    TWO_CYCLE = "two_cycle"
    CYCLE = "cycle"
    BUDGET_EXHAUSTED = "budget_exhausted"

    @staticmethod
    def of_lag(lag: int) -> "Outcome":
        """Outcome of a run whose state revisited the one ``lag`` steps back."""
        if lag == 1:
            return Outcome.STABLE
        return Outcome.TWO_CYCLE if lag == 2 else Outcome.CYCLE


def classify_rows(m: np.ndarray) -> np.ndarray:
    """One-hot indicator of each row's argmax coordinate; ties go to the lowest index."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] == 0:
        raise ValueError("classify_rows expects an n x d matrix with d >= 1")
    out = np.zeros(m.shape)
    out[np.arange(m.shape[0]), np.argmax(m, axis=1)] = 1.0
    return out


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale every nonzero row to unit l2 norm; (near-)zero rows stay zero."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("l2_normalize_rows expects a 2-d matrix")
    norms = np.linalg.norm(m, axis=1)
    keep = norms >= _ZERO_ROW_NORM
    return np.divide(m, norms[:, None], out=np.zeros(m.shape), where=keep[:, None])


def stiefel_project(m: np.ndarray) -> np.ndarray:
    """Project an n x d matrix onto the orthonormal d-frames in R^n.

    Returns the polar factor U Vt of the thin singular decomposition
    M = U S Vt.  This is the frame maximizing Tr(St M), equivalently the
    closest frame in Frobenius norm.  A rank-deficient input still yields a
    valid frame, but the maximizer is not unique; a warning is emitted.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("stiefel_project expects a 2-d matrix")
    n, d = m.shape
    if d > n:
        raise ValueError(f"no orthonormal {d}-frame exists in R^{n} (d > n)")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[-1] <= s[0] * 1e-13:
        warnings.warn(
            "rank-deficient input: the orthonormal-frame projection is not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    return u @ vt


def canonical_csr(matrix) -> sp.csr_array:
    """Square float CSR form of a dense or sparse matrix: sorted, summed, no stored zeros.

    Rejects non-square and non-finite input.  Canonical sparse input is reused, not copied.
    """
    m = sp.csr_array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("weights must be a square matrix")
    m.sum_duplicates()
    m.eliminate_zeros()
    if not np.all(np.isfinite(m.data)):
        raise ValueError("weights must be finite (found nan or inf)")
    return m


def max_asymmetry(m: sp.csr_array) -> float:
    """max |M - Mt| over the entries of a sparse matrix."""
    diff = abs(m - m.T)
    return float(diff.max()) if diff.nnz else 0.0


@dataclass(frozen=True)
class WeightMatrix:
    """n x n weights W = S + coef u ut: a canonical CSR matrix S plus a rank-one term.

    Dense or sparse input becomes S, with a zero rank-one term.  The rank-one
    term holds dense matrices such as the modularity matrix of a sparse graph
    in O(nnz + n) memory and applies them in O(nnz d + n d).  It is always
    evaluated as u_i * (coef * v), so products, diagonal() and toarray() round
    alike and zero_diagonal() leaves diagonal entries of exactly 0.
    """

    sparse: sp.csr_array
    vector: Optional[np.ndarray] = None
    coef: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sparse", canonical_csr(self.sparse))
        u = np.zeros(self.n) if self.vector is None else np.asarray(self.vector, dtype=float)
        object.__setattr__(self, "vector", u.reshape(self.n))

    @property
    def n(self) -> int:
        return self.sparse.shape[0]

    @property
    def size(self) -> int:
        """Stored entries: the CSR nonzeros plus the rank-one vector."""
        return self.sparse.nnz + self.n

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays and the rank-one vector."""
        s = self.sparse
        return s.data.nbytes + s.indices.nbytes + s.indptr.nbytes + self.vector.nbytes

    def __matmul__(self, x):
        """W x for a length-n vector or an n x d matrix."""
        x = np.asarray(x, dtype=float)
        u = self.vector
        return self.sparse @ x + np.multiply.outer(u, self.coef * (u @ x))

    def row(self, x: np.ndarray, i: int) -> np.ndarray:
        """Row i of W X for an n x d matrix X, without forming the other rows."""
        s, u = self.sparse, self.vector
        lo, hi = s.indptr[i], s.indptr[i + 1]
        return s.data[lo:hi] @ x[s.indices[lo:hi]] + u[i] * (self.coef * (u @ x))

    def diagonal(self) -> np.ndarray:
        return self.sparse.diagonal() + self.vector * (self.coef * self.vector)

    def zero_diagonal(self) -> "WeightMatrix":
        """The same matrix with every diagonal entry exactly zero."""
        s = self.sparse - sp.diags_array(self.sparse.diagonal())
        s = s - sp.diags_array(self.vector * (self.coef * self.vector))
        return WeightMatrix(s, self.vector, self.coef)

    def toarray(self) -> np.ndarray:
        """Dense n x n copy, for exhaustive oracles and reference checks."""
        return self.sparse.toarray() + np.multiply.outer(self.vector, self.coef * self.vector)


@dataclass(frozen=True)
class DhnNetwork:
    """A d-dimensional Hopfield network with n neurons: (weights, bias, activation).

    ``weights`` is n x n, given as a WeightMatrix or as any dense or sparse
    matrix (converted to one); ``bias`` is n x d with d >= 1.  Instances are
    treated as immutable; all dynamics functions are pure and safe to share
    across threads.
    """

    weights: WeightMatrix
    bias: np.ndarray
    activation: Activation = Activation.CLASSIFICATION

    def __post_init__(self):
        if not isinstance(self.weights, WeightMatrix):
            object.__setattr__(self, "weights", WeightMatrix(self.weights))
        bias = np.asarray(self.bias, dtype=float)
        if bias.ndim != 2 or bias.shape[1] < 1:
            raise ValueError("bias must be an n x d matrix with d >= 1")
        object.__setattr__(self, "bias", bias)
        if self.weights.n != bias.shape[0]:
            raise ValueError(f"weights are {self.n}x{self.n} but bias has {bias.shape[0]} rows")
        if not isinstance(self.activation, Activation):
            raise TypeError("activation must be an Activation member")

    @property
    def n(self) -> int:
        return self.weights.n

    @property
    def d(self) -> int:
        return self.bias.shape[1]


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Stopping rule shared by the iterative runs (see ``iterate``).

    A run halts when its new state revisits one of the previous ``window``
    states, or after ``max_iters`` sweeps (serial runs) or steps (parallel
    runs).  Argmax states are compared exactly; continuous states match when
    their directions X / ||X||_F are within ``epsilon`` (Frobenius).  Serial
    runs only read ``max_iters``: they stop at the exact fixed point.
    """

    epsilon: float = 1e-8
    window: int = 2
    max_iters: int = 1000

    def __post_init__(self):
        if not 0 <= self.epsilon < np.inf:  # nan or inf would decide every comparison alike
            raise ValueError("epsilon must be finite and nonnegative")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class RunReport:
    """Trajectory metadata for one run.

    ``iterations`` counts sweeps for serial runs and parallel steps otherwise.
    ``cycle_length`` is 1 for a stable state, 2 for a two-cycle, k for a longer
    detected cycle, None when the budget ran out.  ``energy_trace`` is recorded
    for classification runs only: one entry for the initial state plus one per
    update step.  ``final_state`` is the n x d state matrix, except for
    ``run_lms``, whose search runs on labels: there it is the length-n label
    vector, and its scores are the vol^2-scaled ΔQ, exact on integer weights.
    """

    final_state: np.ndarray
    iterations: int
    outcome: Outcome
    cycle_length: Optional[int] = None
    energy_trace: Optional[list] = None
    schedule_seed: Optional[int] = None


def _row_preactivation(net: DhnNetwork, x: np.ndarray, i: int) -> np.ndarray:
    return net.weights.row(x, i) + net.bias[i]


def _apply_matrix(activation: Activation, m: np.ndarray) -> np.ndarray:
    if activation is Activation.CLASSIFICATION:
        return classify_rows(m)
    if activation is Activation.L2_NORMALIZE:
        return l2_normalize_rows(m)
    if activation is Activation.IDENTITY:
        return np.array(m, dtype=float)
    if activation is Activation.STIEFEL_PROJECTION:
        return stiefel_project(m)
    raise ValueError(f"unknown activation {activation!r}")


def _serial_row(activation: Activation, h_row: np.ndarray) -> np.ndarray:
    # a serial step applies the matrix activation to a single 1 x d row
    if activation is Activation.STIEFEL_PROJECTION:
        raise ValueError(
            f"{activation} is a whole-matrix activation; serial mode is undefined for it"
        )
    return _apply_matrix(activation, h_row[None, :])[0]


def serial_step(net: DhnNetwork, x: np.ndarray, neuron: int) -> np.ndarray:
    """Update one neuron: row ``neuron`` becomes activation(W X + B) for that row.

    All other rows are unchanged.  Neurons are indexed 0..n-1.  Undefined for
    whole-matrix activations.
    """
    x = np.asarray(x, dtype=float)
    if not 0 <= neuron < net.n:
        raise IndexError(f"neuron index {neuron} out of range for n={net.n}")
    out = x.copy()
    out[neuron] = _serial_row(net.activation, _row_preactivation(net, x, neuron))
    return out


def parallel_step(net: DhnNetwork, x: np.ndarray) -> np.ndarray:
    """Update all neurons simultaneously: activation(W X + B)."""
    return _apply_matrix(net.activation, net.weights @ np.asarray(x, dtype=float) + net.bias)


def energy(net: DhnNetwork, x: np.ndarray) -> float:
    """V(X) = -Tr(Xt W X + 2 Xt B).

    Nonincreasing along serial classification runs when W is symmetric with a
    nonnegative diagonal.
    """
    x = np.asarray(x, dtype=float)
    wx = net.weights @ x
    return float(-np.sum(x * wx) - 2.0 * np.sum(x * net.bias))


def energy_delta(net: DhnNetwork, x: np.ndarray, delta: np.ndarray) -> float:
    """Energy change for X -> X + delta without recomputing V from scratch.

    Equals -2 Tr(Dt H) - Tr(Dt W D) with H = W X + B, which matches
    energy(X + delta) - energy(X) whenever W is symmetric.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    h = net.weights @ x + net.bias
    wd = net.weights @ delta
    return float(-2.0 * np.sum(delta * h) - np.sum(delta * wd))


def _row_update_energy_delta(h_row, old_row, new_row, w_diag_entry) -> float:
    # single-row instance of the incremental energy formula
    delta_row = new_row - old_row
    return float(-2.0 * (delta_row @ h_row) - w_diag_entry * (delta_row @ delta_row))


def iterate(step, x: np.ndarray, crit: ConvergenceCriterion, exact: bool = False) -> RunReport:
    """Apply ``step`` from state ``x`` until it revisits one of the last ``crit.window`` states.

    ``step`` maps a state to the next one and must not modify its argument.
    States match exactly when ``exact``, otherwise when their directions
    X / ||X||_F (a zero state is its own direction) are within
    ``crit.epsilon`` in Frobenius norm.  A revisit at lag k (1 = the previous
    state) ends the run with ``Outcome.of_lag(k)`` and ``cycle_length`` k;
    otherwise it ends BUDGET_EXHAUSTED after ``crit.max_iters`` steps.
    ``iterations`` counts the steps taken.
    """

    def key(x):
        if exact:
            return x
        norm = np.linalg.norm(x)
        return x / norm if norm > 0 else x

    def match(state, prev):
        return np.array_equal(state, prev) if exact else np.linalg.norm(state - prev) < crit.epsilon

    # only the window holds old states: x is rebound, the lag search is scoped
    history = deque([key(x)], maxlen=crit.window)
    for iteration in range(1, crit.max_iters + 1):
        x = step(x)
        state = key(x)
        lag = next((k for k, prev in enumerate(reversed(history), 1) if match(state, prev)), None)
        if lag is not None:
            return RunReport(x, iteration, Outcome.of_lag(lag), lag)
        history.append(state)
    return RunReport(x, crit.max_iters, Outcome.BUDGET_EXHAUSTED)


def run_serial(
    net: DhnNetwork,
    x0: np.ndarray,
    schedule: str = "cyclic",
    crit: Optional[ConvergenceCriterion] = None,
    seed: Optional[int] = None,
) -> RunReport:
    """Run serial sweeps until one full sweep changes no row.

    Parameters
    ----------
    schedule : "cyclic" visits neurons 0..n-1 in order every sweep;
        "random" uses a fresh seeded permutation per sweep.
    crit : only ``max_iters`` (the sweep budget) is read; the run stops at
        the exact fixed point, whatever ``epsilon`` and ``window`` say.

    ``iterations`` counts sweeps, the final unchanged sweep included.  With
    symmetric weights, nonnegative diagonal and classification activation
    the run is guaranteed to reach a stable state; other configurations may
    terminate only through the budget.
    """
    crit = crit if crit is not None else ConvergenceCriterion()
    if schedule not in ("cyclic", "random"):
        raise ValueError(f"unknown schedule {schedule!r}")
    x = np.asarray(x0, dtype=float)  # each sweep works on a copy
    if x.shape != (net.n, net.d):
        raise ValueError(f"state must be {net.n}x{net.d}, got {x.shape}")
    rng = np.random.default_rng(seed) if schedule == "random" else None

    trace = [energy(net, x)] if net.activation is Activation.CLASSIFICATION else None
    w_diag = net.weights.diagonal()

    def sweep(x):
        x = x.copy()
        for i in rng.permutation(net.n) if rng is not None else range(net.n):
            h = _row_preactivation(net, x, i)
            new_row = _serial_row(net.activation, h)
            if not np.array_equal(new_row, x[i]):
                if trace is not None:
                    trace.append(trace[-1] + _row_update_energy_delta(h, x[i], new_row, w_diag[i]))
                x[i] = new_row
            elif trace is not None:
                trace.append(trace[-1])
        return x

    # Exact, against the previous state only: under schedule="random" the next
    # sweep draws a fresh order, so a revisit at lag 2 or more is not a cycle.
    report = iterate(sweep, x, replace(crit, window=1), exact=True)
    report.energy_trace, report.schedule_seed = trace, seed
    return report


def run_parallel(
    net: DhnNetwork,
    x0: np.ndarray,
    crit: Optional[ConvergenceCriterion] = None,
) -> RunReport:
    """Run parallel steps until the state revisits one of the last few states.

    Classification states are compared exactly; continuous states by the
    directional criterion ||X^(t) - X^(t-k)||_F < epsilon over k = 1..window,
    where X^ is X normalized to unit Frobenius norm (see ``iterate``).  A
    revisit at lag 1 is a stable state, lag 2 a two-cycle; with symmetric
    weights classification runs never need more.
    """
    crit = crit if crit is not None else ConvergenceCriterion()
    x = np.asarray(x0, dtype=float)  # steps leave it unmodified, so no copy
    if x.shape != (net.n, net.d):
        raise ValueError(f"state must be {net.n}x{net.d}, got {x.shape}")

    trace = [energy(net, x)] if net.activation is Activation.CLASSIFICATION else None

    def step(x):
        x = parallel_step(net, x)
        if trace is not None:
            trace.append(energy(net, x))
        return x

    report = iterate(step, x, crit, exact=net.activation is Activation.CLASSIFICATION)
    report.energy_trace = trace
    return report

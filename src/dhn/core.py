"""Multidimensional Hopfield networks: states, activations, and discrete dynamics.

A network couples n neurons through an n x n weight matrix W and an n x d bias
matrix B.  Each neuron carries a d-dimensional state row; the state of the whole
network is an n x d matrix X.  A serial update recomputes one row of X from the
pre-activation H = W X + B, a parallel update recomputes all rows at once.
W is held as a sparse matrix plus a symmetric rank-one term (zero for plain
graphs), which covers graphs and their modularity matrices in O(nnz + n) memory.
"""

from __future__ import annotations

import sys
import warnings
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
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
# values per block of rows whose norms _normalize_rows_inplace takes at once
_NORM_BLOCK_VALUES = 2**15
# iterate first bounds a directional distance on the leading rows (entries of a vector)
_HEAD, _HEAD_FLOOR = 4, 1e-150


class Activation(Enum):
    """Activation kinds a network can carry.

    The first two act row by row on the state matrix; STIEFEL_PROJECTION acts
    on the whole matrix at once and is only meaningful in parallel mode.
    """

    CLASSIFICATION = "classification"
    L2_NORMALIZE = "l2_normalize"
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
    return _onehot(np.argmax(m, axis=1), m.shape[1])


def _onehot(labels: np.ndarray, d: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], d))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale every nonzero row to unit l2 norm; (near-)zero rows and rows with nan or inf are 0."""
    m = np.array(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("l2_normalize_rows expects a 2-d matrix")
    return _normalize_rows_inplace(m)


def _normalize_rows_inplace(m: np.ndarray) -> np.ndarray:
    """l2_normalize_rows written over a float matrix; norms a block of rows at a time."""
    norms = np.empty(m.shape[0])
    step = max(1, _NORM_BLOCK_VALUES // max(m.shape[1], 1))
    # norms whose squares overflow, or underflow (norms below 1e-150), come from the scaled row
    with np.errstate(over="ignore", invalid="ignore"):  # 0 / 0 and inf / inf: rows set to 0
        for start in range(0, m.shape[0], step):
            norms[start : start + step] = np.linalg.norm(m[start : start + step], axis=1)
        redo = np.flatnonzero((norms < 1e-150) | (norms == np.inf))
        scale = np.max(np.abs(m[redo]), axis=1, initial=0.0)
        m[redo] /= scale[:, None]  # then divided by the scaled norm
        scaled = np.linalg.norm(m[redo], axis=1)
        norms[redo] = np.where(scale * scaled >= _ZERO_ROW_NORM, scaled, 0.0)
    keep = norms >= _ZERO_ROW_NORM
    np.divide(m, norms[:, None], out=m, where=keep[:, None])
    m[~keep] = 0.0
    return m


def stiefel_project(m: np.ndarray) -> np.ndarray:
    """Project an n x d matrix onto the orthonormal d-frames in R^n.

    Returns the polar factor M (Mt M)^(-1/2) = U Vt, where M = U S Vt is the
    thin singular decomposition.  This is the frame maximizing Tr(St M),
    equivalently the closest frame in Frobenius norm.  It is computed from the
    d x d eigenproblem Mt M = V diag(w) Vt as M V diag(w)^(-1/2) Vt, unless
    w_min <= 1e-2 w_max: squaring M squares its condition number, so such
    input takes the SVD of M instead.  A rank-deficient input still yields a
    valid frame, but the maximizer is not unique; a warning is emitted.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] == 0:
        raise ValueError(f"stiefel_project expects an n x d matrix with d >= 1, got {m.shape}")
    n, d = m.shape
    if d > n:
        raise ValueError(f"no orthonormal {d}-frame exists in R^{n} (d > n)")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram matrix takes the SVD
        w, v = np.linalg.eigh(m.T @ m)
    # off the SVD's frame by about 1e-16 w_max / w_min, so by < 1e-13 here (tests/test_stiefel.py)
    if w[0] > w[-1] * 1e-2:
        return m @ ((v / np.sqrt(w)) @ v.T)
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
    t = m.T.tocsr()
    paired = np.array_equal(m.indptr, t.indptr) and np.array_equal(m.indices, t.indices)
    if paired and m.has_canonical_format:  # M's entries pair with t's: compare in t's copy
        diff = np.abs(np.subtract(t.data, m.data, out=t.data), out=t.data)
        return float(diff.max()) if diff.size else 0.0
    diff = abs(m - t)
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
        wx, t = self.sparse @ x, self.coef * (u @ x)
        # a K = 1 product rounds each u_i t_c once; a -0.0 may come out +0.0, which the
        # CSR product's sums (started at +0.0, so never -0.0) absorb alike
        wx += u[:, None] @ t[None, :] if x.ndim == 2 else u * t
        return wx

    def onehot_product(self, labels: np.ndarray, d: int, out=None) -> np.ndarray:
        """W X for the n x d one-hot X of ``labels``, without forming X.

        The CSR product sums row i into column c in stored order, adding exact
        zeros for entries labelled otherwise, so summing just the entries
        labelled c in that order gives the same floats in O(nnz + n d).  The
        rank-one term's column totals are ``bincount(labels, weights=u)``, in
        label order, not the BLAS order of ``u @ X``: the same floats when u
        holds integers, within rounding otherwise.  ``out`` (C-ordered) is reused.
        """
        s, u, indptr = self.sparse, self.vector, self._binning_indptr
        binned = (s.data, labels.astype(indptr.dtype)[s.indices], indptr)
        # toarray sums duplicate entries, so each (row, label) bin, in stored order
        wx = sp.csr_array(binned, (self.n, d)).toarray(out=out)
        totals = np.bincount(labels, weights=u, minlength=d)
        for c, t in enumerate(self.coef * totals):  # column by column: no n x d temporary
            wx[:, c] += u * t
        return wx

    @cached_property
    def _binning_indptr(self) -> np.ndarray:
        # S's indptr in onehot_product's index dtype (a 4-byte label per entry where nnz
        # fits), cast once: the binned CSR of every product shares it
        s = self.sparse
        return s.indptr.astype(np.int32 if s.nnz <= np.iinfo(np.int32).max else np.int64)

    def row(self, x: np.ndarray, i: int) -> np.ndarray:
        """Row i of W X for an n x d matrix X, without forming the other rows."""
        s, u = self.sparse, self.vector
        lo, hi = s.indptr[i], s.indptr[i + 1]
        return s.data[lo:hi] @ x[s.indices[lo:hi]] + u[i] * (self.coef * (u @ x))

    def diagonal(self) -> np.ndarray:
        return self.sparse.diagonal() + self.vector * (self.coef * self.vector)

    def zero_diagonal(self, _scale: float = 1.0) -> "WeightMatrix":
        """The same matrix with every diagonal entry exactly zero.

        S's diagonal becomes r = 0 - u * (coef * u), which cancels the rank-one
        term's, in one pass over the CSR arrays: the arrays, dtypes included,
        of subtracting diag(S) and then the rank-one diagonal, at one new copy.
        The private ``_scale`` first takes S as ``S * _scale`` (SciPy's ``S / v``
        for ``_scale = 1 / v``), scaled in that copy.
        """
        s, u = self.sparse, self.vector
        r = 0.0 - u * (self.coef * u)
        rows = np.repeat(np.arange(self.n), np.diff(s.indptr))
        rows = rows[s.indices < rows]  # the row of each entry left of its diagonal
        at = s.indptr[:-1] + np.bincount(rows, minlength=self.n)  # diagonal slots, stored or not
        del rows
        missing = s.diagonal() == 0.0  # canonical: a stored entry is nonzero
        new = np.flatnonzero(missing)
        data = np.insert(s.data, at[new], 0.0)
        indices = np.insert(s.indices, at[new], new.astype(s.indices.dtype, copy=False))
        shift = np.concatenate(([0], np.cumsum(missing)))
        data *= _scale
        data[at + shift[:-1]] = r
        indptr = s.indptr + shift.astype(s.indptr.dtype)
        # canonical_csr drops the zero r_i (rows whose u_i * coef is 0) and the scaled
        # entries that underflow to 0, in place
        return WeightMatrix(sp.csr_array((data, indices, indptr), s.shape), u, self.coef)

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
    their directions X / ||X||_F are within ``epsilon`` (Frobenius), a test
    that a distance of 2 ``epsilon`` over the first few rows settles first.
    Serial runs only read ``max_iters``: they stop at the exact fixed point.
    """

    epsilon: float = 1e-8
    window: int = 2
    max_iters: int = 1000

    def __post_init__(self):
        if not 0 <= self.epsilon < np.inf:  # nan or inf would decide every comparison alike
            raise ValueError("epsilon must be finite and nonnegative")
        if not 1 <= self.window <= sys.maxsize:  # the window is a deque's maxlen
            raise ValueError(f"window must be between 1 and {sys.maxsize}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class RunReport:
    """Trajectory metadata for one run.

    ``iterations`` counts sweeps for serial runs and parallel steps otherwise.
    ``cycle_length`` is 1 for a stable state, 2 for a two-cycle, k for a longer
    detected cycle, None when the budget ran out.  ``energy_trace`` is recorded
    for classification runs only: the initial state's energy, then the energy
    after each sweep or step, so 1 + iterations entries, as a result document
    stores them.  ``final_state`` is the length-n label vector of every label
    run (``run_lms``, ``run_gnm_plus_lms`` and ``run_plms``), the n x d state
    of network runs and the frame of frame runs (``run_gnm``, ``run_sgnm``).
    """

    final_state: np.ndarray
    iterations: int
    outcome: Outcome
    cycle_length: Optional[int] = None
    energy_trace: Optional[list] = None


def _row_preactivation(net: DhnNetwork, x: np.ndarray, i: int) -> np.ndarray:
    return net.weights.row(x, i) + net.bias[i]


def _apply_matrix(activation: Activation, m: np.ndarray) -> np.ndarray:
    if activation is Activation.CLASSIFICATION:
        return classify_rows(m)
    if activation is Activation.L2_NORMALIZE:
        return l2_normalize_rows(m)
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
    h = net.weights @ np.asarray(x, dtype=float)
    h += net.bias
    return _apply_matrix(net.activation, h)


def energy(net: DhnNetwork, x: np.ndarray) -> float:
    """V(X) = -Tr(Xt W X + 2 Xt B).

    Nonincreasing along serial classification runs when W is symmetric with a
    nonnegative diagonal.
    """
    x = np.asarray(x, dtype=float)
    return float(-np.sum(x * (net.weights @ x)) - 2.0 * np.sum(x * net.bias))


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

    The window keeps continuous states with their norms, not normalized copies,
    and directions 2 ``crit.epsilon`` apart on the first few rows are no match
    at O(d) cost.  Each decision is the full test's.
    """

    def direction(x, norm):  # a zero (or NaN) norm leaves x as its own direction
        return x / norm if norm > 0 else x

    def key(x):  # a continuous state, its norm and its head's direction
        if exact:
            return x
        norm = np.linalg.norm(x)
        return x, norm, direction(x[:_HEAD], norm)

    # x[:_HEAD] / norm gives the floats of the head of x / norm, so the head's squared
    # distance sums a subset of the full one's terms: heads 2 epsilon apart are no match.
    # 2 is far above either sum's relative rounding at any size that fits in memory, and
    # _HEAD_FLOOR keeps the sums out of the subnormal range, where rounding is absolute.
    # A NaN head distance takes the full test; an infinite one means an infinite or NaN
    # full one, no match either; with epsilon 0 nothing matches in either test.
    cutoff = max(2.0 * crit.epsilon, _HEAD_FLOOR)

    def match(state, prev):
        if exact:
            return np.array_equal(state, prev)
        (a, a_norm, a_head), (b, b_norm, b_head) = state, prev
        if np.linalg.norm(a_head - b_head) >= cutoff:
            return False
        return np.linalg.norm(direction(a, a_norm) - direction(b, b_norm)) < crit.epsilon

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
    crit: Optional[ConvergenceCriterion] = None,
) -> RunReport:
    """Run cyclic serial sweeps, neurons 0..n-1 in order, until one sweep changes no row.

    Only ``crit.max_iters`` (the sweep budget) is read; the run stops at the
    exact fixed point, whatever ``epsilon`` and ``window`` say.
    ``iterations`` counts sweeps, the final unchanged sweep included.  With
    symmetric weights, nonnegative diagonal and classification activation
    the run is guaranteed to reach a stable state, in any visit order; other
    configurations may terminate only through the budget.  A classification
    run's energy trace holds the start's energy and each sweep's last, summed
    from the per-row deltas.
    """
    crit = crit if crit is not None else ConvergenceCriterion()
    x = np.asarray(x0, dtype=float)  # each sweep works on a copy
    if x.shape != (net.n, net.d):
        raise ValueError(f"state must be {net.n}x{net.d}, got {x.shape}")

    trace = [energy(net, x)] if net.activation is Activation.CLASSIFICATION else None
    w_diag = net.weights.diagonal()

    def sweep(x):
        x, e = x.copy(), trace[-1] if trace is not None else None
        for i in range(net.n):
            h = _row_preactivation(net, x, i)
            new_row = _serial_row(net.activation, h)
            if not np.array_equal(new_row, x[i]):
                if trace is not None:
                    e += _row_update_energy_delta(h, x[i], new_row, w_diag[i])
                x[i] = new_row
        if trace is not None:
            trace.append(e)
        return x

    report = iterate(sweep, x, replace(crit, window=1), exact=True)
    report.energy_trace = trace
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
    weights classification runs never need more.  A classification step is
    ``parallel_step`` and then ``energy`` of the new state.
    """
    crit = crit if crit is not None else ConvergenceCriterion()
    x = np.asarray(x0, dtype=float)  # steps leave it unmodified, so no copy
    if x.shape != (net.n, net.d):
        raise ValueError(f"state must be {net.n}x{net.d}, got {x.shape}")
    if net.activation is not Activation.CLASSIFICATION:
        return iterate(lambda x: parallel_step(net, x), x, crit)

    trace = [energy(net, x)]

    def step(x):
        x = parallel_step(net, x)
        trace.append(energy(net, x))
        return x

    report = iterate(step, x, crit, exact=True)
    report.energy_trace = trace
    return report

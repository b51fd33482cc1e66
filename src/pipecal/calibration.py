"""Correction-parameter estimators built on the homogeneity of the converter.

Every estimator works purely on output pairs (y_x, y_ax) and their selection
regressors; the test signal itself stays unknown. Three routes are provided:

* `hec_wiener`       -- linear Wiener solution assuming the digital scaling
                        factor alpha_d matches the analog one exactly.
* `blhec_wiener`     -- alternating Wiener solution, with a safeguarded
                        Aitken step on the scalar, that additionally
                        estimates a scalar correction theta_alpha for the
                        scaling factor mismatch (the error is linear in each
                        parameter block but bi-linear in both).
* `run_sgd`          -- per-sample stochastic-gradient version of the same
                        bi-linear estimator, cheap enough for hardware, run
                        by a compiled C loop (`kernels.c`, built on first
                        use) over one converter's pairs. That loop is the
                        package's only SGD update; the tests audit its
                        multiplication budget with an instrumented oracle.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .correction import CorrectionLayout, SelectionBatch, _select, selection_vectors
from .signals import PairBatch

__all__ = [
    "PairStatistics",
    "CalibrationState",
    "StepSchedule",
    "BlhecResult",
    "accumulate_statistics",
    "hec_wiener",
    "blhec_wiener",
    "run_sgd",
]

COND_LIMIT = 1e12
BLHEC_TOLERANCE = 1e-7      # blhec_wiener's stop rule on theta_alpha, the paper's value


class RankDeficiencyError(RuntimeError):
    """The calibration input did not cover all stage codes."""


class SingularStatisticsError(RuntimeError):
    """The regressor covariance is numerically singular."""


class DivergenceError(RuntimeError):
    """The adaptive parameter vector left the configured guard region.

    `sample` is the sample count at which the guard tripped and `member` the
    diverging converter's position in the population (None from `run_sgd`,
    set by the harness).
    """

    def __init__(self, message: str, member: int | None = None, sample: int | None = None):
        super().__init__(message)
        self.member = member
        self.sample = sample


class NumericalError(RuntimeError):
    """A non-finite intermediate value appeared."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _pairs(sel_ax: SelectionBatch, sel_x: SelectionBatch, y_ax: np.ndarray, y_x: np.ndarray,
           *buffers: np.ndarray) -> kernels.Pairs:
    """The `kernels.Pairs` of the pairs (y_ax, y_x) with their selections and the Wiener
    kernels' `buffers` (g, r, l, p) if any, holding every array it points at. Raises
    ValueError unless both sides have one length and the kernels can read each array by
    address: C-contiguous float64 outputs, int64 keys, float64 and int64 (K, q) tables."""
    y_ax, y_x = (np.ascontiguousarray(y, dtype=float) for y in (y_ax, y_x))
    layout, n, sides = sel_ax.layout, len(sel_ax), (sel_ax, sel_x)
    if not len(sel_x) == y_ax.size == y_x.size == n:
        raise ValueError(f"pair sides differ in length: {len(sel_ax)} and {len(sel_x)} "
                         f"selections, {y_ax.size} and {y_x.size} outputs")
    rows = tuple(len(sel.table_weighted) for sel in sides)
    for sel, r in zip(sides, rows):
        arrays = ((sel.keys, np.int64, (n,)), (sel.table_weighted, np.float64, (r, layout.q)),
                  (sel.table_slots, np.int64, (r, layout.q)))
        if not all(a.dtype == t and a.shape == shape and a.flags.c_contiguous
                   for a, t, shape in arrays):
            raise ValueError("a selection's keys and (K, q) tables must be C-contiguous "
                             "int64, float64 and int64 arrays")
    pairs = kernels.Pairs(n, layout.dim, layout.q, layout.weighted_slots.ctypes.data,
                          (y_ax.ctypes.data, y_x.ctypes.data),
                          tuple(sel.keys.ctypes.data for sel in sides), rows,
                          tuple(sel.table_weighted.ctypes.data for sel in sides),
                          tuple(sel.table_slots.ctypes.data for sel in sides),
                          *(b.ctypes.data for b in buffers))
    pairs.arrays = (sides, y_ax, y_x, buffers)
    return pairs


class PairStatistics:
    """Second-order sample statistics of a pair batch, and its Wiener solve.

    With A = [y_ax, h_ax] and B = [y_x, h_x] (N x (D+1) each), the statistics
    are the Gram matrix G = C^T C / n of C = [A, B] (`gram`), built by the
    compiled `pipecal_gram` from both sides' keys, (K, q) tables and outputs,
    without forming C. Its blocks give

        M(c) = (A - cB)^T (A - cB) / n = S_AA - c (S_AB + S_BA) + c^2 S_BB,

    which holds R_hh(c) and r_hy(c), and with u = [1, theta_nl] the output
    powers u^T S_BB u and u^T S_AB u. `solve` is one kernel call: M(c), a
    Cholesky solve of R_hh(c), the homogeneity MSE from one pass over the pairs
    through the key tables, and the output powers at the solved theta_nl. Every
    sum has a fixed order, so no result depends on the BLAS kernel. The dense
    regressors `h_ax` and `h_x` are built only when read; no estimator reads
    them. The kernels work in buffers the object owns, so one thread at a time
    may call its methods.
    """

    def __init__(self, sel_ax: SelectionBatch, sel_x: SelectionBatch, y_ax: np.ndarray,
                 y_x: np.ndarray, alpha_d: float):
        self.sel_ax, self.sel_x, self.alpha_d = sel_ax, sel_x, alpha_d
        self.y_ax, self.y_x = (np.ascontiguousarray(y, dtype=float) for y in (y_ax, y_x))
        self.layout, self.n, self.dim = sel_ax.layout, len(sel_ax), sel_ax.layout.dim
        d, k = self.dim, self.dim + 1
        rows = [len(sel.table_weighted) for sel in (sel_ax, sel_x)]
        self.gram = np.empty((2 * k, 2 * k))
        # the kernels' buffers: the last solve's R_hh(c) then r_hy(c), its Cholesky factor
        # and one vector, and T theta per table row of each side; then the solve's outputs
        r = np.empty(d * d + d)
        self._r_hh = r[:d * d].reshape(d, d)
        self._theta, self._moments = np.empty(d), np.empty(4)
        self._pairs = _pairs(sel_ax, sel_x, self.y_ax, self.y_x, self.gram, r,
                             np.empty(d * d + d), np.empty(sum(rows)))
        self._ref = ctypes.addressof(self._pairs)
        self._outputs = (self._theta.ctypes.data, self._moments.ctypes.data)
        hist, work = np.zeros(3 * sum(rows) + rows[1]), np.empty(sum(rows) + self.n, dtype=np.int64)
        kernels.library().pipecal_gram(self._ref, hist.ctypes.data, work.ctypes.data)
        self.gram.setflags(write=False)
        self.s_aa, self.s_ab, self.s_bb = self.gram[:k, :k], self.gram[:k, k:], self.gram[k:, k:]

    @cached_property
    def h_ax(self) -> np.ndarray:
        """The (N, D) dense scaled-side regressors, read-only, built on first read."""
        return _read_only(self.sel_ax.dense())

    @cached_property
    def h_x(self) -> np.ndarray:
        """The (N, D) dense unscaled-side regressors, read-only, built on first read."""
        return _read_only(self.sel_x.dense())

    def solve(self, theta_alpha: float) -> tuple[np.ndarray, float, float, tuple[float, float]]:
        """theta_nl = -R_hh(c)^-1 r_hy(c) at c = alpha_d + theta_alpha, the homogeneity
        MSE at (theta_alpha, theta_nl), its standard error, and the output powers
        (r_yy, r_yya) at theta_nl: the mean of the corrected y_x^2 and of y_x * y_ax.
        Raises SingularStatisticsError as `_accept` decides."""
        status = kernels.library().pipecal_wiener_solve(
            self._ref, self.alpha_d + theta_alpha, COND_LIMIT, *self._outputs)
        _accept(status, self._r_hh)
        mse, stderr, r_yy, r_yya = self._moments.tolist()
        return self._theta.copy(), mse, stderr, (r_yy, r_yya)


def accumulate_statistics(pairs: PairBatch, layout: CorrectionLayout,
                          alpha_d: float) -> PairStatistics:
    """Select both sides' regressors and form their Gram matrix.

    Raises RankDeficiencyError, as `_check_coverage` decides, when neither
    side of any pair selects a code that owns an indicator slot (e.g. a
    constant input selecting one code forever).
    """
    n = len(pairs)
    if n < layout.dim:
        raise ValueError(f"need at least D={layout.dim} pairs, got {n}")

    sides = [selection_vectors(batch, layout) for batch in (pairs.scaled, pairs.unscaled)]
    _check_coverage(_count_codes(sides, layout), layout)
    return PairStatistics(*sides, pairs.scaled.y, pairs.unscaled.y, alpha_d)


def _count_codes(sides: Sequence[SelectionBatch], layout: CorrectionLayout) -> np.ndarray:
    """The (q, width) int64 count of each stage code over the selections `sides`."""
    counts = np.zeros(layout.code_slots.shape, dtype=np.int64)
    for sel in sides:       # each table row's codes, as often as a key selects it
        selected = np.bincount(sel.keys, minlength=len(sel.table_codes))
        for stage, column in zip(counts, sel.table_codes.T):
            stage += np.bincount(column, selected, stage.size).astype(np.int64)
    return counts


def _check_coverage(counts: np.ndarray, layout: CorrectionLayout) -> None:
    """Raise RankDeficiencyError when `counts`, the code selections per stage
    of a run's pairs (`_count_codes`, `CalibrationState.code_counts`), never
    selected a code that owns an indicator slot: no estimator can set that
    slot, and R_hh has a zero row and column there."""
    slots = layout.code_slots
    missing = np.argwhere((counts == 0) & (slots >= 0))     # stage-major order
    if missing.size:
        i, code = missing[0]
        raise RankDeficiencyError(
            f"the calibration input never selects stage {i + 1} code {code} "
            f"(indicator slot {slots[i, code]}); input does not cover all codes")


_FACTORIZATION_FAILED = 1   # the kernels' solve status for a pivot that is not positive


def _accept(status: int, r: np.ndarray) -> None:
    """Raise SingularStatisticsError unless the symmetric r passes.

    Status 0 passes: the Cholesky factorization succeeded and its bound
    ||r||_inf ||L^-1||_F^2 <= COND_LIMIT proves cond_2(r) <= COND_LIMIT.
    Otherwise the eigenvalues decide: r must be positive definite with a
    2-norm condition number (largest over smallest eigenvalue) of at most
    COND_LIMIT, and its factorization must have succeeded. LAPACK decides pass
    or fail only; no number it computes enters a result or a message, since its
    digits depend on the BLAS kernel.
    """
    if status == 0:
        return
    try:
        w = np.linalg.eigvalsh(r)
    except np.linalg.LinAlgError as exc:
        raise SingularStatisticsError(f"covariance eigendecomposition failed: {exc}") from exc
    # negated comparisons so that NaN eigenvalues fail the checks too
    if not w[0] > 0.0:
        raise SingularStatisticsError("covariance not positive definite")
    if not w[-1] / w[0] <= COND_LIMIT:
        raise SingularStatisticsError(f"covariance condition number exceeds {COND_LIMIT:.0e}")
    if status == _FACTORIZATION_FAILED:
        raise SingularStatisticsError("covariance Cholesky factorization failed")


def hec_wiener(stats: PairStatistics) -> np.ndarray:
    """Wiener solution theta = -R_hh^{-1} r_hy at theta_alpha = 0."""
    return stats.solve(0.0)[0]


@dataclass
class BlhecResult:
    theta_nl: np.ndarray
    theta_alpha: float
    mse: list[float]              # empirical MSE after each iteration
    mse_stderr: list[float]       # standard error of each MSE estimate
    alpha_trace: list[float]
    iterations: int
    converged: bool
    diagnostic: str | None = None


def _aitken(a0: float, a1: float, a2: float) -> float | None:
    """Aitken's delta-squared extrapolation of three successive iterates
    a1 = F(a0), a2 = F(a1) of a scalar fixed-point map F; None when the
    second difference vanishes or the result is not finite."""
    curvature = a2 - 2.0 * a1 + a0
    if curvature == 0.0:
        return None
    step = a2 - (a2 - a1) ** 2 / curvature
    return step if math.isfinite(step) else None


def blhec_wiener(stats: PairStatistics, max_iterations: int = 50) -> BlhecResult:
    """Alternating Wiener solution of the bi-linear homogeneity cost,
    accelerated by a safeguarded Steffensen step on theta_alpha.

    Starting from theta_nl = 0, a plain iteration first updates the scalar

        theta_alpha = r_yya(theta_nl) / r_yy(theta_nl) - alpha_d

    and then re-solves theta_nl = -R_hh(theta_alpha)^{-1} r_hy(theta_alpha).
    That map of theta_alpha contracts linearly with a factor close to one, so
    after every two plain iterations the last three plain iterates are
    extrapolated with Aitken's delta-squared formula and theta_nl is solved
    at the extrapolated theta_alpha. The candidate is accepted only when its homogeneity MSE does
    not exceed the last accepted one; a rejected or singular candidate costs
    its solve and the plain iteration follows. `iterations` counts every
    solve; `mse`, `mse_stderr` and `alpha_trace` list accepted iterates only.

    Iteration stops when an accepted theta_alpha moves less than BLHEC_TOLERANCE.
    If the covariance turns singular in a plain iteration after the first,
    the previous parameters are returned with a diagnostic instead of
    silently regularizing.

    Each solve is one `PairStatistics.solve` kernel call (O(D^3) for the
    factorization, plus one pass over the N pairs for the MSE and its standard
    error, a fourth moment the Gram matrix does not hold); each plain update
    of theta_alpha reads the output powers of the last accepted solve.
    """
    theta_nl = np.zeros(stats.dim)
    theta_alpha = 0.0
    powers = float(stats.s_bb[0, 0]), float(stats.s_ab[0, 0])     # (r_yy, r_yya) at theta_nl = 0
    mse: list[float] = []
    mse_se: list[float] = []
    alphas: list[float] = []
    converged = False
    diagnostic = None
    chain: list[float] = []      # successive plain iterates of theta_alpha since the last restart

    m = 0
    for m in range(1, max_iterations + 1):
        prev_alpha = theta_alpha
        step = None
        if len(chain) == 3:
            step = _aitken(*chain)
            chain = chain[-1:]
        if step is not None:
            try:
                nl, cost, stderr, at = stats.solve(step)
            except SingularStatisticsError:
                continue
            # negated comparison so that a NaN error rejects the candidate
            if not cost <= mse[-1]:
                continue
            theta_alpha, theta_nl, powers = step, nl, at
            chain = [step]
        else:
            r_yy, r_yya = powers
            if r_yy <= 0.0 or not math.isfinite(r_yy):
                raise NumericalError(f"non-positive output power {r_yy!r}")
            theta_alpha = r_yya / r_yy - stats.alpha_d
            try:
                theta_nl, cost, stderr, powers = stats.solve(theta_alpha)
            except SingularStatisticsError as exc:
                if m == 1:
                    raise
                theta_alpha = prev_alpha
                diagnostic = f"iteration {m}: {exc}; kept previous parameters"
                break
            if not np.all(np.isfinite(theta_nl)) or not math.isfinite(theta_alpha):
                raise NumericalError("non-finite calibration parameters")
            chain.append(theta_alpha)

        mse.append(cost)
        mse_se.append(stderr)       # std(e^2) / sqrt(n)
        alphas.append(theta_alpha)
        if m > 1 and abs(theta_alpha - prev_alpha) < BLHEC_TOLERANCE:
            converged = True
            break

    return BlhecResult(theta_nl=theta_nl, theta_alpha=theta_alpha, mse=mse,
                       mse_stderr=mse_se, alpha_trace=alphas, iterations=m,
                       converged=converged, diagnostic=diagnostic)


@dataclass(frozen=True)
class StepSchedule:
    """Step-size plan: mu_nl halves every `halve_every` samples from
    `mu_nl_init` down to `mu_nl_min`; mu_alpha keeps a fixed ratio to mu_nl.
    A `halve_every` of 0 means a constant step, mu_nl_init throughout. All
    defaults are powers of two."""

    mu_nl_init: float = 2.0 ** -2
    halve_every: int = 12000
    mu_nl_min: float = 2.0 ** -6
    alpha_ratio: float = 0.5

    def mu_nl(self, k: int) -> float:
        if self.halve_every <= 0:
            return self.mu_nl_init
        return max(self.mu_nl_init * 2.0 ** -(k // self.halve_every), self.mu_nl_min)

    def mu_alpha(self, k: int) -> float:
        return self.alpha_ratio * self.mu_nl(k)


@dataclass
class CalibrationState:
    """Adaptive estimator state: parameters, sample count k (the last step sizes are the
    schedule's at k - 1), and `run_sgd`'s (q, width) int64 count of each stage code's selections."""

    theta_nl: np.ndarray
    theta_alpha: float = 0.0
    k: int = 0
    code_counts: np.ndarray | None = None


GUARD_EVERY = 200   # samples between the adaptive kernel's divergence checks
# pairs run_sgd converts and adapts per slice, chosen by measurement on 24
# default members (2-vCPU Xeon VM): a slice's conversions must fit in what
# the heap keeps between slices. In a benchmark process a member took about
# 480 fresh pages at 6144 and 8192 (almost all outside the slices), 870 at
# 10 000, and 2100 at 16 384, more than whole-batch conversion's 1800;
# at 2048 and 4096 the per-slice calls cost more than the pages saved.
SGD_CHUNK = 8192

Snapshots = dict[int, tuple[np.ndarray, float]]    # sample count -> (theta_nl, theta_alpha)


def _chunk_pairs(chunk: PairBatch, layout: CorrectionLayout, base: int,
                 counts: np.ndarray) -> kernels.Pairs:
    """The kernel's `_pairs` of one chunk, after checking the chunk's codes and
    adding them to `counts`."""
    for batch in (chunk.unscaled, chunk.scaled):
        layout.check_codes(batch, base=base)
    sides = [_select(batch, layout) for batch in (chunk.scaled, chunk.unscaled)]
    counts += _count_codes(sides, layout)
    return _pairs(*sides, chunk.scaled.y, chunk.unscaled.y)


def run_sgd(pairs, layout: CorrectionLayout, alpha_d: float,
            schedule: StepSchedule | None = None, guard: float = 1.0,
            checkpoints: Sequence[int] | None = None) -> tuple[CalibrationState, Snapshots]:
    """Adapt one converter's correction parameters over its N pairs.

    `pairs` is anything with len() whose row slices are `PairBatch`es: a
    `PairBatch`, or a `PairSource` that converts a slice when it is taken.
    The pairs are walked in SGD_CHUNK slices, so the pairs held at one time
    do not grow with N.

    A compiled C loop (`kernels.c`) performs the operations of the
    per-sample loop (`tests/helpers.py`'s `sgd_loop`) in the same order, so
    its results are bit-identical to it whatever the chunk size. It reads each
    chunk's outputs and contiguous code columns and the layout's four tables,
    and returns to Python only at chunk ends, checkpoints and multiples of
    the schedule's `halve_every`, where the step sizes may change.

    Returns the final state and a snapshot of (theta_nl, theta_alpha) at each
    requested sample count up to N. The state's `code_counts` counts each
    stage code over both conversions of every pair; a code never selected
    leaves its indicator slot at 0 and is not an error here. Every
    GUARD_EVERY samples and at N the loop checks the guard: ||theta_nl||_inf
    above `guard`, or a theta_alpha that is no longer finite, raises
    DivergenceError naming the sample. A code index outside its stage's
    1..p_i raises LayoutError before its chunk runs.
    """
    schedule = schedule or StepSchedule()
    total = len(pairs)
    counts = np.zeros(layout.code_slots.shape, dtype=np.int64)

    checkset = set(checkpoints or [])
    h = schedule.halve_every
    stops = sorted({total} | {k for k in checkset if 0 < k < total}
                   | set(range(SGD_CHUNK, total, SGD_CHUNK))
                   | (set(range(h, total, h)) if h > 0 else set()))
    theta, ta = np.zeros(layout.dim), np.zeros(1)
    snapshots: Snapshots = {0: (theta.copy(), 0.0)} if 0 in checkset else {}
    a = 0
    for b in stops:
        if a % SGD_CHUNK == 0:      # a chunk starts at sample a
            chunk = None            # the last chunk's pairs go before the next is converted
            chunk, base = _chunk_pairs(pairs[a:min(a + SGD_CHUNK, total)], layout, a, counts), a
        tripped = kernels.library().pipecal_sgd(
            ctypes.addressof(chunk), a, b, total, base, GUARD_EVERY, theta.ctypes.data,
            ta.ctypes.data, alpha_d, schedule.mu_nl(a), schedule.mu_alpha(a), guard)
        if tripped:
            raise DivergenceError(f"||theta_nl||_inf exceeded guard {guard} at sample {tripped}",
                                  sample=tripped)
        if b in checkset:
            snapshots[b] = (theta.copy(), float(ta[0]))
        a = b
    if not np.all(np.isfinite(theta)) or not np.isfinite(ta[0]):
        raise NumericalError("non-finite adaptive parameters")
    return CalibrationState(theta_nl=theta, theta_alpha=float(ta[0]), k=total,
                            code_counts=counts), snapshots


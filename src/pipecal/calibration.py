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

`step_size_bounds` gives the per-sample stability bounds on the two step
sizes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .correction import CorrectionLayout, selection_vectors
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
    "step_size_bounds",
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


@dataclass
class PairStatistics:
    """Second-order sample statistics of a pair batch.

    With A = [y_ax, h_ax] and B = [y_x, h_x] (N x (D+1) each), every
    statistic the estimators need is a quadratic form of the Gram matrix
    G = C^T C / n of C = [A, B], built once:

        M(c) = (A - cB)^T (A - cB) / n = S_AA - c (S_AB + S_BA) + c^2 S_BB

    holds R_hh(c) and r_hy(c) as blocks, and with u = [1, theta_nl] the
    output powers and the MSE are u^T S_BB u, u^T S_AB u and u^T M(c) u, so
    an estimator iteration costs O(D^2) whatever N is. The dense buffers stay
    available, as column views of C, for per-sample quantities.
    """

    columns: np.ndarray    # (N, 2(D+1)) column-major C = [y_ax, h_ax, y_x, h_x]
    alpha_d: float
    layout: CorrectionLayout
    # column views of C; h_ax and h_x are the (N, D) dense regressors
    y_ax: np.ndarray = field(init=False, repr=False)
    h_ax: np.ndarray = field(init=False, repr=False)
    y_x: np.ndarray = field(init=False, repr=False)
    h_x: np.ndarray = field(init=False, repr=False)
    # (D+1) x (D+1) blocks of G, and S_AB + S_BA
    s_aa: np.ndarray = field(init=False, repr=False)
    s_ab: np.ndarray = field(init=False, repr=False)
    s_bb: np.ndarray = field(init=False, repr=False)
    s_cross: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        k, c = self.dim + 1, self.columns
        self.y_ax, self.h_ax, self.y_x, self.h_x = c[:, 0], c[:, 1:k], c[:, k], c[:, k + 1:]
        gram = c.T @ c / self.n
        self.s_aa, self.s_ab, self.s_bb = gram[:k, :k], gram[:k, k:], gram[k:, k:]
        self.s_cross = self.s_ab + self.s_ab.T

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.layout.dim

    def homogeneity_gram(self, theta_alpha: float = 0.0) -> np.ndarray:
        """M(c) at c = alpha_d + theta_alpha: the Gram matrix of [dy, dh]."""
        c = self.alpha_d + theta_alpha
        return self.s_aa - c * self.s_cross + (c * c) * self.s_bb

    def r_hh(self, theta_alpha: float = 0.0) -> np.ndarray:
        return self.homogeneity_gram(theta_alpha)[1:, 1:]

    def r_hy(self, theta_alpha: float = 0.0) -> np.ndarray:
        return self.homogeneity_gram(theta_alpha)[1:, 0]

    def r_yy(self, theta_nl: np.ndarray) -> float:
        u = _augment(theta_nl)
        return float(u @ self.s_bb @ u)

    def r_yya(self, theta_nl: np.ndarray) -> float:
        u = _augment(theta_nl)
        return float(u @ self.s_ab @ u)

    def mse(self, theta_alpha: float, theta_nl: np.ndarray) -> float:
        u = _augment(theta_nl)
        return float(u @ self.homogeneity_gram(theta_alpha) @ u)

    def errors(self, theta_alpha: float, theta_nl: np.ndarray) -> np.ndarray:
        """Per-sample homogeneity errors at the given parameters (one pass over C)."""
        u = _augment(theta_nl)
        return self.columns @ np.concatenate((u, -(self.alpha_d + theta_alpha) * u))


def _augment(theta_nl: np.ndarray) -> np.ndarray:
    """u = [1, theta_nl]: corrected outputs are A u and B u."""
    return np.concatenate(([1.0], theta_nl))


def accumulate_statistics(pairs: PairBatch, layout: CorrectionLayout,
                          alpha_d: float) -> PairStatistics:
    """Stack the pairs into C and form its Gram matrix.

    Raises RankDeficiencyError when the input failed to exercise every
    regressor direction (e.g. a constant input selecting one code forever).
    """
    n = len(pairs)
    if n < layout.dim:
        raise ValueError(f"need at least D={layout.dim} pairs, got {n}")

    k = layout.dim + 1
    columns = np.empty((n, 2 * k), order="F")
    columns[:, 0] = pairs.scaled.y
    columns[:, 1:k] = selection_vectors(pairs.scaled, layout).dense()
    columns[:, k] = pairs.unscaled.y
    columns[:, k + 1:] = selection_vectors(pairs.unscaled, layout).dense()
    stats = PairStatistics(columns=columns, alpha_d=alpha_d, layout=layout)

    # numerical rank with matrix_rank's default tolerance, from the eigenvalues
    w = np.abs(np.linalg.eigvalsh(stats.r_hh(0.0)))
    rank = int(np.sum(w > w.max() * layout.dim * np.finfo(float).eps))
    if rank < layout.dim:
        raise RankDeficiencyError(
            f"regressor covariance rank {rank} < {layout.dim}; input does not cover all codes"
        )
    return stats


def _solve_spd(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r x = b for symmetric positive-definite r.

    One eigendecomposition gives the definiteness check, the 2-norm condition
    number (largest over smallest eigenvalue) and the solution.
    """
    try:
        w, v = np.linalg.eigh(r)
    except np.linalg.LinAlgError as exc:
        raise SingularStatisticsError(f"covariance eigendecomposition failed: {exc}") from exc
    # negated comparisons so that NaN eigenvalues fail the checks too
    if not w[0] > 0.0:
        raise SingularStatisticsError(f"covariance not positive definite: smallest eigenvalue {w[0]!r}")
    cond = w[-1] / w[0]
    if not cond <= COND_LIMIT:
        raise SingularStatisticsError(f"covariance condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return v @ ((v.T @ b) / w)


def hec_wiener(stats: PairStatistics) -> np.ndarray:
    """Wiener solution theta = -R_hh^{-1} r_hy at theta_alpha = 0."""
    return -_solve_spd(stats.r_hh(0.0), stats.r_hy(0.0))


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

    Both updates read the Gram matrices of `PairStatistics` (O(D^2) per
    iteration); the only pass over the N samples is the error vector behind
    each MSE and its standard error, a fourth moment the Gram matrices do not
    hold.
    """
    def solve(theta_alpha: float) -> np.ndarray:
        gram = stats.homogeneity_gram(theta_alpha)
        return -_solve_spd(gram[1:, 1:], gram[1:, 0])

    theta_nl = np.zeros(stats.dim)
    theta_alpha = 0.0
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
                nl = solve(step)
            except SingularStatisticsError:
                continue
            sq = stats.errors(step, nl) ** 2
            # negated comparison so that a NaN error rejects the candidate
            if not np.mean(sq) <= mse[-1]:
                continue
            theta_alpha, theta_nl = step, nl
            chain = [step]
        else:
            r_yy = stats.r_yy(theta_nl)
            if r_yy <= 0.0 or not math.isfinite(r_yy):
                raise NumericalError(f"non-positive output power {r_yy!r}")
            theta_alpha = stats.r_yya(theta_nl) / r_yy - stats.alpha_d
            try:
                theta_nl = solve(theta_alpha)
            except SingularStatisticsError as exc:
                if m == 1:
                    raise
                theta_alpha = prev_alpha
                diagnostic = f"iteration {m}: {exc}; kept previous parameters"
                break
            if not np.all(np.isfinite(theta_nl)) or not math.isfinite(theta_alpha):
                raise NumericalError("non-finite calibration parameters")
            sq = stats.errors(theta_alpha, theta_nl) ** 2
            chain.append(theta_alpha)

        mean_sq = float(np.mean(sq))
        dev = sq - mean_sq
        mse.append(mean_sq)
        mse_se.append(math.sqrt(float(dev @ dev)) / sq.size)     # std(sq) / sqrt(n)
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
    """Adaptive estimator state: parameters, step sizes, sample counter, and
    `run_sgd`'s (q, width) int64 count of each stage code's selections."""

    theta_nl: np.ndarray
    theta_alpha: float = 0.0
    mu_nl: float = 2.0 ** -6
    mu_alpha: float = 2.0 ** -7
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


def _chunk_arrays(chunk: PairBatch, layout: CorrectionLayout, base: int,
                  counts: np.ndarray) -> tuple:
    """The kernel's per-chunk arrays, after checking the chunk's codes and
    adding them to `counts`: y_x and y_ax as float64, and both batches'
    calibrated code columns as column-major int64 (a copy only for a strided
    row view)."""
    batches = (chunk.unscaled, chunk.scaled)
    for batch in batches:
        layout.check_codes(batch, base=base)
    y_x, y_ax = (np.ascontiguousarray(c.y, dtype=float) for c in batches)
    codes_x, codes_ax = (np.asfortranarray(c.index[:, :layout.q], dtype=np.int64) for c in batches)
    for codes in (codes_x, codes_ax):
        for stage, column in zip(counts, codes.T):
            stage += np.bincount(column, minlength=stage.size)
    return y_x, y_ax, codes_x, codes_ax


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
    total, q = len(pairs), layout.q
    values, slots = layout.code_values, layout.code_slots    # (q, width) stage tables
    counts = np.zeros(slots.shape, dtype=np.int64)

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
            arrays = None           # the last chunk's pairs go before the next is converted
            arrays, base = _chunk_arrays(pairs[a:min(a + SGD_CHUNK, total)], layout, a, counts), a
        tripped = kernels.library().pipecal_sgd(
            a, b, total, base, len(arrays[0]), GUARD_EVERY, *(x.ctypes.data for x in arrays), q,
            values.shape[1], values.ctypes.data, slots.ctypes.data, layout.prefix.ctypes.data,
            layout.weighted_slots.ctypes.data, theta.ctypes.data, layout.dim, ta.ctypes.data,
            alpha_d, schedule.mu_nl(a), schedule.mu_alpha(a), guard)
        if tripped:
            raise DivergenceError(f"||theta_nl||_inf exceeded guard {guard} at sample {tripped}",
                                  sample=tripped)
        if b in checkset:
            snapshots[b] = (theta.copy(), float(ta[0]))
        a = b
    if not np.all(np.isfinite(theta)) or not np.isfinite(ta[0]):
        raise NumericalError("non-finite adaptive parameters")
    last = max(total - 1, 0)
    return CalibrationState(theta_nl=theta, theta_alpha=float(ta[0]), mu_nl=schedule.mu_nl(last),
                            mu_alpha=schedule.mu_alpha(last), k=total,
                            code_counts=counts), snapshots


def step_size_bounds(layout: CorrectionLayout, y_max: float,
                     pairs: PairBatch | None = None, alpha_d: float = 1.0,
                     code_bound: float = 1.0) -> tuple[float, float]:
    """Step sizes below which one update step cannot grow its squared error.

    The paper's stability bound on the SGD step sizes, kept in the package as
    a design aid for choosing a schedule; no config check uses it, since the
    layout-geometry cap is far below the stable default mu_nl_init.

    The scalar bound is 2 / y_max^2 with y_max the largest corrected output.
    The vector bound is 2 / max_k ||h_ax - alpha_d h_x||^2, measured over the
    provided stream; without a stream, a conservative cap from the layout
    geometry (largest weighted entries plus both indicators) is used.
    """
    if y_max <= 0.0:
        raise ValueError("y_max must be positive")
    mu_alpha_max = 2.0 / y_max ** 2

    if pairs is not None:
        sx = selection_vectors(pairs.unscaled, layout)
        sax = selection_vectors(pairs.scaled, layout)
        dh = sax.dense() - alpha_d * sx.dense()
        worst = float(np.max(np.sum(dh ** 2, axis=1)))
    else:
        worst = 0.0
        for i in range(layout.q):
            w_max = code_bound * float(np.sum(layout.prefix[: i + 1]))
            worst += ((1.0 + alpha_d) * w_max) ** 2 + 1.0 + alpha_d ** 2
    return mu_alpha_max, 2.0 / worst

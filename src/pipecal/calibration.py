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
* `run_sgd_population` -- per-sample stochastic-gradient version of the same
                        bi-linear estimator, cheap enough for hardware, run
                        over the sample streams of many converters in
                        lockstep (`run_sgd`: one); `sgd_step` is one update
                        with its multiplication budget counted.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .correction import CorrectionLayout, LayoutError, selection_vectors
from .signals import PairBatch

__all__ = [
    "PairStatistics",
    "CalibrationState",
    "StepSchedule",
    "BlhecResult",
    "SgdStream",
    "MultiplicationCount",
    "accumulate_statistics",
    "hec_wiener",
    "blhec_wiener",
    "sgd_step",
    "run_sgd",
    "run_sgd_population",
    "step_size_bounds",
]

COND_LIMIT = 1e12


class RankDeficiencyError(RuntimeError):
    """The calibration input did not cover all stage codes."""


class SingularStatisticsError(RuntimeError):
    """The regressor covariance is numerically singular."""


class DivergenceError(RuntimeError):
    """The adaptive parameter vector left the configured guard region.

    `member` is the diverging stream's position in a lockstep block and
    `sample` the sample count at which the guard tripped.
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


def blhec_wiener(stats: PairStatistics, max_iterations: int = 50,
                 tolerance: float = 1e-7) -> BlhecResult:
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

    Iteration stops when an accepted theta_alpha moves less than `tolerance`.
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
        if m > 1 and abs(theta_alpha - prev_alpha) < tolerance:
            converged = True
            break

    return BlhecResult(theta_nl=theta_nl, theta_alpha=theta_alpha, mse=mse,
                       mse_stderr=mse_se, alpha_trace=alphas, iterations=m,
                       converged=converged, diagnostic=diagnostic)


@dataclass(frozen=True)
class StepSchedule:
    """Step-size plan: mu_nl halves every `halve_every` samples from
    `mu_nl_init` down to `mu_nl_min`; mu_alpha keeps a fixed ratio to mu_nl.
    All defaults are powers of two."""

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
    """Adaptive estimator state: parameters, step sizes, sample counter."""

    theta_nl: np.ndarray
    theta_alpha: float = 0.0
    mu_nl: float = 2.0 ** -6
    mu_alpha: float = 2.0 ** -7
    k: int = 0

    @classmethod
    def initial(cls, layout: CorrectionLayout, mu_nl: float = 2.0 ** -6,
                mu_alpha: float = 2.0 ** -7) -> "CalibrationState":
        return cls(theta_nl=np.zeros(layout.dim), theta_alpha=0.0, mu_nl=mu_nl, mu_alpha=mu_alpha)


@dataclass
class MultiplicationCount:
    nl: int = 0
    alpha: int = 0


def sgd_step(state: CalibrationState, pair: PairBatch, layout: CorrectionLayout,
             alpha_d: float) -> tuple[CalibrationState, MultiplicationCount]:
    """One alternating stochastic-gradient update on a batch of one pair,
    with its multiplication budget counted hardware-style.

    The scalar parameter moves first using its apriori error; the vector
    update then uses the *fresh* theta_alpha in both its regressor and its
    apriori error. `run_sgd_population` performs the same update for many
    converters at once; this single step exists for the hardware audit.

    Counting conventions: step sizes are powers of two, so scaling by mu is a
    shift; products with the 0/1 indicator entries of the regressors are
    wiring, not multiplications; the gain-weighted regressor entries are
    partial recombination sums the digital back end already provides. Under
    these rules the vector path spends exactly one multiplication per
    parameter slot (dense multiply-accumulate of the update), and the scalar
    path adds three: forming its apriori error, the gradient product, and
    re-scaling the corrected output with the updated factor.
    """
    if len(pair) != 1:
        raise ValueError(f"sgd_step takes a batch of exactly one pair, got {len(pair)}")
    count = MultiplicationCount()
    hx = selection_vectors(pair.unscaled, layout).dense()[0]
    hax = selection_vectors(pair.scaled, layout).dense()[0]
    theta = state.theta_nl.copy()

    # corrected outputs; indicator slots add for free, weighted slots are sums
    # the recombination logic already produces
    yx_hat = float(pair.unscaled.y[0] + hx @ theta)
    yax_hat = float(pair.scaled.y[0] + hax @ theta)

    # scalar path: 3 multiplications
    t1 = (alpha_d + state.theta_alpha) * yx_hat
    count.alpha += 1
    e_alpha = yax_hat - t1
    grad = yx_hat * e_alpha
    count.alpha += 1
    theta_alpha = state.theta_alpha + state.mu_alpha * grad      # shift

    c = alpha_d + theta_alpha
    t2 = c * yx_hat
    count.alpha += 1
    e_nl = yax_hat - t2

    # vector path: dense multiply-accumulate over all D slots
    dh = hax - c * hx
    g = state.mu_nl * e_nl                                       # shift
    for pos in range(layout.dim):
        theta[pos] -= g * dh[pos]
        count.nl += 1

    new_state = replace(state, theta_nl=theta, theta_alpha=theta_alpha, k=state.k + 1)
    return new_state, count


@dataclass(frozen=True)
class SgdStream:
    """One converter's calibration pairs in the compact form the adaptive
    kernel reads: both outputs as float64 plus the code index of each
    calibrated stage in the smallest unsigned type that holds the largest
    stage's level count, as the stage quantizer counts it (uint8 up to 255
    levels), 22 B per pair at q = 3.

    The kernel rebuilds the regressors a chunk at a time from the code
    indices: the weighted entries by `CorrectionLayout.weighted_entries` and
    each indicator slot from its code index.
    """

    y_x: np.ndarray                       # (N,) unscaled outputs
    y_ax: np.ndarray                      # (N,) scaled outputs
    codes_x: np.ndarray                   # (N, q) 1-based code index per calibrated stage
    codes_ax: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: PairBatch, layout: CorrectionLayout) -> "SgdStream":
        q = layout.q
        if pairs.unscaled.index.shape[1] - 1 < q:
            raise LayoutError("batch lacks stage codes for the calibrated stages")
        code_type = np.min_scalar_type(max(layout.sizes))
        return cls(y_x=pairs.unscaled.y, y_ax=pairs.scaled.y,
                   codes_x=pairs.unscaled.index[:, :q].astype(code_type),
                   codes_ax=pairs.scaled.index[:, :q].astype(code_type))

    def __len__(self) -> int:
        return self.y_x.shape[0]


_CHUNK = 256     # samples whose gather slots and weights are expanded at once
GUARD_EVERY = 200   # samples between the adaptive kernel's divergence checks

Snapshots = dict[int, tuple[np.ndarray, float]]    # sample count -> (theta_nl, theta_alpha)


def run_sgd_population(streams: Sequence[SgdStream], layout: CorrectionLayout, alpha_d: float,
                       schedule: StepSchedule | None = None, guard: float = 1.0,
                       checkpoints: Sequence[int] | None = None
                       ) -> list[tuple[CalibrationState, Snapshots]]:
    """Adapt the correction parameters of M converters in lockstep.

    The recursion is sequential in the sample index but independent across
    converters, so each numpy step advances all M members by one pair.
    Member j's parameters are column j of an (S, M) array of S = D + 3 rows:
    the q weighted slots, then the indicator slots, a constant-1 row (the
    output y rides in the same gather as the regressor terms), a zero row
    that the gather reads for codes without an indicator, and a trash row
    that takes their updates and is never read. Both outputs come from one
    gather and one row-order sum; all indicator updates go through one
    `np.add.at` whose index lists, per stage, the scaled path's indicators
    before the unscaled ones, so a slot both paths select gets -g before
    +g*c, as in the one-converter loop. The step sizes are looked up again
    only where the loop stops anyway (guard checks, checkpoints) and at the
    multiples of the schedule's `halve_every`, where they may change.
    Each member sees the floating-point operations of the one-converter
    loop in the same order, so its results are bit-identical to a run on
    its own.

    All streams hold the same number N of pairs; streams of unequal length
    raise ValueError. Each member gets its final state and a snapshot of its
    (theta_nl, theta_alpha) at each requested sample count up to N. Every
    GUARD_EVERY samples and at N, DivergenceError, naming the member's
    position in `streams` and the sample, is raised once ||theta_nl||_inf
    exceeds `guard`.
    """
    schedule = schedule or StepSchedule()
    m, q, d = len(streams), layout.q, layout.dim
    if m == 0:
        return []
    total = len(streams[0])
    if any(len(s) != total for s in streams):
        raise ValueError(f"streams differ in length: {sorted({len(s) for s in streams})}")
    one, zero, trash = d, d + 1, d + 2

    # internal slot order: weighted slots first, so their update is one row block
    weighted = [layout.weighted_position(i) for i in range(q)]
    row_of = np.empty(d, dtype=np.int64)     # internal row of each layout slot
    row_of[weighted + [s for s in range(d) if s not in weighted]] = np.arange(d)
    cols = np.arange(m)
    # static gather slots: the output, the weighted slots, indicators at the zero row
    template = np.array([one] + [r for i in range(q) for r in (i, zero)])[:, None, None] * m + cols
    read_at, write_at = [], []     # per stage, by code index: flat gather offset, scatter slot
    for slots in layout.indicator_slots:
        read_at.append((np.where(slots >= 0, row_of[slots], zero) - zero) * m)
        write_at.append(np.where(slots >= 0, row_of[slots], trash) * m)
    # operand buffers, refilled for every chunk
    w_buf = np.empty((_CHUNK, 2 * q + 1, 2, m))
    idx_buf = np.empty((_CHUNK, 2 * q + 1, 2, m), dtype=np.int64)
    ind_buf = np.empty((_CHUNK, q, 2, m), dtype=np.int64)

    def expand(a: int, b: int) -> tuple[np.ndarray, ...]:
        """Per-sample operands of samples a..b-1: gather slots and weights,
        each (b-a, 2q+1, 2, M), views of the weighted entries of the scaled
        and the unscaled conversion, each (b-a, q, M), and the scatter slots,
        (b-a, 2qM).

        In the gather, path 0 is the unscaled conversion and path 1 the scaled
        one; row 0 is the output, rows 1+2i and 2+2i stage i's weighted and
        indicator terms.
        """
        n = b - a
        w, idx, ind = w_buf[:n], idx_buf[:n], ind_buf[:n]
        codes = np.stack([s.codes_x[a:b] for s in streams] + [s.codes_ax[a:b] for s in streams],
                         axis=1).reshape(n, 2, m, q)
        w[:, 0] = np.stack([s.y_x[a:b] for s in streams] + [s.y_ax[a:b] for s in streams],
                           axis=1).reshape(n, 2, m)
        w[:, 1::2] = np.moveaxis(layout.weighted_entries(codes), -1, 1)
        w[:, 2::2] = 1.0

        idx[:] = template
        for i in range(q):
            idx[:, 2 + 2 * i] += read_at[i][codes[..., i]]
            ind[:, i] = write_at[i][codes[:, ::-1, :, i]] + cols      # scaled path first
        return idx, w, w[:, 1::2, 1], w[:, 1::2, 0], ind.reshape(n, -1)

    theta = np.zeros((d + 3, m))
    theta[one] = 1.0
    flat = theta.reshape(-1)
    weighted_rows = theta[:q]
    ta = np.zeros(m)
    updates = np.empty((q, 2, m))     # per stage: -g for the scaled path, g*c for the unscaled
    neg_g, gc = updates[:, 0], updates[:, 1]
    updates = updates.reshape(-1)
    checkset = set(checkpoints or [])
    snapshots: list[Snapshots] = [{} for _ in range(m)]

    def event(kk: int) -> None:
        """Guard check and checkpoint snapshots after sample kk."""
        if kk and (kk % GUARD_EVERY == 0 or kk == total):
            # negated comparison so that NaN fails the check too
            bad = np.flatnonzero(~(np.max(np.abs(theta[:d]), axis=0) <= guard) | ~np.isfinite(ta))
            if bad.size:
                j = int(bad[0])
                raise DivergenceError(f"member {j}: ||theta_nl||_inf exceeded guard {guard} "
                                      f"at sample {kk}", member=j, sample=kk)
        if kk in checkset:
            params = theta[row_of]
            for j in range(m):
                snapshots[j][kk] = (params[:, j].copy(), float(ta[j]))

    event(0)
    # sample counts after which to check, snapshot or look the step sizes up again
    h = schedule.halve_every
    stops = set(range(GUARD_EVERY, total + 1, GUARD_EVERY)) | {total} | checkset
    stops |= set(range(h, total, h)) if h > 0 else set()
    mu_nl, mu_alpha = schedule.mu_nl(0), schedule.mu_alpha(0)
    c = alpha_d + ta
    # a diverging member overflows before its next guard check, which reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, total, _CHUNK):
            for k, (gi, gw, wax, wx, si) in enumerate(zip(*expand(a, min(a + _CHUNK, total))), a):
                terms = flat[gi]
                terms *= gw
                # a reduction along the slow axis is a running sum in row order:
                # y, then per stage w * theta_f and theta_ind
                yx, yax = np.add.reduce(terms, axis=0)

                e_alpha = yax - c * yx          # c = alpha_d + ta, carried from the last sample
                ta += mu_alpha * yx * e_alpha

                c = alpha_d + ta
                g = mu_nl * (yax - c * yx)
                np.negative(g, out=neg_g)
                np.multiply(g, c, out=gc)
                weighted_rows -= g * wax - gc * wx
                np.add.at(flat, si, updates)
                if k + 1 in stops:
                    event(k + 1)
                    mu_nl, mu_alpha = schedule.mu_nl(k + 1), schedule.mu_alpha(k + 1)

    if not np.all(np.isfinite(theta[:d])) or not np.all(np.isfinite(ta)):
        raise NumericalError("non-finite adaptive parameters")
    last = max(total - 1, 0)
    return [(CalibrationState(theta_nl=theta[row_of, j], theta_alpha=float(ta[j]),
                              mu_nl=schedule.mu_nl(last), mu_alpha=schedule.mu_alpha(last),
                              k=total), snapshots[j])
            for j in range(m)]


def run_sgd(pairs: PairBatch, layout: CorrectionLayout, alpha_d: float,
            schedule: StepSchedule | None = None, guard: float = 1.0,
            checkpoints: Sequence[int] | None = None) -> tuple[CalibrationState, Snapshots]:
    """`run_sgd_population` for one converter: its final state and snapshots.

    At one member a numpy step costs several times a plain Python loop's
    per-sample time; pass many converters to `run_sgd_population` at once
    instead.
    """
    return run_sgd_population([SgdStream.from_pairs(pairs, layout)], layout, alpha_d,
                              schedule, guard, checkpoints)[0]


def step_size_bounds(layout: CorrectionLayout, y_max: float,
                     pairs: PairBatch | None = None, alpha_d: float = 1.0,
                     code_bound: float = 1.0) -> tuple[float, float]:
    """Step sizes below which one update step cannot grow its squared error.

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
        prefix = layout.gain_prefix_products()
        worst = 0.0
        for i in range(layout.q):
            w_max = code_bound * float(np.sum(prefix[: i + 1]))
            worst += ((1.0 + alpha_d) * w_max) ** 2 + 1.0 + alpha_d ** 2
    return mu_alpha_max, 2.0 / worst

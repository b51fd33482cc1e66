"""Correction-parameter estimators built on the homogeneity of the converter.

Every estimator works purely on output pairs (y_x, y_ax) and their selection
regressors; the test signal itself stays unknown. Three routes are provided:

* `hec_wiener`       -- linear Wiener solution assuming the digital scaling
                        factor alpha_d matches the analog one exactly.
* `blhec_wiener`     -- alternating Wiener solution that additionally
                        estimates a scalar correction theta_alpha for the
                        scaling factor mismatch (the error is linear in each
                        parameter block but bi-linear in both).
* `sgd_step/run_sgd` -- per-sample stochastic-gradient version of the same
                        bi-linear estimator, cheap enough for hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .correction import CorrectionLayout, SelectionBatch, selection_vector, selection_vectors
from .signals import PairBatch, SamplePair

__all__ = [
    "PairStatistics",
    "CalibrationState",
    "StepSchedule",
    "BlhecResult",
    "SgdTrajectory",
    "MultiplicationCount",
    "accumulate_statistics",
    "hec_wiener",
    "blhec_wiener",
    "sgd_step",
    "sgd_step_counted",
    "run_sgd",
    "step_size_bounds",
    "pair_arrays",
]

COND_LIMIT = 1e12


class RankDeficiencyError(RuntimeError):
    """The calibration input did not cover all stage codes."""


class SingularStatisticsError(RuntimeError):
    """The regressor covariance is numerically singular."""


class DivergenceError(RuntimeError):
    """The adaptive parameter vector left the configured guard region."""


class NumericalError(RuntimeError):
    """A non-finite intermediate value appeared."""


@dataclass
class PairStatistics:
    """Second-order sample statistics of a pair batch, with raw buffers.

    The raw regressor matrices are retained so that every statistic that
    depends on theta_alpha or theta_nl can be re-evaluated exactly instead of
    being tracked incrementally.
    """

    h_x: np.ndarray        # (N, D) dense regressors, unscaled conversions
    h_ax: np.ndarray       # (N, D) dense regressors, scaled conversions
    y_x: np.ndarray
    y_ax: np.ndarray
    alpha_d: float
    layout: CorrectionLayout

    @property
    def n(self) -> int:
        return self.y_x.size

    @property
    def dim(self) -> int:
        return self.layout.dim

    def delta_h(self, theta_alpha: float = 0.0) -> np.ndarray:
        c = self.alpha_d + theta_alpha
        return self.h_ax - c * self.h_x

    def delta_y(self, theta_alpha: float = 0.0) -> np.ndarray:
        c = self.alpha_d + theta_alpha
        return self.y_ax - c * self.y_x

    def r_hh(self, theta_alpha: float = 0.0) -> np.ndarray:
        dh = self.delta_h(theta_alpha)
        return dh.T @ dh / self.n

    def r_hy(self, theta_alpha: float = 0.0) -> np.ndarray:
        dh = self.delta_h(theta_alpha)
        return dh.T @ self.delta_y(theta_alpha) / self.n

    def corrected_outputs(self, theta_nl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.y_x + self.h_x @ theta_nl, self.y_ax + self.h_ax @ theta_nl

    def r_yy(self, theta_nl: np.ndarray) -> float:
        yx, _ = self.corrected_outputs(theta_nl)
        return float(np.mean(yx ** 2))

    def r_yya(self, theta_nl: np.ndarray) -> float:
        yx, yax = self.corrected_outputs(theta_nl)
        return float(np.mean(yx * yax))

    def errors(self, theta_alpha: float, theta_nl: np.ndarray) -> np.ndarray:
        """Per-sample homogeneity errors at the given parameters."""
        yx, yax = self.corrected_outputs(theta_nl)
        return yax - (self.alpha_d + theta_alpha) * yx

    def mse(self, theta_alpha: float, theta_nl: np.ndarray) -> float:
        return float(np.mean(self.errors(theta_alpha, theta_nl) ** 2))


def accumulate_statistics(pairs: PairBatch, layout: CorrectionLayout, alpha_d: float,
                          n: int | None = None) -> PairStatistics:
    """Densify the first n pairs into sample statistics buffers.

    Raises RankDeficiencyError when the input failed to exercise every
    regressor direction (e.g. a constant input selecting one code forever).
    """
    if n is None:
        n = len(pairs)
    if n > len(pairs):
        raise ValueError(f"requested {n} pairs but only {len(pairs)} available")
    if n < layout.dim:
        raise ValueError(f"need at least D={layout.dim} pairs, got {n}")
    batch = pairs.head(n)

    h_x = selection_vectors(batch.unscaled, layout).dense()
    h_ax = selection_vectors(batch.scaled, layout).dense()
    stats = PairStatistics(h_x=h_x, h_ax=h_ax, y_x=batch.unscaled.y.copy(),
                           y_ax=batch.scaled.y.copy(), alpha_d=alpha_d, layout=layout)

    rank = np.linalg.matrix_rank(stats.r_hh(0.0))
    if rank < layout.dim:
        raise RankDeficiencyError(
            f"regressor covariance rank {rank} < {layout.dim}; input does not cover all codes"
        )
    return stats


def _solve_spd(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r x = b for symmetric positive-definite r, with a condition check."""
    cond = np.linalg.cond(r)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularStatisticsError(f"covariance condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise SingularStatisticsError(f"covariance not positive definite: {exc}") from exc
    return np.linalg.solve(r, b)


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


def blhec_wiener(pairs: PairBatch | PairStatistics, layout: CorrectionLayout | None = None,
                 alpha_d: float | None = None, max_iterations: int = 50,
                 tolerance: float = 1e-7, n: int | None = None) -> BlhecResult:
    """Alternating Wiener solution of the bi-linear homogeneity cost.

    Starting from theta_nl = 0, each iteration first updates the scalar

        theta_alpha = r_yya(theta_nl) / r_yy(theta_nl) - alpha_d

    and then re-solves theta_nl = -R_hh(theta_alpha)^{-1} r_hy(theta_alpha).
    Iteration stops when theta_alpha moves less than `tolerance`. If the
    covariance turns singular mid-iteration, the previous parameters are
    returned with a diagnostic instead of silently regularizing.
    """
    if isinstance(pairs, PairStatistics):
        stats = pairs
    else:
        if layout is None or alpha_d is None:
            raise ValueError("layout and alpha_d are required when passing a pair batch")
        stats = accumulate_statistics(pairs, layout, alpha_d, n=n)

    theta_nl = np.zeros(stats.dim)
    theta_alpha = 0.0
    mse: list[float] = []
    mse_se: list[float] = []
    alphas: list[float] = []
    converged = False
    diagnostic = None

    m = 0
    for m in range(1, max_iterations + 1):
        prev_alpha = theta_alpha
        r_yy = stats.r_yy(theta_nl)
        if r_yy <= 0.0 or not math.isfinite(r_yy):
            raise NumericalError(f"non-positive output power {r_yy!r}")
        theta_alpha = stats.r_yya(theta_nl) / r_yy - stats.alpha_d

        try:
            theta_nl = -_solve_spd(stats.r_hh(theta_alpha), stats.r_hy(theta_alpha))
        except SingularStatisticsError as exc:
            if m == 1:
                raise
            theta_alpha = prev_alpha
            diagnostic = f"iteration {m}: {exc}; kept previous parameters"
            break
        if not np.all(np.isfinite(theta_nl)) or not math.isfinite(theta_alpha):
            raise NumericalError("non-finite calibration parameters")

        err = stats.errors(theta_alpha, theta_nl)
        sq = err ** 2
        mse.append(float(np.mean(sq)))
        mse_se.append(float(np.std(sq) / math.sqrt(sq.size)))
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


def _pair_scalars(pair: SamplePair, layout: CorrectionLayout):
    hx = selection_vector(pair.unscaled, layout)
    hax = selection_vector(pair.scaled, layout)
    return pair.unscaled.output, pair.scaled.output, hx, hax


def sgd_step(state: CalibrationState, pair: SamplePair, layout: CorrectionLayout,
             alpha_d: float) -> CalibrationState:
    """One alternating stochastic-gradient update.

    The scalar parameter moves first using its apriori error; the vector
    update then uses the *fresh* theta_alpha in both its regressor and its
    apriori error. Only the regressor's nonzero slots of theta_nl change.
    """
    y_x, y_ax, hx, hax = _pair_scalars(pair, layout)
    theta = state.theta_nl.copy()

    yx_hat = y_x + hx.dot(theta)
    yax_hat = y_ax + hax.dot(theta)

    e_alpha = yax_hat - (alpha_d + state.theta_alpha) * yx_hat
    theta_alpha = state.theta_alpha + state.mu_alpha * yx_hat * e_alpha

    c = alpha_d + theta_alpha
    e_nl = yax_hat - c * yx_hat
    g = state.mu_nl * e_nl
    for pos, val in zip(hax.positions, hax.values):
        theta[pos] -= g * val
    for pos, val in zip(hx.positions, hx.values):
        theta[pos] += g * c * val

    return replace(state, theta_nl=theta, theta_alpha=theta_alpha, k=state.k + 1)


@dataclass
class MultiplicationCount:
    nl: int = 0
    alpha: int = 0


def sgd_step_counted(state: CalibrationState, pair: SamplePair, layout: CorrectionLayout,
                     alpha_d: float) -> tuple[CalibrationState, MultiplicationCount]:
    """`sgd_step` with an explicit multiplication budget, hardware-style.

    Counting conventions: step sizes are powers of two, so scaling by mu is a
    shift; products with the 0/1 indicator entries of the regressors are
    wiring, not multiplications; the gain-weighted regressor entries are
    partial recombination sums the digital back end already provides. Under
    these rules the vector path spends exactly one multiplication per
    parameter slot (dense multiply-accumulate of the update), and the scalar
    path adds three: forming its apriori error, the gradient product, and
    re-scaling the corrected output with the updated factor.
    """
    count = MultiplicationCount()
    y_x, y_ax, hx, hax = _pair_scalars(pair, layout)
    theta = state.theta_nl.copy()
    d = layout.dim

    # corrected outputs; indicator slots add for free, weighted slots are sums
    # the recombination logic already produces
    yx_hat = y_x + hx.dot(theta)
    yax_hat = y_ax + hax.dot(theta)

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
    dh = hax.dense() - c * hx.dense()
    g = state.mu_nl * e_nl                                       # shift
    for pos in range(d):
        theta[pos] -= g * dh[pos]
        count.nl += 1

    new_state = replace(state, theta_nl=theta, theta_alpha=theta_alpha, k=state.k + 1)
    return new_state, count


@dataclass
class SgdTrajectory:
    """Decimated log of an adaptive run."""

    ks: list[int] = field(default_factory=list)
    error_norm: list[float] = field(default_factory=list)
    theta_alpha: list[float] = field(default_factory=list)
    checkpoints: dict[int, tuple[np.ndarray, float]] = field(default_factory=dict)


def pair_arrays(pairs: PairBatch, layout: CorrectionLayout):
    """Compact per-sample arrays for the fast adaptive loop."""
    sx = selection_vectors(pairs.unscaled, layout)
    sax = selection_vectors(pairs.scaled, layout)
    return (
        pairs.unscaled.y, pairs.scaled.y,
        sx.weighted, sx.indicator_pos,
        sax.weighted, sax.indicator_pos,
    )


def run_sgd(pairs: PairBatch, layout: CorrectionLayout, alpha_d: float,
            schedule: StepSchedule | None = None, guard: float = 1.0,
            reference: np.ndarray | None = None, log_every: int = 200,
            checkpoints: list[int] | None = None) -> tuple[CalibrationState, SgdTrajectory]:
    """Consume sample pairs in order and adapt the correction parameters.

    Logs ||theta_nl - reference||_2 every `log_every` samples when a Wiener
    reference is supplied, snapshots the parameters at the requested sample
    counts, and aborts with DivergenceError once ||theta_nl||_inf exceeds
    `guard`.
    """
    schedule = schedule or StepSchedule()
    n = len(pairs)
    y_x, y_ax, w_x, ip_x, w_ax, ip_ax = pair_arrays(pairs, layout)

    q = layout.q
    first_pos = [layout.weighted_position(i) for i in range(q)]
    # plain python scalars keep the sequential loop cheap
    y_x = y_x.tolist()
    y_ax = y_ax.tolist()
    w_x = w_x.tolist()
    w_ax = w_ax.tolist()
    ip_x = ip_x.tolist()
    ip_ax = ip_ax.tolist()

    theta = [0.0] * layout.dim
    theta_alpha = 0.0
    traj = SgdTrajectory()
    checkset = set(checkpoints or [])
    ref = reference.tolist() if reference is not None else None

    def log(k: int) -> None:
        traj.ks.append(k)
        traj.theta_alpha.append(theta_alpha)
        if ref is not None:
            traj.error_norm.append(math.sqrt(sum((a - b) ** 2 for a, b in zip(theta, ref))))

    log(0)
    if 0 in checkset:
        traj.checkpoints[0] = (np.array(theta), theta_alpha)

    for k in range(n):
        mu_nl = schedule.mu_nl(k)
        mu_alpha = schedule.mu_alpha(k)
        wxk, waxk, ixk, iaxk = w_x[k], w_ax[k], ip_x[k], ip_ax[k]

        yx_hat = y_x[k]
        yax_hat = y_ax[k]
        for i in range(q):
            f = first_pos[i]
            yx_hat += wxk[i] * theta[f]
            yax_hat += waxk[i] * theta[f]
            if ixk[i] >= 0:
                yx_hat += theta[ixk[i]]
            if iaxk[i] >= 0:
                yax_hat += theta[iaxk[i]]

        e_alpha = yax_hat - (alpha_d + theta_alpha) * yx_hat
        theta_alpha += mu_alpha * yx_hat * e_alpha

        c = alpha_d + theta_alpha
        g = mu_nl * (yax_hat - c * yx_hat)
        gc = g * c
        for i in range(q):
            f = first_pos[i]
            theta[f] -= g * waxk[i] - gc * wxk[i]
            if iaxk[i] >= 0:
                theta[iaxk[i]] -= g
            if ixk[i] >= 0:
                theta[ixk[i]] += gc

        kk = k + 1
        if kk % log_every == 0 or kk == n:
            peak = max(abs(t) for t in theta)
            if peak > guard or not math.isfinite(peak) or not math.isfinite(theta_alpha):
                raise DivergenceError(f"||theta_nl||_inf exceeded guard {guard} at sample {kk}")
            log(kk)
        if kk in checkset:
            traj.checkpoints[kk] = (np.array(theta), theta_alpha)

    state = CalibrationState(theta_nl=np.array(theta), theta_alpha=theta_alpha,
                             mu_nl=schedule.mu_nl(max(n - 1, 0)),
                             mu_alpha=schedule.mu_alpha(max(n - 1, 0)), k=n)
    if not np.all(np.isfinite(state.theta_nl)) or not math.isfinite(theta_alpha):
        raise NumericalError("non-finite adaptive parameters")
    return state, traj


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

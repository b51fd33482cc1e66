"""Shared test fixtures and independent oracle implementations.

Everything here deliberately re-derives results from first principles (naive
loops, closed-form least squares) so the production code is checked against
an independent route.
"""

import contextlib
import hashlib
import io
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import pipecal
from pipecal.adc import (
    AdcInstance,
    ConversionBatch,
    MismatchSet,
    StageSpec,
    convert_many,
    flash_stage_spec,
)
from pipecal.correction import CorrectionLayout, selection_vectors
from pipecal.signals import ToneSpec, gen_tones


def toy_stage(levels=3, gain=2.0, span=0.5):
    """Small quantizing stage: `levels` uniform codes at +-span, midpoint thresholds."""
    pitch = 2.0 * span / (levels - 1)
    codes = tuple(-span + j * pitch for j in range(levels))
    thresholds = tuple((codes[j] + codes[j + 1]) / 2.0 for j in range(levels - 1))
    return StageSpec(codes=codes, thresholds=thresholds, gain=gain)


def toy_adc(zetas=(0.0, 0.0), dac_errors=None, flash_bits=None, levels=3, gain=2.0):
    """n-stage toy converter; flash_bits=None uses the exact analysis back end."""
    n = len(zetas)
    stage = toy_stage(levels=levels, gain=gain)
    if dac_errors is None:
        dac_errors = tuple(tuple(0.0 for _ in range(levels)) for _ in range(n))
    else:
        dac_errors = tuple(tuple(e) for e in dac_errors)
    flash = flash_stage_spec(flash_bits) if flash_bits is not None else None
    return AdcInstance(stages=tuple(stage for _ in range(n)), flash=flash,
                       mismatches=MismatchSet(tuple(zetas), dac_errors),
                       resolution_bits=13)


def random_toy(rng, flash_bits=None, zeta_scale=0.02, dac_scale=0.004):
    zetas = rng.uniform(-zeta_scale, zeta_scale, 2)
    dac = rng.uniform(-dac_scale, dac_scale, (2, 3))
    return toy_adc(zetas=tuple(zetas), dac_errors=dac, flash_bits=flash_bits)


def searchsorted_convert(adc, x_in):
    """Oracle for the compiled `convert_many`: the pipeline recursion in numpy,
    one whole-vector pass per stage, with a `searchsorted` quantizer,
    row-major (N, n_stages+1) stores and `j - 1` lookups into the stage
    tuples. y is summed from the stored code values column by column, in
    `convert_many`'s fixed order (stage 0 first, the back end last); a BLAS
    product of the value matrix would round differently, and by kernel, at a
    gain that is not a power of two."""
    x = np.asarray(x_in, dtype=float)
    n = adc.n_stages
    index = np.zeros((x.size, n + 1), dtype=np.int64)
    value = np.zeros((x.size, n + 1), dtype=float)

    def quantize(stage, residue):
        j = np.searchsorted(np.asarray(stage.thresholds), residue, side="left") + 1
        return j, np.asarray(stage.codes)[j - 1]

    residue = x.copy()
    for i, stage in enumerate(adc.stages):
        j, code = quantize(stage, residue)
        index[:, i] = j
        value[:, i] = code
        eda = np.asarray(adc.mismatches.dac_errors[i])[j - 1]
        true_gain = stage.gain * (1.0 + adc.mismatches.gain_mismatch[i])
        residue = true_gain * (residue - code - eda)
    if adc.flash is None:
        value[:, n] = residue
    else:
        index[:, n], value[:, n] = quantize(adc.flash, residue)
    y = np.zeros(x.size)
    for w, column in zip(adc.recombination_weights(), value.T):
        y += w * column
    return ConversionBatch(y=y, index=index)


class RecordMismatchError(RuntimeError):
    """A conversion batch is inconsistent with the instance that allegedly produced it."""


def reference_output(adc, x_in, batch, tolerance=1e-9):
    """Oracle for `convert_many`: the closed form of each row's output, given
    the inputs x_in the batch converted (a batch holds no input).

    Evaluates y = beta*x_in - sum_i w_i^T phi_0,i + q_x, where beta folds all
    gain mismatches, phi_0,i collects each stage's code- and DAC-error terms,
    and q_x is the weighted back-end digitization error. Raises
    RecordMismatchError if any row's output disagrees with the closed form
    beyond `tolerance` [V]; returns the closed-form outputs.
    """
    n = adc.n_stages
    zetas = adc.mismatches.gain_mismatch
    weights = adc.recombination_weights()

    # tail products T_i = prod_{l=i..n} (1 + zeta_l)
    tails = [1.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        tails[i] = tails[i + 1] * (1.0 + zetas[i])
    beta = tails[0]

    nonideal = np.zeros(len(batch))
    # back-end digitization error from the recorded selections
    x_in = np.asarray(x_in, dtype=float)
    residue = x_in
    for i, stage in enumerate(adc.stages):
        d = stage.code_table[batch.index[:, i]]
        eda = adc.mismatches.dac_tables[i][batch.index[:, i]]
        nonideal += weights[i] * ((tails[i] - 1.0) * d + tails[i] * eda)
        true_gain = stage.gain * (1.0 + zetas[i])
        residue = true_gain * (residue - d - eda)
    back_end = residue if adc.flash is None else adc.flash.code_table[batch.index[:, n]]
    q_x = -(residue - back_end) * weights[n]

    y_ref = beta * x_in - nonideal + q_x
    bad = np.flatnonzero(~(np.abs(y_ref - batch.y) <= tolerance))
    if bad.size:
        k = bad[0]
        raise RecordMismatchError(
            f"row {k}: output {batch.y[k]!r} deviates from closed form {y_ref[k]!r}"
        )
    return y_ref


def dense_ramp(n=4001, lo=-0.999, hi=0.999):
    return np.linspace(lo, hi, n)


def gen_impure_two_tone(tones, harmonic_levels_dbc, quantizer_bits, n):
    """Fixture: an impure on-chip source, two tones plus their products of order 2, 3
    and 5 at harmonic_levels_dbc (dBc of the stronger tone, aliased into [0, pi]),
    re-quantized to quantizer_bits over [-1, 1]; `gen_tones` with neither."""
    f1, f2 = tones[0].omega, tones[1].omega
    carrier = max(t.amplitude for t in tones)
    product_freqs = {2: [2 * f1, 2 * f2, f1 + f2, abs(f2 - f1)],
                     3: [2 * f1 - f2, 2 * f2 - f1, 3 * f1, 3 * f2],
                     5: [3 * f1 - 2 * f2, 3 * f2 - 2 * f1]}
    extra = []
    for order, level_dbc in (harmonic_levels_dbc or {}).items():
        if order not in product_freqs:
            raise ValueError(f"unsupported product order {order}")
        if level_dbc is None or math.isinf(level_dbc):
            continue
        amp = carrier * 10.0 ** (level_dbc / 20.0)
        for f in product_freqs[order]:
            w = f % (2.0 * math.pi)
            w = 2.0 * math.pi - w if w > math.pi else w
            if 0.0 < w < math.pi:
                extra.append(ToneSpec(omega=w, amplitude=min(amp, 1.0), phase=0.0))
    x = gen_tones(list(tones), n)
    if extra:
        x = x + gen_tones(extra, n)
    if quantizer_bits is not None:
        step = 2.0 / (2 ** quantizer_bits)
        x = np.clip(np.round(x / step) * step, -1.0, 1.0)
    return x


def ls_fit(adc, layout, x):
    """Oracle: least-squares fit of output = beta*x - h.theta on known inputs."""
    batch = convert_many(adc, np.asarray(x))
    h = selection_vectors(batch, layout).dense()
    design = np.column_stack([np.asarray(x), -h])
    coef, *_ = np.linalg.lstsq(design, batch.y, rcond=None)
    return float(coef[0]), coef[1:]


class RowSelection:
    """Oracle for `selection_vectors`: the regressors built row by row, one row
    per conversion, from the layout's `weighted_entries` and `code_slots`, with
    the same `dense` and `dot`, and each row's `weighted` and `indicator_pos`
    (the package's `table_weighted[keys]` and `table_slots[keys]`); what the
    package did before it read each conversion's row from a code-combination table."""

    def __init__(self, batch, layout):
        codes = batch.index[:, :layout.q]
        self.layout = layout
        self.weighted = layout.weighted_entries(codes)
        self.indicator_pos = np.empty(codes.shape, dtype=np.int64)
        for i, slots in enumerate(layout.code_slots):
            self.indicator_pos[:, i] = slots[codes[:, i]]

    def dense(self):
        n, layout = len(self.weighted), self.layout
        h = np.zeros((n, layout.dim))
        h[:, layout.weighted_slots] = self.weighted
        rows = np.arange(n)
        for i in range(layout.q):
            pos = self.indicator_pos[:, i]
            mask = pos >= 0
            h[rows[mask], pos[mask]] = 1.0
        return h

    def dot(self, theta):
        out = np.zeros(len(self.weighted))
        padded = np.concatenate([theta, [0.0]])   # slot -1 reads as 0
        for i, slot in enumerate(self.layout.weighted_slots):
            out += self.weighted[:, i] * theta[slot]
            out += padded[self.indicator_pos[:, i]]
        return out


def naive_selection_dense(row, layout):
    """Direct, loop-based regressor construction straight from the definition,
    for the one conversion of a one-row batch; code values come from the
    stages' `codes` tuples."""
    h = np.zeros(layout.dim)
    pos = 0
    prefix = [1.0]
    for g in layout.gains[:-1]:
        prefix.append(prefix[-1] * g)
    for i, p in enumerate(layout.sizes):
        weighted = 0.0
        for l in range(i + 1):
            weighted += layout.stages[l].codes[row.index[0, l] - 1] * prefix[i - l]
        h[pos] = weighted
        j = row.index[0, i]
        last = layout.q - 1
        if j != 1 and not (i < last and j == p):
            h[pos + j - 1] = 1.0
        pos += (p - 1) if i < last else p
    return h


def unreduced_transformed_matrix(adc, layout, x):
    """Stacked transformed selection vectors before the rank reduction."""
    batch = convert_many(adc, np.asarray(x))
    sel = selection_vectors(batch, layout)
    n = len(batch)
    cols = sum(layout.sizes)
    ht = np.zeros((n, cols))
    off = 0
    for i, p in enumerate(layout.sizes):
        ht[:, off] = sel.table_weighted[sel.keys, i]
        for code in range(2, p + 1):
            ht[:, off + code - 1] = batch.index[:, i] == code
        off += p
    return batch, ht


def fold_eliminated_entries(theta_tilde, sizes):
    """Offset-folding reduction: drop each non-last stage's last entry and add
    its value to the next stage's per-code entries.

    The carry lands on the indicator slots only; the first (code-weighting)
    slot is dimensionless and cannot absorb a voltage offset. The fold
    therefore preserves predictions up to a constant on samples where no
    stage sits on an eliminated or absorbed code.
    """
    theta = []
    carry = 0.0
    off = 0
    q = len(sizes)
    for i, p in enumerate(sizes):
        block = np.asarray(theta_tilde[off:off + p], dtype=float).copy()
        block[1:] += carry
        carry = float(theta_tilde[off + p - 1])
        keep = p - 1 if i < q - 1 else p
        theta.extend(block[:keep])
        off += p
    return np.array(theta)


def total_gain(adc):
    """Composite scaling factor of the input term: prod(1 + zeta_i)."""
    beta = 1.0
    for z in adc.mismatches.gain_mismatch:
        beta *= 1.0 + z
    return beta


class DenseStatistics:
    """Oracle buffers of a pair batch, what the dense formulas below read: both
    sides' outputs and (N, D) dense regressors, from `selection_vectors(...).dense()`."""

    def __init__(self, pairs, layout, alpha_d):
        self.alpha_d, self.n, self.dim = alpha_d, len(pairs), layout.dim
        self.y_ax, self.y_x = pairs.scaled.y, pairs.unscaled.y
        self.h_ax = selection_vectors(pairs.scaled, layout).dense()
        self.h_x = selection_vectors(pairs.unscaled, layout).dense()


def delta_h(dense, theta_alpha=0.0):
    """Dense homogeneity regressors h_ax - (alpha_d + theta_alpha) h_x, (N, D)."""
    return dense.h_ax - (dense.alpha_d + theta_alpha) * dense.h_x


def dense_r_hh(dense, theta_alpha=0.0):
    """R_hh from the dense regressor buffers: mean of dh dh^T."""
    dh = delta_h(dense, theta_alpha)
    return dh.T @ dh / dense.n


def dense_r_hy(dense, theta_alpha=0.0):
    """r_hy from the dense buffers: mean of dh * dy."""
    c = dense.alpha_d + theta_alpha
    return delta_h(dense, theta_alpha).T @ (dense.y_ax - c * dense.y_x) / dense.n


def dense_corrected(dense, theta_nl):
    return dense.y_x + dense.h_x @ theta_nl, dense.y_ax + dense.h_ax @ theta_nl


def dense_r_yy(dense, theta_nl):
    yx, _ = dense_corrected(dense, theta_nl)
    return float(np.mean(yx ** 2))


def dense_r_yya(dense, theta_nl):
    yx, yax = dense_corrected(dense, theta_nl)
    return float(np.mean(yx * yax))


def dense_mse(dense, theta_alpha, theta_nl):
    yx, yax = dense_corrected(dense, theta_nl)
    return float(np.mean((yax - (dense.alpha_d + theta_alpha) * yx) ** 2))


def homogeneity_gram(stats, theta_alpha=0.0):
    """M(c) at c = alpha_d + theta_alpha, the Gram matrix of [dy, dh], from the
    statistics' blocks: S_AA - c (S_AB + S_BA) + c^2 S_BB. R_hh(c) is its lower
    right D x D block and r_hy(c) the column left of it."""
    c = stats.alpha_d + theta_alpha
    return stats.s_aa - c * (stats.s_ab + stats.s_ab.T) + (c * c) * stats.s_bb


def gram_mse(stats, theta_alpha, theta_nl):
    """The homogeneity MSE as the quadratic form u^T M(c) u, u = [1, theta_nl],
    of the Gram matrices alone: O(D^2) whatever N is."""
    u = np.concatenate(([1.0], theta_nl))
    return float(u @ homogeneity_gram(stats, theta_alpha) @ u)


def gram_lu_solve(stats, theta_alpha):
    """theta_nl = -R_hh^-1 r_hy at theta_alpha by an LU solve of M(c)'s blocks."""
    gram = homogeneity_gram(stats, theta_alpha)
    return -np.linalg.solve(gram[1:, 1:], gram[1:, 0])


def _table_entries(sel, layout, row):
    """Table row `row`'s nonzero regressor entries as (slot, value), stage by
    stage the weighted entry, then the indicator if any."""
    out = []
    for i, slot in enumerate(layout.weighted_slots.tolist()):
        out.append((slot, float(sel.table_weighted[row, i])))
        indicator = int(sel.table_slots[row, i])
        if indicator >= 0:
            out.append((indicator, 1.0))
    return out


def gram_oracle(stats):
    """Oracle for `PairStatistics.gram` and S_AB + S_BA: the Gram matrix of
    [y_ax, h_ax, y_x, h_x] over n, summed in plain Python in the compiled
    `pipecal_gram`'s order (see kernels.c): y.y pair by pair; a same-side
    entry key by key as (T[r,s] * T[r,t]) * count; a y.h entry key by key of
    h's side as ysum * T[r,s]; a cross entry by distinct key pairs, scaled key
    ascending, then unscaled keys in order of first appearance."""
    layout, n, d = stats.layout, stats.n, stats.dim
    m, b = 2 * d + 2, d + 1
    g = [[0.0] * m for _ in range(m)]
    y = (stats.y_ax.tolist(), stats.y_x.tolist())
    sides = (stats.sel_ax, stats.sel_x)
    keys = [sel.keys.tolist() for sel in sides]
    for k in range(n):
        g[0][0] += y[0][k] * y[0][k]
        g[0][b] += y[0][k] * y[1][k]
        g[b][b] += y[1][k] * y[1][k]
    for side, sel in enumerate(sides):
        off, rows = 1 if side == 0 else b + 1, len(sel.table_weighted)
        count, sum_ax, sum_x = [0.0] * rows, [0.0] * rows, [0.0] * rows
        for k in range(n):
            r = keys[side][k]
            count[r] += 1.0
            sum_ax[r] += y[0][k]
            sum_x[r] += y[1][k]
        for r in range(rows):
            if count[r] == 0.0:
                continue
            entries = _table_entries(sel, layout, r)
            for s, v in entries:
                u = off + s
                g[0][u] += sum_ax[r] * v
                if side == 0:
                    g[u][b] += sum_x[r] * v
                else:
                    g[b][u] += sum_x[r] * v
                for t, w in entries:
                    if s <= t:
                        g[u][off + t] += (v * w) * count[r]
    buckets = {}
    for a, x in zip(*keys):
        tally = buckets.setdefault(a, {})
        tally[x] = tally.get(x, 0.0) + 1.0
    for a in sorted(buckets):
        for x, times in buckets[a].items():
            for s, v in _table_entries(sides[0], layout, a):
                for t, w in _table_entries(sides[1], layout, x):
                    g[1 + s][b + 1 + t] += (v * w) * times
    for i in range(m):
        for j in range(i, m):
            g[i][j] /= n
            g[j][i] = g[i][j]
    gram = np.array(g)
    return gram, gram[:b, b:] + gram[:b, b:].T


def cholesky_solve_oracle(r, rhs):
    """Oracle for the kernels' Cholesky solve of r x = rhs, in plain Python in
    its order: L row by row, each sum from r's lower-triangle entry down over k
    ascending, then L v = rhs and L^T x = v. Raises ValueError at a pivot that
    is not positive."""
    r, rhs = np.asarray(r, dtype=float).tolist(), np.asarray(rhs, dtype=float).tolist()
    d = len(rhs)
    low = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            t = r[i][j]
            for k in range(j):
                t -= low[i][k] * low[j][k]
            if i > j:
                low[i][j] = t / low[j][j]
            elif t > 0.0:
                low[i][i] = math.sqrt(t)
            else:
                raise ValueError(f"pivot {i} is {t!r}")
    v = [0.0] * d
    for i in range(d):
        t = rhs[i]
        for k in range(i):
            t -= low[i][k] * v[k]
        v[i] = t / low[i][i]
    x = [0.0] * d
    for i in range(d - 1, -1, -1):
        t = v[i]
        for k in range(i + 1, d):
            t -= low[k][i] * x[k]
        x[i] = t / low[i][i]
    return np.array(x)


def wiener_solve_oracle(stats, theta_alpha):
    """Oracle for `PairStatistics.solve`, from the statistics' `gram`, in plain
    Python in the kernel's order: M(c) = (S_AA - c (S_AB + S_AB^T)) + (c c) S_BB
    entry by entry, theta = -x of `cholesky_solve_oracle`, T theta
    per table row of each side, then per pair e = (y_ax + p_ax) - c (y_x + p_x),
    mse = sum(e^2) / n and stderr = sqrt(sum((e^2 - mse)^2)) / n."""
    c, d, n = stats.alpha_d + theta_alpha, stats.dim, stats.n
    b = d + 1
    g = stats.gram.tolist()

    def entry(i, j):
        return (g[i][j] - c * (g[i][b + j] + g[j][b + i])) + (c * c) * g[b + i][b + j]

    r = [[entry(i, j) for j in range(1, b)] for i in range(1, b)]
    theta = (-cholesky_solve_oracle(r, [entry(i, 0) for i in range(1, b)])).tolist()
    p = []
    for sel in (stats.sel_ax, stats.sel_x):
        row_dot = []
        for row in range(len(sel.table_weighted)):
            t = 0.0
            for i, slot in enumerate(stats.layout.weighted_slots.tolist()):
                t += float(sel.table_weighted[row, i]) * theta[slot]
                if sel.table_slots[row, i] >= 0:
                    t += theta[int(sel.table_slots[row, i])]
            row_dot.append(t)
        p.append(row_dot)
    y_ax, y_x = stats.y_ax.tolist(), stats.y_x.tolist()
    keys_ax, keys_x = stats.sel_ax.keys.tolist(), stats.sel_x.keys.tolist()
    sq = [((y_ax[k] + p[0][keys_ax[k]]) - c * (y_x[k] + p[1][keys_x[k]])) ** 2 for k in range(n)]
    total = 0.0
    for e2 in sq:
        total += e2
    mse = total / n
    dev = 0.0
    for e2 in sq:
        dev += (e2 - mse) * (e2 - mse)
    return np.array(theta), mse, math.sqrt(dev) / n


def output_powers_oracle(stats, theta_nl):
    """Oracle for the output powers (r_yy, r_yya) that `PairStatistics.solve`
    returns: u^T S_BB u and u^T S_AB u at u = [1, theta_nl], each
    sum_i u_i (sum_j S[i, j] u_j) from 0.0 in index order."""
    g, b = stats.gram.tolist(), stats.dim + 1
    u = [1.0] + np.asarray(theta_nl, dtype=float).tolist()
    powers = []
    for rows, cols in ((b, b), (0, b)):
        outer = 0.0
        for i in range(b):
            inner = 0.0
            for j in range(b):
                inner += g[rows + i][cols + j] * u[j]
            outer += u[i] * inner
        powers.append(outer)
    return tuple(powers)


def second_blas_kernel_missing() -> str:
    """Why OPENBLAS_CORETYPE cannot select a second BLAS kernel for numpy
    here; empty when it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "this numpy does not report its BLAS"
    if "openblas" not in blas.get("name", "").lower():
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS: there is no second kernel"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy's OpenBLAS is not a DYNAMIC_ARCH build: it has no second kernel"
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the Sandybridge kernel is x86-64's, and this is {platform.machine()}"
    return ""


def under_two_blas_kernels(*args):
    """(exit code, stdout, stderr) of `python *args` under the default BLAS kernel and
    Sandybridge's; OpenBLAS reads OPENBLAS_CORETYPE once, at load, so one process each."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(pipecal.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    procs = [subprocess.Popen([sys.executable, *args], env={**env, **extra},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for extra in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"})]
    outs = [proc.communicate(timeout=120) for proc in procs]
    return [(proc.returncode, *out) for proc, out in zip(procs, outs)]


def dense_solve_spd(r, b, cond_limit=1e12):
    """Condition check by SVD, definiteness by Cholesky, then an LU solve."""
    from pipecal.calibration import SingularStatisticsError

    cond = np.linalg.cond(r)
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularStatisticsError(f"condition number {cond:.3e}")
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise SingularStatisticsError(str(exc)) from exc
    return np.linalg.solve(r, b)


def dense_blhec(dense, max_iterations=50, tolerance=1e-7):
    """Oracle: the safeguarded BL-HEC solve re-evaluated from the dense
    buffers (`DenseStatistics`) at every iteration.

    Same map, extrapolation schedule, acceptance rule, stop rule and
    singular-matrix fallback as `blhec_wiener`; returns (theta_nl,
    theta_alpha, accepted mse trace, solves, converged).
    """
    from pipecal.calibration import SingularStatisticsError

    def solve(theta_alpha):
        return -dense_solve_spd(dense_r_hh(dense, theta_alpha), dense_r_hy(dense, theta_alpha))

    theta_nl = np.zeros(dense.dim)
    theta_alpha = 0.0
    mse = []
    converged = False
    plain = []          # plain iterates since the last accepted extrapolation
    pending = 0         # plain iterations since the last extrapolation attempt
    m = 0
    while m < max_iterations:
        m += 1
        prev_alpha = theta_alpha
        if pending >= 2 and len(plain) >= 3:
            pending = 0
            a0, a1, a2 = plain[-3:]
            if a2 - 2.0 * a1 + a0 != 0.0:
                candidate = a2 - (a2 - a1) ** 2 / (a2 - 2.0 * a1 + a0)
                try:
                    nl = solve(candidate)
                except SingularStatisticsError:
                    continue
                cost = dense_mse(dense, candidate, nl)
                if cost <= mse[-1]:
                    theta_alpha, theta_nl = candidate, nl
                    mse.append(cost)
                    plain = [candidate]
                    if abs(theta_alpha - prev_alpha) < tolerance:
                        converged = True
                        break
                continue
        theta_alpha = dense_r_yya(dense, theta_nl) / dense_r_yy(dense, theta_nl) - dense.alpha_d
        try:
            theta_nl = solve(theta_alpha)
        except SingularStatisticsError:
            if m == 1:
                raise
            theta_alpha = prev_alpha
            break
        mse.append(dense_mse(dense, theta_alpha, theta_nl))
        plain.append(theta_alpha)
        pending += 1
        if m > 1 and abs(theta_alpha - prev_alpha) < tolerance:
            converged = True
            break
    return theta_nl, theta_alpha, mse, m, converged


def plain_blhec(stats, tolerance=1e-12, max_iterations=100000):
    """Oracle: the paper's plain theta_alpha / theta_nl alternation, without
    extrapolation, run until theta_alpha moves less than `tolerance`, with
    LU solves of the Gram-matrix statistics. Returns (theta_nl, theta_alpha,
    iterations); raises AssertionError if the cap is reached."""
    theta_nl = np.zeros(stats.dim)
    theta_alpha = 0.0
    for m in range(1, max_iterations + 1):
        prev_alpha = theta_alpha
        u = np.concatenate(([1.0], theta_nl))       # the output powers as quadratic forms
        theta_alpha = float(u @ stats.s_ab @ u) / float(u @ stats.s_bb @ u) - stats.alpha_d
        theta_nl = gram_lu_solve(stats, theta_alpha)
        if m > 1 and abs(theta_alpha - prev_alpha) < tolerance:
            return theta_nl, theta_alpha, m
    raise AssertionError(f"plain alternation did not reach {tolerance} in {max_iterations} iterations")


def step_size_bounds(layout, y_max, pairs=None, alpha_d=1.0, code_bound=1.0):
    """Oracle: the paper's bounds (mu_alpha, mu_nl) below which one SGD update cannot grow
    its squared error: 2 / y_max^2, y_max the largest corrected output, and 2 / max_k
    ||h_ax - alpha_d h_x||^2 over `pairs`, or without them a cap from the layout geometry."""
    if y_max <= 0.0:
        raise ValueError("y_max must be positive")
    if pairs is not None:
        dh = (RowSelection(pairs.scaled, layout).dense()
              - alpha_d * RowSelection(pairs.unscaled, layout).dense())
        worst = float(np.max(np.sum(dh ** 2, axis=1)))
    else:
        worst = sum(((1.0 + alpha_d) * code_bound * float(np.sum(layout.prefix[:i + 1]))) ** 2
                    + 1.0 + alpha_d ** 2 for i in range(layout.q))
    return 2.0 / y_max ** 2, 2.0 / worst


class Multiplications(NamedTuple):
    nl: int         # vector path
    alpha: int      # scalar path


def counted_step(theta_nl, theta_alpha, pair, layout, alpha_d, mu_nl, mu_alpha):
    """Audit oracle: one BL-HEC SGD update on a one-pair batch, with its
    multiplication budget counted hardware-style.

    The scalar parameter moves first using its apriori error; the vector
    update then uses the *fresh* theta_alpha in both its regressor and its
    apriori error, as in `run_sgd`'s compiled loop.

    Counting conventions: step sizes are powers of two, so scaling by mu is a
    shift; products with the 0/1 indicator entries of the regressors are
    wiring, not multiplications; the gain-weighted regressor entries are
    partial recombination sums the digital back end already provides. Under
    these rules the vector path spends exactly one multiplication per
    parameter slot (dense multiply-accumulate of the update), and the scalar
    path adds three: forming its apriori error, the gradient product, and
    re-scaling the corrected output with the updated factor.

    Returns (theta_nl, theta_alpha, Multiplications) after the update.
    """
    nl = alpha = 0
    hx = RowSelection(pair.unscaled, layout).dense()[0]
    hax = RowSelection(pair.scaled, layout).dense()[0]
    theta = np.array(theta_nl, dtype=float)

    # corrected outputs; indicator slots add for free, weighted slots are sums
    # the recombination logic already produces
    yx_hat = float(pair.unscaled.y[0] + hx @ theta)
    yax_hat = float(pair.scaled.y[0] + hax @ theta)

    # scalar path: 3 multiplications
    t1 = (alpha_d + theta_alpha) * yx_hat
    alpha += 1
    e_alpha = yax_hat - t1
    grad = yx_hat * e_alpha
    alpha += 1
    theta_alpha = theta_alpha + mu_alpha * grad      # shift

    c = alpha_d + theta_alpha
    t2 = c * yx_hat
    alpha += 1
    e_nl = yax_hat - t2

    # vector path: dense multiply-accumulate over all D slots
    dh = hax - c * hx
    g = mu_nl * e_nl                                 # shift
    for pos in range(layout.dim):
        theta[pos] -= g * dh[pos]
        nl += 1
    return theta, theta_alpha, Multiplications(nl, alpha)


def sgd_loop(pairs, layout, alpha_d, schedule=None, guard=1.0, checkpoints=None):
    """Oracle: the adaptive run as a plain per-sample Python loop over one stream.

    Same update order as `run_sgd`'s compiled loop (corrected outputs stage by
    stage, theta_alpha first, then the weighted slots and the scaled-path
    indicator before the unscaled one) and the same guard cadence, so the two
    agree bit for bit; returns (CalibrationState, {k: (theta_nl,
    theta_alpha)}). `counted_step` is the audit oracle of one update's
    multiplication budget.
    """
    from pipecal.calibration import (
        GUARD_EVERY,
        CalibrationState,
        DivergenceError,
        NumericalError,
        StepSchedule,
    )

    schedule = schedule or StepSchedule()
    n = len(pairs)
    for batch in (pairs.unscaled, pairs.scaled):
        layout.check_codes(batch)
    sx = RowSelection(pairs.unscaled, layout)
    sax = RowSelection(pairs.scaled, layout)

    q = layout.q
    first_pos = [layout.weighted_slots[i] for i in range(q)]
    y_x = pairs.unscaled.y.tolist()
    y_ax = pairs.scaled.y.tolist()
    w_x = sx.weighted.tolist()
    w_ax = sax.weighted.tolist()
    ip_x = sx.indicator_pos.tolist()
    ip_ax = sax.indicator_pos.tolist()

    theta = [0.0] * layout.dim
    theta_alpha = 0.0
    snapshots = {}
    checkset = set(checkpoints or [])
    if 0 in checkset:
        snapshots[0] = (np.array(theta), theta_alpha)

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
        if kk % GUARD_EVERY == 0 or kk == n:
            peak = max(abs(t) for t in theta)
            if peak > guard or not math.isfinite(peak) or not math.isfinite(theta_alpha):
                raise DivergenceError(f"||theta_nl||_inf exceeded guard {guard} at sample {kk}")
        if kk in checkset:
            snapshots[kk] = (np.array(theta), theta_alpha)

    state = CalibrationState(theta_nl=np.array(theta), theta_alpha=theta_alpha, k=n)
    if not np.all(np.isfinite(state.theta_nl)) or not math.isfinite(theta_alpha):
        raise NumericalError("non-finite adaptive parameters")
    return state, snapshots


def entry_digests(entry, out_dir) -> dict:
    """sha256 of each file that a `tests/digests.json` entry's command writes into
    `out_dir`: an API call (`run_experiment` or `run_sweep`) of `default_config(seed,
    **config)`, or a CLI argv run with `--out out_dir`, which must exit 0."""
    from pipecal.cli import main
    from pipecal.harness import (default_config, emit_outputs, emit_sweep_outputs,
                                 run_experiment, run_sweep)

    out_dir = Path(out_dir)
    if entry["call"] == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*entry["argv"], "--out", str(out_dir)])
        assert code == 0, (entry["name"], code)
        paths = sorted(out_dir.iterdir())
    elif entry["call"] == "run_experiment":
        config = default_config(entry["seed"], **entry["config"])
        paths = [emit_outputs(run_experiment(config), out_dir)]
    else:
        config = default_config(entry["seed"], **entry["config"])
        paths = emit_sweep_outputs(run_sweep(entry["kind"], config, entry["grid"]), out_dir)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}

"""Shared test fixtures and independent oracle implementations.

Everything here deliberately re-derives results from first principles (naive
loops, closed-form least squares) so the production code is checked against
an independent route.
"""

import numpy as np

from pipecal.adc import AdcInstance, MismatchSet, StageSpec, convert_many, flash_stage_spec
from pipecal.correction import CorrectionLayout, selection_vectors


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


def dense_ramp(n=4001, lo=-0.999, hi=0.999):
    return np.linspace(lo, hi, n)


def ls_fit(adc, layout, x):
    """Oracle: least-squares fit of output = beta*x - h.theta on known inputs."""
    batch = convert_many(adc, np.asarray(x))
    h = selection_vectors(batch, layout).dense()
    design = np.column_stack([np.asarray(x), -h])
    coef, *_ = np.linalg.lstsq(design, batch.y, rcond=None)
    return float(coef[0]), coef[1:]


def naive_selection_dense(record, layout):
    """Direct, loop-based regressor construction straight from the definition."""
    h = np.zeros(layout.dim)
    pos = 0
    prefix = [1.0]
    for g in layout.gains[:-1]:
        prefix.append(prefix[-1] * g)
    for i, p in enumerate(layout.sizes):
        weighted = 0.0
        for l in range(i + 1):
            weighted += record.stage_value[l] * prefix[i - l]
        h[pos] = weighted
        j = record.stage_index[i]
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
        ht[:, off] = sel.weighted[:, i]
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


def dense_r_hh(stats, theta_alpha=0.0):
    """R_hh from the dense regressor buffers: mean of dh dh^T."""
    dh = stats.h_ax - (stats.alpha_d + theta_alpha) * stats.h_x
    return dh.T @ dh / stats.n


def dense_r_hy(stats, theta_alpha=0.0):
    """r_hy from the dense buffers: mean of dh * dy."""
    c = stats.alpha_d + theta_alpha
    dh = stats.h_ax - c * stats.h_x
    return dh.T @ (stats.y_ax - c * stats.y_x) / stats.n


def dense_corrected(stats, theta_nl):
    return stats.y_x + stats.h_x @ theta_nl, stats.y_ax + stats.h_ax @ theta_nl


def dense_r_yy(stats, theta_nl):
    yx, _ = dense_corrected(stats, theta_nl)
    return float(np.mean(yx ** 2))


def dense_r_yya(stats, theta_nl):
    yx, yax = dense_corrected(stats, theta_nl)
    return float(np.mean(yx * yax))


def dense_mse(stats, theta_alpha, theta_nl):
    yx, yax = dense_corrected(stats, theta_nl)
    return float(np.mean((yax - (stats.alpha_d + theta_alpha) * yx) ** 2))


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


def dense_blhec(stats, max_iterations=50, tolerance=1e-7):
    """Oracle: the alternating BL-HEC solve re-evaluated from the dense
    buffers at every iteration.

    Same map, stop rule and singular-matrix fallback as `blhec_wiener`;
    returns (theta_nl, theta_alpha, mse trace, iterations, converged).
    """
    from pipecal.calibration import SingularStatisticsError

    theta_nl = np.zeros(stats.dim)
    theta_alpha = 0.0
    mse = []
    converged = False
    m = 0
    for m in range(1, max_iterations + 1):
        prev_alpha = theta_alpha
        theta_alpha = dense_r_yya(stats, theta_nl) / dense_r_yy(stats, theta_nl) - stats.alpha_d
        try:
            theta_nl = -dense_solve_spd(dense_r_hh(stats, theta_alpha),
                                        dense_r_hy(stats, theta_alpha))
        except SingularStatisticsError:
            if m == 1:
                raise
            theta_alpha = prev_alpha
            break
        mse.append(dense_mse(stats, theta_alpha, theta_nl))
        if m > 1 and abs(theta_alpha - prev_alpha) < tolerance:
            converged = True
            break
    return theta_nl, theta_alpha, mse, m, converged

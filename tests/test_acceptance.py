"""Acceptance suite: the quantitative exit criteria of the build.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Desk scale: 100 converter instances, at most 1e5 samples each.
"""

import math

import numpy as np
import pytest

from helpers import counted_step, dense_ramp, ls_fit, toy_adc

from pipecal.adc import convert_many
from pipecal.calibration import (
    StepSchedule,
    accumulate_statistics,
    blhec_wiener,
    hec_wiener,
    run_sgd,
)
from pipecal.correction import CorrectionLayout, selection_vectors
from pipecal.harness import (
    aggregate_rows,
    default_config,
    emit_outputs,
    emit_sweep_outputs,
    run_experiment,
    run_sweep,
)
from pipecal.signals import PairBatch, PathConfig, ToneSpec, gen_tones, make_pairs

MASTER_SEED = 20260811
ALPHA = 1.0 / math.sqrt(2.0)


def report(criterion, ok, detail):
    print(f"ACCEPT-{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def table3_wiener():
    cfg = default_config(MASTER_SEED, algorithm="blhec-wiener")
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def table3_sgd():
    cfg = default_config(MASTER_SEED, algorithm="blhec-sgd")
    return run_experiment(cfg)


def test_criterion_1_table3_wiener(table3_wiener):
    stats = aggregate_rows(table3_wiener)
    sfdr = stats["post_sfdr_db"]["mean"]
    sndr = stats["post_sndr_db"]["mean"]
    ok = report("1a", abs(sfdr - 94.23) <= 2.0 and abs(sndr - 76.68) <= 1.5,
                f"BL-HEC Wiener mean SFDR {sfdr:.2f} dB (94.23 +-2), SNDR {sndr:.2f} dB (76.68 +-1.5)")
    assert ok


def test_criterion_1_table3_sgd(table3_sgd):
    stats = aggregate_rows(table3_sgd)
    sfdr = stats["post_sfdr_db"]["mean"]
    sndr = stats["post_sndr_db"]["mean"]
    ok = report("1b", abs(sfdr - 91.85) <= 2.0 and abs(sndr - 76.1) <= 1.5,
                f"BL-HEC SGD mean SFDR {sfdr:.2f} dB (91.85 +-2), SNDR {sndr:.2f} dB (76.1 +-1.5)")
    assert ok


def test_criterion_2_excluded_stage_row():
    cfg = default_config(MASTER_SEED, algorithm="hec-wiener", ideal_included_stages=True,
                         delta_mode="fixed", delta_value=0.0, snr_db=None)
    stats = aggregate_rows(run_experiment(cfg))
    pre_sndr = stats["pre_sndr_db"]["mean"]
    pre_sfdr = stats["pre_sfdr_db"]["mean"]
    post_sndr = stats["post_sndr_db"]["mean"]
    post_sfdr = stats["post_sfdr_db"]["mean"]
    ok = (abs(pre_sndr - 76.8) <= 1.0 and abs(pre_sfdr - 97.7) <= 2.0
          and abs(post_sndr - 77.4) <= 1.0 and abs(post_sfdr - 98.3) <= 2.0)
    ok = report("2", ok,
                f"uncal {pre_sndr:.2f}/{pre_sfdr:.2f} dB (76.8 +-1 / 97.7 +-2), "
                f"cal {post_sndr:.2f}/{post_sfdr:.2f} dB (77.4 +-1 / 98.3 +-2)")
    assert ok


def test_criterion_3_mismatch_dichotomy():
    grid = [-5e-3, -2.5e-3, 0.0, 2.5e-3, 5e-3]
    hec = run_sweep("delta", default_config(MASTER_SEED, algorithm="hec-wiener"), grid)
    bl = run_sweep("delta", default_config(MASTER_SEED, algorithm="blhec-wiener"), grid)
    hec_sfdr = {p: aggregate_rows(hec.rows[p])["post_sfdr_db"]["mean"] for p in hec.points}
    bl_sfdr = [aggregate_rows(bl.rows[p])["post_sfdr_db"]["mean"] for p in bl.points]
    drop_pos = hec_sfdr[0.0] - hec_sfdr[5e-3]
    drop_neg = hec_sfdr[0.0] - hec_sfdr[-5e-3]
    spread = max(bl_sfdr) - min(bl_sfdr)
    ok = report("3", drop_pos >= 20.0 and drop_neg >= 20.0 and spread <= 2.0,
                f"HEC drop {drop_neg:.1f}/{drop_pos:.1f} dB (>=20), BL-HEC spread {spread:.2f} dB (<=2)")
    assert ok


def test_criterion_4_scaling_factor_trend():
    cfg = default_config(MASTER_SEED, algorithm="hec-wiener")
    sweep = run_sweep("alpha", cfg, [0.25, ALPHA])
    low = aggregate_rows(sweep.rows[0.25])["post_sfdr_db"]["mean"]
    ref = aggregate_rows(sweep.rows[ALPHA])["post_sfdr_db"]["mean"]
    ok = report("4", ref - low >= 3.0,
                f"HEC SFDR at alpha=0.25 is {ref - low:.1f} dB below alpha=1/sqrt(2) (>=3)")
    assert ok


def test_criterion_5_theta_alpha_recovery():
    adc = toy_adc(zetas=(0.013, -0.021),
                  dac_errors=((0.002, -0.0015, 0.003), (-0.002, 0.001, 0.0024)),
                  flash_bits=None)
    layout = CorrectionLayout.from_adc(adc, 2)
    x = dense_ramp(4001)
    worst = 0.0
    for delta in (1e-3, -1e-3, 1e-2, -1e-2):
        path = PathConfig(alpha_a=ALPHA + delta, alpha_d=ALPHA, snr_db=None)
        res = blhec_wiener(accumulate_statistics(make_pairs(adc, x, path, 0), layout, ALPHA))
        worst = max(worst, abs(res.theta_alpha - delta))
    ok = report("5", worst <= 1e-4, f"max |theta_alpha - delta| = {worst:.2e} (<=1e-4)")
    assert ok


def test_criterion_6_oracle_equivalence():
    adc = toy_adc(zetas=(0.013, -0.021),
                  dac_errors=((0.002, -0.0015, 0.003), (-0.002, 0.001, 0.0024)),
                  flash_bits=None)
    layout = CorrectionLayout.from_adc(adc, 2)
    x = dense_ramp(4001)
    pairs = make_pairs(adc, x, PathConfig(ALPHA, ALPHA, None), 0)
    theta_w = hec_wiener(accumulate_statistics(pairs, layout, ALPHA))
    _, theta_ls = ls_fit(adc, layout, x)
    rel = float(np.linalg.norm(theta_w - theta_ls) / np.linalg.norm(theta_ls))
    ok = report("6", rel <= 1e-9, f"relative deviation Wiener vs least-squares fit = {rel:.2e} (<=1e-9)")
    assert ok


def test_criterion_7_monotone_alternation():
    cfg = default_config(MASTER_SEED)
    from pipecal.harness import _build_member
    violations = 0
    runs = 0
    for idx in range(100):
        adc, path, layout = _build_member(cfg, idx)
        x = gen_tones(cfg.run_tones(cfg.cal_amplitude), cfg.n_cal)
        pairs = make_pairs(adc, x, path, np.random.SeedSequence(cfg.master_seed, spawn_key=(idx, 2)))
        res = blhec_wiener(accumulate_statistics(pairs, layout, cfg.alpha_d))
        runs += 1
        for m in range(1, len(res.mse)):
            if res.mse[m] > res.mse[m - 1] + 3.0 * res.mse_stderr[m - 1]:
                violations += 1
    ok = report("7", runs == 100 and violations == 0,
                f"{violations} hard MSE increases beyond 3 standard errors over {runs} runs (=0)")
    assert ok


def test_criterion_8_sgd_contraction():
    adc = toy_adc(zetas=(0.013, -0.021),
                  dac_errors=((0.002, -0.0015, 0.003), (-0.002, 0.001, 0.0024)),
                  flash_bits=3)
    layout = CorrectionLayout.from_adc(adc, 2)
    rng = np.random.default_rng(MASTER_SEED)
    n = 25000
    x = rng.uniform(-0.99, 0.99, n)
    pairs = make_pairs(adc, x, PathConfig(ALPHA + 2e-3, ALPHA, 60.0, "independent"), 1)

    h_x = selection_vectors(pairs.unscaled, layout).dense()
    h_ax = selection_vectors(pairs.scaled, layout).dense()
    y_x, y_ax = pairs.unscaled.y, pairs.scaled.y

    checks = 0
    failures = 0
    for k in range(n):
        hx, hax = h_x[k], h_ax[k]
        theta = rng.normal(scale=0.005, size=layout.dim)
        theta_alpha = float(rng.normal(scale=0.005))
        yx_hat = y_x[k] + hx @ theta
        yax_hat = y_ax[k] + hax @ theta

        # scalar path
        e = yax_hat - (ALPHA + theta_alpha) * yx_hat
        mu = rng.uniform(0.0, 2.0 / yx_hat ** 2)
        ta2 = theta_alpha + mu * yx_hat * e
        e_post = yax_hat - (ALPHA + ta2) * yx_hat
        checks += 1
        failures += abs(e_post) > abs(e) + 1e-15

        # vector path at the fresh scalar value
        c = ALPHA + ta2
        dh = hax - c * hx
        norm2 = float(dh @ dh)
        mu_nl = rng.uniform(0.0, 2.0 / norm2)
        e_nl = yax_hat - c * yx_hat
        theta2 = theta - mu_nl * dh * e_nl
        e_nl_post = (y_ax[k] + hax @ theta2) - c * (y_x[k] + hx @ theta2)
        checks += 1
        failures += abs(e_nl_post) > abs(e_nl) + 1e-15

        # each path once more at 1.5x the per-sample bound: the error must grow
        checks += 2
        ta3 = theta_alpha + (1.5 * 2.0 / yx_hat ** 2) * yx_hat * e
        failures += not (abs(yax_hat - (ALPHA + ta3) * yx_hat) > abs(e))
        theta3 = theta - (1.5 * 2.0 / norm2) * dh * e_nl
        e3 = (y_ax[k] + hax @ theta3) - c * (y_x[k] + hx @ theta3)
        failures += not (abs(e3) > abs(e_nl))

    ok = report("8", checks == 4 * n and failures == 0,
                f"{checks} randomized per-sample checks, {failures} violations (=0)")
    assert ok


def test_criterion_9_complexity_audit(mismatched_adc):
    layout = CorrectionLayout.from_adc(mismatched_adc, 3)
    x = gen_tones([ToneSpec(0.677, 0.995)], 3)
    pairs = make_pairs(mismatched_adc, x, PathConfig(ALPHA, ALPHA, None), 0)
    theta_nl, _, count = counted_step(np.zeros(layout.dim), 0.0, pairs[1:2], layout, ALPHA,
                                      2.0 ** -6, 2.0 ** -7)
    # the production kernel on the same pair, at the same step sizes
    kernel, _ = run_sgd(pairs[1:2], layout, ALPHA, StepSchedule(2.0 ** -6, 0, 2.0 ** -6, 0.5))
    same = np.allclose(theta_nl, kernel.theta_nl, atol=1e-15)
    ok = report("9", count.nl == 19 and count.alpha == 3 and same,
                f"instrumented step: {count.nl} vector-path + {count.alpha} scalar-path "
                f"multiplications (19 + 3), update unchanged: {same}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    cfg = default_config(MASTER_SEED, population=4, n_cal=1200, n_fft=4096, eval_samples=4096)
    a = emit_outputs(run_experiment(cfg, workers=1), tmp_path / "a")
    b = emit_outputs(run_experiment(cfg, workers=2), tmp_path / "b")
    rows_equal = a.read_bytes() == b.read_bytes()

    sweep_cfg = default_config(MASTER_SEED, population=3, n_cal=1200, n_fft=4096,
                               eval_samples=4096, algorithm="hec-wiener")
    pa = emit_sweep_outputs(run_sweep("delta", sweep_cfg, [0.0, 2e-3]), tmp_path / "sa")
    pb = emit_sweep_outputs(run_sweep("delta", sweep_cfg, [0.0, 2e-3]), tmp_path / "sb")
    sweep_equal = all(x.read_bytes() == y.read_bytes() for x, y in zip(pa, pb))

    ok = report("10", rows_equal and sweep_equal,
                f"byte-identical CSV outputs across reruns and worker counts: "
                f"rows={rows_equal}, sweep={sweep_equal}")
    assert ok

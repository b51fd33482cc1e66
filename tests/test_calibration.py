import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    DenseStatistics,
    cholesky_solve_oracle,
    counted_step,
    delta_h,
    dense_blhec,
    dense_mse,
    dense_r_hh,
    dense_r_hy,
    dense_r_yy,
    dense_r_yya,
    dense_ramp,
    gram_lu_solve,
    gram_mse,
    gram_oracle,
    ls_fit,
    naive_selection_dense,
    output_powers_oracle,
    plain_blhec,
    second_blas_kernel_missing,
    sgd_loop,
    toy_adc,
    toy_stage,
    total_gain,
    wiener_solve_oracle,
)

from pipecal import calibration, kernels
from pipecal.adc import ConversionBatch, convert_many, lsb_size
from pipecal.calibration import (
    DivergenceError,
    PairStatistics,
    RankDeficiencyError,
    SingularStatisticsError,
    StepSchedule,
    accumulate_statistics,
    blhec_wiener,
    hec_wiener,
    run_sgd,
    step_size_bounds,
)
from pipecal.correction import CorrectionLayout, LayoutError, SelectionBatch, selection_vectors
from pipecal.kernels import KernelBuildError, _build_kernel
from pipecal.signals import PairBatch, PairSource, PathConfig, ToneSpec, gen_tones, make_pairs

ALPHA = 1.0 / math.sqrt(2.0)


def toy_with_mismatch(flash_bits=None):
    return toy_adc(zetas=(0.013, -0.021),
                   dac_errors=((0.002, -0.0015, 0.003), (-0.002, 0.001, 0.0024)),
                   flash_bits=flash_bits)


def toy_pairs(adc, delta=0.0, n=4001, snr_db=None, seed=0, noise_mode="held"):
    x = dense_ramp(n)
    path = PathConfig(alpha_a=ALPHA + delta, alpha_d=ALPHA, snr_db=snr_db, noise_mode=noise_mode)
    return make_pairs(adc, x, path, seed), x


class TestAccumulateStatistics:
    def test_constant_input_raises_rank_error(self):
        adc = toy_with_mismatch()
        layout = CorrectionLayout.from_adc(adc, 2)
        x = np.full(200, 0.05)
        pairs = make_pairs(adc, x, PathConfig(ALPHA, ALPHA, None), 0)
        with pytest.raises(RankDeficiencyError):
            accumulate_statistics(pairs, layout, ALPHA)

    def test_full_scale_sine_covers_default_adc(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        x = gen_tones([ToneSpec(0.677, 0.995)], 2000)
        pairs = make_pairs(mismatched_adc, x, PathConfig(ALPHA, ALPHA, None), 0)
        stats = accumulate_statistics(pairs, layout, ALPHA)
        assert stats.n == 2000
        assert np.linalg.matrix_rank(stats.r_hh(0.0)) == layout.dim

    def test_matches_naive_enumeration(self):
        adc = toy_with_mismatch()
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, delta=1e-3, n=401)
        stats = accumulate_statistics(pairs, layout, ALPHA)

        n = len(pairs)
        r_hh = np.zeros((layout.dim, layout.dim))
        r_hy = np.zeros(layout.dim)
        for k in range(n):
            pair = pairs[k:k + 1]
            hx = naive_selection_dense(pair.unscaled, layout)
            hax = naive_selection_dense(pair.scaled, layout)
            dh = hax - ALPHA * hx
            dy = pair.scaled.y[0] - ALPHA * pair.unscaled.y[0]
            r_hh += np.outer(dh, dh)
            r_hy += dh * dy
        assert np.max(np.abs(stats.r_hh(0.0) - r_hh / n)) < 1e-12
        assert np.max(np.abs(stats.homogeneity_gram(0.0)[1:, 0] - r_hy / n)) < 1e-12

    def test_statistics_check_the_arrays_the_kernels_read(self):
        adc = toy_with_mismatch()
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=401)
        sel_ax, sel_x = (selection_vectors(b, layout) for b in (pairs.scaled, pairs.unscaled))
        with pytest.raises(ValueError, match="differ in length"):
            PairStatistics(sel_ax, selection_vectors(pairs.unscaled[:400], layout),
                           pairs.scaled.y, pairs.unscaled.y[:400], ALPHA)
        narrow = SelectionBatch(layout, sel_x.table_weighted, sel_x.table_slots,
                                sel_x.table_codes, sel_x.keys.astype(np.int32))
        with pytest.raises(ValueError, match="C-contiguous"):
            PairStatistics(sel_ax, narrow, pairs.scaled.y, pairs.unscaled.y, ALPHA)

    def test_requires_enough_samples(self):
        adc = toy_with_mismatch()
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=21)
        with pytest.raises(ValueError):
            accumulate_statistics(pairs[:3], layout, ALPHA)


class TestHecWiener:
    def test_ideal_adc_estimates_nothing(self):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc)
        theta = hec_wiener(accumulate_statistics(pairs, layout, ALPHA))
        assert np.max(np.abs(theta)) < 1e-9

    def test_recovers_reference_parameters_exactly_on_exact_backend(self):
        adc = toy_with_mismatch(flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, x = toy_pairs(adc)
        theta = hec_wiener(accumulate_statistics(pairs, layout, ALPHA))
        _, theta_ls = ls_fit(adc, layout, x)
        assert np.linalg.norm(theta - theta_ls) < 1e-9

    def test_recovers_within_flash_bound_on_real_backend(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, x = toy_pairs(adc)
        theta = hec_wiener(accumulate_statistics(pairs, layout, ALPHA))
        _, theta_ls = ls_fit(adc, layout, x)
        assert np.max(np.abs(theta - theta_ls)) < 0.125 / 4.0

    def test_scaling_mismatch_bias_matches_closed_form(self):
        # theta_w - theta_0 == -delta * R^-1 r_hx, exactly in sample statistics
        adc = toy_with_mismatch(flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        delta = 2e-3
        pairs, x = toy_pairs(adc, delta=delta)
        stats = accumulate_statistics(pairs, layout, ALPHA)
        theta = hec_wiener(stats)
        _, theta0 = ls_fit(adc, layout, x)
        r_hx = delta_h(DenseStatistics(pairs, layout, ALPHA), 0.0).T @ (total_gain(adc) * x) / stats.n
        predicted = theta0 - delta * np.linalg.solve(stats.r_hh(0.0), r_hx)
        assert np.max(np.abs(theta - predicted)) < 1e-9


class TestBlhecWiener:
    def test_ideal_adc_idle(self):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc)
        res = blhec_wiener(accumulate_statistics(pairs, layout, ALPHA))
        assert abs(res.theta_alpha) < 1e-9
        assert np.max(np.abs(res.theta_nl)) < 1e-9

    @pytest.mark.parametrize("delta", [1e-3, -1e-3, 1e-2, -1e-2])
    def test_recovers_injected_scaling_mismatch(self, delta):
        adc = toy_with_mismatch(flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, delta=delta)
        res = blhec_wiener(accumulate_statistics(pairs, layout, ALPHA))
        assert abs(res.theta_alpha - delta) <= 1e-4

    def test_grid_search_oracle_for_theta_alpha(self):
        # the alternation must land on the same minimizer a dense grid search
        # over the empirical MSE profile finds (on a real-flash toy the
        # minimizer sits off the injected mismatch by the quantization bias)
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, delta=4e-3)
        stats = accumulate_statistics(pairs, layout, ALPHA)
        res = blhec_wiener(stats)

        grid = np.arange(res.theta_alpha - 2e-3, res.theta_alpha + 2e-3, 1e-5)
        profile = []
        for ta in grid:
            profile.append(gram_mse(stats, ta, gram_lu_solve(stats, ta)))
        best = grid[int(np.argmin(profile))]
        assert abs(res.theta_alpha - best) <= 1e-5

    def test_cost_landscape_has_global_and_output_nulling_minima(self):
        # alpha_d = 0.5 with delta = 0.1: global minimum near delta, local
        # minimum near -alpha_d where the corrected output itself is nulled
        from pipecal.harness import _build_member, default_config

        cfg = default_config(11)
        adc, _, layout = _build_member(cfg, 2)
        x = gen_tones(cfg.run_tones(cfg.cal_amplitude), 4000)
        pairs = make_pairs(adc, x, PathConfig(alpha_a=0.6, alpha_d=0.5, snr_db=None), 0)
        stats = accumulate_statistics(pairs, layout, 0.5)

        grid = np.arange(-0.8, 0.4001, 0.01)
        profile = np.array([gram_mse(stats, ta, gram_lu_solve(stats, ta)) for ta in grid])
        minima = [float(grid[i]) for i in range(1, len(grid) - 1)
                  if profile[i] < profile[i - 1] and profile[i] < profile[i + 1]]
        assert any(abs(m - 0.1) <= 0.02 for m in minima)
        assert any(abs(m + 0.5) <= 0.06 for m in minima)
        res = blhec_wiener(stats, max_iterations=100)
        assert abs(res.theta_alpha - 0.1) <= 2e-3

    def test_default_members_converge_to_plain_alternation(self):
        # the extrapolated solve lands where the paper's plain alternation,
        # run to 1e-12, ends up, on every member of a default population
        from pipecal.harness import _ROLE_CAL_NOISE, _build_member, _seed_for, default_config

        cfg = default_config(11)
        x = gen_tones(cfg.run_tones(cfg.cal_amplitude), cfg.n_cal)
        for idx in range(cfg.population):
            adc, path, layout = _build_member(cfg, idx)
            pairs = make_pairs(adc, x, path, _seed_for(cfg, idx, _ROLE_CAL_NOISE))
            stats = accumulate_statistics(pairs, layout, cfg.alpha_d)
            res = blhec_wiener(stats)
            _, theta_alpha, _ = plain_blhec(stats)
            assert res.converged and res.diagnostic is None, idx
            assert res.iterations <= 8, idx
            assert abs(res.theta_alpha - theta_alpha) <= 2e-6, idx

    def test_rejected_extrapolation_keeps_mse_non_increasing(self):
        # a strongly mismatched scaling path (alpha_a = 0.09 against
        # alpha_d = 0.14) makes the theta_alpha map non-linear enough that
        # Aitken's step overshoots; the safeguard rejects those candidates
        adc = toy_adc(zetas=(0.006, 0.012),
                      dac_errors=((-0.005, -0.002, 0.0089), (0.003, 0.0017, -0.0087)),
                      flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        x = np.random.default_rng(31).uniform(-0.99, 0.99, 3000)
        pairs = make_pairs(adc, x, PathConfig(alpha_a=0.09, alpha_d=0.14, snr_db=60.0), 31)
        res = blhec_wiener(accumulate_statistics(pairs, layout, 0.14))
        assert res.diagnostic is None
        assert res.iterations > len(res.mse)            # some solves were rejected
        assert len(res.mse) == len(res.mse_stderr) == len(res.alpha_trace)
        assert res.alpha_trace[-1] == res.theta_alpha
        for m in range(1, len(res.mse)):
            # a plain step at convergence may move the MSE by rounding only
            assert res.mse[m] <= res.mse[m - 1] * (1.0 + 1e-12)

    def test_mse_trajectory_monotone_within_noise(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, delta=3e-3, snr_db=70.0, seed=5)
        res = blhec_wiener(accumulate_statistics(pairs, layout, ALPHA))
        for m in range(1, len(res.mse)):
            assert res.mse[m] <= res.mse[m - 1] + 3.0 * res.mse_stderr[m - 1]


class TestGramStatistics:
    """Gram-matrix statistics and the BL-HEC solve against the dense-buffer
    formulas, on default population members."""

    @pytest.fixture(scope="class")
    def member_stats(self):
        from pipecal.harness import _ROLE_CAL_NOISE, _build_member, _seed_for, default_config

        cfg = default_config(11)
        out = []
        for idx in range(10):
            adc, path, layout = _build_member(cfg, idx)
            x = gen_tones(cfg.run_tones(cfg.cal_amplitude), cfg.n_cal)
            pairs = make_pairs(adc, x, path, _seed_for(cfg, idx, _ROLE_CAL_NOISE))[:cfg.n_cal]
            out.append((accumulate_statistics(pairs, layout, cfg.alpha_d),
                        DenseStatistics(pairs, layout, cfg.alpha_d)))
        return out

    def test_blhec_matches_dense_oracle(self, member_stats):
        outcomes = set()
        # every default member converges within 8 solves; a cap of 4 stops
        # each one right after its first extrapolated candidate
        for cap in (50, 4):
            for stats, dense in member_stats:
                res = blhec_wiener(stats, max_iterations=cap)
                theta_nl, theta_alpha, mse, iterations, converged = dense_blhec(dense, cap)
                assert res.iterations == iterations
                assert res.converged == converged
                assert np.max(np.abs(res.theta_nl - theta_nl)) <= 1e-8 * np.max(np.abs(theta_nl))
                assert abs(res.theta_alpha - theta_alpha) <= 1e-12
                assert np.allclose(res.mse, mse, rtol=1e-9, atol=0.0)
                outcomes.add(converged)
        # both stop rules are exercised: the tolerance and the iteration cap
        assert outcomes == {True, False}

    def test_statistics_match_dense_formulas(self, member_stats):
        for stats, dense in member_stats:
            res = blhec_wiener(stats)
            for ta, theta in ((0.0, np.zeros(stats.dim)), (res.theta_alpha, res.theta_nl)):
                assert np.max(np.abs(stats.r_hh(ta) - dense_r_hh(dense, ta))) < 1e-12
                assert np.max(np.abs(stats.homogeneity_gram(ta)[1:, 0] - dense_r_hy(dense, ta))) < 1e-12
                r_yy, r_yya = stats.output_powers(theta)
                assert abs(r_yy - dense_r_yy(dense, theta)) < 1e-12
                assert abs(r_yya - dense_r_yya(dense, theta)) < 1e-12
                assert abs(gram_mse(stats, ta, theta) - dense_mse(dense, ta, theta)) < 1e-12
            theta, mse, _ = stats.solve(res.theta_alpha)
            assert mse == pytest.approx(dense_mse(dense, res.theta_alpha, theta), rel=1e-9)
            assert mse == pytest.approx(gram_mse(stats, res.theta_alpha, theta), rel=1e-6)

    @staticmethod
    def statistics_holding(r, b):
        """PairStatistics of a one-stage layout with D = len(b), its Gram matrix
        rewritten so that M(0) = S_AA holds r and b: solve(-alpha_d), at c = 0,
        solves r x = b by the kernels' Cholesky solve and returns -x."""
        d = len(b)
        layout = CorrectionLayout(stages=(toy_stage(levels=d),))
        codes = np.arange(1, d + 1)
        batch = ConversionBatch(np.linspace(-0.5, 0.5, d),
                                np.asfortranarray(np.stack([codes, np.zeros(d, dtype=int)], 1)))
        sel = selection_vectors(batch, layout)
        stats = PairStatistics(sel, sel, batch.y, batch.y, ALPHA)
        stats.gram.setflags(write=True)
        stats.gram[1:d + 1, 0] = stats.gram[0, 1:d + 1] = b
        stats.gram[1:d + 1, 1:d + 1] = r
        return stats

    def test_solve_spd_checks_definiteness_and_condition(self):
        def solve(r, b):
            return -self.statistics_holding(r, b).solve(-ALPHA)[0]

        r = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        assert np.array_equal(solve(r, b), cholesky_solve_oracle(r, b))
        assert np.allclose(solve(r, b), np.linalg.solve(r, b), rtol=1e-14, atol=0.0)
        with pytest.raises(SingularStatisticsError):
            solve(np.array([[1.0, 2.0], [2.0, 1.0]]), b)        # indefinite
        with pytest.raises(SingularStatisticsError):
            solve(np.diag([1.0, 1e-13]), b)                      # cond 1e13
        with pytest.raises(SingularStatisticsError):
            solve(np.full((2, 2), np.nan), b)
        # ||r||_inf ||L^-1||_F^2 = 1 + 2 / 1.5e-12 exceeds COND_LIMIT, cond_2 = 6.7e11
        # does not: the factorization's bound cannot accept r, the eigenvalues do
        r = np.diag([1.0, 1.5e-12, 1.5e-12])
        assert np.linalg.cond(r) <= calibration.COND_LIMIT < 1.0 + 2.0 / 1.5e-12
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(solve(r, b), cholesky_solve_oracle(r, b))


class TestWienerKernels:
    """The compiled Gram matrix, solve and output powers against the plain-Python
    oracles of tests/helpers.py, bit for bit: the default layout, a gain-3
    layout whose sums round, and one whose Π p_i exceeds n_cal (per-row tables)."""

    @pytest.fixture(scope="class", params=[{}, {"stage_gain": 3.0, "stage_levels": 5}, {"q": 4}],
                    ids=["default", "gain3-levels5", "per-row"])
    def stats(self, request):
        from pipecal.harness import _ROLE_CAL_NOISE, _build_member, _seed_for, default_config

        cfg = default_config(11, **request.param)
        adc, path, layout = _build_member(cfg, 0)
        x = gen_tones(cfg.run_tones(cfg.cal_amplitude), cfg.n_cal)
        pairs = make_pairs(adc, x, path, _seed_for(cfg, 0, _ROLE_CAL_NOISE))[:cfg.n_cal]
        stats = accumulate_statistics(pairs, layout, cfg.alpha_d)
        per_row = math.prod(layout.sizes) > cfg.n_cal
        assert len(stats.sel_ax.table_weighted) == (cfg.n_cal if per_row else math.prod(layout.sizes))
        assert per_row == (request.param == {"q": 4})
        return stats

    def test_gram_matches_oracle(self, stats):
        gram, cross = gram_oracle(stats)
        assert np.array_equal(stats.gram.view(np.uint64), gram.view(np.uint64))
        assert np.array_equal((stats.s_ab + stats.s_ab.T).view(np.uint64), cross.view(np.uint64))

    def test_solve_and_output_powers_match_oracle(self, stats):
        res = blhec_wiener(stats)
        for ta in (0.0, res.theta_alpha, -3e-3):
            theta, mse, stderr = stats.solve(ta)
            want, want_mse, want_stderr = wiener_solve_oracle(stats, ta)
            assert np.array_equal(theta.view(np.uint64), want.view(np.uint64))
            assert (mse, stderr) == (want_mse, want_stderr)
            assert stats.output_powers(theta) == output_powers_oracle(stats, theta)
        assert np.array_equal(hec_wiener(stats), stats.solve(0.0)[0])
        assert res.mse[-1] == stats.solve(res.theta_alpha)[1]

    def test_dense_regressors_are_read_only_views_built_on_read(self, stats):
        assert "h_ax" not in vars(stats) and "h_x" not in vars(stats)
        for h, sel in ((stats.h_ax, stats.sel_ax), (stats.h_x, stats.sel_x)):
            assert np.array_equal(h, sel.dense())
            assert not h.flags.writeable


_NO_SECOND_BLAS_KERNEL = second_blas_kernel_missing()


@pytest.mark.skipif(bool(_NO_SECOND_BLAS_KERNEL), reason=_NO_SECOND_BLAS_KERNEL)
def test_wiener_results_do_not_depend_on_the_blas_kernel():
    # every number of the Wiener path is summed in the kernels' fixed order;
    # LAPACK only decides pass or fail. OpenBLAS reads OPENBLAS_CORETYPE once,
    # at load, so each kernel gets a process
    script = ("import hashlib, struct, sys; from pipecal.harness import default_config, "
              "run_experiment; h = hashlib.sha256(); "
              "[h.update(struct.pack('<4d', r.theta_alpha, r.post_sfdr_db, r.post_sndr_db, "
              "r.pre_sfdr_db)) for a in ('hec-wiener', 'blhec-wiener') "
              "for r in run_experiment(default_config(11, population=20, algorithm=a))]; "
              "sys.stdout.write(h.hexdigest())")
    src = str(Path(kernels.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    procs = [subprocess.Popen([sys.executable, "-c", script], env={**env, **extra},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for extra in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"})]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0]


def one_hot_pairs(y_x, y_ax):
    """Fabricated pair batch for the one-stage toy layout: every conversion
    selects the middle code, so every regressor is one-hot on slot 1."""
    def batch(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return ConversionBatch(y, np.tile([2, 1], (y.size, 1)))
    return PairBatch(batch(y_x), batch(y_ax))


def constant_steps(mu_nl, mu_alpha):
    """A schedule that holds mu_nl > 0 and mu_alpha fixed."""
    return StepSchedule(mu_nl, 0, mu_nl, mu_alpha / mu_nl)


class TestSgdStep:
    """Single updates of `run_sgd`'s compiled loop."""

    layout = CorrectionLayout(stages=(toy_stage(),))

    def test_zero_step_sizes_freeze_state(self):
        pair = one_hot_pairs(0.5, 0.3)
        out, _ = run_sgd(pair, self.layout, 0.7, StepSchedule(0.0, 0, 0.0, 0.0))
        assert out.theta_alpha == 0.0
        assert np.array_equal(out.theta_nl, np.zeros(self.layout.dim))
        assert out.k == 1

    def test_hand_fed_scalars_match_symbolic_evaluation(self):
        mu_nl, mu_alpha = 0.25, 0.125
        alpha_d, y_x, y_ax = 0.7, 0.5, 0.3
        pair = one_hot_pairs(y_x, y_ax)
        out, _ = run_sgd(pair, self.layout, alpha_d, constant_steps(mu_nl, mu_alpha))

        e_alpha = y_ax - alpha_d * y_x
        ta = mu_alpha * y_x * e_alpha
        e_nl = y_ax - (alpha_d + ta) * y_x
        h = np.array([0.0, 1.0, 0.0])
        expected = -mu_nl * (h - (alpha_d + ta) * h) * e_nl
        assert out.theta_alpha == pytest.approx(ta, abs=1e-16)
        assert np.allclose(out.theta_nl, expected, atol=1e-16)

    def test_posterior_alpha_error_identity(self):
        # every step's scalar update scales its apriori error by
        # 1 - mu_alpha yx_hat^2; each step's prior and posterior state are
        # consecutive snapshots of one run
        rng = np.random.default_rng(0)
        n, alpha_d, mu_alpha = 200, 0.7, 0.25
        y_x, y_ax = rng.normal(size=(2, n))
        pairs = one_hot_pairs(y_x, y_ax)
        _, snapshots = run_sgd(pairs, self.layout, alpha_d, constant_steps(0.125, mu_alpha),
                               guard=1e6, checkpoints=range(n + 1))
        h = selection_vectors(pairs.unscaled, self.layout).dense()   # = the scaled path's
        for k in range(n):
            theta, theta_alpha = snapshots[k]
            _, theta_alpha_post = snapshots[k + 1]
            yx_hat = y_x[k] + h[k] @ theta
            yax_hat = y_ax[k] + h[k] @ theta
            e_prior = yax_hat - (alpha_d + theta_alpha) * yx_hat
            e_post = yax_hat - (alpha_d + theta_alpha_post) * yx_hat
            factor = 1.0 - mu_alpha * yx_hat ** 2
            assert e_post == pytest.approx(factor * e_prior, abs=1e-12)

    def test_only_regressor_slots_change(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        x = gen_tones([ToneSpec(0.677, 0.995)], 5)
        pairs = make_pairs(mismatched_adc, x, PathConfig(ALPHA, ALPHA, None), 0)
        pair = pairs[3:4]
        out, _ = run_sgd(pair, layout, ALPHA, constant_steps(2.0 ** -6, 2.0 ** -7))
        touched = set(np.flatnonzero(out.theta_nl))
        allowed = {layout.weighted_slots[i] for i in range(layout.q)}
        for conversions in (pair.unscaled, pair.scaled):
            sel = selection_vectors(conversions, layout)
            slots = sel.table_slots[sel.keys[0]]
            allowed |= set(slots[slots >= 0].tolist())
        assert touched <= allowed


class TestContraction:
    def test_posterior_never_exceeds_apriori_below_bound(self):
        # randomized pairs through a real toy converter
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        rng = np.random.default_rng(8)
        n = 2000
        x = rng.uniform(-0.99, 0.99, n)
        pairs = make_pairs(adc, x, PathConfig(ALPHA + 2e-3, ALPHA, 60.0, "independent"), 9)

        h_x = selection_vectors(pairs.unscaled, layout).dense()
        h_ax = selection_vectors(pairs.scaled, layout).dense()
        y_x, y_ax = pairs.unscaled.y, pairs.scaled.y
        checks = 0
        for k in range(n):
            hx, hax = h_x[k], h_ax[k]
            theta_nl = rng.normal(scale=0.005, size=layout.dim)
            theta_alpha = rng.normal(scale=0.005)

            yx_hat = y_x[k] + hx @ theta_nl
            yax_hat = y_ax[k] + hax @ theta_nl

            # scalar path at its per-sample bound
            bound_alpha = 2.0 / yx_hat ** 2
            mu_alpha = rng.uniform(0.0, bound_alpha)
            e_prior = yax_hat - (ALPHA + theta_alpha) * yx_hat
            theta_alpha_post = theta_alpha + mu_alpha * (yx_hat * e_prior)
            e_post = yax_hat - (ALPHA + theta_alpha_post) * yx_hat
            assert abs(e_post) <= abs(e_prior) + 1e-15

            # vector path at its per-sample bound, holding theta_alpha fixed
            c = ALPHA + theta_alpha_post
            dh = hax - c * hx
            norm2 = float(dh @ dh)
            mu_nl = rng.uniform(0.0, 2.0 / norm2)
            e_nl = yax_hat - c * yx_hat
            theta_after = theta_nl - mu_nl * dh * e_nl
            e_nl_post = y_ax[k] + hax @ theta_after - c * (y_x[k] + hx @ theta_after)
            assert abs(e_nl_post) <= abs(e_nl) + 1e-15
            checks += 2
        assert checks == 2 * n

    def test_above_bound_strictly_grows_error(self):
        layout = CorrectionLayout(stages=(toy_stage(),))
        pair = one_hot_pairs(0.5, 0.3)
        # mu_alpha = 12, 1.5 times the scalar path's bound 2 / y_x^2 = 8
        out, _ = run_sgd(pair, layout, 0.7, StepSchedule(1.0, 0, 1.0, 12.0))
        e_prior = 0.3 - 0.7 * 0.5
        e_post = 0.3 - (0.7 + out.theta_alpha) * 0.5
        assert abs(e_post) > abs(e_prior)


class TestStepSizeBounds:
    def test_full_scale_alpha_bound_is_two(self):
        layout = CorrectionLayout(stages=(toy_stage(),))
        mu_alpha, _ = step_size_bounds(layout, y_max=1.0, alpha_d=ALPHA)
        assert mu_alpha == 2.0

    def test_identical_code_pair_norm(self):
        # both conversions select the same codes: every delta-regressor entry
        # is (1 - alpha_d) times the plain one
        adc = toy_with_mismatch(flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        x = np.full(4, 0.05)
        pairs = make_pairs(adc, x, PathConfig(alpha_a=ALPHA, alpha_d=1.0, snr_db=None), 0)
        # force identical codes by converting the same input twice
        pairs = PairBatch(pairs.unscaled, pairs.unscaled)
        _, mu_nl = step_size_bounds(layout, 1.0, pairs, alpha_d=ALPHA)
        h = selection_vectors(pairs.unscaled[0:1], layout).dense()[0]
        norm2 = float(np.sum(((1.0 - ALPHA) * h) ** 2))
        assert mu_nl == pytest.approx(2.0 / norm2, rel=1e-12)

    def test_analytic_cap_is_conservative(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc)
        _, measured = step_size_bounds(layout, 1.0, pairs, alpha_d=ALPHA)
        _, analytic = step_size_bounds(layout, 1.0, None, alpha_d=ALPHA, code_bound=0.5)
        assert analytic <= measured

    def test_rejects_non_positive_y_max(self):
        layout = CorrectionLayout(stages=(toy_stage(),))
        with pytest.raises(ValueError):
            step_size_bounds(layout, 0.0)


class TestRunSgd:
    def test_empty_stream_returns_zero_state(self):
        adc = toy_with_mismatch(flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=30)
        state, snapshots = run_sgd(pairs[:0], layout, ALPHA, checkpoints=[0])
        assert state.k == 0
        assert set(snapshots) == {0}
        assert state.theta_alpha == 0.0
        assert np.all(state.theta_nl == 0.0)

    def test_converges_toward_wiener_reference(self):
        # zero-mean DAC vectors on the exact analysis back end: the Wiener
        # point is fully reachable and the adaptive run closes in on it
        adc = toy_adc(zetas=(0.013, -0.021),
                      dac_errors=((0.0015, -0.002, 0.0005), (-0.0023, 0.0007, 0.0016)),
                      flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        x = gen_tones([ToneSpec(0.677, 0.9)], 20000)
        path = PathConfig(ALPHA + 1e-3, ALPHA, None)
        pairs = make_pairs(adc, x, path, 0)
        ref = blhec_wiener(accumulate_statistics(pairs[:2000], layout, ALPHA))
        schedule = StepSchedule(mu_nl_init=2.0 ** -2, halve_every=0)
        state, snapshots = run_sgd(pairs, layout, ALPHA, schedule=schedule,
                                   checkpoints=[0, len(pairs)])
        first, last = (np.linalg.norm(snapshots[k][0] - ref.theta_nl) for k in (0, len(pairs)))
        assert last < 0.1 * first
        assert abs(state.theta_alpha - ref.theta_alpha) < 1e-4

    def test_error_norm_shrinks_averaged_over_runs(self):
        # average final-to-initial error-norm ratio over many independent runs
        schedule = StepSchedule(mu_nl_init=2.0 ** -2, halve_every=0)
        ratios = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            dac = rng.uniform(-0.003, 0.003, (2, 3))
            dac -= dac.mean(axis=1, keepdims=True)
            adc = toy_adc(zetas=tuple(rng.uniform(-0.02, 0.02, 2)),
                          dac_errors=dac, flash_bits=None)
            layout = CorrectionLayout.from_adc(adc, 2)
            x = gen_tones([ToneSpec(0.677, 0.9, float(rng.uniform(0, 3)))], 8000)
            pairs = make_pairs(adc, x, PathConfig(ALPHA + 1e-3, ALPHA, None), seed)
            ref = blhec_wiener(accumulate_statistics(pairs[:2000], layout, ALPHA)).theta_nl
            _, snapshots = run_sgd(pairs, layout, ALPHA, schedule=schedule, checkpoints=[0, 8000])
            ratios.append(np.linalg.norm(snapshots[8000][0] - ref)
                          / np.linalg.norm(snapshots[0][0] - ref))
        assert float(np.mean(ratios)) < 0.1

    def test_divergence_guard(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=2000)
        schedule = StepSchedule(mu_nl_init=64.0, halve_every=0, mu_nl_min=64.0)
        with pytest.raises(DivergenceError):
            run_sgd(pairs, layout, ALPHA, schedule=schedule)

    def test_checkpoints_capture_snapshots(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=300)
        state, snapshots = run_sgd(pairs, layout, ALPHA, checkpoints=[100, 300])
        assert set(snapshots) == {100, 300}
        theta_100, _ = snapshots[100]
        theta_300, alpha_300 = snapshots[300]
        assert np.array_equal(theta_300, state.theta_nl)
        assert alpha_300 == state.theta_alpha
        assert not np.array_equal(theta_100, theta_300)


def default_member_pairs(idx, n):
    """Calibration pairs of default-config member idx (q = 3, D = 19)."""
    from pipecal.harness import _build_member, default_config

    cfg = default_config(11, algorithm="blhec-sgd")
    adc, path, layout = _build_member(cfg, idx)
    x = gen_tones(cfg.run_tones(cfg.cal_amplitude), n)
    return make_pairs(adc, x, path, np.random.SeedSequence(11, spawn_key=(idx, 2))), layout, cfg


def scaled_outputs(pairs, factor):
    """The same pairs with both outputs scaled: large enough errors diverge."""
    u, s = pairs.unscaled, pairs.scaled
    return PairBatch(ConversionBatch(u.y * factor, u.index),
                     ConversionBatch(s.y * factor, s.index))


@pytest.mark.parametrize("caller", ["run_sgd", "selection_vectors"])
@pytest.mark.parametrize("code", [8, 300, -1])
def test_code_index_outside_stage_is_rejected(code, caller):
    # stage 2 of the default converter has 7 codes; one forged scaled
    # conversion selects a code it does not have
    pairs, layout, cfg = default_member_pairs(0, 300)
    index = pairs.scaled.index.copy(order="F")
    index[150, 1] = code
    forged = ConversionBatch(pairs.scaled.y, index)
    with pytest.raises(LayoutError, match=f"stage 2 code index {code} at row 150 outside 1..7"):
        if caller == "run_sgd":
            run_sgd(PairBatch(pairs.unscaled, forged), layout, cfg.alpha_d)
        else:
            selection_vectors(forged, layout)


class TestSgdPopulation:
    """`run_sgd` on default population members, one member at a time, against
    the per-sample loop."""

    @pytest.mark.parametrize("lengths, rows", [
        ((1500,), slice(None)),
        ((1500, 1500, 1500), slice(None)),
        # a row slice starts 100 rows into each code column, whose stride is
        # still the full batch's length; a step slice strides the rows
        ((1500,), slice(100, 1300)),
        ((1500,), slice(None, None, 2)),
    ], ids=["lengths0", "lengths1", "row-offset", "row-step"])
    def test_matches_per_sample_loop_exactly(self, lengths, rows):
        # a checkpoint past the pairs' end is never reached
        checkpoints = [0, 100, 900, 1200, 1500, 2000]
        for idx, n in enumerate(lengths):
            pairs, layout, cfg = default_member_pairs(idx, n)
            pairs = pairs[rows]
            state, snapshots = run_sgd(pairs, layout, cfg.alpha_d, schedule=cfg.schedule(),
                                       checkpoints=checkpoints)
            want, want_snapshots = sgd_loop(pairs, layout, cfg.alpha_d, cfg.schedule(),
                                            checkpoints=checkpoints)
            assert np.array_equal(state.theta_nl, want.theta_nl)
            assert state.theta_alpha == want.theta_alpha
            assert (state.k, state.mu_nl, state.mu_alpha) == (want.k, want.mu_nl, want.mu_alpha)
            assert snapshots.keys() == want_snapshots.keys() == {k for k in checkpoints
                                                                 if k <= len(pairs)}
            for k, (theta_k, alpha_k) in want_snapshots.items():
                assert np.array_equal(snapshots[k][0], theta_k)
                assert snapshots[k][1] == alpha_k

    def test_matches_loop_across_rate_changes_and_chunks(self):
        # the step sizes halve at 350, 700 and 1050, off the 256-sample chunk
        # edges and the guard checks, and sit at the mu_nl_min floor from 1050 on
        schedule = StepSchedule(halve_every=350, mu_nl_min=2.0 ** -5)
        checkpoints = [256, 349, 350, 512, 1024, 1500]
        for idx in range(3):
            pairs, layout, cfg = default_member_pairs(idx, 1500)
            state, snapshots = run_sgd(pairs, layout, cfg.alpha_d, schedule=schedule,
                                       checkpoints=checkpoints)
            want, want_snapshots = sgd_loop(pairs, layout, cfg.alpha_d, schedule,
                                            checkpoints=checkpoints)
            assert np.array_equal(state.theta_nl, want.theta_nl)
            assert state.theta_alpha == want.theta_alpha
            assert (state.mu_nl, state.mu_alpha) == (want.mu_nl, want.mu_alpha) == (2.0 ** -5, 2.0 ** -6)
            assert snapshots.keys() == want_snapshots.keys() == set(checkpoints)
            for k, (theta_k, alpha_k) in want_snapshots.items():
                assert np.array_equal(snapshots[k][0], theta_k)
                assert snapshots[k][1] == alpha_k

    def test_exactness_streams_share_indicator_slots(self):
        # the exactness tests cover steps whose scaled and unscaled conversions
        # update the same indicator (-g, then +g*c): 413, 374 and 202 of 1500
        # steps in stages 1, 2 and 3 of member 0
        pairs, layout, _ = default_member_pairs(0, 1500)
        for i, slots in enumerate(layout.code_slots):
            cx, cax = pairs.unscaled.index[:, i], pairs.scaled.index[:, i]
            assert np.count_nonzero((cx == cax) & (slots[cx] >= 0)) > 100

    @staticmethod
    def assert_many_levels_match_loop(levels):
        adc = toy_adc(zetas=(0.013, -0.021), levels=levels, flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, delta=1e-3, n=1200)
        assert pairs.unscaled.index[:, 0].max() == levels
        schedule = StepSchedule(mu_nl_init=2.0 ** -4, halve_every=0)
        state, _ = run_sgd(pairs, layout, ALPHA, schedule=schedule)
        want, _ = sgd_loop(pairs, layout, ALPHA, schedule)
        assert np.array_equal(state.theta_nl, want.theta_nl)
        assert state.theta_alpha == want.theta_alpha

    def test_stage_with_more_than_127_levels_matches_loop(self):
        self.assert_many_levels_match_loop(200)

    def test_stage_with_more_than_255_levels_matches_loop(self):
        self.assert_many_levels_match_loop(300)

    def test_divergence_names_sample(self):
        pairs, layout, cfg = default_member_pairs(1, 2000)
        pairs = scaled_outputs(pairs, 40.0)
        with pytest.raises(DivergenceError) as want:
            sgd_loop(pairs, layout, cfg.alpha_d, cfg.schedule())
        sample = int(str(want.value).rsplit(" ", 1)[1])
        with pytest.raises(DivergenceError) as got:
            run_sgd(pairs, layout, cfg.alpha_d, schedule=cfg.schedule())
        assert got.value.member is None and got.value.sample == sample
        assert str(got.value) == str(want.value)


def assert_same_run(got, want):
    """Equal final states and snapshots of two adaptive runs, bit for bit."""
    (state, snapshots), (want_state, want_snapshots) = got, want
    assert np.array_equal(state.theta_nl, want_state.theta_nl)
    assert (state.theta_alpha, state.k, state.mu_nl, state.mu_alpha) == (
        want_state.theta_alpha, want_state.k, want_state.mu_nl, want_state.mu_alpha)
    assert snapshots.keys() == want_snapshots.keys()
    for k, (theta_k, alpha_k) in want_snapshots.items():
        assert np.array_equal(snapshots[k][0], theta_k)
        assert snapshots[k][1] == alpha_k


@pytest.fixture(params=[777, 1])
def small_chunks(request, monkeypatch):
    """run_sgd's chunk size, set so that chunk ends fall inside guard intervals
    (every 200 samples) and beside the checkpoints and halving stops."""
    monkeypatch.setattr(calibration, "SGD_CHUNK", request.param)
    return request.param


class TestChunkedRunSgd:
    """`run_sgd` over small chunks of a batch or of a lazy pair source,
    against the per-sample loop over the whole batch."""

    schedule = StepSchedule(halve_every=350, mu_nl_min=2.0 ** -5)
    checkpoints = [0, 200, 349, 350, 776, 777, 778, 1000, 1554, 1999, 2000]

    @staticmethod
    def member_source(idx, n, **overrides):
        """Member idx's calibration pairs as a lazy source, and as one batch."""
        from pipecal.harness import _build_member, default_config

        cfg = default_config(11, algorithm="blhec-sgd", **overrides)
        adc, path, layout = _build_member(cfg, idx)
        x = gen_tones(cfg.run_tones(cfg.cal_amplitude), n)
        seed = np.random.SeedSequence(11, spawn_key=(idx, 2))
        return PairSource(adc, x, path, seed), make_pairs(adc, x, path, seed), layout, cfg

    @pytest.mark.parametrize("lazy", [False, True], ids=["batch", "source"])
    def test_matches_per_sample_loop(self, small_chunks, lazy):
        source, pairs, layout, cfg = self.member_source(0, 2000)
        got = run_sgd(source if lazy else pairs, layout, cfg.alpha_d,
                      schedule=self.schedule, checkpoints=self.checkpoints)
        assert_same_run(got, sgd_loop(pairs, layout, cfg.alpha_d, self.schedule,
                                      checkpoints=self.checkpoints))

    @pytest.mark.parametrize("lazy", [False, True], ids=["batch", "source"])
    def test_chunks_on_both_sides_of_the_table_rule(self, small_chunks, lazy):
        # 5 levels at q = 4 give 625 code combinations: the 777-pair chunks read
        # them from the combination table and the last, 446-pair chunk from its
        # own rows; so does every chunk at chunk size 1
        source, pairs, layout, cfg = self.member_source(0, 2000, stage_gain=3.0, stage_levels=5, q=4)
        assert math.prod(layout.sizes) == 625
        got = run_sgd(source if lazy else pairs, layout, cfg.alpha_d,
                      schedule=self.schedule, checkpoints=self.checkpoints)
        assert_same_run(got, sgd_loop(pairs, layout, cfg.alpha_d, self.schedule,
                                      checkpoints=self.checkpoints))

    def test_more_combinations_than_a_chunk_match_loop(self):
        # 9 levels at q = 6: 531 441 code combinations, more than SGD_CHUNK pairs,
        # so each chunk, a full one too, reads its own rows; the default step
        # diverges at this D = 49, a quarter of it does not
        n = calibration.SGD_CHUNK + 500
        source, pairs, layout, cfg = self.member_source(0, n, stage_levels=9, pipeline_stages=6, q=6)
        assert math.prod(layout.sizes) > calibration.SGD_CHUNK
        schedule = StepSchedule(mu_nl_init=2.0 ** -6, halve_every=0)
        checkpoints = [1000, calibration.SGD_CHUNK, n]
        got = run_sgd(source, layout, cfg.alpha_d, schedule=schedule, checkpoints=checkpoints)
        assert_same_run(got, sgd_loop(pairs, layout, cfg.alpha_d, schedule,
                                      checkpoints=checkpoints))

    @staticmethod
    def stream_code_counts(pairs, layout):
        """Per-stage bincount of both batches' calibrated code columns."""
        width = layout.code_slots.shape[1]
        return np.array([np.bincount(pairs.unscaled.index[:, i], minlength=width)
                         + np.bincount(pairs.scaled.index[:, i], minlength=width)
                         for i in range(layout.q)])

    @pytest.mark.parametrize("lazy", [False, True], ids=["batch", "source"])
    def test_code_counts_cover_the_whole_stream(self, small_chunks, lazy):
        # the default layout's 777-pair chunks count through its 343-row
        # combination table; 9 levels at q = 6, like every chunk of one pair,
        # through the chunk's own rows
        per_row = dict(stage_levels=9, pipeline_stages=6, q=6)
        for overrides, schedule in [({}, self.schedule),
                                    (per_row, StepSchedule(mu_nl_init=2.0 ** -6, halve_every=0))]:
            source, pairs, layout, cfg = self.member_source(0, 2000, **overrides)
            assert (math.prod(layout.sizes) > calibration.SGD_CHUNK) == (
                bool(overrides) or small_chunks == 1)
            state, _ = run_sgd(source if lazy else pairs, layout, cfg.alpha_d, schedule=schedule)
            assert state.code_counts.dtype == np.int64
            assert np.array_equal(state.code_counts, self.stream_code_counts(pairs, layout))
            assert state.code_counts.sum() == 2 * layout.q * 2000

    def test_strided_view_matches_its_contiguous_copy(self, small_chunks):
        # the view's rows get the keys and tables of a contiguous copy's
        _, pairs, layout, cfg = self.member_source(0, 2000)
        view = pairs[::2]
        copy = PairBatch(*(ConversionBatch(c.y.copy(), c.index.copy(order="F"))
                           for c in (view.unscaled, view.scaled)))
        got = run_sgd(view, layout, cfg.alpha_d, schedule=self.schedule,
                      checkpoints=self.checkpoints)
        want = run_sgd(copy, layout, cfg.alpha_d, schedule=self.schedule,
                       checkpoints=self.checkpoints)
        assert_same_run(got, want)
        assert np.array_equal(got[0].code_counts, want[0].code_counts)
        assert np.array_equal(got[0].code_counts, self.stream_code_counts(copy, layout))

    def test_divergence_names_the_global_sample(self, small_chunks):
        # member 1's ||theta_nl||_inf first exceeds 0.0096 at the check at
        # 1800, inside the third 777-pair chunk
        source, pairs, layout, cfg = self.member_source(1, 2000)
        with pytest.raises(DivergenceError) as want:
            sgd_loop(pairs, layout, cfg.alpha_d, cfg.schedule(), guard=0.0096)
        assert str(want.value).endswith("at sample 1800")
        for stream in (pairs, source):
            with pytest.raises(DivergenceError) as got:
                run_sgd(stream, layout, cfg.alpha_d, schedule=cfg.schedule(), guard=0.0096)
            assert got.value.sample == 1800
            assert str(got.value) == str(want.value)

    def test_forged_code_in_the_last_chunk(self, small_chunks):
        # the message numbers the row in the whole stream, as the loop's does
        _, pairs, layout, cfg = self.member_source(0, 2000)
        index = pairs.scaled.index.copy(order="F")
        index[1999, 2] = 9
        forged = PairBatch(pairs.unscaled, ConversionBatch(pairs.scaled.y, index))
        with pytest.raises(LayoutError) as want:
            sgd_loop(forged, layout, cfg.alpha_d, cfg.schedule())
        with pytest.raises(LayoutError, match="stage 3 code index 9 at row 1999 outside 1..7") as got:
            run_sgd(forged, layout, cfg.alpha_d, schedule=cfg.schedule())
        assert str(got.value) == str(want.value)

    def test_uneven_slice_is_rejected_before_the_kernel_reads_it(self, small_chunks):
        # the kernel reads both sides of a slice by address: a pair source whose
        # last slice has one conversion fewer on its scaled side is stopped by
        # the length check PairStatistics makes, not read past its end
        _, pairs, layout, cfg = self.member_source(0, 2000)

        class Uneven:
            def __len__(self):
                return len(pairs)

            def __getitem__(self, rows):
                chunk = pairs[rows]
                if rows.stop == len(pairs):
                    chunk.scaled = chunk.scaled[:-1]
                return chunk

        with pytest.raises(ValueError, match="pair sides differ in length"):
            run_sgd(Uneven(), layout, cfg.alpha_d, schedule=cfg.schedule())

    def test_convergence_sweep_with_n_cal_above_the_chunk(self, monkeypatch):
        from pipecal.harness import default_config, run_sweep

        monkeypatch.setattr(calibration, "SGD_CHUNK", 777)
        cfg = default_config(11, algorithm="blhec-sgd", population=2, n_cal=1600,
                             n_fft=4096, eval_samples=4096)
        grid = [500, 1600, 2500]
        small = run_sweep("convergence", cfg, grid)
        monkeypatch.setattr(calibration, "SGD_CHUNK", 1 << 20)     # one chunk per member
        whole = run_sweep("convergence", cfg, grid)
        assert whole.error_norms == small.error_norms
        for point in whole.points:
            for a, b in zip(small.rows[point], whole.rows[point]):
                assert (a.post_sfdr_db, a.post_sndr_db, a.theta_alpha) == (
                    b.post_sfdr_db, b.post_sndr_db, b.theta_alpha)


class TestMeanConvergence:
    def test_scalar_parameter_converges_in_the_mean(self):
        # frozen theta_nl = 0: theta_alpha alone converges in the mean toward
        # the fixed-vector Wiener value; the mean error at N must be below
        # half its value at N/4
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        n = 1600
        x = gen_tones([ToneSpec(0.677, 0.9)], n)
        mu_alpha = 0.002     # slow enough that the halving check sits mid-transient

        runs = []
        targets = []
        for seed in range(100):
            pairs = make_pairs(adc, x, PathConfig(ALPHA + 2e-3, ALPHA, 40.0, "independent"), seed)
            stats = accumulate_statistics(pairs, layout, ALPHA)
            r_yy, r_yya = stats.output_powers(np.zeros(layout.dim))
            targets.append(r_yya / r_yy - ALPHA)
            trace = np.empty(n)
            ta = 0.0
            y_x, y_ax = pairs.unscaled.y.tolist(), pairs.scaled.y.tolist()
            for k in range(n):
                e = y_ax[k] - (ALPHA + ta) * y_x[k]
                ta += mu_alpha * y_x[k] * e
                trace[k] = ta
            runs.append(trace)
        mean_err = np.abs(np.mean(runs, axis=0) - float(np.mean(targets)))
        assert mean_err[-1] <= 0.5 * mean_err[n // 4]


class TestComplexityAudit:
    def test_multiplication_budget_q3(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        x = gen_tones([ToneSpec(0.677, 0.995)], 3)
        pairs = make_pairs(mismatched_adc, x, PathConfig(ALPHA, ALPHA, None), 0)
        theta_nl, theta_alpha, count = counted_step(np.zeros(layout.dim), 0.0, pairs[1:2],
                                                    layout, ALPHA, 2.0 ** -6, 2.0 ** -7)
        assert count.nl == 19
        assert count.alpha == 3
        # and the counted step computes the production kernel's update
        kernel, _ = run_sgd(pairs[1:2], layout, ALPHA, StepSchedule(2.0 ** -6, 0, 2.0 ** -6, 0.5))
        assert np.allclose(theta_nl, kernel.theta_nl, atol=1e-15)
        assert theta_alpha == pytest.approx(kernel.theta_alpha, abs=1e-16)

    def test_multiplication_budget_matches_dimension(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=30)
        _, _, count = counted_step(np.zeros(layout.dim), 0.0, pairs[0:1], layout, ALPHA,
                                   2.0 ** -6, 2.0 ** -7)
        assert count.nl == layout.dim == 5
        assert count.alpha == 3


class TestKernelBuild:
    def test_two_processes_build_and_load_at_once(self, tmp_path):
        # both may compile; each renames a finished file into place
        script = ("import ctypes, sys; from pathlib import Path; "
                  "from pipecal.kernels import _build_kernel; "
                  "lib = ctypes.CDLL(str(_build_kernel(Path(sys.argv[1])))); "
                  "lib.pipecal_sgd, lib.pipecal_convert; print('loaded')")
        src = str(Path(kernels.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outs
        assert [out for out, _ in outs] == ["loaded\n"] * 2
        # one library and no temporary file left behind
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]

    def test_source_compiles_without_warnings(self, tmp_path):
        # -Wextra names a parameter that a signature change leaves unused;
        # both builds: the clones, and the plain function of the guard's other side
        if shutil.which(kernels._compiler()[0]) is None:
            pytest.skip(f"no C compiler {kernels._compiler()[0]!r} on this host")
        for build, extra in (("clones", []), ("plain", ["-DPIPECAL_PLAIN"])):
            cmd = [*kernels._compiler(), *kernels._KERNEL_FLAGS, *extra, "-Wall", "-Wextra",
                   "-Werror", "-o", str(tmp_path / f"kernels-{build}.so"),
                   str(kernels._KERNEL_SOURCE)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            assert done.returncode == 0, (build, done.stderr)

    def test_missing_compiler_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "_compiler", lambda: ["pipecal-no-such-cc"])
        with pytest.raises(KernelBuildError, match="pipecal-no-such-cc"):
            _build_kernel(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_cache_directory_that_cannot_be_made_is_a_build_error(self, tmp_path):
        # a regular file where the cache directory's parent should be
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(KernelBuildError, match="could not build"):
            _build_kernel(blocker / "cache")
        assert blocker.read_text() == ""

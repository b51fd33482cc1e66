import math

import numpy as np
import pytest

from helpers import (
    dense_blhec,
    dense_mse,
    dense_r_hh,
    dense_r_hy,
    dense_r_yy,
    dense_r_yya,
    dense_ramp,
    ls_fit,
    naive_selection_dense,
    toy_adc,
)

from pipecal.adc import ConversionRecord, convert_many, lsb_size
from pipecal.calibration import (
    CalibrationState,
    DivergenceError,
    RankDeficiencyError,
    SingularStatisticsError,
    StepSchedule,
    _solve_spd,
    accumulate_statistics,
    blhec_wiener,
    hec_wiener,
    pair_arrays,
    run_sgd,
    sgd_step,
    sgd_step_counted,
    step_size_bounds,
)
from pipecal.correction import CorrectionLayout, selection_vector
from pipecal.signals import PairBatch, PathConfig, SamplePair, ToneSpec, gen_tones, make_pairs

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
        stats = accumulate_statistics(pairs, layout, ALPHA, n=2000)
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
        for pair in pairs:
            hx = naive_selection_dense(pair.unscaled, layout)
            hax = naive_selection_dense(pair.scaled, layout)
            dh = hax - ALPHA * hx
            dy = pair.scaled.output - ALPHA * pair.unscaled.output
            r_hh += np.outer(dh, dh)
            r_hy += dh * dy
        assert np.max(np.abs(stats.r_hh(0.0) - r_hh / n)) < 1e-12
        assert np.max(np.abs(stats.r_hy(0.0) - r_hy / n)) < 1e-12

    def test_requires_enough_samples(self):
        adc = toy_with_mismatch()
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=21)
        with pytest.raises(ValueError):
            accumulate_statistics(pairs, layout, ALPHA, n=3)


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
        r_hx = stats.delta_h(0.0).T @ (adc.total_gain * x) / stats.n
        predicted = theta0 - delta * np.linalg.solve(stats.r_hh(0.0), r_hx)
        assert np.max(np.abs(theta - predicted)) < 1e-9


class TestBlhecWiener:
    def test_ideal_adc_idle(self):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc)
        res = blhec_wiener(pairs, layout, ALPHA)
        assert abs(res.theta_alpha) < 1e-9
        assert np.max(np.abs(res.theta_nl)) < 1e-9

    @pytest.mark.parametrize("delta", [1e-3, -1e-3, 1e-2, -1e-2])
    def test_recovers_injected_scaling_mismatch(self, delta):
        adc = toy_with_mismatch(flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, delta=delta)
        res = blhec_wiener(pairs, layout, ALPHA)
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
            theta = -np.linalg.solve(stats.r_hh(ta), stats.r_hy(ta))
            profile.append(stats.mse(ta, theta))
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
        profile = np.array([stats.mse(ta, -np.linalg.solve(stats.r_hh(ta), stats.r_hy(ta)))
                            for ta in grid])
        minima = [float(grid[i]) for i in range(1, len(grid) - 1)
                  if profile[i] < profile[i - 1] and profile[i] < profile[i + 1]]
        assert any(abs(m - 0.1) <= 0.02 for m in minima)
        assert any(abs(m + 0.5) <= 0.06 for m in minima)
        res = blhec_wiener(stats, max_iterations=100)
        assert abs(res.theta_alpha - 0.1) <= 2e-3

    def test_mse_trajectory_monotone_within_noise(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, delta=3e-3, snr_db=70.0, seed=5)
        res = blhec_wiener(pairs, layout, ALPHA)
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
            pairs = make_pairs(adc, x, path, _seed_for(cfg, idx, _ROLE_CAL_NOISE))
            out.append(accumulate_statistics(pairs, layout, cfg.alpha_d, n=cfg.n_cal))
        return out

    def test_blhec_matches_dense_oracle(self, member_stats):
        outcomes = set()
        for stats in member_stats:
            res = blhec_wiener(stats)
            theta_nl, theta_alpha, mse, iterations, converged = dense_blhec(stats)
            assert res.iterations == iterations
            assert res.converged == converged
            assert np.max(np.abs(res.theta_nl - theta_nl)) <= 1e-8 * np.max(np.abs(theta_nl))
            assert abs(res.theta_alpha - theta_alpha) <= 1e-12
            assert np.allclose(res.mse, mse, rtol=1e-9, atol=0.0)
            outcomes.add(converged)
        # both stop rules are exercised: the tolerance and the iteration cap
        assert outcomes == {True, False}

    def test_statistics_match_dense_formulas(self, member_stats):
        for stats in member_stats:
            res = blhec_wiener(stats)
            for ta, theta in ((0.0, np.zeros(stats.dim)), (res.theta_alpha, res.theta_nl)):
                assert np.max(np.abs(stats.r_hh(ta) - dense_r_hh(stats, ta))) < 1e-12
                assert np.max(np.abs(stats.r_hy(ta) - dense_r_hy(stats, ta))) < 1e-12
                assert abs(stats.r_yy(theta) - dense_r_yy(stats, theta)) < 1e-12
                assert abs(stats.r_yya(theta) - dense_r_yya(stats, theta)) < 1e-12
                assert abs(stats.mse(ta, theta) - dense_mse(stats, ta, theta)) < 1e-12
                assert stats.mse(ta, theta) == pytest.approx(
                    float(np.mean(stats.errors(ta, theta) ** 2)), rel=1e-6)

    def test_solve_spd_checks_definiteness_and_condition(self):
        r = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        assert np.allclose(_solve_spd(r, b), np.linalg.solve(r, b), rtol=1e-14, atol=0.0)
        with pytest.raises(SingularStatisticsError):
            _solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), b)      # indefinite
        with pytest.raises(SingularStatisticsError):
            _solve_spd(np.diag([1.0, 1e-13]), b)                    # cond 1e13
        with pytest.raises(SingularStatisticsError):
            _solve_spd(np.full((2, 2), np.nan), b)


def one_hot_pair(y_x, y_ax, layout):
    """Fabricated sample pair whose regressors are one-hot on the middle code."""
    rec = lambda y: ConversionRecord(output=y, stage_index=(2, 1), stage_value=(0.0, 0.0), x_in=0.0)
    return SamplePair(unscaled=rec(y_x), scaled=rec(y_ax), index=0)


class TestSgdStep:
    layout = CorrectionLayout(sizes=(3,), gains=(2.0,))

    def test_zero_step_sizes_freeze_state(self):
        pair = one_hot_pair(0.5, 0.3, self.layout)
        state = CalibrationState.initial(self.layout, mu_nl=0.0, mu_alpha=0.0)
        out = sgd_step(state, pair, self.layout, alpha_d=0.7)
        assert out.theta_alpha == 0.0
        assert np.array_equal(out.theta_nl, state.theta_nl)
        assert out.k == 1

    def test_hand_fed_scalars_match_symbolic_evaluation(self):
        mu_nl, mu_alpha = 0.25, 0.125
        alpha_d, y_x, y_ax = 0.7, 0.5, 0.3
        pair = one_hot_pair(y_x, y_ax, self.layout)
        state = CalibrationState.initial(self.layout, mu_nl=mu_nl, mu_alpha=mu_alpha)
        out = sgd_step(state, pair, self.layout, alpha_d)

        e_alpha = y_ax - alpha_d * y_x
        ta = mu_alpha * y_x * e_alpha
        e_nl = y_ax - (alpha_d + ta) * y_x
        h = np.array([0.0, 1.0, 0.0])
        expected = -mu_nl * (h - (alpha_d + ta) * h) * e_nl
        assert out.theta_alpha == pytest.approx(ta, abs=1e-16)
        assert np.allclose(out.theta_nl, expected, atol=1e-16)

    def test_posterior_alpha_error_identity(self):
        rng = np.random.default_rng(0)
        layout = self.layout
        for _ in range(200):
            y_x, y_ax = rng.normal(size=2)
            mu_alpha = rng.uniform(0.0, 1.0)
            pair = one_hot_pair(y_x, y_ax, layout)
            state = CalibrationState.initial(layout, mu_nl=0.125, mu_alpha=mu_alpha)
            state.theta_nl = rng.normal(scale=0.01, size=layout.dim)
            state.theta_alpha = rng.normal(scale=0.01)
            alpha_d = 0.7
            out = sgd_step(state, pair, layout, alpha_d)

            hx = selection_vector(pair.unscaled, layout)
            yx_hat = y_x + hx.dot(state.theta_nl)
            yax_hat = y_ax + hx.dot(state.theta_nl)
            e_prior = yax_hat - (alpha_d + state.theta_alpha) * yx_hat
            e_post = yax_hat - (alpha_d + out.theta_alpha) * yx_hat
            factor = 1.0 - mu_alpha * yx_hat ** 2
            assert e_post == pytest.approx(factor * e_prior, abs=1e-12)

    def test_only_regressor_slots_change(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        x = gen_tones([ToneSpec(0.677, 0.995)], 5)
        pairs = make_pairs(mismatched_adc, x, PathConfig(ALPHA, ALPHA, None), 0)
        pair = pairs.pair(3)
        state = CalibrationState.initial(layout)
        out = sgd_step(state, pair, layout, ALPHA)
        touched = set(np.flatnonzero(out.theta_nl != state.theta_nl))
        allowed = set(selection_vector(pair.unscaled, layout).positions)
        allowed |= set(selection_vector(pair.scaled, layout).positions)
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

        checks = 0
        for k in range(n):
            pair = pairs.pair(k)
            state = CalibrationState.initial(layout)
            state.theta_nl = rng.normal(scale=0.005, size=layout.dim)
            state.theta_alpha = rng.normal(scale=0.005)

            hx = selection_vector(pair.unscaled, layout)
            hax = selection_vector(pair.scaled, layout)
            yx_hat = pair.unscaled.output + hx.dot(state.theta_nl)
            yax_hat = pair.scaled.output + hax.dot(state.theta_nl)

            # scalar path at its per-sample bound
            bound_alpha = 2.0 / yx_hat ** 2
            state.mu_alpha = rng.uniform(0.0, bound_alpha)
            out = sgd_step(state, pair, layout, ALPHA)
            e_prior = yax_hat - (ALPHA + state.theta_alpha) * yx_hat
            e_post = yax_hat - (ALPHA + out.theta_alpha) * yx_hat
            assert abs(e_post) <= abs(e_prior) + 1e-15

            # vector path at its per-sample bound, holding theta_alpha fixed
            c = ALPHA + out.theta_alpha
            dh = hax.dense() - c * hx.dense()
            norm2 = float(dh @ dh)
            mu_nl = rng.uniform(0.0, 2.0 / norm2)
            e_nl = yax_hat - c * yx_hat
            theta_after = state.theta_nl - mu_nl * dh * e_nl
            e_nl_post = (pair.scaled.output + hax.dot(theta_after)
                         - c * (pair.unscaled.output + hx.dot(theta_after)))
            assert abs(e_nl_post) <= abs(e_nl) + 1e-15
            checks += 2
        assert checks == 2 * n

    def test_above_bound_strictly_grows_error(self):
        layout = CorrectionLayout(sizes=(3,), gains=(2.0,))
        pair = one_hot_pair(0.5, 0.3, layout)
        y_x = 0.5
        bound = 2.0 / y_x ** 2
        state = CalibrationState.initial(layout, mu_nl=0.0, mu_alpha=1.5 * bound)
        out = sgd_step(state, pair, layout, alpha_d=0.7)
        e_prior = 0.3 - 0.7 * 0.5
        e_post = 0.3 - (0.7 + out.theta_alpha) * 0.5
        assert abs(e_post) > abs(e_prior)


class TestStepSizeBounds:
    def test_full_scale_alpha_bound_is_two(self):
        layout = CorrectionLayout(sizes=(3,), gains=(2.0,))
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
        h = selection_vector(pairs.unscaled.record(0), layout).dense()
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
        layout = CorrectionLayout(sizes=(3,), gains=(2.0,))
        with pytest.raises(ValueError):
            step_size_bounds(layout, 0.0)


class TestRunSgd:
    def test_empty_stream_returns_zero_state(self):
        adc = toy_with_mismatch(flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=30)
        state, traj = run_sgd(pairs.head(0), layout, ALPHA)
        assert state.k == 0
        assert state.theta_alpha == 0.0
        assert np.all(state.theta_nl == 0.0)

    def test_matches_repeated_single_steps(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, delta=1e-3, n=200)
        schedule = StepSchedule(mu_nl_init=2.0 ** -4, halve_every=0)
        fast, _ = run_sgd(pairs, layout, ALPHA, schedule=schedule)

        state = CalibrationState.initial(layout, mu_nl=2.0 ** -4, mu_alpha=2.0 ** -5)
        for pair in pairs:
            state = sgd_step(state, pair, layout, ALPHA)
        assert state.theta_alpha == pytest.approx(fast.theta_alpha, abs=1e-13)
        assert np.allclose(state.theta_nl, fast.theta_nl, atol=1e-13)

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
        ref = blhec_wiener(pairs.head(2000), layout, ALPHA)
        schedule = StepSchedule(mu_nl_init=2.0 ** -2, halve_every=0)
        state, traj = run_sgd(pairs, layout, ALPHA, schedule=schedule,
                              reference=ref.theta_nl, log_every=500)
        assert traj.error_norm[-1] < 0.1 * traj.error_norm[0]
        assert abs(state.theta_alpha - ref.theta_alpha) < 1e-4

    def test_error_norm_shrinks_averaged_over_runs(self):
        # average final-to-initial error-norm ratio over many independent runs
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
            ref = blhec_wiener(pairs.head(2000), layout, ALPHA)
            schedule = StepSchedule(mu_nl_init=2.0 ** -2, halve_every=0)
            _, traj = run_sgd(pairs, layout, ALPHA, schedule=schedule,
                              reference=ref.theta_nl, log_every=8000)
            ratios.append(traj.error_norm[-1] / traj.error_norm[0])
        assert float(np.mean(ratios)) < 0.1

    def test_divergence_guard(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=2000)
        schedule = StepSchedule(mu_nl_init=64.0, halve_every=0, mu_nl_min=64.0)
        with pytest.raises(DivergenceError):
            run_sgd(pairs, layout, ALPHA, schedule=schedule, log_every=50)

    def test_checkpoints_capture_snapshots(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=300)
        state, traj = run_sgd(pairs, layout, ALPHA, checkpoints=[100, 300])
        assert set(traj.checkpoints) == {100, 300}
        theta_100, _ = traj.checkpoints[100]
        theta_300, alpha_300 = traj.checkpoints[300]
        assert np.array_equal(theta_300, state.theta_nl)
        assert alpha_300 == state.theta_alpha
        assert not np.array_equal(theta_100, theta_300)


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
            zero = np.zeros(layout.dim)
            targets.append(stats.r_yya(zero) / stats.r_yy(zero) - ALPHA)
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
        state = CalibrationState.initial(layout)
        out, count = sgd_step_counted(state, pairs.pair(1), layout, ALPHA)
        assert count.nl == 19
        assert count.alpha == 3
        # and the counted step computes the very same update
        plain = sgd_step(state, pairs.pair(1), layout, ALPHA)
        assert np.allclose(out.theta_nl, plain.theta_nl, atol=1e-15)
        assert out.theta_alpha == pytest.approx(plain.theta_alpha, abs=1e-16)

    def test_multiplication_budget_matches_dimension(self):
        adc = toy_with_mismatch(flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        pairs, _ = toy_pairs(adc, n=30)
        state = CalibrationState.initial(layout)
        _, count = sgd_step_counted(state, pairs.pair(0), layout, ALPHA)
        assert count.nl == layout.dim == 5
        assert count.alpha == 3

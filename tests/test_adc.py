import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    RecordMismatchError,
    dense_ramp,
    random_toy,
    reference_output,
    searchsorted_convert,
    second_blas_kernel_missing,
    toy_adc,
    toy_stage,
    total_gain,
    under_two_blas_kernels,
)

from pipecal import kernels
from pipecal.adc import (
    AdcInstance,
    AdcModelError,
    ConversionBatch,
    MismatchConfig,
    MismatchSet,
    StageSpec,
    build_adc,
    convert_many,
    default_stage_specs,
    lsb_size,
    flash_stage_spec,
    pipeline_stage_specs,
)


def stage_one_codes(stage, x):
    """Stage 1's code indices and code values for the inputs x, read from
    `convert_many` on a one-stage converter with the exact back end."""
    adc = AdcInstance(stages=(stage,), flash=None, resolution_bits=13,
                      mismatches=MismatchSet((0.0,), ((0.0,) * stage.levels,)))
    j = convert_many(adc, np.atleast_1d(x)).index[:, 0]
    return j, stage.code_table[j]


class TestQuantizeStage:
    """The stage rule: code 1 up to the first threshold, code p above the last."""
    stage = StageSpec(codes=(-0.5, 0.0, 0.5), thresholds=(-0.25, 0.25))

    def select(self, x):
        j, code = stage_one_codes(self.stage, x)
        return list(zip(j.tolist(), code.tolist()))

    def test_above_last_threshold_clips_to_top_code(self):
        assert self.select(0.3) == [(3, 0.5)]

    def test_boundary_belongs_to_lower_code(self):
        assert self.select(-0.25) == [(1, -0.5)]

    def test_middle_interval(self):
        assert self.select(0.0) == [(2, 0.0)]

    def test_total_function_far_out_of_range(self):
        assert self.select([-7.0, 7.0]) == [(1, -0.5), (3, 0.5)]

    @pytest.mark.parametrize("levels", [7, 200, 300])
    def test_threshold_count_matches_searchsorted(self, levels):
        # 7 levels count in one pass per threshold, 200 and 300 by bisection
        stage = pipeline_stage_specs(levels)
        t = np.asarray(stage.thresholds)
        x = np.concatenate([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                            np.random.default_rng(11).uniform(-1.5, 1.5, 5000),
                            [-1.0, 0.0, 1.0]])
        j, code = stage_one_codes(stage, x)
        assert np.array_equal(j, np.searchsorted(t, x, side="left") + 1)
        assert np.array_equal(code, np.asarray(stage.codes)[j - 1])


class TestStageValidation:
    def test_rejects_non_monotone_thresholds(self):
        with pytest.raises(AdcModelError):
            StageSpec(codes=(-0.5, 0.0, 0.5), thresholds=(0.25, -0.25))

    def test_rejects_wrong_threshold_count(self):
        with pytest.raises(AdcModelError):
            StageSpec(codes=(-0.5, 0.0, 0.5), thresholds=(0.0,))

    def test_rejects_non_increasing_codes(self):
        with pytest.raises(AdcModelError):
            StageSpec(codes=(0.5, 0.0, -0.5), thresholds=(-0.25, 0.25))

    @pytest.mark.parametrize("gain", [0.0, -4.0, math.nan])
    def test_rejects_non_positive_gain(self, gain):
        # the digital weights divide by the gain
        with pytest.raises(AdcModelError, match="stage gain must be positive"):
            StageSpec(codes=(-0.5, 0.0, 0.5), thresholds=(-0.25, 0.25), gain=gain)


class TestLsbSize:
    def test_exact_power_of_two_up_to_1023_bits(self):
        for bits in (0, 1, 13, 52, 1022, 1023):
            assert lsb_size(bits) == 2 / 2 ** bits

    @pytest.mark.parametrize("bits", [1024, 2000, -1075])
    def test_no_float_lsb_is_a_model_error(self, bits):
        # 2**bits overflows a float, or underflows to 0
        with pytest.raises(AdcModelError, match=f"resolution_bits={bits} has no float LSB"):
            lsb_size(bits)


class TestBuildAdc:
    def test_zero_bounds_give_exactly_zero_mismatch(self):
        stages, flash = default_stage_specs()
        adc = build_adc(stages, flash, MismatchConfig(gain_bound_lsb=0.0, dac_bound_lsb=0.0), seed=7)
        assert all(z == 0.0 for z in adc.mismatches.gain_mismatch)
        assert all(v == 0.0 for e in adc.mismatches.dac_errors for v in e)

    def test_default_geometry(self):
        stages, flash = default_stage_specs()
        assert len(stages) == 5
        assert all(s.levels == 7 and s.gain == 4.0 for s in stages)
        assert stages[0].codes == tuple(np.arange(-3, 4) / 4.0)
        assert stages[0].thresholds == (-0.625, -0.375, -0.125, 0.125, 0.375, 0.625)
        assert flash.levels == 8
        assert flash.codes[0] == -0.875 and flash.codes[-1] == 0.875

    def test_same_seed_is_bit_identical(self):
        stages, flash = default_stage_specs()
        a = build_adc(stages, flash, MismatchConfig(), seed=123)
        b = build_adc(stages, flash, MismatchConfig(), seed=123)
        assert a.mismatches == b.mismatches
        x = dense_ramp(501)
        assert np.array_equal(convert_many(a, x).y, convert_many(b, x).y)

    def test_rejects_dac_bound_reordering_codes(self):
        stages, flash = default_stage_specs()
        # default code pitch is 0.25; a bound of half the pitch can reorder
        bad = MismatchConfig(dac_bound_lsb=0.125 / lsb_size(13))
        with pytest.raises(AdcModelError):
            build_adc(stages, flash, bad, seed=0)

    def test_rejects_gain_bound_beyond_unity(self):
        stages, flash = default_stage_specs()
        bad = MismatchConfig(gain_bound_lsb=1.1 / lsb_size(13), gain_error_reference=1.0)
        with pytest.raises(AdcModelError):
            build_adc(stages, flash, bad, seed=0)

    def test_literal_gain_bound_semantics(self):
        stages, flash = default_stage_specs()
        adc = build_adc(stages, flash, MismatchConfig(gain_error_reference=1.0), seed=5)
        bound = 25.0 * lsb_size(13)
        assert all(abs(z) <= bound for z in adc.mismatches.gain_mismatch)

    def test_ideal_stages_zeroed_without_changing_others(self):
        stages, flash = default_stage_specs()
        full = build_adc(stages, flash, MismatchConfig(), seed=9)
        part = build_adc(stages, flash, MismatchConfig(), seed=9, ideal_stages=3)
        assert part.mismatches.gain_mismatch[:3] == (0.0, 0.0, 0.0)
        assert part.mismatches.gain_mismatch[3:] == full.mismatches.gain_mismatch[3:]
        assert part.mismatches.dac_errors[3:] == full.mismatches.dac_errors[3:]


class TestConvert:
    def test_zero_input_toy_gives_exact_zero(self):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        assert convert_many(adc, [0.0]).y[0] == 0.0

    def test_ideal_composite_within_half_final_step(self, ideal_adc):
        x = dense_ramp(20001)
        y = convert_many(ideal_adc, x).y
        # final flash step is 0.25, weighted by 1/4^5
        bound = 0.125 / 1024.0
        assert np.max(np.abs(y - x)) <= bound + 1e-15

    def test_ideal_transfer_monotone(self, ideal_adc):
        y = convert_many(ideal_adc, dense_ramp(20001)).y
        assert np.all(np.diff(y) >= -1e-15)

    def test_single_dac_error_shifts_output_by_that_error(self):
        eps = 1e-3
        clean = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        dirty = toy_adc(zetas=(0.0, 0.0), dac_errors=((0.0, eps, 0.0), (0.0, 0.0, 0.0)),
                        flash_bits=None)
        # inputs selecting code 2 of stage 1
        x = [-0.1, 0.0, 0.2]
        y0 = convert_many(clean, x).y
        y1 = convert_many(dirty, x).y
        assert y1 == pytest.approx(y0 - eps, abs=1e-15)

    def test_error_weighting_law(self):
        # injecting eps at stage i changes the output by -eps*(1+zeta_i)/prod(G_j<i)
        eps = 2e-3
        for i, zeta in ((0, 0.05), (1, -0.08)):
            zetas = [0.0, 0.0]
            zetas[i] = zeta
            dac = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
            clean = toy_adc(zetas=tuple(zetas), flash_bits=None)
            dac[i][1] = eps
            dirty = toy_adc(zetas=tuple(zetas), dac_errors=dac, flash_bits=None)
            weight = (1.0 + zeta) / (2.0 ** i)
            # |x| <= 0.12 keeps both stages in their middle code
            x = np.linspace(-0.12, 0.12, 7)
            delta = convert_many(dirty, x).y - convert_many(clean, x).y
            assert delta == pytest.approx(-eps * weight, abs=1e-14)

    def test_rejects_non_finite_input(self, ideal_adc):
        with pytest.raises(ValueError):
            convert_many(ideal_adc, [float("nan")])

    def test_records_expose_all_stage_codes(self, mismatched_adc):
        batch = convert_many(mismatched_adc, [0.33])
        index = batch.index[0]
        assert len(index) == 6
        assert all(1 <= j <= 7 for j in index[:5])
        assert 1 <= index[5] <= 8


class TestConvertKernel:
    """`convert_many` against the row-major searchsorted oracle, bit for bit."""

    @staticmethod
    def assert_same(adc, x):
        got, want = convert_many(adc, x), searchsorted_convert(adc, x)
        assert np.array_equal(got.y.view(np.uint64), want.y.view(np.uint64)), "y bits"
        assert np.array_equal(got.index, want.index), "index"
        assert got.index.dtype == np.int64
        assert got.index.flags.f_contiguous

    @pytest.mark.parametrize("n, overrides", [
        pytest.param(2000, {}, id="2000"),
        pytest.param(16384, {}, id="16384"),
        # weights 1/3**i: a BLAS product of the code values, or a sum in
        # another order, rounds some rows differently; this pins the fixed
        # stage order
        pytest.param(16384, {"stage_gain": 3.0, "stage_levels": 5}, id="16384-gain3-levels5"),
    ])
    def test_matches_oracle_on_population_members(self, n, overrides):
        from pipecal.harness import _build_member, default_config

        cfg = default_config(11, **overrides)
        x = np.random.default_rng(11).uniform(-1.0, 1.0, n)
        for idx in range(10):
            self.assert_same(_build_member(cfg, idx)[0], x)

    @pytest.mark.parametrize("flash", [True, False], ids=["flash", "exact-back-end"])
    def test_matches_oracle_on_thresholds_and_overload(self, mismatched_adc, ideal_adc, flash):
        # stage-1 thresholds, and the same divided by 4**k so that an ideal
        # converter's later stages see residues exactly on their thresholds
        t = np.asarray(mismatched_adc.stages[0].thresholds)
        on = np.concatenate([t / 4.0 ** k for k in range(5)])
        x = np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf),
                            [-7.0, -1.5, np.nextafter(-1.0, -np.inf), -1.0,
                             1.0, np.nextafter(1.0, np.inf), 1.5, 7.0]])
        for adc in (mismatched_adc, ideal_adc):
            self.assert_same(adc if flash else dataclasses.replace(adc, flash=None), x)


    @pytest.fixture(params=["clones", "plain"])
    def kernel_build(self, request, monkeypatch):
        """`convert_many` on each build of the one source: with the per-ISA clones, and
        as the plain function that the source's guard leaves where ifunc is missing."""
        if request.param == "plain":
            monkeypatch.setattr(kernels, "_KERNEL_FLAGS",
                                (*kernels._KERNEL_FLAGS, "-DPIPECAL_PLAIN"))
        kernels.library.cache_clear()
        yield request.param
        kernels.library.cache_clear()     # before the flags are restored

    @pytest.mark.parametrize("overrides, n_random", [
        ({}, 16384), ({"stage_gain": 3.0, "stage_levels": 5}, 16384), ({"stage_levels": 9}, 16384),
        ({"flash_bits": 1}, 16384), ({"flash_bits": 16}, 16384),
        # stages on either side of the kernel's BISECT_ABOVE = 100 thresholds: a 3-bit flash
        # (7) and the 6-threshold stages scan them, a 12-bit flash (4095) and a 200-level
        # pipeline stage (199, each seen exactly at its thresholds) bisect them
        ({"flash_bits": 12}, 16384), ({"stage_levels": 200, "dac_bound_lsb": 10.0}, 16384),
    ], ids=["default", "gain3-levels5", "levels9", "flash1", "flash16", "flash12", "levels200"])
    def test_each_build_matches_oracle_on_every_layout(self, kernel_build, overrides, n_random):
        from pipecal.harness import _build_member, default_config

        adc = _build_member(default_config(11, **overrides), 0)[0]
        ideal = dataclasses.replace(adc, mismatches=MismatchSet(
            (0.0,) * adc.n_stages, tuple((0.0,) * s.levels for s in adc.stages)))
        # stage-1 thresholds, and the same divided by G**k, where an ideal
        # converter's stage k sees them again; then one ulp either side, and +-1
        first = adc.stages[0]
        on = np.concatenate([np.asarray(first.thresholds) / first.gain ** k
                             for k in range(adc.n_stages)])
        x = np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf),
                            [-1.0, 1.0, np.nextafter(-1.0, -np.inf), np.nextafter(1.0, np.inf)],
                            np.random.default_rng(11).uniform(-1.0, 1.0, n_random)])
        for converter in (adc, ideal, dataclasses.replace(adc, flash=None)):
            for n in sorted({0, 1, 3, 257, min(16384, x.size), x.size}):
                self.assert_same(converter, x[:n])


_NO_SECOND_BLAS_KERNEL = second_blas_kernel_missing()


@pytest.mark.skipif(bool(_NO_SECOND_BLAS_KERNEL), reason=_NO_SECOND_BLAS_KERNEL)
def test_y_does_not_depend_on_the_blas_kernel():
    # at gain 3 a BLAS product of the code values rounds some rows by kernel
    script = ("import hashlib, sys; from pipecal.harness import default_config, evaluation_batch; "
              "cfg = default_config(11, stage_gain=3.0, stage_levels=5); "
              "h = hashlib.sha256(); [h.update(evaluation_batch(cfg, i).y) for i in range(4)]; "
              "sys.stdout.write(h.hexdigest())")
    default, sandybridge = under_two_blas_kernels("-c", script)
    assert default == sandybridge and default[0] == 0, default


class TestReferenceOutput:
    def test_ideal_adc_reference_is_input_minus_weighted_flash_error(self, ideal_adc):
        batch = convert_many(ideal_adc, [0.41])
        ref = reference_output(ideal_adc, [0.41], batch)[0]
        assert ref == pytest.approx(batch.y[0], abs=1e-15)
        # beta == 1, so the deviation from the input is purely the back-end term
        assert abs(ref - 0.41) <= 0.125 / 1024.0

    def test_two_stage_beta_formula(self):
        z1, z2 = 0.031, -0.022
        adc = toy_adc(zetas=(z1, z2), flash_bits=None)
        assert total_gain(adc) == pytest.approx(1 + z1 + (1 + z1) * z2, abs=1e-15)

    def test_equivalence_sweep_over_random_toys(self):
        rng = np.random.default_rng(1)
        x = dense_ramp(801)
        worst = 0.0
        for _ in range(100):
            adc = random_toy(rng, flash_bits=3 if rng.random() < 0.5 else None)
            batch = convert_many(adc, x)[::40]
            worst = max(worst, np.max(np.abs(reference_output(adc, x[::40], batch) - batch.y)))
        assert worst < 1e-12

    def test_equivalence_on_default_instance(self, mismatched_adc):
        x = dense_ramp(2001)[::97]
        batch = convert_many(mismatched_adc, x)
        ref = reference_output(mismatched_adc, x, batch)
        assert np.all(np.abs(ref - batch.y) < 1e-12)

    def test_flags_inconsistent_record(self, mismatched_adc):
        x = np.linspace(-0.9, 0.9, 100)
        batch = convert_many(mismatched_adc, x)
        reference_output(mismatched_adc, x, batch)
        y = batch.y.copy()
        y[57] += 1e-3
        forged = ConversionBatch(y, batch.index)
        with pytest.raises(RecordMismatchError, match="row 57"):
            reference_output(mismatched_adc, x, forged)


def test_max_digitization_error_default_stage():
    stage = toy_stage(levels=7, gain=4.0, span=0.75)
    # midpoint thresholds: half pitch inside, full overload excursion at +-1
    assert stage.max_digitization_error() == pytest.approx(0.25, abs=1e-12)


def test_max_digitization_error_is_the_largest_error_at_the_code_flips():
    # pipeline stages of 2-256 levels at four gains and flash stages of 1-16
    # bits: the error at -1, +1, every threshold and one ulp above it, with the
    # codes convert_many selects there
    specs = [pipeline_stage_specs(levels, gain) for gain in (2.0, 3.0, 4.0, 7.5)
             for levels in range(2, 257)] + [flash_stage_spec(bits) for bits in range(1, 17)]
    assert len(specs) == 1036
    for stage in specs:
        t = np.asarray(stage.thresholds)
        x = np.concatenate([[-1.0, 1.0], t, np.nextafter(t, np.inf)])
        _, code = stage_one_codes(stage, x)
        assert stage.max_digitization_error() == np.max(np.abs(x - code)), stage.levels

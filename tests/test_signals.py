import math

import numpy as np
import pytest

from helpers import toy_adc

from pipecal.adc import convert_many
from pipecal.signals import (
    PairSource,
    PathConfig,
    ToneSpec,
    gen_impure_two_tone,
    gen_tones,
    make_pairs,
    snap_to_odd_bin,
)
from pipecal.spectral import spectrum, tone_bin


class TestGenTones:
    def test_normalized_frequency_arithmetic(self):
        omega = 2.0 * math.pi * 10.77 / 100.0
        assert omega == pytest.approx(0.6767, abs=5e-4)
        x = gen_tones([ToneSpec(omega=omega, amplitude=1.0)], 64)
        assert x[0] == 0.0
        assert x[1] == pytest.approx(math.sin(omega), abs=1e-15)

    def test_zero_amplitude_gives_zeros(self):
        x = gen_tones([ToneSpec(omega=0.5, amplitude=0.0)], 1000)
        assert np.all(x == 0.0)

    def test_two_tone_peak_bounded_by_amplitude_sum(self):
        tones = [ToneSpec(0.0942, 0.5), ToneSpec(0.11, 0.5)]
        x = gen_tones(tones, 200000)
        assert np.max(np.abs(x)) <= 1.0

    def test_rejects_out_of_range_frequency(self):
        with pytest.raises(ValueError):
            ToneSpec(omega=0.0, amplitude=1.0)
        with pytest.raises(ValueError):
            ToneSpec(omega=math.pi, amplitude=1.0)
        with pytest.raises(ValueError):
            ToneSpec(omega=0.5, amplitude=1.5)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phase(self, phase):
        # a non-finite phase makes every sample non-finite
        with pytest.raises(ValueError, match="tone phase must be finite"):
            ToneSpec(omega=0.5, amplitude=1.0, phase=phase)

    def test_requires_at_least_one_sample(self):
        with pytest.raises(ValueError):
            gen_tones([ToneSpec(0.5)], 0)


def test_snap_to_odd_bin():
    n_fft = 16384
    omega = snap_to_odd_bin(2.0 * math.pi * 10.77 / 100.0, n_fft)
    m = omega * n_fft / (2.0 * math.pi)
    assert m == round(m) and int(m) % 2 == 1
    assert abs(omega - 2.0 * math.pi * 0.1077) < 2.0 * math.pi * 2.0 / n_fft


class TestImpureTwoTone:
    tones = [ToneSpec(snap_to_odd_bin(0.0942, 4096), 0.45),
             ToneSpec(snap_to_odd_bin(0.11, 4096), 0.45)]

    def test_degenerate_config_equals_gen_tones(self):
        clean = gen_tones(self.tones, 4096)
        x = gen_impure_two_tone(self.tones, None, None, 4096)
        assert np.array_equal(x, clean)
        x2 = gen_impure_two_tone(self.tones, {3: -math.inf}, None, 4096)
        assert np.array_equal(x2, clean)

    def test_third_order_product_level(self):
        x = gen_impure_two_tone(self.tones, {3: -40.0}, None, 1 << 16)
        est = spectrum(x, "rect", 1 << 16)
        f1, f2 = self.tones[0].omega, self.tones[1].omega
        imd = tone_bin(2 * f1 - f2, 1 << 16)
        carrier = est.power[tone_bin(f1, 1 << 16)]
        level_db = 10.0 * math.log10(est.power[imd] / carrier)
        assert level_db == pytest.approx(-40.0, abs=1.0)

    def test_quantizer_adds_floor(self):
        clean = gen_impure_two_tone(self.tones, None, None, 4096)
        coarse = gen_impure_two_tone(self.tones, None, 8, 4096)
        assert not np.array_equal(clean, coarse)
        assert np.max(np.abs(clean - coarse)) <= 2.0 / 2 ** 8

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            gen_impure_two_tone(self.tones, {4: -40.0}, None, 64)


class TestMakePairs:
    adc = staticmethod(lambda: toy_adc(zetas=(0.01, -0.02), flash_bits=3))

    def test_noiseless_scaling_is_exact(self):
        adc = self.adc()
        x = gen_tones([ToneSpec(0.7, 0.9)], 500)
        path = PathConfig(alpha_a=0.7071, alpha_d=0.7071, snr_db=None)
        pairs = make_pairs(adc, x, path, seed=0)
        assert np.array_equal(pairs.unscaled.y, convert_many(adc, x).y)
        assert np.array_equal(pairs.scaled.y, convert_many(adc, 0.7071 * x).y)

    def test_infinite_snr_equals_none(self):
        adc = self.adc()
        x = gen_tones([ToneSpec(0.7, 0.9)], 200)
        a = make_pairs(adc, x, PathConfig(0.7, 0.7, None), seed=1)
        b = make_pairs(adc, x, PathConfig(0.7, 0.7, math.inf), seed=1)
        assert np.array_equal(a.unscaled.y, b.unscaled.y)

    def test_noise_variance_matches_snr(self):
        adc = self.adc()
        x = gen_tones([ToneSpec(0.7, 1.0)], 10 ** 6)
        path = PathConfig(alpha_a=0.7071, alpha_d=0.7071, snr_db=70.0, noise_mode="independent")
        pairs = make_pairs(adc, x, path, seed=2)
        noise = PairSource(adc, x, path, seed=2).noise[0]
        assert np.array_equal(pairs.unscaled.y, convert_many(adc, x + noise).y)
        target = 0.5e-7
        measured = float(np.mean(noise ** 2))
        # +-0.2 dB band around the target variance
        assert abs(10 * math.log10(measured / target)) < 0.2

    def test_independent_noise_uncorrelated(self):
        adc = self.adc()
        n = 10 ** 6
        x = gen_tones([ToneSpec(0.7, 1.0)], n)
        path = PathConfig(alpha_a=0.7071, alpha_d=0.7071, snr_db=40.0, noise_mode="independent")
        pairs = make_pairs(adc, x, path, seed=3)
        n_x, n_ax = PairSource(adc, x, path, seed=3).noise
        assert np.array_equal(pairs.unscaled.y, convert_many(adc, x + n_x).y)
        assert np.array_equal(pairs.scaled.y, convert_many(adc, 0.7071 * x + n_ax).y)
        corr = float(np.corrcoef(n_x, n_ax)[0, 1])
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_held_noise_rides_through_the_scaler(self):
        adc = self.adc()
        x = gen_tones([ToneSpec(0.7, 1.0)], 1000)
        path = PathConfig(alpha_a=0.7071, alpha_d=0.7071, snr_db=60.0, noise_mode="held")
        pairs = make_pairs(adc, x, path, seed=4)
        [noise] = PairSource(adc, x, path, seed=4).noise     # one draw, before the scaler
        assert np.array_equal(pairs.unscaled.y, convert_many(adc, x + noise).y)
        assert np.array_equal(pairs.scaled.y, convert_many(adc, 0.7071 * (x + noise)).y)

    def test_deterministic_per_seed(self):
        adc = self.adc()
        x = gen_tones([ToneSpec(0.7, 1.0)], 500)
        path = PathConfig(0.7071, 0.7071, 70.0, "independent")
        a = make_pairs(adc, x, path, seed=5)
        b = make_pairs(adc, x, path, seed=5)
        assert np.array_equal(a.unscaled.y, b.unscaled.y)
        assert np.array_equal(a.scaled.y, b.scaled.y)

    def test_pair_accessors(self):
        adc = self.adc()
        x = gen_tones([ToneSpec(0.7, 1.0)], 50)
        pairs = make_pairs(adc, x, PathConfig(0.7071, 0.7071, None), seed=6)
        assert len(pairs) == 50
        pair = pairs[7:8]
        assert len(pair) == 1 and pair.scaled.y[0] == pairs.scaled.y[7]
        assert pair.unscaled.y[0] == convert_many(adc, x[7:8]).y[0]
        # an int index and the iteration protocol built on it fail fast
        with pytest.raises(TypeError):
            pairs[3]
        with pytest.raises(TypeError):
            list(pairs)
        head = pairs[:10]
        assert len(head) == 10
        assert head.unscaled.y[3] == pairs.unscaled.y[3]

    @pytest.mark.parametrize("snr_db, noise_mode", [(None, "held"), (60.0, "held"),
                                                    (60.0, "independent")])
    def test_source_slices_equal_the_whole_batch(self, snr_db, noise_mode):
        adc = self.adc()
        x = gen_tones([ToneSpec(0.7, 1.0)], 500)
        path = PathConfig(0.7071, 0.7071, snr_db, noise_mode)
        source, whole = PairSource(adc, x, path, seed=7), make_pairs(adc, x, path, seed=7)
        assert len(source) == 500
        for rows in (slice(0, 7), slice(7, 300), slice(300, None), slice(None, None, 3)):
            got, want = source[rows], whole[rows]
            for a, b in ((got.unscaled, want.unscaled), (got.scaled, want.scaled)):
                assert np.array_equal(a.y, b.y)
                assert np.array_equal(a.index, b.index)
        with pytest.raises(TypeError):
            source[3]

    def test_path_validation(self):
        with pytest.raises(ValueError):
            PathConfig(alpha_a=1.2, alpha_d=0.7)
        with pytest.raises(ValueError):
            PathConfig(alpha_a=0.7, alpha_d=0.7, noise_mode="bogus")
        path = PathConfig(alpha_a=0.72, alpha_d=0.7071)
        assert path.delta == pytest.approx(0.72 - 0.7071)

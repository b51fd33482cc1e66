import math

import numpy as np
import pytest

from pipecal.signals import ToneSpec, gen_tones, snap_to_odd_bin
from pipecal.spectral import (
    MisdeclaredSignalError,
    analyze,
    error_norm,
    signal_regions,
    spectrum,
    tone_bin,
    window_values,
)

N = 4096
OMEGA = snap_to_odd_bin(0.6767, N)
BIN = tone_bin(OMEGA, N)


def coherent_tone(amplitude=1.0, n=N, omega=OMEGA, phase=0.3):
    return gen_tones([ToneSpec(omega, amplitude, phase)], n)


class TestSpectrum:
    def test_pure_tone_occupies_single_bin(self):
        est = spectrum(coherent_tone(), "rect", N)
        others = est.power.copy()
        others[BIN] = 0.0
        assert est.power[BIN] == pytest.approx(0.5, rel=1e-9)
        assert np.max(others) < 1e-22

    @pytest.mark.parametrize("window", ["rect", "hann", "bh4"])
    def test_parseval_identity(self, window):
        rng = np.random.default_rng(0)
        x = rng.normal(size=N) + coherent_tone()
        est = spectrum(x, window, N)
        w = window_values(window, N)
        expected = float(np.mean((x * w) ** 2)) / est.coherent_gain ** 2
        assert np.sum(est.power) == pytest.approx(expected, rel=1e-9)

    def test_segments_are_averaged(self):
        x = coherent_tone(n=4 * N)
        est = spectrum(x, "rect", N)
        assert est.segments == 4
        assert est.power[BIN] == pytest.approx(0.5, rel=1e-9)

    def test_white_noise_flat_within_chi2_bounds(self):
        rng = np.random.default_rng(7)
        segments = 256
        x = rng.normal(size=segments * 512)
        est = spectrum(x, "rect", 512)
        interior = est.power[1:-1]
        mean = float(np.mean(interior))
        # averaged periodogram bins are chi-square with 2*segments dof:
        # relative standard deviation 1/sqrt(segments)
        sigma = mean / math.sqrt(segments)
        assert np.all(np.abs(interior - mean) < 3.2 * sigma)

    def test_rejects_bad_windows_and_lengths(self):
        x = coherent_tone()
        with pytest.raises(ValueError):
            spectrum(x, "boxcar", N)
        with pytest.raises(ValueError):
            spectrum(x, "rect", N + 1)
        with pytest.raises(ValueError):
            spectrum(x[:100], "rect", N)
        with pytest.raises(ValueError):
            window_values("boxcar", 8)


class TestSfdrSndr:
    def test_known_spur_level(self):
        spur_bin = tone_bin(snap_to_odd_bin(1.9, N), N)
        x = coherent_tone() + gen_tones([ToneSpec(2 * math.pi * spur_bin / N, 1e-3)], N)
        est = spectrum(x, "rect", N)
        report = analyze(est, [BIN])
        assert report.sfdr_db == pytest.approx(60.0, abs=0.01)
        assert report.spur_bin == spur_bin

    def test_ideal_13bit_sine_sndr_near_classical_value(self):
        lsb = 2.0 / 2 ** 13
        x = coherent_tone(amplitude=1.0, n=1 << 14, omega=snap_to_odd_bin(0.6767, 1 << 14))
        q = np.clip(np.round(x / lsb) * lsb, -1.0, 1.0)
        est = spectrum(q, "rect", 1 << 14)
        bin14 = tone_bin(snap_to_odd_bin(0.6767, 1 << 14), 1 << 14)
        report = analyze(est, [bin14])
        assert report.sndr_db == pytest.approx(6.02 * 13 + 1.76, abs=0.5)
        assert report.sfdr_db >= report.sndr_db

    def test_white_noise_at_70db_gives_70db_sndr(self):
        rng = np.random.default_rng(1)
        x = coherent_tone(n=1 << 14, omega=snap_to_odd_bin(0.6767, 1 << 14))
        x = x + rng.normal(0.0, math.sqrt(0.5e-7), x.size)
        est = spectrum(x, "rect", 1 << 14)
        bin14 = tone_bin(snap_to_odd_bin(0.6767, 1 << 14), 1 << 14)
        assert analyze(est, [bin14]).sndr_db == pytest.approx(70.0, abs=0.3)

    def test_window_invariance_for_coherent_tones(self):
        spur_bin = tone_bin(snap_to_odd_bin(1.9, N), N)
        x = coherent_tone() + gen_tones([ToneSpec(2 * math.pi * spur_bin / N, 10 ** -2.5)], N)
        values = [analyze(spectrum(x, w, N), [BIN]).sfdr_db for w in ("rect", "bh4")]
        assert abs(values[0] - values[1]) < 0.5

    def test_amplitude_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = coherent_tone() + 1e-4 * rng.normal(size=N)
        est1 = spectrum(x, "rect", N)
        est2 = spectrum(3.7 * x, "rect", N)
        a, b = analyze(est1, [BIN]), analyze(est2, [BIN])
        assert a.sfdr_db == pytest.approx(b.sfdr_db, abs=1e-9)
        assert a.sndr_db == pytest.approx(b.sndr_db, abs=1e-9)

    def test_zeroing_largest_spur_increases_sfdr(self):
        rng = np.random.default_rng(3)
        x = coherent_tone() + 1e-4 * rng.normal(size=N)
        est = spectrum(x, "rect", N)
        before = analyze(est, [BIN])
        est.power[before.spur_bin] = 0.0
        assert analyze(est, [BIN]).sfdr_db > before.sfdr_db

    def test_misdeclared_signal_raises(self):
        x = coherent_tone(amplitude=1e-4) + coherent_tone(amplitude=0.5, omega=snap_to_odd_bin(1.9, N))
        est = spectrum(x, "rect", N)
        with pytest.raises(MisdeclaredSignalError):
            analyze(est, [BIN])

    def test_requires_signal_bins(self):
        est = spectrum(coherent_tone(), "rect", N)
        with pytest.raises(ValueError):
            analyze(est, [])
        with pytest.raises(ValueError):
            analyze(est, [0])

    @pytest.mark.parametrize("window, n_fft, bins, message", [
        ("rect", 4, [0], "signal bin 0 out of range"),
        ("rect", 8, [5], "signal bin 5 out of range"),
        ("bh4", 8, [1], "no bins left to search for spurs"),
        ("hann", 8, [1], ""),
    ])
    def test_analyze_applies_the_signal_region_rule(self, window, n_fft, bins, message):
        # the configuration checks its evaluation bins by this rule, so a
        # member's metrics never fail on them
        est = spectrum(coherent_tone(n=n_fft, omega=2.0 * math.pi / n_fft), window, n_fft)
        if not message:
            signal, search = signal_regions(bins, window, n_fft)
            assert signal.tolist() == [True] * 4 + [False] and search.tolist() == [False] * 4 + [True]
            assert analyze(est, bins).spur_bin == 4
            return
        for check in (lambda: signal_regions(bins, window, n_fft), lambda: analyze(est, bins)):
            with pytest.raises(ValueError, match=message):
                check()


class TestErrorNorm:
    def test_zero_for_equal_vectors(self):
        v = np.arange(5.0)
        assert error_norm(v, v) == 0.0

    def test_single_entry_difference(self):
        a = np.zeros(4)
        b = np.zeros(4)
        b[2] = 3.0
        assert error_norm(a, b) == 3.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 19))
        direct = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert error_norm(a, b) == pytest.approx(direct, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            error_norm(np.zeros(3), np.zeros(4))

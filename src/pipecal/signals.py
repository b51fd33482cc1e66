"""Test-signal generation and the two-conversion sample pairing.

Calibration feeds each held sample into the converter twice: once as-is and
once scaled by the analog factor alpha_a. Both conversions see independent
additive white Gaussian input noise; the deterministic part alone is scaled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adc import AdcInstance, ConversionBatch, convert_many

__all__ = [
    "ToneSpec",
    "PathConfig",
    "NOISE_MODES",
    "SNR_DB_RANGE",
    "PairBatch",
    "PairSource",
    "gen_tones",
    "cached_tones",
    "noise_sigma",
    "make_pairs",
    "snap_to_odd_bin",
]


@dataclass(frozen=True)
class ToneSpec:
    """One sinusoid: normalized angular frequency [rad/sample], amplitude, phase."""

    omega: float
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.omega < math.pi:
            raise ValueError(f"omega must be in (0, pi), got {self.omega}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("tone amplitude must be in [0, 1]")
        if not math.isfinite(self.phase):
            raise ValueError(f"tone phase must be finite, got {self.phase}")


NOISE_MODES = ("held", "independent")


@dataclass(frozen=True)
class PathConfig:
    """Analog/digital scaling pair and the input-noise level.

    delta = alpha_a - alpha_d is the scaling factor mismatch the calibrator
    may have to estimate. snr_db sets the noise level through `noise_sigma`;
    None (or +inf) means noiseless.

    noise_mode selects where the noise enters relative to the analog scaler:
    "held" models noise captured by the sample-and-hold, so the scaled
    conversion digitizes alpha_a * (x_d + n); "independent" models
    converter-referred noise, drawn fresh for each of the two conversions.
    """

    alpha_a: float
    alpha_d: float
    snr_db: float | None = None
    noise_mode: str = "held"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_a < 1.0:
            raise ValueError(f"delta {self.delta:g} puts alpha_a = {self.alpha_a:g} outside (0, 1)")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")

    @property
    def delta(self) -> float:
        return self.alpha_a - self.alpha_d


class PairBatch:
    """All sample pairs of a calibration run, column-oriented."""

    def __init__(self, unscaled: ConversionBatch, scaled: ConversionBatch):
        if len(unscaled) != len(scaled):
            raise ValueError("pair batches must have equal length")
        self.unscaled = unscaled
        self.scaled = scaled

    def __len__(self) -> int:
        return len(self.unscaled)

    def __getitem__(self, rows: slice) -> "PairBatch":
        """The selected pairs as a batch of their own; one pair is `pairs[k:k+1]`."""
        return PairBatch(self.unscaled[rows], self.scaled[rows])


def gen_tones(tones: list[ToneSpec], n: int) -> np.ndarray:
    """Sum of sinusoids x[k] = sum a*sin(omega*k + phase), k = 0..n-1."""
    if n < 1:
        raise ValueError("need at least one sample")
    k = np.arange(n)
    x = np.zeros(n)
    for tone in tones:
        x += tone.amplitude * np.sin(tone.omega * k + tone.phase)
    return x


@functools.lru_cache(maxsize=4)
def cached_tones(tones: tuple[ToneSpec, ...], n: int) -> np.ndarray:
    """`gen_tones(list(tones), n)` as a read-only array, kept for the last four
    (tones, n) of the process: every member of a run shares its calibration
    and evaluation tones, and none can write into another's input."""
    x = gen_tones(list(tones), n)
    x.flags.writeable = False
    return x


def snap_to_odd_bin(omega: float, n_fft: int) -> float:
    """Nearest odd-bin coherent frequency: omega' = 2*pi*m/n_fft, m odd."""
    m = omega * n_fft / (2.0 * math.pi)
    m_odd = 2 * round((m - 1.0) / 2.0) + 1
    m_odd = min(max(m_odd, 1), n_fft // 2 - 1)
    return 2.0 * math.pi * m_odd / n_fft


# noise_sigma is finite at these SNRs for every signal of mean power up to 1 (full scale):
# 10 ** (snr_db / 10) overflows above about 3082 dB, and the power over it below -3082 dB
SNR_DB_RANGE = (-3000.0, 3000.0)


def noise_sigma(x: np.ndarray, snr_db: float | None) -> float | None:
    """Std of white noise snr_db below the mean power of x; None (noiseless) for None or +inf."""
    noiseless = snr_db is None or math.isinf(snr_db)
    return None if noiseless else math.sqrt(float(np.mean(x ** 2)) / 10.0 ** (snr_db / 10.0))


class PairSource:
    """A converter's calibration pairs, converted a row range at a time.

    Every held sample is converted twice: plain and analog-scaled. In "held"
    mode one noise draw rides on the held sample and passes through the
    scaler; in "independent" mode each conversion gets its own draw after the
    scaler. The noise is drawn whole, unscaled first and at a level taken
    over the whole signal, so a seed fully determines the pairs, and the
    source holds only the signal and its draws. A slice `source[a:b]` is
    converted when it is taken: a `PairBatch` bit-identical to rows a..b-1
    of `source[:]`, since conversion works sample by sample.
    """

    def __init__(self, adc: AdcInstance, x_d: np.ndarray, path: PathConfig, seed):
        self.adc, self.alpha_a, self.held = adc, path.alpha_a, path.noise_mode == "held"
        self.x_d = np.asarray(x_d, dtype=float)
        sigma = noise_sigma(self.x_d, path.snr_db)
        self.noise = []
        if sigma is not None:
            rng = np.random.default_rng(seed)
            draws = 1 if self.held else 2
            self.noise = [rng.normal(0.0, sigma, self.x_d.size) for _ in range(draws)]

    def __len__(self) -> int:
        return self.x_d.size

    def __getitem__(self, rows: slice) -> PairBatch:
        if not isinstance(rows, slice):
            raise TypeError(f"pair sources take a slice such as [k:k+1], not {rows!r}")
        x = self.x_d[rows]
        if not self.noise:
            unscaled, scaled = x, self.alpha_a * x
        elif self.held:
            unscaled = x + self.noise[0][rows]
            scaled = self.alpha_a * unscaled
        else:
            unscaled = x + self.noise[0][rows]
            scaled = self.alpha_a * x + self.noise[1][rows]
        return PairBatch(unscaled=convert_many(self.adc, unscaled),
                         scaled=convert_many(self.adc, scaled))


def make_pairs(adc: AdcInstance, x_d: np.ndarray, path: PathConfig, seed) -> PairBatch:
    """All of `PairSource`'s pairs in one batch."""
    return PairSource(adc, x_d, path, seed)[:]

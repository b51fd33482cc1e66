"""Spectral figures of merit: SFDR, SNDR, and parameter-error norms.

The estimator is a windowed periodogram averaged over the available
non-overlapping segments, normalized so a coherent tone of amplitude A puts
A^2/2 into its bin regardless of window. SFDR compares the highest wanted
peak against the highest peak outside the signal and DC exclusion regions;
SNDR compares the signal power against everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectrumEstimate",
    "MetricReport",
    "spectrum",
    "analyze",
    "signal_regions",
    "error_norm",
    "tone_bin",
    "window_values",
    "WINDOWS",
]

# exclusion half-width [bins] around DC and each signal bin, per window
_EXCLUSION = {"rect": 1, "hann": 2, "bh4": 4}
WINDOWS = tuple(_EXCLUSION)

# 4-term Blackman-Harris (-92 dB sidelobes)
_BH4 = (0.35875, 0.48829, 0.14128, 0.01168)


class MisdeclaredSignalError(RuntimeError):
    """The declared signal bins carry less power than the spur floor."""


def window_values(window: str, n: int) -> np.ndarray:
    """Sample the named window; raises on unknown names."""
    k = np.arange(n)
    if window == "rect":
        return np.ones(n)
    if window == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * math.pi * k / n)
    if window == "bh4":
        a0, a1, a2, a3 = _BH4
        t = 2.0 * math.pi * k / n
        return a0 - a1 * np.cos(t) + a2 * np.cos(2 * t) - a3 * np.cos(3 * t)
    raise ValueError(f"unknown window {window!r}")


@dataclass
class SpectrumEstimate:
    """One-sided power bins (length n_fft/2 + 1) plus estimator metadata."""

    power: np.ndarray
    n_fft: int
    window: str
    segments: int
    coherent_gain: float


def tone_bin(omega: float, n_fft: int) -> int:
    """FFT bin closest to the normalized angular frequency."""
    return int(round(omega * n_fft / (2.0 * math.pi)))


def spectrum(samples: np.ndarray, window: str, n_fft: int) -> SpectrumEstimate:
    """Averaged periodogram of a real sequence under a named window.

    n_fft must be a power of two and no longer than the sequence; all full
    segments are averaged. Bin j holds d_j * |X_j|^2 / (sum w)^2 with the
    usual one-sided doubling, so sum(power) equals the mean square of the
    windowed sequence divided by the squared coherent gain.
    """
    x = np.asarray(samples, dtype=float)
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise ValueError(f"n_fft must be a power of two, got {n_fft}")
    if n_fft > x.size:
        raise ValueError(f"n_fft={n_fft} longer than the sequence ({x.size})")
    w = window_values(window, n_fft)
    wsum = float(np.sum(w))

    segments = x.size // n_fft
    acc = np.zeros(n_fft // 2 + 1)
    for s in range(segments):
        seg = x[s * n_fft:(s + 1) * n_fft] * w
        spec = np.fft.rfft(seg)
        acc += np.abs(spec) ** 2
    acc /= segments

    scale = np.full(n_fft // 2 + 1, 2.0)
    scale[0] = 1.0
    scale[-1] = 1.0
    power = acc * scale / wsum ** 2
    return SpectrumEstimate(power=power, n_fft=n_fft, window=window,
                            segments=segments, coherent_gain=wsum / n_fft)


@dataclass
class MetricReport:
    sfdr_db: float
    sndr_db: float
    signal_bins: tuple[int, ...]
    spur_bin: int
    spur_db: float          # spur level relative to the signal peak [dBc]


def signal_regions(signal_bins, window: str, n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (signal region, spur/noise search region) over the bins of an
    n_fft-point spectrum under `window`. Raises ValueError unless some signal bin is
    given, each lies in 1..n_fft/2, and some bin is left to search."""
    if not signal_bins:
        raise ValueError("need at least one signal bin")
    n_bins, hw = n_fft // 2 + 1, _EXCLUSION[window]
    signal = np.zeros(n_bins, dtype=bool)
    for b in signal_bins:
        if not 0 < b < n_bins:
            raise ValueError(f"signal bin {b} out of range")
        signal[max(b - hw, 0): min(b + hw + 1, n_bins)] = True
    excluded = signal.copy()
    excluded[: hw + 1] = True       # DC region
    if excluded.all():
        raise ValueError("no bins left to search for spurs")
    return signal, ~excluded


def analyze(est: SpectrumEstimate, signal_bins) -> MetricReport:
    """SFDR and SNDR of a spectrum with the given wanted bins."""
    signal_bins = tuple(int(b) for b in signal_bins)
    signal_mask, search_mask = signal_regions(signal_bins, est.window, est.n_fft)

    peak_signal = float(max(est.power[b] for b in signal_bins))
    search = est.power[search_mask]
    spur_idx_local = int(np.argmax(search))
    spur_bin = int(np.flatnonzero(search_mask)[spur_idx_local])
    peak_spur = float(search[spur_idx_local])

    if peak_signal <= peak_spur:
        raise MisdeclaredSignalError(
            f"signal peak {peak_signal:.3e} not above spur floor {peak_spur:.3e}"
        )

    signal_power = float(np.sum(est.power[signal_mask]))
    rest_power = float(np.sum(search))
    sfdr_db = 10.0 * math.log10(peak_signal / peak_spur) if peak_spur > 0.0 else math.inf
    sndr_db = 10.0 * math.log10(signal_power / rest_power) if rest_power > 0.0 else math.inf
    return MetricReport(sfdr_db=sfdr_db, sndr_db=sndr_db, signal_bins=signal_bins,
                        spur_bin=spur_bin,
                        spur_db=-sfdr_db if math.isfinite(sfdr_db) else -math.inf)


def error_norm(theta: np.ndarray, theta_ref: np.ndarray) -> float:
    """Euclidean distance between two parameter vectors of one layout."""
    a = np.asarray(theta, dtype=float)
    b = np.asarray(theta_ref, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"layout mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))

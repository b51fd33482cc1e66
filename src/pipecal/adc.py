"""Behavioral model of a non-ideal pipelined ADC.

The converter is a cascade of low-resolution quantizing stages followed by a
flash stage. Stage i digitizes its input to one of p_i codes, reconstructs the
code with a (possibly mismatched) DAC, and passes the amplified difference --
the residue -- to the next stage. The digital back end recombines the stage
codes with the *ideal* gains, so gain mismatch (zeta_i) and per-code DAC
errors (e_da) show up as static nonlinearity in the output.

All voltages are normalized to v_ref = 1, full scale is [-1, +1].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels

__all__ = [
    "StageSpec",
    "MismatchSet",
    "MismatchConfig",
    "AdcInstance",
    "ConversionBatch",
    "lsb_size",
    "convert_many",
    "build_adc",
    "stage_mismatch_bounds",
    "pipeline_stage_specs",
    "flash_stage_spec",
    "default_stage_specs",
]


def _shown(value) -> str:
    """repr(value) for an error message. repr refuses an int of more digits than
    sys.get_int_max_str_digits(), alone or inside a container: that shows as a count."""
    try:
        return repr(value)
    except ValueError:
        held = "" if isinstance(value, int) else f"a {type(value).__name__} holding "
        return f"{held}an integer of more than {sys.get_int_max_str_digits()} digits"


def lsb_size(resolution_bits: int) -> float:
    """One LSB of the composite converter: full scale 2.0 over 2**bits."""
    try:
        return 2.0 / math.ldexp(1.0, resolution_bits)
    except (OverflowError, ZeroDivisionError):     # 2**bits is not a float
        raise AdcModelError(f"resolution_bits={_shown(resolution_bits)} has no float LSB") from None


class AdcModelError(ValueError):
    """Invalid stage geometry or mismatch configuration."""


@dataclass(frozen=True)
class StageSpec:
    """Static description of one quantizing stage.

    codes       -- p code values [V], strictly increasing
    thresholds  -- p-1 comparator thresholds [V], strictly increasing
    gain        -- ideal inter-stage gain G_i (used by the digital recombination)
    """

    codes: tuple[float, ...]
    thresholds: tuple[float, ...]
    gain: float = 1.0

    def __post_init__(self) -> None:
        if len(self.codes) < 2:
            raise AdcModelError("a stage needs at least 2 codes")
        if len(self.thresholds) != len(self.codes) - 1:
            raise AdcModelError("need exactly len(codes)-1 thresholds")
        if not all(a < b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise AdcModelError("thresholds must be strictly increasing")
        if not all(a < b for a, b in zip(self.codes, self.codes[1:])):
            raise AdcModelError("codes must be strictly increasing")
        if not self.gain > 0.0:
            raise AdcModelError(f"stage gain must be positive, not {self.gain!r}")

    @property
    def levels(self) -> int:
        return len(self.codes)

    @cached_property
    def code_table(self) -> np.ndarray:     # code value by 1-based index, zero-padded
        return np.concatenate(([0.0], self.codes))

    def max_digitization_error(self) -> float:
        """Largest |input - selected code| over the full scale [-1, 1].

        The extremes occur at the interval edges and where the selected code
        flips: at a threshold (still the lower code) and one ulp above it.
        """
        x = np.array([-1.0, 1.0, *self.thresholds, *np.nextafter(self.thresholds, math.inf)])
        code = self.code_table[np.searchsorted(self.thresholds, x) + 1]
        return float(np.max(np.abs(x - code)))


@dataclass(frozen=True)
class MismatchSet:
    """Drawn analog errors, one entry per quantizing (non-flash) stage.

    gain_mismatch -- relative gain error zeta_i, true gain = G_i * (1 + zeta_i)
    dac_errors    -- per-code reconstruction error [V], length p_i each
    """

    gain_mismatch: tuple[float, ...]
    dac_errors: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.gain_mismatch) != len(self.dac_errors):
            raise AdcModelError("need one gain mismatch and one DAC error vector per stage")

    @cached_property
    def dac_tables(self) -> tuple[np.ndarray, ...]:     # per stage, as StageSpec.code_table
        return tuple(np.concatenate(([0.0], e)) for e in self.dac_errors)


@dataclass(frozen=True)
class MismatchConfig:
    """Bounds for the uniform mismatch draws, expressed in composite LSB.

    The gain bound converts into a bound on the relative mismatch as
    |zeta_i| <= gain_bound_lsb * lsb / e_ref. The reference magnitude e_ref
    fixes the unit semantics: 1.0 reads the bound as a plain dimensionless
    value in LSB units; half the code pitch (0.125 for the default stage)
    bounds the worst-case in-range output contribution zeta_i * e_q instead;
    None uses the stage's true maximum |e_q| including the overload edges.
    """

    gain_bound_lsb: float = 25.0
    dac_bound_lsb: float = 34.0
    gain_error_reference: float | None = 1.0

    def __post_init__(self) -> None:
        # negated comparisons so that NaN bounds fail the check too
        if not self.gain_bound_lsb >= 0 or not self.dac_bound_lsb >= 0:
            raise AdcModelError("mismatch bounds must be non-negative numbers")
        if self.gain_error_reference is not None and not self.gain_error_reference > 0:
            raise AdcModelError("gain error reference must be positive")


@dataclass(frozen=True)
class AdcInstance:
    """One fully drawn converter: stage geometry plus its analog errors.

    Immutable; safe to share across parallel workers. `flash=None` replaces
    the final stage by an exact sampler (zero digitization error), which is
    useful as an analysis back end for oracle tests.
    """

    stages: tuple[StageSpec, ...]
    flash: StageSpec | None
    mismatches: MismatchSet
    resolution_bits: int

    def __post_init__(self) -> None:
        if len(self.mismatches.gain_mismatch) != len(self.stages):
            raise AdcModelError("mismatch set size must match the number of quantizing stages")
        for spec, eda in zip(self.stages, self.mismatches.dac_errors):
            if len(eda) != spec.levels:
                raise AdcModelError("one DAC error per stage code required")

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def recombination_weights(self) -> np.ndarray:
        """Digital weights 1/prod(G_j, j<i) per stage, last entry for the back end."""
        w = np.empty(self.n_stages + 1)
        acc = 1.0
        for i, st in enumerate(self.stages):
            w[i] = acc
            acc /= st.gain
        w[self.n_stages] = acc
        return w

    @cached_property
    def conversion_tables(self) -> tuple[np.ndarray, ...]:
        """`convert_many`'s stage tables, the back end last: the levels (0 for the exact
        back end, int64), then, each stage's entries after the last's, the thresholds, the
        code values and the DAC errors by 1-based code index, the true gains
        G_i * (1 + zeta_i) and the recombination weights."""
        back_end = () if self.flash is None else (self.flash,)
        specs = (*self.stages, *back_end)
        levels = np.array([s.levels for s in specs] + [0] * (self.flash is None), dtype=np.int64)
        thresholds = np.array([t for s in specs for t in s.thresholds], dtype=float)
        values = np.concatenate([s.code_table for s in specs])
        dac = np.concatenate(self.mismatches.dac_tables)
        gains = np.array([s.gain * (1.0 + z)
                          for s, z in zip(self.stages, self.mismatches.gain_mismatch)])
        return levels, thresholds, values, dac, gains, self.recombination_weights()


class ConversionBatch:
    """Column-oriented store for many conversions of one instance.

    Row k holds conversion k: its output and, per stage, the 1-based code
    index (matching the comparator bank; the final column is the back-end
    stage, index 0 when the exact sampler is used). A code's value is read
    from its stage's `StageSpec.code_table`, never stored. `index` is
    column-major (order="F"), so each stage's column is one contiguous
    array. It holds no input: calibrators see outputs and codes only.
    """

    def __init__(self, y: np.ndarray, index: np.ndarray):
        self.y = y
        self.index = index          # (N, n_stages+1), 1-based codes, 0 = exact back end

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, rows: slice) -> "ConversionBatch":
        """The selected rows as a batch of their own; one conversion is `batch[k:k+1]`."""
        if not isinstance(rows, slice):
            raise TypeError(f"batches take a slice such as [k:k+1], not {rows!r}")
        return ConversionBatch(self.y[rows], self.index[rows])


def convert_many(adc: AdcInstance, x_in: np.ndarray) -> ConversionBatch:
    """Run the pipeline recursion for a whole input vector at once, in the compiled
    `kernels.c`. y is summed as the stages quantize, w_0 * code_0 first and w_S * back end
    last: one fixed order, with no BLAS, so it is `tests/helpers.py`'s numpy oracle's y."""
    x = np.ascontiguousarray(x_in, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("ADC input must be finite")
    y = np.empty(x.size)    # before index: no fresh pages per call
    index = np.empty((x.size, adc.n_stages + 1), dtype=np.int64, order="F")
    kernels.library().pipecal_convert(x.size, x.ctypes.data, adc.n_stages,
                                      *(t.ctypes.data for t in adc.conversion_tables),
                                      y.ctypes.data, index.ctypes.data)
    return ConversionBatch(y=y, index=index)


def pipeline_stage_specs(levels: int = 7, gain: float = 4.0) -> StageSpec:
    """Canonical sub-radix quantizing stage: p uniformly spaced codes with
    thresholds at the midpoints (2.5-bit MDAC for levels=7, gain=4)."""
    pitch = 2.0 / (levels + 1)
    codes = tuple((j - (levels - 1) / 2.0) * pitch for j in range(levels))
    thresholds = tuple((codes[j] + codes[j + 1]) / 2.0 for j in range(levels - 1))
    return StageSpec(codes=codes, thresholds=thresholds, gain=gain)


def flash_stage_spec(bits: int = 3) -> StageSpec:
    """Mid-rise flash: 2**bits uniform levels over the residue range."""
    p = 2 ** bits
    step = 2.0 / p
    codes = tuple(-1.0 + (j + 0.5) * step for j in range(p))
    thresholds = tuple(-1.0 + (j + 1.0) * step for j in range(p - 1))
    return StageSpec(codes=codes, thresholds=thresholds, gain=1.0)


def default_stage_specs(n_pipeline: int = 5, stage_levels: int = 7,
                        stage_gain: float = 4.0, flash_bits: int = 3) -> tuple[list[StageSpec], StageSpec]:
    """Stage list of the default 13-bit converter (5 x 2.5 bit + 3-bit flash)."""
    stages = [pipeline_stage_specs(stage_levels, stage_gain) for _ in range(n_pipeline)]
    return stages, flash_stage_spec(flash_bits)


def stage_mismatch_bounds(stage: StageSpec, mismatch: MismatchConfig,
                          lsb: float) -> tuple[float, float]:
    """Bounds of one stage's uniform gain-mismatch and DAC-error draws.

    Raises AdcModelError when a draw within them could make the stage gain
    non-positive or reorder the stage's code levels.
    """
    e_ref = mismatch.gain_error_reference
    if e_ref is None:
        e_ref = stage.max_digitization_error()
    zeta_bound = mismatch.gain_bound_lsb * lsb / e_ref
    if zeta_bound >= 1.0:
        raise AdcModelError("gain mismatch bound allows non-positive stage gain")
    dac_bound = mismatch.dac_bound_lsb * lsb
    min_pitch = min(b - a for a, b in zip(stage.codes, stage.codes[1:]))
    if 2.0 * dac_bound >= min_pitch:
        raise AdcModelError("DAC error bound can reorder the stage code levels")
    return zeta_bound, dac_bound


def build_adc(stages: list[StageSpec], flash: StageSpec | None,
              mismatch: MismatchConfig, seed, resolution_bits: int = 13,
              ideal_stages: int = 0) -> AdcInstance:
    """Draw one converter instance.

    `seed` is anything `numpy.random.default_rng` accepts; identical seeds
    give bit-identical instances (fixed draw order: per stage, zeta first,
    then the p DAC errors). `ideal_stages` forces the first k quantizing
    stages to zero mismatch without consuming different amounts of the
    stream, so populations stay comparable across that switch.
    """
    rng = np.random.default_rng(seed)
    lsb = lsb_size(resolution_bits)

    zetas = []
    dac_errors = []
    for i, stage in enumerate(stages):
        zeta_bound, dac_bound = stage_mismatch_bounds(stage, mismatch, lsb)
        z = float(rng.uniform(-zeta_bound, zeta_bound))
        e = rng.uniform(-dac_bound, dac_bound, size=stage.levels)
        # a common shift of all DAC levels is stage offset, not nonlinearity
        e -= e.mean()
        if i < ideal_stages:
            z = 0.0
            e = np.zeros(stage.levels)
        zetas.append(z)
        dac_errors.append(tuple(float(v) for v in e))

    return AdcInstance(
        stages=tuple(stages),
        flash=flash,
        mismatches=MismatchSet(gain_mismatch=tuple(zetas), dac_errors=tuple(dac_errors)),
        resolution_bits=resolution_bits,
    )

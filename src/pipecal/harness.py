"""Configuration-driven experiment runner.

Builds seeded converter populations, calibrates each member with the selected
algorithm, evaluates SFDR/SNDR on a freshly generated clean signal, and emits
deterministic CSV files. Sweeps rerun the same population over a parameter
grid (scaling factor, SNR, scaling mismatch, or sample budget). Every run is
one list of member tasks in at most one process pool, and a sweep checks
every grid value before any member runs.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adc import (
    AdcInstance,
    AdcModelError,
    ConversionBatch,
    MismatchConfig,
    _shown,
    build_adc,
    convert_many,
    default_stage_specs,
    lsb_size,
    stage_mismatch_bounds,
)
from .calibration import (
    DivergenceError,
    NumericalError,
    RankDeficiencyError,
    SingularStatisticsError,
    StepSchedule,
    _check_coverage,
    accumulate_statistics,
    blhec_wiener,
    hec_wiener,
    run_sgd,
)
from .correction import CorrectionLayout, apply_correction_batch, model_dimension, selection_vectors
from .signals import (SNR_DB_RANGE, PairSource, PathConfig, ToneSpec, cached_tones, noise_sigma,
                      snap_to_odd_bin)
from .spectral import (WINDOWS, MisdeclaredSignalError, analyze, error_norm, signal_regions,
                       spectrum, tone_bin)

__all__ = [
    "ALGORITHMS",
    "SWEEP_KINDS",
    "ExperimentConfig",
    "ResultRow",
    "SweepResult",
    "ConfigError",
    "NUMERICAL_FAILURES",
    "default_config",
    "evaluation_batch",
    "run_experiment",
    "run_sweep",
    "emit_outputs",
    "emit_sweep_outputs",
    "aggregate_rows",
]

RESULTS_SCHEMA = "pipecal-results/1"
AGGREGATE_SCHEMA = "pipecal-aggregate/1"

ALGORITHMS = ("hec-wiener", "blhec-wiener", "blhec-sgd")
ADAPTIVE = ("blhec-sgd",)    # adapted pair by pair (run_sgd); the rest solve from n_cal pairs
SWEEP_KINDS = ("alpha", "snr", "delta", "convergence")
# the failures a member can stop with although its configuration was accepted (exit 3)
NUMERICAL_FAILURES = (RankDeficiencyError, SingularStatisticsError, DivergenceError,
                      NumericalError, MisdeclaredSignalError)

# default test tone: 10.77 MHz at 100 MHz sampling
DEFAULT_TONE_OMEGA = 2.0 * math.pi * 10.77 / 100.0
EVAL_PHASE_OFFSET = math.pi / 4.0

# the largest correction dimension D = q x levels - (q - 1). The statistics hold D x D and
# (2D + 2)^2 matrices, 34 MB at D = 1024 where D = 8161 needs 508 MB for each R_hh; the
# largest D a test, a README example or a benchmark workload runs is 766 (q = 3, 256 levels)
MAX_DIMENSION = 1024
# the largest dense pair data, n_cal x 2(D + 1) doubles ([y_ax, h_ax, y_x, h_x]), that a config
# may ask for. The statistics keep only the (2D + 2)^2 Gram matrix, the keys and the
# min(prod p_i, n_cal) x q tables, but their dense views h_ax and h_x take that much when read,
# as the benchmark's tracer and the test oracles read them. The largest any test, README example
# or workload builds is 48 MB (n_cal = 10^6 at D = 2, the declared-range test); the default's is
# 0.64 MB and D = 766 at the default n_cal takes 24.5 MB
MAX_STATISTICS_BYTES = 2 ** 30

# runs of consecutive tasks per pool worker, by measurement (2 workers, 2-vCPU Xeon VM):
# a 500-task HEC delta sweep ran at 245 members/s one task per queue round trip and at
# 311-337 with runs of 5 to 32; a 24-task SGD convergence sweep at 82 and 80 with runs
# of 1 and 2. 16 gives them runs of 16 and 1, and a worker's idle tail a 16th of its share
CHUNKS_PER_WORKER = 16

# seed-stream roles per population member
_ROLE_MISMATCH, _ROLE_DELTA, _ROLE_CAL_NOISE, _ROLE_EVAL_NOISE = 0, 1, 2, 3


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# accepted values by field annotation; None only where the annotation adds "| None"
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


def _real(value, name: str) -> float:
    """`value` as a Python float under the float-field rule: a real number, not a bool or a str."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, not {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is an integer too large for a float") from None


@dataclass(frozen=True)
class _Range:
    """A config field's declared values: the numbers from lo to hi, each end closed "[" or
    open "(", finite unless `inf` admits +inf too; or one of `choices`; or, where `owner`
    names the code that checks the field's range, any finite number or value of its kind."""

    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "()"
    inf: bool = False
    choices: tuple = ()
    owner: str = ""

    def admits(self, value) -> bool:
        if self.choices or isinstance(value, str):
            return value in self.choices or bool(self.owner)
        above = self.lo < value if self.ends[0] == "(" else self.lo <= value
        below = value < self.hi if self.ends[1] == ")" else value <= self.hi
        return value == math.inf and self.inf or -math.inf < value < math.inf and above and below

    def __str__(self) -> str:
        interval = f"in {self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}" + " or +inf" * self.inf
        return f"one of {self.choices}" if self.choices else interval


def _field(default, *bounds, **declared):
    """A config field and its one declared `_Range`, checked by __post_init__."""
    return field(default=default, metadata={"range": _Range(*bounds, **declared)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; defaults reproduce the reference
    simulation study (13-bit converter, q=3, SNR 70 dB, alpha_d = 1/sqrt(2),
    delta ~ N(0, 1e-4)). Each field declares its range."""

    master_seed: int = _field(dataclasses.MISSING, 0, math.inf, "[)")
    population: int = _field(100, 0, 10 ** 5, "[]")    # a task each; construction draws each delta
    resolution_bits: int = _field(13, owner="adc.lsb_size")
    pipeline_stages: int = _field(5, 1, 32, "[]")   # at gain 4, 2 bits each: past a double's 53
    stage_levels: int = _field(7, 2, 256, "[]")     # 8 bits; the statistics grow as (q x levels)^2
    stage_gain: float = _field(4.0, owner="adc.StageSpec")
    flash_bits: int = _field(3, 1, 16, "[]")        # 2**bits codes, one pass each per conversion
    gain_bound_lsb: float = _field(25.0, owner="adc.MismatchConfig")
    dac_bound_lsb: float = _field(34.0, owner="adc.MismatchConfig")
    gain_error_reference: float | None = _field(1.0, owner="adc.MismatchConfig")
    ideal_included_stages: bool = _field(False, choices=(False, True))
    q: int = _field(3, 1, 32, "[]")                 # and at most pipeline_stages
    tones: tuple[tuple[float, float, float], ...] = _field(((DEFAULT_TONE_OMEGA, 1.0, 0.0),),
                                                           owner="signals.ToneSpec")
    cal_amplitude: float = _field(0.995, 0, 1, "(]")
    eval_amplitude: float = _field(0.95, 0, 1, "(]")
    coherent_snap: bool = _field(True, choices=(False, True))
    snr_db: float | None = _field(70.0, *SNR_DB_RANGE, "[]", inf=True)     # None, +inf: noiseless
    noise_mode: str = _field("held", owner="signals.PathConfig")
    eval_snr_db: float | None = _field(None, *SNR_DB_RANGE, "[]", inf=True)
    alpha_d: float = _field(1.0 / math.sqrt(2.0), 0, 1, "()")
    delta_mode: str = _field("normal", choices=("normal", "fixed"))
    delta_value: float = _field(0.0, owner="signals.PathConfig")     # the delta of "fixed"
    delta_std: float = _field(0.01, 0, math.inf, "[)")      # "normal" draws N(0, delta_std^2)
    algorithm: str = _field("blhec-wiener", choices=ALGORITHMS)
    n_cal: int = _field(2000, 2, 10 ** 6, "[]")     # converted at once, 2(D+1) statistics a pair
    n_sgd: int = _field(48000, 1, 10 ** 7, "[]")    # the noise is drawn whole, 8 bytes a sample
    mu_nl_init: float = _field(2.0 ** -2, 0, math.inf, "()")
    mu_halve_every: int = _field(12000, 0, math.inf, "[)")     # 0 keeps the step constant
    mu_nl_min: float = _field(2.0 ** -6, 0, math.inf, "()")
    mu_alpha_ratio: float = _field(0.5, 0, math.inf, "[)")
    sgd_guard: float = _field(1.0, 0, math.inf, "()", inf=True)    # +inf: no bound
    n_fft: int = _field(16384, 8, 2 ** 22, "[]")    # 8 leaves a spur bin under rect and hann
    window: str = _field("rect", choices=WINDOWS)
    eval_samples: int = _field(16384, 8, 2 ** 22, "[]")     # converted in one batch

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value, declared = getattr(self, f.name), f.metadata["range"]
            kind = f.type.removesuffix(" | None")
            if kind not in _FIELD_KINDS or (value is None and kind != f.type):
                continue
            cls, what = _FIELD_KINDS[kind]
            if isinstance(value, bool) != (kind == "bool") or not isinstance(value, cls):
                raise ConfigError(f"{f.name} must be {what}, not {_shown(value)}")
            if kind == "int":       # any integer type is kept as a Python int
                object.__setattr__(self, f.name, value := int(value))
            elif isinstance(value, np.generic):     # a numpy scalar is kept as its Python value
                object.__setattr__(self, f.name, value.item())
            if not declared.admits(_real(value, f.name) if kind == "float" else value):
                raise ConfigError(f"{f.name} must be {declared}, not {_shown(value)}")
        if self.q > self.pipeline_stages:
            raise ConfigError(f"q={self.q} outside 1..{self.pipeline_stages}")
        # every member's scaling path, drawn deltas included: no member fails on its config
        for idx in range(max(self.population, 1) if self.delta_mode == "normal" else 1):
            try:
                _scaling_path(self, idx)
            except ValueError as exc:
                raise ConfigError(f"adc {idx}: {exc}") from exc
        try:
            tones = tuple(tuple(_real(v, "a tone value") for v in tone) for tone in self.tones)
            for omega, amp, phase in tones:
                ToneSpec(omega, amp, phase)
        except (TypeError, ValueError) as exc:      # a ConfigError is a ValueError
            raise ConfigError(f"invalid tones: {exc}") from exc
        if not tones:
            raise ConfigError("need at least one test tone")
        object.__setattr__(self, "tones", tones)
        if self.eval_samples < self.n_fft:
            raise ConfigError("eval_samples must be at least n_fft")
        peak = sum(amp for _, amp, _ in self.tones) * max(self.cal_amplitude, self.eval_amplitude)
        if peak > 1.0:
            raise ConfigError(f"tone amplitudes sum to a peak of {peak:g} full scale after the "
                              "backoff; the converter input would clip")
        try:
            stages, _, mismatch = _converter_model(self)     # the quantizing stages are identical
            stage_mismatch_bounds(stages[0], mismatch, lsb_size(self.resolution_bits))
        except AdcModelError as exc:
            raise ConfigError(f"converter model: {exc}") from exc
        # voltages are normalized to v_ref = 1; the default stage sits exactly at the limit
        residue = self.stage_gain * stages[0].max_digitization_error()
        if not residue <= 1.0:
            raise ConfigError(f"stage_gain x largest digitization error = {residue:g} exceeds "
                              "v_ref = 1: the residue would overload the next stage")
        if self.n_fft & (self.n_fft - 1):
            raise ConfigError("n_fft must be a power of two")
        try:
            signal_regions(self.eval_bins(), self.window, self.n_fft)
        except ValueError as exc:
            raise ConfigError(f"evaluation at {self.window}, n_fft={self.n_fft}: {exc}") from exc
        dim = model_dimension((self.stage_levels,) * self.q)
        if dim > MAX_DIMENSION:
            raise ConfigError(f"q={self.q} stages of {self.stage_levels} levels give D={dim} "
                              f"correction parameters, more than {MAX_DIMENSION}")
        if self.n_cal < dim:
            raise ConfigError(f"n_cal={self.n_cal} is below the D={dim} correction parameters")
        if self.n_cal * 2 * (dim + 1) * 8 > MAX_STATISTICS_BYTES:
            raise ConfigError(f"n_cal={self.n_cal} pairs at D={dim} need a statistics buffer of "
                              f"{self.n_cal * 2 * (dim + 1) * 8} bytes, more than "
                              f"{MAX_STATISTICS_BYTES}")
        if self.mu_nl_min > self.mu_nl_init:
            raise ConfigError(f"mu_nl_min={self.mu_nl_min:g} exceeds mu_nl_init="
                              f"{self.mu_nl_init:g}: the floor would replace the initial step")

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "tones": [list(t) for t in self.tones]}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(**d)
        except TypeError as exc:        # an unknown or a missing field
            raise ConfigError(str(exc)) from exc

    def digest(self) -> str:
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:       # computed on first use: every member row names it
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def schedule(self) -> StepSchedule:
        return StepSchedule(mu_nl_init=self.mu_nl_init, halve_every=self.mu_halve_every,
                            mu_nl_min=self.mu_nl_min, alpha_ratio=self.mu_alpha_ratio)

    def run_tones(self, scale: float = 1.0) -> list[ToneSpec]:
        """Tone set with coherent snapping and a level backoff applied.

        Calibration needs levels close to full scale so the deep-stage codes
        are exercised; evaluation backs off further so the metrics are not
        dominated by edge-of-range residue overload.
        """
        return [ToneSpec(snap_to_odd_bin(omega, self.n_fft) if self.coherent_snap else omega,
                         amp * scale, phase) for omega, amp, phase in self.tones]

    def eval_bins(self) -> list[int]:
        """The FFT bins of the evaluation tones, the signal bins of every metric."""
        return [tone_bin(t.omega, self.n_fft) for t in self.run_tones(self.eval_amplitude)]


def default_config(master_seed: int, **overrides) -> ExperimentConfig:
    return ExperimentConfig(master_seed=master_seed, **overrides)


@dataclass
class ResultRow:
    """Per-converter outcome of one experiment run."""

    adc_id: int
    seed: int                   # derived child-seed fingerprint
    config_digest: str
    algorithm: str
    pre_sndr_db: float
    pre_sfdr_db: float
    post_sndr_db: float
    post_sfdr_db: float
    theta_alpha: float
    delta_true: float
    samples: int
    wall_clock_s: float
    sweep_kind: str = ""
    sweep_value: float | None = None
    # whether the row's BL-HEC solve (the calibration itself, or a
    # convergence sweep's reference) met its tolerance; None without one.
    # Like wall_clock_s, not a results.csv column.
    blhec_converged: bool | None = None


def _seed_for(config: ExperimentConfig, idx: int, role: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(config.master_seed, spawn_key=(idx, role))


def _seed_fingerprint(config: ExperimentConfig, idx: int) -> int:
    ss = np.random.SeedSequence(config.master_seed, spawn_key=(idx,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _converter_model(config: ExperimentConfig):
    """Stage specs, flash back end and mismatch bounds of the configured converter."""
    stages, flash = default_stage_specs(config.pipeline_stages, config.stage_levels,
                                        config.stage_gain, config.flash_bits)
    mismatch = MismatchConfig(gain_bound_lsb=config.gain_bound_lsb,
                              dac_bound_lsb=config.dac_bound_lsb,
                              gain_error_reference=config.gain_error_reference)
    return stages, flash, mismatch


def _scaling_path(config: ExperimentConfig, idx: int) -> PathConfig:
    """Member idx's PathConfig: alpha_a = alpha_d + delta, delta fixed or drawn from its stream."""
    if config.delta_mode == "fixed":
        delta = config.delta_value
    else:
        delta = float(np.random.default_rng(_seed_for(config, idx, _ROLE_DELTA))
                      .normal(0.0, config.delta_std))
    return PathConfig(alpha_a=config.alpha_d + delta, alpha_d=config.alpha_d,
                      snr_db=config.snr_db, noise_mode=config.noise_mode)


def _build_member(config: ExperimentConfig, idx: int):
    """Converter instance, scaling path, and layout for population member idx."""
    stages, flash, mismatch = _converter_model(config)
    adc = build_adc(stages, flash, mismatch, _seed_for(config, idx, _ROLE_MISMATCH),
                    resolution_bits=config.resolution_bits,
                    ideal_stages=config.q if config.ideal_included_stages else 0)
    return adc, _scaling_path(config, idx), CorrectionLayout.from_adc(adc, config.q)


def evaluation_batch(config: ExperimentConfig, idx: int,
                     adc: AdcInstance | None = None) -> ConversionBatch:
    """Member idx's conversions of its evaluation signal, the input of its metrics.

    The signal is the backed-off test tones shifted by EVAL_PHASE_OFFSET,
    plus the member's seeded noise when eval_snr_db is set. Passing the
    member's `adc` saves rebuilding it.
    """
    if adc is None:
        adc = _build_member(config, idx)[0]
    tones = tuple(ToneSpec(t.omega, t.amplitude, t.phase + EVAL_PHASE_OFFSET)
                  for t in config.run_tones(config.eval_amplitude))
    x_eval = cached_tones(tones, config.eval_samples)
    sigma = noise_sigma(x_eval, config.eval_snr_db)
    if sigma is not None:
        rng = np.random.default_rng(_seed_for(config, idx, _ROLE_EVAL_NOISE))
        x_eval = x_eval + rng.normal(0.0, sigma, x_eval.size)
    return convert_many(adc, x_eval)


def _evaluate(config: ExperimentConfig, adc, layout, idx: int, thetas):
    """Pre metrics, and post metrics for each correction in `thetas`, on the
    member's freshly generated evaluation signal, converted once."""
    batch = evaluation_batch(config, idx, adc)
    sel = selection_vectors(batch, layout)
    bins = config.eval_bins()

    pre = analyze(spectrum(batch.y, config.window, config.n_fft), bins)
    posts = [analyze(spectrum(apply_correction_batch(batch.y, sel, theta), config.window,
                              config.n_fft), bins)
             for theta in thetas]
    return pre, posts


def _run_member(task) -> tuple[list[ResultRow], list[tuple[int, int, float]]]:
    """`_member_rows` of a task (config, idx, kind, value): the one place a
    member failure is labeled. A constructed config's members all build, so
    only NUMERICAL_FAILURES come out: each is re-raised as the same object,
    type, traceback and attributes kept, with its message prefixed
    `adc <idx>: ` and `member` set to idx."""
    idx = task[1]
    try:
        return _member_rows(*task)
    except NUMERICAL_FAILURES as exc:
        exc.args = (f"adc {idx}: {exc}",)
        exc.member = idx
        raise


def _member_rows(config: ExperimentConfig, idx: int, kind: str, value):
    """Build, calibrate and evaluate population member idx.

    kind and value label the rows ("" and None outside a sweep). The member's
    pairs are one PairSource over its budget: n_cal, n_sgd, or the checkpoint
    list value of a convergence sweep (adaptive only), whose member gets one
    row and one error norm per checkpoint, all evaluated on one conversion of
    its evaluation signal. A Wiener solve, the member's own or a convergence
    reference, reads the first n_cal pairs. A row's wall_clock_s is its
    member's build-to-evaluation time. Failures are raised unlabeled.
    """
    checkpoints = value if kind == "convergence" else None
    start = time.perf_counter()
    adc, path, layout = _build_member(config, idx)
    adaptive = config.algorithm in ADAPTIVE
    samples = checkpoints or [config.n_sgd if adaptive else config.n_cal]
    x_cal = cached_tones(tuple(config.run_tones(config.cal_amplitude)), samples[-1])
    pairs = PairSource(adc, x_cal, path, _seed_for(config, idx, _ROLE_CAL_NOISE))

    reference, theta_alpha, converged = None, 0.0, None
    if checkpoints or not adaptive:
        stats = accumulate_statistics(pairs[:config.n_cal], layout, config.alpha_d)
        if config.algorithm == "hec-wiener":
            reference = hec_wiener(stats)
        else:
            res = blhec_wiener(stats)
            reference, theta_alpha, converged = res.theta_nl, res.theta_alpha, res.converged
    points = [(config.n_cal, reference, theta_alpha)]
    if adaptive:
        state, snapshots = run_sgd(pairs, layout, config.alpha_d, schedule=config.schedule(),
                                   guard=config.sgd_guard, checkpoints=samples)
        _check_coverage(state.code_counts, layout)
        points = [(k, *snapshots[k]) for k in samples]
    del pairs

    pre, posts = _evaluate(config, adc, layout, idx, [theta for _, theta, _ in points])
    wall = time.perf_counter() - start
    fingerprint, digest = _seed_fingerprint(config, idx), config.digest()
    rows = [ResultRow(adc_id=idx, seed=fingerprint, config_digest=digest,
                      algorithm=config.algorithm, pre_sndr_db=pre.sndr_db,
                      pre_sfdr_db=pre.sfdr_db, post_sndr_db=post.sndr_db,
                      post_sfdr_db=post.sfdr_db, theta_alpha=alpha, delta_true=path.delta,
                      samples=k, wall_clock_s=wall, sweep_kind=kind,
                      sweep_value=float(k) if checkpoints else value,
                      blhec_converged=converged)
            for (k, _, alpha), post in zip(points, posts)]
    norms = [(idx, k, error_norm(theta, reference)) for k, theta, _ in points] if checkpoints else []
    return rows, norms


def _run_tasks(tasks: list, workers: int):
    """Every task through `_run_member`, serially or in one pool with no more
    processes than tasks, in runs of consecutive tasks, at most CHUNKS_PER_WORKER
    runs per process. Rows and norms come back in task order; a run stops at its
    first failure, so the failure raised is the first in task order."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        outcomes = [_run_member(t) for t in tasks]
    else:
        workers = min(workers, len(tasks))      # so no more workers than runs
        chunk = math.ceil(len(tasks) / (workers * CHUNKS_PER_WORKER))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_member, tasks, chunksize=chunk))
    rows = [row for member_rows, _ in outcomes for row in member_rows]
    norms = [norm for _, member_norms in outcomes for norm in member_norms]
    return rows, norms


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Calibrate and evaluate every population member; rows in adc_id order.

    Members are independent: each derives its own seed streams from
    (master_seed, adc_id) and is calibrated on its own, so results do not
    depend on the worker count or on which other members are present.
    """
    rows, _ = _run_tasks([(config, idx, "", None) for idx in range(config.population)], workers)
    return rows


@dataclass
class SweepResult:
    kind: str
    points: list[float]
    rows: dict[float, list[ResultRow]]
    error_norms: list[tuple[int, int, float]] = field(default_factory=list)  # (adc_id, k, norm)


def _sweep_config(config: ExperimentConfig, kind: str, value: float) -> ExperimentConfig:
    if kind == "alpha":
        # matched scaling pair alpha_a = alpha_d = value
        return dataclasses.replace(config, alpha_d=value, delta_mode="fixed", delta_value=0.0)
    if kind == "snr":
        return dataclasses.replace(config, snr_db=value)
    return dataclasses.replace(config, delta_mode="fixed", delta_value=value)


def run_sweep(kind: str, config: ExperimentConfig, grid, workers: int = 1) -> SweepResult:
    """One population run per grid point, all points' members in one pool.

    alpha       -- matched scaling factor sweep (delta = 0)
    snr         -- calibration-signal SNR sweep [dB]
    delta       -- fixed scaling-factor-mismatch sweep
    convergence -- sample-budget checkpoints of the adaptive estimator

    All grid values and scaling paths are checked before any member runs. Rows
    come in adc_id order; convergence points and error norms in ascending order.
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {_shown(kind)}, expected one of {SWEEP_KINDS}")
    points = [_real(k, "a sweep grid value") for k in grid]
    if len(set(points)) < len(points):
        raise ConfigError(f"sweep grid repeats a value: {grid}")

    if kind == "convergence":
        if config.algorithm not in ADAPTIVE:
            raise ConfigError(f"convergence sweeps require an adaptive algorithm, one of {ADAPTIVE}")
        budget = ExperimentConfig.__dataclass_fields__["n_sgd"].metadata["range"]
        if not all(k.is_integer() and budget.admits(k) for k in points):
            raise ConfigError(f"checkpoints must be integers {budget}, as n_sgd: {grid}")
        points.sort()
        checkpoints = [int(k) for k in points]
        if checkpoints[-1] < config.n_cal:
            raise ConfigError(f"the last checkpoint {checkpoints[-1]} is below n_cal={config.n_cal}, "
                              "the pairs the BL-HEC reference is solved from")
        tasks = [(config, idx, kind, checkpoints) for idx in range(config.population)]
    else:
        configs = [_sweep_config(config, kind, value) for value in points]
        tasks = [(cfg, idx, kind, value) for cfg, value in zip(configs, points)
                 for idx in range(cfg.population)]
    rows, norms = _run_tasks(tasks, workers)
    rows_per_point = {value: [r for r in rows if r.sweep_value == value] for value in points}
    return SweepResult(kind=kind, points=points, rows=rows_per_point, error_norms=norms)


# ---------------------------------------------------------------------------
# output emission

_ROW_COLUMNS = [
    "adc_id", "seed", "config_digest", "algorithm",
    "pre_sndr_db", "pre_sfdr_db", "post_sndr_db", "post_sfdr_db",
    "theta_alpha", "delta_true", "samples", "sweep_kind", "sweep_value",
]

_METRICS = ["pre_sndr_db", "pre_sfdr_db", "post_sndr_db", "post_sfdr_db"]
_STATS = {"mean": np.mean, "min": np.min, "max": np.max}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, schema: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_outputs(rows: list[ResultRow], out_dir, include_timings: bool = False) -> Path:
    """Write one CSV row per ResultRow; byte-identical for identical inputs.

    Wall-clock timings are excluded unless requested, since they would break
    the determinism contract of the output files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = _ROW_COLUMNS + (["wall_clock_s"] if include_timings else [])
    data = [[getattr(row, c) for c in columns]
            for row in sorted(rows, key=lambda r: (r.sweep_kind, r.sweep_value or 0.0, r.adc_id))]
    path = out_dir / "results.csv"
    _write_csv(path, RESULTS_SCHEMA, columns, data)
    return path


def aggregate_rows(rows: list[ResultRow]) -> dict[str, dict[str, float]]:
    """Mean/min/max per metric over a row set (arithmetic means of dB values)."""
    out: dict[str, dict[str, float]] = {}
    for metric in _METRICS:
        values = [getattr(r, metric) for r in rows] or [math.nan]     # no rows: all NaN
        out[metric] = {stat: float(reduce(values)) for stat, reduce in _STATS.items()}
    return out


def emit_sweep_outputs(sweep: SweepResult, out_dir, include_timings: bool = False) -> list[Path]:
    """Row CSV plus a per-grid-point aggregate CSV (and, for convergence
    sweeps, the per-sample error-norm log)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    all_rows = [row for point in sweep.points for row in sweep.rows[point]]
    paths.append(emit_outputs(all_rows, out_dir, include_timings=include_timings))

    header = ["sweep_kind", "sweep_value", "n"] + [f"{m}_{s}" for m in _METRICS for s in _STATS]
    agg_rows = []
    for point in sweep.points:
        stats = aggregate_rows(sweep.rows[point])
        agg_rows.append([sweep.kind, point, len(sweep.rows[point])]
                        + [stats[m][s] for m in _METRICS for s in _STATS])
    agg_path = out_dir / "aggregate.csv"
    _write_csv(agg_path, AGGREGATE_SCHEMA, header, agg_rows)
    paths.append(agg_path)

    if sweep.error_norms:
        norm_path = out_dir / "error_norms.csv"
        _write_csv(norm_path, AGGREGATE_SCHEMA, ["adc_id", "samples", "error_norm"],
                   [list(t) for t in sweep.error_norms])
        paths.append(norm_path)
    return paths

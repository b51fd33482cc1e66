"""Configuration-driven experiment runner.

Builds seeded converter populations, calibrates each member with the selected
algorithm, evaluates SFDR/SNDR on a freshly generated clean signal, and emits
deterministic CSV files. Sweeps rerun the same population over a parameter
grid (scaling factor, SNR, scaling mismatch, or sample budget).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adc import MismatchConfig, build_adc, convert_many, default_stage_specs
from .calibration import (
    StepSchedule,
    accumulate_statistics,
    blhec_wiener,
    hec_wiener,
    run_sgd,
)
from .correction import CorrectionLayout, apply_correction_batch, model_dimension, selection_vectors
from .signals import PathConfig, ToneSpec, gen_tones, make_pairs, snap_to_odd_bin
from .spectral import WINDOWS, analyze, spectrum, tone_bin

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "SweepResult",
    "ConfigError",
    "default_config",
    "run_experiment",
    "run_sweep",
    "emit_outputs",
    "emit_sweep_outputs",
    "aggregate_rows",
]

RESULTS_SCHEMA = "pipecal-results/1"
AGGREGATE_SCHEMA = "pipecal-aggregate/1"

ALGORITHMS = ("hec-wiener", "blhec-wiener", "blhec-sgd")
SWEEP_KINDS = ("alpha", "snr", "delta", "convergence")

# default test tone: 10.77 MHz at 100 MHz sampling
DEFAULT_TONE_OMEGA = 2.0 * math.pi * 10.77 / 100.0
EVAL_PHASE_OFFSET = math.pi / 4.0

# seed-stream roles per population member
_ROLE_MISMATCH, _ROLE_DELTA, _ROLE_CAL_NOISE, _ROLE_EVAL_NOISE = 0, 1, 2, 3


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; defaults reproduce the reference
    simulation study (13-bit converter, q=3, SNR 70 dB, alpha_d = 1/sqrt(2),
    delta ~ N(0, 1e-4))."""

    master_seed: int
    population: int = 100
    resolution_bits: int = 13
    pipeline_stages: int = 5
    stage_levels: int = 7
    stage_gain: float = 4.0
    flash_bits: int = 3
    gain_bound_lsb: float = 25.0
    dac_bound_lsb: float = 34.0
    gain_error_reference: float | None = 1.0
    ideal_included_stages: bool = False
    q: int = 3
    tones: tuple[tuple[float, float, float], ...] = ((DEFAULT_TONE_OMEGA, 1.0, 0.0),)
    cal_amplitude: float = 0.995
    eval_amplitude: float = 0.95
    coherent_snap: bool = True
    snr_db: float | None = 70.0
    noise_mode: str = "held"
    eval_snr_db: float | None = None
    alpha_d: float = 1.0 / math.sqrt(2.0)
    delta_mode: str = "normal"          # "normal" -> N(0, delta_std^2), "fixed" -> delta_value
    delta_value: float = 0.0
    delta_std: float = 0.01
    algorithm: str = "blhec-wiener"
    n_cal: int = 2000
    n_sgd: int = 48000
    mu_nl_init: float = 2.0 ** -2
    mu_halve_every: int = 12000
    mu_nl_min: float = 2.0 ** -6
    mu_alpha_ratio: float = 0.5
    sgd_guard: float = 1.0
    n_fft: int = 16384
    window: str = "rect"
    eval_samples: int = 16384

    def __post_init__(self) -> None:
        if self.population < 0:
            raise ConfigError("population must be non-negative")
        if not 1 <= self.q <= self.pipeline_stages:
            raise ConfigError(f"q={self.q} outside 1..{self.pipeline_stages}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.delta_mode not in ("normal", "fixed"):
            raise ConfigError(f"unknown delta mode {self.delta_mode!r}")
        if self.noise_mode not in ("held", "independent"):
            raise ConfigError(f"unknown noise mode {self.noise_mode!r}")
        if not 0.0 < self.alpha_d < 1.0:
            raise ConfigError("alpha_d must be in (0, 1)")
        if not self.tones:
            raise ConfigError("need at least one test tone")
        for omega, amp, _ in self.tones:
            if not 0.0 < omega < math.pi:
                raise ConfigError(f"tone frequency {omega} outside (0, pi)")
            if not 0.0 <= amp <= 1.0:
                raise ConfigError("tone amplitude must be in [0, 1]")
        if self.eval_samples < self.n_fft:
            raise ConfigError("eval_samples must be at least n_fft")
        if not 0.0 < self.cal_amplitude <= 1.0 or not 0.0 < self.eval_amplitude <= 1.0:
            raise ConfigError("amplitude backoffs must be in (0, 1]")
        if self.n_fft & (self.n_fft - 1):
            raise ConfigError("n_fft must be a power of two")
        if self.window not in WINDOWS:
            raise ConfigError(f"unknown window {self.window!r}, expected one of {WINDOWS}")
        dim = model_dimension((self.stage_levels,) * self.q)
        if self.n_cal < dim:
            raise ConfigError(f"n_cal={self.n_cal} is below the D={dim} correction parameters")
        if self.n_sgd < 0 or (self.algorithm == "blhec-sgd" and self.n_sgd < 1):
            raise ConfigError("n_sgd must be non-negative, and positive for blhec-sgd")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["tones"] = [list(t) for t in self.tones]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        if "tones" in d:
            d["tones"] = tuple(tuple(float(v) for v in t) for t in d["tones"])
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def digest(self) -> str:
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
        specs = []
        for omega, amp, phase in self.tones:
            if self.coherent_snap:
                omega = snap_to_odd_bin(omega, self.n_fft)
            specs.append(ToneSpec(omega=omega, amplitude=amp * scale, phase=phase))
        return specs


def default_config(master_seed: int, **overrides) -> ExperimentConfig:
    return dataclasses.replace(ExperimentConfig(master_seed=master_seed), **overrides)


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


def _seed_for(config: ExperimentConfig, idx: int, role: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(config.master_seed, spawn_key=(idx, role))


def _seed_fingerprint(config: ExperimentConfig, idx: int) -> int:
    ss = np.random.SeedSequence(config.master_seed, spawn_key=(idx,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _build_member(config: ExperimentConfig, idx: int):
    """Converter instance, scaling path, and layout for population member idx."""
    stages, flash = default_stage_specs(config.pipeline_stages, config.stage_levels,
                                        config.stage_gain, config.flash_bits)
    mismatch = MismatchConfig(gain_bound_lsb=config.gain_bound_lsb,
                              dac_bound_lsb=config.dac_bound_lsb,
                              gain_error_reference=config.gain_error_reference)
    adc = build_adc(stages, flash, mismatch, _seed_for(config, idx, _ROLE_MISMATCH),
                    resolution_bits=config.resolution_bits,
                    ideal_stages=config.q if config.ideal_included_stages else 0)

    if config.delta_mode == "fixed":
        delta = config.delta_value
    else:
        rng = np.random.default_rng(_seed_for(config, idx, _ROLE_DELTA))
        delta = float(rng.normal(0.0, config.delta_std))
    path = PathConfig(alpha_a=config.alpha_d + delta, alpha_d=config.alpha_d,
                      snr_db=config.snr_db, noise_mode=config.noise_mode)
    layout = CorrectionLayout.from_adc(adc, config.q)
    return adc, path, layout


def _calibrate(config: ExperimentConfig, adc, path, layout, idx: int):
    """Run the selected estimator; returns (theta_nl, theta_alpha, samples_used)."""
    n_samples = config.n_sgd if config.algorithm == "blhec-sgd" else config.n_cal
    x_cal = gen_tones(config.run_tones(config.cal_amplitude), n_samples)
    pairs = make_pairs(adc, x_cal, path, _seed_for(config, idx, _ROLE_CAL_NOISE))

    if config.algorithm == "hec-wiener":
        stats = accumulate_statistics(pairs, layout, config.alpha_d, n=config.n_cal)
        return hec_wiener(stats), 0.0, config.n_cal
    if config.algorithm == "blhec-wiener":
        stats = accumulate_statistics(pairs, layout, config.alpha_d, n=config.n_cal)
        res = blhec_wiener(stats)
        return res.theta_nl, res.theta_alpha, config.n_cal
    state, _ = run_sgd(pairs, layout, config.alpha_d, schedule=config.schedule(),
                       guard=config.sgd_guard)
    return state.theta_nl, state.theta_alpha, config.n_sgd


def _evaluate(config: ExperimentConfig, adc, layout, theta, idx: int):
    """Pre/post metrics on a clean, freshly generated evaluation signal."""
    tones = [ToneSpec(t.omega, t.amplitude, t.phase + EVAL_PHASE_OFFSET)
             for t in config.run_tones(config.eval_amplitude)]
    x_eval = gen_tones(tones, config.eval_samples)
    if config.eval_snr_db is not None and not math.isinf(config.eval_snr_db):
        rng = np.random.default_rng(_seed_for(config, idx, _ROLE_EVAL_NOISE))
        sigma = math.sqrt(float(np.mean(x_eval ** 2)) / 10.0 ** (config.eval_snr_db / 10.0))
        x_eval = x_eval + rng.normal(0.0, sigma, x_eval.size)

    batch = convert_many(adc, x_eval)
    sel = selection_vectors(batch, layout)
    bins = [tone_bin(t.omega, config.n_fft) for t in tones]

    pre = analyze(spectrum(batch.y, config.window, config.n_fft), bins)
    y_post = apply_correction_batch(batch.y, sel, theta)
    post = analyze(spectrum(y_post, config.window, config.n_fft), bins)
    return pre, post


def _run_member(args) -> ResultRow:
    config, idx = args
    start = time.perf_counter()
    adc, path, layout = _build_member(config, idx)
    theta, theta_alpha, samples = _calibrate(config, adc, path, layout, idx)
    pre, post = _evaluate(config, adc, layout, theta, idx)
    wall = time.perf_counter() - start
    return ResultRow(
        adc_id=idx,
        seed=_seed_fingerprint(config, idx),
        config_digest=config.digest(),
        algorithm=config.algorithm,
        pre_sndr_db=pre.sndr_db,
        pre_sfdr_db=pre.sfdr_db,
        post_sndr_db=post.sndr_db,
        post_sfdr_db=post.sfdr_db,
        theta_alpha=theta_alpha,
        delta_true=path.delta,
        samples=samples,
        wall_clock_s=wall,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Calibrate and evaluate every population member.

    Members are independent: each derives its own seed streams from
    (master_seed, adc_id), so results do not depend on the worker count or
    on which other members are present.
    """
    tasks = [(config, idx) for idx in range(config.population)]
    if workers <= 1 or not tasks:
        rows = [_run_member(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_member, tasks))
    rows.sort(key=lambda r: r.adc_id)
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
        return dataclasses.replace(config, alpha_d=float(value),
                                   delta_mode="fixed", delta_value=0.0)
    if kind == "snr":
        return dataclasses.replace(config, snr_db=float(value))
    if kind == "delta":
        return dataclasses.replace(config, delta_mode="fixed", delta_value=float(value))
    raise ConfigError(f"unknown sweep kind {kind!r}")


def _run_convergence_member(args):
    config, idx, checkpoints = args
    adc, path, layout = _build_member(config, idx)
    n_samples = max(checkpoints)
    x_cal = gen_tones(config.run_tones(config.cal_amplitude), n_samples)
    pairs = make_pairs(adc, x_cal, path, _seed_for(config, idx, _ROLE_CAL_NOISE))

    reference = blhec_wiener(pairs.head(config.n_cal), layout, config.alpha_d).theta_nl
    start = time.perf_counter()
    _, traj = run_sgd(pairs, layout, config.alpha_d, schedule=config.schedule(),
                      guard=config.sgd_guard, reference=reference,
                      checkpoints=list(checkpoints))
    wall = time.perf_counter() - start

    rows = []
    norms = []
    for k in checkpoints:
        theta_k, alpha_k = traj.checkpoints[k]
        pre, post = _evaluate(config, adc, layout, theta_k, idx)
        rows.append(ResultRow(
            adc_id=idx, seed=_seed_fingerprint(config, idx), config_digest=config.digest(),
            algorithm=config.algorithm, pre_sndr_db=pre.sndr_db, pre_sfdr_db=pre.sfdr_db,
            post_sndr_db=post.sndr_db, post_sfdr_db=post.sfdr_db, theta_alpha=alpha_k,
            delta_true=path.delta, samples=k, wall_clock_s=wall,
            sweep_kind="convergence", sweep_value=float(k),
        ))
        norms.append((idx, k, float(np.linalg.norm(theta_k - reference))))
    return rows, norms


def run_sweep(kind: str, config: ExperimentConfig, grid, workers: int = 1) -> SweepResult:
    """One averaged population run per grid point.

    alpha       -- matched scaling factor sweep (delta = 0)
    snr         -- calibration-signal SNR sweep [dB]
    delta       -- fixed scaling-factor-mismatch sweep
    convergence -- sample-budget checkpoints of the adaptive estimator
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {kind!r}, expected one of {SWEEP_KINDS}")

    if kind == "convergence":
        if config.algorithm != "blhec-sgd":
            raise ConfigError("convergence sweeps require the blhec-sgd algorithm")
        checkpoints = sorted(int(k) for k in grid)
        if checkpoints[0] < 1:
            raise ConfigError("sample checkpoints must be positive")
        tasks = [(config, idx, checkpoints) for idx in range(config.population)]
        if workers <= 1 or not tasks:
            outcomes = [_run_convergence_member(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_run_convergence_member, tasks))
        rows_per_point: dict[float, list[ResultRow]] = {float(k): [] for k in checkpoints}
        norms: list[tuple[int, int, float]] = []
        for rows, member_norms in outcomes:
            for row in rows:
                rows_per_point[float(row.samples)].append(row)
            norms.extend(member_norms)
        for point_rows in rows_per_point.values():
            point_rows.sort(key=lambda r: r.adc_id)
        norms.sort()
        return SweepResult(kind=kind, points=[float(k) for k in checkpoints],
                           rows=rows_per_point, error_norms=norms)

    rows: dict[float, list[ResultRow]] = {}
    for value in grid:
        cfg = _sweep_config(config, kind, value)
        point_rows = run_experiment(cfg, workers=workers)
        for row in point_rows:
            row.sweep_kind = kind
            row.sweep_value = float(value)
        rows[float(value)] = point_rows
    return SweepResult(kind=kind, points=[float(v) for v in grid], rows=rows)


# ---------------------------------------------------------------------------
# output emission

_ROW_COLUMNS = [
    "adc_id", "seed", "config_digest", "algorithm",
    "pre_sndr_db", "pre_sfdr_db", "post_sndr_db", "post_sfdr_db",
    "theta_alpha", "delta_true", "samples", "sweep_kind", "sweep_value",
]

_METRICS = ["pre_sndr_db", "pre_sfdr_db", "post_sndr_db", "post_sfdr_db"]


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


def emit_outputs(rows: list[ResultRow], out_dir, name: str = "results.csv",
                 include_timings: bool = False) -> Path:
    """Write one CSV row per ResultRow; byte-identical for identical inputs.

    Wall-clock timings are excluded unless requested, since they would break
    the determinism contract of the output files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = list(_ROW_COLUMNS) + (["wall_clock_s"] if include_timings else [])
    data = []
    for row in sorted(rows, key=lambda r: (r.sweep_kind, r.sweep_value or 0.0, r.adc_id)):
        values = [getattr(row, c) for c in _ROW_COLUMNS]
        if include_timings:
            values.append(row.wall_clock_s)
        data.append(values)
    path = out_dir / name
    _write_csv(path, RESULTS_SCHEMA, columns, data)
    return path


def aggregate_rows(rows: list[ResultRow]) -> dict[str, dict[str, float]]:
    """Mean/min/max per metric over a row set (arithmetic means of dB values)."""
    out: dict[str, dict[str, float]] = {}
    for metric in _METRICS:
        values = [getattr(r, metric) for r in rows]
        if values:
            out[metric] = {
                "mean": float(np.mean(values)),
                "min": float(np.min(values)),
                "max": float(np.max(values)),
            }
        else:
            out[metric] = {"mean": math.nan, "min": math.nan, "max": math.nan}
    return out


def emit_sweep_outputs(sweep: SweepResult, out_dir, include_timings: bool = False) -> list[Path]:
    """Row CSV plus a per-grid-point aggregate CSV (and, for convergence
    sweeps, the per-sample error-norm log)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    all_rows = [row for point in sweep.points for row in sweep.rows[point]]
    paths.append(emit_outputs(all_rows, out_dir, include_timings=include_timings))

    header = ["sweep_kind", "sweep_value", "n"]
    for metric in _METRICS:
        header += [f"{metric}_mean", f"{metric}_min", f"{metric}_max"]
    agg_rows = []
    for point in sweep.points:
        rows = sweep.rows[point]
        stats = aggregate_rows(rows)
        line: list = [sweep.kind, point, len(rows)]
        for metric in _METRICS:
            line += [stats[metric]["mean"], stats[metric]["min"], stats[metric]["max"]]
        agg_rows.append(line)
    agg_path = out_dir / "aggregate.csv"
    _write_csv(agg_path, AGGREGATE_SCHEMA, header, agg_rows)
    paths.append(agg_path)

    if sweep.error_norms:
        norm_path = out_dir / "error_norms.csv"
        _write_csv(norm_path, AGGREGATE_SCHEMA, ["adc_id", "samples", "error_norm"],
                   [list(t) for t in sweep.error_norms])
        paths.append(norm_path)
    return paths

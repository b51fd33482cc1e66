"""Command-line front end.

Subcommands: `simulate` (inspect one converter), `calibrate` (population
run), `sweep` (grid runs), `convergence` (sample-budget sweep). A JSON config
file supplies any ExperimentConfig field; command-line flags override it, and
--seed is always required so every run is reproducible.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    DivergenceError,
    NumericalError,
    RankDeficiencyError,
    SingularStatisticsError,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    aggregate_rows,
    emit_outputs,
    emit_sweep_outputs,
    run_experiment,
    run_sweep,
)
from .spectral import MisdeclaredSignalError, spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (RankDeficiencyError, SingularStatisticsError, DivergenceError,
                     NumericalError, MisdeclaredSignalError, np.linalg.LinAlgError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pipecal",
                                     description="Pipelined-ADC calibration experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, required=True, help="master seed (required)")
        p.add_argument("--config", type=Path, help="JSON config file with ExperimentConfig fields")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel population workers")
        p.add_argument("--timings", action="store_true", help="include wall-clock column in CSVs")
        p.add_argument("--population", type=int, help="number of converter instances")
        p.add_argument("--algorithm", choices=["hec-wiener", "blhec-wiener", "blhec-sgd"])
        p.add_argument("--q", type=int, help="number of calibrated stages")
        p.add_argument("--snr", type=float, help="calibration-signal SNR [dB]")
        p.add_argument("--alpha-d", type=float, help="digital scaling factor")
        p.add_argument("--delta", type=float, help="fixed scaling factor mismatch")
        p.add_argument("--samples", type=int, help="adaptive-run sample budget")

    p_sim = sub.add_parser("simulate", help="build and inspect a single converter")
    common(p_sim)
    p_sim.add_argument("--dump-spectrum", action="store_true",
                       help="write the uncalibrated evaluation spectrum to spectrum.csv")

    p_cal = sub.add_parser("calibrate", help="calibrate a converter population")
    common(p_cal)

    p_sweep = sub.add_parser("sweep", help="population runs over a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--kind", choices=["alpha", "snr", "delta"], required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated grid values, e.g. '-5e-3,0,5e-3'")

    p_conv = sub.add_parser("convergence", help="adaptive-run sample-budget sweep")
    common(p_conv)
    p_conv.add_argument("--checkpoints", required=True,
                        help="comma-separated sample counts, e.g. '2000,8000,48000'")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    fields: dict = {}
    if args.config is not None:
        try:
            fields = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(fields, dict):
            raise ConfigError("config file must contain a JSON object")
    fields["master_seed"] = args.seed
    if args.population is not None:
        fields["population"] = args.population
    if args.algorithm is not None:
        fields["algorithm"] = args.algorithm
    if args.q is not None:
        fields["q"] = args.q
    if args.snr is not None:
        fields["snr_db"] = args.snr
    if args.alpha_d is not None:
        fields["alpha_d"] = args.alpha_d
    if args.delta is not None:
        fields["delta_mode"] = "fixed"
        fields["delta_value"] = args.delta
    if args.samples is not None:
        fields["n_sgd"] = args.samples
    return ExperimentConfig.from_dict(fields)


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid value: {exc}") from exc
    if not values:
        raise ConfigError("grid must not be empty")
    return values


def _print_summary(rows) -> None:
    stats = aggregate_rows(rows)
    print(f"rows: {len(rows)}")
    for metric, s in stats.items():
        print(f"  {metric:14s} mean {s['mean']:8.2f}  min {s['min']:8.2f}  max {s['max']:8.2f}")


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    if args.population is None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "population": 1})
    rows = run_experiment(config, workers=1)
    for row in rows:
        print(f"adc {row.adc_id}: delta={row.delta_true:+.3e}  "
              f"pre SNDR/SFDR {row.pre_sndr_db:6.2f}/{row.pre_sfdr_db:6.2f} dB  "
              f"post {row.post_sndr_db:6.2f}/{row.post_sfdr_db:6.2f} dB  "
              f"theta_alpha={row.theta_alpha:+.3e}")
    emit_outputs(rows, args.out, include_timings=args.timings)

    if args.dump_spectrum and config.population > 0:
        from .adc import convert_many
        from .harness import _build_member
        from .signals import gen_tones

        adc, _, _ = _build_member(config, 0)
        x = gen_tones(config.run_tones(config.eval_amplitude), config.eval_samples)
        est = spectrum(convert_many(adc, x).y, config.window, config.n_fft)
        path = Path(args.out) / "spectrum.csv"
        with open(path, "w", newline="") as fh:
            fh.write("# schema: pipecal-spectrum/1\n")
            fh.write("bin,power\n")
            for i, p in enumerate(est.power):
                fh.write(f"{i},{p!r}\n")
        print(f"spectrum written to {path}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _config_from_args(args)
    rows = run_experiment(config, workers=args.workers)
    path = emit_outputs(rows, args.out, include_timings=args.timings)
    _print_summary(rows)
    print(f"results written to {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    sweep = run_sweep(args.kind, config, _parse_grid(args.grid), workers=args.workers)
    paths = emit_sweep_outputs(sweep, args.out, include_timings=args.timings)
    for point in sweep.points:
        print(f"{args.kind} = {point}:")
        _print_summary(sweep.rows[point])
    print("written:", ", ".join(str(p) for p in paths))
    return EXIT_OK


def _cmd_convergence(args) -> int:
    config = _config_from_args(args)
    if args.algorithm is None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "algorithm": "blhec-sgd"})
    try:
        checkpoints = [int(v) for v in args.checkpoints.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad checkpoint: {exc}") from exc
    sweep = run_sweep("convergence", config, checkpoints, workers=args.workers)
    paths = emit_sweep_outputs(sweep, args.out, include_timings=args.timings)
    for point in sweep.points:
        _print_summary(sweep.rows[point])
    print("written:", ", ".join(str(p) for p in paths))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "sweep": _cmd_sweep,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

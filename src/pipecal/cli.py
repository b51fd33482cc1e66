"""Command-line front end.

Subcommands: `simulate` (inspect one converter), `calibrate` (population
run), `sweep` (grid runs) and `convergence` (sample-budget sweep); one handler
serves the last two, which differ only in how the grid is parsed. A JSON
config file supplies any ExperimentConfig field; command-line flags override
it, and --seed is always required so every run is reproducible.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 kernel build error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ALGORITHMS,
    NUMERICAL_FAILURES,
    SWEEP_KINDS,
    ConfigError,
    ExperimentConfig,
    aggregate_rows,
    emit_outputs,
    emit_sweep_outputs,
    evaluation_batch,
    run_experiment,
    run_sweep,
)
from .kernels import KernelBuildError
from .spectral import spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_KERNEL = 4

# flag (argparse dest) -> ExperimentConfig field; --delta also sets delta_mode
_FLAG_FIELDS = {"population": "population", "algorithm": "algorithm", "q": "q",
                "snr": "snr_db", "alpha_d": "alpha_d", "samples": "n_sgd"}


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
        p.add_argument("--algorithm", choices=ALGORITHMS)
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
    p_sweep.add_argument("--kind", choices=[k for k in SWEEP_KINDS if k != "convergence"],
                         required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated grid values, e.g. '-5e-3,0,5e-3'")

    p_conv = sub.add_parser("convergence", help="adaptive-run sample-budget sweep")
    common(p_conv)
    p_conv.add_argument("--checkpoints", dest="grid", required=True,
                        help="comma-separated sample counts, e.g. '2000,8000,48000'")
    p_conv.set_defaults(kind="convergence")
    return parser


def _config_from_args(args, **defaults) -> ExperimentConfig:
    """The one config of a command: file fields, then the command's defaults, then flags."""
    fields: dict = {}
    if args.config is not None:
        try:
            fields = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:    # unreadable, not JSON, or an int over 4300 digits
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(fields, dict):
            raise ConfigError("config file must contain a JSON object")
    fields.update(defaults, master_seed=args.seed)
    fields.update({name: getattr(args, flag) for flag, name in _FLAG_FIELDS.items()
                   if getattr(args, flag) is not None})
    if args.delta is not None:
        fields["delta_mode"] = "fixed"
        fields["delta_value"] = args.delta
    return ExperimentConfig.from_dict(fields)


def _make_out_dir(path: Path) -> None:
    """Make the output directory before any member runs: a path that cannot
    be one (an existing file, a path under a file), or an output file name
    taken there by a non-file, is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {path} as the output directory: {exc}") from exc
    for name in ("results.csv", "aggregate.csv", "error_norms.csv", "spectrum.csv"):
        if (path / name).exists() and not (path / name).is_file():
            raise ConfigError(f"cannot use --out {path} as the output directory: "
                              f"{path / name} exists and is not a regular file")


def _parse_grid(text: str, parse) -> list:
    try:
        return [parse(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid value: {exc}") from exc


def _print_summary(rows) -> None:
    stats = aggregate_rows(rows)
    print(f"rows: {len(rows)}")
    for metric, s in stats.items():
        print(f"  {metric:14s} mean {s['mean']:8.2f}  min {s['min']:8.2f}  max {s['max']:8.2f}")


def _warn_if_worse(rows) -> None:
    """One stderr warning when calibration lowered the SNDR of any row."""
    worse = [r for r in rows if r.post_sndr_db < r.pre_sndr_db]
    if not worse:
        return
    worst = min(worse, key=lambda r: r.post_sndr_db - r.pre_sndr_db)
    where = f" at {worst.sweep_kind} = {worst.sweep_value:g}" if worst.sweep_kind else ""
    print(f"warning: calibration lowered SNDR on {len(worse)} of {len(rows)} rows; worst: "
          f"adc {worst.adc_id}{where}, {worst.pre_sndr_db:.2f} dB -> {worst.post_sndr_db:.2f} dB",
          file=sys.stderr)


def _warn_if_unconverged(rows) -> None:
    """One stderr warning when any BL-HEC solve stopped before converging.

    A convergence sweep's rows share their member's one reference solve, so
    solves are counted per member and grid point, not per row.
    """
    solves = {(r.adc_id, None if r.sweep_kind == "convergence" else r.sweep_value):
              r.blhec_converged for r in rows if r.blhec_converged is not None}
    stopped = sum(not ok for ok in solves.values())
    if stopped:
        print(f"warning: {stopped} of {len(solves)} BL-HEC solves stopped without converging "
              "(iteration cap or singular covariance)", file=sys.stderr)


def _cmd_simulate(args) -> int:
    config = _config_from_args(args, population=1)
    rows = run_experiment(config, workers=1)
    for row in rows:
        print(f"adc {row.adc_id}: delta={row.delta_true:+.3e}  "
              f"pre SNDR/SFDR {row.pre_sndr_db:6.2f}/{row.pre_sfdr_db:6.2f} dB  "
              f"post {row.post_sndr_db:6.2f}/{row.post_sfdr_db:6.2f} dB  "
              f"theta_alpha={row.theta_alpha:+.3e}")
    emit_outputs(rows, args.out, include_timings=args.timings)

    if args.dump_spectrum and config.population > 0:
        est = spectrum(evaluation_batch(config, 0).y, config.window, config.n_fft)
        path = Path(args.out) / "spectrum.csv"
        with open(path, "w", newline="") as fh:
            fh.write("# schema: pipecal-spectrum/1\n")
            fh.write("bin,power\n")
            for i, p in enumerate(est.power.tolist()):
                fh.write(f"{i},{p!r}\n")
        print(f"spectrum written to {path}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _config_from_args(args)
    rows = run_experiment(config, workers=args.workers)
    path = emit_outputs(rows, args.out, include_timings=args.timings)
    _print_summary(rows)
    _warn_if_worse(rows)
    _warn_if_unconverged(rows)
    print(f"results written to {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    convergence = args.kind == "convergence"
    config = _config_from_args(args, **({"algorithm": "blhec-sgd"} if convergence else {}))
    grid = _parse_grid(args.grid, int if convergence else float)
    sweep = run_sweep(args.kind, config, grid, workers=args.workers)
    paths = emit_sweep_outputs(sweep, args.out, include_timings=args.timings)
    for point in sweep.points:
        print(f"{args.kind} = {point}:")
        _print_summary(sweep.rows[point])
    rows = [row for point in sweep.points for row in sweep.rows[point]]
    _warn_if_worse(rows)
    _warn_if_unconverged(rows)
    print("written:", ", ".join(str(p) for p in paths))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "sweep": _cmd_sweep,
    "convergence": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _make_out_dir(args.out)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KernelBuildError as exc:
        print(f"kernel build error: {exc}", file=sys.stderr)
        return EXIT_KERNEL


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark workload in a fresh process.

Started by run.py with BLAS threads pinned to 1 and `<root>/src` first on
PYTHONPATH. It imports pipecal, builds and validates the workload's config,
prints READY (the end of set-up), then repeats the workload's harness entry
point for the requested number of seconds (untraced: alternating with a
yardstick; traced: see per_layer), checks every repetition and prints one
JSON report line. With `--setup-only` it exits after READY.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pipecal import harness

from tracing import SPAN_NAMES, Tracer, layer_profile

# An sgd member adapts over 48 000 pairs (about 0.4 s). 24 members keep a
# repetition near 10 s; with 12 the population mean SFDR varied too much from
# seed to seed.
SGD_POPULATION = 24

# Throughput of the yardstick (the seed commit's code, see Yardstick) on the
# reference machine, a 2-vCPU Xeon virtual machine. It only sets the scale of
# members_per_s; comparisons between commits do not depend on it.
YARDSTICK_MEMBERS_PER_S = {
    "wiener-pop": 30.0,
    "hec-delta-sweep": 110.0,
    "sgd-pop": 3.5,
    "sgd-convergence": 3.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    workers: int
    yardstick_population: int
    sweep: str | None = None
    grid: tuple = ()

    def config(self, seed: int, module=harness, **overrides):
        return module.default_config(seed, **{**self.overrides, **overrides})

    def members(self, config) -> int:
        """Members calibrated per call; a delta sweep reruns the population per point."""
        return config.population * (len(self.grid) if self.sweep == "delta" else 1)

    def points(self) -> list[float]:
        return [float(v) for v in self.grid] if self.sweep else [math.nan]


WORKLOADS = {
    w.name: w for w in (
        Workload("wiener-pop", {"algorithm": "blhec-wiener", "population": 100}, workers=1,
                 yardstick_population=50),
        Workload("hec-delta-sweep", {"algorithm": "hec-wiener", "population": 100}, workers=2,
                 sweep="delta", grid=(-5e-3, -2.5e-3, 0.0, 2.5e-3, 5e-3),
                 yardstick_population=100),
        Workload("sgd-pop", {"algorithm": "blhec-sgd", "population": SGD_POPULATION,
                             "n_sgd": 48000}, workers=1, yardstick_population=10),
        Workload("sgd-convergence", {"algorithm": "blhec-sgd", "population": SGD_POPULATION},
                 workers=1, sweep="convergence", grid=(2000, 8000, 16000, 48000),
                 yardstick_population=10),
    )
}

ROW_FLOATS = ("pre_sndr_db", "pre_sfdr_db", "post_sndr_db", "post_sfdr_db",
              "theta_alpha", "delta_true", "wall_clock_s")


class GateError(Exception):
    """A repetition's outputs failed the correctness gate."""


@dataclass
class Rep:
    """Outcome of one call of the workload's entry point plus its emission."""

    ok: bool
    members: int
    wall_s: float = math.nan
    emit_s: float = math.nan
    rows: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    error: str = ""


def _expected_samples(wl: Workload, config, point: float) -> int:
    if wl.sweep == "convergence":
        return int(point)
    return config.n_sgd if config.algorithm == "blhec-sgd" else config.n_cal


def check_rows(wl: Workload, config, rows: list) -> None:
    """Row count, identity and finiteness of one repetition's rows."""
    points = wl.points()
    if len(rows) != config.population * len(points):
        raise GateError(f"{len(rows)} rows for {config.population} members x {len(points)} points")
    for point in points:
        at_point = [r for r in rows if not wl.sweep or r.sweep_value == point]
        if sorted(r.adc_id for r in at_point) != list(range(config.population)):
            raise GateError(f"member ids at point {point} are not 0..{config.population - 1}")
        samples = _expected_samples(wl, config, point)
        for row in at_point:
            if row.algorithm != config.algorithm or row.samples != samples:
                raise GateError(f"member {row.adc_id}: algorithm {row.algorithm!r}, "
                                f"samples {row.samples}, expected {samples}")
            if row.sweep_kind != (wl.sweep or ""):
                raise GateError(f"member {row.adc_id}: sweep kind {row.sweep_kind!r}")
            bad = [c for c in ROW_FLOATS if not math.isfinite(getattr(row, c))]
            if bad:
                raise GateError(f"member {row.adc_id}: non-finite {bad}")


TEXT_COLUMNS = {"config_digest", "algorithm", "sweep_kind"}


def check_outputs(wl: Workload, config, paths: list[Path], n_rows: int) -> dict:
    """Re-read the emitted files; returns {file name: sha256}."""
    expected = {"results.csv": n_rows, "aggregate.csv": len(wl.points()),
                "error_norms.csv": config.population * len(wl.points())}
    digests = {}
    for path in paths:
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        schema, *lines = data.decode().splitlines()
        if not schema.startswith("# schema: pipecal-"):
            raise GateError(f"{path.name}: missing schema line")
        table = list(csv.DictReader(lines))
        if len(table) != expected[path.name]:
            raise GateError(f"{path.name}: {len(table)} rows, expected {expected[path.name]}")
        for line in table:
            for column, cell in line.items():
                if column not in TEXT_COLUMNS and cell and not math.isfinite(float(cell)):
                    raise GateError(f"{path.name}: non-finite {column} {cell!r}")
    return digests


def run_rep(wl: Workload, config, workers: int, out_dir: Path, module=harness) -> Rep:
    """Call the workload's entry point once, emit its outputs and gate them."""
    members = wl.members(config)
    try:
        start = perf_counter()
        if wl.sweep:
            sweep = module.run_sweep(wl.sweep, config, wl.grid, workers=workers)
            wall = perf_counter() - start
            rows = [row for point in sweep.points for row in sweep.rows[point]]
            start = perf_counter()
            paths = module.emit_sweep_outputs(sweep, out_dir)
        else:
            rows = module.run_experiment(config, workers=workers)
            wall = perf_counter() - start
            start = perf_counter()
            paths = [module.emit_outputs(rows, out_dir)]
        emit = perf_counter() - start
        check_rows(wl, config, rows)
        digests = check_outputs(wl, config, [Path(p) for p in paths], len(rows))
    except Exception:   # a failed repetition is counted, not fatal
        return Rep(ok=False, members=members, error=traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Rep(ok=True, members=members, wall_s=wall, emit_s=emit, rows=rows, digests=digests)


def final_rows(wl: Workload, rows: list) -> list:
    """Rows the quality means are taken over: the last checkpoint for convergence."""
    if wl.sweep == "convergence":
        return [r for r in rows if r.samples == max(wl.grid)]
    return rows


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus `workers` times the largest reaped child's peak.

    getrusage reports only the largest child, so for a pool this is an upper
    bound on the concurrent peak; pages a forked worker shares with its
    parent are counted once per worker.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version") if k in blas},
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": list(os.getloadavg()),
    }


class Session:
    """The repetitions of one run, with the gate's bookkeeping."""

    def __init__(self, wl: Workload, config, out_root: Path):
        self.wl, self.config, self.out_root = wl, config, out_root
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict | None = None
        self.notes: dict = {}

    def rep(self, workers: int) -> Rep:
        rep = run_rep(self.wl, self.config, workers, self.out_root / f"rep{self.attempted}")
        self.attempted += rep.members
        if not rep.ok:
            self.failed += rep.members
            self.problems.append(rep.error)
        elif self.digests is None:
            self.digests = rep.digests
        elif rep.digests != self.digests:
            self.failed += rep.members
            self.problems.append(f"outputs differ between repetitions ({workers} workers)")
            rep.ok = False
        return rep

    def reps_for(self, seconds: float, workers: int) -> list[Rep]:
        """Repeat while another repetition fits in `seconds`; at least once."""
        start = perf_counter()
        reps = [self.rep(workers)]
        while (perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds:
            reps.append(self.rep(workers))
        return [r for r in reps if r.ok]


YARDSTICK_DIR = Path(__file__).resolve().parent / "yardstick"


def yardstick_s_per_member(name: str, seed: int, out_dir: Path) -> float:
    """One repetition of workload `name` by the frozen seed-commit package.

    Runs in a separate process, so the program's process never imports the
    yardstick and its peak RSS stays the program's own.
    """
    if str(YARDSTICK_DIR) not in sys.path:
        sys.path.insert(0, str(YARDSTICK_DIR))
    from pipecal_seed import harness as seed_harness

    wl = WORKLOADS[name]
    config = wl.config(seed, seed_harness, population=wl.yardstick_population)
    rep = run_rep(wl, config, wl.workers, out_dir, seed_harness)
    if not rep.ok:
        raise GateError(f"yardstick repetition failed:\n{rep.error}")
    return rep.wall_s / rep.members


def end_to_end(session: Session, seconds: float, seed: int) -> dict:
    """Alternate yardstick and program repetitions: Y0 P1 Y1 P2 Y2 ...

    The reference machine shares its physical cores with other tenants, whose
    load slows every repetition by up to 40% for minutes at a time. The
    yardstick repetitions on either side of a program repetition see the same
    slowdown, so its throughput is scaled by their speed relative to the
    yardstick's nominal throughput. Pairs continue while another one fits.
    """
    wl = session.wl
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        def yardstick(k: int) -> float:
            return pool.submit(yardstick_s_per_member, wl.name, seed,
                               session.out_root / f"yardstick{k}").result()

        yard_s = [yardstick(0)]
        start = perf_counter()
        reps: list[Rep] = []
        while not reps or (perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds:
            reps.append(session.rep(wl.workers))
            yard_s.append(yardstick(len(reps)))
        # the yardstick process is not reaped yet, so this is the program's alone
        rss_mb = peak_rss_mb(wl.workers)

    rates = [YARDSTICK_MEMBERS_PER_S[wl.name] * statistics.mean(yard_s[i:i + 2])
             * rep.members / rep.wall_s for i, rep in enumerate(reps) if rep.ok]
    session.notes["raw_members_per_s"] = [r.members / r.wall_s for r in reps if r.ok]
    session.notes["yardstick_members_per_s"] = [1.0 / y for y in yard_s]
    rows = next((final_rows(wl, r.rows) for r in reps if r.ok), [])
    metrics = {
        "members_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": rss_mb,
        "post_sfdr_db_mean": float(np.mean([r.post_sfdr_db for r in rows])) if rows else 0.0,
        "post_sndr_db_mean": float(np.mean([r.post_sndr_db for r in rows])) if rows else 0.0,
    }
    if rows:
        pre = float(np.mean([r.pre_sfdr_db for r in rows]))
        if not metrics["post_sfdr_db_mean"] > pre:
            session.problems.append(f"calibration did not raise mean SFDR ({pre:.2f} dB before, "
                                    f"{metrics['post_sfdr_db_mean']:.2f} dB after)")
    return metrics


def harness_metrics(wl: Workload, reps: list[Rep], workers: int) -> dict:
    """Member-time and emission figures from untraced repetitions."""
    member_s, efficiency = [], []
    for rep in reps:
        # a convergence member's rows all carry the same wall time: count it once
        rows = final_rows(wl, rep.rows)
        member_s += [r.wall_clock_s for r in rows]
        efficiency.append(sum(r.wall_clock_s for r in rows) / (workers * rep.wall_s))
    return {
        "harness.parallel_efficiency": statistics.median(efficiency),
        "harness.member_ms_p50": 1e3 * float(np.quantile(member_s, 0.5)),
        "harness.member_ms_p90": 1e3 * float(np.quantile(member_s, 0.9)),
        "harness.emit_ms": 1e3 * statistics.median(r.emit_s for r in reps),
    }


def per_layer(session: Session, seconds: float, trace_dir: Path, seed: int) -> dict:
    wl = session.wl
    primary = session.reps_for(seconds / 4, wl.workers)
    serial = primary if wl.workers == 1 else session.reps_for(0.0, 1)
    profiles = []
    for k in range(2):
        tracer = Tracer()
        with tracer.installed():
            traced = session.rep(1)
        if not traced.ok:
            continue
        tracer.write(trace_dir / f"{wl.name}-seed{seed}-traced{k}.jsonl")
        profiles.append(layer_profile(tracer.spans, traced.wall_s))
    if not (primary and serial and len(profiles) == 2):
        session.problems.append("no complete set of untraced and traced repetitions")
        return {}

    counters = [p["counters"] for p in profiles]
    calls = [{n: v["calls"] for n, v in p["layers"].items()} for p in profiles]
    if counters[0] != counters[1] or calls[0] != calls[1]:
        session.problems.append("work counters differ between the two traced runs")
    expected_members = wl.members(session.config)
    if counters[0]["members"] != expected_members:
        session.problems.append(f"traced {counters[0]['members']} members, "
                                f"expected {expected_members}")

    out = {}
    self_s = {}
    for name in SPAN_NAMES:
        n_calls = calls[0][name]
        self_s[name] = statistics.mean(p["layers"][name]["self_s"] for p in profiles)
        out[f"{name}.calls"] = n_calls
        out[f"{name}.self_ms_per_call"] = 1e3 * self_s[name] / n_calls if n_calls else 0.0
        out[f"{name}.self_share"] = statistics.mean(
            p["layers"][name]["self_s"] / p["wall_s"] for p in profiles)

    c = counters[0]
    iterations, converged = c["blhec_iterations"], c["blhec_converged"]
    out["calibration.blhec_wiener.iterations_mean"] = (
        statistics.mean(iterations) if iterations else 0.0)
    out["calibration.blhec_wiener.converged_ratio"] = (
        sum(converged) / len(converged) if converged else 0.0)
    n_stats = calls[0]["calibration.accumulate_statistics"]
    out["calibration.accumulate_statistics.bytes_computed"] = (
        c["stat_bytes"] / n_stats if n_stats else 0.0)
    out["calibration.run_sgd.samples"] = c["sgd_samples"]
    out["calibration.run_sgd.us_per_sample"] = (
        1e6 * self_s["calibration.run_sgd"] / c["sgd_samples"] if c["sgd_samples"] else 0.0)
    out["adc.convert_many.ns_per_sample"] = (
        1e9 * self_s["adc.convert_many"] / c["convert_samples"] if c["convert_samples"] else 0.0)

    shares = [p["harness_self_s"] / p["wall_s"] for p in profiles]
    out["harness.self_share"] = statistics.mean(shares)
    total = out["harness.self_share"] + sum(out[f"{n}.self_share"] for n in SPAN_NAMES)
    if min(shares) < 0.0 or abs(total - 1.0) > 1e-9:
        session.problems.append(f"self shares sum to {total!r}, harness share {min(shares)!r}")

    out.update(harness_metrics(wl, primary, wl.workers))
    serial_wall = statistics.median(r.wall_s for r in serial)
    out["trace.overhead_ratio"] = statistics.mean(p["wall_s"] for p in profiles) / serial_wall
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    config = wl.config(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    env = machine_info()
    out_root = args.out / f"work-{os.getpid()}"
    session = Session(wl, config, out_root)
    if args.trace:
        metrics = per_layer(session, args.seconds, args.out, args.seed)
    else:
        try:
            metrics = end_to_end(session, args.seconds, args.seed)
        except GateError as exc:
            session.problems.append(str(exc))
            metrics = {}
    shutil.rmtree(out_root, ignore_errors=True)

    finite = all(math.isfinite(v) for v in metrics.values())
    if not finite:
        session.problems.append("a metric is not finite")
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "error_rate": session.failed / session.attempted if session.attempted else 1.0,
        "results_sha256": (session.digests or {}).get("results.csv", ""),
        "problems": session.problems,
        "notes": session.notes,
        "metrics": metrics if finite else {},
        "machine": env,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

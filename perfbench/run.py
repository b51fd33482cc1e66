"""pipecal benchmark: throughput, calibration quality and per-layer time.

Usage, from the repository root:

    python3 perfbench/run.py --workload wiener-pop --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 20

Each run starts the workload in a fresh Python process (child.py) with BLAS
threads pinned to 1 and the checkout's `src/` first on PYTHONPATH. With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it reports the per-layer ones from two traced serial runs. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--workload all` runs every workload,
untraced and traced, and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("wiener-pop", "hec-delta-sweep", "sgd-pop", "sgd-convergence")
SETUP_PROBES = 5            # extra fresh processes that only set up, for the setup_s median
RUN_LIMIT_S = 170.0         # a run must end within 180 s


class RunError(RuntimeError):
    """The workload process could not be started or did not report."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def start_child(args: list[str], deadline: float):
    """Start child.py; returns (process, seconds from start to READY)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RunError(f"workload process did not get ready: {line.strip()!r}")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    """Wait for the child and its workers; kill the process group when late."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("workload process exceeded the run time limit")
    if proc.returncode != 0:
        raise RunError(f"workload process exited with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--out", str(OUT)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            proc, setup_s = start_child([*common, "--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup_s)
    proc, setup_s = start_child([*common, "--seconds", str(seconds), "--trace", str(trace)],
                                deadline)
    setups.append(setup_s)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RunError("workload process printed no report")
    report = json.loads(lines[-1])
    if not trace:
        report["metrics"]["setup_s"] = statistics.median(setups)
        report["setup_samples_s"] = setups
    return report


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(report: dict, declared: list[dict]) -> dict:
    """The result line: exactly the metrics BENCHMARK.json declares, in order."""
    measured = report["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    return {
        "correct": bool(report["correct"]) and not missing,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }


def print_report(report: dict, declared: list[dict]) -> None:
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}")
    print(f"machine: {json.dumps(report['machine'])}")
    for m in declared:
        value = report["metrics"].get(m["name"])
        print(f"  {m['name']:<48} {value!r:>24} {m['unit']}")
    print(f"  {'error_rate':<48} {report['error_rate']!r:>24} ratio "
          f"({report['failed']}/{report['attempted']} members failed)")
    print(f"  {'results_sha256':<48} {report['results_sha256']}")
    for name, value in report["notes"].items():
        print(f"  {name}: {value}")
    for problem in report["problems"]:
        print(f"  GATE: {problem.strip()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pipecal" / "__init__.py").is_file():
        print(f"error: no pipecal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        deadline = perf_counter() + RUN_LIMIT_S
        try:
            report = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        declared = declared_metrics(args.trace)
        print_report(report, declared)
        print(json.dumps(result_line(report, declared)))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = perf_counter() + RUN_LIMIT_S
            try:
                report = run_workload(workload, args.seed, args.seconds, trace, deadline)
            except RunError as exc:
                print(f"== {workload} trace={trace}: error: {exc}")
                summary["correct"] = False
                continue
            declared = declared_metrics(trace)
            print_report(report, declared)
            line = result_line(report, declared)
            summary["correct"] &= line["correct"]
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
            for name, metric in line["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

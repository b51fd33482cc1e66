import csv
import dataclasses
import json
import functools
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import gen_impure_two_tone, toy_adc

from pipecal import kernels
from pipecal.calibration import DivergenceError, RankDeficiencyError, accumulate_statistics, blhec_wiener
from pipecal.cli import main
from pipecal.correction import CorrectionLayout, apply_correction_batch, selection_vectors
from pipecal.adc import convert_many
from pipecal import harness, signals
from pipecal.harness import (
    ConfigError,
    ExperimentConfig,
    aggregate_rows,
    default_config,
    emit_outputs,
    emit_sweep_outputs,
    evaluation_batch,
    run_experiment,
    run_sweep,
)
from pipecal.signals import PathConfig, ToneSpec, gen_tones, make_pairs, snap_to_odd_bin
from pipecal.spectral import analyze, spectrum, tone_bin

SMALL = dict(population=4, n_cal=1200, n_fft=4096, eval_samples=4096)
# the failure of a member whose calibration tone has a 32-sample period
_MISSING_CODE = "the calibration input never selects stage 3 code 2"


@pytest.fixture
def opened_pools(monkeypatch):
    """(workers, chunk size) of each process pool the harness opens and maps
    its tasks through. The stand-in pool runs its tasks in this process and
    starts none."""
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            opened.append((self.workers, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return opened


@pytest.fixture
def member_calls(monkeypatch):
    """(adc_id, sweep kind) of every task `_run_member` is given, in call order."""
    calls = []
    run_member = harness._run_member

    def counting(task):
        calls.append((task[1], task[2]))
        return run_member(task)

    monkeypatch.setattr(harness, "_run_member", counting)
    return calls


def _emitted(sweep, out_dir) -> dict:
    return {p.name: p.read_bytes() for p in emit_sweep_outputs(sweep, out_dir)}


class TestConfig:
    def test_round_trips_through_json(self):
        cfg = default_config(7, population=3)
        blob = json.dumps(cfg.to_dict())
        back = ExperimentConfig.from_dict(json.loads(blob))
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_digest_depends_on_fields(self):
        a = default_config(7)
        b = default_config(7, q=2)
        assert a.digest() != b.digest()

    def test_digest_is_kept_per_instance(self):
        # computed once per config, on first use: a replaced copy gets its own,
        # and a copy through to_dict and from_dict the same one
        cfg = default_config(7)
        first = cfg.digest()
        assert cfg.digest() is first
        copy = dataclasses.replace(cfg, q=2)
        assert copy.digest() == default_config(7, q=2).digest() != first
        assert ExperimentConfig.from_dict(cfg.to_dict()).digest() == first
        assert dataclasses.replace(copy, q=3).digest() == first

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"master_seed": 1, "bogus": 2})

    @pytest.mark.parametrize("overrides", [
        dict(q=0), dict(q=6), dict(algorithm="magic"), dict(alpha_d=1.5),
        dict(tones=((4.0, 1.0, 0.0),)), dict(eval_samples=100), dict(n_fft=1000),
        dict(delta_mode="maybe"), dict(noise_mode="sometimes"), dict(population=-1),
        dict(window="hamming"), dict(n_cal=18), dict(q=2, n_cal=12),
        dict(algorithm="blhec-sgd", n_sgd=0), dict(n_sgd=-1),
        dict(tones=((0.677, 1.0, 0.0), (0.9, 1.0, 0.0))), dict(stage_levels=3),
        dict(stage_gain=4.5), dict(stage_levels=1),
        dict(delta_mode="fixed", delta_value=0.5), dict(delta_mode="fixed", delta_value=-0.8),
        dict(delta_std=-0.01), dict(gain_error_reference=0.0),
        dict(n_fft=2), dict(snr_db=math.nan), dict(eval_snr_db=math.nan),
        dict(gain_bound_lsb=math.nan), dict(dac_bound_lsb=math.nan), dict(mu_nl_init=0.0),
        dict(mu_nl_min=-2.0 ** -6), dict(mu_alpha_ratio=-1.0), dict(sgd_guard=0.0),
        dict(population=2.5), dict(population=True), dict(resolution_bits=13.5),
        dict(n_cal=2000.5), dict(eval_samples=16384.5), dict(n_fft=16384.0),
        dict(algorithm="blhec-sgd", n_sgd=3000.5), dict(q=True), dict(mu_halve_every=1.2e4),
        # a value of the wrong kind in a float, bool or str field
        dict(snr_db=True), dict(stage_gain=True), dict(coherent_snap="no"),
        dict(ideal_included_stages=2), dict(snr_db="70"), dict(alpha_d="0.5"),
        # a numpy bool or float in an int field
        dict(q=np.True_), dict(population=np.float64(3.0)),
        # a step-size floor above the initial step, or a negative halving period
        dict(mu_nl_init=2.0 ** -6, mu_nl_min=2.0 ** -2),
        dict(mu_nl_init=2.0 ** -6, mu_nl_min=2.0 ** -2, mu_halve_every=0),
        dict(mu_halve_every=-1),
        # a non-finite value where only a finite one means anything
        dict(delta_std=math.inf), dict(mu_nl_init=math.inf, mu_nl_min=1.0),
        dict(mu_alpha_ratio=math.inf), dict(stage_gain=-math.inf),
        dict(gain_error_reference=math.inf), dict(delta_value=math.nan),
        # a stage gain of 0 or below (0 divided the digital weights, -4 ran)
        dict(stage_gain=0), dict(stage_gain=-4.0),
        # an integer too large for a float, in a float field or a tone
        dict(stage_gain=10 ** 400), dict(tones=((0.6766, 0.5, 10 ** 400),)),
        # a non-finite tone phase, a bool or a str in a tone, and no float LSB
        dict(tones=((0.6766, 0.5, math.nan),)), dict(tones=((0.6766, True, 0.0),)),
        dict(tones=(("0.6766", 0.5, 0.0),)), dict(resolution_bits=2000),
        # a scaling path is checked at least once, also with no member
        dict(population=0, delta_std=5.0),
        # an SNR at which the noise level overflows or divides by zero
        dict(snr_db=4000.0), dict(snr_db=-4000.0), dict(snr_db=1e308),
        dict(eval_snr_db=4000.0), dict(eval_snr_db=-4000.0), dict(eval_snr_db=1e308),
        # a size no array can take, and a stage size that divided by zero or was no int
        dict(n_cal=10 ** 30), dict(algorithm="blhec-sgd", n_sgd=10 ** 30),
        dict(n_fft=2 ** 62, eval_samples=2 ** 62), dict(stage_levels=-1), dict(flash_bits=-1),
    ])
    def test_validation(self, overrides):
        with pytest.raises(ConfigError):
            default_config(7, **overrides)

    def test_every_member_scaling_path_is_checked_before_any_member_runs(self, member_calls):
        # members 0-9 draw deltas that keep alpha_a in (0, 1), member 10 does not
        with pytest.raises(ConfigError, match=r"^adc 10: delta 0\.365904 puts alpha_a"):
            default_config(1, population=30, delta_std=0.3, algorithm="blhec-wiener")
        assert member_calls == []

    def test_sizes_without_end_are_rejected_under_a_memory_limit(self):
        # each used to run out of memory or never return while the config was built;
        # the child gets 2 GB of address space (as `ulimit -v`) and 60 s
        resource = pytest.importorskip("resource")
        script = ("from pipecal.harness import ConfigError, default_config\n"
                  "for fields in [dict(population=10 ** 400), dict(pipeline_stages=10 ** 400),\n"
                  "               dict(flash_bits=60), dict(resolution_bits=10 ** 18)]:\n"
                  "    try:\n"
                  "        default_config(1, **fields)\n"
                  "    except ConfigError as exc:\n"
                  "        print(str(exc)[:60])\n")
        limit = functools.partial(resource.setrlimit, resource.RLIMIT_AS, (2 * 10 ** 9,) * 2)
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               timeout=60, preexec_fn=limit,
                               env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert child.returncode == 0, child.stderr
        want = ["population must be in [0, 100000], not 1000",
                "pipeline_stages must be in [1, 32], not 1000",
                "flash_bits must be in [1, 16], not 60",
                "converter model: resolution_bits=1000000000000000000 has no"]
        lines = child.stdout.splitlines()
        assert len(lines) == len(want) and all(map(str.startswith, lines, want)), lines

    def test_tones_are_stored_as_python_floats(self):
        cfg = default_config(7, tones=[[np.float32(0.5), 1, 0]])
        assert cfg.tones == ((0.5, 1.0, 0.0),)
        assert [type(v) for v in cfg.tones[0]] == [float, float, float]
        assert cfg.digest() == default_config(7, tones=((0.5, 1.0, 0.0),)).digest()

    @pytest.mark.parametrize("fields, message", [
        (dict(population=10 ** 5000),
         "population must be in [0, 100000], not an integer of more than 4300 digits"),
        (dict(snr_db=10 ** 5000), "snr_db is an integer too large for a float"),
        (dict(tones=((0.6766, 0.5, [10 ** 5000]),)), "invalid tones: a tone value must be a "
         "real number, not a list holding an integer of more than 4300 digits"),
    ], ids=["int-field", "float-field", "tone-value"])
    def test_integer_too_long_to_print_is_a_config_error(self, fields, message):
        # repr refuses an int of more than 4300 digits (sys.get_int_max_str_digits())
        if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
            pytest.skip("the interpreter's int string limit is not the default 4300 digits")
        with pytest.raises(ConfigError) as exc:
            default_config(1, **fields)
        assert str(exc.value) == message

    def test_correction_dimension_has_an_upper_end(self):
        # each field at its upper end constructs, but together they gave D = 8161,
        # which exhausted memory in member 0
        with pytest.raises(ConfigError, match=r"give D=8161 correction parameters, more than 1024"):
            default_config(1, pipeline_stages=32, q=32, stage_levels=256, stage_gain=1.0,
                           gain_bound_lsb=0, dac_bound_lsb=0, n_cal=8161, n_fft=4096,
                           eval_samples=4096, population=1)
        # the largest D the tests run, 766 at 256 levels and q = 3, stays valid
        default_config(1, stage_levels=256, stage_gain=1.0, gain_bound_lsb=0, dac_bound_lsb=0)

    def test_statistics_buffer_has_an_upper_end(self, member_calls, tmp_path, capsys):
        # at D = 766 an in-range n_cal of 10^6 asked for an 11.4 GiB buffer C and
        # exited 1 in member 0; now it exits 2 before any member runs
        fields = dict(stage_levels=256, stage_gain=1.0, gain_bound_lsb=0, dac_bound_lsb=0,
                      n_cal=10 ** 6, population=1)
        message = "n_cal=1000000 pairs at D=766 need a statistics buffer of 12272000000 bytes"
        with pytest.raises(ConfigError, match=message):
            default_config(1, **fields)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        assert main(["calibrate", "--seed", "1", "--algorithm", "hec-wiener", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert member_calls == []
        # the largest buffer a test builds, n_cal = 10^6 at D = 2, stays valid
        largest = default_config(1, n_cal=10 ** 6, q=1, stage_levels=2, stage_gain=1.0)
        assert largest.n_cal * 2 * (2 + 1) * 8 <= harness.MAX_STATISTICS_BYTES

    def test_rejects_negative_seed(self):
        # np.random.SeedSequence takes non-negative integers only
        with pytest.raises(ConfigError, match=r"master_seed must be in \[0, inf\), not -1"):
            default_config(-1)

    def test_infinite_snr_and_guard_are_accepted(self):
        # +inf means noiseless in the SNR fields and no bound in sgd_guard
        cfg = default_config(7, snr_db=math.inf, eval_snr_db=math.inf, sgd_guard=math.inf)
        assert cfg.sgd_guard == math.inf

    def test_float_fields_take_any_real_number(self):
        # ints and numpy scalars are real numbers; a numpy scalar is stored as
        # its Python value, so the config still serializes
        cfg = default_config(7, snr_db=np.float32(70.0), stage_gain=4, alpha_d=np.float64(0.5),
                             eval_snr_db=None)
        assert type(cfg.snr_db) is float and cfg.snr_db == 70.0
        assert cfg.digest() == default_config(7, stage_gain=4, alpha_d=0.5).digest()

    def test_int_fields_take_any_integer(self):
        # numpy integers are integers; each is stored as a Python int, so the
        # config still serializes to the same digest
        cfg = default_config(7, population=np.int64(3), q=np.uint8(2), n_sgd=np.int32(3000))
        assert [type(v) for v in (cfg.population, cfg.q, cfg.n_sgd)] == [int, int, int]
        assert cfg.digest() == default_config(7, population=3, q=2, n_sgd=3000).digest()

    def test_defaults_reproduce_study_setup(self):
        cfg = default_config(7)
        assert cfg.population == 100
        assert cfg.q == 3
        assert cfg.snr_db == 70.0
        assert cfg.alpha_d == pytest.approx(1.0 / math.sqrt(2.0))
        assert cfg.delta_mode == "normal" and cfg.delta_std == 0.01
        assert cfg.n_cal == 2000 and cfg.n_sgd == 48000
        assert cfg.resolution_bits == 13 and cfg.pipeline_stages == 5
        assert cfg.stage_levels == 7 and cfg.stage_gain == 4.0 and cfg.flash_bits == 3


class TestRunExperiment:
    def test_empty_population(self, tmp_path):
        rows = run_experiment(default_config(7, population=0))
        assert rows == []
        path = emit_outputs(rows, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# schema:")
        assert len(lines) == 2   # schema comment + header only

    def test_seed_fanout_members_independent(self):
        cfg5 = default_config(7, **{**SMALL, "population": 5})
        cfg3 = default_config(7, **{**SMALL, "population": 3})
        rows5 = run_experiment(cfg5)
        rows3 = run_experiment(cfg3)
        for a, b in zip(rows3, rows5[:3]):
            assert a.seed == b.seed
            assert a.post_sfdr_db == b.post_sfdr_db
            assert a.theta_alpha == b.theta_alpha
            assert a.delta_true == b.delta_true

    @pytest.mark.parametrize("algorithm, extra", [
        ("blhec-wiener", {}),
        ("blhec-sgd", {"n_sgd": 3000}),
    ], ids=["blhec-wiener", "blhec-sgd"])
    def test_workers_do_not_change_results(self, algorithm, extra):
        # two workers take the members in runs of consecutive tasks, in no fixed order
        cfg = default_config(7, algorithm=algorithm, **SMALL, **extra)
        seq = run_experiment(cfg, workers=1)
        par = run_experiment(cfg, workers=2)
        assert [r.adc_id for r in par] == list(range(cfg.population))
        for a, b in zip(seq, par):
            assert a.post_sndr_db == b.post_sndr_db
            assert a.post_sfdr_db == b.post_sfdr_db
            assert a.theta_alpha == b.theta_alpha

    def test_pool_starts_no_more_workers_than_tasks(self, opened_pools):
        # three SGD members at eight workers are three one-member tasks
        cfg = default_config(7, algorithm="blhec-sgd", n_sgd=3000, **{**SMALL, "population": 3})
        rows = run_experiment(cfg, workers=8)
        assert opened_pools == [(3, 1)]
        assert [r.adc_id for r in rows] == [0, 1, 2]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, opened_pools, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(default_config(7, **SMALL), workers=workers)
        assert opened_pools == []

    @pytest.mark.parametrize("tasks, workers, opened, one_at_a_time", [
        (500, 2, 2, False),     # a 5-point sweep of 100 short members
        (24, 2, 2, True),       # a convergence sweep's few long members
        (3, 8, 3, True),        # fewer tasks than workers: a worker and a task each
    ], ids=["sweep", "few-tasks", "fewer-tasks-than-workers"])
    def test_pool_hands_out_runs_of_tasks(self, monkeypatch, opened_pools,
                                          tasks, workers, opened, one_at_a_time):
        monkeypatch.setattr(harness, "_run_member", lambda task: ([task[1]], []))
        rows, _ = harness._run_tasks([(None, idx, "", None) for idx in range(tasks)], workers)
        [(pool_workers, chunk)] = opened_pools
        assert pool_workers == opened
        assert (chunk == 1) == one_at_a_time
        assert rows == list(range(tasks))

    def test_first_failing_member_in_task_order_is_labeled(self, monkeypatch):
        # members 3 and 7 of 40 fail and member 3 fails last, in time; the pool
        # reads the run holding it first, so its failure is the one raised
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the pool's workers see the patched member only when forked")

        def member_rows(config, idx, kind, value):
            if idx == 3:
                time.sleep(0.5)
            if idx in (3, 7):
                raise DivergenceError(f"diverged at sample {100 * idx}", sample=100 * idx)
            return [idx], []

        monkeypatch.setattr(harness, "_member_rows", member_rows)
        with pytest.raises(DivergenceError) as exc:
            harness._run_tasks([(None, idx, "", None) for idx in range(40)], workers=2)
        assert type(exc.value) is DivergenceError
        assert (exc.value.member, exc.value.sample) == (3, 300)
        assert str(exc.value) == "adc 3: diverged at sample 300"

    def test_member_failure_in_a_pool_names_the_member(self):
        # a 32-sample tone period never selects every code, so both members fail
        with pytest.raises(RankDeficiencyError) as exc:
            run_experiment(default_config(1, n_fft=32, population=2), workers=2)
        assert exc.value.member == 0
        assert str(exc.value).startswith(f"adc 0: {_MISSING_CODE}")

    def test_members_share_their_tone_signals(self, monkeypatch):
        # one calibration and one evaluation tone for the whole run, not two per member
        calls = []
        gen_tones = signals.gen_tones

        def counting(tones, n):
            calls.append(n)
            return gen_tones(tones, n)

        signals.cached_tones.cache_clear()
        monkeypatch.setattr(signals, "gen_tones", counting)
        run_experiment(default_config(7, **{**SMALL, "population": 3}))
        assert sorted(calls) == [1200, 4096]

    def test_noiseless_evaluation_input_is_read_only(self, monkeypatch):
        # the tones are shared by every member, so none may write into them
        tones = []

        def recording(*args):
            tones.append(signals.cached_tones(*args))
            return tones[-1]

        monkeypatch.setattr(harness, "cached_tones", recording)
        evaluation_batch(default_config(7, **SMALL), 0)
        assert len(tones) == 1
        with pytest.raises(ValueError, match="read-only"):
            tones[0][0] = 0.0

    @pytest.mark.parametrize("algorithm", ["blhec-wiener", "blhec-sgd"])
    def test_serial_members_refault_no_freed_memory(self, algorithm):
        # kernels.library() stops glibc trimming the heap between members:
        # trimmed, each member refaults about 385 pages that the last one freed
        import ctypes

        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("the C library has no glibc mallopt")
        script = ("import resource, sys\n"
                  "from pipecal.harness import _run_member, default_config\n"
                  "cfg = default_config(11, algorithm=sys.argv[1], population=40)\n"
                  "for idx in range(40):\n"
                  "    if idx == 10:\n"
                  "        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "    _run_member((cfg, idx, '', None))\n"
                  "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 30)\n")
        child = subprocess.run([sys.executable, "-c", script, algorithm], capture_output=True,
                               text=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert child.returncode == 0, child.stderr
        assert float(child.stdout) < 5

    def test_sgd_member_working_set_is_bounded(self):
        # doubling the pairs grows one member's peak by its tone and noise
        # vectors (16 B per pair), not by the pairs' conversions
        import tracemalloc

        def peak(n_sgd):
            config = default_config(11, algorithm="blhec-sgd", population=1, n_sgd=n_sgd)
            signals.cached_tones.cache_clear()
            tracemalloc.start()
            try:
                harness._run_member((config, 0, "", None))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3000)      # loads the compiled kernels
        assert (peak(96000) - peak(48000)) / 48000 < 32.0

    def test_calibration_improves_metrics(self):
        rows = run_experiment(default_config(7, **SMALL))
        for row in rows:
            assert row.post_sndr_db > row.pre_sndr_db + 10.0
            assert row.post_sfdr_db > row.pre_sfdr_db + 10.0
            assert abs(row.theta_alpha - row.delta_true) < 2e-4


class TestEmit:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = default_config(7, **SMALL)
        p1 = emit_outputs(run_experiment(cfg), tmp_path / "a")
        p2 = emit_outputs(run_experiment(cfg), tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_timings_excluded_by_default(self, tmp_path):
        rows = run_experiment(default_config(7, **SMALL))
        plain = emit_outputs(rows, tmp_path / "plain")
        timed = emit_outputs(rows, tmp_path / "timed", include_timings=True)
        assert "wall_clock_s" not in plain.read_text()
        assert "wall_clock_s" in timed.read_text()

    def test_aggregate_matches_independent_recomputation(self, tmp_path):
        cfg = default_config(7, **SMALL)
        sweep = run_sweep("delta", cfg, [0.0, 2e-3])
        paths = emit_sweep_outputs(sweep, tmp_path)
        rows_csv, agg_csv = paths[0], paths[1]

        # recompute the aggregate from the emitted row file, spreadsheet-style
        with open(rows_csv) as fh:
            reader = csv.DictReader(line for line in fh if not line.startswith("#"))
            rows = list(reader)
        with open(agg_csv) as fh:
            reader = csv.DictReader(line for line in fh if not line.startswith("#"))
            for agg in reader:
                vals = [float(r["post_sfdr_db"]) for r in rows
                        if r["sweep_value"] == agg["sweep_value"]]
                assert float(agg["n"]) == len(vals)
                assert float(agg["post_sfdr_db_mean"]) == pytest.approx(sum(vals) / len(vals), rel=1e-12)
                assert float(agg["post_sfdr_db_min"]) == min(vals)
                assert float(agg["post_sfdr_db_max"]) == max(vals)


class TestSweeps:
    def test_alpha_sweep_sets_matched_pair(self):
        cfg = default_config(7, **SMALL)
        sweep = run_sweep("alpha", cfg, [0.6])
        rows = sweep.rows[0.6]
        assert all(r.delta_true == 0.0 for r in rows)
        assert all(r.sweep_kind == "alpha" and r.sweep_value == 0.6 for r in rows)

    def test_delta_sweep_fixes_mismatch(self):
        cfg = default_config(7, **SMALL)
        sweep = run_sweep("delta", cfg, [3e-3])
        assert all(r.delta_true == pytest.approx(3e-3) for r in sweep.rows[3e-3])

    def test_snr_sweep_degrades_at_low_snr(self):
        cfg = default_config(7, algorithm="hec-wiener", delta_mode="fixed",
                             noise_mode="independent", **SMALL)
        sweep = run_sweep("snr", cfg, [30.0, 100.0])
        low = aggregate_rows(sweep.rows[30.0])["post_sfdr_db"]["mean"]
        high = aggregate_rows(sweep.rows[100.0])["post_sfdr_db"]["mean"]
        assert high > low + 10.0

    def test_convergence_sweep_logs_error_norms(self, tmp_path):
        cfg = default_config(7, algorithm="blhec-sgd", population=2,
                             n_cal=1200, n_fft=4096, eval_samples=4096)
        sweep = run_sweep("convergence", cfg, [2000, 6000])
        assert sweep.points == [2000.0, 6000.0]
        assert len(sweep.rows[2000.0]) == 2
        assert {k for _, k, _ in sweep.error_norms} == {2000, 6000}
        norms = {(i, k): v for i, k, v in sweep.error_norms}
        assert all(v >= 0.0 for v in norms.values())
        paths = emit_sweep_outputs(sweep, tmp_path)
        assert any(p.name == "error_norms.csv" for p in paths)

    def test_convergence_sweep_converts_evaluation_signal_once(self, monkeypatch):
        # every checkpoint of a member is evaluated on one conversion
        from pipecal import harness

        calls = []

        def counting(adc, x):
            calls.append(len(x))
            return convert_many(adc, x)

        monkeypatch.setattr(harness, "convert_many", counting)
        cfg = default_config(7, algorithm="blhec-sgd", population=2,
                             n_cal=1200, n_fft=4096, eval_samples=4096)
        run_sweep("convergence", cfg, [1500, 3000, 6000])
        assert calls == [4096, 4096]

    def test_rows_carry_blhec_convergence(self):
        cfg = default_config(7, **SMALL)
        assert [r.blhec_converged for r in run_experiment(cfg)] == [True] * 4
        hec = run_experiment(default_config(7, algorithm="hec-wiener", **SMALL))
        assert [r.blhec_converged for r in hec] == [None] * 4
        sweep = run_sweep("convergence", default_config(7, algorithm="blhec-sgd", population=2,
                                                        n_cal=1200, n_fft=4096,
                                                        eval_samples=4096), [1500, 3000])
        assert all(r.blhec_converged for rows in sweep.rows.values() for r in rows)

    def test_drawn_scaling_factor_outside_range_is_a_config_error(self):
        # with a huge delta_std, member 0's draw leaves (0, 1)
        with pytest.raises(ConfigError, match="adc 0"):
            cfg = default_config(7, delta_std=5.0, **SMALL)
            run_experiment(cfg)

    @pytest.mark.parametrize("grid", [[10], [100, 1000]])
    def test_checkpoints_below_n_cal_rejected_before_any_member_runs(self, member_calls, grid):
        # the BL-HEC reference is solved from the first n_cal = 1200 pairs
        cfg = default_config(7, algorithm="blhec-sgd", **SMALL)
        with pytest.raises(ConfigError, match="below n_cal=1200"):
            run_sweep("convergence", cfg, grid)
        assert member_calls == []

    def test_convergence_requires_sgd(self):
        cfg = default_config(7, algorithm="blhec-wiener", **SMALL)
        with pytest.raises(ConfigError):
            run_sweep("convergence", cfg, [1000])

    def test_rejects_bad_kind_and_empty_grid(self):
        cfg = default_config(7, **SMALL)
        with pytest.raises(ConfigError):
            run_sweep("voltage", cfg, [1.0])
        with pytest.raises(ConfigError):
            run_sweep("delta", cfg, [])
        # a repeated grid value would run and write its point twice; -0.0 == 0.0
        for kind, grid in (("delta", [0.0, 0.0]), ("delta", [0.0, 1e-3, -0.0]),
                           ("snr", [60, 60.0]), ("alpha", [0.5, 0.5])):
            with pytest.raises(ConfigError, match="repeats"):
                run_sweep(kind, cfg, grid)
        sgd = default_config(7, **SMALL, algorithm="blhec-sgd")
        with pytest.raises(ConfigError, match="repeats"):
            run_sweep("convergence", sgd, [2000, 1500, 2000])
        # a sample count is a whole number; truncating it would run other checkpoints
        # ... and at most n_sgd's upper end
        for grid in ([1500.7], [1500.2, 1500.9], [1500, 10 ** 30]):
            with pytest.raises(ConfigError, match="positive integers"):
                run_sweep("convergence", sgd, grid)
        with pytest.raises(ConfigError, match="grid value is an integer too large for a float"):
            run_sweep("convergence", sgd, [1500, 10 ** 400])

    def test_invalid_grid_value_rejected_before_any_member_runs(self, opened_pools,
                                                                member_calls):
        cfg = default_config(7, **{**SMALL, "population": 3})
        with pytest.raises(ConfigError, match="alpha_d must be in"):
            run_sweep("alpha", cfg, [0.6, 0.7, 1.5], workers=2)
        assert member_calls == []
        assert opened_pools == []

    def test_grid_sweep_opens_one_pool(self, opened_pools, member_calls):
        cfg = default_config(7, algorithm="hec-wiener", **{**SMALL, "population": 3})
        sweep = run_sweep("delta", cfg, [2e-3, -2e-3, 0.0], workers=2)
        assert opened_pools == [(2, 1)]
        assert len(member_calls) == 9
        assert sweep.points == [2e-3, -2e-3, 0.0]
        for point in sweep.points:
            assert [r.adc_id for r in sweep.rows[point]] == [0, 1, 2]
            assert all(r.sweep_kind == "delta" and r.sweep_value == point
                       for r in sweep.rows[point])

    def test_convergence_sweep_opens_one_pool(self, opened_pools, member_calls):
        # an integral float is a valid checkpoint; points come back ascending
        cfg = default_config(7, algorithm="blhec-sgd", **{**SMALL, "population": 3})
        sweep = run_sweep("convergence", cfg, [3000.0, 1500], workers=8)
        assert opened_pools == [(3, 1)]
        assert member_calls == [(0, "convergence"), (1, "convergence"), (2, "convergence")]
        assert sweep.points == [1500.0, 3000.0]
        for point in sweep.points:
            assert [r.adc_id for r in sweep.rows[point]] == [0, 1, 2]
            assert all(r.samples == point for r in sweep.rows[point])
        assert [(i, k) for i, k, _ in sweep.error_norms] == [
            (0, 1500), (0, 3000), (1, 1500), (1, 3000), (2, 1500), (2, 3000)]

    @pytest.mark.parametrize("kind, algorithm, grid", [
        ("delta", "hec-wiener", [0.0, 2e-3]),
        ("convergence", "blhec-sgd", [1500, 3000]),
    ], ids=["delta", "convergence"])
    def test_workers_do_not_change_sweep_outputs(self, tmp_path, kind, algorithm, grid):
        cfg = default_config(7, algorithm=algorithm, **{**SMALL, "population": 3})
        seq = _emitted(run_sweep(kind, cfg, grid, workers=1), tmp_path / "seq")
        par = _emitted(run_sweep(kind, cfg, grid, workers=2), tmp_path / "par")
        assert seq == par
        assert ("error_norms.csv" in seq) == (kind == "convergence")


class TestBaselineNumbers:
    def test_uncalibrated_population_matches_comparison_arithmetic(self):
        # reported improvement arithmetic: calibrated 94.23 dB minus 44.57 dB
        # improvement puts the uncalibrated mean near 49.7 dB
        cfg = default_config(20260811, population=20, n_cal=1200)
        rows = run_experiment(cfg)
        baseline = aggregate_rows(rows)["pre_sfdr_db"]["mean"]
        assert baseline == pytest.approx(94.23 - 44.57, abs=3.0)


class TestImpureGeneratorCalibration:
    def test_impure_source_calibrates_within_3db_of_clean(self):
        from pipecal.harness import _build_member

        cfg = default_config(5, q=2, n_fft=4096, eval_samples=4096)
        tones = [ToneSpec(snap_to_odd_bin(0.57, 4096), 0.52),
                 ToneSpec(snap_to_odd_bin(0.71, 4096), 0.42)]
        clean = gen_tones(tones, 2000)
        impure = gen_impure_two_tone(tones, {2: -45.0, 3: -40.0, 5: -50.0}, 9, 2000)
        assert np.max(np.abs(impure)) <= 1.0
        eval_tone = ToneSpec(snap_to_odd_bin(0.6767, 4096), 0.95)
        bins = [tone_bin(eval_tone.omega, 4096)]

        results = {"clean": [], "impure": []}
        for idx in range(6):
            adc, path, layout = _build_member(cfg, idx)
            batch = convert_many(adc, gen_tones([eval_tone], 4096))
            sel = selection_vectors(batch, layout)
            pre = analyze(spectrum(batch.y, "rect", 4096), bins).sfdr_db
            for tag, signal in (("clean", clean), ("impure", impure)):
                pairs = make_pairs(adc, signal, path, 3)
                res = blhec_wiener(accumulate_statistics(pairs, layout, cfg.alpha_d))
                post = analyze(spectrum(apply_correction_batch(batch.y, sel, res.theta_nl),
                                        "rect", 4096), bins).sfdr_db
                results[tag].append(post)
                assert post > pre + 6.0
        # the impure source calibrates the population as well as the clean one
        assert abs(np.mean(results["impure"]) - np.mean(results["clean"])) <= 3.0


class TestCli:
    def test_calibrate_writes_results(self, tmp_path, capsys):
        code = main(["calibrate", "--seed", "7", "--out", str(tmp_path),
                     "--population", "2", "--config", self._cfg(tmp_path)])
        assert code == 0
        assert (tmp_path / "results.csv").exists()
        assert "post_sfdr_db" in capsys.readouterr().out

    def test_simulate_dumps_spectrum(self, tmp_path):
        code = main(["simulate", "--seed", "7", "--out", str(tmp_path),
                     "--config", self._cfg(tmp_path), "--dump-spectrum"])
        assert code == 0
        assert (tmp_path / "spectrum.csv").exists()

    def test_dumped_spectrum_is_the_evaluated_one(self, tmp_path):
        # with evaluation noise, the dump is the spectrum behind pre_sndr_db
        path = tmp_path / "cfg.json"
        fields = {"population": 1, "n_cal": 1200, "n_fft": 4096, "eval_samples": 4096,
                  "eval_snr_db": 40.0}
        path.write_text(json.dumps(fields))
        assert main(["simulate", "--seed", "7", "--out", str(tmp_path),
                     "--config", str(path), "--dump-spectrum"]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        dumped = np.array([float(line.split(",")[1]) for line in lines[2:]])
        cfg = default_config(7, **fields)
        want = spectrum(evaluation_batch(cfg, 0).y, cfg.window, cfg.n_fft).power
        assert np.array_equal(dumped, want)

    def test_sweep_cli(self, tmp_path):
        code = main(["sweep", "--seed", "7", "--kind", "delta", "--grid", "0,2e-3",
                     "--out", str(tmp_path), "--population", "2",
                     "--config", self._cfg(tmp_path)])
        assert code == 0
        assert (tmp_path / "aggregate.csv").exists()

    def test_convergence_cli(self, tmp_path, capsys):
        code = main(["convergence", "--seed", "7", "--checkpoints", "1500,3000",
                     "--out", str(tmp_path), "--population", "1",
                     "--config", self._cfg(tmp_path)])
        assert code == 0
        assert (tmp_path / "error_norms.csv").exists()
        out = capsys.readouterr().out
        assert "convergence = 1500.0:" in out and "convergence = 3000.0:" in out

    @pytest.mark.parametrize("command", [
        ["sweep", "--kind", "delta", "--grid", "0,-0"],
        ["convergence", "--checkpoints", "2000,2000"],
    ])
    def test_repeated_grid_value_exits_2(self, tmp_path, capsys, command):
        code = main([*command, "--seed", "3", "--population", "2", "--out", str(tmp_path),
                     "--config", self._cfg(tmp_path)])
        assert code == 2
        assert "repeats" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("command, message", [
        (["sweep", "--kind", "alpha", "--grid", "0.6,1.5"], "alpha_d must be in"),
        (["convergence", "--checkpoints", "1500,2000.5"], "bad grid value"),
        (["convergence", "--checkpoints", "10"], "below n_cal=1200"),
        (["convergence", "--checkpoints", "1500,1" + "0" * 30], "positive integers up to 10000000"),
        (["sweep", "--kind", "snr", "--grid=70,4000"], "snr_db must be in [-3000.0, 3000.0] or"),
    ], ids=["sweep", "convergence", "convergence-below-n_cal", "checkpoint-1e30", "snr-4000"])
    def test_invalid_grid_value_exits_2_before_any_member(self, tmp_path, capsys, member_calls,
                                                          command, message):
        code = main([*command, "--seed", "3", "--population", "2", "--out", str(tmp_path),
                     "--config", self._cfg(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert member_calls == []
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("command", [
        ["calibrate"],
        ["simulate"],
        ["sweep", "--kind", "delta", "--grid", "0,2e-3"],
        ["convergence", "--checkpoints", "1500,3000"],
    ], ids=["calibrate", "simulate", "sweep", "convergence"])
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_unusable_out_exits_2_before_any_member(self, tmp_path, capsys, member_calls,
                                                    command, under_file):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = taken / "out" if under_file else taken
        code = main([*command, "--seed", "1", "--population", "1", "--out", str(out),
                     "--config", self._cfg(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot use --out {out}")
        assert member_calls == []
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize("command, name", [
        (["calibrate"], "results.csv"),
        (["sweep", "--kind", "delta", "--grid", "0,2e-3"], "aggregate.csv"),
        (["convergence", "--checkpoints", "1500,3000"], "error_norms.csv"),
        (["simulate", "--dump-spectrum"], "spectrum.csv"),
    ], ids=["results", "aggregate", "error_norms", "spectrum"])
    def test_output_name_taken_by_a_directory_exits_2_before_any_member(
            self, tmp_path, capsys, member_calls, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code = main([*command, "--seed", "1", "--out", str(out), "--config", self._cfg(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot use --out {out} as the output directory: {out / name} exists")
        assert member_calls == []
        assert sorted(p.name for p in out.iterdir()) == [name]

    @pytest.mark.parametrize("text, message", [
        ('{"stage_gain": 0}', "stage gain must be positive, not 0"),
        ('{"stage_gain": -4.0}', "stage gain must be positive, not -4.0"),
        ('{"stage_gain": 1%s}' % ("0" * 400), "stage_gain is an integer too large for a float"),
        ('{"tones": [[0.6766, 0.5, 1%s]]}' % ("0" * 400), "a tone value is an integer too large"),
        ('{"tones": [[0.6766, 0.5, NaN]]}', "invalid tones: tone phase must be finite"),
        ('{"tones": [["0.6766", 0.5, 0.0]]}', "a tone value must be a real number, not '0.6766'"),
        ('{"resolution_bits": 2000}', "resolution_bits=2000 has no float LSB"),
        ('{"population": 30, "delta_std": 0.3}', "adc 10: delta 0.365904"),
        ('{"stage_gain": 1%s}' % ("0" * 5000), "Exceeds the limit (4300 digits)"),
        ('{"snr_db": 4000}', "snr_db must be in [-3000.0, 3000.0] or +inf, not 4000"),
    ], ids=["gain-0", "gain-negative", "huge-int", "huge-int-tone", "nan-phase", "str-tone",
            "resolution-2000", "drawn-delta", "int-over-4300-digits", "snr-4000"])
    def test_invalid_member_input_exits_2_before_any_member(self, tmp_path, capsys, member_calls,
                                                            text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["calibrate", "--seed", "1", "--population", "30", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert member_calls == []

    def test_simulate_checks_only_the_member_it_runs(self, tmp_path, capsys):
        # simulate runs member 0 alone; at 100 members, member 10's delta would leave (0, 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_std": 0.3, "n_cal": 1200, "n_fft": 4096,
                                   "eval_samples": 4096}))
        assert main(["simulate", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.count("adc ") == 1
        assert main(["calibrate", "--seed", "1", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algorithm": "nope"}))
        assert main(["calibrate", "--seed", "7", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # a miniature test tone cannot exercise the outer codes: rank failure
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"population": 1, "n_cal": 400, "n_fft": 4096,
                                   "eval_samples": 4096,
                                   "tones": [[0.677, 0.05, 0.0]]}))
        assert main(["calibrate", "--seed", "7", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("fields, flags", [
        ({"window": "hamming"}, []),
        ({"n_cal": 10}, []),
        ({}, ["--algorithm", "blhec-sgd", "--samples", "0"]),
        # two full-scale tones clip the input (post-SFDR 5.77 dB when accepted)
        ({"tones": [[0.677, 1, 0], [0.9, 1, 0]]}, []),
        # three codes at gain 4 overload the residue of the next stage
        ({"stage_levels": 3}, []),
        # a tone is exactly (omega, amplitude, phase)
        ({"tones": [[0.5, 1.0]]}, []),
        ({"tones": [[0.5, 1, 0, 3]]}, []),
        ({"tones": [0.5]}, []),
        # alpha_d + delta above 1 puts the analog scaling factor out of range
        ({}, ["--delta", "0.5"]),
        ({}, ["--snr", "nan"]),
        # a non-integer or a boolean in an integer field
        ({"population": 2.5}, []),
        ({"population": True}, []),
        ({"n_cal": 2000.5}, []),
        ({"eval_samples": 16384.5}, []),
        ({"resolution_bits": 13.5}, []),
        ({"n_sgd": 3000.5}, ["--algorithm", "blhec-sgd"]),
        # the worker count is checked before any member is built
        ({}, ["--workers", "0"]),
        # a string in a float field, a number in a bool field
        ({"snr_db": "70"}, []),
        ({"coherent_snap": 1}, []),
        # a boolean is not an integer, although Python counts it as one
        ({"q": True}, []),
        # a negative seed, and non-finite values that used to fail inside a member
        ({}, ["--seed", "-1"]),
        ({"delta_std": math.inf}, []),
        ({"mu_nl_init": math.inf, "mu_nl_min": 1}, ["--algorithm", "blhec-sgd"]),
        ({"mu_alpha_ratio": math.inf}, ["--algorithm", "blhec-sgd"]),
        # evaluation bins that used to fail each member after it had calibrated: an
        # unsnapped tone in bin 0 of a 4-point FFT, and a tone whose bh4 region and
        # the DC region leave no bin of an 8-point FFT to search for spurs
        ({"n_fft": 4, "eval_samples": 4, "coherent_snap": False, "algorithm": "hec-wiener"}, []),
        ({"n_fft": 8, "eval_samples": 8, "window": "bh4", "coherent_snap": False,
          "algorithm": "hec-wiener"}, []),
    ])
    def test_invalid_config_exits_2(self, tmp_path, capsys, fields, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": 1, **fields}))
        code = main(["calibrate", "--seed", "1", "--config", str(cfg),
                     "--out", str(tmp_path), *flags])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        (["calibrate", "--algorithm", "hec-wiener"], _MISSING_CODE),
        (["calibrate", "--algorithm", "blhec-wiener"], _MISSING_CODE),
        (["calibrate", "--algorithm", "blhec-sgd"], _MISSING_CODE),
        # at delta = 0 the scaled conversions select the code that the unscaled
        # ones miss, so the pairs cover every code and the solve finds R_hh singular
        (["sweep", "--kind", "delta", "--grid", "0"], "covariance condition number exceeds 1e+12\n"),
        # the member's BL-HEC reference is solved before its adaptive run
        (["convergence", "--checkpoints", "2000"], _MISSING_CODE),
    ], ids=["hec-wiener", "blhec-wiener", "blhec-sgd", "sweep", "convergence"])
    def test_input_missing_a_code_exits_3(self, tmp_path, capsys, command, message):
        # a 32-sample tone period never selects stage 3's code 2 on the unscaled
        # side; every algorithm stops on the same count of the codes its pairs select
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_fft": 32, "population": 1}))
        code = main([*command, "--seed", "1", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"numerical failure: adc 0: {message}")

    def test_sgd_divergence_names_member_and_sample(self, tmp_path, capsys):
        # a step size of 64 blows member 0 up at the first guard check
        fields = {"population": 2, "mu_nl_init": 64.0, "mu_nl_min": 64.0, "n_sgd": 3000}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        code = main(["calibrate", "--seed", "1", "--algorithm", "blhec-sgd",
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert ("adc 0: ||theta_nl||_inf exceeded guard 1.0 at sample 200"
                in capsys.readouterr().err)
        # the member and the sample survive the trip back from a pool worker
        for workers in (1, 2):
            with pytest.raises(DivergenceError) as exc:
                run_experiment(default_config(1, algorithm="blhec-sgd", **fields), workers=workers)
            assert (exc.value.member, exc.value.sample) == (0, 200)

    def test_kernel_build_error_exits_4(self, tmp_path, capsys, monkeypatch):
        # one more flag names a library that is not built yet, and no compiler can
        # build it; every algorithm converts through it
        monkeypatch.setattr(kernels, "_KERNEL_FLAGS", (*kernels._KERNEL_FLAGS, "-DPIPECAL"))
        monkeypatch.setattr(kernels, "_compiler", lambda: ["pipecal-no-such-cc"])
        kernels.library.cache_clear()   # the loaded library would be reused
        try:
            for algorithm in harness.ALGORITHMS:
                out = tmp_path / algorithm
                code = main(["calibrate", "--seed", "1", "--algorithm", algorithm,
                             "--population", "1", "--samples", "3000", "--out", str(out)])
                assert code == 4, algorithm
                err = capsys.readouterr().err
                assert err.startswith("kernel build error: C compiler 'pipecal-no-such-cc'"), err
                assert not (out / "results.csv").exists()
        finally:
            kernels.library.cache_clear()

    def test_sgd_stage_with_200_levels_exits_0_or_3(self, tmp_path):
        # 200 code indices do not fit in int8; the run must not end in a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stage_levels": 200, "dac_bound_lsb": 1,
                                   "population": 1, "n_sgd": 3000}))
        assert main(["calibrate", "--seed", "1", "--algorithm", "blhec-sgd",
                     "--config", str(cfg), "--out", str(tmp_path)]) in (0, 3)

    def test_signal_below_spur_floor_exits_3(self, tmp_path, capsys):
        # at -10 dB calibration SNR the corrected tone sinks below its spurs
        code = main(["calibrate", "--seed", "1", "--snr", "-10", "--population", "1",
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: adc 0: signal peak") and "not above spur floor" in err

    def test_lowered_sndr_warns_but_exits_0(self, tmp_path, capsys):
        # at -10 dB calibration SNR the BL-HEC solve makes the converter worse
        code = main(["calibrate", "--seed", "1", "--snr", "-10", "--population", "1",
                     "--config", self._cfg(tmp_path), "--out", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "lowered SNDR on 1 of 1 rows; worst: adc 0, 42.81 dB -> -17.05 dB" in err

    @pytest.mark.parametrize("command", [
        ["calibrate"],
        ["sweep", "--kind", "delta", "--grid", "0,2e-3"],
        ["convergence", "--algorithm", "blhec-sgd", "--checkpoints", "1500,3000"],
    ], ids=["calibrate", "sweep", "convergence"])
    def test_unconverged_blhec_warns(self, tmp_path, capsys, monkeypatch, command):
        # a cap of 2 solves stops every BL-HEC solve before it can converge;
        # a convergence sweep counts each member's one reference solve once
        import functools

        from pipecal import harness

        monkeypatch.setattr(harness, "blhec_wiener",
                            functools.partial(blhec_wiener, max_iterations=2))
        code = main([*command, "--seed", "7", "--out", str(tmp_path),
                     "--config", self._cfg(tmp_path)])
        assert code == 0
        solves = 4 if command[0] == "sweep" else 2
        assert (f"warning: {solves} of {solves} BL-HEC solves stopped without converging"
                in capsys.readouterr().err)

    def test_improving_calibration_does_not_warn(self, tmp_path, capsys):
        assert main(["calibrate", "--seed", "7", "--out", str(tmp_path),
                     "--config", self._cfg(tmp_path)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate"])
        assert exc.value.code == 2

    @staticmethod
    def _cfg(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"population": 2, "n_cal": 1200,
                                    "n_fft": 4096, "eval_samples": 4096}))
        return str(path)

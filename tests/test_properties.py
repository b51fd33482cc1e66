"""Property tests of the configuration contract: a random ExperimentConfig,
or a random sweep over a valid one, is either rejected with ConfigError
before any member runs, or runs to finite metrics, or stops with one of
NUMERICAL_FAILURES, which the command line maps to exit 3. A config that
constructs never fails on its configuration, and nothing else (a bare
ValueError, an IndexError, NaN metrics) may come out."""

import math
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pipecal import harness
from pipecal.harness import NUMERICAL_FAILURES, ConfigError, ExperimentConfig, run_experiment, run_sweep
from pipecal.spectral import WINDOWS

_FIELDS = {
    "resolution_bits": st.integers(6, 16),
    "pipeline_stages": st.integers(1, 6),
    "stage_levels": st.integers(1, 9),
    "stage_gain": st.floats(1.0, 6.0),
    "flash_bits": st.integers(1, 5),
    "gain_bound_lsb": st.floats(0.0, 60.0),
    "dac_bound_lsb": st.floats(0.0, 60.0),
    "gain_error_reference": st.one_of(st.none(), st.floats(-0.5, 2.0)),
    "ideal_included_stages": st.booleans(),
    "q": st.integers(0, 6),
    "tones": st.lists(st.tuples(st.floats(0.01, 3.2), st.floats(0.0, 1.2), st.floats(-3.2, 3.2)),
                      min_size=0, max_size=2).map(tuple),
    "cal_amplitude": st.floats(0.0, 1.2),
    "eval_amplitude": st.floats(0.0, 1.2),
    "coherent_snap": st.booleans(),
    "snr_db": st.one_of(st.none(), st.floats(-20.0, 120.0), st.just(math.nan)),
    "noise_mode": st.sampled_from(["held", "independent", "bogus"]),
    "eval_snr_db": st.one_of(st.none(), st.floats(0.0, 120.0), st.just(math.nan)),
    "alpha_d": st.floats(-0.2, 1.2),
    "delta_mode": st.sampled_from(["normal", "fixed"]),
    "delta_value": st.floats(-0.5, 0.5),
    "delta_std": st.floats(-0.01, 0.3),
    "algorithm": st.sampled_from(["hec-wiener", "blhec-wiener", "blhec-sgd"]),
    # a float in an integer field is a ConfigError, never a TypeError
    "n_cal": st.one_of(st.integers(0, 2000), st.floats(0.0, 2000.0)),
    "n_sgd": st.integers(-1, 1500),
    "mu_nl_init": st.floats(2.0 ** -8, 2.0 ** -1),
    "mu_halve_every": st.integers(0, 2000),
    "mu_nl_min": st.floats(2.0 ** -10, 2.0 ** -4),
    "mu_alpha_ratio": st.floats(0.0, 1.0),
    "sgd_guard": st.floats(0.01, 4.0),
    "n_fft": st.sampled_from([0, 1, 2, 1000, 1024, 2048]),
    "window": st.sampled_from(["rect", "hann", "bh4", "blackmanharris", "hamming"]),
    "eval_samples": st.sampled_from([512, 2048, 4096]),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({}, optional=_FIELDS), st.integers(0, 2 ** 32 - 1))
def test_config_is_rejected_or_runs_to_finite_metrics(fields, seed):
    try:
        config = ExperimentConfig(master_seed=seed, population=1, **fields)
    except ConfigError:
        return
    try:
        rows = run_experiment(config)
    except NUMERICAL_FAILURES:
        return
    assert len(rows) == 1
    _assert_finite(rows, config)


def _assert_finite(rows, context):
    for row in rows:
        for name in ("pre_sndr_db", "pre_sfdr_db", "post_sndr_db", "post_sfdr_db", "theta_alpha"):
            assert math.isfinite(getattr(row, name)), (name, context)


# grid values per sweep kind: checkpoints below D = 19, below n_cal and above
# it, integral floats among them; scaling factors and mismatches in (0, 1)
# and outside it
_GRID_VALUES = {
    "convergence": st.one_of(st.integers(1, 3000), st.integers(1, 3000).map(float)),
    "alpha": st.one_of(st.floats(0.05, 0.95), st.floats(-0.2, 1.2)),
    "delta": st.one_of(st.floats(-0.2, 0.2), st.floats(-0.5, 0.5)),
    "snr": st.one_of(st.floats(-20.0, 120.0), st.sampled_from([math.inf, math.nan])),
}


@st.composite
def _grids(draw, kind):
    grid = draw(st.lists(_GRID_VALUES[kind], min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 3)) == 0:
        grid.append(draw(st.sampled_from(grid)))        # a repeated value
    return grid


@pytest.mark.parametrize("kind", sorted(_GRID_VALUES))
@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), window=st.sampled_from(WINDOWS), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_is_rejected_or_runs_to_finite_rows(kind, data, window, seed):
    grid = data.draw(_grids(kind), label="grid")
    algorithm = "blhec-sgd" if kind == "convergence" else "blhec-wiener"
    config = ExperimentConfig(master_seed=seed, population=1, algorithm=algorithm, n_cal=1200,
                              n_sgd=3000, n_fft=4096, eval_samples=4096, window=window)
    members = []
    run_member = harness._run_member
    try:
        with mock.patch.object(harness, "_run_member",
                               lambda task: members.append(task[1]) or run_member(task)):
            result = run_sweep(kind, config, grid)
    except ConfigError:
        assert members == [], grid      # a grid is rejected whole, before any member runs
        return
    except NUMERICAL_FAILURES:
        return
    assert [len(result.rows[point]) for point in result.points] == [1] * len(grid)
    _assert_finite([row for rows in result.rows.values() for row in rows], (kind, grid))

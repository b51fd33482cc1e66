"""Property test of the configuration contract: a random ExperimentConfig is
either rejected with ConfigError, or runs to finite metrics, or stops with
one of the numerical failures the command line maps to exit 3. Nothing else
(a bare ValueError, an IndexError, NaN metrics) may come out."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pipecal.cli import _NUMERICAL_ERRORS
from pipecal.harness import ConfigError, ExperimentConfig, run_experiment

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
    "window": st.sampled_from(["rect", "blackmanharris", "hamming"]),
    "eval_samples": st.sampled_from([512, 2048, 4096]),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({}, optional=_FIELDS), st.integers(0, 2 ** 32 - 1))
def test_config_is_rejected_or_runs_to_finite_metrics(fields, seed):
    try:
        config = ExperimentConfig(master_seed=seed, population=1, **fields)
        rows = run_experiment(config)
    except ConfigError:
        return
    except _NUMERICAL_ERRORS:
        return
    assert len(rows) == 1
    row = rows[0]
    for name in ("pre_sndr_db", "pre_sfdr_db", "post_sndr_db", "post_sfdr_db", "theta_alpha"):
        assert math.isfinite(getattr(row, name)), (name, config)

"""Property tests of the configuration contract: a random ExperimentConfig,
or a random sweep over a valid one, is either rejected with ConfigError
before any member runs, or runs to finite metrics, or stops with one of
NUMERICAL_FAILURES, which the command line maps to exit 3. A config that
constructs never fails on its configuration, and nothing else (a bare
ValueError, an IndexError, NaN metrics) may come out. Float fields are
drawn from their declared ranges and edge values too, and one more test
builds a config at every edge of every declared range."""

import dataclasses
import math
import sys
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pipecal import harness
from pipecal.harness import NUMERICAL_FAILURES, ConfigError, ExperimentConfig, run_experiment, run_sweep
from pipecal.spectral import WINDOWS

# each field's kind (its annotation without "| None") and its declared range
_DECLARED = {f.name: (f.type.removesuffix(" | None"), f.metadata["range"])
             for f in dataclasses.fields(ExperimentConfig)}


def _edges(kind, declared):
    """The edge values of a declared range: each finite end, one ulp or one
    integer either side of it and a numpy scalar of it, then +-1e308, +-inf,
    NaN and a 400-digit integer of either sign; or each choice and one more."""
    if declared.choices:
        return [*declared.choices, 0 if kind == "bool" else "bogus"]
    values = [1e308, -1e308, math.inf, -math.inf, math.nan, 10 ** 400, -10 ** 400]
    for end in (declared.lo, declared.hi):
        if math.isfinite(end):
            below, above = ((end - 1, end + 1) if kind == "int" else
                            (math.nextafter(end, -math.inf), math.nextafter(end, math.inf)))
            values += [below, end, above, (np.int64 if kind == "int" else np.float64)(end)]
    return values


def _inside(kind, declared, value) -> bool:
    """Whether `value` lies in the declared range, restated from its notation."""
    if declared.choices:
        return value in declared.choices and type(value) is type(declared.choices[0])
    if kind == "int" and isinstance(value, float):
        return False
    if value == math.inf:
        return declared.inf
    if kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
        return False        # NaN, -inf or an integer too large for a float
    above = value > declared.lo if declared.ends[0] == "(" else value >= declared.lo
    below = value < declared.hi if declared.ends[1] == ")" else value <= declared.hi
    return above and below


def _from_table(name, runnable):
    """`runnable`, the declared range of float field `name` and its edge values."""
    kind, declared = _DECLARED[name]
    lo, hi = (end if math.isfinite(end) else None for end in (declared.lo, declared.hi))
    table = st.floats(lo, hi, exclude_min=lo is not None and declared.ends[0] == "(",
                      exclude_max=hi is not None and declared.ends[1] == ")",
                      allow_nan=False, allow_infinity=False)
    return st.one_of(runnable, table, st.sampled_from(_edges(kind, declared)))


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
    "cal_amplitude": _from_table("cal_amplitude", st.floats(0.0, 1.2)),
    "eval_amplitude": _from_table("eval_amplitude", st.floats(0.0, 1.2)),
    "coherent_snap": st.booleans(),
    "snr_db": st.one_of(st.none(), _from_table("snr_db", st.floats(-20.0, 120.0))),
    "noise_mode": st.sampled_from(["held", "independent", "bogus"]),
    "eval_snr_db": st.one_of(st.none(), _from_table("eval_snr_db", st.floats(0.0, 120.0))),
    "alpha_d": _from_table("alpha_d", st.floats(-0.2, 1.2)),
    "delta_mode": st.sampled_from(["normal", "fixed"]),
    "delta_value": st.floats(-0.5, 0.5),
    "delta_std": _from_table("delta_std", st.floats(-0.01, 0.3)),
    "algorithm": st.sampled_from(["hec-wiener", "blhec-wiener", "blhec-sgd"]),
    # a float in an integer field is a ConfigError, never a TypeError
    "n_cal": st.one_of(st.integers(0, 2000), st.floats(0.0, 2000.0)),
    "n_sgd": st.integers(-1, 1500),
    "mu_nl_init": _from_table("mu_nl_init", st.floats(2.0 ** -8, 2.0 ** -1)),
    "mu_halve_every": st.integers(0, 2000),
    "mu_nl_min": _from_table("mu_nl_min", st.floats(2.0 ** -10, 2.0 ** -4)),
    "mu_alpha_ratio": _from_table("mu_alpha_ratio", st.floats(0.0, 1.0)),
    "sgd_guard": _from_table("sgd_guard", st.floats(0.01, 4.0)),
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
# and outside it; SNRs from snr_db's declared range and its edges
_GRID_VALUES = {
    "convergence": st.one_of(st.integers(1, 3000), st.integers(1, 3000).map(float)),
    "alpha": st.one_of(st.floats(0.05, 0.95), st.floats(-0.2, 1.2)),
    "delta": st.one_of(st.floats(-0.2, 0.2), st.floats(-0.5, 0.5)),
    "snr": _from_table("snr_db", st.floats(-20.0, 120.0)),
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


# overrides under which every value in a field's declared range meets the
# rules between fields, so that the range alone decides
_CONTEXT = {
    "population": dict(delta_mode="fixed"),
    "pipeline_stages": dict(q=1),
    "q": dict(pipeline_stages=_DECLARED["pipeline_stages"][1].hi),
    "stage_levels": dict(stage_gain=1.0, gain_bound_lsb=0.0, dac_bound_lsb=0.0),
    "alpha_d": dict(delta_mode="fixed"),
    "delta_std": dict(delta_mode="fixed"),
    "n_cal": dict(q=1, stage_levels=2, stage_gain=1.0),
    "n_fft": dict(eval_samples=_DECLARED["eval_samples"][1].hi),
    "eval_samples": dict(n_fft=_DECLARED["n_fft"][1].lo),
    "mu_nl_init": dict(mu_nl_min=math.ulp(0.0)),
    "mu_nl_min": dict(mu_nl_init=sys.float_info.max),
}


@pytest.mark.parametrize("name", [name for name, (_, declared) in _DECLARED.items()
                                  if not declared.owner])
def test_construction_rejects_exactly_the_values_outside_the_declared_range(name):
    kind, declared = _DECLARED[name]
    wrong = []
    for value in _edges(kind, declared):
        fields = {"master_seed": 1, "population": 1, **_CONTEXT.get(name, {}), name: value}
        if name == "n_fft" and _inside(kind, declared, value) and value & (value - 1):
            continue        # the one rule on a single field kept as code: a power of two
        try:
            ExperimentConfig(**fields)
            rejected = ""
        except ConfigError as exc:
            rejected = str(exc)
        if bool(rejected) == _inside(kind, declared, value) or rejected and name not in rejected:
            wrong.append((value, rejected))
    assert wrong == [], (name, str(declared))

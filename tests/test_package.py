import importlib
from pathlib import Path

import pytest

import pipecal

MODULES = ["adc", "calibration", "correction", "harness", "signals", "spectral"]

# per-record scalar API, replaced by one-row slices of the batch types, the
# adaptive kernel's trajectory log, replaced by its checkpoint snapshots, and
# the compact multi-converter SGD entry point, replaced by `run_sgd` per member
REMOVED = ["ConversionRecord", "convert", "SamplePair", "SelectionVector", "selection_vector",
           "apply_correction", "sgd_step_counted", "SgdTrajectory", "SgdStream",
           "run_sgd_population"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_none_was_removed(name):
    module = importlib.import_module(f"pipecal.{name}")
    assert all(hasattr(module, attr) for attr in module.__all__)
    assert not set(REMOVED) & set(module.__all__)


def test_package_exposes_no_removed_name():
    assert [name for name in REMOVED if hasattr(pipecal, name)] == []


def test_kernel_source_ships_next_to_calibration():
    # the adaptive kernel is compiled from this file on first use
    from pipecal import calibration

    source = Path(calibration.__file__).with_name("sgd_kernel.c")
    assert source.is_file() and calibration._KERNEL_SOURCE == source

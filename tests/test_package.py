import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import pipecal

MODULES = ["adc", "calibration", "correction", "harness", "signals", "spectral"]

# per-record scalar API, replaced by one-row slices of the batch types, the
# adaptive kernel's trajectory log, replaced by its checkpoint snapshots, the
# compact multi-converter SGD entry point, replaced by `run_sgd` per member,
# test oracles, now in tests/helpers.py (the single SGD step as `counted_step`),
# and the one-line wrappers of `spectral.analyze`
REMOVED = ["ConversionRecord", "convert", "SamplePair", "SelectionVector", "selection_vector",
           "apply_correction", "sgd_step_counted", "SgdTrajectory", "SgdStream",
           "run_sgd_population", "sgd_step", "MultiplicationCount", "reference_output",
           "RecordMismatchError", "sfdr", "sndr"]


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


def test_cli_imports_no_private_name():
    # the command line goes through the package's public names only
    from pipecal import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_every_config_field_declares_one_range_listed_in_the_readme():
    # a field cannot land without a range: each declares one, or names the
    # owner that checks it and copies no bound from it; README's range table
    # lists every field with its kind and its range or owner
    from pipecal.harness import ExperimentConfig, _Range

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 4 and re.fullmatch(r"`\w+`", cells[0]):
            rows[cells[0].strip("`")] = (cells[1].strip("`"), cells[2], cells[3].strip("`"))
    declared = {}
    for f in dataclasses.fields(ExperimentConfig):
        entry = f.metadata["range"]
        if entry.owner:
            assert entry == _Range(owner=entry.owner), f.name
            declared[f.name] = (f.type, rows.get(f.name, ("", ""))[1], entry.owner)
        else:
            declared[f.name] = (f.type, str(entry), "")
    assert rows == declared

import ast
import dataclasses
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pipecal

MODULES = ["adc", "calibration", "correction", "harness", "kernels", "signals", "spectral"]

# per-record scalar API, replaced by one-row slices of the batch types, the
# adaptive kernel's trajectory log, replaced by its checkpoint snapshots, the
# compact multi-converter SGD entry point, replaced by `run_sgd` per member,
# test oracles, now in tests/helpers.py (the single SGD step as `counted_step`),
# the one-line wrappers of `spectral.analyze`, and the numpy copy of the
# conversion kernel's stage rule
REMOVED = ["ConversionRecord", "convert", "SamplePair", "SelectionVector", "selection_vector",
           "apply_correction", "sgd_step_counted", "SgdTrajectory", "SgdStream",
           "run_sgd_population", "sgd_step", "MultiplicationCount", "reference_output",
           "RecordMismatchError", "sfdr", "sndr", "quantize_stage"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_none_was_removed(name):
    module = importlib.import_module(f"pipecal.{name}")
    assert all(hasattr(module, attr) for attr in module.__all__)
    assert not set(REMOVED) & set(module.__all__)


def test_package_exposes_no_removed_name():
    assert [name for name in REMOVED if hasattr(pipecal, name)] == []


def test_calibration_data_holds_no_input_and_no_second_form():
    # the estimators see output pairs and codes, never the test signal; the
    # per-sample selection gathers, the quadratic-form MSE, r_hy and the cross
    # term S_AB + S_BA have one form each
    from pipecal.calibration import accumulate_statistics
    from pipecal.correction import selection_vectors
    from pipecal.harness import _build_member, default_config
    from pipecal.signals import gen_tones, make_pairs

    cfg = default_config(11)
    adc, path_config, layout = _build_member(cfg, 0)
    pairs = make_pairs(adc, gen_tones(cfg.run_tones(cfg.cal_amplitude), 400), path_config, 11)
    removed = [(pairs.unscaled, ["x_in"]),
               (selection_vectors(pairs.unscaled, layout), ["weighted", "indicator_pos"]),
               (accumulate_statistics(pairs, layout, cfg.alpha_d), ["mse", "r_hy", "s_cross"])]
    assert [(type(obj).__name__, name) for obj, names in removed for name in names
            if hasattr(obj, name)] == []


def test_kernel_source_ships_next_to_calibration():
    # the compiled kernels, the SGD loop and the conversion, are built from this file on first use
    from pipecal import calibration, kernels

    source = Path(calibration.__file__).with_name("kernels.c")
    assert source.is_file() and kernels._KERNEL_SOURCE == source


def test_kernel_exports_are_declared_and_called():
    # every non-static function of kernels.c has a ctypes signature in
    # kernels.library() and a caller in the package; an export that nothing
    # declares would be called with ctypes' default int arguments
    from pipecal import kernels

    source = kernels._KERNEL_SOURCE.read_text()
    exported = set(re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(pipecal_\w+)\s*\(",
                              source, re.M))
    declaring = Path(kernels.__file__).read_text()
    declared = [set(re.findall(rf"lib\.(pipecal_\w+)\.{attr} = ", declaring))
                for attr in ("argtypes", "restype")]
    callers = "".join(path.read_text() for path in Path(kernels.__file__).parent.glob("*.py")
                      if path.name != "kernels.py")
    assert exported == {"pipecal_convert", "pipecal_sgd", "pipecal_gram", "pipecal_wiener_solve",
                        "pipecal_output_powers"}
    assert declared == [exported, exported]
    assert [name for name in sorted(exported) if f".{name}(" not in callers] == []


def test_setup_builds_and_loads_no_kernel(tmp_path):
    # a benchmark process sets up by importing the package and building its
    # workload's config, and that time is measured on its own: the compiled
    # kernels are built and loaded at the first conversion, never before, and
    # the code-combination tables at the first selection
    perfbench = Path(pipecal.__file__).parents[2] / "perfbench"
    if not (perfbench / "child.py").is_file():
        pytest.skip("the benchmark is not next to this package")
    package = tmp_path / "pipecal"      # a copy, so its kernel cache starts empty
    shutil.copytree(Path(pipecal.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = ("import sys; sys.path.insert(1, sys.argv[1]); import child; "
              "from pipecal import correction, kernels; "
              "[wl.config(11) for wl in child.WORKLOADS.values()]; "
              "print(kernels.__file__, kernels.library.cache_info().currsize, "
              "correction._combination_table.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", script, str(perfbench)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(package / "kernels.py"), "0", "0"]
    assert list(package.glob("__pycache__/kernels-*")) == []


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


def test_every_layer_the_benchmark_traces_resolves(monkeypatch):
    # perfbench/tracing.py wraps each (module, function) of LAYER_FUNCTIONS
    # where the binding modules import it, and reads the buffers of the
    # accumulate_statistics result; a renamed layer fails here, not in a traced run
    import importlib.util

    import numpy as np

    path = Path(pipecal.__file__).parents[2] / "perfbench" / "tracing.py"
    if not path.is_file():
        pytest.skip("the benchmark is not next to this package")
    spec = importlib.util.spec_from_file_location("pipecal_benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)     # its dataclasses look it up
    spec.loader.exec_module(tracing)
    layers = {(mod, fn): getattr(importlib.import_module(f"pipecal.{mod}"), fn, None)
              for mod, fn in tracing.LAYER_FUNCTIONS}
    assert [layer for layer, function in layers.items() if not callable(function)] == []
    # each is wrapped where a binding module holds it
    bindings = [vars(importlib.import_module(name)) for name in tracing.BINDING_MODULES]
    assert [layer for layer, function in layers.items()
            if not any(b.get(layer[1]) is function for b in bindings)] == []

    from pipecal.calibration import accumulate_statistics
    from pipecal.harness import _build_member, default_config
    from pipecal.signals import gen_tones, make_pairs

    cfg = default_config(11)
    adc, path_config, layout = _build_member(cfg, 0)
    pairs = make_pairs(adc, gen_tones(cfg.run_tones(cfg.cal_amplitude), 400), path_config, 11)
    stats = accumulate_statistics(pairs, layout, cfg.alpha_d)
    work = tracing._work("calibration.accumulate_statistics", stats)
    assert work == {"bytes": 400 * 2 * (layout.dim + 1) * np.dtype(float).itemsize}

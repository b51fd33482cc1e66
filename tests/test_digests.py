"""Committed output digests: each entry of digests.json names an API call, its seed and
`default_config` overrides, and the sha256 of each file its outputs emit. A change that
moves a digest on purpose updates its entry in the same commit."""

import hashlib
import json
from pathlib import Path

import pytest

from pipecal.harness import default_config, emit_outputs, emit_sweep_outputs, run_experiment, run_sweep

ENTRIES = json.loads(Path(__file__).with_name("digests.json").read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_outputs_match_committed_digests(entry, tmp_path):
    config = default_config(entry["seed"], **entry["config"])
    if entry["call"] == "run_experiment":
        paths = [emit_outputs(run_experiment(config), tmp_path)]
    else:
        paths = emit_sweep_outputs(run_sweep(entry["kind"], config, entry["grid"]), tmp_path)
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths} == entry["sha256"]

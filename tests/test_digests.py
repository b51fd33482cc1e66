"""Committed output digests: each entry of digests.json names an API call (its seed and
`default_config` overrides) or a CLI argv, and the sha256 of each file its outputs emit.
A change that moves a digest on purpose updates its entry in the same commit."""

import json
from pathlib import Path

import pytest

from helpers import entry_digests, second_blas_kernel_missing, under_two_blas_kernels

ENTRIES = json.loads(Path(__file__).with_name("digests.json").read_text())
# rerun under a second BLAS kernel: a Wiener run whose y a BLAS product once rounded by
# kernel, and the convergence sweep whose error norms are summed outside BLAS
SECOND_KERNEL_ENTRIES = ("gain3-5level-10", "convergence-sweep-5")

_NO_SECOND_BLAS_KERNEL = second_blas_kernel_missing()


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_outputs_match_committed_digests(entry, tmp_path):
    assert entry_digests(entry, tmp_path) == entry["sha256"]


@pytest.mark.skipif(bool(_NO_SECOND_BLAS_KERNEL), reason=_NO_SECOND_BLAS_KERNEL)
def test_digests_do_not_depend_on_the_blas_kernel(tmp_path):
    entries = [entry for entry in ENTRIES if entry["name"] in SECOND_KERNEL_ENTRIES]
    script = ("import json, sys, tempfile; sys.path.insert(0, sys.argv[1]); "
              "from helpers import entry_digests; "
              "entries = json.loads(sys.argv[2]); "
              "sys.stdout.write(json.dumps([entry_digests(e, tempfile.mkdtemp(dir=sys.argv[3])) "
              "for e in entries]))")
    runs = under_two_blas_kernels("-c", script, str(Path(__file__).parent), json.dumps(entries),
                                  str(tmp_path))
    expected = [entry["sha256"] for entry in entries]
    assert len(entries) == len(SECOND_KERNEL_ENTRIES)
    for code, out, err in runs:
        assert code == 0, err.decode()
        assert json.loads(out) == expected

"""The package's compiled kernels: one C source, `kernels.c`, built on first use.

It holds the pipeline conversion behind `adc.convert_many`, the BL-HEC SGD
loop behind `calibration.run_sgd`, and the Wiener path behind
`calibration.PairStatistics`: its Gram matrix, and its solve with its output
powers. This module owns everything between that source and its callers: the
compiler lookup, the build into a cache keyed by the source and the flags,
the error a failed build raises, the ctypes signatures of the functions, and
`Pairs`, the C struct in which every pair kernel reads its pairs. Importing it
builds and loads nothing; the first call of `library()` does, once per process.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from pathlib import Path

__all__ = ["KernelBuildError", "Pairs", "library"]

_KERNEL_SOURCE = Path(__file__).with_name("kernels.c")
# no contraction: a fused multiply-add would round differently from the numpy oracles.
# The --param pair makes gcc collect its garbage sooner. It builds the same bytes at a
# peak RSS of 38 MB instead of 42, close to a pool worker's 37 MB: in a pool run the
# workers build on first use, so the compiler's peak is also a worker's
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "--param=ggc-min-expand=10",
                 "--param=ggc-min-heapsize=2048", "-fPIC", "-shared")


class Pairs(ctypes.Structure):
    """`struct pipecal_pairs`: the addresses and sizes of one batch of pairs' arrays,
    index 0 the scaled side and 1 the unscaled one (see kernels.c)."""

    _fields_ = [("n", ctypes.c_int64), ("dim", ctypes.c_int64), ("q", ctypes.c_int64),
                ("weighted", ctypes.c_void_p), ("y", ctypes.c_void_p * 2),
                ("keys", ctypes.c_void_p * 2), ("rows", ctypes.c_int64 * 2),
                ("table_weighted", ctypes.c_void_p * 2), ("table_slots", ctypes.c_void_p * 2),
                ("g", ctypes.c_void_p), ("r", ctypes.c_void_p), ("l", ctypes.c_void_p),
                ("p", ctypes.c_void_p)]


class KernelBuildError(RuntimeError):
    """The compiled kernels' C source could not be compiled."""


def _compiler() -> list[str]:
    """The C compiler command Python was built with (sysconfig's CC)."""
    import sysconfig

    return (sysconfig.get_config_var("CC") or "cc").split()


def _build_kernel(out_dir: Path) -> Path:
    """The kernels' shared library in `out_dir`, named by the sha256 of the
    source and the flags and compiled if missing: under a temporary name,
    then moved into place, so processes that build at the same moment never
    load a partial file."""
    import subprocess

    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_KERNEL_FLAGS).encode()).hexdigest()[:16]
    target = out_dir / f"kernels-{key}.so"
    if target.exists():
        return target
    cc, tmp = _compiler(), out_dir / f"{target.name}.{os.getpid()}.tmp"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        subprocess.run([*cc, *_KERNEL_FLAGS, "-o", str(tmp), str(_KERNEL_SOURCE)],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    except (OSError, subprocess.CalledProcessError) as exc:
        raise KernelBuildError(f"C compiler {cc[0]!r} could not build the compiled kernels "
                               f"{_KERNEL_SOURCE.name}: {getattr(exc, 'stderr', None) or exc}"
                               ) from exc
    finally:
        if tmp.exists():    # false, not an error, where out_dir could not be made
            tmp.unlink()
    return target


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled kernels, built into the package's __pycache__ on first use,
    with every function's signature declared."""
    libc = ctypes.CDLL(None)    # glibc: a converting process keeps its freed memory (README)
    if hasattr(libc, "mallopt"):
        libc.mallopt(-1, 128 << 20)     # M_TRIM_THRESHOLD: no trim below 128 MB free
        libc.mallopt(-3, 32 << 20)      # M_MMAP_THRESHOLD: no block below 32 MB mapped alone
    lib = ctypes.CDLL(str(_build_kernel(_KERNEL_SOURCE.parent / "__pycache__")))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.pipecal_convert.argtypes = [i64, ptr, i64] + [ptr] * 8
    lib.pipecal_convert.restype = None
    lib.pipecal_sgd.argtypes = [ptr] + [i64] * 5 + [ptr] * 2 + [f64] * 4
    lib.pipecal_sgd.restype = i64
    lib.pipecal_gram.argtypes = [ptr] * 3
    lib.pipecal_gram.restype = None
    lib.pipecal_wiener_solve.argtypes = [ptr, f64, f64, ptr, ptr]
    lib.pipecal_wiener_solve.restype = i64
    return lib

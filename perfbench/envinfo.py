"""Environment block recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np

# variables the run sets before numpy loads, so BLAS and OpenMP start with them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _read(path: str) -> str:
    with open(path) as f:
        return f.read().strip()


def _caches() -> dict:
    """Cache sizes of cpu0 by level and type, as the kernel reports them."""
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(d, f))
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            return int(ctypes.CDLL(path).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        # numpy.fft (pocketfft) runs on the calling thread only
        "fft_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
    }

"""Thread pinning and the environment record every result carries.

`pin_threads` must run before numpy is imported: BLAS and OpenMP read
their thread counts once, when the library loads. One BLAS thread is
used because a second numpy process on a 2-core box oversubscribes the
cores (one reference day-step took 12.7 s that way), and results with
different thread or CPU counts are not comparable.
"""

from __future__ import annotations

import ctypes
import os
import platform

BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    """CPUs this process may run on (what the `nproc` command prints)."""
    return len(os.sched_getaffinity(0))


def pin_threads() -> int:
    threads = min(BLAS_THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _openblas_runtime() -> tuple[int | None, str | None]:
    """Thread count and build string reported by the OpenBLAS numpy loaded."""
    path = None
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line and line.rstrip().endswith(".so"):
                path = line.split()[-1]
                break
    if path is None:
        return None, None
    lib = ctypes.CDLL(path)
    threads = config = None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if get_threads is not None and get_config is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            threads = int(get_threads())
            config = get_config().decode()
            break
    return threads, config


def describe() -> dict:
    """Environment record; numpy must already be imported."""
    import numpy as np

    runtime_threads, openblas = _openblas_runtime()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_runtime": runtime_threads,
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas or blas.get("version"),
    }

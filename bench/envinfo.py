"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas() -> tuple[str, int | None]:
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        if threads is not None:
            break
    return name, threads


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the longest matching mount."""
    target = str(Path(path).resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(seed: int, cache_dir: Path) -> dict:
    blas_name, blas_threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": sys.platform,
        "seed": seed,
        "cache_fs": filesystem_of(cache_dir),
    }

"""What a result was measured on: cores, BLAS, versions, caches, commit."""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

# Single-threaded BLAS: the matrices are small (at most 816 x 480 here), and on a
# small machine shared with other work one thread times far more steadily.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_libraries() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({parts[-1] for parts in map(str.split, fh)
                            if len(parts) >= 6 and "openblas" in parts[-1].lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = int(fn())
                break
    return out


def blas_info() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = blas_libraries()
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads": max(threads.values()) if threads else None, "libraries": threads}


def cache_sizes() -> dict:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(root: Path) -> dict:
    import numpy as np

    info = {"nproc": nproc(), "cpu_count": os.cpu_count(), "blas": blas_info(),
            "python": platform.python_version(), "numpy": np.__version__,
            "caches": cache_sizes(), "platform": platform.platform(),
            "git_commit": git_commit(root)}
    scipy = sys.modules.get("scipy")     # reported only when the program loaded it
    info["scipy"] = scipy.__version__ if scipy is not None else None
    return info

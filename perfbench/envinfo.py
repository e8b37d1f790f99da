"""The environment a result was measured in."""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys

import checkout

BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Threads the loaded BLAS library will use, asked of the library
    itself; None when it cannot be found or asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "blas" in line.lower() or "mkl" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the engine's sources, which identifies the code measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((checkout.SRC / "voicehand").rglob("*.py")):
        digest.update(str(path.relative_to(checkout.SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(blas_threads_by_phase):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads_by_phase,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }

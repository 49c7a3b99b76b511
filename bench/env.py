"""Environment fingerprint recorded with every benchmark result.

Runs are comparable only within one Python/numpy/scipy/BLAS/CPU build:
the ``env`` part of two fingerprints must match before their results are
compared.  The ``code`` part identifies the program under test and is
expected to differ between a parent commit and a change.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Cap the BLAS thread count at nproc; call before importing numpy."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cap))
        except ValueError:
            wanted = cap
        os.environ[var] = str(max(1, min(wanted, cap)))


def _openblas():
    """(runtime config, thread count) of the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("scipy_openblas", ""), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return "unknown", None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_describe(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _source_digest(src_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def fingerprint(root: str, src_dir: str) -> dict:
    import numpy
    import scipy

    blas_config, blas_threads = _openblas()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas_config,
            "blas_threads": blas_threads,
            "nproc": nproc(),
            "cpu_model": _cpu_model(),
        },
        "code": {
            "git_describe": _git_describe(root),
            "src_sha256": _source_digest(src_dir),
        },
    }

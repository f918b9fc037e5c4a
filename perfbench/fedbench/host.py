"""The host block recorded with every result.

Everything here is read, never set: the benchmark must show the default
BLAS threading the program runs under, not a tuned one.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from typing import Dict, Optional

_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _load_avg() -> Optional[list]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def _openblas_threads() -> Optional[int]:
    """Effective OpenBLAS thread count, read from numpy's bundled library."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_info() -> Dict[str, Optional[str]]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"vendor": None, "version": None}
    return {"vendor": blas.get("name"), "version": blas.get("version")}


def _git_revision(root: str) -> Optional[str]:
    """HEAD's commit read from ``.git`` without running git (the benchmark
    also runs from exported trees, which have no ``.git``)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = os.path.join(root, ".git", ref[5:])
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        return None
    return None


def host_block(root: str) -> dict:
    """Host facts at the start of a run (``load_after`` is filled later)."""
    import numpy as np

    blas = _blas_info()
    return {
        "nproc": os.cpu_count(),
        "load_before": _load_avg(),
        "load_after": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas["vendor"],
        "blas_version": blas["version"],
        "blas_threads": _openblas_threads(),
        "thread_env": {key: os.environ.get(key) for key in _THREAD_ENV},
        "git_revision": _git_revision(root),
    }


def finish_host_block(block: dict) -> dict:
    block["load_after"] = _load_avg()
    return block

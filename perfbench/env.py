"""Process set-up shared by the benchmark scripts: BLAS threads, sources, provenance.

`pin_blas_threads` must run before numpy is imported anywhere in the process,
because OpenBLAS reads its thread count once, when it is loaded.
"""

import ctypes
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Fix the BLAS thread count of this process to one.

    strandseg is single-threaded Python around small matrix products. On a
    2-core machine a second BLAS thread gave no clear gain on any workload
    and doubled the CPU time, which it spends spinning. One thread is at
    most `nproc` on every machine and keeps timings from depending on how
    busy the other core is.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def add_sources() -> None:
    """Import strandseg from this checkout's `src/`; raise if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "strandseg", "__init__.py")):
        raise FileNotFoundError(f"no strandseg package under {SRC}")
    sys.path.insert(0, SRC)
    import strandseg

    if not os.path.abspath(strandseg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"strandseg was imported from {strandseg.__file__}, not {SRC}")


def _openblas():
    """(library path, CDLL) of the OpenBLAS numpy loaded, or (None, None)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        if path.startswith("/"):
            return path, ctypes.CDLL(path)
    return None, None


def _openblas_call(lib, stem, restype):
    # numpy's wheels rename the symbols (scipy_openblas_*64_); system
    # builds keep the plain openblas_* names.
    for name in (f"openblas_{stem}", f"scipy_openblas_{stem}64_", f"openblas_{stem}64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def provenance() -> dict:
    """Versions and BLAS state of this process; call after numpy is imported."""
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "machine": platform.machine(),
        "openblas": None,
        "blas_coretype": None,
        "blas_threads": None,
    }
    path, lib = _openblas()
    if lib is not None:
        config = _openblas_call(lib, "get_config", ctypes.c_char_p)
        core = _openblas_call(lib, "get_corename", ctypes.c_char_p)
        info["openblas"] = config.decode() if config else os.path.basename(path)
        info["blas_coretype"] = core.decode() if core else None
        info["blas_threads"] = _openblas_call(lib, "get_num_threads", ctypes.c_int)
    return info

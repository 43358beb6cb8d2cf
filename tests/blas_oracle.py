"""The tests' own OpenBLAS pool lookup: the oracle for the executors'
one-BLAS-thread scope, independent of ``repro.pipeline.executor``'s."""

from __future__ import annotations

import ctypes


def openblas_num_threads(verb):
    """OpenBLAS's ``{verb}_num_threads`` (``verb`` is ``"get"`` or ``"set"``)
    in the library this process loaded, or ``None`` without ``/proc``,
    OpenBLAS or the symbol."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes = [] if verb == "get" else [ctypes.c_int]
                    fn.restype = ctypes.c_int if verb == "get" else None
                    return fn
    return None

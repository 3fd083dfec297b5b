"""OpenBLAS thread-count controls.

Dense and sparse kernels split their work by the OpenBLAS thread count,
and a different split sums in a different order, so a result can differ
in its last bits between thread counts.  Code whose float must not depend
on the machine's core count or OPENBLAS_NUM_THREADS runs inside
single_blas_thread().
"""

import ctypes
from contextlib import contextmanager
from functools import cache


# one scan per process: the first call comes after numpy's and scipy's
# OpenBLAS are loaded (importing fracmom loads both), and a forked worker
# inherits the same mappings, so its copied handles stay valid
@cache
def openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS loaded here.

    Empty where /proc/self/maps does not exist or no loaded build exports
    the scipy-openblas thread functions.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:   # e.g. a mapping whose file was deleted
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextmanager
def single_blas_thread():
    """One OpenBLAS thread in this process inside the block.

    The caller's thread counts come back on exit, also when the block
    raises.  Used while a process pool forks (its workers inherit one
    thread) and around the ground-energy solve (its float is then the
    same on every core count).
    """
    controls = openblas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, counts):
            put(n)

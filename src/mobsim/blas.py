"""The OpenBLAS thread count of this process, set at run time.

The model's products are small (widths of tens, N rows), so a second BLAS
thread saves little.  It also costs much: between calls it spins on a core,
and while the OS keeps it on the main thread's core each threaded product
waits a scheduler slice.  That made wide-map ``generate`` run about 3x
slower for the first seconds of some processes, and a sampling pass that
runs on two threads of its own about 1.4x slower.  Results do not depend on
the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools


@functools.cache
def _thread_calls():
    """(get, set) of the OpenBLAS thread count of the library this process
    loaded, or None when none is loaded or it is not found.  NumPy's bundled
    build exports them as ``scipy_openblas_*_num_threads64_``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("", ""), ("scipy_", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def one_thread():
    """Run OpenBLAS on one thread inside the block, then restore its count."""
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)

"""Process settings made at run time: the OpenBLAS thread count and the
heap thresholds of glibc's allocator.

The model's products are small (widths of tens, N rows), so a second BLAS
thread saves little.  It also costs much: between calls it spins on a core,
and while the OS keeps it on the main thread's core each threaded product
waits a scheduler slice.  That made wide-map ``generate`` run about 3x
slower for the first seconds of some processes, and a sampling pass that
runs on two threads of its own about 1.4x slower.  Results do not depend on
the thread count.

glibc serves a block above its mmap threshold by a fresh ``mmap``, and its
default threshold rises to the largest such block freed so far, with the
trim threshold at twice that.  The heap a command works on then depends on
the largest temporary of the commands the process ran before: a training
step that runs after small temporaries maps and faults in its (rows, N)
arrays anew on every step.  Fixed thresholds keep that heap the same in
every process.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

# glibc's mallopt parameters, and the values fix_heap_thresholds sets.  A
# larger mmap threshold (32 MiB, trim at 64 MiB) raised the peak RSS of one
# population benchmark repetition from 78.6 to 84.2 MB.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 8 << 20
_TRIM_THRESHOLD_BYTES = 16 << 20


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


def fix_heap_thresholds():
    """Fix the allocator's mmap threshold at 8 MiB and its trim threshold at
    16 MiB; nothing happens where the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)

"""Tiny helper for optional process-level parallelism.

Results come back in input order regardless of worker scheduling, so outputs
are identical for any worker count as long as tasks are independently seeded.
The process pool is imported only when pmap forks, so a jobs=1 run never
loads it. Forked workers inherit the function and items from a module global:
only an index goes out and only a result comes back. Since neither is pickled,
fn may be a closure or a lambda over the caller's arrays, and an item needs to
carry only what differs between tasks. Each worker sets its OpenBLAS to one
thread, so N workers run N BLAS threads.
"""
import ctypes
import os

_TASK = None  # (fn, items) of the running pmap; forked workers inherit it


def blas_function(*names):
    """The first of names exported by an OpenBLAS already mapped into this process, or None.

    Found in /proc/self/maps (Linux) and opened with RTLD_NOLOAD: nothing is loaded.
    """
    try:
        with open("/proc/self/maps", "rb") as f:  # bytes: a mapped path need not be UTF-8
            paths = sorted({line.split(None, 5)[-1].strip() for line in f if b"openblas" in line})
        libs = [ctypes.CDLL(path, mode=os.RTLD_NOLOAD) for path in paths]
    except (OSError, AttributeError):
        return None
    return next((getattr(lib, n) for lib in libs for n in names if hasattr(lib, n)), None)


def _one_blas_thread():
    setter = blas_function("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _run(i):
    fn, items = _TASK
    return fn(items[i])


def pmap(fn, items, jobs=1):
    global _TASK
    items = list(items)
    if jobs is None or int(jobs) <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _TASK = (fn, items)
    try:
        with ProcessPoolExecutor(max_workers=min(int(jobs), len(items)),
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_one_blas_thread) as ex:
            return list(ex.map(_run, range(len(items))))
    finally:
        _TASK = None

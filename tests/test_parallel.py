import concurrent.futures

import pytest

from regrobust.parallel import blas_function, pmap


@pytest.fixture
def requested(monkeypatch):
    """Worker counts asked of ProcessPoolExecutor, which is replaced by an in-process fake."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None, initializer=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return asked


@pytest.mark.parametrize("n_items,jobs,workers", [(3, 64, 3), (5, 2, 2), (2, 2, 2)])
def test_workers_capped_by_task_count(requested, n_items, jobs, workers):
    items = [-k for k in range(n_items)]
    assert pmap(abs, items, jobs=jobs) == list(range(n_items))
    assert requested == [workers]


@pytest.mark.parametrize("n_items,jobs", [(5, 1), (1, 8), (0, 8)])
def test_serial_cases_start_no_pool(requested, n_items, jobs):
    assert pmap(abs, [-k for k in range(n_items)], jobs=jobs) == list(range(n_items))
    assert requested == []


class Unpicklable:
    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("pmap must not pickle its items")


def tenfold(item):
    return item.value * 10


def test_forked_workers_read_items_without_pickling():
    items = [Unpicklable(k) for k in range(3)]
    assert pmap(tenfold, items, jobs=2) == [0, 10, 20]


def test_each_forked_worker_runs_one_blas_thread():
    getter = blas_function("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
    if getter is None:
        pytest.skip("no OpenBLAS thread-count getter is loaded")
    assert pmap(lambda _: getter(), [0, 1], jobs=2) == [1, 1]

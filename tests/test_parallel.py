import concurrent.futures

import pytest

from regrobust.parallel import pmap


@pytest.fixture
def requested(monkeypatch):
    """Worker counts asked of ProcessPoolExecutor, which is replaced by an in-process fake."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
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

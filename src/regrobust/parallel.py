"""Tiny helper for optional process-level parallelism.

Results come back in input order regardless of worker scheduling, so outputs
are identical for any worker count as long as tasks are independently seeded.
The process pool is imported only when pmap forks, so a jobs=1 run never
loads it.
"""


def pmap(fn, items, jobs=1):
    items = list(items)
    if jobs is None or int(jobs) <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(int(jobs), len(items))) as ex:
        return list(ex.map(fn, items))

import pytest

from atomsampler import parallel
from atomsampler.parallel import parallel_map


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records the thread count asked for, starts none."""

    asked = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers,items,cpus,threads",
    [(10**6, 3, 2, 2), (10**6, 3, 64, 3), (4, 100, 64, 4), (10**6, 0, 2, 1), (10**6, 5, None, 1)],
)
def test_the_pool_has_at_most_one_thread_per_worker_item_and_cpu(
    monkeypatch, workers, items, cpus, threads
):
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "asked", [])
    assert parallel_map(abs, [-k for k in range(items)], workers) == list(range(items))
    assert _RecordingPool.asked == [threads]

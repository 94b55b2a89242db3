"""Deterministic seed splitting and a thread pool.

Every stochastic routine in this package takes a single root seed and derives
per-task seeds with ``numpy.random.SeedSequence.spawn``, always in the same
order.  Worker counts only control concurrency, never the task partition, so
results are bit-identical for any number of workers.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import check_count


def spawn_seeds(seed, count):
    """Derive `count` child seed sequences from a root seed, in fixed order."""
    check_count("seed count", count, 0)
    return np.random.SeedSequence(seed).spawn(count)


def parallel_map(fn, items, workers):
    """Map `fn` over the sized `items` on a thread pool, results in input order.

    The pool has `workers` threads, but no more than there are items or CPUs,
    and at least one.
    """
    check_count("workers", workers, 1)
    with ThreadPoolExecutor(max(1, min(workers, len(items), os.cpu_count() or 1))) as pool:
        return list(pool.map(fn, items))

"""Deterministic seed splitting and a thread pool that no routine runs.

`spawn_seeds` derives child seed sequences from one root seed with
``numpy.random.SeedSequence.spawn``, always in the same order; the `sample`
command splits its seed into the unitary's and the draw's this way.  The
library's stochastic routines seed numpy themselves: `hom_monte_carlo`,
`haar_random_unitary` and `draw_samples` pass their seed to
``numpy.random.default_rng``.  No routine of the package calls
`parallel_map`; it stays because `bench/spans.py` traces it by name.
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

"""Deterministic replicate execution.

Replicate i of a simulation always draws from a generator seeded by
(master seed, i), so the result set is a pure function of the master
seed no matter how many workers run the loop.  Aggregation happens by
replicate index, never by completion order.

The worker count is capped by the CURSTAT_THREADS environment variable
and by the CPU count; unset or invalid values fall back to a small
default.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["thread_count", "child_rng", "replicate_map"]


def thread_count() -> int:
    raw = os.environ.get("CURSTAT_THREADS", "")
    try:
        k = int(raw)
    except ValueError:
        k = 0
    return min(k if k >= 1 else 4, os.cpu_count() or 1)


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` under ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, index]))


def replicate_map(fn, count: int, master_seed: int) -> list:
    """Run ``fn(i, rng)`` for i in range(count), in replicate order.

    Each call gets its own child generator; results are returned
    indexed by i regardless of scheduling.
    """
    workers = thread_count()
    if workers == 1 or count <= 1:
        return [fn(i, child_rng(master_seed, i)) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(lambda i: fn(i, child_rng(master_seed, i)), range(count)))

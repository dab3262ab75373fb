"""Deterministic replicate execution.

Replicate i of a simulation always draws from a generator seeded by
(master seed, i), so the result set is a pure function of the master
seed.  The replicates run one after another in the calling thread, in
index order: their bodies hold the interpreter lock, so a thread pool
only added overhead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["thread_count", "child_rng", "replicate_map"]


def thread_count() -> int:
    """Always 1.  The benchmark (``bench/run.py``) is its only reader; a
    later benchmark change (ROADMAP item 1) can drop it, with the thread
    variable ``bench/run.py`` still sets, which nothing reads, and the
    text about it in ``bench/README.md``."""
    return 1


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` under ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, index]))


def replicate_map(fn, count: int, master_seed: int) -> list:
    """``[fn(i, rng_i) for i in range(count)]`` in the calling thread,
    where ``rng_i`` is the child generator of replicate i."""
    return [fn(i, child_rng(master_seed, i)) for i in range(count)]

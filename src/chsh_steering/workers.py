"""The process-wide thread pool that the Monte Carlo samples on.

``monte_carlo_correlations`` splits its work into at most ``THREADS`` tasks
that call only NumPy, which releases the interpreter lock, and private
helpers, never a public function of the package. Results never depend on the
scheduling: the caller combines its tasks' results in a fixed order with
exact operations. The state scan needs no pool: it reads only the few grid
points near a convex hull, on the calling thread.
"""

from __future__ import annotations

import os
import threading


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads of the pool, and the tasks a caller splits its work into: one per
# core in this process's CPU affinity, at most four.
THREADS = min(4, _usable_cores())

_POOL = None
_POOL_LOCK = threading.Lock()


def pool():
    """The shared ``ThreadPoolExecutor``, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Imported here: it would add several ms to every CLI start-up.
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(max_workers=THREADS,
                                       thread_name_prefix="chsh-worker")
        return _POOL


def _forget_pool() -> None:
    """Drop the parent's pool in a forked child, which inherits the executor
    but none of its threads, so its first task would wait forever."""
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)

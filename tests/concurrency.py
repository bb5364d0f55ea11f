"""Run calls on concurrent threads, for the tests that check a result does
not depend on how the calls interleave."""

from __future__ import annotations

import sys
import threading


def run_concurrently(calls):
    """Results of ``calls``, (function, args) pairs, each on its own thread,
    switching threads often."""
    results = {}

    def call(index):
        fn, args = calls[index]
        results[index] = fn(*args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(calls))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return [results.get(i) for i in range(len(calls))]

"""The one process-wide pool that the Monte Carlo samples on: concurrent
callers, a forked child, and which thread runs what; and concurrent state
scans, which run on their caller's thread."""

import importlib
import inspect
import multiprocessing
import pkgutil
import queue
import sys
import threading
import warnings

import numpy as np
import pytest

import chsh_steering
from chsh_steering import homodyne_experiment, violation_search, workers
from chsh_steering.homodyne_experiment import (
    SinglePhotonState,
    monte_carlo_correlations,
    state_density,
)
from chsh_steering.violation_search import state_scan

STATE = SinglePhotonState(np.deg2rad(22.5), 0.9)


def _mc(seed):
    return monte_carlo_correlations(STATE, 0.85, 0.7, 3000, seed=seed)


def _scan(p1, resolution=24):
    best, value, coarse = state_scan(state_density(SinglePhotonState(0.3, p1)),
                                     bloch_resolution=resolution)
    return best, value, coarse.tobytes()


def _run_concurrently(calls):
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


def test_concurrent_callers_share_the_pool(monkeypatch):
    # More callers than cores, all on the one process-wide pool: each must
    # get the result of a lone call.
    monkeypatch.setattr(workers, "THREADS", max(2, workers.THREADS))
    calls = [(_mc, (seed,)) for seed in range(8)]
    assert _run_concurrently(calls) == [fn(*args) for fn, args in calls]


def test_concurrent_state_scans():
    # Eight scans at once, each of which prunes its own candidate columns:
    # full rank (hull rule) and p1 = 0, a rank-1 block (segment rule).
    calls = [(_scan, (p1, resolution)) for p1 in (0.9, 0.6, 1.0, 0.0)
             for resolution in (24, 33)]
    assert _run_concurrently(calls) == [fn(*args) for fn, args in calls]


def _both():
    return _mc(7), _scan(0.9)


def _child(results):
    results.put(_both())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="this platform cannot fork")
def test_forked_child_gets_a_pool_of_its_own():
    # The child inherits the parent's pool object but none of its threads;
    # without a fresh pool its first task would wait forever.
    expected = _both()
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=_child, args=(results,))
    with warnings.catch_warnings():
        # Newer Pythons warn that forking a threaded process may deadlock,
        # which is the case under test.
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    try:
        got = results.get(timeout=30)
    except queue.Empty:
        got = None
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got is not None, "the forked child did not finish within 30 s"
    assert got == expected
    assert child.exitcode == 0


def _public_functions():
    """(module, name, function) of every public function defined in a package
    module, for each package namespace that holds it under that name."""
    modules = [chsh_steering] + [importlib.import_module(f"chsh_steering.{info.name}")
                                 for info in pkgutil.iter_modules(chsh_steering.__path__)]
    for home in modules[1:]:
        for name, fn in vars(home).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == home.__name__):
                for module in modules:
                    if vars(module).get(name) is fn:
                        yield module, name, fn


def test_no_public_function_runs_on_a_pool_thread(monkeypatch):
    # A benchmark tracer that wraps public functions keeps one span stack,
    # which a call from a pool thread would corrupt.
    monkeypatch.setattr(workers, "THREADS", max(2, workers.THREADS))
    records = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            records.append((fn.__qualname__, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for module, name, fn in list(_public_functions()):
        monkeypatch.setattr(module, name, recorded(fn))
    # Called through their modules, where the wrappers sit.
    violation_search.state_scan(state_density(STATE), bloch_resolution=24)
    homodyne_experiment.monte_carlo_correlations(STATE, 0.85, 0.7, 3000, seed=11)
    caller = threading.current_thread()
    assert {"state_scan", "monte_carlo_correlations", "pool"} <= {n for n, _ in records}
    assert [n for n, thread in records if thread is not caller] == []

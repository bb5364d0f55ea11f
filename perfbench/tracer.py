"""Spans around the calls into each module of the package, from outside it.

``Tracer.installed()`` rebinds every public function of each layer module,
in every package namespace that holds it under the same name, to a wrapper
that records a span, and puts the originals back on exit. No program file
changes. A span records its name, layer, start, end, parent span and the
command it belongs to. The two kernels of ``_accel`` are traced as parts of
the layers that own them, and are skipped with a note when that module or
attribute is absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "chsh_steering"
LAYERS = ("cli", "correlation_model", "steering_witness", "lhs_oracle", "simplex",
          "homodyne_experiment", "violation_search", "qubit_core")
# Kernel attribute -> layer that owns it.
KERNELS = {"_accel.simplex_pivots": "simplex", "_accel.mc_products": "homodyne_experiment"}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    command: int
    name: str
    layer: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _count_points(tracer, bound, result):
    tracer.counters["points"] += len(bound.arguments["points"])
    tracer.counters["band_hits"] += sum(
        getattr(r, "verdict", None) == "boundary_band" for r in result)


def _count_samples(tracer, bound, result):
    tracer.counters["samples"] += 4 * int(bound.arguments["n_samples"])


# Counts taken at a boundary from the arguments and results of one call.
HOOKS = {
    "lhs_oracle.lp_membership_batch": _count_points,
    "homodyne_experiment.monte_carlo_correlations": _count_samples,
}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.notes: list[str] = []
        self.command = 0
        self._stack: list[int] = []

    def _wrap(self, fn, name, layer):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append(Span(sid, parent, self.command, name, layer, start, end))
            if hook:
                try:
                    hook(self, signature.bind(*args, **kwargs), result)
                except (KeyError, TypeError, AttributeError) as exc:
                    self.notes.append(f"counter at {name} skipped: {exc!r}")
            return result

        return traced

    def _targets(self):
        """(module, attribute, function, span name, layer) for every boundary."""
        targets = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError as exc:
                self.notes.append(f"layer {layer} skipped: {exc}")
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets.append((module, attr, obj, f"{layer}.{attr}", layer))
        for qualified, layer in KERNELS.items():
            mod_name, attr = qualified.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.notes.append(f"span {qualified} skipped: module {PACKAGE}.{mod_name} not found")
                continue
            if not callable(getattr(module, attr, None)):
                self.notes.append(f"span {qualified} skipped: attribute not found")
                continue
            targets.append((module, attr, getattr(module, attr), qualified, layer))
        return targets

    def install(self):
        """Wrap every boundary; returns what ``uninstall`` needs to undo it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        saved = []
        for home, attr, fn, name, layer in self._targets():
            wrapped = self._wrap(fn, name, layer)
            for module in modules:
                if vars(module).get(attr) is fn:
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrapped)
        return saved

    @staticmethod
    def uninstall(saved):
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns).

    Spans come from one thread, so children of one parent never overlap.
    """
    own = {s.sid: s.duration_ns for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration_ns
    return own


def layer_self_ns(spans) -> dict[str, int]:
    """Layer -> summed self time of its spans (ns)."""
    own = self_times(spans)
    total = defaultdict(int)
    for s in spans:
        total[s.layer] += own[s.sid]
    return total


def entry_spans(spans, layer):
    """Spans where control enters ``layer`` from another layer or the caller."""
    by_id = {s.sid: s for s in spans}
    return [s for s in spans if s.layer == layer
            and (s.parent is None or by_id[s.parent].layer != layer)]

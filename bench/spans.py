"""Span wrappers around domlab's public functions, installed from outside.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper in every ``domlab`` namespace that bound it, so a call made through
``domlab.gamma_bb``, ``domlab.harness.gamma_bb`` or the defining module's own
global all open a span.  Spans nest on a stack; when one closes, its duration
is charged to its parent's child time, so self time is the span's duration
minus the time covered by its child spans.  Spans are folded into per-name
totals as they close, which keeps memory flat however many calls a run makes.

`Tracer.remove()` restores the original functions; untraced runs never call
`install()`, so they run the library unmodified.  Each installation records
into a named phase (set-up or operations), so shares of the timed work can
leave set-up out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time

TRACED_MODULES = ("graphs", "solver", "trace", "harness", "graph6")


class _Stats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Per-name call counts, self time and layer counters for one traced run."""

    def __init__(self) -> None:
        self.phases: dict[str, dict[str, _Stats]] = {}
        # Counters that need a call's arguments or result.
        self.counters: dict[str, float] = {
            "solver.gamma_bb.repeats": 0,
            "solver.enumerate_minimum_dominating_sets.found": 0,
            "solver.enumerate_minimum_dominating_sets.subsets": 0,
            "graphs.product_vertices": 0,
            "harness.remark_search.examined": 0,
        }
        self._solved: set[tuple[int, tuple[int, ...]]] = set()
        self._stack: list[list[int]] = []  # [child_ns] per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _observe(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "solver.gamma_bb":
            g = args[0]
            key = (g.n, g.adj)
            if key in self._solved:
                c["solver.gamma_bb.repeats"] += 1
            else:
                self._solved.add(key)
        elif name == "solver.enumerate_minimum_dominating_sets":
            c["solver.enumerate_minimum_dominating_sets.found"] += len(result.sets)
            c["solver.enumerate_minimum_dominating_sets.subsets"] += math.comb(
                args[0].n, result.gamma
            )
        elif name == "graphs.cartesian_product":
            c["graphs.product_vertices"] += result.graph.n
        elif name == "harness.remark_search":
            c["harness.remark_search.examined"] += result.count_min_sets

    def _wrap(self, name: str, fn, phase: dict[str, _Stats]):
        stats = phase.setdefault(name, _Stats())
        stack = self._stack
        clock = time.perf_counter_ns
        observe = self._observe

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_ns += dur
                stats.self_ns += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            observe(name, args, result)
            return result

        return span

    def install(self, phase: str = "run") -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        stats = self.phases.setdefault(phase, {})
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"domlab.{short}"]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn, stats))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "domlab" or mod_name.startswith("domlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def active(self, phase: str = "run"):
        self.install(phase)
        try:
            yield self
        finally:
            self.remove()

    # -- results ----------------------------------------------------------

    def _stats(self, phase: str | None):
        phases = self.phases.values() if phase is None else [self.phases.get(phase, {})]
        for stats in phases:
            yield from stats.items()

    def calls(self, name: str, phase: str | None = None) -> int:
        """Calls of `name` in `phase`, or in every phase when it is None."""
        return sum(s.calls for n, s in self._stats(phase) if n == name)

    def self_s(self, name: str, phase: str | None = None) -> float:
        return sum(s.self_ns for n, s in self._stats(phase) if n == name) / 1e9

    def total_self_s(self, phase: str | None = None, prefix: str = "") -> float:
        """Self time of every span whose name starts with `prefix`."""
        return sum(s.self_ns for n, s in self._stats(phase) if n.startswith(prefix)) / 1e9

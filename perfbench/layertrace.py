"""Spans around the calls into each numasim layer, patched in from outside.

`install` replaces each traced function with a wrapper at every place numasim
binds it: the defining module, every module that imported it by name, and
the class for methods.  Wrapping only the defining module would miss, for
example, the engine's own `access_latency` binding.

Calls of `engine.step` and anything coarser keep one span each (name, start,
end, parent span).  Finer calls run up to a million times per simulation, so
they are aggregated per (name, parent name) into calls, total and self time,
and the trace's memory does not grow with the call count.  Self time is a
span's duration minus the time its traced children took.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

COARSE = frozenset({"cli.scenario_from_dict", "engine.run", "engine.step",
                    "metrics.finalize", "metrics.to_json"})

MUTATIONS = ("map_page", "unmap_page", "protect_range", "set_access_hint",
             "clear_access_hint", "set_frame_node")

SCHED_FUNCTIONS = ("place_thread", "rebalance", "phoenix_evaluate",
                   "autonuma_step")


class Tracer:
    """Spans and aggregated calls recorded by the wrappers `wrap` makes."""

    def __init__(self):
        # spans: [name, start, end, parent index or -1, self seconds]
        self.spans: List[list] = []
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.calls: Dict[Tuple[str, Optional[str]], list] = {}
        self.counters: Dict[str, int] = defaultdict(int)
        # every span name a wrapper was made for, in the order install made them
        self.names: Dict[str, None] = {}
        # frames: [name, child seconds, span index or -1]
        self._stack: List[list] = []

    def reset(self) -> None:
        """Forget everything recorded; wrappers already made, and their names,
        stay valid."""
        self.spans.clear()
        self.calls.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        """A stand-in for fn that records each call, then runs after(args, result)."""
        self.names[name] = None
        stack, spans, calls = self._stack, self.spans, self.calls
        clock = time.perf_counter
        coarse = name in COARSE

        def traced(*args, **kwargs):
            index = -1
            if coarse:
                index = len(spans)
                parent = stack[-1][2] if stack else -1
                spans.append([name, 0.0, 0.0, parent, 0.0])
            frame = [name, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if coarse:
                    span = spans[index]
                    span[1], span[2], span[4] = start, end, own
                else:
                    key = (name, stack[-1][0] if stack else None)
                    entry = calls.get(key)
                    if entry is None:
                        calls[key] = [1, duration, own]
                    else:
                        entry[0] += 1
                        entry[1] += duration
                        entry[2] += own
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- summaries ------------------------------------------------------------

    def call_count(self, name: str) -> int:
        count = sum(e[0] for (n, _), e in self.calls.items() if n == name)
        return count + sum(1 for s in self.spans if s[0] == name)

    def self_seconds(self, name: str) -> float:
        total = sum(e[2] for (n, _), e in self.calls.items() if n == name)
        return total + sum(s[4] for s in self.spans if s[0] == name)

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def _bindings(original: Callable) -> List[Tuple[object, str]]:
    """Every (numasim module, attribute) that holds original."""
    return [(module, attr)
            for name, module in list(sys.modules.items())
            if name == "numasim" or name.startswith("numasim.")
            for attr, value in list(vars(module).items()) if value is original]


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch numasim so its layer calls report to tracer; returns the undo.

    Raises RuntimeError if a traced name has no binding, so a renamed
    function fails the traced run instead of dropping out of the trace.
    """
    from numasim import cli, engine, metrics, mmu, pagetable, sched, topology
    from numasim import workload

    counters = tracer.counters

    def count_events(args, result):
        counters["events_generated"] += len(result)

    def count_targets(args, result):
        counters["shootdown_targets"] += len(args[3])

    def count_writes(args, result):
        counters["replica_writes"] += result.writes_performed

    def sample_backlog(args, result):
        backlog = sum(len(t.backlog) for t in args[0].tasks)
        if backlog > counters["backlog_max"]:
            counters["backlog_max"] = backlog

    patched: List[Tuple[object, str, Callable]] = []

    def patch(owner, attr, wrapper):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def function(module, attr, name, after=None):
        original = getattr(module, attr, None)
        bindings = _bindings(original) if original is not None else []
        if not bindings:
            raise RuntimeError(f"no binding of {module.__name__}.{attr} to patch")
        wrapper = tracer.wrap(original, name, after)
        for owner, bound_as in bindings:
            patch(owner, bound_as, wrapper)

    def method(cls, attr, name, after=None):
        if attr not in cls.__dict__:
            raise RuntimeError(f"no method {cls.__name__}.{attr} to patch")
        patch(cls, attr, tracer.wrap(cls.__dict__[attr], name, after))

    function(cli, "scenario_from_dict", "cli.scenario_from_dict")
    function(workload, "generate_quantum_events", "workload.generate",
             count_events)
    method(engine.Simulation, "run", "engine.run")
    method(engine.Simulation, "step", "engine.step", sample_backlog)
    function(engine, "compute_contention", "engine.compute_contention")
    function(topology, "access_latency", "topology.access_latency")
    method(mmu.Mmu, "tlb_lookup", "mmu.tlb_lookup")
    method(mmu.Mmu, "page_walk", "mmu.page_walk")
    method(mmu.Mmu, "tlb_shootdown", "mmu.tlb_shootdown", count_targets)
    function(pagetable, "translate", "pagetable.translate")
    method(pagetable.AddressSpace, "lookup", "pagetable.lookup")
    for attr in MUTATIONS:
        function(pagetable, attr, "pagetable.mutate", count_writes)
    function(pagetable, "add_replica", "pagetable.add_replica")
    function(pagetable, "migrate_tables", "pagetable.migrate_tables")
    for attr in SCHED_FUNCTIONS:
        function(sched, attr, f"sched.{attr}")
    function(metrics, "finalize", "metrics.finalize")
    method(metrics.MetricsReport, "to_json", "metrics.to_json")

    def uninstall() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
    return uninstall

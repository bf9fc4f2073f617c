"""Spans around calls into the program's layers, for the traced run.

The tracer wraps public entry points of the program's modules from the
outside (the program itself is unchanged), keeps every span in memory and
folds them into the per-layer metrics when the run ends.  A span records
its name, start, end, parent span and the benchmark operation it belongs
to.  Functions imported by name into other modules are replaced in every
loaded ``repro`` module that holds them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span categories whose outermost spans count as engine work, not self time
ENGINE_WORK = ("generate", "select", "validate", "repair")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "cat")

    def __init__(self, name: str, cat: str, parent: Optional[int], op: int):
        self.name = name
        self.cat = cat
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.sums: Dict[str, float] = defaultdict(float)
        #: current benchmark operation; 0 between operations, when spans
        #: and counts are not kept
        self.op = 0
        self._ops = 0
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def next_op(self) -> None:
        self._ops += 1
        self.op = self._ops

    def idle(self) -> None:
        self.op = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, cat: str, fn: Callable, *args, **kwargs):
        if not self.op:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = Span(name, cat, stack[-1] if stack else None, self.op)
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # -- installation --------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str, cat: str,
                    after: Optional[Callable] = None,
                    before: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            token = before(obj) if before is not None else None
            result = tracer.call(name, cat, original, obj, *args, **kwargs)
            if after is not None:
                after(obj, result, token)
            return result

        self._set(cls, attr, wrapper)

    def count_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        counts = self.counts
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.op:
                counts[name] += 1
            return original(*args, **kwargs)

        self._set(cls, attr, wrapper)

    def wrap_function(self, module: str, attr: str, name: str, cat: str,
                      after: Optional[Callable] = None) -> None:
        original = getattr(importlib.import_module(module), attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, cat, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        for modname, mod in list(sys.modules.items()):
            if modname == "repro" or modname.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- folding -------------------------------------------------------
    def outermost(self, cats: Tuple[str, ...], within: Optional[int] = None) -> List[Span]:
        """Spans of ``cats`` with no ancestor of ``cats`` (optionally only
        those under span index ``within``)."""
        found = []
        for span in self.spans:
            if span.cat not in cats:
                continue
            parent = span.parent
            inside = within is None
            shadowed = False
            while parent is not None:
                if parent == within:
                    inside = True
                if self.spans[parent].cat in cats:
                    shadowed = True
                    break
                parent = self.spans[parent].parent
            if inside and not shadowed:
                found.append(span)
        return found

    def total(self, cats: Tuple[str, ...]) -> float:
        return sum(s.end - s.start for s in self.outermost(cats))

    def calls(self, cats: Tuple[str, ...]) -> int:
        return len(self.outermost(cats))

    def engine_self(self) -> float:
        """Query time outside the generate/select/validate/repair spans."""
        total = 0.0
        for index, span in enumerate(self.spans):
            if span.cat != "query":
                continue
            work = sum(s.end - s.start for s in self.outermost(ENGINE_WORK, within=index))
            total += (span.end - span.start) - work
        return total


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points."""
    import repro.algorithms  # noqa: F401  (load every module that imports
    import repro.core.api  # noqa: F401    the wrapped functions by name)
    import repro.engine.schedule as schedule
    from repro.core.api import InfluenceMaximizer
    from repro.coverage.backend import ExactBackend
    from repro.engine.session import QuerySession
    from repro.engine.shards import ShardedPoolView, ShardedRRBank
    from repro.graphs.csr import CSRGraph
    from repro.observability.registry import MetricsRegistry
    from repro.rrsets.bank import RRBank
    from repro.rrsets.collection import RRCollection, RRPrefixView
    from repro.rrsets.shardpool import ShardPool
    from repro.runtime.control import RunControl

    sums = tracer.sums

    def gen_before(bank):
        c = bank.generator.counters
        return c.sets_generated, c.edges_examined, c.nodes_added

    def gen_after(bank, _result, token):
        c = bank.generator.counters
        sums["generated_sets"] += c.sets_generated - token[0]
        sums["generated_edges"] += c.edges_examined - token[1]
        sums["generated_nodes"] += c.nodes_added - token[2]
        if isinstance(bank, RRBank):
            sums["pool_bytes_max"] = max(sums["pool_bytes_max"], bank.nbytes())

    def repair_after(_bank, stats, _token):
        sums["sets_repaired"] += stats["num_dirty"]

    for cls in (RRBank, ShardedRRBank):
        tracer.wrap_method(cls, "ensure", "rrsets.ensure", "generate",
                           before=gen_before, after=gen_after)
        tracer.wrap_method(cls, "repair", "rrsets.repair", "repair",
                           after=repair_after)

    tracer.wrap_function("repro.coverage.greedy", "max_coverage_greedy",
                         "coverage.greedy", "select")
    tracer.wrap_function("repro.coverage.sharded", "sharded_max_coverage_greedy",
                         "coverage.sharded_greedy", "select")
    tracer.wrap_method(ExactBackend, "max_coverage", "coverage.max_coverage", "select")
    tracer.wrap_method(ExactBackend, "celf", "coverage.celf", "select")
    tracer.wrap_method(ExactBackend, "coverage", "coverage.coverage", "validate")
    for cls in (RRCollection, RRPrefixView, ShardedPoolView):
        tracer.wrap_method(cls, "coverage", "coverage.pool_coverage", "validate")

    def rounds_after(outcome):
        sums["rounds"] += outcome.rounds

    tracer.wrap_function(schedule.__name__, "run_doubling", "engine.doubling",
                         "engine", after=rounds_after)
    tracer.wrap_method(QuerySession, "maximize", "engine.maximize", "query")
    tracer.wrap_method(InfluenceMaximizer, "maximize", "engine.maximize", "query")
    tracer.wrap_method(CSRGraph, "apply_delta", "graphs.apply_delta", "graph")

    for fn in ("build_uniform_arrays", "build_sorted_segments", "build_lt_alias_tables"):
        tracer.wrap_function("repro.sampling.precompute", fn,
                             "sampling.precompute", "precompute")

    for attr in ("generate", "generate_async", "adopt", "reset_role", "apply_delta",
                 "repair", "spill", "stats", "coverage_counts", "coverage",
                 "per_set_sums", "sketch_registers", "select_begin", "select_mark",
                 "select_uncovered", "select_covered", "select_end"):
        tracer.wrap_method(ShardPool, attr, "rrsets.shard_command", "shard")

    tracer.count_method(RunControl, "on_rr_complete", "runtime.rr_complete_calls")
    tracer.count_method(MetricsRegistry, "inc", "observability.inc_calls")

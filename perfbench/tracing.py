"""In-memory span tracing of the layers a packet passes through.

The tracer never edits the program: :meth:`Tracer.install` rebinds each
layer's public entry point (a module attribute or a class method) to a thin
wrapper that records a span, and :meth:`Tracer.restore` puts every original
object back.  Spans carry a name, a start and end time, the index of the
span that was open on the same thread when they began (their parent) and
the thread they ran on.  A layer's self time is its spans' duration minus
the part covered by their child spans.

Which entry point feeds which layer is the table :data:`LAYER_ENTRY_POINTS`;
an entry point the program no longer has is reported by name and its layer
simply records nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``(span name, module, attribute path, kind)``.  ``kind`` is ``"call"`` for
#: a plain call, ``"iter"`` for a function returning an iterator (one span
#: per item drawn from it) and ``"bytes"`` for a pipe read whose size is
#: counted while an ``ipc.fetch`` span is open (no span of its own).
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    # source: the trace batch iterator and the consumer side of the ring
    ("source.read", "repro.api.session", "trace_key_batches", "iter"),
    ("source.wait", "repro.core.ingest", "RingBufferIngest.__next__", "call"),
    # draw + mask + aggregate
    ("batch.update", "repro.core.rhhh", "RHHH.update_batch", "call"),
    ("batch.group", "repro.core.rhhh", "group_by_node", "call"),
    ("batch.aggregate", "repro.core.batch", "aggregated_arrays", "call"),
    ("batch.aggregate", "repro.core.batch", "unique_key_array", "call"),
    # per-node counters (self time of feed_counter = counter work)
    ("counter.feed", "repro.core.rhhh", "feed_counter", "call"),
    # routing and IPC of the shard pool
    ("shard.update", "repro.core.shard", "ShardedHHH.update_batch", "call"),
    ("routing", "repro.core.shard", "shard_assignments", "call"),
    ("ipc.send", "repro.core.supervise", "ShardSupervisor.send_update", "call"),
    ("ipc.ack_wait", "repro.core.supervise", "ShardSupervisor.collect_acks", "call"),
    ("ipc.fetch", "repro.core.supervise", "ShardSupervisor.merge_states", "call"),
    ("ipc.state_bytes", "multiprocessing.connection", "Connection._recv_bytes", "bytes"),
    # counter merges (every backend that implements its own merge)
    ("merge", "repro.hh.space_saving", "SpaceSaving.merge", "call"),
    ("merge", "repro.hh.array_space_saving", "ArraySpaceSaving.merge", "call"),
    ("merge", "repro.hh.misra_gries", "MisraGries.merge", "call"),
    ("merge", "repro.hh.count_min", "CountMinSketch.merge", "call"),
    ("merge", "repro.hh.count_sketch", "CountSketch.merge", "call"),
    # queries: the engine's output() and the lattice Output pass inside it
    ("query", "repro.core.rhhh", "RHHH.output", "call"),
    ("query", "repro.core.shard", "ShardedHHH.output", "call"),
    ("output", "repro.core.rhhh", "lattice_output", "call"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


class Tracer:
    """Records spans from wrapped layer entry points; restores them afterwards."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Counts recorded where the work happens, keyed by name.
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # span recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, threading.get_ident())
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def _wrap_call(self, name: str, function: Callable) -> Callable:
        observe = _OBSERVERS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _wrap_iter(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))

            def items():
                while True:
                    index = self._open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    self.counts[name + ".items"] += 1
                    yield item

            return items()

        return traced

    def _wrap_bytes(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def counted(*args, **kwargs):
            buffer = function(*args, **kwargs)
            stack = self._stack()
            if stack and self.spans[stack[-1]].name == "ipc.fetch":
                self.counts[name] += buffer.getbuffer().nbytes
            return buffer

        return counted

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #

    def install(self) -> "Tracer":
        """Rebind every entry point in :data:`LAYER_ENTRY_POINTS` to a traced wrapper."""
        for name, module_name, path, kind in LAYER_ENTRY_POINTS:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                if f"{module_name}.{path}" not in self.missing:
                    self.missing.append(f"{module_name}.{path}")
                continue
            wrap = {"call": self._wrap_call, "iter": self._wrap_iter, "bytes": self._wrap_bytes}[kind]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))
        return self

    def restore(self) -> None:
        """Put every original entry point back (in reverse install order)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``total`` (outermost spans only), ``self`` and ``calls``.

        A span nested inside another span of the same name (a backend merge
        calling its parent class's merge, a sharded query running the
        template's query) is counted only through its outermost ancestor.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        for index, span in enumerate(spans):
            duration = span.end - span.start
            row = table[span.name]
            row["self"] += duration - child_time[index]
            if not self._nested_in_same_name(index):
                row["total"] += duration
                row["calls"] += 1
        return dict(table)

    def _nested_in_same_name(self, index: int) -> bool:
        name = self.spans[index].name
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def root_time(self, thread: int) -> float:
        """Summed duration of the spans on ``thread`` that have no parent span."""
        return sum(
            span.end - span.start
            for span in self.spans
            if span.parent is None and span.thread == thread
        )

    def write(self, path) -> None:
        """Write every span as ``[name, start, end, parent, thread]`` rows plus the counts."""
        rows = [[s.name, s.start, s.end, s.parent, s.thread] for s in self.spans]
        counts = {
            name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in self.counts.items()
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "counts": counts, "missing": self.missing}, handle)


# --------------------------------------------------------------------------- #
# counts observed at the layer boundaries
# --------------------------------------------------------------------------- #


def _observe_aggregate(tracer: Tracer, args, result) -> None:
    totals = result[1]
    if totals is not None:
        tracer.counts["counter.keys"] += len(totals)


def _observe_routing(tracer: Tracer, args, result) -> None:
    if result is None:
        return
    per_shard = np.bincount(result, minlength=args[1] if len(args) > 1 else 0)
    key = "routing.per_shard"
    previous = tracer.counts.get(key)
    tracer.counts[key] = per_shard if previous is None else previous + per_shard


def _observe_output(tracer: Tracer, args, result) -> None:
    tracer.counts["output.candidates"] += len(result.candidates)


_OBSERVERS: Dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "batch.aggregate": _observe_aggregate,
    "routing": _observe_routing,
    "output": _observe_output,
}

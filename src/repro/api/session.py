"""The batch-first run protocol: one object owns the stream → output loop.

A :class:`Session` ties together the pieces an experiment needs - hierarchy,
algorithm, traffic source, feed strategy - behind one uniform interface.  It
subsumes the bespoke driver loops that used to live in ``eval/runner.py``,
``eval/speed.py``, ``eval/figures.py`` and the CLI:

* **one feed loop**: every feed path - :meth:`Session.run`,
  :meth:`Session.watch`, :meth:`Session.feed`, :meth:`Session.feed_batches`,
  :meth:`Session.feed_trace` and the batch branch of
  :meth:`Session.measure_speed` - drains the same generator over a *source*
  of key batches.  The key source slices ``keys[i : i + batch_size]`` (or
  ``progress_chunk`` on the per-packet path), so a Session batch run is
  bit-identical to the hand-written loop; the trace source re-chunks a
  streamed trace, skips a resumed prefix and optionally overlaps the reader
  through a ring buffer.  Each batch goes through ``update_batch`` on batch
  specs (``batch_size`` set) or per-packet ``update`` calls otherwise;
* **progress hooks**: called after every fed batch with the absolute stream
  position (a resumed prefix included) and the stream total;
* **measurement hooks**: called at caller-chosen stream positions
  (checkpoints), which is how the quality experiments evaluate one stream at
  several lengths in a single pass;
* **timing**: :meth:`Session.run` reports wall-clock feed time, and
  :meth:`Session.measure_speed` wraps the Figure 5 speed measurement with the
  feed strategy the spec selects.

Example::

    from repro.api import (
        DEFAULT_COUNTER, AlgorithmSpec, CounterSpec, ExperimentSpec, Session,
    )

    spec = ExperimentSpec(
        algorithm=AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=7,
                                counter=CounterSpec(name=DEFAULT_COUNTER)),
        hierarchy="2d-bytes", workload="chicago16",
        packets=200_000, theta=0.1, batch_size=65_536,
    )
    result = Session(spec).run()
    for candidate in result.output:
        print(candidate)
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.registry import build_algorithm, make_hierarchy
from repro.api.specs import ExperimentSpec
from repro.core.base import HHHAlgorithm, HHHOutput
from repro.core.checkpoint import (
    load_checkpoint,
    restore_algorithm,
    save_checkpoint,
    snapshot_algorithm,
)
from repro.core.ingest import RingBufferIngest, rechunk_batches
from repro.core.output import validate_theta
from repro.exceptions import CheckpointError, ConfigurationError, ConfigurationWarning
from repro.hierarchy.base import Hierarchy
from repro.traffic.caida_like import named_workload
from repro.traffic.trace_io import trace_key_array, trace_key_batches, trace_packet_count

#: Progress hook: ``hook(session, processed, total)`` after every fed chunk;
#: ``processed`` is the absolute stream position (a resumed prefix included).
ProgressHook = Callable[["Session", int, int], None]

#: Measurement hook: ``hook(session, processed) -> record`` at each checkpoint;
#: non-None records are collected into :attr:`SessionResult.measurements`.
MeasurementHook = Callable[["Session", int], Any]

Keys = Union[Sequence, np.ndarray]

#: Chunk size at which the per-packet feed path fires its progress hooks;
#: the batch path fires at ``batch_size`` granularity instead.  Overridable
#: per session via ``Session(..., progress_chunk=...)``.
PER_PACKET_PROGRESS_CHUNK = 65_536


@dataclass
class SessionResult:
    """The outcome of one :meth:`Session.run`.

    Attributes:
        spec: the experiment spec that produced the result.
        output: the final ``output(theta)`` report.
        packets: packets fed.
        seconds: wall-clock time of the feed loop (hooks excluded from the
            algorithm's work but included in the wall clock).
        measurements: records returned by measurement hooks, in firing order.
    """

    spec: ExperimentSpec
    output: HHHOutput
    packets: int
    seconds: float
    measurements: List[Any] = field(default_factory=list)

    @property
    def packets_per_second(self) -> float:
        """Feed throughput in packets per second."""
        return self.packets / self.seconds if self.seconds > 0 else float("inf")


class Session:
    """Owns one experiment: hierarchy, algorithm, traffic source, feed loop.

    Args:
        spec: the declarative experiment description.
        hierarchy: explicit hierarchy instance (defaults to building
            ``spec.hierarchy`` from the registry).
        algorithm: explicit algorithm instance (defaults to building
            ``spec.algorithm`` on the hierarchy) - the escape hatch for
            algorithms constructed outside the registry.
        keys: explicit key stream; when given, the named workload of the spec
            is never materialised and the stream is used verbatim (this is how
            the evaluation harness feeds every algorithm the same packets).
        progress_chunk: progress-hook granularity of the per-packet feed path
            (default :data:`PER_PACKET_PROGRESS_CHUNK`); batch runs fire at
            ``batch_size`` granularity regardless.
        checkpoint_every: override of ``spec.checkpoint_every`` - write a
            durable session checkpoint after roughly this many fed packets
            (the write lands on the next chunk boundary at or past the mark).
        checkpoint_path: override of ``spec.checkpoint_path`` - where the
            periodic checkpoint file lives; each write atomically replaces
            the previous one.
        fault_plan: optional :class:`~repro.core.faults.FaultPlan` threaded
            into the sharded worker pool (``kill``/``delay`` events), the
            trace reader (``trace_error``) and the ingest ring
            (``ingest_error``) - the deterministic fault-injection hook the
            recovery tests drive.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        hierarchy: Optional[Hierarchy] = None,
        algorithm: Optional[HHHAlgorithm] = None,
        keys: Optional[Keys] = None,
        progress_chunk: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        fault_plan=None,
    ) -> None:
        if not isinstance(spec, ExperimentSpec):
            raise ConfigurationError(f"spec must be an ExperimentSpec, got {type(spec).__name__}")
        if progress_chunk is not None and progress_chunk < 1:
            raise ConfigurationError(f"progress_chunk must be >= 1, got {progress_chunk}")
        self._spec = spec
        self._hierarchy = hierarchy if hierarchy is not None else make_hierarchy(spec.hierarchy)
        if algorithm is not None:
            self._algorithm = algorithm
        elif spec.distrib is not None:
            # Late import: the distrib package builds its switch sessions
            # through this module.
            from repro.distrib.cluster import DistributedCluster

            self._algorithm = DistributedCluster(
                spec, hierarchy=self._hierarchy, fault_plan=fault_plan
            )
        elif spec.shards is not None and spec.shards > 1:
            # Late import: repro.core.shard builds algorithms through this
            # package's registry.
            from repro.core.shard import ShardedHHH
            from repro.core.supervise import SupervisorPolicy

            if spec.batch_size is None and spec.shard_parallel:
                warnings.warn(
                    "shards > 1 without batch_size feeds the worker pool one "
                    "packet (one pipe round-trip) at a time - far slower than "
                    "an unsharded run; set batch_size to use the parallel "
                    "batch engine, or shard_parallel=False for in-process "
                    "shards",
                    ConfigurationWarning,
                    stacklevel=2,
                )

            self._algorithm = ShardedHHH(
                spec.algorithm,
                # Prefer the registry name (workers rebuild it by name, the
                # spawn-safe route); an explicitly passed hierarchy instance
                # is shipped to the workers by pickle.
                hierarchy if hierarchy is not None else spec.hierarchy,
                spec.shards,
                parallel=spec.shard_parallel,
                supervisor=SupervisorPolicy(
                    policy=spec.shard_policy, timeout=float(spec.shard_timeout)
                ),
                fault_plan=fault_plan,
            )
        else:
            self._algorithm = build_algorithm(spec.algorithm, self._hierarchy)
        self._keys = keys
        self._progress_chunk = (
            progress_chunk if progress_chunk is not None else PER_PACKET_PROGRESS_CHUNK
        )
        self._progress_hooks: List[ProgressHook] = []
        self._measurement_hooks: List[MeasurementHook] = []
        self._fault_plan = fault_plan
        self._checkpoint_every = (
            checkpoint_every if checkpoint_every is not None else spec.checkpoint_every
        )
        self._checkpoint_path = (
            str(checkpoint_path) if checkpoint_path is not None else spec.checkpoint_path
        )
        if self._checkpoint_every is not None:
            if (
                isinstance(self._checkpoint_every, bool)
                or not isinstance(self._checkpoint_every, int)
                or self._checkpoint_every < 1
            ):
                raise ConfigurationError(
                    f"checkpoint_every must be a positive int, got {self._checkpoint_every!r}"
                )
            if self._checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_every needs a checkpoint_path to write to"
                )
        #: Packets fed through the run protocol so far (absolute stream
        #: position, including any packets skipped by a resume).
        self._stream_position = 0
        #: Stream position recorded by the checkpoint this session resumed
        #: from; 0 for fresh sessions.
        self._resume_position = 0
        self._next_checkpoint = (
            self._checkpoint_every if self._checkpoint_every is not None else None
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def spec(self) -> ExperimentSpec:
        """The experiment spec this session runs."""
        return self._spec

    @property
    def hierarchy(self) -> Hierarchy:
        """The hierarchical domain."""
        return self._hierarchy

    @property
    def algorithm(self) -> HHHAlgorithm:
        """The algorithm under test."""
        return self._algorithm

    @property
    def processed(self) -> int:
        """Packets the algorithm has seen so far."""
        return self._algorithm.total

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #

    def add_progress_hook(self, hook: ProgressHook) -> "Session":
        """Register a per-chunk progress callback; returns ``self`` for chaining."""
        self._progress_hooks.append(hook)
        return self

    def add_measurement_hook(self, hook: MeasurementHook) -> "Session":
        """Register a checkpoint measurement callback; returns ``self`` for chaining."""
        self._measurement_hooks.append(hook)
        return self

    # ------------------------------------------------------------------ #
    # traffic source
    # ------------------------------------------------------------------ #

    def keys(self) -> Keys:
        """Materialise (and cache) the key stream this session feeds.

        Explicit ``keys`` passed to the constructor win; otherwise a
        ``spec.trace`` is loaded (key arrays for batch runs - zero-copy
        memmap views for single-chunk v2 traces - plain Python keys for the
        per-packet path), and failing both the spec's named workload is
        drawn.  Note that :meth:`run` on a batch-mode trace spec *streams*
        the trace instead of materialising it here.
        """
        if self._keys is None:
            if self._spec.trace is not None:
                self._keys = self._load_trace_keys()
            else:
                generator = named_workload(self._spec.workload, num_flows=self._spec.num_flows)
                count = self._spec.packets
                if self._spec.batch_size is not None:
                    if self._hierarchy.dimensions == 2:
                        self._keys = generator.key_array(count)
                    else:
                        # Source column of the generator's array emitter: the
                        # same stream (and RNG consumption) as keys_1d, without
                        # materialising a Python list first.
                        self._keys = np.ascontiguousarray(generator.key_array(count)[:, 0])
                else:
                    self._keys = (
                        generator.keys_2d(count)
                        if self._hierarchy.dimensions == 2
                        else generator.keys_1d(count)
                    )
        return self._keys

    def _load_trace_keys(self) -> Keys:
        """Materialise the spec's trace (capped at ``spec.packets``) as a key stream."""
        dimensions = self._hierarchy.dimensions
        arr = trace_key_array(
            self._spec.trace, dimensions=dimensions, limit=self._spec.packets
        )
        if self._spec.batch_size is not None:
            return arr
        # Per-packet path: plain Python keys, like the workload emitters.
        if dimensions == 2:
            return [tuple(row) for row in arr.tolist()]
        return arr.tolist()

    # ------------------------------------------------------------------ #
    # the feed loop: sources of key batches, drained through _feed_loop
    # ------------------------------------------------------------------ #

    def _feed_loop(self, batches: Iterable[Keys], total: Optional[int]) -> Iterator[int]:
        """The one feed loop: apply every batch, advance, report; yields batch sizes.

        Every feed path drains this generator.  Each non-empty batch goes
        through ``update_batch`` on batch specs, or one ``update`` call per
        key on per-packet specs; then the absolute stream position advances,
        the progress hooks fire with it (capped at ``total``, which defaults
        to the position itself) and a periodic checkpoint is written when
        its mark is crossed.  The batch's packet count is yielded last.
        """
        per_packet = self._spec.batch_size is None
        algorithm = self._algorithm
        for batch in batches:
            n = len(batch)
            if n == 0:
                continue
            if per_packet:
                update = algorithm.update
                for key in HHHAlgorithm._iter_batch_keys(batch):
                    update(key)
            else:
                algorithm.update_batch(batch)
            self._stream_position += n
            self._fire_progress(total)
            self._maybe_checkpoint()
            yield n

    def _fire_progress(self, total: Optional[int]) -> None:
        position = self._stream_position
        if total is None:
            total = position
        for hook in self._progress_hooks:
            hook(self, min(position, total), total)

    def _key_source(self, keys: Keys, start: int, cuts: Iterable[int]) -> Iterator[Keys]:
        """Slices of ``keys`` from ``start``: ``batch_size`` (or ``progress_chunk``
        on the per-packet path) at a time, restarting at every cut."""
        step = self._spec.batch_size or self._progress_chunk
        for cut in cuts:
            for chunk_start in range(start, cut, step):
                yield keys[chunk_start : min(chunk_start + step, cut)]
            start = cut

    def _trace_source(
        self,
        path: Optional[str] = None,
        *,
        ingest: Optional[int] = None,
        skip: Optional[int] = None,
    ) -> Tuple[Iterator[Keys], int]:
        """The spec's trace as ``(batches, total)``: re-chunked, resume-skipped, ring-buffered."""
        if path is None:
            path = self._spec.trace
        if path is None:
            raise ConfigurationError("feed_trace needs a path (argument or spec.trace)")
        if self._spec.batch_size is None:
            raise ConfigurationError(
                "feed_trace streams through update_batch; set batch_size on the "
                "spec (per-packet trace runs use run()/feed(), which "
                "materialise the keys)"
            )
        if skip is None:
            skip = self._resume_position
        depth = ingest if ingest is not None else self._spec.ingest
        total = min(trace_packet_count(path), self._spec.packets)
        batches = rechunk_batches(
            trace_key_batches(
                path,
                dimensions=self._hierarchy.dimensions,
                limit=self._spec.packets,
                fault_plan=self._fault_plan,
            ),
            self._spec.batch_size,
        )
        if skip:
            batches = _skip_batches(batches, skip)
        if depth is not None:
            batches = _ring_buffered(batches, depth, self._fault_plan)
        return batches, total

    def _spec_source(self) -> Tuple[Iterator[Keys], int]:
        """The spec's stream past any resume prefix, as ``(batches, total)``.

        Batch-mode trace specs without explicit keys stream the trace (zero
        per-packet Python objects, optional ring-buffer overlap); every
        other spec slices its materialised :meth:`keys`.
        """
        if self._keys is None and self._spec.trace is not None and self._spec.batch_size is not None:
            return self._trace_source()
        keys = self.keys()
        total = len(keys)
        return self._key_source(keys, min(self._resume_position, total), [total]), total

    def feed(
        self,
        keys: Optional[Keys] = None,
        *,
        checkpoints: Sequence[int] = (),
        start: int = 0,
    ) -> List[Any]:
        """Drive the whole stream through the algorithm.

        Args:
            keys: stream override; defaults to :meth:`keys`.
            checkpoints: stream positions (packet counts) at which the
                measurement hooks fire.  The stream is cut at every
                checkpoint; batch chunking restarts after each cut, so a
                checkpoint that is not a multiple of the batch size changes
                chunk boundaries relative to an uncheckpointed run.  With no
                checkpoints the batch path is bit-identical to the manual
                ``keys[i : i + batch_size]`` loop.
            start: stream position to begin feeding from - ``keys[:start]``
                is assumed already applied (this is how a resumed session
                skips the prefix its checkpoint covers).

        Returns:
            the non-None records produced by the measurement hooks.
        """
        if keys is None:
            keys = self.keys()
        total = len(keys)
        if not 0 <= start <= total:
            raise ConfigurationError(f"start must lie in [0, {total}], got {start}")
        marks = sorted({int(c) for c in checkpoints})
        if marks and (marks[0] <= start or marks[-1] > total):
            raise ConfigurationError(
                f"checkpoints must lie in ({start}, {total}], got {marks[0]}..{marks[-1]}"
            )
        measurements: List[Any] = []
        marks_set = set(marks)
        cuts = marks + ([total] if not marks or marks[-1] != total else [])
        position = start
        for fed in self._feed_loop(self._key_source(keys, start, cuts), total):
            position += fed
            if position in marks_set:
                for hook in self._measurement_hooks:
                    record = hook(self, position)
                    if record is not None:
                        measurements.append(record)
        return measurements

    def feed_batches(self, batches: Iterable[Keys], *, total: Optional[int] = None) -> int:
        """Drive an iterable of key-array batches through the feed loop inline.

        This is the inline reference the ingest parity gate compares the
        ring-buffered feed against: batches are applied strictly in iteration
        order, one ``update_batch`` call each on batch specs, progress hooks
        firing after every batch.  Returns the number of packets fed.

        Args:
            batches: iterable of key arrays (``(n, 2)`` for two-dimensional
                hierarchies, 1-D otherwise); a
                :class:`~repro.core.ingest.RingBufferIngest` is itself such
                an iterable.
            total: stream length reported to progress hooks; defaults to the
                running stream position (useful when the iterable's length
                is unknown).
        """
        return sum(self._feed_loop(batches, total))

    def feed_trace(
        self,
        path: Optional[str] = None,
        *,
        ingest: Optional[int] = None,
        skip: Optional[int] = None,
    ) -> int:
        """Stream a serialized trace through the batch engine; returns packets fed.

        v2 columnar traces replay as zero-copy memmap views re-chunked to the
        spec's ``batch_size`` (batches never span trace chunks); v1 traces
        decode per record into the same batch shapes.  With an ingest depth
        (argument, or ``spec.ingest``) the reader runs on a producer thread
        overlapped with ``update_batch`` via a bounded ring buffer - the fed
        batch sequence, and therefore the final algorithm state, is
        bit-identical to the inline feed.

        Args:
            path: trace file; defaults to ``spec.trace``.
            ingest: ring depth override; ``None`` uses ``spec.ingest``
                (inline when that is also ``None``).
            skip: packets to drop from the front of the stream before
                feeding; defaults to the resume position of a session built
                by :meth:`resume` (0 for fresh sessions).  Periodic
                checkpoints always land on batch boundaries, so a resumed
                skip drops whole batches; a ``skip`` that would split a
                batch raises :class:`~repro.exceptions.CheckpointError`.

        Raises:
            ConfigurationError: when no trace path is available or the spec
                has no ``batch_size`` (per-packet trace runs go through
                :meth:`run`/:meth:`feed`, which materialise Python keys).
        """
        return sum(self._feed_loop(*self._trace_source(path, ingest=ingest, skip=skip)))

    # ------------------------------------------------------------------ #
    # checkpoint / resume
    # ------------------------------------------------------------------ #

    @property
    def stream_position(self) -> int:
        """Absolute stream position fed so far (includes a resume's skipped prefix)."""
        return self._stream_position

    @property
    def resume_position(self) -> int:
        """Stream position of the checkpoint this session resumed from (0 if fresh)."""
        return self._resume_position

    def checkpoint(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Write a durable session checkpoint; returns the path written.

        The file is written atomically (temp file + rename) with a
        checksummed header, and captures everything a :meth:`resume` needs:
        the spec, the absolute stream position, and the algorithm's full
        runtime state (counters, totals and RNG states - per shard for the
        sharded engine).  The stream itself is *not* stored; resuming replays
        the same deterministic source from the recorded position.

        Args:
            path: target file; defaults to the session's configured
                ``checkpoint_path``.
        """
        target = path if path is not None else self._checkpoint_path
        if target is None:
            raise ConfigurationError(
                "checkpoint() needs a path (argument, checkpoint_path kwarg, "
                "or spec.checkpoint_path)"
            )
        payload = {
            "format": "session",
            "spec": self._spec.to_dict(),
            "position": int(self._stream_position),
            # copy_state=False: the snapshot is pickled by save_checkpoint
            # before the algorithm processes another packet.
            "algorithm": snapshot_algorithm(self._algorithm, copy_state=False),
        }
        return save_checkpoint(target, payload)

    def _maybe_checkpoint(self) -> None:
        """Write the periodic checkpoint when the stream position crosses the mark."""
        if self._next_checkpoint is None or self._stream_position < self._next_checkpoint:
            return
        self.checkpoint()
        self._next_checkpoint = self._stream_position + self._checkpoint_every

    @classmethod
    def resume(cls, path: Union[str, Path], **session_kwargs: Any) -> "Session":
        """Rebuild a session from a checkpoint file written by :meth:`checkpoint`.

        The spec is restored from the checkpoint, the algorithm is rebuilt
        and its runtime state restored bit-for-bit, and the stream position
        is remembered so :meth:`run`, :meth:`feed` and :meth:`feed_trace`
        skip the already-applied prefix.  Sessions whose stream came from an
        explicit ``keys=`` argument must pass the same keys again.

        Args:
            path: checkpoint file.
            **session_kwargs: forwarded to the constructor
              (``checkpoint_path`` defaults to ``path`` so periodic
              checkpointing keeps overwriting the same file).
        """
        payload = load_checkpoint(path)
        if payload.get("format") != "session":
            raise CheckpointError(
                f"{path} is not a session checkpoint "
                f"(format={payload.get('format')!r})"
            )
        spec = ExperimentSpec.from_dict(payload["spec"])
        session_kwargs.setdefault("checkpoint_path", str(path))
        session = cls(spec, **session_kwargs)
        restore_algorithm(session._algorithm, payload["algorithm"])
        position = int(payload.get("position", 0))
        session._stream_position = position
        session._resume_position = position
        if session._next_checkpoint is not None:
            session._next_checkpoint = position + session._checkpoint_every
        return session

    # ------------------------------------------------------------------ #
    # queries and runs
    # ------------------------------------------------------------------ #

    def output(self, theta: Optional[float] = None) -> HHHOutput:
        """Query the algorithm's HHH report (defaults to the spec's theta)."""
        theta = validate_theta(theta if theta is not None else self._spec.theta)
        return self._algorithm.output(theta)

    def watch(self, theta: Optional[float] = None, *, every: int = 1) -> Iterator[HHHOutput]:
        """Feed the spec's stream, yielding an ``output(theta)`` every ``every`` chunks.

        The streaming query loop: the stream advances one chunk
        (``batch_size`` packets on the batch path, ``progress_chunk`` on the
        per-packet path, one re-chunked batch on the streamed-trace path) at
        a time, and every ``every``-th chunk the algorithm is queried and the
        report yielded.  A final report is always yielded at end of stream
        when the last chunk did not land on the cadence (an empty stream
        yields exactly one report), so the last yielded output equals what
        :meth:`run` would have returned.  Each query is one array Output
        pass (:func:`~repro.core.output.lattice_output`), whose per-entry
        Python work is limited to the prefixes it selects and their
        ancestors, which is what makes a per-chunk (``every=1``) monitor
        affordable.

        Args:
            theta: query threshold; defaults to the spec's theta.
            every: chunk cadence between reports (>= 1).
        """
        theta = validate_theta(theta if theta is not None else self._spec.theta)
        if not isinstance(every, int) or isinstance(every, bool) or every < 1:
            raise ConfigurationError(f"every must be a positive int, got {every!r}")
        return self._watch_iter(theta, every)

    def _watch_iter(self, theta: float, every: int) -> Iterator[HHHOutput]:
        chunks = 0
        on_cadence = False
        for _ in self._feed_loop(*self._spec_source()):
            chunks += 1
            on_cadence = chunks % every == 0
            if on_cadence:
                yield self._algorithm.output(theta)
        if not on_cadence:
            yield self._algorithm.output(theta)

    def run(
        self,
        *,
        theta: Optional[float] = None,
        checkpoints: Sequence[int] = (),
    ) -> SessionResult:
        """Feed the full stream, take the final output, return a :class:`SessionResult`.

        Batch-mode trace specs stream the trace (zero per-packet Python
        objects, optional ring-buffer overlap) instead of materialising a
        key stream; checkpoints are not supported on that streaming path.
        ``packets`` on the result is the absolute stream position after the
        feed, skipped resume prefix included.
        """
        batches, total = self._spec_source()
        # _spec_source materialised the keys unless it streams the trace.
        if checkpoints and self._keys is None:
            raise ConfigurationError(
                "checkpoints are not supported on streamed trace runs; "
                "pass explicit keys to checkpoint a trace stream"
            )
        measurements: List[Any] = []
        start = time.perf_counter()
        if checkpoints:
            measurements = self.feed(
                self._keys, checkpoints=checkpoints, start=min(self._resume_position, total)
            )
        else:
            for _ in self._feed_loop(batches, total):
                pass
        seconds = time.perf_counter() - start
        return SessionResult(
            spec=self._spec,
            output=self.output(theta),
            packets=self._stream_position,
            seconds=seconds,
            measurements=measurements,
        )

    def measure_speed(self, keys: Optional[Keys] = None) -> "SpeedResult":  # noqa: F821
        """Time the feed loop the spec selects (the Figure 5 measurement).

        Per-packet specs time the unit-weight fast path
        (:func:`~repro.eval.speed.measure_update_speed`); batch specs time
        :meth:`feed` over ``keys`` (default :meth:`keys`), so the progress
        hooks and periodic checkpoints fire inside the timed loop.
        """
        # Late import: repro.eval imports this module through its runner.
        from repro.eval.speed import SpeedResult, measure_update_speed

        if keys is None:
            keys = self.keys()
        if self._spec.batch_size is None:
            return measure_update_speed(self._algorithm, keys)
        start = time.perf_counter()
        self.feed(keys)
        return SpeedResult(
            algorithm=self._algorithm.name,
            packets=len(keys),
            seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # virtual-switch integration
    # ------------------------------------------------------------------ #

    def bind_switch(self, switch, cost_model=None):
        """Attach this session's algorithm to a simulated switch's dataplane.

        Wraps the algorithm in a
        :class:`~repro.vswitch.ovs.DataplaneMeasurement` (which installs both
        the per-packet and the batch datapath hooks) so the switch's
        forwarding loop feeds the same algorithm instance this session owns -
        the Figures 6-8 deployment mode, driven through the unified API.

        Returns the attached measurement.
        """
        from repro.vswitch.ovs import DataplaneMeasurement  # late: keep vswitch import-light

        measurement = DataplaneMeasurement(
            self._algorithm, cost_model if cost_model is not None else switch.cost_model
        )
        switch.attach_measurement(measurement)
        return measurement

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release algorithm-owned resources (the sharded engine's worker pool).

        Idempotent and a no-op for algorithms without a ``close`` method; a
        closed sharded session can still not be fed, so call it when done.
        """
        close = getattr(self._algorithm, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(algorithm={self._spec.algorithm.name!r}, "
            f"hierarchy={self._spec.hierarchy!r}, processed={self.processed})"
        )


def _ring_buffered(batches: Iterable[Keys], depth: int, fault_plan) -> Iterator[Keys]:
    """Yield ``batches`` through a :class:`RingBufferIngest` reader thread, closed on exit."""
    with RingBufferIngest(batches, depth=depth, fault_plan=fault_plan) as ring:
        yield from ring


def _skip_batches(batches: Iterable[Keys], skip: int) -> Iterator[Keys]:
    """Drop whole batches until exactly ``skip`` packets have been consumed.

    Periodic session checkpoints fire on batch boundaries, so a resume
    position always lands between batches of the deterministic re-chunked
    stream; a ``skip`` that would split a batch means the checkpoint does not
    belong to this stream/batch-size combination and raises.
    """
    skipped = 0
    for batch in batches:
        if skipped < skip:
            n = len(batch)
            if skipped + n > skip:
                raise CheckpointError(
                    f"resume position {skip} is not on a batch boundary "
                    f"(next batch spans {skipped}..{skipped + n}); was the "
                    f"checkpoint written with a different batch_size or trace?"
                )
            skipped += n
            continue
        yield batch
    if skipped < skip:
        raise CheckpointError(
            f"resume position {skip} lies beyond the end of the stream "
            f"({skipped} packets)"
        )


def run_experiment(spec: ExperimentSpec, **session_kwargs: Any) -> SessionResult:
    """One-shot convenience: build a :class:`Session` for ``spec`` and run it."""
    return Session(spec, **session_kwargs).run()

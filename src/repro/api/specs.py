"""Declarative, serializable experiment specifications.

Every experiment in the reproduction is describable as a plain JSON-able
object: a :class:`CounterSpec` (which counter backend each lattice node
runs), an :class:`AlgorithmSpec` (which HHH algorithm, with which accuracy /
confidence / performance parameters), and an :class:`ExperimentSpec` (the
algorithm plus the hierarchy, workload and run settings).  Specs validate on
construction, round-trip losslessly through ``to_dict``/``from_dict`` (and
JSON), and are consumed by :func:`repro.api.registry.build_algorithm`,
:func:`repro.api.registry.build_counter` and :class:`repro.api.session.Session`.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar

from repro.api.memory import TRACKING_BACKENDS, choose_counter_backend
from repro.exceptions import ConfigurationError, ConfigurationWarning
from repro.hh.base import DEFAULT_COUNTER

S = TypeVar("S", bound="_SpecBase")

#: Per-backend floors applied to the counter epsilon unless a spec overrides
#: them.  Count Sketch is the only backend with a non-trivial floor: its table
#: width grows as ``3 / epsilon^2``, so a tight epsilon silently degrades into
#: a width-capped (hence weaker-than-requested) sketch; clamping at 0.005
#: keeps the width meaningful.  This replaces the hard-coded
#: ``max(epsilon, 0.005)`` that used to hide inside the counter factory.
DEFAULT_MIN_EPSILON: Dict[str, float] = {"count_sketch": 0.005}


def _check_unit_interval(name: str, value: Optional[float], *, closed_right: bool = False) -> None:
    if value is None:
        return
    inside = 0.0 < value <= 1.0 if closed_right else 0.0 < value < 1.0
    if not inside:
        interval = "(0, 1]" if closed_right else "(0, 1)"
        raise ConfigurationError(f"{name} must be in {interval}, got {value}")


def _check_positive_int(name: str, value: Optional[int]) -> None:
    if value is None:
        return
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


class _SpecBase:
    """Shared ``to_dict``/``from_dict`` plumbing of the spec dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain JSON-able dict; nested specs become nested dicts."""
        assert dataclasses.is_dataclass(self)  # every concrete spec is one
        result: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            elif isinstance(value, dict):
                value = dict(value)
            result[spec_field.name] = value
        return result

    @classmethod
    def from_dict(cls: Type[S], data: Mapping[str, Any]) -> S:
        """Rebuild a spec from :meth:`to_dict` output (strict about keys)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"{cls.__name__}.from_dict expects a mapping, got {type(data).__name__}")
        assert dataclasses.is_dataclass(cls)  # every concrete spec is one
        known = {spec_field.name: spec_field for spec_field in fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            nested = _NESTED_SPEC_FIELDS.get((cls.__name__, name))
            if nested is not None and value is not None and not isinstance(value, nested):
                value = nested.from_dict(value)
            kwargs[name] = value
        return cls(**kwargs)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialize to a JSON string (``indent=2`` by default)."""
        dumps_kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls: Type[S], text: str) -> S:
        """Rebuild a spec from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid {cls.__name__} JSON: {exc}") from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class CounterSpec(_SpecBase):
    """Declarative description of a per-node counter backend.

    Attributes:
        name: registered backend name (ignored when ``auto`` is set).
        epsilon: per-counter relative error target; ``None`` inherits the
            owning algorithm's resolved counter epsilon at build time.
        delta: failure probability for the probabilistic backends.
        capacity: explicit counter count (table-based backends); overrides
            the ``ceil(1/epsilon)`` derivation.
        width, depth: explicit sketch table dimensions, overriding the
            ``epsilon``/``delta`` derivations.
        track: tracked-keys bound for the sketches' heavy-hitter enumeration.
        seed: hash-function seed for the sketches.
        min_epsilon: floor applied to the resolved epsilon.  ``None`` uses the
            backend default from :data:`DEFAULT_MIN_EPSILON`; pass ``0.0`` to
            disable clamping entirely.  A :class:`ConfigurationWarning` is
            emitted whenever the clamp actually fires.
        auto: pick the backend automatically from ``memory_bytes`` (the
            ROADMAP's multi-backend-by-deployment-size selection).
        memory_bytes: memory budget driving the automatic choice.
        options: extra keyword arguments forwarded verbatim to the backend
            factory (the extension point for third-party backends).
    """

    name: str = DEFAULT_COUNTER
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    capacity: Optional[int] = None
    width: Optional[int] = None
    depth: Optional[int] = None
    track: Optional[int] = None
    seed: Optional[int] = None
    min_epsilon: Optional[float] = None
    auto: bool = False
    memory_bytes: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"counter name must be a non-empty string, got {self.name!r}")
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("delta", self.delta)
        for int_field in ("capacity", "width", "depth", "track", "memory_bytes"):
            _check_positive_int(int_field, getattr(self, int_field))
        if self.min_epsilon is not None and not 0.0 <= self.min_epsilon < 1.0:
            raise ConfigurationError(f"min_epsilon must be in [0, 1), got {self.min_epsilon}")
        if self.auto and self.memory_bytes is None:
            raise ConfigurationError("CounterSpec(auto=True) requires memory_bytes")

    def resolve(self, default_epsilon: Optional[float] = None) -> "CounterSpec":
        """Return a concrete spec: epsilon inherited, clamped, backend chosen.

        Args:
            default_epsilon: the owning algorithm's per-counter error target,
                used when the spec does not pin ``epsilon`` itself.

        Raises:
            ConfigurationError: when no epsilon can be resolved (and no
                explicit ``capacity``/``width`` sizes the backend), or the
                automatic choice finds no backend within ``memory_bytes``.
        """
        epsilon = self.epsilon if self.epsilon is not None else default_epsilon
        if epsilon is None and self.capacity is None and self.width is None:
            raise ConfigurationError(
                f"counter spec {self.name!r} has no epsilon and no explicit capacity/width; "
                "pass epsilon on the spec or build it through an algorithm"
            )
        name = self.name
        track = self.track
        if self.auto:
            name = choose_counter_backend(
                self.memory_bytes,  # type: ignore[arg-type]  # validated in __post_init__
                epsilon=epsilon if epsilon is not None else 0.01,
                delta=self.delta if self.delta is not None else 0.01,
                track=track,
            )
            if name not in TRACKING_BACKENDS:
                # ``track`` priced the sketches for the choice; a Space
                # Saving table has no tracked set to bound.
                track = None
        if epsilon is not None:
            floor = self.min_epsilon if self.min_epsilon is not None else DEFAULT_MIN_EPSILON.get(name, 0.0)
            if epsilon < floor:
                warnings.warn(
                    f"counter {name!r}: epsilon={epsilon} clamped to min_epsilon={floor} "
                    f"(set min_epsilon explicitly to override)",
                    ConfigurationWarning,
                    stacklevel=2,
                )
                epsilon = floor
        return dataclasses.replace(self, name=name, epsilon=epsilon, track=track, auto=False)

    def build(self, default_epsilon: Optional[float] = None) -> Any:
        """Instantiate the backend (delegates to :func:`repro.api.registry.build_counter`)."""
        from repro.api.registry import build_counter  # late import: registry imports this module

        return build_counter(self, epsilon=default_epsilon)


@dataclass(frozen=True)
class AlgorithmSpec(_SpecBase):
    """Declarative description of an HHH algorithm instance.

    Attributes:
        name: registered algorithm name (e.g. ``"rhhh"``, ``"mst"``).
        epsilon: overall accuracy target.
        delta: overall confidence target (randomized algorithms).
        seed: RNG seed (randomized algorithms).
        v: the RHHH performance parameter ``V``; ``None`` lets the algorithm
            pick its default (``V = H``, or ``10 H`` for ``"10-rhhh"``).
        v_multiplier: alternative to ``v``: resolve ``V = multiplier * H``
            against the hierarchy at build time (mutually exclusive with ``v``).
        updates_per_packet: the ``r`` of the paper's Corollary 6.8.
        counter: per-node counter backend; ``None`` keeps the algorithm's
            default (:data:`DEFAULT_COUNTER`, the array Space Saving summary).
        options: extra keyword arguments forwarded to the algorithm factory.
    """

    name: str = "rhhh"
    epsilon: float = 0.001
    delta: float = 0.001
    seed: Optional[int] = None
    v: Optional[int] = None
    v_multiplier: Optional[int] = None
    updates_per_packet: int = 1
    counter: Optional[CounterSpec] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"algorithm name must be a non-empty string, got {self.name!r}")
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("delta", self.delta)
        _check_positive_int("v", self.v)
        _check_positive_int("v_multiplier", self.v_multiplier)
        _check_positive_int("updates_per_packet", self.updates_per_packet)
        if self.v is not None and self.v_multiplier is not None:
            raise ConfigurationError("v and v_multiplier are mutually exclusive; set at most one")
        if self.counter is not None and not isinstance(self.counter, CounterSpec):
            raise ConfigurationError(
                f"counter must be a CounterSpec, got {type(self.counter).__name__}"
            )

    def resolved_v(self, hierarchy_size: int) -> Optional[int]:
        """The explicit ``V`` for a hierarchy of ``hierarchy_size`` nodes (or ``None``)."""
        if self.v is not None:
            return self.v
        if self.v_multiplier is not None:
            return self.v_multiplier * hierarchy_size
        return None

    def build(self, hierarchy: Any) -> Any:
        """Instantiate the algorithm (delegates to :func:`repro.api.registry.build_algorithm`)."""
        from repro.api.registry import build_algorithm  # late import: registry imports this module

        return build_algorithm(self, hierarchy)


@dataclass(frozen=True)
class DistribSpec(_SpecBase):
    """Declarative description of the distributed aggregation tier.

    Attributes:
        switches: number of simulated switches the stream is partitioned
            across; each runs a proportionally-sized replica of the
            algorithm and ships its counter state to the aggregator.
        epoch_batches: emit one wire message per switch every this many
            ingested batches (the epoch length, in batches).
        top_k: lossy compression - ship only the ``top_k`` heaviest entries
            per lattice node, folding the residual into the error bracket
            (see :mod:`repro.distrib.compress`); ``None`` ships losslessly.
        delta: delta-encode emissions against the last acknowledged epoch
            when possible (Space Saving state only; sketches always ship
            whole snapshots).
        transport: ``"loopback"`` (reliable, ordered - the lockstep
            reference) or ``"simulated"`` (lossy queue driven by the
            session's network :class:`~repro.core.faults.FaultPlan`).
        byte_budget: per-switch total shipped-bytes budget; the cluster's
            bandwidth report flags switches exceeding it (the bench gate).
    """

    switches: int = 4
    epoch_batches: int = 1
    top_k: Optional[int] = None
    delta: bool = True
    transport: str = "loopback"
    byte_budget: Optional[int] = None

    def __post_init__(self) -> None:
        _check_positive_int("switches", self.switches)
        _check_positive_int("epoch_batches", self.epoch_batches)
        _check_positive_int("top_k", self.top_k)
        _check_positive_int("byte_budget", self.byte_budget)
        if not isinstance(self.delta, bool):
            raise ConfigurationError(f"delta must be a bool, got {self.delta!r}")
        if self.transport not in ("loopback", "simulated"):
            raise ConfigurationError(
                f"transport must be 'loopback' or 'simulated', got {self.transport!r}"
            )


@dataclass(frozen=True)
class ExperimentSpec(_SpecBase):
    """Declarative description of one full experiment run.

    Attributes:
        algorithm: the algorithm under test.
        hierarchy: registered hierarchy name (e.g. ``"2d-bytes"``).
        workload: named synthetic workload feeding the run (ignored when a
            :class:`~repro.api.session.Session` is given explicit keys or
            when ``trace`` is set).
        trace: path to a serialized binary trace (v2 columnar preferred; v1
            row traces replay with per-packet decode cost) fed instead of the
            synthetic workload.  Batch runs stream the trace straight into
            ``update_batch`` as memory-mapped key arrays - no per-packet
            Python objects.
        ingest: ring-buffer depth (in batches) of the overlapped ingest stage
            (:class:`~repro.core.ingest.RingBufferIngest`): trace reading and
            the batch engine run concurrently, bit-identical to the inline
            feed.  ``None`` feeds inline; requires ``trace`` and
            ``batch_size``.
        num_flows: workload flow-population override.
        packets: stream length; for trace runs an upper cap - the run feeds
            ``min(trace packets, packets)``.
        theta: HHH threshold fraction for the final ``output`` call.
        batch_size: feed the stream through ``update_batch`` in chunks of this
            size; ``None`` selects the per-packet path.
        shards: hash-partition the stream across this many shard replicas
            (:class:`~repro.core.shard.ShardedHHH`) and merge their counter
            summaries at output time; ``None`` or 1 runs unsharded.  A
            memory-budgeted auto counter divides its budget evenly across
            the shards.
        shard_parallel: give each shard a worker process (default); ``False``
            runs the shard replicas in-process, with identical results -
            the deterministic mode the lockstep tests pin.
        shard_policy: how parallel shard-worker failure is handled
            (:class:`~repro.core.supervise.SupervisorPolicy` policy name):
            ``"fail"`` raises a typed ``ShardFailure``, ``"restart"``
            respawns from the last supervision checkpoint and replays the
            delta (bit-identical to a failure-free run), ``"degrade"``
            continues on the survivors with widened error bounds and a
            ``failed_shards`` report on the output.
        shard_timeout: IPC timeout in seconds before an unresponsive worker
            counts as hung.
        checkpoint_every: take a durable session checkpoint every this many
            packets during ``run()``/``feed_trace()`` (requires
            ``checkpoint_path``); ``None`` disables periodic checkpoints.
        checkpoint_path: file the periodic checkpoints are (atomically)
            written to - the path ``Session.resume`` restarts from.
        distrib: run the stream through the distributed aggregation tier
            (:class:`~repro.distrib.cluster.DistributedCluster`): the stream
            is partitioned across ``distrib.switches`` switch nodes whose
            shipped counter state an aggregator merges into the global
            answer.  Requires ``batch_size``; mutually exclusive with
            ``shards`` and with periodic checkpointing.
        label: free-form tag recorded in results.
    """

    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec)
    hierarchy: str = "2d-bytes"
    workload: str = "chicago16"
    trace: Optional[str] = None
    ingest: Optional[int] = None
    num_flows: Optional[int] = None
    packets: int = 100_000
    theta: float = 0.05
    batch_size: Optional[int] = None
    shards: Optional[int] = None
    shard_parallel: bool = True
    shard_policy: str = "fail"
    shard_timeout: float = 30.0
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    distrib: Optional[DistribSpec] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, AlgorithmSpec):
            raise ConfigurationError(
                f"algorithm must be an AlgorithmSpec, got {type(self.algorithm).__name__}"
            )
        if not self.hierarchy or not isinstance(self.hierarchy, str):
            raise ConfigurationError(f"hierarchy must be a non-empty string, got {self.hierarchy!r}")
        if not isinstance(self.packets, int) or isinstance(self.packets, bool) or self.packets < 0:
            raise ConfigurationError(f"packets must be a non-negative integer, got {self.packets!r}")
        _check_unit_interval("theta", self.theta, closed_right=True)
        _check_positive_int("batch_size", self.batch_size)
        _check_positive_int("num_flows", self.num_flows)
        _check_positive_int("shards", self.shards)
        if self.trace is not None and (not self.trace or not isinstance(self.trace, str)):
            raise ConfigurationError(f"trace must be a non-empty path string, got {self.trace!r}")
        _check_positive_int("ingest", self.ingest)
        if self.ingest is not None:
            if self.trace is None:
                raise ConfigurationError("ingest requires a trace to overlap (set trace=...)")
            if self.batch_size is None:
                raise ConfigurationError(
                    "ingest overlaps the batch feed; set batch_size alongside ingest"
                )
        if not isinstance(self.shard_parallel, bool):
            raise ConfigurationError(
                f"shard_parallel must be a bool, got {self.shard_parallel!r}"
            )
        if self.shard_policy not in ("fail", "restart", "degrade"):
            raise ConfigurationError(
                f"shard_policy must be 'fail', 'restart' or 'degrade', got {self.shard_policy!r}"
            )
        if not isinstance(self.shard_timeout, (int, float)) or isinstance(
            self.shard_timeout, bool
        ) or self.shard_timeout <= 0:
            raise ConfigurationError(
                f"shard_timeout must be a positive number, got {self.shard_timeout!r}"
            )
        _check_positive_int("checkpoint_every", self.checkpoint_every)
        if self.checkpoint_path is not None and (
            not self.checkpoint_path or not isinstance(self.checkpoint_path, str)
        ):
            raise ConfigurationError(
                f"checkpoint_path must be a non-empty path string, got {self.checkpoint_path!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_path is None:
            raise ConfigurationError(
                "checkpoint_every needs somewhere to write; set checkpoint_path alongside it"
            )
        if self.distrib is not None:
            if not isinstance(self.distrib, DistribSpec):
                raise ConfigurationError(
                    f"distrib must be a DistribSpec, got {type(self.distrib).__name__}"
                )
            if self.batch_size is None:
                raise ConfigurationError(
                    "the distributed tier partitions batches; set batch_size alongside distrib"
                )
            if self.shards is not None and self.shards > 1:
                raise ConfigurationError(
                    "distrib and shards are mutually exclusive; the distributed tier "
                    "does its own partitioning (each switch is a replica)"
                )
            if self.checkpoint_every is not None:
                raise ConfigurationError(
                    "periodic checkpointing is not supported for distributed runs; "
                    "drop checkpoint_every or distrib"
                )


#: Which spec fields hold nested specs, for ``from_dict`` reconstruction.
_NESTED_SPEC_FIELDS: Dict[Tuple[str, str], Type[_SpecBase]] = {
    ("AlgorithmSpec", "counter"): CounterSpec,
    ("ExperimentSpec", "algorithm"): AlgorithmSpec,
    ("ExperimentSpec", "distrib"): DistribSpec,
}

"""The distributed cluster engine: N switches, one aggregator, one answer.

:class:`DistributedCluster` is an :class:`~repro.core.base.HHHAlgorithm`, so
a :class:`~repro.api.session.Session` drives it like any other engine.  It
routes batches with the sharded engine's
:func:`~repro.core.shard.partition_batch` to its
:class:`~repro.distrib.switch.SwitchNode` replicas; every ``epoch_batches``
ingested batches each live switch ships its compressed state through its
transport, and delivered messages are ingested by the
:class:`~repro.distrib.aggregator.Aggregator` and acknowledged back (the
ack promotes the emitted state to the switch's delta base).
``output(theta)`` flushes a final epoch and queries the aggregator with the
per-switch dispatched totals, so weight the aggregator cannot account for
widens the error bracket as quantified loss.  Every transport counts
messages and bytes; :meth:`DistributedCluster.bandwidth_report` rolls them
up against the spec's per-switch byte budget.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.api.specs import ExperimentSpec
from repro.core.base import HHHAlgorithm, HHHOutput
from repro.core.batch import coerce_weights
from repro.core.faults import FaultPlan
from repro.core.shard import partition_batch, shard_of_key, spawn_shard_seeds
from repro.distrib.aggregator import Aggregator
from repro.distrib.switch import SwitchNode
from repro.distrib.transport import LoopbackTransport, SimulatedTransport, Transport
from repro.exceptions import ConfigurationError
from repro.hierarchy.base import Hierarchy


class DistributedCluster(HHHAlgorithm):
    """Simulated many-switch deployment behind the one-algorithm interface.

    Args:
        spec: an :class:`~repro.api.specs.ExperimentSpec` with ``distrib``
            set (and ``batch_size``, enforced by the spec).
        hierarchy: the shared hierarchical domain (defaults to building
            ``spec.hierarchy`` from the registry).
        fault_plan: a seeded :class:`~repro.core.faults.FaultPlan` driving
            switch deaths (``kill`` events, ``at_batch`` = ingest batch
            index) and, with the simulated transport, message loss, delay
            and reordering (``net_*`` events, ``at_batch`` = the emitting
            switch's message index).
    """

    name = "distrib"

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        hierarchy: Optional[Hierarchy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        from repro.api.registry import make_hierarchy

        if spec.distrib is None:
            raise ConfigurationError("DistributedCluster needs a spec with distrib set")
        distrib = spec.distrib
        hierarchy_obj = hierarchy if hierarchy is not None else make_hierarchy(spec.hierarchy)
        super().__init__(hierarchy_obj)
        self._distrib = distrib
        self._fault_plan = fault_plan
        self._switches = distrib.switches
        # Built first, so unmergeable specs fail fast with a configuration error.
        self._aggregator = Aggregator(
            spec.algorithm, hierarchy_obj, distrib.switches, top_k=distrib.top_k
        )
        seeds = spawn_shard_seeds(spec.algorithm.seed, distrib.switches)
        self._nodes: List[SwitchNode] = [
            SwitchNode(
                switch,
                spec.algorithm,
                seeds[switch],
                distrib.switches,
                hierarchy=hierarchy_obj,
                top_k=distrib.top_k,
                delta=distrib.delta,
            )
            for switch in range(distrib.switches)
        ]
        self._transports: List[Transport] = [
            LoopbackTransport()
            if distrib.transport == "loopback"
            else SimulatedTransport(switch=switch, plan=fault_plan)
            for switch in range(distrib.switches)
        ]
        self._alive = [True] * distrib.switches
        self._dispatched = [0] * distrib.switches
        self._batch_index = 0
        self._batches_since_epoch = 0
        self._epoch = 0

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #

    # The cluster engine is deliberately outside the checkpoint whitelist:
    # specs.py rejects checkpoint_every together with distrib (live switch
    # nodes, transports and in-flight messages cannot be snapshotted), so the
    # epoch/liveness bookkeeping below is pragma-exempted, not whitelisted.
    def _fire_kills(self) -> None:
        if self._fault_plan is None:
            return
        for switch in self._fault_plan.kills_at(self._batch_index):
            if 0 <= switch < self._switches:
                self._alive[switch] = False  # reprolint: ok(checkpoint-drift)

    def _advance_epoch_clock(self) -> None:
        self._batch_index += 1  # reprolint: ok(checkpoint-drift)
        self._batches_since_epoch += 1  # reprolint: ok(checkpoint-drift)
        if self._batches_since_epoch >= self._distrib.epoch_batches:
            self._run_epoch()

    def update(self, key: Hashable, weight: int = 1) -> None:
        """Route one packet to the switch owning its key (per-packet path)."""
        self._fire_kills()
        switch = shard_of_key(key, self._switches)
        self._dispatched[switch] += weight  # reprolint: ok(checkpoint-drift)
        if self._alive[switch]:
            self._nodes[switch].observe_one(key, weight)
        self._total += weight
        self._advance_epoch_clock()

    # Like the sharded engine, the cluster has no scalar twin: its reference
    # is the per-packet update() path, pinned by the distrib parity tests.
    def update_batch(  # reprolint: ok(twin-parity)
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Hash-partition the batch across the switches, then tick the epoch clock.

        Dispatched weight is recorded for every switch - dead ones included -
        because the loss bracket is precisely "weight routed somewhere the
        aggregator can no longer hear from".
        """
        n = len(keys)
        if n == 0:
            return
        self._fire_kills()
        weights_arr, total_weight = coerce_weights(weights, n)
        for switch, (sub_keys, sub_weights) in enumerate(
            partition_batch(keys, weights_arr, self._switches)
        ):
            if len(sub_keys) == 0:
                continue
            sub_weight = int(sub_weights.sum()) if sub_weights is not None else len(sub_keys)
            self._dispatched[switch] += sub_weight
            if self._alive[switch]:
                self._nodes[switch].observe(sub_keys, sub_weights)
        self._total += total_weight
        self._advance_epoch_clock()

    # ------------------------------------------------------------------ #
    # the epoch protocol
    # ------------------------------------------------------------------ #

    def _run_epoch(self) -> None:
        """Emit every live switch's state, deliver due messages, send acks."""
        self._epoch += 1  # reprolint: ok(checkpoint-drift)
        self._batches_since_epoch = 0
        for switch, node in enumerate(self._nodes):
            if self._alive[switch]:
                self._transports[switch].send(node.emit(self._epoch))
        self._deliver()

    def _deliver(self) -> None:
        """Tick every transport one delivery epoch; ingest and acknowledge."""
        for transport in self._transports:
            for raw in transport.tick():
                accepted = self._aggregator.ingest(raw)
                if accepted is not None:
                    switch, epoch = accepted
                    self._nodes[switch].handle_ack(epoch)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def output(self, theta: float) -> HHHOutput:
        """Flush a final epoch, then serve the merged global answer.

        Weight still unaccounted for after the flush - dead switches,
        dropped messages, messages scheduled for later delivery epochs -
        stays in the loss bracket; the answer is sound *now*, not after
        some future delivery.
        """
        if self._batches_since_epoch > 0:
            self._run_epoch()
        return self._aggregator.output(
            theta,
            dispatched_totals={
                switch: self._dispatched[switch] for switch in range(self._switches)
            },
        )

    def counters(self) -> int:
        """Total counter objects across the deployment (the memory story)."""
        return sum(node.algorithm.counters() for node in self._nodes)

    def bandwidth_report(self) -> Dict[str, object]:
        """Per-switch and cluster-wide shipped-bytes accounting.

        The per-switch ``budget`` is the spec's ``byte_budget`` (total
        shipped bytes per switch over the whole run); ``over_budget`` lists
        the switches exceeding it.
        """
        budget = self._distrib.byte_budget
        per_switch = []
        for switch, transport in enumerate(self._transports):
            node = self._nodes[switch]
            per_switch.append(
                {
                    "switch": switch,
                    "alive": self._alive[switch],
                    "messages": transport.messages_sent,
                    "bytes": transport.bytes_sent,
                    "dropped": transport.messages_dropped,
                    "in_flight": transport.in_flight,
                    "snapshots": node.snapshots_emitted,
                    "deltas": node.deltas_emitted,
                    "bytes_per_epoch": (
                        transport.bytes_sent / transport.messages_sent
                        if transport.messages_sent
                        else 0.0
                    ),
                }
            )
        over = [
            entry["switch"]
            for entry in per_switch
            if budget is not None and entry["bytes"] > budget
        ]
        return {
            "switches": self._switches,
            "epochs": self._epoch,
            "budget_per_switch": budget,
            "per_switch": per_switch,
            "total_bytes": sum(entry["bytes"] for entry in per_switch),
            "max_switch_bytes": max((entry["bytes"] for entry in per_switch), default=0),
            "over_budget": over,
            "messages_accepted": self._aggregator.messages_accepted,
            "messages_late": self._aggregator.messages_late,
            "deltas_applied": self._aggregator.deltas_applied,
        }

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def switches(self) -> int:
        """Cluster size."""
        return self._switches

    @property
    def epoch(self) -> int:
        """Epochs completed so far."""
        return self._epoch

    @property
    def aggregator(self) -> Aggregator:
        """The receiving end."""
        return self._aggregator

    @property
    def nodes(self) -> List[SwitchNode]:
        """The switch nodes, by id."""
        return list(self._nodes)

    @property
    def transports(self) -> List[Transport]:
        """The per-switch transports, by id."""
        return list(self._transports)

    @property
    def dead_switches(self) -> List[int]:
        """Switches lost to ``kill`` fault events."""
        return [switch for switch, alive in enumerate(self._alive) if not alive]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedCluster(switches={self._switches}, epoch={self._epoch}, "
            f"N={self._total})"
        )

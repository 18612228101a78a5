"""The distributed cluster: the replica driver over a simulated switch fleet.

:class:`DistributedCluster` is a :class:`~repro.core.shard.ShardedHHH` whose
replica set is a :class:`SwitchFleet`: :class:`~repro.distrib.switch.SwitchNode`
replicas that every ``epoch_batches`` dispatch steps ship their compressed
state through their transport to one
:class:`~repro.distrib.aggregator.Aggregator`, which acknowledges what it
accepted (the ack promotes the emitted state to the switch's delta base).
Routing, the fault clock, the loss ledger and the merged query are the
driver's; a switch's stored contribution total is what its state accounts
for.  Every transport counts messages and bytes;
:meth:`DistributedCluster.bandwidth_report` rolls them up against the spec's
per-switch byte budget.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.api.specs import AlgorithmSpec, DistribSpec, ExperimentSpec
from repro.core.faults import FaultPlan
from repro.core.shard import Account, Job, ReplicaSet, ReplicaState, ShardedHHH
from repro.distrib.aggregator import Aggregator
from repro.distrib.switch import SwitchNode
from repro.distrib.transport import LoopbackTransport, SimulatedTransport, Transport
from repro.exceptions import CheckpointError, ConfigurationError
from repro.hierarchy.base import Hierarchy


class SwitchFleet(ReplicaSet):
    """Switch replicas heard through transports and one aggregator.

    A killed switch stops observing its sub-stream and emitting; ``delay``
    events have no worker pipe to slow here and do nothing.  The replica
    states are the aggregator's decoded contributions, so the answer is
    sound *now*: weight still unshipped, dropped or in flight stays in the
    driver's loss ledger.
    """

    def __init__(
        self,
        specs: Sequence[AlgorithmSpec],
        hierarchy: Hierarchy,
        algorithm: AlgorithmSpec,
        distrib: DistribSpec,
        fault_plan: Optional[FaultPlan],
    ) -> None:
        self.aggregator = Aggregator(algorithm, hierarchy, distrib.switches, top_k=distrib.top_k)
        self.nodes = [
            SwitchNode(switch, spec, hierarchy=hierarchy, top_k=distrib.top_k, delta=distrib.delta)
            for switch, spec in enumerate(specs)
        ]
        self.transports: List[Transport] = [
            LoopbackTransport()
            if distrib.transport == "loopback"
            else SimulatedTransport(switch=switch, plan=fault_plan)
            for switch in range(distrib.switches)
        ]
        self.alive = [True] * distrib.switches
        self.epoch = 0
        self._epoch_batches = distrib.epoch_batches
        self._batches_since_epoch = 0

    def apply(self, jobs: Sequence[Job], batch: int) -> None:
        for switch, (command, *args), _ in jobs:
            if self.alive[switch]:
                getattr(self.nodes[switch].algorithm, command)(*args)

    def kill(self, switch: int) -> None:
        self.alive[switch] = False

    def delay(self, switch: int, seconds: float, batch: int) -> None:
        """A switch has no worker pipe to slow."""

    def end_batch(self, batch: int) -> None:
        self._batches_since_epoch += 1
        if self._batches_since_epoch >= self._epoch_batches:
            self._run_epoch()

    def flush(self) -> None:
        """Ship a final epoch for any dispatch steps since the last one."""
        if self._batches_since_epoch > 0:
            self._run_epoch()

    def _run_epoch(self) -> None:
        """Emit every live switch's state, deliver due messages, send acks."""
        self.epoch += 1
        self._batches_since_epoch = 0
        for switch, node in enumerate(self.nodes):
            if self.alive[switch]:
                self.transports[switch].send(node.emit(self.epoch))
        for transport in self.transports:
            for raw in transport.tick():
                accepted = self.aggregator.ingest(raw)
                if accepted is not None:
                    switch, epoch = accepted
                    self.nodes[switch].handle_ack(epoch)

    def states(self, fresh: bool) -> List[ReplicaState]:
        return self.aggregator.states(fresh)

    def signatures(self, clock: int, nodes: int) -> List[Hashable]:
        """Every node keys on the exact ``(switch, epoch)`` contribution set."""
        return [self.aggregator.signature()] * nodes

    def accounts(self) -> Dict[int, Account]:
        accounts = {}
        for switch in range(len(self.nodes)):
            epoch = self.aggregator.contribution_epoch(switch)
            reason = (
                "no contribution ever delivered"
                if epoch is None
                else f"last contribution at epoch {epoch}"
            )
            accounts[switch] = (self.aggregator.contribution_total(switch), None, epoch, reason)
        return accounts

    @property
    def failed(self) -> List[int]:
        return [switch for switch, alive in enumerate(self.alive) if not alive]

    def runtime_states(self) -> List[dict]:
        raise CheckpointError(
            "a distributed cluster cannot be checkpointed: its switch nodes, "
            "transports and in-flight messages are not part of the checkpoint format"
        )

    def restore_states(self, states: Sequence[dict]) -> None:
        """Refuses like :meth:`runtime_states`."""
        self.runtime_states()

    def counters(self) -> int:
        return sum(node.algorithm.counters() for node in self.nodes)


class DistributedCluster(ShardedHHH):
    """Simulated many-switch deployment behind the one-algorithm interface.

    Args:
        spec: an :class:`~repro.api.specs.ExperimentSpec` with ``distrib``
            set (and ``batch_size``, enforced by the spec).
        hierarchy: the shared hierarchical domain (defaults to building
            ``spec.hierarchy`` from the registry).
        fault_plan: a seeded :class:`~repro.core.faults.FaultPlan` driving
            switch deaths (``kill`` events, ``at_batch`` = dispatch step)
            and, with the simulated transport, message loss, delay and
            reordering (``net_*`` events, ``at_batch`` = the emitting
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
        self._distrib = spec.distrib
        super().__init__(
            spec.algorithm,
            hierarchy if hierarchy is not None else make_hierarchy(spec.hierarchy),
            spec.distrib.switches,
            fault_plan=fault_plan,
        )

    def _build_replicas(self, hierarchy, parallel: bool, start_method: str) -> SwitchFleet:
        return SwitchFleet(
            self._shard_specs, self.hierarchy, self._spec, self._distrib, self._fault_plan
        )

    def bandwidth_report(self) -> Dict[str, object]:
        """Per-switch and cluster-wide shipped-bytes accounting.

        The per-switch ``budget`` is the spec's ``byte_budget`` (total
        shipped bytes per switch over the whole run); ``over_budget`` lists
        the switches exceeding it.
        """
        fleet = self._replicas
        budget = self._distrib.byte_budget
        per_switch = []
        for switch, (node, transport) in enumerate(zip(fleet.nodes, fleet.transports)):
            per_switch.append(
                {
                    "switch": switch,
                    "alive": fleet.alive[switch],
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
            "switches": self._shards,
            "epochs": fleet.epoch,
            "budget_per_switch": budget,
            "per_switch": per_switch,
            "total_bytes": sum(entry["bytes"] for entry in per_switch),
            "max_switch_bytes": max((entry["bytes"] for entry in per_switch), default=0),
            "over_budget": over,
            "messages_accepted": fleet.aggregator.messages_accepted,
            "messages_late": fleet.aggregator.messages_late,
            "deltas_applied": fleet.aggregator.deltas_applied,
        }

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def switches(self) -> int:
        """Cluster size."""
        return self._shards

    @property
    def epoch(self) -> int:
        """Epochs completed so far."""
        return self._replicas.epoch

    @property
    def aggregator(self) -> Aggregator:
        """The receiving end."""
        return self._replicas.aggregator

    @property
    def nodes(self) -> List[SwitchNode]:
        """The switch nodes, by id."""
        return list(self._replicas.nodes)

    @property
    def transports(self) -> List[Transport]:
        """The per-switch transports, by id."""
        return list(self._replicas.transports)

    @property
    def dead_switches(self) -> List[int]:
        """Switches lost to ``kill`` fault events."""
        return self._replicas.failed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedCluster(switches={self._shards}, epoch={self.epoch}, "
            f"N={self._total})"
        )

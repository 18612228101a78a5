"""The aggregator: stores epoch-aligned switch contributions for the merge.

The receiving half of the distributed tier.  An :class:`Aggregator` keeps,
per switch, the newest contribution it accepted (decoded wire state, as
plain data) and hands the decoded contributions to the replica driver's
:class:`~repro.core.shard.LatticeMerger` as the replica states.  Lossy
compression keeps bounds sound: truncation only ever raises upper bounds
(the folded residual), never lower bounds.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.api.specs import AlgorithmSpec
from repro.core.shard import ReplicaState, per_shard_algorithm_spec
from repro.distrib import compress, wire
from repro.exceptions import AlgorithmError, ConfigurationError, WireFormatError
from repro.hierarchy.base import Hierarchy


class Aggregator:
    """Verifies, decodes and stores switch contributions.

    Args:
        algorithm: the cluster-level algorithm spec; the expected wire
            geometry is that of a replica built from it (same per-switch
            sizing as the switches, so merged capacities line up).
        hierarchy: the shared hierarchical domain.
        switches: cluster size.
        top_k: the compression policy in force, part of the expected wire
            geometry (a differently-compressed peer is incompatible).
    """

    def __init__(
        self,
        algorithm: AlgorithmSpec,
        hierarchy: Hierarchy,
        switches: int,
        *,
        top_k: Optional[int] = None,
    ) -> None:
        if not isinstance(switches, int) or isinstance(switches, bool) or switches < 1:
            raise ConfigurationError(f"switches must be a positive integer, got {switches!r}")
        from repro.api.registry import build_algorithm

        self._switches = switches
        self._hierarchy = hierarchy
        replica = build_algorithm(
            per_shard_algorithm_spec(algorithm, algorithm.seed, switches), hierarchy
        )
        self._expected_geometry = wire.algorithm_geometry(replica, hierarchy, top_k=top_k)
        #: per switch: the newest accepted contribution, as plain wire state.
        self._contributions: Dict[int, Dict[str, Any]] = {}
        #: per switch: decoded counters, reused as merge *arguments* (merge
        #: never mutates its argument) until a newer contribution arrives.
        self._decoded: Dict[int, List] = {}
        self.messages_accepted = 0
        self.messages_late = 0
        self.deltas_applied = 0

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    @property
    def switches(self) -> int:
        return self._switches

    @property
    def expected_geometry(self) -> Dict[str, Any]:
        """The wire geometry this aggregator accepts."""
        return dict(self._expected_geometry)

    def contribution_epoch(self, switch: int) -> Optional[int]:
        """The epoch of the stored contribution of ``switch`` (``None`` if none)."""
        stored = self._contributions.get(switch)
        return None if stored is None else stored["epoch"]

    def contribution_total(self, switch: int) -> int:
        """The weight the stored contribution of ``switch`` accounts for (0 if none)."""
        stored = self._contributions.get(switch)
        return 0 if stored is None else stored["total"]

    def ingest(self, raw: bytes) -> Optional[Tuple[int, int]]:
        """Verify, decode and store one wire message.

        Returns ``(switch, epoch)`` when the message was accepted (the
        cluster acknowledges it back to the switch), ``None`` when it was
        late - older than, or a duplicate of, the stored contribution
        (reordered delivery; counted, not an error).

        Raises:
            WireFormatError: broken framing/schema, a delta whose base the
                aggregator does not hold, or a switch id outside the cluster.
            WireCompatibilityError: the message's geometry or protocol
                version does not match this aggregator.
        """
        message = wire.decode_message(raw)
        wire.check_geometry(self._expected_geometry, message["geometry"])
        switch = int(message["switch"])
        if not 0 <= switch < self._switches:
            raise WireFormatError(
                f"wire message names switch {switch}, cluster has {self._switches} switches"
            )
        epoch = int(message["epoch"])
        stored = self._contributions.get(switch)
        if stored is not None and epoch <= stored["epoch"]:
            self.messages_late += 1
            return None
        nodes = message["nodes"]
        if len(nodes) != self._hierarchy.size:
            raise WireFormatError(
                f"wire message carries {len(nodes)} node states, "
                f"lattice has {self._hierarchy.size} nodes"
            )
        if message["kind"] == wire.KIND_DELTA:
            base_epoch = int(message["base_epoch"])
            if stored is None or stored["epoch"] != base_epoch:
                held = None if stored is None else stored["epoch"]
                raise WireFormatError(
                    f"delta from switch {switch} is based on epoch {base_epoch}, "
                    f"aggregator holds epoch {held}"
                )
            nodes = [
                compress.delta_decode(delta, base)
                for delta, base in zip(nodes, stored["nodes"])
            ]
            self.deltas_applied += 1
        self._contributions[switch] = {
            "epoch": epoch,
            "total": int(message["total"]),
            "nodes": nodes,
        }
        self._decoded.pop(switch, None)
        self.messages_accepted += 1
        return switch, epoch

    # ------------------------------------------------------------------ #
    # the merger's replica states
    # ------------------------------------------------------------------ #

    def _decode(self, switch: int) -> List:
        return [wire.decode_counter_state(state) for state in self._contributions[switch]["nodes"]]

    def states(self, fresh: bool) -> List[ReplicaState]:
        """Decoded contributions in switch-id order (the merger's replica states).

        The first switch's counters become the merge target, so they are
        decoded fresh on every call; the others reuse their cached decodes
        unless the merger asks for ``fresh`` states (its from-scratch
        reference), which therefore also checks the decode cache.
        """
        if not self._contributions:
            raise AlgorithmError(
                "the aggregator holds no switch contributions; nothing was "
                "delivered (or every emission was lost)"
            )
        decoded = {} if fresh else self._decoded
        first, *rest = sorted(self._contributions)
        states = [(self._contributions[first]["total"], self._decode(first))]
        for switch in rest:
            if switch not in decoded:
                decoded[switch] = self._decode(switch)
            states.append((self._contributions[switch]["total"], decoded[switch]))
        return states

    def signature(self) -> Hashable:
        """The exact ``(switch, epoch)`` contribution set; equal means an unchanged merge."""
        return tuple(
            sorted((switch, state["epoch"]) for switch, state in self._contributions.items())
        )

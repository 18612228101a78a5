"""The per-switch half of the distributed tier: local state, periodic emission.

A :class:`SwitchNode` is one simulated vswitch: a replica of the
deployment's algorithm built exactly like a serial shard of
:class:`~repro.core.shard.ShardedHHH` (spawned seed, divided memory budget),
fed the sub-stream of keys routed to it, which once per epoch emits its
counter state as a framed wire message - compressed by the policy in force
(top-k truncation, delta encoding against the last epoch the aggregator
acknowledged).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.api.specs import AlgorithmSpec
from repro.core.shard import per_shard_algorithm_spec
from repro.distrib import compress, wire


class SwitchNode:
    """One simulated vswitch: a local replica plus the emission protocol.

    Args:
        switch_id: this switch's id in the cluster (the wire ``switch`` field).
        algorithm: the cluster-level algorithm spec.
        seed: this switch's spawned RNG seed.
        switches: cluster size (drives the per-replica memory division).
        hierarchy: the shared hierarchical domain instance.
        top_k: per-node truncation limit shipped state is compressed to.
        delta: delta-encode against the last acked epoch when possible.
    """

    def __init__(
        self,
        switch_id: int,
        algorithm: AlgorithmSpec,
        seed: Optional[int],
        switches: int,
        *,
        hierarchy,
        top_k: Optional[int] = None,
        delta: bool = True,
    ) -> None:
        from repro.api.registry import build_algorithm

        self._id = int(switch_id)
        self._top_k = top_k
        self._delta = bool(delta)
        self._algorithm = build_algorithm(
            per_shard_algorithm_spec(algorithm, seed, switches), hierarchy
        )
        self._geometry = wire.algorithm_geometry(self._algorithm, hierarchy, top_k=top_k)
        #: compressed node states of epochs emitted but not yet acked.
        self._pending: Dict[int, List[Dict[str, Any]]] = {}
        #: the last state the aggregator confirmed holding - the delta base.
        self._acked_epoch: Optional[int] = None
        self._acked_states: Optional[List[Dict[str, Any]]] = None
        self.snapshots_emitted = 0
        self.deltas_emitted = 0

    # ------------------------------------------------------------------ #
    # local stream
    # ------------------------------------------------------------------ #

    @property
    def switch_id(self) -> int:
        return self._id

    @property
    def algorithm(self):
        """The switch's local algorithm replica."""
        return self._algorithm

    @property
    def total(self) -> int:
        """Packets this switch has observed locally."""
        return self._algorithm.total

    @property
    def geometry(self) -> Dict[str, Any]:
        """The wire geometry this switch stamps on every message."""
        return dict(self._geometry)

    def observe(self, keys: Sequence, weights=None) -> None:
        """Feed a batch of this switch's sub-stream into the local algorithm."""
        self._algorithm.update_batch(keys, weights)

    def observe_one(self, key, weight: int = 1) -> None:
        """Feed one packet (the per-packet route)."""
        self._algorithm.update(key, weight)

    # ------------------------------------------------------------------ #
    # emission protocol
    # ------------------------------------------------------------------ #

    def emit(self, epoch: int) -> bytes:
        """Frame this epoch's emission: compressed snapshot, or delta if possible.

        The compressed (post-truncation) states are remembered under
        ``epoch`` so a later acknowledgement can promote them to the delta
        base - deltas are always computed against state the aggregator
        confirmed holding, never against an emission that may have been
        lost in flight.
        """
        algorithm = self._algorithm
        states = [wire.encode_counter_state(counter) for counter in algorithm._counters]
        compressed = [compress.truncate_counter_state(state, self._top_k) for state in states]
        self._pending[int(epoch)] = compressed
        if (
            self._delta
            and self._acked_states is not None
            and compress.is_delta_capable(compressed)
            and compress.is_delta_capable(self._acked_states)
        ):
            nodes = [
                compress.delta_encode(state, base)
                for state, base in zip(compressed, self._acked_states)
            ]
            self.deltas_emitted += 1
            return wire.encode_message(
                kind=wire.KIND_DELTA,
                switch=self._id,
                epoch=epoch,
                base_epoch=self._acked_epoch,
                geometry=self._geometry,
                total=algorithm.total,
                nodes=nodes,
            )
        self.snapshots_emitted += 1
        return wire.encode_message(
            kind=wire.KIND_SNAPSHOT,
            switch=self._id,
            epoch=epoch,
            geometry=self._geometry,
            total=algorithm.total,
            nodes=compressed,
        )

    def handle_ack(self, epoch: int) -> None:
        """The aggregator confirmed holding ``epoch``; it becomes the delta base."""
        epoch = int(epoch)
        states = self._pending.get(epoch)
        if states is None:
            return
        self._acked_epoch = epoch
        self._acked_states = states
        # Anything at or before the acked epoch can never become a base.
        self._pending = {e: s for e, s in self._pending.items() if e > epoch}

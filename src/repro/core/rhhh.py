"""Randomized Hierarchical Heavy Hitters (Algorithm 1 of the paper).

An RHHH instance keeps one counter summary (Space Saving by default) per
lattice node.  On every packet it draws a uniform integer ``d`` in
``[0, V)``; when ``d < H`` it updates the single counter instance of lattice
node ``d`` with the packet's key masked to that node, otherwise it ignores the
packet.  The worst-case per-packet work is therefore a single O(1) counter
update regardless of the hierarchy size - the paper's headline contribution.

The Output procedure rescales every counter value by ``V`` (each node sees a
roughly ``1/V`` sample of the stream) and adds the sampling-error correction
``2 Z_{1-delta} sqrt(N V)`` to each conditioned-frequency estimate so that the
coverage guarantee of Definition 10 holds once ``N`` exceeds the convergence
bound ``psi``.

The class also implements the multi-update variant of Corollary 6.8
(``updates_per_packet = r > 1``), which converges ``r`` times faster at the
cost of ``r`` counter updates per packet.

Next to RHHH lives :class:`LatticeHHH`, the base RHHH shares with the
lattice baselines (:class:`~repro.hhh.mst.MST`,
:class:`~repro.hhh.sampled_mst.SampledMST`): per-node counters, generalizers,
version counters and the one batch core.  Every query ends in the array
Output pass, :func:`~repro.core.output.lattice_output`.  A lattice
algorithm's batch update differs from another's only in which (packet, node)
pairs get a counter update, so each subclass states just that choice, as
:meth:`LatticeHHH._plan`; masking, duplicate aggregation, the ascending-key
feed and the version bumps are written once, here, for the vectorized path
and for its scalar twin.
"""

from __future__ import annotations

import abc
import random
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.bounds import coverage_correction
from repro.core.base import HHHAlgorithm, HHHOutput
from repro.core.batch import (
    aggregated_arrays,
    check_weight,
    coerce_weights,
    feed_counter,
    feed_counter_reference,
    group_by_node,
    hierarchy_key_array,
)
from repro.core.config import RHHHConfig
from repro.core.output import (
    CounterLike,
    lattice_output,
    prepare_counter_factory,
    validate_theta,
)
from repro.exceptions import ConfigurationError, HierarchyError
from repro.hh.array_space_saving import pack_keys
from repro.hh.base import DEFAULT_COUNTER, CounterAlgorithm
from repro.hierarchy.base import Hierarchy

#: One group of a batch plan: a lattice node and the batch rows it counts
#: (``None`` for every row).  A row listed twice is counted twice.
PlanGroup = Tuple[int, Optional[np.ndarray]]


class LatticeHHH(HHHAlgorithm):
    """An HHH algorithm keeping one counter summary per lattice node.

    Owns the state RHHH, MST and SampledMST share: the per-node counters
    (built from one resolved counter factory), the scalar generalizers, the
    packed mask table, and the per-node version counters that stamp every
    counter update.

    Subclasses implement :meth:`query`, their Output over explicit state
    (:meth:`output` runs it over the algorithm's own), and :meth:`_plan`,
    which packets of a batch update which nodes; :meth:`update_batch` and
    its scalar twin :meth:`update_batch_reference` apply any plan the same
    way.

    Args:
        hierarchy: the hierarchical domain.
        counter: the per-node counter backend (name, CounterSpec or factory).
        epsilon: the per-counter error target handed to the factory.
    """

    def __init__(self, hierarchy: Hierarchy, counter: CounterLike, epsilon: float) -> None:
        super().__init__(hierarchy)
        counter_factory = prepare_counter_factory(counter, epsilon)
        self._counters: List[CounterAlgorithm] = [counter_factory() for _ in range(hierarchy.size)]
        self._generalizers = hierarchy.compile_generalizers()
        self._packed_masks = hierarchy.compile_packed_masks()
        if self._packed_masks is not None:
            # Node 0 is fully specified: its mask is the hierarchy's domain,
            # per dimension (``src`` and ``dst`` halves of a packed pair).
            full = int(self._packed_masks[0])
            pair = self._packed_masks.dtype == np.uint64
            self._domain = np.array([full >> 32, full & 0xFFFFFFFF] if pair else full, dtype=np.uint64)
        #: Per-lattice-node update counters: every counter update bumps its
        #: node.  In-process replicas hand them to the merger as merge
        #: signatures (an unchanged stamp means an unchanged node).
        self._versions: List[int] = [0] * hierarchy.size

    def _bump_versions(self) -> None:
        """Mark every node dirty (an update that touched the whole lattice)."""
        versions = self._versions
        for node in range(len(versions)):
            versions[node] += 1

    @abc.abstractmethod
    def _plan(self, n: int) -> Iterable[PlanGroup]:
        """Route the next ``n`` packets: ``(node, rows)`` groups in ascending node order.

        Draws from the algorithm's batch RNG and updates its own sampling
        tallies.  Both batch paths call it exactly once per non-empty batch,
        so they consume the RNG stream identically.
        """

    def update_batch(self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None) -> None:
        """Vectorized batch update: the packets :meth:`_plan` routes to each node.

        An integer batch is packed once (:meth:`_pack`) and applied by
        :meth:`update_packed`.  Random plans draw from the batch RNG, not the
        per-packet ``random.Random``, so a batch-fed and an update()-fed
        instance diverge even with equal seeds.
        :meth:`update_batch_reference` replays the same semantics with
        scalar loops and is bit-identical; batches that do not pack (keys
        numpy cannot hold, hierarchies without a packed mask table) take that
        scalar path here too.  A batch that cannot be keys of the hierarchy
        raises :class:`~repro.exceptions.HierarchyError` before any state
        moves.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        keys_arr = hierarchy_key_array(keys, self._hierarchy)
        packed = None if keys_arr is None else self._pack(keys_arr)
        if packed is not None:
            self.update_packed(packed, weights_arr)
            return
        plan = self._plan(n)
        self._total += total_weight
        self._apply_plan_reference(keys, weights_arr, plan)

    def update_packed(self, packed: np.ndarray, weights: Optional[Sequence[int]] = None) -> None:
        """:meth:`update_batch` for a batch already in the packed key form :meth:`_pack` returns.

        Each node's group is masked with one AND on the packed integers,
        duplicate masked keys collapse into one weighted update per distinct
        key, fed in ascending key order, and the node's version moves.  The
        sharded driver packs a batch once and ships each replica its packed
        part, so a replica neither checks nor packs it again.
        """
        n = len(packed)
        if n == 0:
            return
        if self._packed_masks is None or packed.dtype != self._packed_masks.dtype:
            raise HierarchyError(
                f"{self._hierarchy.name} has no packed key form of dtype {packed.dtype}"
            )
        weights_arr, total_weight = coerce_weights(weights, n)
        plan = self._plan(n)
        self._total += total_weight
        for node, rows in plan:
            group = packed if rows is None else packed[rows]
            group_weights = weights_arr if rows is None or weights_arr is None else weights_arr[rows]
            feed_counter(self._counters[node], group & self._packed_masks[node], group_weights)
            self._versions[node] += 1

    def _pack(self, keys_arr: np.ndarray) -> Optional[np.ndarray]:
        """A checked integer batch in the packed key form, or ``None`` without a packed mask table.

        The packed keys are reduced to the hierarchy's domain (``key & full``
        per dimension: the low bits Python's ``index(key) & mask`` keeps,
        negative keys included).  Every node mask is a sub-mask of the fully
        specified node's, so a reduced key masks to the same key at every
        node, and keys that reduce alike are one key to the shard router
        too.  A batch that packs as it is is reduced with one AND on the
        packed keys; any other is reduced per dimension in uint64 first, and
        then always packs.
        """
        if self._packed_masks is None:
            return None
        packed = pack_keys(keys_arr)
        if packed is None:
            return pack_keys(keys_arr.astype(np.uint64) & self._domain)
        return packed & self._packed_masks[0]

    def update_batch_reference(
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Scalar specification of :meth:`update_batch` (pure-Python loops).

        Checks the batch the same way, takes the same plan from the same RNG
        draws, aggregates each group in a per-key dictionary with the scalar
        generalizers and feeds it in ascending key order; a same-seed
        instance fed through either method reaches a bit-identical state.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        hierarchy_key_array(keys, self._hierarchy)
        plan = self._plan(n)
        self._total += total_weight
        self._apply_plan_reference(keys, weights_arr, plan)

    def _apply_plan_reference(
        self, keys: Sequence[Hashable], weights_arr: Optional[np.ndarray], plan: Iterable[PlanGroup]
    ) -> None:
        """Apply a batch plan with the scalar generalizers, dict aggregation and scalar feeds."""
        key_list = list(self._iter_batch_keys(keys))
        for node, rows in plan:
            generalize = self._generalizers[node]
            group = key_list if rows is None else map(key_list.__getitem__, rows.tolist())
            group_weights = weights_arr if rows is None or weights_arr is None else weights_arr[rows]
            masked, totals = aggregated_arrays(map(generalize, group), group_weights)
            feed_counter_reference(self._counters[node], list(zip(masked, totals.tolist())))
            self._versions[node] += 1

    @abc.abstractmethod
    def query(
        self,
        theta: float,
        counters: Sequence[CounterAlgorithm],
        total: int,
        lost: float = 0.0,
    ) -> HHHOutput:
        """This algorithm's Output over the given lattice state.

        Args:
            theta: threshold fraction.
            counters: one counter summary per lattice node.
            total: stream length ``N``, including ``lost``.
            lost: stream weight no counter accounts for (a lost shard or
                switch); every conditioned estimate gains it, so any prefix
                the missing weight could have pushed over ``theta * N``
                still clears the threshold.
        """

    def output(self, theta: float) -> HHHOutput:
        return self.query(theta, self._counters, self._total)

    def counters(self) -> int:
        return sum(c.counters() for c in self._counters)

    def node_counter(self, node: int) -> CounterAlgorithm:
        """Return the counter summary of lattice node ``node`` (for tests and diagnostics)."""
        return self._counters[node]


class RHHH(LatticeHHH):
    """The paper's randomized constant-time HHH algorithm.

    Args:
        hierarchy: the hierarchical domain (1-D or 2-D).
        config: a fully specified :class:`~repro.core.config.RHHHConfig`.  When
            omitted, one is built from the keyword arguments below.
        epsilon: overall accuracy target (ignored when ``config`` is given).
        delta: overall confidence target (ignored when ``config`` is given).
        v: the performance parameter ``V``; ``None`` means ``V = H`` and
            ``v = 10 * H`` reproduces the paper's "10-RHHH".
        counter: the per-node counter backend - a registered backend name, a
            :class:`~repro.api.specs.CounterSpec` (explicit sketch sizes,
            memory-budget auto-selection, ...), or a bare
            ``factory(epsilon) -> CounterAlgorithm`` callable.
        seed: RNG seed for reproducible experiments.
        updates_per_packet: the ``r`` of Corollary 6.8 (default 1).
    """

    name = "rhhh"

    def __init__(
        self,
        hierarchy: Hierarchy,
        config: Optional[RHHHConfig] = None,
        *,
        epsilon: float = 0.001,
        delta: float = 0.001,
        v: Optional[int] = None,
        counter: CounterLike = DEFAULT_COUNTER,
        seed: Optional[int] = None,
        updates_per_packet: int = 1,
    ) -> None:
        if config is None:
            config = RHHHConfig(
                h=hierarchy.size, epsilon=epsilon, delta=delta, v=v, counter=counter, seed=seed
            )
        elif config.h != hierarchy.size:
            raise ConfigurationError(
                f"config.h ({config.h}) does not match the hierarchy size ({hierarchy.size})"
            )
        if updates_per_packet < 1:
            raise ConfigurationError(f"updates_per_packet must be >= 1, got {updates_per_packet}")
        super().__init__(hierarchy, config.counter, config.counter_epsilon)
        self._config = config
        self._r = updates_per_packet
        self._rng = random.Random(config.seed)
        self._v = config.effective_v
        self._h = hierarchy.size
        # The batch path pre-draws node choices with a numpy Generator: an
        # independent (but equally seeded, hence reproducible) RNG stream from
        # the per-packet random.Random used by update().
        self._batch_rng = np.random.default_rng(config.seed)
        self._ignored = 0
        self._update_calls = 0

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #

    def update(self, key: Hashable, weight: int = 1) -> None:
        """Process one packet: update at most ``updates_per_packet`` random lattice nodes."""
        check_weight(weight)
        self._total += weight
        randrange = self._rng.randrange
        v = self._v
        h = self._h
        for _ in range(self._r):
            d = randrange(v)
            if d < h:
                self._counters[d].update(self._generalizers[d](key), weight)
                self._versions[d] += 1
                self._update_calls += 1
            else:
                self._ignored += 1

    # ------------------------------------------------------------------ #
    # batch stream processing
    # ------------------------------------------------------------------ #

    def _plan(self, n: int) -> Iterable[PlanGroup]:
        """One uniform draw from ``[0, V)`` per update; ``d < H`` updates node ``d``.

        The ``n * r`` draws come from one RNG call, packet-major (packet
        ``i``'s draws are ``i*r .. i*r + r - 1``), the order of the per-packet
        loop.  Draws ``d >= H`` are ignored in bulk.
        """
        draws = self._batch_rng.integers(0, self._v, size=n * self._r)
        survive = draws < self._h
        survived = int(survive.sum())
        self._ignored += draws.size - survived
        self._update_calls += survived
        if survived == 0:
            return ()
        if self._r > 1:
            rows = np.repeat(np.arange(n), self._r)[survive]
        else:
            rows = np.flatnonzero(survive)
        return group_by_node(draws[survive], rows)

    # Defined here, not inherited: perfbench's tracer hooks ``RHHH.update_batch`` by name.
    def update_batch(self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None) -> None:
        """Algorithm 1 over a whole batch (see :meth:`LatticeHHH.update_batch`)."""
        super().update_batch(keys, weights)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    # Defined here, not inherited: perfbench's tracer hooks ``RHHH.output`` by name.
    def output(self, theta: float) -> HHHOutput:
        """Return the approximate HHH set for threshold fraction ``theta`` (Algorithm 1, Output)."""
        return self.query(theta, self._counters, self._total)

    def query(
        self,
        theta: float,
        counters: Sequence[CounterAlgorithm],
        total: int,
        lost: float = 0.0,
    ) -> HHHOutput:
        """Algorithm 1's Output: counters scaled by ``V``, plus ``2 Z sqrt(N V)``."""
        theta = validate_theta(theta)
        correction = (
            coverage_correction(total * self._r, self._v, self._config.delta) / self._r
            if total > 0
            else 0.0
        ) + lost
        return lattice_output(
            self._hierarchy,
            counters,
            theta,
            total,
            scale=self._v / self._r,
            correction=correction,
        )

    def frequency_estimate(self, key: Hashable, node: int = 0) -> float:
        """Estimate the frequency of ``key`` masked to lattice node ``node``."""
        value = self._hierarchy.generalize(key, node)
        return self._counters[node].estimate(value) * self._v / self._r

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> RHHHConfig:
        """The resolved configuration of this instance."""
        return self._config

    @property
    def v(self) -> int:
        """The performance parameter ``V``."""
        return self._v

    @property
    def updates_per_packet(self) -> int:
        """The ``r`` of the multi-update variant (1 for plain RHHH)."""
        return self._r

    @property
    def ignored_packets(self) -> int:
        """Packets that drew ``d >= H`` and therefore updated nothing."""
        return self._ignored

    @property
    def counter_updates(self) -> int:
        """Total number of counter updates performed so far."""
        return self._update_calls

    @property
    def is_converged(self) -> bool:
        """True when the stream has exceeded the convergence bound ``psi`` (Theorem 6.17)."""
        return self._config.is_converged(self._total * self._r)

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
"""

from __future__ import annotations

import random
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.analysis.bounds import coverage_correction
from repro.core.base import HHHOutput
from repro.core.batch import (
    check_weight,
    coerce_key_array,
    coerce_weights,
    feed_counter,
    feed_counter_reference,
    group_by_node,
    sorted_pairs,
)
from repro.core.config import RHHHConfig
from repro.core.output import CounterLike, LatticeHHH, OutputCache, lattice_output, validate_theta
from repro.exceptions import ConfigurationError
from repro.hh.base import DEFAULT_COUNTER, CounterAlgorithm
from repro.hierarchy.base import Hierarchy


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
        # the per-packet random.Random used by update()/update_fast().
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

    def update_fast(self, key: Hashable) -> None:
        """Single-update unit-weight fast path used by the speed benchmarks.

        Functionally identical to ``update(key)`` with ``updates_per_packet=1``
        and ``weight=1``, but avoids the bookkeeping attributes to stay as
        close as a pure-Python implementation can to the per-packet cost of
        the paper's C implementation.
        """
        self._total += 1
        d = self._rng.randrange(self._v)
        if d < self._h:
            self._counters[d].update(self._generalizers[d](key), 1)
            self._versions[d] += 1

    # ------------------------------------------------------------------ #
    # batch stream processing
    # ------------------------------------------------------------------ #

    def _draw_nodes(self, count: int) -> np.ndarray:
        """Pre-draw the node choices of ``count * r`` updates in one RNG call.

        The draws are laid out packet-major: packet ``i``'s ``r`` draws occupy
        indices ``i*r .. i*r + r - 1``, matching the nested loop order of the
        scalar reference.  Both batch paths share this helper so they consume
        the RNG stream identically.
        """
        return self._batch_rng.integers(0, self._v, size=count * self._r)

    def update_batch(self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None) -> None:
        """Vectorized batch update (the paper's Algorithm 1, amortized).

        For every packet (and each of its ``r`` updates) a node choice ``d``
        is pre-drawn uniformly from ``[0, V)`` in a single numpy call; the
        ``d >= H`` ignores are discarded in bulk; surviving packets are
        grouped by lattice node; each group's keys are masked with the
        hierarchy's vectorized batch generalizers; and duplicate masked keys
        are pre-aggregated so every counter sees one weighted update per
        distinct key, applied in ascending key order.

        The sampling process is identical in distribution to a per-packet
        :meth:`update` loop, but the node choices come from this instance's
        numpy Generator rather than its ``random.Random``, so a batch-fed
        instance and an update()-fed instance diverge even with equal seeds.
        :meth:`update_batch_reference` replays the exact batch semantics with
        scalar loops and is bit-identical to this method for equal seeds.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        keys_arr = coerce_key_array(keys, n)
        if keys_arr is None:
            # Non-numeric keys: vectorized masking does not apply, but the
            # batch semantics (and RNG consumption) must stay identical.
            self._apply_batch_scalar(list(keys), weights_arr, self._draw_nodes(n))
            self._total += total_weight
            return
        draws = self._draw_nodes(n)
        self._total += total_weight
        survive = draws < self._h
        survived = int(survive.sum())
        self._ignored += draws.size - survived
        self._update_calls += survived
        if survived == 0:
            return
        nodes = draws[survive]
        if self._r > 1:
            chosen = np.repeat(np.arange(n), self._r)[survive]
        else:
            chosen = np.flatnonzero(survive)
        for node, packet_ids in group_by_node(nodes, chosen):
            masked = self._batch_generalizers[node](keys_arr[packet_ids])
            group_weights = weights_arr[packet_ids] if weights_arr is not None else None
            feed_counter(self._counters[node], masked, group_weights)
            self._versions[node] += 1

    def update_batch_reference(
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Scalar specification of :meth:`update_batch` (pure-Python loops).

        Consumes the same pre-drawn node choices and applies the same
        group-by-node / aggregate-duplicates / ascending-key-order semantics,
        but with per-key dictionaries and scalar generalizers and counter
        updates.  A same-seed instance fed through either method reaches a
        bit-identical state; the equivalence tests rely on this.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        draws = self._draw_nodes(n)
        self._total += total_weight
        self._apply_batch_scalar(keys, weights_arr, draws)

    def _apply_batch_scalar(self, keys, weights_arr, draws) -> None:
        """Apply pre-drawn node choices to a batch with scalar loops."""
        h = self._h
        r = self._r
        weight_list = weights_arr.tolist() if weights_arr is not None else None
        per_node: dict = {}
        survived = 0
        ignored = 0
        for i, key in enumerate(self._iter_batch_keys(keys)):
            weight = weight_list[i] if weight_list is not None else 1
            for j in range(r):
                d = int(draws[i * r + j])
                if d >= h:
                    ignored += 1
                    continue
                survived += 1
                masked = self._generalizers[d](key)
                aggregate = per_node.setdefault(d, {})
                aggregate[masked] = aggregate.get(masked, 0) + weight
        self._ignored += ignored
        self._update_calls += survived
        for node in sorted(per_node):
            feed_counter_reference(self._counters[node], sorted_pairs(per_node[node]))
            self._versions[node] += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    # Defined here, not inherited: perfbench's tracer hooks ``RHHH.output`` by name.
    def output(self, theta: float) -> HHHOutput:
        """Return the approximate HHH set for threshold fraction ``theta`` (Algorithm 1, Output)."""
        return self.query(theta, self._counters, self._total, self._versions, self._output_cache)

    def query(
        self,
        theta: float,
        counters: Sequence[CounterAlgorithm],
        total: int,
        versions: Optional[Sequence[int]],
        cache: Optional[OutputCache],
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
            versions=versions,
            cache=cache,
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

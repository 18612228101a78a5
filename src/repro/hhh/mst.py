"""The MST baseline [Mitzenmacher, Steinke, Thaler - ALENEX 2012].

MST keeps one Space Saving instance per lattice node and updates **every**
instance on every packet, which gives deterministic error guarantees at an
O(H) per-packet cost - the cost RHHH removes.  The Output procedure is the
same lattice scan as RHHH's, with no rescaling and no sampling-error
correction.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from repro.core.base import HHHOutput
from repro.core.batch import (
    apply_lattice_batch,
    apply_lattice_batch_scalar,
    check_weight,
    coerce_key_array,
    coerce_weights,
)
from repro.core.output import CounterLike, LatticeHHH, OutputCache, lattice_output, validate_theta
from repro.exceptions import ConfigurationError
from repro.hh.base import DEFAULT_COUNTER, CounterAlgorithm
from repro.hierarchy.base import Hierarchy


class MST(LatticeHHH):
    """Deterministic lattice-of-Space-Saving HHH (update cost O(H) per packet).

    Args:
        hierarchy: the hierarchical domain.
        epsilon: per-prefix accuracy target (each node gets ``1/epsilon`` counters).
        counter: the per-node counter backend (name, CounterSpec or factory).
    """

    name = "mst"

    def __init__(
        self, hierarchy: Hierarchy, *, epsilon: float = 0.001, counter: CounterLike = DEFAULT_COUNTER
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        # MST touches every node on every packet, so the per-node versions
        # move in lockstep - kept per node for the uniform Output contract.
        super().__init__(hierarchy, counter, epsilon)
        self._epsilon = epsilon

    @property
    def epsilon(self) -> float:
        """Configured per-prefix accuracy target."""
        return self._epsilon

    def update(self, key: Hashable, weight: int = 1) -> None:
        """Update the counter summary of every lattice node (O(H) work)."""
        check_weight(weight)
        self._total += weight
        counters = self._counters
        for node, generalize in enumerate(self._generalizers):
            counters[node].update(generalize(key), weight)
        self._bump_versions()

    def update_batch(
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Vectorized batch update: every node sees every packet, pre-aggregated.

        Each node's batch generalizer masks the whole key array at once and
        duplicate masked keys collapse into one weighted update per distinct
        key, applied in ascending key order.  The per-node counter totals
        match a per-packet :meth:`update` loop exactly; the counter summaries
        themselves can differ in eviction choices because aggregation
        reorders same-node updates - :meth:`update_batch_reference` replays
        the exact batch semantics with scalar loops and is bit-identical to
        this method.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        keys_arr = coerce_key_array(keys, n)
        self._total += total_weight
        self._bump_versions()
        if keys_arr is None:
            # Keys numpy cannot mask vectorially: same batch semantics
            # (aggregate per node, ascending key order), scalar machinery.
            apply_lattice_batch_scalar(
                self._counters,
                self._generalizers,
                list(self._iter_batch_keys(keys)),
                weights_arr,
            )
            return
        apply_lattice_batch(self._counters, self._batch_generalizers, keys_arr, weights_arr)

    def update_batch_reference(
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Scalar specification of :meth:`update_batch` (pure-Python loops).

        Aggregates with per-node dictionaries and applies plain ``update``
        calls in ascending key order; a same-stream instance fed through
        either method reaches a bit-identical state.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        self._total += total_weight
        self._bump_versions()
        apply_lattice_batch_scalar(
            self._counters, self._generalizers, list(self._iter_batch_keys(keys)), weights_arr
        )

    def query(
        self,
        theta: float,
        counters: Sequence[CounterAlgorithm],
        total: int,
        versions: Optional[Sequence[int]],
        cache: Optional[OutputCache],
        lost: float = 0.0,
    ) -> HHHOutput:
        """The lattice Output unscaled, with no sampling correction."""
        theta = validate_theta(theta)
        return lattice_output(
            self._hierarchy, counters, theta, total, correction=lost, versions=versions, cache=cache
        )

    def frequency_estimate(self, key: Hashable, node: int = 0) -> float:
        """Estimate the frequency of ``key`` masked to lattice node ``node``."""
        value = self._hierarchy.generalize(key, node)
        return self._counters[node].estimate(value)

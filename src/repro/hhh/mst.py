"""The MST baseline [Mitzenmacher, Steinke, Thaler - ALENEX 2012].

MST keeps one Space Saving instance per lattice node and updates **every**
instance on every packet, which gives deterministic error guarantees at an
O(H) per-packet cost - the cost RHHH removes.  The Output procedure is the
same lattice scan as RHHH's, with no rescaling and no sampling-error
correction.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.core.base import HHHOutput
from repro.core.batch import check_weight
from repro.core.output import CounterLike, lattice_output, validate_theta
from repro.core.rhhh import LatticeHHH, PlanGroup
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
        # move in lockstep - kept per node like every lattice algorithm's.
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

    def _plan(self, n: int) -> Iterable[PlanGroup]:
        """Every node counts every packet of the batch."""
        return [(node, None) for node in range(self._hierarchy.size)]

    def query(
        self,
        theta: float,
        counters: Sequence[CounterAlgorithm],
        total: int,
        lost: float = 0.0,
    ) -> HHHOutput:
        """The lattice Output unscaled, with no sampling correction."""
        theta = validate_theta(theta)
        return lattice_output(self._hierarchy, counters, theta, total, correction=lost)

    def frequency_estimate(self, key: Hashable, node: int = 0) -> float:
        """Estimate the frequency of ``key`` masked to lattice node ``node``."""
        value = self._hierarchy.generalize(key, node)
        return self._counters[node].estimate(value)

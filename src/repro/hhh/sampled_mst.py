"""The naive-sampling strawman discussed in the paper's introduction.

Instead of updating one random lattice node per packet (RHHH), one could
sample each packet with probability ``H / V`` and run the full O(H) MST update
on the sampled packets.  The *amortized* cost matches RHHH but the worst case
stays Theta(H): an unlucky packet pays for the whole hierarchy.  The paper
argues this matters inside a data path (victim packets, buffer overflow) and
for NFV schedulers; the class exists so the benchmarks can quantify exactly
that tail-latency difference (``benchmarks/bench_ablation_worst_case.py``).
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from repro.analysis.bounds import coverage_correction
from repro.core.base import HHHOutput
from repro.core.batch import check_weight
from repro.core.determinism import resolve_seed
from repro.core.output import CounterLike, lattice_output, validate_theta
from repro.core.rhhh import LatticeHHH, PlanGroup
from repro.exceptions import ConfigurationError
from repro.hh.base import DEFAULT_COUNTER, CounterAlgorithm
from repro.hierarchy.base import Hierarchy


class SampledMST(LatticeHHH):
    """Packet-sampled MST: amortized O(1), worst case Theta(H).

    Args:
        hierarchy: the hierarchical domain.
        epsilon: per-prefix accuracy target for the counter instances.
        delta: confidence parameter used for the sampling correction.
        sampling_probability: probability of processing a packet; defaults to
            ``1 / H`` so the expected per-packet work matches RHHH with
            ``V = H``.
        counter: the per-node counter backend (name, CounterSpec or factory).
        seed: RNG seed for reproducibility.
    """

    name = "sampled_mst"

    def __init__(
        self,
        hierarchy: Hierarchy,
        *,
        epsilon: float = 0.001,
        delta: float = 0.001,
        sampling_probability: Optional[float] = None,
        counter: CounterLike = DEFAULT_COUNTER,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if sampling_probability is None:
            sampling_probability = 1.0 / hierarchy.size
        if not 0.0 < sampling_probability <= 1.0:
            raise ConfigurationError(
                f"sampling_probability must be in (0, 1], got {sampling_probability}"
            )
        super().__init__(hierarchy, counter, epsilon)
        self._epsilon = epsilon
        self._delta = delta
        self._p = sampling_probability
        self._rng = random.Random(resolve_seed(seed))
        # The batch path pre-draws its coin flips with a numpy Generator: an
        # independent (but equally seeded, hence reproducible) RNG stream
        # from the per-packet random.Random used by update().
        self._batch_rng = np.random.default_rng(resolve_seed(seed))
        self._sampled = 0

    @property
    def sampling_probability(self) -> float:
        """Probability of running the full MST update on a packet."""
        return self._p

    @property
    def sampled_packets(self) -> int:
        """Number of packets that triggered the full update."""
        return self._sampled

    def update(self, key: Hashable, weight: int = 1) -> None:
        """Flip a coin; on success run the full O(H) MST update."""
        check_weight(weight)
        self._total += weight
        if self._rng.random() >= self._p:
            return
        self._sampled += 1
        counters = self._counters
        for node, generalize in enumerate(self._generalizers):
            counters[node].update(generalize(key), weight)
        self._bump_versions()

    def _plan(self, n: int) -> Iterable[PlanGroup]:
        """One coin per packet, drawn in one RNG call; every node counts the sampled rows."""
        rows = np.flatnonzero(self._batch_rng.random(n) < self._p)
        if rows.size == 0:
            return ()
        self._sampled += int(rows.size)
        return [(node, rows) for node in range(self._hierarchy.size)]

    def query(
        self,
        theta: float,
        counters: Sequence[CounterAlgorithm],
        total: int,
        lost: float = 0.0,
    ) -> HHHOutput:
        """The lattice Output scaled by ``1/p``, plus the sampling correction."""
        theta = validate_theta(theta)
        scale = 1.0 / self._p
        correction = (coverage_correction(total, scale, self._delta) if total else 0.0) + lost
        return lattice_output(
            self._hierarchy,
            counters,
            theta,
            total,
            scale=scale,
            correction=correction,
        )

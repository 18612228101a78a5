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
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.analysis.bounds import coverage_correction
from repro.core.base import HHHOutput
from repro.core.batch import (
    apply_lattice_batch,
    apply_lattice_batch_scalar,
    check_weight,
    coerce_key_array,
    coerce_weights,
)
from repro.core.determinism import resolve_seed
from repro.core.output import CounterLike, LatticeHHH, OutputCache, lattice_output, validate_theta
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

    def _draw_samples(self, count: int) -> np.ndarray:
        """Pre-draw the coin flips of ``count`` packets in one RNG call.

        Both batch paths share this helper so they consume the numpy RNG
        stream identically.
        """
        return self._batch_rng.random(count)

    def update_batch(
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Vectorized batch update: coin flips in bulk, MST batch on the sample.

        Every packet draws one uniform from this instance's numpy Generator;
        the sampled subset then takes the same vectorized every-node
        aggregated path as :meth:`MST.update_batch`.  The sampling process
        matches a per-packet :meth:`update` loop in distribution, but the
        flips come from the numpy Generator rather than ``random.Random``,
        so a batch-fed instance and an update()-fed instance diverge even
        with equal seeds.  :meth:`update_batch_reference` replays the exact
        batch semantics with scalar loops and is bit-identical.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        keys_arr = coerce_key_array(keys, n)
        if keys_arr is None:
            self._apply_batch_scalar(
                list(self._iter_batch_keys(keys)), weights_arr, self._draw_samples(n)
            )
            self._total += total_weight
            return
        draws = self._draw_samples(n)
        self._total += total_weight
        sampled = draws < self._p
        picked = int(sampled.sum())
        if picked == 0:
            return
        self._sampled += picked
        self._bump_versions()
        sub_keys = keys_arr[sampled]
        sub_weights = weights_arr[sampled] if weights_arr is not None else None
        apply_lattice_batch(self._counters, self._batch_generalizers, sub_keys, sub_weights)

    def update_batch_reference(
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Scalar specification of :meth:`update_batch` (pure-Python loops).

        Consumes the same pre-drawn coin flips and applies the same
        aggregate-per-node / ascending-key-order semantics with scalar
        generalizers and counter updates; a same-seed instance fed through
        either method reaches a bit-identical state.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        self._total += total_weight
        self._apply_batch_scalar(
            list(self._iter_batch_keys(keys)), weights_arr, self._draw_samples(n)
        )

    def _apply_batch_scalar(self, keys, weights_arr, draws) -> None:
        """Apply pre-drawn coin flips to a batch with scalar loops."""
        p = self._p
        picked_keys = []
        picked_weights = [] if weights_arr is not None else None
        weight_list = weights_arr.tolist() if weights_arr is not None else None
        for i, key in enumerate(keys):
            if draws[i] < p:
                picked_keys.append(key)
                if picked_weights is not None:
                    picked_weights.append(weight_list[i])
        if not picked_keys:
            return
        self._sampled += len(picked_keys)
        self._bump_versions()
        apply_lattice_batch_scalar(
            self._counters,
            self._generalizers,
            picked_keys,
            np.asarray(picked_weights, dtype=np.int64) if picked_weights is not None else None,
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
            versions=versions,
            cache=cache,
        )

"""Count Sketch [Charikar, Chen, Farach-Colton 2002].

Unbiased (median-of-signed-counters) estimator; its error scales with the
stream's L2 norm rather than L1, so it is typically tighter than Count-Min on
skewed traffic.  Provided as an additional substitutable counter for the RHHH
ablation benchmarks.

A variant of the :class:`~repro.hh.count_min.CountMinSketch` core, which
owns the table, the batch path and its scalar twin, the tracked keys and
merge; this class supplies only what differs: the table geometry, a second
hash family drawn right after the column hashes that gives every row a
``+-1`` sign, the median combine and the two-sided error bound.

Frequency estimates are clamped at zero: the signed median is unbiased and
can dip negative under sign collisions, but true frequencies are
nonnegative, and an unclamped negative estimate would propagate into
negative conditioned counts and upper bounds below lower bounds in a
lattice pass.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional

import numpy as np

from repro.hh.count_min import CountMinSketch
from repro.hh.sketch_batch import PRIME, hash_signs


class CountSketch(CountMinSketch):
    """Count Sketch with a bounded top-keys dictionary for heavy-hitter queries.

    Args:
        epsilon: target relative error (controls width ``= ceil(3/epsilon^2)``
            capped to a practical maximum).
        delta: failure probability (controls depth ``= ceil(ln 1/delta)``,
            bumped to odd so the median is unambiguous).
        track: number of candidate keys to remember for heavy-hitter queries.
        seed: RNG seed for the hash functions.
    """

    _MAX_WIDTH = 1 << 18

    _HASH_ATTRS = ("_a", "_b", "_sa", "_sb")

    def __init__(
        self,
        epsilon: float = 0.01,
        delta: float = 0.01,
        *,
        width: Optional[int] = None,
        depth: Optional[int] = None,
        track: Optional[int] = None,
        seed: int = 0xC0DE,
    ) -> None:
        super().__init__(epsilon, delta, width=width, depth=depth, track=track, seed=seed)

    @classmethod
    def derived_width(cls, epsilon: float) -> int:
        """Table width derived from ``epsilon`` (``ceil(3/epsilon^2)``, capped)."""
        return max(4, min(int(math.ceil(3.0 / (epsilon * epsilon))), cls._MAX_WIDTH))

    @staticmethod
    def _built_depth(depth: int) -> int:
        return depth + 1 if depth % 2 == 0 else depth  # odd depth makes the median unambiguous

    def _draw_hashes(self, rng: np.random.Generator) -> None:
        super()._draw_hashes(rng)
        self._sa = rng.integers(1, PRIME, size=self._depth, dtype=np.uint64)
        self._sb = rng.integers(0, PRIME, size=self._depth, dtype=np.uint64)

    def _signs(self, hashed):
        return hash_signs(hashed, self._sa, self._sb)

    def _combine(self, values: np.ndarray):
        # The signed median is unbiased and can dip below zero under sign
        # collisions; true frequencies are nonnegative, so clamp (mirroring
        # lower_bound's floor) - otherwise a lattice pass computes negative
        # conditioned counts and upper bounds below lower bounds.
        return np.maximum(np.median(values, axis=-1), 0.0)

    # Defined here, not inherited: perfbench's tracer hooks ``CountSketch.merge`` by name.
    def merge(self, other: "CountSketch", *, disjoint: bool = False) -> None:
        """Fold another Count Sketch into this one (see :meth:`CountMinSketch.merge`)."""
        super().merge(other, disjoint=disjoint)

    def upper_bound(self, key: Hashable) -> float:
        return self.estimate(key) + self._epsilon * self._total

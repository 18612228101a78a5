"""Count-Min Sketch [Cormode & Muthukrishnan 2005] with a heavy-hitter heap.

A sketch never under-estimates, over-estimates by at most ``epsilon * N`` with
probability ``1 - delta`` (``width = ceil(e/epsilon)``, ``depth =
ceil(ln 1/delta)``).  To satisfy the paper's Definition 5 requirement (the
counter must also *enumerate* heavy hitters), the sketch maintains a side
dictionary of the current top keys, updated on every insert - this is the
standard "sketch + heap" heavy-hitter construction mentioned in Section 3.1 of
the paper.

:class:`CountMinSketch` is the one sketch core: hashing, the table, the
tracked-key fold, the batch path and its scalar twin, the duplicate-key
fallback and merge live here once.  Its two variants override only what
differs: :class:`~repro.hh.count_sketch.CountSketch` adds per-row signs
(:meth:`CountMinSketch._signs`), combines rows by a clamped median instead of
the minimum (:meth:`CountMinSketch._combine`) and sizes its table
differently; :class:`~repro.hh.conservative_update.ConservativeCountMin`
replaces the update rule.

Batch feeds take a fully vectorized fast path (:meth:`update_aggregated`):
one universal-hash broadcast for the whole batch, one scatter pass into the
table, one gather for the batch's estimates, and one argpartition pass to
fold the batch into the tracked-keys dictionary.  Sketch updates are linear
in the table, so a batch of *distinct* keys commutes; the tracked set is
maintained **batch-scoped** (all keys admitted, then the strongest
``track`` of the union survive), which is the semantics the scalar twin
:meth:`update_batch_reference` specifies bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hh.base import CounterAlgorithm
from repro.hh.merge import check_same_sketch_family, remerge_tracked
from repro.hh.sketch_batch import (
    PRIME,
    hash_columns,
    key_hash_array,
    key_hash_scalar,
    key_objects,
    scatter_add,
    select_tracked,
    select_tracked_scalar,
    track_candidate,
)


class CountMinSketch(CounterAlgorithm):
    """Count-Min Sketch with a bounded top-keys dictionary.

    Args:
        epsilon: additive error bound as a fraction of the stream length.
        delta: failure probability of the error bound.
        track: number of candidate heavy-hitter keys to remember (defaults to
            ``2 * ceil(1/epsilon)``).
        seed: seed of the hash-function generator (deterministic by default so
            experiments are reproducible).
    """

    #: The hash arrays a merge peer must share (see ``check_same_sketch_family``).
    _HASH_ATTRS: Tuple[str, ...] = ("_a", "_b")

    def __init__(
        self,
        epsilon: float = 0.001,
        delta: float = 0.01,
        *,
        width: Optional[int] = None,
        depth: Optional[int] = None,
        track: Optional[int] = None,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__()
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        for name, value in (("width", width), ("depth", depth)):
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        self._epsilon = epsilon
        self._delta = delta
        self._width = width if width is not None else self.derived_width(epsilon)
        self._depth = self._built_depth(depth) if depth is not None else self.derived_depth(delta)
        self._draw_hashes(np.random.default_rng(seed))
        self._table = np.zeros((self._depth, self._width), dtype=np.int64)
        self._row_idx = np.arange(self._depth)
        self._track_limit = track if track is not None else 2 * int(math.ceil(1.0 / epsilon))
        self._tracked: Dict[Hashable, int] = {}

    @classmethod
    def derived_width(cls, epsilon: float) -> int:
        """Table width derived from ``epsilon`` (``ceil(e/epsilon)``, floor 2).

        Single source of truth shared with ``repro.api.memory``'s footprint
        estimates, so the chooser prices exactly the table the constructor
        builds.
        """
        return max(2, int(math.ceil(math.e / epsilon)))

    @classmethod
    def derived_depth(cls, delta: float) -> int:
        """Table depth derived from ``delta`` (``ceil(ln 1/delta)``, floor 1), as built."""
        return cls._built_depth(max(1, int(math.ceil(math.log(1.0 / delta)))))

    @staticmethod
    def _built_depth(depth: int) -> int:
        """The number of rows the table gets for a requested ``depth``."""
        return depth

    def _draw_hashes(self, rng: np.random.Generator) -> None:
        """Draw the row hash functions ``((a*h + b) % p) % width``."""
        self._a = rng.integers(1, PRIME, size=self._depth, dtype=np.uint64)
        self._b = rng.integers(0, PRIME, size=self._depth, dtype=np.uint64)

    @property
    def width(self) -> int:
        """Number of counters per hash row."""
        return self._width

    @property
    def depth(self) -> int:
        """Number of hash rows."""
        return self._depth

    def _cols_signs(self, key: Hashable):
        """One key's column in every row and the sign it adds there with."""
        h = np.uint64(key_hash_scalar(key))
        cols = ((self._a * h + self._b) % np.uint64(PRIME)) % np.uint64(self._width)
        return cols, self._signs(h)

    def _signs(self, hashed):
        """Per-row signs of one hash input or an ``(n, 1)`` column of them.

        Count-Min counts unsigned, so every sign is ``1``.
        """
        return 1

    def _combine(self, values: np.ndarray):
        """Combine per-row (signed) counters into estimates along the last axis."""
        return values.min(axis=-1)

    def update(self, key: Hashable, weight: int = 1) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._total += weight
        cols, signs = self._cols_signs(key)
        rows = self._row_idx
        self._table[rows, cols] += signs * weight
        self._track(key, int(self._combine(self._table[rows, cols] * signs)))

    def _track(self, key: Hashable, estimate: int) -> None:
        track_candidate(self, self._tracked, self._track_limit, key, estimate)

    # ------------------------------------------------------------------ #
    # batch feeds
    # ------------------------------------------------------------------ #

    def update_batch(self, items: Iterable[Tuple[Hashable, int]]) -> None:
        """Batch update over pre-aggregated ``(key, weight)`` pairs.

        Distinct keys (the aggregation contract of ``repro.core.batch``)
        take the vectorized :meth:`update_aggregated` path with its
        batch-scoped tracked-set semantics; duplicate keys fall back to a
        per-event :meth:`update` replay.  :meth:`update_batch_reference` is
        the scalar specification, bit-identical in both regimes.
        """
        self._apply_pairs(items, self.update_aggregated)

    def update_batch_reference(self, items: Iterable[Tuple[Hashable, int]]) -> None:
        """Scalar specification of :meth:`update_batch` (pure-Python loops)."""
        self._apply_pairs(items, self._update_aggregated_scalar)

    def _apply_pairs(
        self,
        items: Iterable[Tuple[Hashable, int]],
        aggregated: Callable[[List[Hashable], List[int]], None],
    ) -> None:
        """Route ``(key, weight)`` pairs: ``aggregated`` if the keys are distinct, else replay."""
        pairs = list(items)
        if not pairs:
            return
        keys = [key for key, _ in pairs]
        if len(set(keys)) != len(keys):
            for key, weight in pairs:
                self.update(key, int(weight))
            return
        aggregated(keys, [int(weight) for _, weight in pairs])

    def update_aggregated(self, keys: Sequence[Hashable], weights: Sequence[int]) -> None:
        """Vectorized aggregated-batch fast path (distinct keys, positive weights).

        One hash broadcast (columns and signs), one scatter pass into the
        table, one estimate gather, one argpartition fold into the tracked
        set - bit-identical to :meth:`_update_aggregated_scalar`.  Keys the
        vector hash cannot represent (strings, out-of-range pairs) fall back
        to that scalar twin transparently.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr = np.asarray(weights, dtype=np.int64)
        hashed = key_hash_array(keys)
        if hashed is None:
            self._update_aggregated_scalar(key_objects(keys), weights_arr.tolist())
            return
        if int(weights_arr.min()) <= 0:
            raise ValueError("weight must be positive")
        self._total += int(weights_arr.sum())
        cols = hash_columns(hashed, self._a, self._b, self._width)
        signs = self._signs(hashed[:, None])
        scatter_add(self._table, cols, np.broadcast_to(signs * weights_arr[:, None], cols.shape))
        estimates = self._combine(self._table[self._row_idx, cols] * signs).astype(np.int64, copy=False)
        self._merge_tracked(key_objects(keys), estimates.tolist(), select_tracked)

    def _update_aggregated_scalar(self, keys: List[Hashable], weight_list: List[int]) -> None:
        """Scalar twin of :meth:`update_aggregated`: same batch-scoped semantics.

        Scatter first (additions commute across distinct keys), then gather
        every key's estimate from the *updated* table, then fold the batch
        into the tracked set in one pass - per-key loops throughout.
        """
        if not keys:
            return
        if min(weight_list) <= 0:
            raise ValueError("weight must be positive")
        self._total += sum(weight_list)
        table = self._table
        rows = self._row_idx
        hashes = [self._cols_signs(key) for key in keys]
        for (cols, signs), weight in zip(hashes, weight_list):
            table[rows, cols] += signs * weight
        estimates = [int(self._combine(table[rows, cols] * signs)) for cols, signs in hashes]
        self._merge_tracked(keys, estimates, select_tracked_scalar)

    def _merge_tracked(self, keys: List[Hashable], estimates: List[int], select) -> None:
        """Fold a batch's (key, estimate) pairs into the tracked dictionary.

        Every batch key is admitted (refreshing keys already tracked in
        place, so they keep their dict position), then the strongest
        ``track`` of the union survive via ``select`` - the vectorized
        argpartition pass or its scalar twin, which produce identical
        dictionaries.
        """
        tracked = self._tracked
        tracked.update(zip(keys, estimates))
        if len(tracked) > self._track_limit:
            self._tracked = select(tracked, self._track_limit)

    # ------------------------------------------------------------------ #
    # merge and queries
    # ------------------------------------------------------------------ #

    def merge(self, other: "CountMinSketch", *, disjoint: bool = False) -> None:
        """Fold another sketch of the same family into this one by table addition.

        Sketch updates (signed or not) are linear in the table, so the
        merged table is bit-identical to one sketch having seen both streams
        - per-key estimates after the merge equal the single-pass estimates
        exactly.  Requires the same class, identical geometry *and* hash
        functions (same width, depth and seed).  The tracked heavy-hitter
        candidates are re-estimated from the merged table and the strongest
        ``track`` of the union survive.  ``disjoint`` changes nothing
        (addition is addition) and is accepted for protocol compatibility.
        """
        del disjoint
        check_same_sketch_family(self, other, self._HASH_ATTRS)
        self._table += other._table
        self._total += other.total
        remerge_tracked(self, other)

    def estimate(self, key: Hashable) -> float:
        cols, signs = self._cols_signs(key)
        return float(self._combine(self._table[self._row_idx, cols] * signs))

    def upper_bound(self, key: Hashable) -> float:
        return self.estimate(key)

    def lower_bound(self, key: Hashable) -> float:
        # The sketch over-estimates by at most eps*N w.h.p.; use that as a
        # probabilistic lower bound, floored at zero.
        return max(0.0, self.estimate(key) - self._epsilon * self._total)

    def counters(self) -> int:
        return self._width * self._depth + self._track_limit

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._tracked)

    def __len__(self) -> int:
        return len(self._tracked)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._tracked

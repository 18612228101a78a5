"""Array-backed Space Saving: a struct-of-arrays summary for the batch engine.

:class:`ArraySpaceSaving` keeps the same summary as the linked-bucket
:class:`~repro.hh.space_saving.SpaceSaving` - a fixed table of
``(key, count, error)`` counters with minimum-count eviction - but stores it
as parallel numpy arrays (``counts``, ``errors``, ``stamps``) plus a
``key -> slot`` dict, so the batch engine's pre-aggregated ``(key, weight)``
streams can be applied with bulk array operations instead of one linked-list
walk per key:

* **hits** (keys already monitored) are incremented with one fancy-indexed
  add per batch;
* **free-slot inserts** are written with one sliced assignment;
* **evictions** seed a lazily invalidated min-heap from the
  ``argpartition``-selected smallest slots and replay only the miss set (plus
  the few monitored keys cheap enough to be eviction candidates) through it.

Equivalence contract
--------------------

For a pre-aggregated batch (distinct keys), ``update_batch`` leaves the
summary in exactly the state the linked-bucket implementation reaches on the
same pairs in the same order: same monitored set, same counts, same errors,
same total.  The one subtle part is the eviction tie-break.  The linked
structure evicts the key that entered the minimum-count bucket *earliest*;
this implementation reproduces that order with a ``stamps`` array holding the
logical time at which each slot last changed its count - the victim is the
lexicographic minimum of ``(count, stamp)``.  The equivalence suite in
``tests/hh/test_array_space_saving.py`` checks this property-style against
the linked implementation.

Two deliberate differences from the linked implementation, both outside the
aggregated-batch contract: ``update_batch`` validates all weights up front
(the linked version raises mid-batch, leaving the valid prefix applied), and
a batch with duplicate keys - which the batch engine never produces - is
replayed through scalar ``update`` calls rather than the bulk paths.

Complexity: a batch of ``b`` pairs costs O(b) dict lookups plus O(b) bulk
array work; the eviction replay adds O(log m) heap work per evicted key
(``m`` = candidate pool size).  Scalar ``update`` is O(log m) amortized
against the same heap (rebuilt lazily after bulk operations).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Hashable, Iterator, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hh.base import CounterAlgorithm
from repro.hh.merge import merge_space_saving

#: Below this wave length the sorted-wave eviction keeps re-sorting the table
#: for almost no progress; the replay drops to the heap path instead.
_WAVE_MIN = 8


class ArraySpaceSaving(CounterAlgorithm):
    """Space Saving over parallel numpy arrays, optimized for aggregated batches.

    Args:
        capacity: number of counters.  Alternatively pass ``epsilon`` and the
            capacity is set to ``ceil(1/epsilon)``.
        epsilon: relative error target; ignored when ``capacity`` is given.
    """

    def __init__(self, capacity: Optional[int] = None, *, epsilon: Optional[float] = None) -> None:
        super().__init__()
        if capacity is None:
            if epsilon is None:
                raise ConfigurationError("ArraySpaceSaving requires either capacity or epsilon")
            if not 0 < epsilon < 1:
                raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
            capacity = int(math.ceil(1.0 / epsilon))
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._errors = np.zeros(capacity, dtype=np.int64)
        # Logical time of each slot's last count change; the eviction victim
        # is the minimum (count, stamp), matching the linked-bucket FIFO.
        self._stamps = np.zeros(capacity, dtype=np.int64)
        self._keys: List[Optional[Hashable]] = [None] * capacity
        self._slot: Dict[Hashable, int] = {}
        self._size = 0
        self._clock = 0
        # Upper bound on the true count of keys absent from the summary, in
        # addition to the current minimum count; only merges raise it.
        self._absent_floor = 0
        # Lazy (count, stamp, slot) min-heap for the scalar update() path.
        # Entries are invalidated by comparing their stamp against the stamps
        # array (stamps are unique per write); bulk paths drop the heap
        # entirely and the next scalar eviction rebuilds it.
        self._heap: Optional[list] = None

    # ------------------------------------------------------------------ #
    # scalar path
    # ------------------------------------------------------------------ #

    def _rebuild_heap(self) -> list:
        size = self._size
        heap = list(
            zip(self._counts[:size].tolist(), self._stamps[:size].tolist(), range(size))
        )
        heapq.heapify(heap)
        self._heap = heap
        return heap

    def update(self, key: Hashable, weight: int = 1) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._total += weight
        self._clock += 1
        stamp = self._clock
        slot = self._slot.get(key)
        heap = self._heap
        if heap is not None and len(heap) > 8 * self._capacity + 64:
            # Every write pushes a fresh entry and only evictions pop, so a
            # long hit-only stretch would grow the heap with the stream;
            # drop it once oversized and let the next eviction rebuild.
            heap = self._heap = None
        if slot is not None:
            count = int(self._counts[slot]) + weight
            self._counts[slot] = count
            self._stamps[slot] = stamp
            if heap is not None:
                heapq.heappush(heap, (count, stamp, slot))
            return
        if self._size < self._capacity:
            slot = self._size
            self._size += 1
            self._keys[slot] = key
            self._slot[key] = slot
            self._counts[slot] = weight
            self._errors[slot] = 0
            self._stamps[slot] = stamp
            if heap is not None:
                heapq.heappush(heap, (weight, stamp, slot))
            return
        # Table full: evict the (count, stamp)-minimal slot.
        if heap is None:
            heap = self._rebuild_heap()
        stamps = self._stamps
        while True:
            count, victim_stamp, slot = heapq.heappop(heap)
            if stamps[slot] == victim_stamp:
                break
        del self._slot[self._keys[slot]]
        self._keys[slot] = key
        self._slot[key] = slot
        self._errors[slot] = count
        count += weight
        self._counts[slot] = count
        stamps[slot] = stamp
        heapq.heappush(heap, (count, stamp, slot))

    # ------------------------------------------------------------------ #
    # batch path
    # ------------------------------------------------------------------ #

    def update_batch(self, items) -> None:
        """Apply pre-aggregated ``(key, weight)`` pairs with bulk array operations.

        The pairs are expected distinct-keyed and are applied in the order
        given (the batch engine emits ascending key order); the resulting
        summary is exactly what the same pairs fed one by one through
        :meth:`update` produce.  Weights are validated before anything is
        applied, so an invalid batch leaves the summary untouched.
        """
        pairs = items if isinstance(items, list) else list(items)
        n = len(pairs)
        if n == 0:
            return
        keys_in = [pair[0] for pair in pairs]
        weights = np.fromiter((pair[1] for pair in pairs), dtype=np.int64, count=n)
        if len(set(keys_in)) != n:
            if int(weights.min()) <= 0:
                raise ValueError("weight must be positive")
            # Not pre-aggregated: duplicate keys interact through the table
            # state, so replay sequentially instead of the bulk paths.
            for key, weight in pairs:
                self.update(key, int(weight))
            return
        self._apply_aggregated(keys_in, weights)

    def update_batch_reference(self, items) -> None:
        """Scalar twin of :meth:`update_batch`: the same pairs, one at a time.

        The bulk array path is pinned against this loop: after either method
        the summary state must be bit-identical.
        """
        for key, weight in items:
            self.update(key, int(weight))

    def update_aggregated(self, keys: List[Hashable], weights: np.ndarray) -> None:
        """Batch-engine fast path: aggregation output applied verbatim.

        ``keys`` is a list of distinct keys in application order and
        ``weights`` the matching positive totals; this is exactly what
        :func:`repro.core.batch.aggregated_arrays` emits, saved from being
        zipped into pairs and re-materialized here.
        """
        if len(keys) == 0:
            return
        self._apply_aggregated(
            keys if isinstance(keys, list) else list(keys),
            np.asarray(weights, dtype=np.int64),
        )

    def _apply_aggregated(self, keys_in: List[Hashable], weights: np.ndarray) -> None:
        n = len(keys_in)
        if int(weights.min()) <= 0:
            raise ValueError("weight must be positive")
        self._total += int(weights.sum())
        base = self._clock
        self._clock += n
        slot_of = self._slot
        # map() drives dict.get at C speed; misses come back as -1.
        slots = np.fromiter(
            map(slot_of.get, keys_in, itertools.repeat(-1)), dtype=np.int64, count=n
        )
        miss_mask = slots < 0
        miss_count = int(miss_mask.sum())
        counts = self._counts
        stamps = self._stamps
        batch_stamps = base + 1 + np.arange(n, dtype=np.int64)
        if miss_count == 0:
            # Pure hits: distinct keys means distinct slots, so a plain
            # fancy-indexed add is exact.
            counts[slots] += weights
            stamps[slots] = batch_stamps
            self._heap = None
            return
        free = self._capacity - self._size
        if miss_count <= free:
            # Hits plus free-slot inserts: no evictions, so hit/miss
            # classification is static and application order is irrelevant
            # (stamps still record the in-batch positions).
            hit_mask = ~miss_mask
            if miss_count < n:
                hit_slots = slots[hit_mask]
                counts[hit_slots] += weights[hit_mask]
                stamps[hit_slots] = batch_stamps[hit_mask]
            new_slots = self._size + np.arange(miss_count)
            counts[new_slots] = weights[miss_mask]
            self._errors[new_slots] = 0
            stamps[new_slots] = batch_stamps[miss_mask]
            keys_list = self._keys
            slot = self._size
            for pos in np.flatnonzero(miss_mask).tolist():
                key = keys_in[pos]
                keys_list[slot] = key
                slot_of[key] = slot
                slot += 1
            self._size = slot
            self._heap = None
            return
        self._update_batch_evicting(keys_in, weights, slots, miss_mask, batch_stamps, free)

    def _update_batch_evicting(
        self,
        keys_in: List[Hashable],
        weights: np.ndarray,
        slots: np.ndarray,
        miss_mask: np.ndarray,
        batch_stamps: np.ndarray,
        free: int,
    ) -> None:
        """Batch tail with evictions: bulk-apply what is provably order-free,
        replay the rest in sorted eviction waves (heap fallback).

        Sequential Space Saving interleaves hits and evictions: an eviction
        can remove a key a later pair would have hit, and a hit can change
        which slot is the minimum.  Two facts bound the interaction:

        * no victim can reach count ``X`` unless every slot crosses ``X``
          first, which costs at least ``sum(max(0, X - count_s))`` of added
          weight - so the smallest ``X`` whose deficit exceeds the batch's
          total weight strictly bounds every victim, and hits at or above it
          can neither be evicted nor influence a victim choice: they are
          safe to bulk-apply out of order;
        * with ``e`` evictions and ``r`` at-risk hits left, every victim lies
          in the ``e + r`` lexicographically smallest ``(count, stamp)``
          slots - which bounds the candidate pool the replay has to track.

        What remains - the misses plus the few at-risk hits - is replayed in
        batch order by :meth:`_replay_mixed`.
        """
        counts = self._counts
        errors = self._errors
        stamps = self._stamps
        keys_list = self._keys
        slot_of = self._slot
        miss_positions = np.flatnonzero(miss_mask)
        # Fill the free slots with the first `free` misses: no eviction has
        # happened yet, so these inserts commute with every pending hit.
        if free:
            fill = miss_positions[:free]
            new_slots = self._size + np.arange(free)
            counts[new_slots] = weights[fill]
            errors[new_slots] = 0
            stamps[new_slots] = batch_stamps[fill]
            slot = self._size
            for pos in fill.tolist():
                key = keys_in[pos]
                keys_list[slot] = key
                slot_of[key] = slot
                slot += 1
            self._size = slot
            miss_positions = miss_positions[free:]
        # Risk split: bulk-apply hits that cannot take part in any eviction.
        # With the table sorted ascending, raising the j smallest slots past
        # X costs j*X - prefix_sum(j); every victim therefore stays strictly
        # below the smallest X whose cost exceeds the batch weight W, and
        # min_j floor((W + prefix_sum(j)) / j) + 1 bounds that X from above
        # for every segment at once (a too-large X only over-counts the
        # deficit, so each candidate is individually valid).
        sorted_counts = np.sort(counts)
        prefix = np.cumsum(sorted_counts)
        batch_weight = int(weights.sum())
        bound = int(np.min((batch_weight + prefix) // np.arange(1, prefix.size + 1))) + 1
        hit_positions = np.flatnonzero(~miss_mask)
        at_risk = counts[slots[hit_positions]] < bound
        safe_positions = hit_positions[~at_risk]
        if safe_positions.size:
            safe_slots = slots[safe_positions]
            counts[safe_slots] += weights[safe_positions]
            stamps[safe_slots] = batch_stamps[safe_positions]
        risky_positions = hit_positions[at_risk]
        if risky_positions.size:
            # At-risk hits genuinely interleave with the eviction sequence;
            # replay everything after them exactly, in one heap pass.
            mixed = np.sort(np.concatenate([miss_positions, risky_positions]))
            self._evict_heap_replay(keys_in, weights, batch_stamps, mixed.tolist())
        else:
            # Pure miss storm (e.g. a cold table, or a batch whose hits are
            # all on safely-large keys): sorted waves apply it in bulk.
            leftover = self._evict_wave_run(
                keys_in, weights, batch_stamps, miss_positions.tolist()
            )
            if leftover:
                self._evict_heap_replay(keys_in, weights, batch_stamps, leftover)
        self._heap = None

    def _evict_wave_run(
        self,
        keys_in: List[Hashable],
        weights: np.ndarray,
        batch_stamps: np.ndarray,
        run: List[int],
    ) -> List[int]:
        """Evict a run of distinct misses in sorted waves; return any stalled tail.

        One wave sorts the slots by ``(count, stamp)`` - the exact victim
        order - and proves a prefix of the run evicts those slots verbatim:
        wave element ``j`` may claim sorted slot ``j`` as long as every count
        inserted earlier in the wave stays strictly above slot ``j``'s count
        (the cumulative-minimum chain below), because then no inserted key
        can re-enter the victim sequence, and strictness keeps stamp
        tie-breaks irrelevant.  The whole prefix is then applied with bulk
        scatters, two dict writes per eviction.  On flat tail regions - the
        steady state of a Zipf stream under eviction pressure - one wave
        covers the whole table; when waves stop making progress the caller
        falls back to the heap replay.
        """
        counts = self._counts
        errors = self._errors
        stamps = self._stamps
        keys_list = self._keys
        slot_of = self._slot
        run_arr = np.asarray(run, dtype=np.int64)
        w_run = weights[run_arr]
        t_run = batch_stamps[run_arr]
        start = 0
        total = run_arr.size
        while start < total:
            order = np.lexsort((stamps, counts))
            m = min(total - start, order.size)
            pool = order[:m]
            pool_counts = counts[pool]
            inserted = pool_counts + w_run[start : start + m]
            if m > 1:
                chain = np.minimum.accumulate(inserted[:-1]) > pool_counts[1:]
                wave = m if bool(chain.all()) else int(np.argmin(chain)) + 1
            else:
                wave = 1
            victims = pool[:wave]
            positions = run_arr[start : start + wave]
            errors[victims] = pool_counts[:wave]
            counts[victims] = inserted[:wave]
            stamps[victims] = t_run[start : start + wave]
            for slot, pos in zip(victims.tolist(), positions.tolist()):
                del slot_of[keys_list[slot]]
                key = keys_in[pos]
                keys_list[slot] = key
                slot_of[key] = slot
            start += wave
            if wave < _WAVE_MIN and start < total:
                return run[start:]
        return []

    def _evict_heap_replay(
        self,
        keys_in: List[Hashable],
        weights: np.ndarray,
        batch_stamps: np.ndarray,
        mixed: List[int],
    ) -> None:
        """Exact interleaved replay of misses and at-risk hits through a heap.

        Seeds a min-heap with the ``len(mixed)`` lexicographically smallest
        ``(count, stamp)`` slots (an upper bound on the remaining evictions
        plus at-risk hits, which is all the victim-containment argument
        needs) and walks the positions in batch order on plain Python state -
        numpy scalar indexing in a tight loop costs more than the dict/heap
        work it would replace.  Stale heap entries are skipped by stamp
        comparison ("lazy re-sorting") instead of re-ordering on every write.
        """
        keys_list = self._keys
        slot_of = self._slot
        pool = self._smallest_slots(len(mixed))
        counts_l = self._counts.tolist()
        errors_l = self._errors.tolist()
        stamps_l = self._stamps.tolist()
        weights_l = weights.tolist()
        batch_stamps_l = batch_stamps.tolist()
        heap = [(counts_l[s], stamps_l[s], s) for s in pool.tolist()]
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        for pos in mixed:
            key = keys_in[pos]
            weight = weights_l[pos]
            stamp = batch_stamps_l[pos]
            slot = slot_of.get(key)
            if slot is not None:
                # At-risk hit (unless an earlier eviction removed the key, in
                # which case the dict lookup already re-classified it).
                count = counts_l[slot] + weight
                counts_l[slot] = count
                stamps_l[slot] = stamp
                heappush(heap, (count, stamp, slot))
                continue
            while True:
                count, victim_stamp, slot = heappop(heap)
                if stamps_l[slot] == victim_stamp:
                    break
            del slot_of[keys_list[slot]]
            keys_list[slot] = key
            slot_of[key] = slot
            errors_l[slot] = count
            count += weight
            counts_l[slot] = count
            stamps_l[slot] = stamp
            heappush(heap, (count, stamp, slot))
        self._counts = np.asarray(counts_l, dtype=np.int64)
        self._errors = np.asarray(errors_l, dtype=np.int64)
        self._stamps = np.asarray(stamps_l, dtype=np.int64)

    def _smallest_slots(self, k: int) -> np.ndarray:
        """Indices of the ``k`` lexicographically smallest ``(count, stamp)`` slots.

        ``argpartition`` on counts alone is ambiguous at the boundary count;
        the tie region is resolved by a second partition on stamps so the
        returned pool is exactly the ``k`` smallest pairs (in arbitrary
        order - the caller heapifies).
        """
        size = self._size
        if k >= size:
            return np.arange(size)
        counts = self._counts[:size]
        boundary = int(counts[np.argpartition(counts, k - 1)[:k]].max())
        strict = np.flatnonzero(counts < boundary)
        ties = np.flatnonzero(counts == boundary)
        need = k - strict.size
        if need < ties.size:
            ties = ties[np.argpartition(self._stamps[ties], need - 1)[:need]]
        return np.concatenate([strict, ties])

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def estimate(self, key: Hashable) -> float:
        slot = self._slot.get(key)
        if slot is None:
            return float(self._min_count())
        return float(self._counts[slot])

    def upper_bound(self, key: Hashable) -> float:
        slot = self._slot.get(key)
        if slot is None:
            # An unmonitored key has true count at most the minimum counter
            # (plus the absent-key floor a merge may have introduced).
            return float(max(self._min_count(), self._absent_floor))
        return float(self._counts[slot])

    def lower_bound(self, key: Hashable) -> float:
        slot = self._slot.get(key)
        if slot is None:
            return 0.0
        return float(self._counts[slot] - self._errors[slot])

    def counters(self) -> int:
        return self._capacity

    def _min_count(self) -> int:
        if self._size < self._capacity or self._size == 0:
            return 0
        return int(self._counts[: self._size].min())

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slot

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously monitored keys."""
        return self._capacity

    def error_of(self, key: Hashable) -> int:
        """Return the recorded overestimation error of a monitored key (0 if absent)."""
        slot = self._slot.get(key)
        if slot is None:
            return 0
        return int(self._errors[slot])

    # ------------------------------------------------------------------ #
    # merging
    # ------------------------------------------------------------------ #

    def _entries(self) -> List[tuple]:
        """Snapshot the summary as ``(key, count, error)`` tuples.

        Emitted in ascending ``(count, stamp)`` order - the eviction order,
        matching the bucket-order snapshot of the linked implementation.
        """
        size = self._size
        order = np.lexsort((self._stamps[:size], self._counts[:size]))
        counts = self._counts.tolist()
        errors = self._errors.tolist()
        keys = self._keys
        return [(keys[slot], counts[slot], errors[slot]) for slot in order.tolist()]

    def merge(self, other, *, disjoint: bool = False) -> None:
        """Fold another Space Saving summary (either implementation) into this one.

        Same merged state (monitored set, counts, errors, total) as
        :meth:`repro.hh.space_saving.SpaceSaving.merge` on the same inputs -
        both rebuild from the canonical kept-entry order of
        :func:`repro.hh.merge.merged_space_saving_entries`, so the eviction
        tie-break order after a merge also stays consistent across the two
        implementations (fresh stamps in insertion order here, bucket FIFO
        there).
        """
        kept, total, floor = merge_space_saving(self, other, disjoint=disjoint)
        n = len(kept)
        self._counts = np.zeros(self._capacity, dtype=np.int64)
        self._errors = np.zeros(self._capacity, dtype=np.int64)
        self._stamps = np.zeros(self._capacity, dtype=np.int64)
        self._keys = [None] * self._capacity
        self._slot = {}
        for slot, (key, count, error) in enumerate(kept):
            self._counts[slot] = count
            self._errors[slot] = error
            self._stamps[slot] = slot + 1
            self._keys[slot] = key
            self._slot[key] = slot
        self._size = n
        self._clock = n
        self._heap = None
        self._total = total
        self._absent_floor = floor

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
* **evictions** run in sorted waves that each apply a provably exact prefix
  of the misses with bulk scatters; a stalled wave tail is replayed through a
  lazily invalidated min-heap seeded from the ``argpartition``-selected
  smallest slots.

Equivalence contract
--------------------

A batch is applied in the Space Saving batch order of
:func:`repro.hh.space_saving.hits_first`: the pairs whose key is monitored
when the batch starts, then the remaining pairs, each group in its given
order.  ``update_batch`` leaves the summary in exactly the state the scalar
twin :meth:`ArraySpaceSaving.update_batch_reference` reaches - that order fed
through :meth:`ArraySpaceSaving.update` - and the state the linked-bucket
implementation reaches on the same batch: same monitored set, same counts,
same errors, same total.  The one subtle part is the eviction tie-break.  The
linked structure evicts the key that entered the minimum-count bucket
*earliest*; this implementation reproduces that order with a ``stamps``
array holding the logical time at which each slot last changed its count -
the victim is the lexicographic minimum of ``(count, stamp)``.  The
equivalence suite in ``tests/hh/test_array_space_saving.py`` checks this
property-style against the linked implementation.

Two deliberate differences from the linked implementation, both outside the
aggregated-batch contract: ``update_batch`` validates all weights up front
(the linked version applies the pairs read before a bad weight, then
raises), and a batch with duplicate keys - which the batch engine never
produces - is replayed through scalar ``update`` calls rather than the bulk
paths.

Complexity: a batch of ``b`` pairs costs O(b) dict lookups plus O(b) bulk
array work per wave; the heap replay adds O(log m) heap work per evicted key
(``m`` = candidate pool size).  Scalar ``update`` is O(log m) amortized
against the same heap (rebuilt lazily after bulk operations), not the O(1)
of the linked stream summary.
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
from repro.hh.space_saving import hits_first

#: Below this wave length the sorted-wave eviction keeps re-sorting the table
#: for almost no progress; the rest of the misses go through the heap replay.
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
        # The key of each used slot; grows with ``_size`` up to the capacity.
        self._keys: List[Hashable] = []
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
            self._keys.append(key)
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
        """Apply ``(key, weight)`` pairs in the Space Saving batch order.

        Hits (keys monitored when the batch starts) go first, then the
        remaining pairs, each group in its given order
        (:func:`~repro.hh.space_saving.hits_first`); the resulting summary is
        exactly what :meth:`update_batch_reference` produces.  Weights are
        validated before anything is applied, so an invalid batch leaves the
        summary untouched.
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
            self.update_batch_reference(pairs)
            return
        self._apply_aggregated(keys_in, weights)

    def update_batch_reference(self, items) -> None:
        """Scalar twin of :meth:`update_batch`: the same pairs, hits first, one at a time.

        The bulk array path is pinned against this loop: after either method
        the summary state must be bit-identical.
        """
        for key, weight in hits_first(items, self._slot):
            self.update(key, int(weight))

    def update_aggregated(self, keys: List[Hashable], weights: np.ndarray) -> None:
        """Batch-engine fast path: aggregation output applied verbatim.

        ``keys`` is a list of distinct keys and ``weights`` the matching
        positive totals; this is exactly what
        :func:`repro.core.batch.aggregated_arrays` emits, saved from being
        zipped into pairs and re-materialized here.  Applied in the same
        hits-first order as :meth:`update_batch`.
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
        self._heap = None
        clock = self._clock
        self._clock = clock + n
        # map() drives dict.get at C speed; misses come back as -1.
        slots = np.fromiter(
            map(self._slot.get, keys_in, itertools.repeat(-1)), dtype=np.int64, count=n
        )
        hit_mask = slots >= 0
        hit_slots = slots[hit_mask]
        hits = hit_slots.size
        # Hits first, in batch order: distinct keys means distinct slots, so
        # one fancy-indexed add is exact, and no eviction can come between.
        self._counts[hit_slots] += weights[hit_mask]
        self._stamps[hit_slots] = np.arange(clock + 1, clock + 1 + hits, dtype=np.int64)
        if hits == n:
            return
        miss_mask = ~hit_mask
        self._insert_misses(
            list(itertools.compress(keys_in, miss_mask.tolist())),
            weights[miss_mask],
            np.arange(clock + 1 + hits, clock + 1 + n, dtype=np.int64),
        )

    def _insert_misses(self, keys: List[Hashable], weights: np.ndarray, stamps: np.ndarray) -> None:
        """Insert distinct unmonitored keys in order: free slots, then evictions.

        Eviction runs in sorted waves (:meth:`_evict_wave_run`); a wave tail
        that stalls is finished by the heap replay.
        """
        size = self._size
        free = min(self._capacity - size, len(keys))
        if free:
            end = size + free
            self._counts[size:end] = weights[:free]
            self._errors[size:end] = 0
            self._stamps[size:end] = stamps[:free]
            self._keys[size:end] = keys[:free]
            self._slot.update(zip(keys[:free], range(size, end)))
            self._size = end
        if free == len(keys):
            return
        start = free + self._evict_wave_run(keys[free:], weights[free:], stamps[free:])
        if start < len(keys):
            self._evict_heap_replay(keys[start:], weights[start:], stamps[start:])

    def _evict_wave_run(self, keys: List[Hashable], weights: np.ndarray, stamps: np.ndarray) -> int:
        """Evict a run of distinct misses in sorted waves; return how many were applied.

        One wave sorts the slots by ``(count, stamp)`` - the exact victim
        order - and proves a prefix of the run evicts those slots verbatim:
        wave element ``j`` may claim sorted slot ``j`` as long as every count
        inserted earlier in the wave stays strictly above slot ``j``'s count
        (the cumulative-minimum chain below), because then no inserted key
        can re-enter the victim sequence, and strictness keeps stamp
        tie-breaks irrelevant.  The whole prefix is then applied with bulk
        scatters, two dict writes per eviction.  On flat tail regions - the
        steady state of a Zipf stream under eviction pressure - one wave
        covers the whole table; once a wave is shorter than ``_WAVE_MIN`` the
        run stops and the caller replays the rest through the heap.
        """
        counts = self._counts
        errors = self._errors
        table_stamps = self._stamps
        keys_list = self._keys
        slot_of = self._slot
        start = 0
        total = len(keys)
        while start < total:
            order = np.lexsort((table_stamps, counts))
            m = min(total - start, order.size)
            pool = order[:m]
            pool_counts = counts[pool]
            inserted = pool_counts + weights[start : start + m]
            if m > 1:
                chain = np.minimum.accumulate(inserted[:-1]) > pool_counts[1:]
                wave = m if bool(chain.all()) else int(np.argmin(chain)) + 1
            else:
                wave = 1
            victims = pool[:wave]
            errors[victims] = pool_counts[:wave]
            counts[victims] = inserted[:wave]
            table_stamps[victims] = stamps[start : start + wave]
            for slot, key in zip(victims.tolist(), keys[start : start + wave]):
                del slot_of[keys_list[slot]]
                keys_list[slot] = key
                slot_of[key] = slot
            start += wave
            if wave < _WAVE_MIN:
                break
        return start

    def _evict_heap_replay(self, keys: List[Hashable], weights: np.ndarray, stamps: np.ndarray) -> None:
        """Exact one-by-one eviction of distinct misses through a heap.

        Seeds a min-heap with the ``len(keys)`` lexicographically smallest
        ``(count, stamp)`` slots - every victim that is not a slot written by
        this replay lies among them - and walks the misses in order on plain
        Python state: numpy scalar indexing in a tight loop costs more than
        the dict/heap work it would replace.  Stale heap entries are skipped
        by stamp comparison ("lazy re-sorting") instead of re-ordering on
        every write.
        """
        keys_list = self._keys
        slot_of = self._slot
        pool = self._smallest_slots(len(keys))
        counts_l = self._counts.tolist()
        errors_l = self._errors.tolist()
        stamps_l = self._stamps.tolist()
        heap = [(counts_l[s], stamps_l[s], s) for s in pool.tolist()]
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        for key, weight, stamp in zip(keys, weights.tolist(), stamps.tolist()):
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
        self._keys = []
        self._slot = {}
        for slot, (key, count, error) in enumerate(kept):
            self._counts[slot] = count
            self._errors[slot] = error
            self._stamps[slot] = slot + 1
            self._keys.append(key)
            self._slot[key] = slot
        self._size = n
        self._clock = n
        self._heap = None
        self._total = total
        self._absent_floor = floor

    def __getstate__(self) -> dict:
        """Flat picklable form: the used slots only, no heap, no key dict.

        ``_slot`` is rebuilt from the keys, so the pickle carries each key
        once; ``order`` records the slots in the dict's own iteration order,
        which a round trip (checkpoint, worker restart) preserves - and with
        it the output's candidate order - bit-for-bit.  ``_heap`` is a
        rebuildable cache and is dropped.
        """
        size = self._size
        return {
            "capacity": self._capacity,
            "total": self._total,
            "clock": self._clock,
            "absent_floor": self._absent_floor,
            "counts": self._counts[:size],
            "errors": self._errors[:size],
            "stamps": self._stamps[:size],
            "keys": self._keys,
            "order": np.fromiter(self._slot.values(), dtype=np.int64, count=len(self._slot)),
        }

    def __setstate__(self, state: dict) -> None:
        capacity = self._capacity = state["capacity"]
        keys = self._keys = list(state["keys"])
        size = self._size = len(keys)
        self._total = state["total"]
        self._clock = state["clock"]
        self._absent_floor = state["absent_floor"]
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._errors = np.zeros(capacity, dtype=np.int64)
        self._stamps = np.zeros(capacity, dtype=np.int64)
        self._counts[:size] = state["counts"]
        self._errors[:size] = state["errors"]
        self._stamps[:size] = state["stamps"]
        self._slot = {keys[slot]: slot for slot in state["order"].tolist()}
        self._heap = None

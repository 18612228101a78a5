"""Array-backed Space Saving: a struct-of-arrays summary for the batch engine.

:class:`ArraySpaceSaving` keeps the same summary as the linked-bucket
:class:`~repro.hh.space_saving.SpaceSaving` - a fixed table of
``(key, count, error)`` counters with minimum-count eviction - but stores it
as parallel numpy arrays (``counts``, ``errors``, ``stamps``), so the batch
engine's pre-aggregated ``(key, weight)`` streams can be applied with bulk
array operations instead of one linked-list walk per key.

Two key indexes
---------------

Which key sits in which slot is held by one of two indexes, and exactly one
of them is authoritative at a time:

* the **scalar index** - a ``key -> slot`` dict plus the per-slot key list -
  serves scalar ``update`` calls and point queries;
* the **batch index** - the keys packed into one integer array (int64 for
  1-D keys in ``[0, 2**63)``, uint64 ``src << 32 | dst`` for pairs of 32-bit
  values) plus an ``entered`` array holding each slot's insertion time,
  which is the dict's iteration order - serves the batch path.

A batch that inserts any key drops the scalar index; a scalar insert or
eviction drops the batch index.  Hits change no key, so they keep both.
Each index is rebuilt from the other in one vectorized step, and only when
its side next needs it: a scalar write or an iteration after a batch
unpacks the keys and orders them by ``entered``; a batch after scalar
writes packs the key list.  Neither the Output pass
(:meth:`ArraySpaceSaving.tracked_entries`, which reads whichever index is
current in place) nor a point query rebuilds an index: on a table holding
only the batch index, ``estimate``, ``upper_bound``, ``lower_bound``,
``in`` and ``error_of`` pack the one key and look it up among the packed
keys (a key that does not pack as the table's dtype takes the dict).

The lattice batch core packs each batch once and hands its aggregated
unique keys over packed (:meth:`ArraySpaceSaving.update_packed`); key
arrays and lists from other callers are packed on entry
(:meth:`ArraySpaceSaving.update_aggregated`).

On the batch index a batch of ``b`` distinct keys costs no per-key Python
work outside the heap replay below:

* **hits** (keys already monitored) are found with one ``searchsorted``
  against a lazily sorted copy of the packed keys and incremented with one
  fancy-indexed add;
* **free-slot inserts** are written with sliced assignments;
* **evictions** run in sorted waves that each apply a provably exact prefix
  of the misses with bulk scatters (counts, errors, stamps, packed keys and
  ``entered``); a stalled wave tail is replayed through a lazily invalidated
  min-heap seeded from the ``argpartition``-selected smallest slots, the one
  place a per-key loop remains.

Keys that do not pack - strings, ints ``>= 2**63`` or negative, pairs with a
component ``>= 2**32``, or a batch whose key kind differs from the keys
already stored - take the scalar twin
:meth:`ArraySpaceSaving.update_batch_reference` instead, with the same
result.

Merging and copying
-------------------

:meth:`ArraySpaceSaving.merge` of two array summaries whose keys pack to one
dtype runs on the packed keys with array operations (sort the union, sum
the pairs, charge one-sided keys, pick the canonical top ``capacity``) and
leaves the result holding the batch index.  Every other merge takes the
scalar twin :meth:`ArraySpaceSaving.merge_reference`, the entry-list merge
of :mod:`repro.hh.merge`.

Three copy forms exist.  ``__getstate__`` (plain ``pickle``, checkpoint
bytes) is the flat key-list form and does not depend on which index is
current.  The **pipe form**, registered with ``multiprocessing``'s
``ForkingPickler`` and so used by every ``Connection.send`` between shard
workers and their supervisor, ships the used-slot arrays with packed keys
and rebuilds the counter holding the batch index.  ``deepcopy`` copies the
arrays in whichever index form the table holds.

Equivalence contract
--------------------

A batch is applied in the Space Saving batch order of
:func:`repro.hh.space_saving.hits_first`: the pairs whose key is monitored
when the batch starts, then the remaining pairs, each group in its given
order.  ``update_batch`` leaves the summary in exactly the state the scalar
twin :meth:`ArraySpaceSaving.update_batch_reference` reaches - that order fed
through :meth:`ArraySpaceSaving.update` - and the state the linked-bucket
implementation reaches on the same batch: same monitored set, same counts,
same errors, same total, same iteration order.  The one subtle part is the
eviction tie-break.  The linked structure evicts the key that entered the
minimum-count bucket *earliest*; this implementation reproduces that order
with a ``stamps`` array holding the logical time at which each slot last
changed its count - the victim is the lexicographic minimum of
``(count, stamp)``.  The equivalence suite in
``tests/hh/test_array_space_saving.py`` checks this property-style against
the linked implementation.

Two deliberate differences from the linked implementation, both outside the
aggregated-batch contract: ``update_batch`` validates all weights up front
(the linked version applies the pairs read before a bad weight, then
raises), and a batch with duplicate keys - which the batch engine never
produces - is replayed through scalar ``update`` calls rather than the bulk
paths.

Complexity: a packed batch of ``b`` keys costs one ``searchsorted`` (plus a
sort of the table when keys changed since the last batch) and O(b) bulk
array work per wave; the heap replay adds O(log m) heap work per evicted key
(``m`` = candidate pool size).  Scalar ``update`` is O(log m) amortized
against the same heap (rebuilt lazily after bulk operations), not the O(1)
of the linked stream summary.
"""

from __future__ import annotations

import heapq
import itertools
import math
from multiprocessing.reduction import ForkingPickler
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hh.base import CounterAlgorithm, TrackedEntries
from repro.hh.merge import check_same_capacity, merge_space_saving
from repro.hh.sketch_batch import key_objects
from repro.hh.space_saving import hits_first

#: Below this wave length the sorted-wave eviction keeps re-sorting the table
#: for almost no progress; the rest of the misses go through the heap replay.
_WAVE_MIN = 8

_INT_LIMIT = 1 << 63
_PAIR_LIMIT = 1 << 32
_LOW32 = np.uint64(0xFFFFFFFF)


def pack_keys(keys) -> Optional[np.ndarray]:
    """Keys as one packed integer array, or ``None`` if they do not pack.

    1-D integer keys in ``[0, 2**63)`` pack into int64; ``(src, dst)`` pairs
    with both members in ``[0, 2**32)`` pack into uint64 ``src << 32 | dst``,
    whose order is the lexicographic pair order.  ``keys`` is a 1-D or
    ``(n, 2)`` integer array, or a list of Python ints or of 2-tuples of
    Python ints (any other element type - bools, numpy scalars, strings -
    does not pack, so unpacking always gives back equal keys of the same
    type).
    """
    if not isinstance(keys, np.ndarray):
        keys = _key_list_array(keys)
        if keys is None:
            return None
    if keys.dtype.kind not in "iu":
        return None
    # OR-ing every element into one scalar checks both bounds in a single
    # reduction: a negative value drives the OR negative, a value past the
    # limit sets a high bit.
    bits = int(np.bitwise_or.reduce(keys, axis=None))
    if keys.ndim == 1:
        return keys.astype(np.int64, copy=False) if 0 <= bits < _INT_LIMIT else None
    if keys.ndim == 2 and keys.shape[1] == 2 and 0 <= bits < _PAIR_LIMIT:
        pairs = keys.astype(np.uint64)
        return (pairs[:, 0] << np.uint64(32)) | pairs[:, 1]
    return None


def _key_list_array(keys) -> Optional[np.ndarray]:
    """A list of Python ints or int 2-tuples as an int64 array, else ``None``."""
    types = set(map(type, keys))
    if types == {tuple}:
        if set(map(len, keys)) != {2} or set(map(type, itertools.chain.from_iterable(keys))) != {int}:
            return None
    elif types != {int}:
        return None
    try:
        return np.array(keys, dtype=np.int64)
    except OverflowError:
        return None


def unpack_keys(packed: np.ndarray) -> list:
    """Inverse of :func:`pack_keys`: Python ints, or 2-tuples for uint64 pairs."""
    if packed.dtype == np.int64:
        return packed.tolist()
    return list(zip((packed >> np.uint64(32)).tolist(), (packed & _LOW32).tolist()))


def unpack_key_array(packed: np.ndarray) -> np.ndarray:
    """Array inverse of :func:`pack_keys`: int64 keys as they are, uint64 pairs as int64 ``(n, 2)``."""
    if packed.dtype == np.int64:
        return packed
    pairs = np.empty((len(packed), 2), dtype=np.int64)
    pairs[:, 0] = packed >> np.uint64(32)
    pairs[:, 1] = packed & _LOW32
    return pairs


def _positive(weights) -> np.ndarray:
    """Batch weights as an int64 array; raises unless every weight is positive."""
    weights = np.asarray(weights, dtype=np.int64)
    if int(weights.min()) <= 0:
        raise ValueError("weight must be positive")
    return weights


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
        # Scalar index: the key of each used slot and the key -> slot dict
        # (in insertion order); both None while the batch index rules.
        self._keys: Optional[List[Hashable]] = []
        self._slot: Optional[Dict[Hashable, int]] = {}
        # Batch index: packed keys and insertion times per slot; None until
        # a batch needs it and again after a scalar insert.
        self._packed: Optional[np.ndarray] = None
        self._entered: Optional[np.ndarray] = None
        # (sorted packed keys, their slots) for the batch hit lookup; None
        # whenever keys changed since it was taken.
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None
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
    # the two key indexes
    # ------------------------------------------------------------------ #

    def _scalar_index(self) -> Dict[Hashable, int]:
        """The ``key -> slot`` dict, unpacked from the batch index if it was dropped.

        Hot callers write ``self._slot or self._scalar_index()``: the call
        happens only when a batch dropped the dict (or it is empty, when it
        returns that same dict).
        """
        slot_of = self._slot
        if slot_of is None:
            size = self._size
            keys = self._keys = unpack_keys(self._packed[:size])
            order = np.argsort(self._entered[:size]).tolist()
            slot_of = self._slot = dict(zip(map(keys.__getitem__, order), order))
        return slot_of

    def _batch_index(self, dtype: np.dtype) -> bool:
        """Make the batch index current; ``False`` if its keys do not pack as ``dtype``.

        Built from the scalar index when a scalar write dropped it: the key
        list packs in one step, and each slot's rank in the dict becomes its
        insertion time (ranks stay below every later stamp, since the clock
        is never behind the number of keys).
        """
        if self._packed is not None:
            return self._packed.dtype == dtype
        keys = pack_keys(self._keys) if self._size else np.empty(0, dtype=dtype)
        if keys is None or keys.dtype != dtype:
            return False
        self._set_batch_index(keys, self._dict_ranks())
        return True

    def _dict_ranks(self) -> np.ndarray:
        """Each used slot's rank in the ``key -> slot`` dict (its insertion order)."""
        size = self._size
        ranks = np.empty(size, dtype=np.int64)
        ranks[np.fromiter(self._slot.values(), dtype=np.int64, count=size)] = np.arange(size)
        return ranks

    def _set_batch_index(self, packed: np.ndarray, entered: np.ndarray) -> None:
        """Install the batch index from per-used-slot packed keys and insertion times."""
        size = self._size
        self._packed = np.zeros(self._capacity, dtype=packed.dtype)
        self._packed[:size] = packed
        self._entered = np.zeros(self._capacity, dtype=np.int64)
        self._entered[:size] = entered
        self._sorted = None

    def _drop_batch_index(self) -> None:
        self._packed = self._entered = self._sorted = None

    def _slot_packed(self) -> Optional[np.ndarray]:
        """The packed key of each used slot, or ``None`` if the keys do not pack.

        Read-only: a table holding only the scalar index packs its key list
        into a fresh array and keeps its indexes as they are.
        """
        if self._packed is not None:
            return self._packed[: self._size]
        if not self._size:
            return np.empty(0, dtype=np.int64)
        return pack_keys(self._keys)

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
        slot_of = self._slot or self._scalar_index()
        self._total += weight
        self._clock += 1
        stamp = self._clock
        slot = slot_of.get(key)
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
        if self._packed is not None:
            self._drop_batch_index()
        if self._size < self._capacity:
            slot = self._size
            self._size += 1
            self._keys.append(key)
            slot_of[key] = slot
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
        del slot_of[self._keys[slot]]
        self._keys[slot] = key
        slot_of[key] = slot
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
            _positive(weights)
            # Not pre-aggregated: duplicate keys interact through the table
            # state, so replay sequentially instead of the bulk paths.
            self.update_batch_reference(pairs)
            return
        self.update_aggregated(keys_in, weights)

    def update_batch_reference(self, items) -> None:
        """Scalar twin of :meth:`update_batch`: the same pairs, hits first, one at a time.

        The bulk array path is pinned against this loop: after either method
        the summary state must be bit-identical.
        """
        for key, weight in hits_first(items, self._scalar_index()):
            self.update(key, int(weight))

    def update_aggregated(self, keys, weights) -> None:
        """Batch-engine fast path: aggregation output applied verbatim.

        ``keys`` holds distinct keys - a list of keys, or a 1-D or ``(n, 2)``
        integer key array - and ``weights`` the matching positive totals
        (the lattice batch core hands its packed keys to
        :meth:`update_packed` instead).  The keys are packed and applied by
        :meth:`update_packed`, in the same hits-first order as
        :meth:`update_batch`; keys that do not pack take
        :meth:`update_batch_reference`.
        """
        if len(keys) == 0:
            return
        packed = pack_keys(keys)
        if packed is None:
            self.update_batch_reference(zip(key_objects(keys), _positive(weights).tolist()))
            return
        self.update_packed(packed, weights)

    def update_packed(self, packed: np.ndarray, weights) -> None:
        """Batch-engine fast path for distinct keys already packed by :func:`pack_keys`.

        The lattice batch core packs a batch once and masks, aggregates and
        hands it over in that form, so no key is packed again here.  Applied
        on the batch index, hits first; a table whose keys do not pack as
        ``packed.dtype`` (another key kind, or keys that do not pack at all)
        takes :meth:`update_batch_reference`.
        """
        if len(packed) == 0:
            return
        weights = _positive(weights)
        if not self._batch_index(packed.dtype):
            self.update_batch_reference(zip(unpack_keys(packed), weights.tolist()))
            return
        n = len(packed)
        self._total += int(weights.sum())
        self._heap = None
        clock = self._clock
        self._clock = clock + n
        slots = self._lookup(packed)
        hit_mask = slots >= 0
        hit_slots = slots[hit_mask]
        hits = hit_slots.size
        # Hits first, in batch order: distinct keys means distinct slots, so
        # one fancy-indexed add is exact, and no eviction can come between.
        self._counts[hit_slots] += weights[hit_mask]
        self._stamps[hit_slots] = np.arange(clock + 1, clock + 1 + hits, dtype=np.int64)
        if hits == n:
            return
        # Inserts change which keys the table holds: the batch index rules.
        self._slot = self._keys = self._sorted = None
        miss_mask = ~hit_mask
        self._insert_misses(
            packed[miss_mask],
            weights[miss_mask],
            np.arange(clock + 1 + hits, clock + 1 + n, dtype=np.int64),
        )

    def _lookup(self, packed: np.ndarray) -> np.ndarray:
        """Slot of each packed key, ``-1`` for keys the table does not hold."""
        size = self._size
        if size == 0:
            return np.full(len(packed), -1, dtype=np.int64)
        if self._sorted is None:
            order = np.argsort(self._packed[:size])
            self._sorted = (self._packed[order], order)
        table, slots = self._sorted
        index = np.minimum(np.searchsorted(table, packed), size - 1)
        return np.where(table[index] == packed, slots[index], -1)

    def _insert_misses(self, keys: np.ndarray, weights: np.ndarray, stamps: np.ndarray) -> None:
        """Insert distinct unmonitored packed keys in order: free slots, then evictions.

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
            self._packed[size:end] = keys[:free]
            self._entered[size:end] = stamps[:free]
            self._size = end
        if free == len(keys):
            return
        start = free + self._evict_wave_run(keys[free:], weights[free:], stamps[free:])
        if start < len(keys):
            self._evict_heap_replay(keys[start:], weights[start:], stamps[start:])

    def _evict_wave_run(self, keys: np.ndarray, weights: np.ndarray, stamps: np.ndarray) -> int:
        """Evict a run of distinct misses in sorted waves; return how many were applied.

        One wave sorts the slots by ``(count, stamp)`` - the exact victim
        order - and proves a prefix of the run evicts those slots verbatim:
        wave element ``j`` may claim sorted slot ``j`` as long as every count
        inserted earlier in the wave stays strictly above slot ``j``'s count
        (the cumulative-minimum chain below), because then no inserted key
        can re-enter the victim sequence, and strictness keeps stamp
        tie-breaks irrelevant.  The whole prefix is then applied with bulk
        scatters, packed keys and insertion times included.  On flat tail
        regions - the steady state of a Zipf stream under eviction pressure -
        one wave covers the whole table; once a wave is shorter than
        ``_WAVE_MIN`` the run stops and the caller replays the rest through
        the heap.
        """
        counts = self._counts
        errors = self._errors
        table_stamps = self._stamps
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
            self._packed[victims] = keys[start : start + wave]
            self._entered[victims] = stamps[start : start + wave]
            start += wave
            if wave < _WAVE_MIN:
                break
        return start

    def _evict_heap_replay(self, keys: np.ndarray, weights: np.ndarray, stamps: np.ndarray) -> None:
        """Exact one-by-one eviction of distinct misses through a heap.

        Seeds a min-heap with the ``len(keys)`` lexicographically smallest
        ``(count, stamp)`` slots - every victim that is not a slot written by
        this replay lies among them - and walks the misses in order on plain
        Python state: numpy scalar indexing in a tight loop costs more than
        the heap work it would replace.  Stale heap entries are skipped by
        stamp comparison ("lazy re-sorting") instead of re-ordering on every
        write.  The loop only records each miss's victim slot; the packed
        keys and insertion times are scattered afterwards.
        """
        pool = self._smallest_slots(len(keys))
        counts_l = self._counts.tolist()
        errors_l = self._errors.tolist()
        stamps_l = self._stamps.tolist()
        heap = [(counts_l[s], stamps_l[s], s) for s in pool.tolist()]
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        victims = []
        for weight, stamp in zip(weights.tolist(), stamps.tolist()):
            while True:
                count, victim_stamp, slot = heappop(heap)
                if stamps_l[slot] == victim_stamp:
                    break
            victims.append(slot)
            errors_l[slot] = count
            count += weight
            counts_l[slot] = count
            stamps_l[slot] = stamp
            heappush(heap, (count, stamp, slot))
        self._counts = np.asarray(counts_l, dtype=np.int64)
        self._errors = np.asarray(errors_l, dtype=np.int64)
        self._stamps = np.asarray(stamps_l, dtype=np.int64)
        # A slot evicted again later in the replay keeps its last key.
        slots = np.asarray(victims, dtype=np.int64)
        _, first_from_end = np.unique(slots[::-1], return_index=True)
        last = slots.size - 1 - first_from_end
        self._packed[slots[last]] = keys[last]
        self._entered[slots[last]] = stamps[last]

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

    def _find(self, key: Hashable) -> Optional[int]:
        """Slot of ``key``, or ``None`` if the table does not monitor it.

        A table holding only the batch index packs the one key and looks it
        up among the packed keys, so a point query between batches rebuilds
        no dict.  A key that does not pack as the table's dtype (bools,
        numpy scalars, another key kind) takes the dict, which gives it the
        dict's own equality semantics.
        """
        if self._slot is None:
            packed = pack_keys([key])
            if packed is not None and packed.dtype == self._packed.dtype:
                slot = int(self._lookup(packed)[0])
                return slot if slot >= 0 else None
        return (self._slot or self._scalar_index()).get(key)

    def estimate(self, key: Hashable) -> float:
        slot = self._find(key)
        if slot is None:
            return float(self._min_count())
        return float(self._counts[slot])

    def upper_bound(self, key: Hashable) -> float:
        slot = self._find(key)
        if slot is None:
            return self._absent_upper()
        return float(self._counts[slot])

    def _absent_upper(self) -> float:
        # An unmonitored key has true count at most the minimum counter
        # (plus the absent-key floor a merge may have introduced).
        return float(max(self._min_count(), self._absent_floor))

    def lower_bound(self, key: Hashable) -> float:
        slot = self._find(key)
        if slot is None:
            return 0.0
        return float(self._counts[slot] - self._errors[slot])

    def counters(self) -> int:
        return self._capacity

    def tracked_entries(self) -> TrackedEntries:
        """The used slots' bounds as arrays, in iteration order, read from whichever index is current."""
        size = self._size
        if self._slot is not None:
            order = np.fromiter(self._slot.values(), dtype=np.int64, count=size)
        else:
            order = np.argsort(self._entered[:size])
        counts = self._counts[order]
        upper = counts.astype(np.float64)
        lower = (counts - self._errors[order]).astype(np.float64)
        return _SlotEntries(self, order, upper, lower)

    def _min_count(self) -> int:
        if self._size < self._capacity or self._size == 0:
            return 0
        return int(self._counts[: self._size].min())

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._scalar_index())

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Hashable) -> bool:
        return self._find(key) is not None

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously monitored keys."""
        return self._capacity

    def error_of(self, key: Hashable) -> int:
        """Return the recorded overestimation error of a monitored key (0 if absent)."""
        slot = self._find(key)
        if slot is None:
            return 0
        return int(self._errors[slot])

    # ------------------------------------------------------------------ #
    # merging
    # ------------------------------------------------------------------ #

    def _slot_keys(self) -> list:
        """The key of each used slot, from whichever index is current."""
        if self._keys is not None:
            return self._keys
        return unpack_keys(self._packed[: self._size])

    def _entries(self) -> List[tuple]:
        """Snapshot the summary as ``(key, count, error)`` tuples.

        Emitted in ascending ``(count, stamp)`` order - the eviction order,
        matching the bucket-order snapshot of the linked implementation.
        """
        size = self._size
        order = np.lexsort((self._stamps[:size], self._counts[:size]))
        counts = self._counts.tolist()
        errors = self._errors.tolist()
        keys = self._slot_keys()
        return [(keys[slot], counts[slot], errors[slot]) for slot in order.tolist()]

    def merge(self, other, *, disjoint: bool = False) -> None:
        """Fold another Space Saving summary (either implementation) into this one.

        Same merged state (monitored set, counts, errors, total, absent-key
        floor) as :meth:`repro.hh.space_saving.SpaceSaving.merge` on the same
        inputs: the kept entries are the canonical top ``capacity`` of
        :func:`repro.hh.merge.merged_space_saving_entries`, rebuilt in
        ascending order with fresh stamps, so the eviction tie-break order
        after a merge also stays consistent across the two implementations.

        When ``other`` is an array summary whose keys pack to the same dtype
        as this one's, the whole merge runs on the packed keys with array
        operations and the result holds the batch index: the union is
        sorted by key, each key both sides monitor sums its pair, a key one
        side misses takes the other side's minimum count as its absent-key
        charge (none when ``disjoint``), and a stable sort on count picks
        the canonical order.  Every other case - a linked summary, keys that
        do not pack, two different key kinds - takes :meth:`merge_reference`,
        the scalar twin this path is pinned against.  ``other`` is only read.
        """
        keys = self._merge_keys(other)
        if keys is None:
            self.merge_reference(other, disjoint=disjoint)
            return
        check_same_capacity(self, other)
        size_a, size_b = self._size, other._size
        min_a, min_b = self._min_count(), other._min_count()
        order = np.argsort(keys)
        keys = keys[order]
        counts = np.concatenate((self._counts[:size_a], other._counts[:size_b]))[order]
        errors = np.concatenate((self._errors[:size_a], other._errors[:size_b]))[order]
        # Each side's keys are distinct, so a key both sides monitor sorts
        # into one adjacent pair (in either order: the pair sums commute).
        first = np.flatnonzero(keys[1:] == keys[:-1])
        second = first + 1
        if not disjoint:
            charge = np.where(order < size_a, min_b, min_a)
            charge[first] = 0
            charge[second] = 0
            counts += charge
            errors += charge
        counts[first] += counts[second]
        errors[first] += errors[second]
        keep = np.ones(keys.size, dtype=bool)
        keep[second] = False
        keys, counts, errors = keys[keep], counts[keep], errors[keep]
        # Canonical order (count descending, key ascending): the keys are
        # sorted, so a stable sort on counts alone keeps equal counts in key
        # order.  Top capacity, reversed into ascending insertion order.
        kept = np.argsort(-counts, kind="stable")[: self._capacity][::-1]
        # The merged absent-key floor, as in merge_space_saving.
        floor_a = max(min_a, self._absent_floor)
        floor_b = max(min_b, other._absent_floor)
        floor = max(floor_a, floor_b) if disjoint else floor_a + floor_b
        if keys.size > self._capacity:
            floor = max(floor, int(counts[kept[0]]))  # smallest kept count bounds the dropped
        n = kept.size
        self._load(counts[kept], errors[kept], np.arange(1, n + 1),
                   total=self._total + other.total, clock=n, absent_floor=floor)
        self._set_batch_index(keys[kept], np.arange(n))
        self._keys = self._slot = None

    def _merge_keys(self, other) -> Optional[np.ndarray]:
        """Both sides' packed slot keys, concatenated; ``None`` unless they share a dtype."""
        if not isinstance(other, ArraySpaceSaving) or not (self._size or other._size):
            return None
        ours, theirs = self._slot_packed(), other._slot_packed()
        if ours is None or theirs is None:
            return None
        # An empty side packs as int64; it adopts the other side's dtype.
        if not self._size:
            ours = ours.astype(theirs.dtype)
        elif not other._size:
            theirs = theirs.astype(ours.dtype)
        elif ours.dtype != theirs.dtype:
            return None
        return np.concatenate((ours, theirs))

    def merge_reference(self, other, *, disjoint: bool = False) -> None:
        """Scalar twin of :meth:`merge`: the entry-list merge of :mod:`repro.hh.merge`.

        Serves every merge the array path does not take; the result holds
        the scalar index only.
        """
        kept, total, floor = merge_space_saving(self, other, disjoint=disjoint)
        n = len(kept)
        self._load([count for _, count, _ in kept], [error for _, _, error in kept],
                   np.arange(1, n + 1), total=total, clock=n, absent_floor=floor)
        self._keys = [key for key, _, _ in kept]
        self._slot = {key: slot for slot, key in enumerate(self._keys)}
        self._drop_batch_index()

    def _load(self, counts, errors, stamps, *, total: int, clock: int, absent_floor: int) -> None:
        """Refill the table with these used slots (fresh arrays, no heap).

        The key indexes are the caller's to install.
        """
        capacity = self._capacity
        size = self._size = len(counts)
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._errors = np.zeros(capacity, dtype=np.int64)
        self._stamps = np.zeros(capacity, dtype=np.int64)
        self._counts[:size] = counts
        self._errors[:size] = errors
        self._stamps[:size] = stamps
        self._total = total
        self._clock = clock
        self._absent_floor = absent_floor
        self._heap = None

    def __deepcopy__(self, memo: dict) -> "ArraySpaceSaving":
        """Copy the arrays and whichever key index is current, without a key-list round trip.

        Keys are hashable, hence treated as immutable and shared with the
        copy.  The lazy heap is dropped (the next scalar eviction rebuilds
        it); ``_sorted`` is shared, because it is only ever replaced, never
        written in place.
        """
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(self.__dict__)
        for name in ("_counts", "_errors", "_stamps", "_packed", "_entered"):
            array = getattr(self, name)
            if array is not None:
                setattr(clone, name, array.copy())
        if self._keys is not None:
            clone._keys = list(self._keys)
            clone._slot = dict(self._slot)
        clone._heap = None
        return clone

    def __getstate__(self) -> dict:
        """Flat picklable form: the used slots only, no heap, no key dict.

        ``_slot`` is rebuilt from the keys, so the pickle carries each key
        once; ``order`` records the slots in the dict's own iteration order,
        which a round trip (checkpoint, worker restart) preserves - and with
        it the output's candidate order - bit-for-bit.  When the batch index
        rules, ``keys`` is unpacked from ``_packed`` and ``order`` sorted from
        ``_entered`` without building the dict, to the same state.
        ``_heap`` and ``_sorted`` are rebuildable caches and are dropped.
        """
        size = self._size
        if self._slot is None:
            keys = unpack_keys(self._packed[:size])
            order = np.argsort(self._entered[:size]).astype(np.int64, copy=False)
        else:
            keys = self._keys
            order = np.fromiter(self._slot.values(), dtype=np.int64, count=size)
        return {
            "capacity": self._capacity,
            "total": self._total,
            "clock": self._clock,
            "absent_floor": self._absent_floor,
            "counts": self._counts[:size],
            "errors": self._errors[:size],
            "stamps": self._stamps[:size],
            "keys": keys,
            "order": order,
        }

    def __setstate__(self, state: dict) -> None:
        """Restore into the scalar index; the batch index is rebuilt by the next batch."""
        self._capacity = state["capacity"]
        self._load(state["counts"], state["errors"], state["stamps"], total=state["total"],
                   clock=state["clock"], absent_floor=state["absent_floor"])
        keys = self._keys = list(state["keys"])
        self._slot = {keys[slot]: slot for slot in state["order"].tolist()}
        self._packed = self._entered = self._sorted = self._heap = None


class _SlotEntries(TrackedEntries):
    """:class:`~repro.hh.base.TrackedEntries` resolved through the slot arrays.

    ``order`` lists the used slots in iteration order.  Keys are looked up
    through whichever key index the counter holds (the dict, or the packed
    keys by ``searchsorted``) and materialized for the asked positions only,
    so reading a node costs no per-entry Python work.
    """

    def __init__(self, counter: ArraySpaceSaving, order: np.ndarray, upper, lower) -> None:
        super().__init__(counter, (), upper, lower)
        self._order = order
        self._rank: Optional[np.ndarray] = None

    def keys_at(self, positions: np.ndarray) -> list:
        counter = self._counter
        slots = self._order[positions]
        if counter._keys is not None:
            keys = counter._keys
            return [keys[slot] for slot in slots.tolist()]
        return unpack_keys(counter._packed[slots])

    def positions(self, keys) -> np.ndarray:
        if not len(keys):
            return np.empty(0, dtype=np.int64)
        counter = self._counter
        packed = pack_keys(keys) if counter._slot is None else None
        if packed is not None:
            if packed.dtype != counter._packed.dtype:
                return np.full(len(keys), -1, dtype=np.int64)  # another key kind
            slots = counter._lookup(packed)
        else:
            slot_of = counter._slot or counter._scalar_index()
            slots = np.fromiter((slot_of.get(key, -1) for key in keys), dtype=np.int64, count=len(keys))
        if self._rank is None:
            self._rank = np.empty(len(self._order), dtype=np.int64)
            self._rank[self._order] = np.arange(len(self._order))
        found = slots >= 0
        positions = np.full(len(keys), -1, dtype=np.int64)
        positions[found] = self._rank[slots[found]]
        return positions

    def _untracked_bounds(self, key: Hashable) -> Tuple[float, float]:
        return self._counter._absent_upper(), 0.0


# ---------------------------------------------------------------------- #
# pipe form
# ---------------------------------------------------------------------- #


def _reduce_for_pipe(counter: ArraySpaceSaving):
    """The pipe form: the used slots as flat arrays, keys packed.

    Registered with :class:`multiprocessing.reduction.ForkingPickler`, the
    pickler behind ``Connection.send``, so shard workers ship counter state
    as a handful of arrays instead of one Python key object per slot.  A
    table holding only the scalar index packs its keys locally and sends
    each key's dict rank as its insertion time; the sender is not mutated.
    Tables whose keys do not pack (and empty ones) ship the plain
    ``__getstate__`` form.  Plain ``pickle``, ``copy`` and checkpoint bytes
    never see this reducer.
    """
    size = counter._size
    packed = counter._slot_packed() if size else None
    if packed is None:
        return counter.__reduce_ex__(2)
    entered = counter._entered[:size] if counter._packed is not None else counter._dict_ranks()
    return _from_pipe, (
        counter._capacity,
        counter._total,
        counter._clock,
        counter._absent_floor,
        counter._counts[:size],
        counter._errors[:size],
        counter._stamps[:size],
        packed,
        entered,
    )


def _from_pipe(capacity, total, clock, absent_floor, counts, errors, stamps, packed, entered):
    """Rebuild a pipe-form counter holding the batch index."""
    counter = ArraySpaceSaving.__new__(ArraySpaceSaving)
    counter._capacity = capacity
    counter._load(counts, errors, stamps, total=total, clock=clock, absent_floor=absent_floor)
    counter._set_batch_index(packed, entered)
    counter._keys = counter._slot = None
    return counter


ForkingPickler.register(ArraySpaceSaving, _reduce_for_pipe)

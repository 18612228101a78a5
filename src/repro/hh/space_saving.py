"""Space Saving [Metwally, Agrawal, El Abbadi 2005].

This is the counter algorithm used by the RHHH paper.  Space Saving keeps a
fixed number of ``(key, count, error)`` counters.  When a monitored key
arrives its counter is incremented; when an unmonitored key arrives and the
table is full, the key with the minimum count is evicted and the new key
inherits its count (recording the inherited amount as ``error``).

Guarantees (with ``m = ceil(1/epsilon)`` counters, after ``N`` updates):

* every key with true count ``> N/m`` is monitored,
* for every monitored key, ``count - error <= true count <= count``,
* ``count - true count <= N/m <= epsilon * N``.

The implementation uses the *stream summary* structure of the original paper:
a doubly linked list of count-buckets, each holding the set of keys that share
the same count, giving an O(1) worst-case update (dictionary operations
considered O(1)).  This matters because the whole point of RHHH is a constant
worst-case per-packet cost.
"""

from __future__ import annotations

import math
from typing import Container, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.hh.base import CounterAlgorithm
from repro.hh.merge import merge_space_saving


def hits_first(pairs: Iterable[Tuple[Hashable, int]], monitored: Container) -> List[Tuple[Hashable, int]]:
    """The Space Saving batch order: hits first, then the remaining pairs.

    Pairs whose key is in ``monitored`` (the summary's keys when the batch
    starts) come first, then the rest; each group keeps its given order.
    Both Space Saving structures apply every batch in this order, which lets
    the array structure add all hits in one bulk step before any eviction.
    Space Saving's guarantees hold for any arrival order, so reordering
    within a batch keeps them.
    """
    pairs = list(pairs)
    return [pair for pair in pairs if pair[0] in monitored] + [
        pair for pair in pairs if pair[0] not in monitored
    ]


class _Bucket:
    """A doubly linked bucket of keys sharing the same count."""

    __slots__ = ("count", "keys", "prev", "next")

    def __init__(self, count: int) -> None:
        self.count = count
        self.keys: Dict[Hashable, int] = {}  # key -> error (absolute overestimation)
        self.prev: Optional["_Bucket"] = None
        self.next: Optional["_Bucket"] = None


class SpaceSaving(CounterAlgorithm):
    """Space Saving with the O(1)-update stream-summary structure.

    Args:
        capacity: number of counters.  Alternatively pass ``epsilon`` and the
            capacity is set to ``ceil(1/epsilon)``.
        epsilon: relative error target; ignored when ``capacity`` is given.
    """

    def __init__(self, capacity: Optional[int] = None, *, epsilon: Optional[float] = None) -> None:
        super().__init__()
        if capacity is None:
            if epsilon is None:
                raise ConfigurationError("SpaceSaving requires either capacity or epsilon")
            if not 0 < epsilon < 1:
                raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
            capacity = int(math.ceil(1.0 / epsilon))
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        # key -> bucket holding it
        self._where: Dict[Hashable, _Bucket] = {}
        # sentinel-free linked list ordered by increasing count
        self._head: Optional[_Bucket] = None  # minimum count bucket
        self._tail: Optional[_Bucket] = None  # maximum count bucket
        # Upper bound on the true count of keys absent from the summary, in
        # addition to the current minimum count; only merges raise it (see
        # merge()).  0 for a plain single-stream summary.
        self._absent_floor = 0

    # ------------------------------------------------------------------ #
    # linked-list plumbing
    # ------------------------------------------------------------------ #

    def _insert_bucket_after(self, bucket: _Bucket, after: Optional[_Bucket]) -> None:
        """Insert ``bucket`` right after ``after`` (or at the head if None)."""
        if after is None:
            bucket.next = self._head
            bucket.prev = None
            if self._head is not None:
                self._head.prev = bucket
            self._head = bucket
            if self._tail is None:
                self._tail = bucket
        else:
            bucket.prev = after
            bucket.next = after.next
            if after.next is not None:
                after.next.prev = bucket
            else:
                self._tail = bucket
            after.next = bucket

    def _remove_bucket(self, bucket: _Bucket) -> None:
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._head = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev
        else:
            self._tail = bucket.prev
        bucket.prev = None
        bucket.next = None

    def _locate(self, start: Optional[_Bucket], new_count: int):
        """Find the bucket with count ``new_count``, or where to create it.

        Returns ``(dest, prev)``: ``dest`` is the existing bucket with exactly
        ``new_count`` (``prev`` is then meaningless), or ``None`` with ``prev``
        the bucket to insert the new one after (``None`` meaning the head).
        ``start`` is a bucket already known to have a smaller count (``None``
        starts from the head).  Counts at or past the tail short-circuit in
        O(1), so the large aggregated weights of the batch engine do not walk
        the dense low-count region bucket by bucket; unit-weight updates walk
        at most one step, matching the original O(1) bound.
        """
        tail = self._tail
        if tail is not None:
            tail_count = tail.count
            if new_count == tail_count:
                return tail, None
            if new_count > tail_count:
                return None, tail
        prev = start
        cursor = start.next if start is not None else self._head
        while cursor is not None and cursor.count < new_count:
            prev = cursor
            cursor = cursor.next
        if cursor is not None and cursor.count == new_count:
            return cursor, None
        return None, prev

    def _promote(self, key: Hashable, bucket: _Bucket, weight: int) -> None:
        """Move ``key`` from ``bucket`` to the bucket with count ``bucket.count + weight``."""
        error = bucket.keys.pop(key)
        new_count = bucket.count + weight
        dest, prev = self._locate(bucket, new_count)
        if dest is None:
            dest = _Bucket(new_count)
            self._insert_bucket_after(dest, prev)
        dest.keys[key] = error
        self._where[key] = dest
        if not bucket.keys:
            self._remove_bucket(bucket)

    # ------------------------------------------------------------------ #
    # CounterAlgorithm interface
    # ------------------------------------------------------------------ #

    def update(self, key: Hashable, weight: int = 1) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._total += weight
        bucket = self._where.get(key)
        if bucket is not None:
            self._promote(key, bucket, weight)
            return
        if len(self._where) < self._capacity:
            # Free slot: start a new counter with zero error.
            if self._head is not None and self._head.count == weight:
                dest = self._head
            else:
                dest, prev = self._locate(None, weight)
                if dest is None:
                    dest = _Bucket(weight)
                    self._insert_bucket_after(dest, prev)
            dest.keys[key] = 0
            self._where[key] = dest
            return
        # Table full: evict a key from the minimum bucket.
        min_bucket = self._head
        assert min_bucket is not None
        victim = next(iter(min_bucket.keys))
        min_count = min_bucket.count
        del min_bucket.keys[victim]
        del self._where[victim]
        if not min_bucket.keys:
            self._remove_bucket(min_bucket)
        # The newcomer inherits the victim's count as its error.
        new_count = min_count + weight
        dest, prev = self._locate(None, new_count)
        if dest is None:
            dest = _Bucket(new_count)
            self._insert_bucket_after(dest, prev)
        dest.keys[key] = min_count
        self._where[key] = dest

    def update_batch(self, items) -> None:
        """Apply ``(key, weight)`` pairs in the Space Saving batch order.

        Hits - pairs whose key is monitored when the batch starts - are
        applied as they are read; the remaining pairs are held back and
        applied after them, each group in its given order (see
        :func:`hits_first`).  The summary ends bit-identical to
        :meth:`update_batch_reference` on the same pairs.  A weighted update
        of ``w`` is exactly ``w`` consecutive unit updates of the same key,
        so pre-aggregated pairs preserve the per-key Space Saving state.

        If a weight is invalid or the iterable itself fails, the pairs read
        before the failure are still applied, hits first, and counted in
        ``total`` before the error propagates.  The miss loop is inlined
        with the bookkeeping hoisted into locals because it carries the
        residual scalar cost of the vectorized RHHH batch engine.
        """
        where = self._where
        promote = self._promote
        total = self._total
        held_back = []
        try:
            for key, weight in items:
                if weight <= 0:
                    raise ValueError("weight must be positive")
                bucket = where.get(key)
                if bucket is None:
                    held_back.append((key, weight))
                else:
                    total += weight
                    promote(key, bucket, weight)
        finally:
            self._total = total
            self._apply_in_order(held_back)

    def _apply_in_order(self, pairs: List[Tuple[Hashable, int]]) -> None:
        """:meth:`update` over validated pairs, inlined (the batch miss path)."""
        where = self._where
        capacity = self._capacity
        promote = self._promote
        insert_after = self._insert_bucket_after
        remove_bucket = self._remove_bucket
        locate = self._locate
        total = self._total
        for key, weight in pairs:
            total += weight
            bucket = where.get(key)
            if bucket is not None:
                # A key repeated within the batch, inserted by an earlier pair.
                promote(key, bucket, weight)
                continue
            if len(where) < capacity:
                # Free slot: start a new counter with zero error.
                head = self._head
                if head is not None and head.count == weight:
                    dest = head
                else:
                    dest, prev = locate(None, weight)
                    if dest is None:
                        dest = _Bucket(weight)
                        insert_after(dest, prev)
                dest.keys[key] = 0
                where[key] = dest
                continue
            # Table full: evict a key from the minimum bucket.
            min_bucket = self._head
            assert min_bucket is not None
            min_keys = min_bucket.keys
            victim = next(iter(min_keys))
            min_count = min_bucket.count
            del min_keys[victim]
            del where[victim]
            if not min_keys:
                remove_bucket(min_bucket)
            # The newcomer inherits the victim's count as its error.
            new_count = min_count + weight
            head = self._head
            if head is not None and head.count == new_count:
                dest = head
            else:
                dest, prev = locate(None, new_count)
                if dest is None:
                    dest = _Bucket(new_count)
                    insert_after(dest, prev)
            dest.keys[key] = min_count
            where[key] = dest
        self._total = total

    def update_batch_reference(self, items) -> None:
        """Scalar twin of :meth:`update_batch`: the same pairs, hits first, one at a time.

        This is the specification the batch loop is pinned against: after
        either method the summary must be bit-identical.
        """
        for key, weight in hits_first(items, self._where):
            self.update(key, int(weight))

    def estimate(self, key: Hashable) -> float:
        bucket = self._where.get(key)
        if bucket is None:
            return float(self._min_count())
        return float(bucket.count)

    def upper_bound(self, key: Hashable) -> float:
        bucket = self._where.get(key)
        if bucket is None:
            # An unmonitored key has true count at most the minimum counter
            # (plus the absent-key floor a merge may have introduced).
            return float(max(self._min_count(), self._absent_floor))
        return float(bucket.count)

    def lower_bound(self, key: Hashable) -> float:
        bucket = self._where.get(key)
        if bucket is None:
            return 0.0
        return float(bucket.count - bucket.keys[key])

    def counters(self) -> int:
        return self._capacity

    def _min_count(self) -> int:
        if len(self._where) < self._capacity or self._head is None:
            return 0
        return self._head.count

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._where)

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._where

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously monitored keys."""
        return self._capacity

    def error_of(self, key: Hashable) -> int:
        """Return the recorded overestimation error of a monitored key (0 if absent)."""
        bucket = self._where.get(key)
        if bucket is None:
            return 0
        return bucket.keys[key]

    # ------------------------------------------------------------------ #
    # merging and serialization
    # ------------------------------------------------------------------ #

    def _entries(self) -> List[Tuple[Hashable, int, int]]:
        """Snapshot the summary as ``(key, count, error)`` tuples.

        Emitted in ascending-count bucket order, keys within a bucket in
        their FIFO (insertion) order - the order :meth:`_rebuild` consumes to
        reproduce the structure exactly.
        """
        result: List[Tuple[Hashable, int, int]] = []
        bucket = self._head
        while bucket is not None:
            count = bucket.count
            for key, error in bucket.keys.items():
                result.append((key, count, error))
            bucket = bucket.next
        return result

    def _rebuild(self, entries: List[Tuple[Hashable, int, int]], total: int) -> None:
        """Reset the structure to exactly ``entries`` (given in ascending count order)."""
        self._where = {}
        self._head = None
        self._tail = None
        tail: Optional[_Bucket] = None
        for key, count, error in entries:
            if tail is None or tail.count != count:
                tail = _Bucket(count)
                self._insert_bucket_after(tail, self._tail)
            tail.keys[key] = error
            self._where[key] = tail
        self._total = total

    def merge(self, other, *, disjoint: bool = False) -> None:
        """Fold another Space Saving summary (either implementation) into this one.

        Guarantee (see :mod:`repro.hh.merge`): with exact combined counts
        ``f``, the merged summary satisfies ``lower_bound(k) <= f(k) <=
        upper_bound(k)`` for every key, and over-estimates a monitored key by
        at most ``min_count(a) + min_count(b)`` - the summed per-input error
        bounds (just ``min_count`` of the owning shard when ``disjoint``).

        The absent-key floor keeps the bracket sound for unmonitored keys: a
        key missing from the merged summary is either truncated (count at
        most the kept minimum) or was already hidden in an input (count at
        most that input's own absent bound) - summed across inputs in the
        general case, the per-shard maximum in the key-disjoint case.
        """
        kept, total, floor = merge_space_saving(self, other, disjoint=disjoint)
        self._rebuild(kept, total)
        self._absent_floor = floor

    # _tail is not named here: __setstate__'s _rebuild reconstructs the whole
    # bucket list (head, tail and links) from the flat entries.
    def __getstate__(self) -> dict:  # reprolint: ok(merge-contract-state-dropped)
        """Flat picklable form: the linked buckets would otherwise recurse."""
        buckets = []
        bucket = self._head
        while bucket is not None:
            buckets.append((bucket.count, list(bucket.keys.items())))
            bucket = bucket.next
        return {
            "capacity": self._capacity,
            "total": self._total,
            "buckets": buckets,
            "absent_floor": self._absent_floor,
            # _rebuild reinserts keys in bucket order; record the monitored
            # dict's own insertion order so a pickle round trip (checkpoint,
            # worker restart) preserves __iter__ order - and with it the
            # output's candidate order - bit-for-bit.
            "order": list(self._where),
        }

    def __setstate__(self, state: dict) -> None:
        self._capacity = state["capacity"]
        entries = [
            (key, count, error)
            for count, items in state["buckets"]
            for key, error in items
        ]
        self._rebuild(entries, state["total"])
        order = state.get("order")
        if order is not None:
            self._where = {key: self._where[key] for key in order}
        self._absent_floor = state["absent_floor"]

"""Shared plumbing of the counter-summary ``merge`` protocol.

Sharded execution (:mod:`repro.core.shard`) partitions one stream across
worker processes, each owning independent counter summaries, and reduces the
per-shard summaries with ``merge`` at output time.  The two Space Saving
implementations (linked-bucket and struct-of-arrays) share the same summary
semantics, so they share the merged-state computation in this module; the
array summary's packed-key merge
(:meth:`repro.hh.array_space_saving.ArraySpaceSaving.merge`) computes the
same state with array operations and is pinned to it.  The sketches and
Misra-Gries implement their own merges in place.

Space Saving merge (the mergeable-summaries construction)
---------------------------------------------------------

Each input summary guarantees, for every key ``k`` with exact count ``f(k)``
in its own stream, ``count(k) - error(k) <= f(k) <= count(k)`` for monitored
keys and ``f(k) <= min_count`` for unmonitored ones.  The merged entry of a
key therefore sums the per-summary counts, charging an absent key the other
summary's ``min_count`` residual (its worst-case undetected mass), and sums
the errors the same way; the top ``capacity`` entries by merged count are
kept.  The resulting summary brackets every key's exact combined count
(``lower_bound <= f <= upper_bound``) and over-estimates a monitored key by
at most ``min_count(a) + min_count(b)`` - the *summed* per-input error
bounds.

When the caller promises the two summaries saw **disjoint** key sets (the
hash-partitioned shard case), the absent-key residual charge is dropped: a
key absent from the other summary genuinely has count zero there, so the
merged error stays the single shard's own bound.

The kept set is chosen by a canonical order (count descending, stable over
the per-key canonical key order), so both Space Saving implementations - and
a serial versus a process-pool shard reduction - produce identical merged
states for identical inputs.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: One merged Space Saving entry: ``(key, count, error)``.
Entry = Tuple[Hashable, int, int]


def check_same_capacity(a, b) -> None:
    """Reject merging two table summaries of different capacities.

    A merged summary keeps ``capacity`` entries; merging mismatched tables
    would silently adopt one side's error guarantee for the other's data.
    """
    if a.capacity != b.capacity:
        raise ConfigurationError(
            f"cannot merge {type(a).__name__} summaries of different capacities "
            f"({a.capacity} vs {b.capacity})"
        )


def check_same_sketch_family(a, b, hash_attrs: Sequence[str]) -> None:
    """Reject merging sketches of different type, geometry or hash family.

    Table addition is only meaningful cell for cell: both sketches must be
    exactly the same class (the variants subclass the Count-Min core, so an
    ``isinstance`` check would let a signed or conservative-update table
    into a plain count-min one), the same ``depth x width``, and draw the
    same hash (and sign) functions - the attributes named by ``hash_attrs``.
    """
    if type(a) is not type(b):
        raise ConfigurationError(
            f"cannot merge {type(a).__name__} with {type(b).__name__}"
        )
    if a._width != b._width or a._depth != b._depth:
        raise ConfigurationError(
            f"cannot merge sketches of different geometry "
            f"({a._depth}x{a._width} vs {b._depth}x{b._width})"
        )
    for attr in hash_attrs:
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            raise ConfigurationError(
                "cannot merge sketches with different hash functions "
                "(construct both with the same seed)"
            )


def remerge_tracked(sketch, other) -> None:
    """Rebuild a merged sketch's tracked heavy-hitter candidates.

    Keeps the strongest ``track`` keys of the two tracked-set union,
    re-estimated against the already-merged table (the stored estimates
    predate the merge and are stale).
    """
    # Insertion-ordered union (not a hash-ordered set union): the tie-break
    # order of equal-estimate keys below must not depend on PYTHONHASHSEED.
    union = list(sketch._tracked) + [key for key in other._tracked if key not in sketch._tracked]
    refreshed = {key: int(sketch.estimate(key)) for key in union}
    if len(refreshed) > sketch._track_limit:
        keep = sorted(refreshed, key=refreshed.get, reverse=True)[: sketch._track_limit]
        refreshed = {key: refreshed[key] for key in keep}
    sketch._tracked = refreshed


def _canonical_entry_order(entries: List[Entry]) -> List[Entry]:
    """Entries in the canonical merge order: count descending, key ascending.

    Keys inside one summary are homogeneous (all ints or all int pairs), so
    the key sort is well defined; unorderable custom keys fall back to a
    stable sort on count alone, which keeps the merge deterministic for a
    fixed union-iteration order.
    """
    try:
        entries = sorted(entries, key=lambda entry: entry[0])
    except TypeError:
        entries = list(entries)
    entries.sort(key=lambda entry: entry[1], reverse=True)
    return entries


def merged_space_saving_entries(
    entries_a: List[Entry],
    min_a: int,
    entries_b: List[Entry],
    min_b: int,
    capacity: int,
    *,
    disjoint: bool = False,
) -> List[Entry]:
    """Merge two Space Saving entry lists into the kept top-``capacity`` set.

    Args:
        entries_a, entries_b: the ``(key, count, error)`` entries of the two
            summaries.
        min_a, min_b: each summary's minimum monitored count when full and 0
            otherwise (``f(k) <= min`` is the absent-key guarantee) - the
            residual charged to keys the other summary never monitored.
        capacity: number of entries the merged summary keeps.
        disjoint: skip the absent-key residual charge (hash-partitioned
            shards: a key lives in exactly one input).

    Returns:
        ``(kept, truncated)``: the kept entries in canonical order (count
        descending) for the caller to rebuild its structure from, and
        whether the union exceeded ``capacity`` (the caller's absent-key
        floor must then absorb the smallest kept count, because the dropped
        entries' counts are only bounded by it).
    """
    charge_a = 0 if disjoint else min_a
    charge_b = 0 if disjoint else min_b
    by_key = {key: (count, error) for key, count, error in entries_a}
    merged: List[Entry] = []
    for key, count, error in entries_b:
        seen = by_key.pop(key, None)
        if seen is not None:
            merged.append((key, seen[0] + count, seen[1] + error))
        else:
            merged.append((key, count + charge_a, error + charge_a))
    for key, (count, error) in by_key.items():
        merged.append((key, count + charge_b, error + charge_b))
    return _canonical_entry_order(merged)[:capacity], len(merged) > capacity


def merge_space_saving(a, b, *, disjoint: bool = False) -> Tuple[List[Entry], int, int]:
    """The merged state of two Space Saving summaries (either implementation).

    Returns ``(kept, total, floor)``: the kept entries in ascending insertion
    order, the combined stream total, and the merged absent-key floor (see
    :meth:`repro.hh.space_saving.SpaceSaving.merge`).  Each implementation
    rebuilds its own structure from the result.
    """
    if not hasattr(b, "_entries") or not hasattr(b, "_min_count"):
        raise ConfigurationError(
            f"cannot merge {type(a).__name__} with {type(b).__name__}; "
            "merge requires another Space Saving summary"
        )
    check_same_capacity(a, b)
    floor_a = max(a._min_count(), a._absent_floor)
    floor_b = max(b._min_count(), b._absent_floor)
    kept, truncated = merged_space_saving_entries(
        a._entries(), a._min_count(), b._entries(), b._min_count(), a.capacity, disjoint=disjoint
    )
    floor = max(floor_a, floor_b) if disjoint else floor_a + floor_b
    if truncated:
        floor = max(floor, kept[-1][1])  # smallest kept count bounds the dropped
    kept.reverse()  # canonical count-descending -> ascending insertion order
    return kept, a.total + b.total, floor

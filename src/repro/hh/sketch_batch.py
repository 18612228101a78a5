"""Vectorized batch machinery shared by the sketch counters.

The batch-native sketch engine hinges on three ingredients, each of which
must be *bit-identical* to a scalar specification so the reprolint
twin-parity contract holds:

* a canonical 64-bit hash input per key (:func:`key_hash_scalar`) with a
  vectorized counterpart (:func:`key_hash_array`) that maps a whole key
  array in one pass - integers map to their value mod ``2**64`` (exactly
  what ``astype(uint64)`` computes) and in-range ``(src, dst)`` pairs pack
  into ``(src << 32) | dst``, so the scalar and vector paths agree without
  relying on CPython hash internals;
* one broadcast universal-hash evaluation per batch
  (:func:`hash_columns` / :func:`hash_signs`): ``((a*h + b) % p) % w`` over
  uint64 arrays, whose wraparound arithmetic matches the per-key scalar
  evaluation elementwise;
* a single scatter pass into the sketch table (:func:`scatter_add`) and a
  single argpartition pass over the tracked-keys union
  (:func:`select_tracked`, twinned by :func:`select_tracked_scalar`).

Keys the vector path cannot represent (strings, out-of-range pairs, object
arrays) fall back to the scalar twin inside the sketches, with identical
semantics.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np

#: Mersenne prime ``2**61 - 1`` used by the universal hash families.
PRIME = (1 << 61) - 1

_MASK64 = (1 << 64) - 1
_PAIR_LIMIT = 1 << 32
_FALLBACK_MASK = 0x7FFFFFFFFFFFFFFF


def key_hash_scalar(key: Hashable) -> int:
    """Canonical 64-bit hash input of one key (scalar twin of :func:`key_hash_array`).

    Integers map to their value mod ``2**64`` (for the common ``0 <= k <
    2**61 - 1`` range this equals ``hash(k)``, so small-integer streams keep
    their historical sketch columns); 2-tuples of integers that both fit 32
    bits pack into ``(a << 32) | b``; everything else falls back to
    ``hash(key)`` masked to 63 bits - those keys never take the vector path,
    so the fallback only needs to be deterministic, not array-computable.
    """
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK64
    if isinstance(key, tuple) and len(key) == 2:
        first, second = key
        if (
            isinstance(first, (int, np.integer))
            and isinstance(second, (int, np.integer))
            and 0 <= first < _PAIR_LIMIT
            and 0 <= second < _PAIR_LIMIT
        ):
            return (int(first) << 32) | int(second)
    return hash(key) & _FALLBACK_MASK


def key_hash_array(keys) -> Optional[np.ndarray]:
    """Hash inputs of a whole key batch as a uint64 array, or ``None``.

    Accepts a 1-D integer array (any signedness; values wrap mod ``2**64``
    exactly like :func:`key_hash_scalar`) or an ``(n, 2)`` integer array of
    pairs with both members in ``[0, 2**32)``.  Lists are coerced first, so
    a plain list of ints or 2-tuples also vectorizes.  ``None`` means the
    caller must run the scalar fallback (object dtype, floats, ragged
    shapes, out-of-range pairs, >64-bit integers).
    """
    if isinstance(keys, np.ndarray):
        arr = keys
    else:
        try:
            arr = np.asarray(keys)
        except (OverflowError, ValueError):  # e.g. >64-bit IPv6 integers
            return None
    if arr.dtype.kind not in "iu":
        return None
    if arr.ndim == 1:
        return arr.astype(np.uint64)
    if arr.ndim == 2 and arr.shape[1] == 2:
        if arr.size == 0:
            return np.empty(0, dtype=np.uint64)
        if arr.dtype.kind == "u":
            if int(arr.max()) >= _PAIR_LIMIT:
                return None
        # OR-ing every element into one scalar checks both bounds in a
        # single reduction pass: any negative value drives the OR negative,
        # any value >= 2**32 sets a high bit.
        elif not 0 <= int(np.bitwise_or.reduce(arr, axis=None)) < _PAIR_LIMIT:
            return None
        pairs = arr.astype(np.uint64)
        return (pairs[:, 0] << np.uint64(32)) | pairs[:, 1]
    return None


def key_objects(keys) -> list:
    """The batch's keys in dict-key form: Python ints, or 2-tuples for pair rows.

    Matches the key objects :func:`repro.core.batch.aggregated_arrays`
    produces for the same batch, so the tracked-keys dictionaries of the
    vector and list feeds hold equal keys.
    """
    if isinstance(keys, np.ndarray):
        if keys.ndim == 2:
            return [tuple(row) for row in keys.tolist()]
        return keys.tolist()
    return list(keys)


def hash_columns(hashed: np.ndarray, a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """One ``((a*h + b) % p) % w`` broadcast: row ``i`` holds key ``i``'s columns.

    uint64 products wrap mod ``2**64`` exactly as in the per-key scalar
    evaluation, so column ``[i, r]`` equals the scalar path's column for key
    ``i`` in sketch row ``r`` bit for bit.
    """
    mixed = (a[None, :] * hashed[:, None] + b[None, :]) % np.uint64(PRIME)
    return (mixed % np.uint64(width)).astype(np.int64)


def hash_signs(hashed, sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Count-Sketch sign hash ``((sa*h + sb) % p) % 2`` mapped to ``+-1`` int64.

    ``hashed`` is one uint64 hash input (one sign per row) or an ``(n, 1)``
    column of them (row ``i`` holds key ``i``'s signs); the elementwise
    uint64 arithmetic is the same in both shapes.
    """
    mixed = (sa * hashed + sb) % np.uint64(PRIME)
    return (mixed % np.uint64(2)).astype(np.int64) * 2 - 1


def scatter_add(table: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """Scatter-add per-(key, row) values into the sketch table in one pass.

    ``cols[i, r]`` is the column key ``i`` hits in sketch row ``r`` and
    ``values[i, r]`` the (signed) weight it adds there.  The bincount path
    sums in float64, which is exact while every partial sum stays below
    ``2**53``; batches that could exceed that take the exact (but slower)
    ``np.add.at`` path, so the table always matches a per-key scalar loop
    bit for bit.
    """
    depth, width = table.shape
    flat_idx = (cols + (np.arange(depth, dtype=np.int64) * width)[None, :]).reshape(-1)
    flat_vals = np.ascontiguousarray(values, dtype=np.int64).reshape(-1)
    if flat_vals.size == 0:
        return
    peak = int(np.abs(flat_vals).max())
    if peak * flat_vals.size < (1 << 53):
        binned = np.bincount(flat_idx, weights=flat_vals, minlength=depth * width)
        table += binned.reshape(depth, width).astype(np.int64)
    else:
        np.add.at(table.reshape(-1), flat_idx, flat_vals)


def select_tracked(tracked: Dict[Hashable, int], limit: int) -> Dict[Hashable, int]:
    """Keep the ``limit`` strongest tracked keys; ties keep the earliest position.

    One ``np.partition`` pass finds the boundary value (the ``limit``-th
    largest), everything strictly above it survives, and the remaining
    budget is filled with boundary-valued keys in position order.  The
    surviving dict preserves the input's insertion order, so the vector and
    scalar twins produce identical dictionaries, order included.
    """
    size = len(tracked)
    if size <= limit:
        return tracked
    if limit <= 0:
        return {}
    values = np.fromiter(tracked.values(), dtype=np.int64, count=size)
    boundary = values[np.argpartition(values, size - limit)[size - limit]]
    keep = values > boundary
    budget = limit - int(keep.sum())
    if budget:
        keep[np.flatnonzero(values == boundary)[:budget]] = True
    keys: List[Hashable] = list(tracked)
    return {keys[i]: int(values[i]) for i in np.flatnonzero(keep).tolist()}


def select_tracked_scalar(tracked: Dict[Hashable, int], limit: int) -> Dict[Hashable, int]:
    """Scalar specification of :func:`select_tracked` (pure-Python loops)."""
    size = len(tracked)
    if size <= limit:
        return tracked
    if limit <= 0:
        return {}
    boundary = sorted(tracked.values(), reverse=True)[limit - 1]
    budget = limit - sum(1 for value in tracked.values() if value > boundary)
    kept: Dict[Hashable, int] = {}
    for key, value in tracked.items():
        if value > boundary:
            kept[key] = value
        elif value == boundary and budget:
            kept[key] = value
            budget -= 1
    return kept


def track_candidate(
    sketch, tracked: Dict[Hashable, int], limit: int, key: Hashable, estimate: int
) -> None:
    """Admit ``key`` into the tracked set, evicting the weakest key when full.

    The victim's stored estimate may be stale - it only refreshes when the
    victim itself is updated - so it is re-estimated from the table before
    the comparison (as ``remerge_tracked`` does on merge); otherwise a key
    that grew since it was tracked could be evicted by a weaker newcomer.
    The refreshed value is written back even when the victim survives, so
    staleness shrinks over time.
    """
    if key in tracked or len(tracked) < limit:
        tracked[key] = estimate
        return
    victim = min(tracked, key=tracked.__getitem__)
    fresh = int(sketch.estimate(victim))
    tracked[victim] = fresh
    if fresh < estimate:
        del tracked[victim]
        tracked[key] = estimate

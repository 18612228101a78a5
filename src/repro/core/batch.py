"""Shared machinery of the vectorized batch-update engines.

Three lattice algorithms feed whole packet batches into their per-node
counters:

* :class:`~repro.core.rhhh.RHHH` routes each update to **one random node**
  (the paper's Algorithm 1, amortized);
* :class:`~repro.hhh.mst.MST` updates **every node with every packet**;
* :class:`~repro.hhh.sampled_mst.SampledMST` updates every node with a
  **sampled subset** of the packets.

All three share one batch core, :class:`~repro.core.rhhh.LatticeHHH`: each
algorithm states only its routing policy (which packets reach which node),
and the core masks each node's keys, pre-aggregates duplicate masked keys so
every counter sees one weighted update per distinct key (applied in
ascending key order), and hands the aggregated keys to the counter backend.

An integer batch is packed once per batch
(:func:`~repro.hh.array_space_saving.pack_keys`: int64 for 1-D keys, uint64
``src << 32 | dst`` for pairs of 32-bit values), after reducing it to the
hierarchy's domain when it does not pack as it is.  Masking a node's group
is then one AND with the hierarchy's packed mask
(:meth:`~repro.hierarchy.base.Hierarchy.compile_packed_masks`), aggregation
is one 1-D ``np.unique`` (:func:`unique_key_array`), and
:func:`feed_counter` hands the packed uniques to the array Space Saving as
they are, unpacked to the sketches and as Python keys to every other
counter.  Packing is the only vectorized key form: keys numpy cannot hold
(object arrays, integers past 64 bits) and hierarchies without a packed mask
table (IPv6) take the scalar twin, whose dict aggregation is
:func:`aggregated_arrays`.  This module holds the pipeline's building
blocks: batch and weight coercion, the key-batch check, grouping by node,
aggregation and the counter feeds.

The aggregation order contract matters: both the vectorized path and the
scalar reference path (``update_batch_reference``) emit pairs in ascending
key order (lexicographic for 2-D keys, which is also the packed uint64
order), which is what makes a vectorized feed bit-identical to its scalar
specification.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, HierarchyError
from repro.hh.array_space_saving import unpack_key_array, unpack_keys
from repro.hierarchy.base import Hierarchy


def unique_key_array(packed: np.ndarray, weights: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate a packed masked group: its unique keys (ascending) and int64 totals.

    The group is a flat integer array in the packed key form, so its
    aggregation is one 1-D ``np.unique``; packed order is the ascending key
    order (lexicographic for pairs).  Totals are counts when unweighted.
    The weighted ``bincount`` sums in float64, which is exact while every
    partial sum stays below ``2**53``; batches that could pass it are summed
    exactly in int64 instead, so the totals always match a per-key scalar
    sum.
    """
    if weights is None:
        unique, counts = np.unique(packed, return_counts=True)
        return unique, counts.astype(np.int64)
    unique, inverse = np.unique(packed, return_inverse=True)
    if weights.size == 0 or int(weights.max()) * weights.size < (1 << 53):
        return unique, np.bincount(inverse, weights=weights).astype(np.int64)
    totals = np.zeros(len(unique), dtype=np.int64)
    np.add.at(totals, inverse, weights)
    return unique, totals


def aggregated_arrays(masked: Iterable, weights: Optional[np.ndarray]) -> Tuple[list, np.ndarray]:
    """Aggregate duplicate masked keys into ``(key_list, total_weights)`` with a dict.

    The scalar twin of :func:`unique_key_array`: keys come back as a plain
    Python list in ascending order (lexicographic for 2-D keys; insertion
    order for unorderable keys) and the per-key totals as an int64 array.
    """
    aggregate: dict = {}
    if weights is None:
        for key in masked:
            aggregate[key] = aggregate.get(key, 0) + 1
    else:
        for key, weight in zip(masked, weights.tolist()):
            aggregate[key] = aggregate.get(key, 0) + weight
    pairs = sorted_pairs(aggregate)
    return [pair[0] for pair in pairs], np.asarray([pair[1] for pair in pairs], dtype=np.int64)


def feed_counter(counter, packed: np.ndarray, weights: Optional[np.ndarray]) -> None:
    """Aggregate a packed masked group and apply it through the counter's fastest interface.

    ``packed`` is in the packed key form of
    :func:`~repro.hh.array_space_saving.pack_keys` (int64 1-D keys or uint64
    ``src << 32 | dst`` pairs).  Its unique keys go to ``update_packed`` as
    they are (the array Space Saving), to ``update_aggregated`` unpacked
    into an int64 1-D or ``(n, 2)`` array (the sketches), and to every other
    counter's ``update_batch`` as a ``(key, weight)`` stream of Python keys.
    """
    unique, totals = unique_key_array(packed, weights)
    update_packed = getattr(counter, "update_packed", None)
    if update_packed is not None:
        update_packed(unique, totals)
        return
    fast = getattr(counter, "update_aggregated", None)
    if fast is not None:
        fast(unpack_key_array(unique), totals)
    else:
        counter.update_batch(zip(unpack_keys(unique), totals.tolist()))


def feed_counter_reference(counter, pairs) -> None:
    """Scalar-reference twin of :func:`feed_counter`.

    Counters with batch-scoped semantics (the sketches: their
    ``update_batch_reference`` is *not* a per-event loop but the scalar
    specification of one aggregated batch) get their twin; everything else
    gets the plain per-key ``update`` loop, which *is* the reference
    semantics for the Space Saving family.  The scalar lattice references
    route through here so their per-node feeds stay bit-identical to the
    vectorized :func:`feed_counter` for every counter backend.
    """
    reference = getattr(counter, "update_batch_reference", None)
    if reference is not None:
        reference(pairs)
        return
    for key, weight in pairs:
        counter.update(key, weight)


def sorted_pairs(aggregate: dict) -> List[Tuple]:
    """Dict items in ascending key order (insertion order for unorderable keys)."""
    try:
        return sorted(aggregate.items())
    except TypeError:  # unorderable custom keys: keep insertion order
        return list(aggregate.items())


def coerce_key_array(keys: Sequence, n: int) -> Optional[np.ndarray]:
    """Return the batch as a numeric numpy key array, or ``None``.

    ``None`` means the keys cannot be masked vectorially (object dtype,
    ragged shape, or integers beyond 64 bits) and the caller must take its
    scalar fallback - which is required to preserve the exact batch
    semantics, only the implementation differs.
    """
    if isinstance(keys, np.ndarray):
        arr = keys
    else:
        try:
            arr = np.asarray(keys)
        except (OverflowError, ValueError):  # e.g. >64-bit IPv6 integers
            return None
    if arr.dtype == object or len(arr) != n:
        return None
    return arr


def hierarchy_key_array(keys: Sequence, hierarchy: Hierarchy) -> Optional[np.ndarray]:
    """The batch as a numpy array of ``hierarchy`` keys, or ``None`` (see :func:`coerce_key_array`).

    Raises :class:`~repro.exceptions.HierarchyError` for a batch numpy holds
    that cannot be keys of the hierarchy: a dtype other than integer, or a
    shape other than ``(n,)`` on a 1-D and ``(n, 2)`` on a 2-D hierarchy.
    Engines call this before any state moves.
    """
    arr = coerce_key_array(keys, len(keys))
    if arr is not None and (
        arr.dtype.kind not in "iu" or arr.shape[1:] != (2,) * (hierarchy.dimensions - 1)
    ):
        raise HierarchyError(
            f"{hierarchy.name} expects {hierarchy.dimensions}-D integer keys, "
            f"got a {arr.dtype} batch of shape {arr.shape}"
        )
    return arr


def check_weight(weight: int) -> None:
    """Reject a per-packet weight that is fractional or below 1.

    The guarantees assume an insert-only stream of whole arrivals: a zero or
    negative weight would fold into a positive aggregate (or fail half-way
    through an update), and the batch path counts in int64, so a fractional
    weight would count differently per packet and per batch.  Engines call
    this before any state moves.
    """
    if not isinstance(weight, (int, np.integer)) and not float(weight).is_integer():
        raise ConfigurationError(f"weights must be whole numbers, got {weight}")
    if weight < 1:
        raise ConfigurationError(f"weights must be >= 1, got {weight}")


def coerce_weights(
    weights: Optional[Sequence[int]], n: int
) -> Tuple[Optional[np.ndarray], int]:
    """Validate per-packet weights and return ``(weights_array, total_weight)``.

    ``weights=None`` stands for unit weights: the array stays ``None`` (the
    aggregation paths special-case it into plain counting) and the total is
    the batch length.  Every weight must be a whole number of at least 1
    (see :func:`check_weight`); callers validate before any RNG draw or
    update.  Integer arrays skip the whole-number scan.
    """
    if weights is None:
        return None, n
    weights_arr = np.asarray(weights)
    if len(weights_arr) != n:
        raise ConfigurationError(
            f"weights length ({len(weights_arr)}) does not match keys length ({n})"
        )
    if weights_arr.dtype.kind not in "iu":
        for weight in weights_arr.tolist():
            check_weight(weight)
    weights_arr = weights_arr.astype(np.int64, copy=False)
    if n:
        check_weight(int(weights_arr.min()))
    return weights_arr, int(weights_arr.sum())


def group_by_node(nodes: np.ndarray, packets: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Group per-update node choices, yielding ``(node, packet_indices)`` pairs.

    ``nodes[i]`` is the (non-negative) lattice node of the ``i``-th
    surviving update and ``packets[i]`` the packet index it applies to.
    Groups come out in ascending node order; within a group the packet
    indices keep their stream order (stable sort), which the aggregation
    step then normalizes into ascending key order.
    """
    if nodes.size == 0:
        return iter(())
    # Node ids are below H: in the smallest unsigned dtype that holds them
    # numpy's stable sort is a radix sort, with the same permutation.
    narrow = nodes.astype(np.min_scalar_type(int(nodes.max())), copy=False)
    order = np.argsort(narrow, kind="stable")
    sizes = np.bincount(narrow)
    present = np.flatnonzero(sizes)
    groups = np.split(packets[order], np.cumsum(sizes[present])[:-1])
    return zip(present.tolist(), groups)

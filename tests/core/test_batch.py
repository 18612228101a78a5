"""Unit tests for the shared batch engine helpers (repro.core.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    aggregated_arrays,
    coerce_key_array,
    coerce_weights,
    feed_counter,
    group_by_node,
    hierarchy_key_array,
    sorted_pairs,
    unique_key_array,
)
from repro.exceptions import ConfigurationError, HierarchyError
from repro.hh.array_space_saving import ArraySpaceSaving, pack_keys, unpack_keys
from repro.hh.space_saving import SpaceSaving
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy


class TestAggregation:
    """The packed aggregation (``unique_key_array``) and its dict twin (``aggregated_arrays``)."""

    def test_1d_unweighted_counts_duplicates(self):
        unique, totals = unique_key_array(np.asarray([5, 3, 5, 5, 3, 9], dtype=np.int64), None)
        assert (unique.tolist(), totals.tolist()) == ([3, 5, 9], [2, 3, 1])
        keys, totals = aggregated_arrays([5, 3, 5, 5, 3, 9], None)
        assert (keys, totals.tolist()) == ([3, 5, 9], [2, 3, 1])

    def test_1d_weighted_totals(self):
        weights = np.asarray([10, 1, 5])
        unique, totals = unique_key_array(np.asarray([4, 2, 4], dtype=np.int64), weights)
        assert (unique.tolist(), totals.tolist()) == ([2, 4], [1, 15])
        keys, totals = aggregated_arrays([4, 2, 4], weights)
        assert (keys, totals.tolist()) == ([2, 4], [1, 15])

    def test_packed_pairs_order_lexicographically(self):
        # Packed uint64 order is the lexicographic pair order the dict twin sorts by.
        pairs = np.asarray([[2, 9], [1, 5], [2, 1], [1, 5], [0, 2**32 - 1]], dtype=np.int64)
        unique, totals = unique_key_array(pack_keys(pairs), None)
        expected = [(0, 2**32 - 1), (1, 5), (2, 1), (2, 9)]
        assert unpack_keys(unique) == expected and totals.tolist() == [1, 2, 1, 1]
        keys, totals = aggregated_arrays([tuple(row) for row in pairs.tolist()], None)
        assert keys == expected and totals.tolist() == [1, 2, 1, 1]

    def test_plain_list_sorts(self):
        keys, totals = aggregated_arrays([7, 1, 7, 2], None)
        assert list(zip(keys, totals.tolist())) == [(1, 1), (2, 1), (7, 2)]

    def test_empty(self):
        unique, totals = unique_key_array(np.empty(0, dtype=np.uint64), None)
        assert unique.size == 0 and totals.size == 0
        keys, totals = aggregated_arrays([], None)
        assert keys == [] and totals.size == 0

    def test_totals_are_int64(self):
        for _unique, totals in (
            unique_key_array(np.asarray([1, 1, 2], dtype=np.int64), None),
            unique_key_array(np.asarray([1, 1, 2], dtype=np.int64), np.asarray([1, 2, 3])),
            aggregated_arrays([1, 1, 2], None),
        ):
            assert totals.dtype == np.int64

    def test_weighted_totals_past_2_53_are_exact(self):
        weights = np.asarray([2**53 + 1, 1, 2, 7])
        unique, totals = unique_key_array(np.asarray([5, 5, 5, 2], dtype=np.int64), weights)
        assert (unique.tolist(), totals.tolist()) == ([2, 5], [7, 2**53 + 4])
        keys, totals = aggregated_arrays([5, 5, 5, 2], weights)
        assert (keys, totals.tolist()) == ([2, 5], [7, 2**53 + 4])


class TestCoercion:
    def test_coerce_key_array_passes_numpy_through(self):
        arr = np.arange(5)
        assert coerce_key_array(arr, 5) is arr

    def test_coerce_key_array_converts_lists(self):
        out = coerce_key_array([1, 2, 3], 3)
        assert isinstance(out, np.ndarray) and out.tolist() == [1, 2, 3]

    def test_coerce_key_array_rejects_objects_and_overflow(self):
        assert coerce_key_array([object(), object()], 2) is None
        assert coerce_key_array([1 << 80, 2], 2) is None
        assert coerce_key_array([(1, 2), (3,)], 2) is None  # ragged

    def test_hierarchy_key_array_checks_dtype_and_shape(self):
        one, two = ipv4_byte_hierarchy(), ipv4_two_dim_byte_hierarchy()
        assert hierarchy_key_array([1, 2], one).tolist() == [1, 2]
        assert hierarchy_key_array([(1, 2)], two).tolist() == [[1, 2]]
        assert hierarchy_key_array([object()], one) is None
        for keys, hierarchy in (([(1, 2)], one), ([1, 2], two), ([(1, 2, 3)], two), ([1.5], one)):
            with pytest.raises(HierarchyError):
                hierarchy_key_array(keys, hierarchy)

    def test_coerce_weights_defaults_to_unit(self):
        weights, total = coerce_weights(None, 7)
        assert weights is None and total == 7

    def test_coerce_weights_validates_length(self):
        with pytest.raises(ConfigurationError, match="weights length"):
            coerce_weights([1, 2], 3)

    def test_coerce_weights_totals(self):
        weights, total = coerce_weights([2, 3, 4], 3)
        assert total == 9 and weights.dtype == np.int64


class TestGroupByNode:
    def test_groups_ascending_with_stable_packet_order(self):
        nodes = np.asarray([2, 0, 2, 1, 0])
        packets = np.arange(5)
        groups = [(node, ids.tolist()) for node, ids in group_by_node(nodes, packets)]
        assert groups == [(0, [1, 4]), (1, [3]), (2, [0, 2])]

    @pytest.mark.parametrize("h", [1, 25, 1_089, 70_000])
    def test_matches_a_full_width_stable_sort(self, h):
        # The draws are narrowed to the smallest unsigned dtype before the
        # stable sort; the groups must be those of the int64 sort.
        nodes = np.random.default_rng(h).integers(0, h, size=5_000)
        packets = np.arange(5_000)
        expected = {}
        for node, packet in zip(nodes.tolist(), packets.tolist()):
            expected.setdefault(node, []).append(packet)
        groups = [(node, ids.tolist()) for node, ids in group_by_node(nodes, packets)]
        assert groups == sorted(expected.items())

    def test_no_draws_no_groups(self):
        empty = np.empty(0, dtype=np.int64)
        assert list(group_by_node(empty, empty)) == []


class TestFeedCounter:
    def test_array_and_linked_space_saving_agree(self):
        masked = np.asarray([3, 3, 1, 9], dtype=np.int64)
        fast = ArraySpaceSaving(capacity=4)
        generic = SpaceSaving(capacity=4)
        feed_counter(fast, masked, None)
        feed_counter(generic, masked, None)
        assert {k: fast.estimate(k) for k in fast} == {k: generic.estimate(k) for k in generic}
        assert fast.total == generic.total == 4

    def test_pair_protocol_receives_python_ints(self):
        seen = []

        class Recorder:
            def update_batch(self, items):
                seen.extend(items)

        feed_counter(Recorder(), np.asarray([5, 5, 2], dtype=np.int64), np.asarray([1, 2, 4]))
        assert seen == [(2, 4), (5, 3)]
        assert all(isinstance(w, int) for _key, w in seen)

    def test_packed_batch_routes_by_counter_interface(self):
        # Pairs (5, 1), (2, 7), (5, 1) packed: each backend gets the uniques
        # in its own form, never inferred from the array's dtype.
        masked = np.asarray([5 << 32 | 1, 2 << 32 | 7, 5 << 32 | 1], dtype=np.uint64)
        seen = {}

        class Packed:
            def update_packed(self, keys, totals):
                seen["packed"] = (keys.dtype, keys.tolist(), totals.tolist())

        class Arrays:
            def update_aggregated(self, keys, totals):
                seen["arrays"] = (keys.tolist(), totals.tolist())

        class Pairs:
            def update_batch(self, items):
                seen["pairs"] = list(items)

        for counter in (Packed(), Arrays(), Pairs()):
            feed_counter(counter, masked, None)
        assert seen == {
            "packed": (np.dtype(np.uint64), [2 << 32 | 7, 5 << 32 | 1], [1, 2]),
            "arrays": ([[2, 7], [5, 1]], [1, 2]),
            "pairs": [((2, 7), 1), ((5, 1), 2)],
        }


class TestSortedPairs:
    def test_orders_comparable_keys(self):
        assert sorted_pairs({3: 1, 1: 2}) == [(1, 2), (3, 1)]

    def test_keeps_insertion_order_for_unorderable_keys(self):
        pairs = sorted_pairs({(1, 2): 1, "x": 2})
        assert pairs == [((1, 2), 1), ("x", 2)]

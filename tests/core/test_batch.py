"""Unit tests for the shared batch engine helpers (repro.core.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    aggregate_masked,
    aggregated_arrays,
    coerce_key_array,
    coerce_weights,
    feed_counter,
    group_by_node,
    sorted_pairs,
)
from repro.exceptions import ConfigurationError
from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hh.space_saving import SpaceSaving


class TestAggregateMasked:
    def test_1d_unweighted_counts_duplicates(self):
        pairs = list(aggregate_masked(np.asarray([5, 3, 5, 5, 3, 9]), None))
        assert pairs == [(3, 2), (5, 3), (9, 1)]

    def test_1d_weighted_totals(self):
        masked = np.asarray([4, 2, 4])
        weights = np.asarray([10, 1, 5])
        assert list(aggregate_masked(masked, weights)) == [(2, 1), (4, 15)]

    def test_2d_packs_into_uint64_and_orders_lexicographically(self):
        masked = np.asarray([[2, 9], [1, 5], [2, 1], [1, 5]], dtype=np.int64)
        pairs = list(aggregate_masked(masked, None))
        assert pairs == [((1, 5), 2), ((2, 1), 1), ((2, 9), 1)]

    def test_2d_negative_keys_use_structured_sort_fallback(self):
        # Negative components cannot pack into the uint64 fast path; the
        # structured row sort must still aggregate and order correctly.
        masked = np.asarray([[-2, 9], [1, -5], [-2, 9], [1, 4]], dtype=np.int64)
        pairs = list(aggregate_masked(masked, None))
        assert pairs == [((-2, 9), 2), ((1, -5), 1), ((1, 4), 1)]

    def test_2d_overlarge_keys_use_structured_sort_fallback(self):
        masked = np.asarray([[1 << 40, 0], [1, 2], [1 << 40, 0]], dtype=np.int64)
        pairs = list(aggregate_masked(masked, None))
        assert pairs == [((1, 2), 1), ((1 << 40, 0), 2)]

    def test_2d_weighted_negative_keys(self):
        masked = np.asarray([[-1, 0], [3, 3], [-1, 0]], dtype=np.int64)
        weights = np.asarray([2, 7, 4])
        assert list(aggregate_masked(masked, weights)) == [((-1, 0), 6), ((3, 3), 7)]

    def test_plain_list_fallback_sorts(self):
        assert list(aggregate_masked([7, 1, 7, 2], None)) == [(1, 1), (2, 1), (7, 2)]

    def test_empty_arrays(self):
        assert list(aggregate_masked(np.empty((0, 2), dtype=np.int64), None)) == []
        assert list(aggregate_masked(np.empty(0, dtype=np.int64), None)) == []

    def test_aggregated_arrays_returns_int64_totals(self):
        keys, totals = aggregated_arrays(np.asarray([1, 1, 2]), None)
        assert keys == [1, 2]
        assert totals.dtype == np.int64
        assert totals.tolist() == [2, 1]

    def test_weighted_totals_past_2_53_are_exact(self):
        masked = np.asarray([5, 5, 5, 2])
        weights = np.asarray([2**53 + 1, 1, 2, 7])
        assert list(aggregate_masked(masked, weights)) == [(2, 7), (5, 2**53 + 4)]


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
    def test_uses_update_aggregated_when_available(self):
        masked = np.asarray([3, 3, 1, 9])
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

        feed_counter(Recorder(), np.asarray([5, 5, 2]), np.asarray([1, 2, 4]))
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
            AGGREGATED_KEY_ARRAYS = True

            def update_aggregated(self, keys, totals):
                seen["arrays"] = (keys.tolist(), totals.tolist())

        class Pairs:
            def update_batch(self, items):
                seen["pairs"] = list(items)

        for counter in (Packed(), Arrays(), Pairs()):
            feed_counter(counter, masked, None, packed=True)
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

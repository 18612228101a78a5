"""Equivalence suite: ArraySpaceSaving == linked-bucket SpaceSaving.

The array-backed backend promises *exact* Space Saving semantics - same
monitored set, same counts, same errors, same totals, and even the same
eviction tie-breaking (the linked structure evicts the key that entered the
minimum-count bucket earliest; the array structure reproduces that order via
its stamps).  The property-style classes drive both implementations through
identical random mixed streams - scalar updates, aggregated batches, weighted
batches, eviction storms - and require the full observable state to stay in
lockstep after every step.
"""

from __future__ import annotations

import pickle
import random

import pytest

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hh.sketch_batch import key_objects
from repro.hh.space_saving import SpaceSaving


def _full_state(counter):
    """Every observable of the summary, for lockstep comparison."""
    return {
        "entries": {
            key: (counter.estimate(key), counter.lower_bound(key), counter.error_of(key))
            for key in counter
        },
        "order": list(counter),
        "total": counter.total,
        "len": len(counter),
        "unmonitored_estimate": counter.estimate("__never_inserted__"),
    }


def _aggregated_batch(rng, key_space, max_keys, max_weight):
    count = rng.randrange(1, max_keys + 1)
    keys = sorted(rng.sample(range(key_space), min(count, key_space)))
    return [(key, rng.randrange(1, max_weight + 1)) for key in keys]


class TestConstruction:
    def test_capacity_from_epsilon(self):
        assert ArraySpaceSaving(epsilon=0.01).capacity == 100

    def test_requires_capacity_or_epsilon(self):
        with pytest.raises(ConfigurationError):
            ArraySpaceSaving()

    def test_rejects_bad_epsilon_and_capacity(self):
        with pytest.raises(ConfigurationError):
            ArraySpaceSaving(epsilon=1.5)
        with pytest.raises(ConfigurationError):
            ArraySpaceSaving(capacity=0)

    def test_counters_reports_capacity(self):
        assert ArraySpaceSaving(capacity=7).counters() == 7


class TestScalarEquivalence:
    """update(key, w) matches the linked implementation step for step."""

    @pytest.mark.parametrize("capacity", [1, 2, 5, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_scalar_streams(self, capacity, seed):
        linked = SpaceSaving(capacity=capacity)
        array = ArraySpaceSaving(capacity=capacity)
        rng = random.Random(seed)
        for _ in range(500):
            key = rng.randrange(capacity * 4)
            weight = rng.randrange(1, 7)
            linked.update(key, weight)
            array.update(key, weight)
            assert _full_state(array) == _full_state(linked)

    def test_rejects_non_positive_weight(self):
        counter = ArraySpaceSaving(capacity=4)
        with pytest.raises(ValueError):
            counter.update(1, 0)
        with pytest.raises(ValueError):
            counter.update(1, -3)

    def test_scalar_heap_stays_bounded_on_hit_only_streams(self):
        # Regression: hit pushes used to grow the lazy eviction heap with
        # the stream (only evictions trimmed it), breaking the fixed-memory
        # promise of the summary on hot-set steady states.
        counter = ArraySpaceSaving(capacity=4)
        for key in range(5):  # fill + one eviction builds the heap
            counter.update(key)
        for _ in range(5_000):  # hit-only stretch on the monitored set
            counter.update(4)
        assert counter._heap is None or len(counter._heap) <= 8 * counter.capacity + 64


class TestBatchEquivalence:
    """update_batch on aggregated pairs matches the linked implementation."""

    @pytest.mark.parametrize("capacity", [1, 2, 8, 32, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_aggregated_batches(self, capacity, seed):
        linked = SpaceSaving(capacity=capacity)
        array = ArraySpaceSaving(capacity=capacity)
        rng = random.Random(1_000 * capacity + seed)
        for _ in range(12):
            pairs = _aggregated_batch(rng, capacity * 10, capacity * 6 + 1, 6)
            linked.update_batch(list(pairs))
            array.update_batch(list(pairs))
            assert _full_state(array) == _full_state(linked)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heavy_weights_past_the_tail(self, seed):
        # Large aggregated weights push evictions far past every existing
        # count level - the regime the wave/heap replay must order exactly.
        linked = SpaceSaving(capacity=8)
        array = ArraySpaceSaving(capacity=8)
        rng = random.Random(seed)
        for _ in range(15):
            pairs = _aggregated_batch(rng, 60, 30, 5_000)
            linked.update_batch(list(pairs))
            array.update_batch(list(pairs))
            assert _full_state(array) == _full_state(linked)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_mixed_scalar_and_batch_streams(self, seed):
        rng = random.Random(seed)
        capacity = rng.choice([1, 3, 10, 50])
        linked = SpaceSaving(capacity=capacity)
        array = ArraySpaceSaving(capacity=capacity)
        for _ in range(10):
            if rng.random() < 0.4:
                for _ in range(rng.randrange(1, 40)):
                    key = rng.randrange(capacity * 5)
                    weight = rng.randrange(1, 6)
                    linked.update(key, weight)
                    array.update(key, weight)
            else:
                pairs = _aggregated_batch(rng, capacity * 8, capacity * 7 + 1, 4)
                linked.update_batch(list(pairs))
                array.update_batch(list(pairs))
            assert _full_state(array) == _full_state(linked)

    def test_tuple_keys(self):
        # 2-D masked keys arrive as (src, dst) tuples from the batch engine.
        linked = SpaceSaving(capacity=6)
        array = ArraySpaceSaving(capacity=6)
        rng = random.Random(7)
        for _ in range(10):
            pool = {(rng.randrange(20), rng.randrange(20)): rng.randrange(1, 5)
                    for _ in range(rng.randrange(1, 30))}
            pairs = sorted(pool.items())
            linked.update_batch(list(pairs))
            array.update_batch(list(pairs))
            assert _full_state(array) == _full_state(linked)

    def test_eviction_storm_far_exceeding_capacity(self):
        # Many more distinct keys per batch than counters: the steady state
        # of a backbone leaf node, where the whole table churns repeatedly
        # within one batch.
        linked = SpaceSaving(capacity=20)
        array = ArraySpaceSaving(capacity=20)
        rng = random.Random(13)
        for step in range(8):
            pairs = [(step * 1_000 + i, rng.randrange(1, 3)) for i in range(300)]
            linked.update_batch(list(pairs))
            array.update_batch(list(pairs))
            assert _full_state(array) == _full_state(linked)


def _int_keys(rng, count):
    return np.asarray(rng.sample(range(40), count), dtype=np.int64)


def _pair_keys(rng, count):
    pool = [(src, dst) for src in range(7) for dst in range(7)]
    return np.asarray(rng.sample(pool, count), dtype=np.int64).reshape(count, 2)


def _unpackable_keys(rng, count):
    kind = rng.choice(["str", "big_int", "big_pair"])
    if kind == "str":
        return [f"k{i}" for i in rng.sample(range(30), count)]
    if kind == "big_int":
        return [2**63 + i for i in rng.sample(range(30), count)]
    return [(2**32 + i, 1) for i in rng.sample(range(30), count)]


class TestKeyIndexTransitions:
    """Random interleavings that move the array summary between its scalar
    index (dict) and its batch index (packed keys) - scalar writes, packed
    int and pair batches (as arrays and as pair lists), unpackable batches,
    merges and pickle round-trips - in lockstep with the linked structure."""

    @pytest.mark.parametrize("capacity", [1, 4, 12])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings(self, capacity, seed):
        rng = random.Random(seed * 31 + capacity)
        linked = SpaceSaving(capacity=capacity)
        array = ArraySpaceSaving(capacity=capacity)
        for _ in range(60):
            step = rng.choice(["scalar", "ints", "pairs", "unpackable", "merge", "pickle"])
            if step == "scalar":
                for _ in range(rng.randrange(1, 8)):
                    key = rng.choice([rng.randrange(40), (rng.randrange(7), rng.randrange(7))])
                    weight = rng.randrange(1, 5)
                    linked.update(key, weight)
                    array.update(key, weight)
            elif step in ("ints", "pairs", "unpackable"):
                count = rng.randrange(1, min(3 * capacity + 3, 30))
                make = {"ints": _int_keys, "pairs": _pair_keys, "unpackable": _unpackable_keys}
                keys = make[step](rng, count)
                weights = np.asarray([rng.randrange(1, 6) for _ in range(count)], dtype=np.int64)
                pairs = list(zip(key_objects(keys), weights.tolist()))
                linked.update_batch(pairs)
                if rng.random() < 0.5:
                    array.update_aggregated(keys, weights)
                else:
                    array.update_batch(pairs)
            elif step == "merge":
                pairs = [(key, rng.randrange(1, 4)) for key in rng.sample(range(40), 5)]
                other_linked = SpaceSaving(capacity=capacity)
                other_array = ArraySpaceSaving(capacity=capacity)
                other_linked.update_batch(pairs)
                other_array.update_batch(pairs)
                linked.merge(other_linked)
                array.merge(other_array)
            else:
                array = pickle.loads(pickle.dumps(array))
            assert _full_state(array) == _full_state(linked)


class TestBatchContracts:
    def test_empty_batch_is_a_noop(self):
        counter = ArraySpaceSaving(capacity=4)
        counter.update_batch([])
        counter.update_aggregated([], np.empty(0, dtype=np.int64))
        assert counter.total == 0 and len(counter) == 0

    def test_generator_input(self):
        counter = ArraySpaceSaving(capacity=8)
        counter.update_batch((key, 2) for key in range(5))
        assert counter.total == 10
        assert counter.estimate(3) == 2.0

    def test_invalid_weight_leaves_summary_untouched(self):
        # Unlike the linked implementation (which applies the valid prefix
        # before raising), the array backend validates the whole batch up
        # front: a bad weight must not corrupt the arrays.
        counter = ArraySpaceSaving(capacity=4)
        counter.update(1, 3)
        with pytest.raises(ValueError):
            counter.update_batch([(2, 5), (3, 0)])
        assert counter.total == 3
        assert list(counter) == [1]

    def test_duplicate_keys_fall_back_to_sequential_replay(self):
        # Duplicate keys interact through the table state; the backend must
        # replay them exactly like consecutive scalar updates.
        reference = ArraySpaceSaving(capacity=2)
        duplicated = ArraySpaceSaving(capacity=2)
        pairs = [(1, 2), (2, 1), (1, 3), (3, 4), (2, 2)]
        for key, weight in pairs:
            reference.update(key, weight)
        duplicated.update_batch(list(pairs))
        assert _full_state(duplicated) == _full_state(reference)

    def test_update_aggregated_matches_update_batch(self):
        via_pairs = ArraySpaceSaving(capacity=5)
        via_arrays = ArraySpaceSaving(capacity=5)
        keys = [3, 7, 11, 20, 21, 40]
        weights = [2, 1, 5, 1, 1, 9]
        via_pairs.update_batch(list(zip(keys, weights)))
        via_arrays.update_aggregated(keys, np.asarray(weights, dtype=np.int64))
        assert _full_state(via_arrays) == _full_state(via_pairs)


def _point_answers(counter, key):
    return (
        counter.estimate(key),
        counter.upper_bound(key),
        counter.lower_bound(key),
        key in counter,
        counter.error_of(key),
    )


class TestPointQueriesOnBatchIndex:
    """A table holding only the batch index answers point queries from the
    packed keys, rebuilding no dict, and answers exactly as the linked twin."""

    @pytest.mark.parametrize("kind", ["ints", "pairs"])
    @pytest.mark.parametrize("seed", range(4))
    def test_queries_match_linked_twin_without_dict_rebuild(self, kind, seed):
        rng = random.Random(seed)
        linked = SpaceSaving(capacity=6)
        array = ArraySpaceSaving(capacity=6)
        make = _int_keys if kind == "ints" else _pair_keys
        for _ in range(3):
            keys = make(rng, 15)
            weights = np.asarray([rng.randrange(1, 6) for _ in range(15)], dtype=np.int64)
            linked.update_batch(list(zip(key_objects(keys), weights.tolist())))
            array.update_aggregated(keys, weights)
        assert array._slot is None
        queried = list(linked) + (
            list(range(45)) if kind == "ints" else [(src, dst) for src in range(8) for dst in range(8)]
        )
        for key in queried:
            assert _point_answers(array, key) == _point_answers(linked, key), key
        assert array._slot is None

    @pytest.mark.parametrize("key", [True, np.int64(3), 3.0, (3, 1), "3", -1, 2**64])
    def test_keys_that_do_not_pack_answer_through_the_dict(self, key):
        linked = SpaceSaving(capacity=4)
        array = ArraySpaceSaving(capacity=4)
        pairs = [(1, 2), (3, 5), (8, 1), (9, 4), (12, 3)]
        linked.update_batch(pairs)
        array.update_aggregated(np.asarray([k for k, _ in pairs]), np.asarray([w for _, w in pairs]))
        assert array._slot is None
        assert _point_answers(array, key) == _point_answers(linked, key)


class TestRHHHIntegration:
    """The batch engine must stay bit-identical to its scalar reference when
    the array backend is plugged in (the reference path drives the backend
    through scalar update() calls, the vectorized path through batches)."""

    def test_rhhh_vectorized_vs_reference_with_array_backend(self, two_dim_hierarchy):
        from repro.core.rhhh import RHHH
        from repro.traffic.caida_like import named_workload

        keys = named_workload("chicago16", num_flows=3_000).key_array(15_000)
        make = lambda: RHHH(
            two_dim_hierarchy,
            epsilon=0.02,
            delta=0.05,
            seed=11,
            counter=lambda epsilon: ArraySpaceSaving(epsilon=epsilon),
        )
        vectorized, reference = make(), make()
        for lo in range(0, len(keys), 4_096):
            vectorized.update_batch(keys[lo : lo + 4_096])
            reference.update_batch_reference(keys[lo : lo + 4_096])
        for node in range(two_dim_hierarchy.size):
            left = vectorized.node_counter(node)
            right = reference.node_counter(node)
            assert _full_state(left) == _full_state(right)
        assert vectorized.total == reference.total

"""Differential suite for the vectorized sketch batch engine.

``CountMinSketch.update_batch`` and ``CountSketch.update_batch`` carry fully
vectorized aggregated fast paths (one hash broadcast, one scatter, one
estimate gather, one argpartition tracked-set fold); their scalar twins
(``update_batch_reference`` / ``_update_aggregated_scalar``) are the
specification, and the twin-parity reprolint rule enforces this file's
existence.  The tests here require bit-identical sketch state - table bytes,
total, and the tracked dictionary *including its insertion order* - across:

* the vector path vs the scalar twin, on zipf / DDoS / maximum-churn
  (all-distinct keys, the eviction-storm regime) streams, with 1-D and
  packed 2-D keys, unit and weighted batches;
* the packed ``feed_counter`` route (unique keys unpacked into arrays for
  ``update_aggregated``) vs the scalar ``feed_counter_reference`` route used
  by the lattice references;
* same-seed RHHH instances fed ``update_batch`` vs ``update_batch_reference``
  with sketch counters per node;
* merge-after-batch vs a single-pass sketch (table linearity);
* the serial vs process-pool sharded engines with sketch counters.

``ConservativeCountMin`` is the deliberate exception: its update rule is
order-dependent, so it opts out of the vector path and its
``update_batch_reference`` twin is the same per-event loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    aggregated_arrays,
    feed_counter,
    feed_counter_reference,
    unique_key_array,
)
from repro.core.rhhh import RHHH
from repro.core.shard import ShardedHHH
from repro.api.registry import make_hierarchy
from repro.api.specs import AlgorithmSpec, CounterSpec
from repro.hh.array_space_saving import pack_keys, unpack_key_array
from repro.hh.conservative_update import ConservativeCountMin
from repro.hh.count_min import CountMinSketch
from repro.hh.count_sketch import CountSketch
from repro.hh.sketch_batch import (
    key_hash_array,
    key_hash_scalar,
    key_objects,
    select_tracked,
    select_tracked_scalar,
)
from repro.traffic.ddos import DDoSScenario
from repro.traffic.zipf import ZipfFlowGenerator

SKETCHES = [CountMinSketch, CountSketch]
SKETCH_IDS = ["count_min", "count_sketch"]


def _make(cls):
    # A small tracked bound makes the argpartition selection fire on every
    # batch instead of only at the very end.
    return cls(epsilon=0.02, delta=0.05, seed=11, track=32)


def _state(sketch):
    return (
        sketch.total,
        sketch._table.tobytes(),
        list(sketch._tracked.items()),
    )


def _zipf_2d(n):
    return ZipfFlowGenerator(num_flows=300, skew=1.1, seed=7).key_array(n)


def _ddos_2d(n):
    scenario = DDoSScenario(
        [("203.0.113.0", 24), ("198.51.100.0", 24)], "192.0.2.1", seed=3
    )
    return scenario.key_array(n)


def _churn_2d(n):
    # Every key distinct (odd multiplicative bijections mod 2**32): the
    # eviction-storm stream where each batch overflows the tracked set.
    idx = np.arange(n, dtype=np.uint64)
    src = (idx * np.uint64(0x9E3779B1)) & np.uint64(0xFFFFFFFF)
    dst = (idx * np.uint64(0x85EBCA77)) & np.uint64(0xFFFFFFFF)
    return np.stack([src, dst], axis=1).astype(np.int64)


STREAMS = {"zipf": _zipf_2d, "ddos": _ddos_2d, "max-churn": _churn_2d}


def _stream_keys(stream, dims, n):
    arr = STREAMS[stream](n)
    if dims == "1d":
        return [int(v) for v in arr[:, 0]]
    return [(int(a), int(b)) for a, b in arr]


def _aggregate(keys, weights=None):
    totals = {}
    for i, key in enumerate(keys):
        weight = 1 if weights is None else int(weights[i])
        totals[key] = totals.get(key, 0) + weight
    return sorted(totals.items())


class TestKeyHashing:
    """The vector key hash must agree with its scalar twin exactly."""

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int32])
    def test_1d_array_hash_matches_scalar(self, dtype):
        values = np.array([0, 1, 5, 200, 2**31 - 1], dtype=dtype)
        if dtype == np.int32:
            values[1] = -7  # negative ints wrap mod 2**64, both paths
        hashed = key_hash_array(values)
        assert hashed is not None
        assert hashed.tolist() == [key_hash_scalar(k) for k in values.tolist()]

    def test_pair_array_hash_matches_scalar(self):
        pairs = np.array([[0, 0], [1, 2], [2**32 - 1, 3], [7, 2**32 - 1]], dtype=np.int64)
        hashed = key_hash_array(pairs)
        assert hashed is not None
        scalars = [key_hash_scalar((int(a), int(b))) for a, b in pairs]
        assert hashed.tolist() == scalars

    def test_small_ints_keep_their_python_hash(self):
        # int keys below the Mersenne modulus hash to themselves, exactly as
        # hash() did historically - small-int streams keep their columns.
        for k in (0, 1, 12345, 2**40):
            assert key_hash_scalar(k) == hash(k)

    def test_out_of_range_pairs_are_rejected(self):
        assert key_hash_array(np.array([[1, 2**32]], dtype=np.int64)) is None
        assert key_hash_array(np.array([[-1, 2]], dtype=np.int64)) is None

    def test_non_numeric_keys_are_rejected(self):
        assert key_hash_array(["a", "b"]) is None
        assert key_hash_array([2**70, 3]) is None

    def test_key_objects_round_trip(self):
        pairs = np.array([[1, 2], [3, 4]], dtype=np.int64)
        assert key_objects(pairs) == [(1, 2), (3, 4)]
        assert key_objects(np.array([5, 6], dtype=np.int64)) == [5, 6]
        assert key_objects([("x", 1)]) == [("x", 1)]


class TestTrackedSelection:
    """The argpartition tracked-set fold matches its scalar twin, ties included."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_select_tracked_matches_scalar_twin(self, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values => many boundary ties, the hard case.
        tracked = {f"k{i}": int(v) for i, v in enumerate(rng.integers(0, 6, size=100))}
        for limit in (1, 7, 32, 99, 100, 150):
            fast = select_tracked(dict(tracked), limit)
            ref = select_tracked_scalar(dict(tracked), limit)
            assert list(fast.items()) == list(ref.items())


@pytest.mark.parametrize("cls", SKETCHES, ids=SKETCH_IDS)
class TestSketchBatchTwinParity:
    """CountMinSketch / CountSketch update_batch vs update_batch_reference."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("dims", ["1d", "2d"])
    @pytest.mark.parametrize("stream", list(STREAMS))
    def test_update_batch_matches_reference(self, cls, stream, dims, weighted):
        keys = _stream_keys(stream, dims, 1500)
        weights = (
            np.random.default_rng(5).integers(1, 9, size=len(keys)) if weighted else None
        )
        fast, ref = _make(cls), _make(cls)
        # Three chunks: the tracked selection fires between batches too.
        for lo in range(0, len(keys), 500):
            chunk = keys[lo : lo + 500]
            chunk_weights = weights[lo : lo + 500] if weights is not None else None
            pairs = _aggregate(chunk, chunk_weights)
            fast.update_batch(pairs)
            ref.update_batch_reference(pairs)
        assert _state(fast) == _state(ref)

    @pytest.mark.parametrize("dims", ["1d", "2d"])
    @pytest.mark.parametrize("stream", list(STREAMS))
    def test_feed_counter_array_route_matches_reference_route(self, cls, stream, dims):
        arr = STREAMS[stream](2000)
        masked = arr[:, 0].copy() if dims == "1d" else arr
        fast, ref = _make(cls), _make(cls)
        feed_counter(fast, pack_keys(masked), None)
        keys = [int(v) for v in masked] if dims == "1d" else [(int(a), int(b)) for a, b in masked]
        feed_counter_reference(ref, _aggregate(keys))
        assert _state(fast) == _state(ref)

    def test_unique_key_array_matches_list_aggregation(self, cls):
        del cls
        arr = _zipf_2d(1000)
        for masked in (arr, arr[:, 0].copy()):
            weights = np.random.default_rng(1).integers(1, 5, size=len(masked))
            unique, totals = unique_key_array(pack_keys(masked), weights)
            list_keys, list_totals = aggregated_arrays(key_objects(masked), weights)
            assert key_objects(unpack_key_array(unique)) == list_keys
            assert totals.tolist() == list_totals.tolist()

    def test_duplicate_keys_replay_per_event(self, cls):
        pairs = [(1, 2), (2, 1), (1, 3), (3, 5)]
        batched, reference, sequential = _make(cls), _make(cls), _make(cls)
        batched.update_batch(pairs)
        reference.update_batch_reference(pairs)
        for key, weight in pairs:
            sequential.update(key, weight)
        assert _state(batched) == _state(reference) == _state(sequential)

    def test_string_keys_fall_back_to_the_scalar_twin(self, cls):
        pairs = [(f"key-{i}", i + 1) for i in range(60)]
        fast, ref = _make(cls), _make(cls)
        fast.update_batch(pairs)
        ref.update_batch_reference(pairs)
        assert _state(fast) == _state(ref)
        assert fast.total == sum(w for _, w in pairs)

    def test_nonpositive_weight_rejected_and_state_untouched(self, cls):
        sketch = _make(cls)
        sketch.update_batch([(1, 5), (2, 3)])
        before = _state(sketch)
        with pytest.raises(ValueError):
            sketch.update_aggregated([3, 4], [4, 0])
        with pytest.raises(ValueError):
            sketch.update_aggregated(["a", "b"], [4, -1])
        assert _state(sketch) == before

    def test_empty_batch_is_a_noop(self, cls):
        sketch = _make(cls)
        sketch.update_batch([])
        sketch.update_batch_reference([])
        sketch.update_aggregated([], [])
        assert sketch.total == 0
        assert not list(sketch)

    def test_merge_after_batch_matches_single_pass_table(self, cls):
        keys = _stream_keys("zipf", "2d", 2000)
        left, right, single = _make(cls), _make(cls), _make(cls)
        first, second = _aggregate(keys[:1000]), _aggregate(keys[1000:])
        left.update_batch(first)
        right.update_batch(second)
        left.merge(right)
        single.update_batch(first)
        single.update_batch(second)
        assert left.total == single.total
        assert left._table.tobytes() == single._table.tobytes()
        for key, _ in first[:50] + second[:50]:
            assert left.estimate(key) == single.estimate(key)


class TestConservativeCountMinStaysPerEvent:
    """ConservativeCountMin is order-dependent: no vector path, loop twins."""

    def test_opts_out_of_the_aggregated_fast_path(self):
        assert ConservativeCountMin.update_aggregated is None

    def test_update_batch_reference_and_sequential_agree(self):
        keys = _stream_keys("zipf", "1d", 800)
        pairs = _aggregate(keys)
        batched = ConservativeCountMin(epsilon=0.02, delta=0.05, seed=11, track=32)
        reference = ConservativeCountMin(epsilon=0.02, delta=0.05, seed=11, track=32)
        sequential = ConservativeCountMin(epsilon=0.02, delta=0.05, seed=11, track=32)
        batched.update_batch(pairs)
        reference.update_batch_reference(pairs)
        for key, weight in pairs:
            sequential.update(key, weight)
        assert _state(batched) == _state(reference) == _state(sequential)

    def test_feed_counter_falls_back_to_update_batch(self):
        arr = _zipf_2d(500)[:, 0].copy()
        fed = ConservativeCountMin(epsilon=0.02, delta=0.05, seed=11, track=32)
        ref = ConservativeCountMin(epsilon=0.02, delta=0.05, seed=11, track=32)
        feed_counter(fed, pack_keys(arr), None)
        feed_counter_reference(ref, _aggregate([int(v) for v in arr]))
        assert _state(fed) == _state(ref)


def _output_state(output):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in output
    ]


class TestRHHHSketchLockstep:
    """Same-seed RHHH batch vs scalar reference, sketch counters per node."""

    @pytest.mark.parametrize("counter", SKETCH_IDS)
    def test_batch_and_reference_reach_identical_state(self, counter):
        hierarchy = make_hierarchy("1d-bytes")
        keys = ZipfFlowGenerator(num_flows=400, skew=1.2, seed=13).keys_1d(4000)
        fast = RHHH(hierarchy, epsilon=0.05, delta=0.05, seed=9, counter=counter)
        ref = RHHH(hierarchy, epsilon=0.05, delta=0.05, seed=9, counter=counter)
        for lo in range(0, len(keys), 1000):
            chunk = keys[lo : lo + 1000]
            fast.update_batch(np.asarray(chunk, dtype=np.int64))
            ref.update_batch_reference(chunk)
        assert fast.total == ref.total
        assert fast.ignored_packets == ref.ignored_packets
        for node in range(hierarchy.size):
            assert _state(fast.node_counter(node)) == _state(ref.node_counter(node))
        assert _output_state(fast.output(0.1)) == _output_state(ref.output(0.1))

    def test_weighted_batches_stay_in_lockstep(self):
        hierarchy = make_hierarchy("1d-bytes")
        rng = np.random.default_rng(3)
        keys = ZipfFlowGenerator(num_flows=200, skew=1.0, seed=17).keys_1d(1500)
        weights = rng.integers(1, 7, size=len(keys)).tolist()
        fast = RHHH(hierarchy, epsilon=0.05, delta=0.05, seed=4, counter="count_min")
        ref = RHHH(hierarchy, epsilon=0.05, delta=0.05, seed=4, counter="count_min")
        fast.update_batch(keys, weights)
        ref.update_batch_reference(keys, weights)
        for node in range(hierarchy.size):
            assert _state(fast.node_counter(node)) == _state(ref.node_counter(node))


class TestShardedSketchLockstep:
    """Serial vs process-pool sharded engines with sketch counters per node."""

    def test_pool_matches_serial_engine_with_count_min_nodes(self):
        spec = AlgorithmSpec(
            name="rhhh",
            epsilon=0.05,
            delta=0.05,
            seed=42,
            counter=CounterSpec(name="count_min", track=64),
        )
        keys = ZipfFlowGenerator(num_flows=300, skew=1.1, seed=21).keys_1d(2000)
        serial = ShardedHHH(spec, "1d-bytes", 2, parallel=False)
        with ShardedHHH(spec, "1d-bytes", 2, parallel=True) as pooled:
            for lo in range(0, len(keys), 500):
                chunk = np.asarray(keys[lo : lo + 500], dtype=np.int64)
                serial.update_batch(chunk)
                pooled.update_batch(chunk)
            assert pooled.total == serial.total == len(keys)
            serial_counters, serial_total = serial.merged_counters()
            pooled_counters, pooled_total = pooled.merged_counters()
            assert pooled_total == serial_total
            assert [_state(c) for c in pooled_counters] == [_state(c) for c in serial_counters]
            assert _output_state(pooled.output(0.1)) == _output_state(serial.output(0.1))

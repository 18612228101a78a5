"""Batch/sequential equivalence of the vectorized update engine.

The contract under test: with a fixed seed, feeding a stream through the
vectorized ``RHHH.update_batch`` leaves the algorithm in a bit-identical state
(same ``output(theta)``, same per-node counter contents, same bookkeeping
tallies) as feeding the same chunks through the scalar reference
``update_batch_reference`` - across hierarchies, V multipliers, the
multi-update variant and weighted streams.  The deterministic baseline
algorithms get the sequential ``update_batch`` fallback, which must match a
plain per-packet ``update`` loop exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api.registry import build_algorithm
from repro.api.specs import AlgorithmSpec
from repro.core.checkpoint import snapshot_algorithm
from repro.core.rhhh import RHHH
from repro.core.shard import ShardedHHH
from repro.exceptions import ConfigurationError
from repro.hhh.ancestry import FullAncestry
from repro.hhh.mst import MST
from repro.traffic.caida_like import named_workload


def _keys_2d(count: int):
    return named_workload("chicago16", num_flows=4_000).keys_2d(count)


def _output_signature(algorithm, theta: float):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in algorithm.output(theta)
    ]


def _counter_signature(algorithm):
    state = []
    for node in range(algorithm.hierarchy.size):
        counter = algorithm.node_counter(node)
        state.append(
            sorted((key, counter.estimate(key), counter.lower_bound(key)) for key in counter)
        )
    return state


def _feed(algorithm, keys, batch_size, *, reference=False, weights=None):
    feed = algorithm.update_batch_reference if reference else algorithm.update_batch
    for lo in range(0, len(keys), batch_size):
        chunk_weights = None if weights is None else weights[lo : lo + batch_size]
        feed(keys[lo : lo + batch_size], chunk_weights)


def _assert_bit_identical(vectorized, reference, theta=0.1):
    assert vectorized.total == reference.total
    assert vectorized.ignored_packets == reference.ignored_packets
    assert vectorized.counter_updates == reference.counter_updates
    assert _counter_signature(vectorized) == _counter_signature(reference)
    assert _output_signature(vectorized, theta) == _output_signature(reference, theta)


class TestRHHHBatchEquivalence:
    """Vectorized update_batch == scalar reference, bit for bit."""

    @pytest.mark.parametrize("v_multiplier", [1, 10], ids=["rhhh", "10-rhhh"])
    def test_1d_bytes(self, byte_hierarchy, small_backbone_keys_1d, v_multiplier):
        keys = small_backbone_keys_1d[:12_000]
        make = lambda: RHHH(
            byte_hierarchy, epsilon=0.02, delta=0.05, seed=7, v=v_multiplier * byte_hierarchy.size
        )
        vectorized, reference = make(), make()
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 2_048)
        _feed(reference, keys, 2_048, reference=True)
        _assert_bit_identical(vectorized, reference)

    @pytest.mark.parametrize("v_multiplier", [1, 10], ids=["rhhh", "10-rhhh"])
    def test_2d_bytes(self, two_dim_hierarchy, small_backbone_keys_2d, v_multiplier):
        keys = small_backbone_keys_2d[:12_000]
        make = lambda: RHHH(
            two_dim_hierarchy,
            epsilon=0.02,
            delta=0.05,
            seed=11,
            v=v_multiplier * two_dim_hierarchy.size,
        )
        vectorized, reference = make(), make()
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 2_048)
        _feed(reference, keys, 2_048, reference=True)
        _assert_bit_identical(vectorized, reference)

    def test_1d_bits(self, bit_hierarchy, small_backbone_keys_1d):
        keys = small_backbone_keys_1d[:8_000]
        make = lambda: RHHH(bit_hierarchy, epsilon=0.02, delta=0.05, seed=3)
        vectorized, reference = make(), make()
        _feed(vectorized, keys, 1_024)  # plain list input: coerced internally
        _feed(reference, keys, 1_024, reference=True)
        _assert_bit_identical(vectorized, reference)

    def test_multi_update_variant(self, two_dim_hierarchy):
        keys = _keys_2d(6_000)
        make = lambda: RHHH(
            two_dim_hierarchy, epsilon=0.02, delta=0.05, seed=23, updates_per_packet=3
        )
        vectorized, reference = make(), make()
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 1_000)
        _feed(reference, keys, 1_000, reference=True)
        _assert_bit_identical(vectorized, reference)

    def test_weighted_batches(self, two_dim_hierarchy):
        keys = _keys_2d(6_000)
        weights = np.random.default_rng(5).integers(1, 12, size=len(keys))
        make = lambda: RHHH(two_dim_hierarchy, epsilon=0.02, delta=0.05, seed=31)
        vectorized, reference = make(), make()
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 1_000, weights=weights)
        _feed(reference, keys, 1_000, reference=True, weights=list(weights))
        _assert_bit_identical(vectorized, reference)

    def test_aggregate_weights_past_2_53_are_summed_exactly(self, byte_hierarchy):
        # Regression: the weighted aggregation summed in float64, so a key's
        # total past 2**53 lost its low bits on the vectorized path only.
        make = lambda: RHHH(byte_hierarchy, epsilon=0.1, delta=0.1, seed=3)
        vectorized, reference = make(), make()
        weights = [2**53 + 1, 1, 2]
        vectorized.update_batch([5, 5, 5], weights)
        reference.update_batch_reference([5, 5, 5], weights)
        for node in range(byte_hierarchy.size):
            left = vectorized.node_counter(node).__getstate__()
            right = reference.node_counter(node).__getstate__()
            assert left["counts"].tolist() == right["counts"].tolist()
            assert left["keys"] == right["keys"]
        assert vectorized.node_counter(4).__getstate__()["counts"].tolist() == [2**53 + 1]

    def test_batch_total_and_sampling_tallies(self, byte_hierarchy, small_backbone_keys_1d):
        keys = small_backbone_keys_1d[:5_000]
        algorithm = RHHH(byte_hierarchy, epsilon=0.02, delta=0.05, seed=1, v=4 * byte_hierarchy.size)
        algorithm.update_batch(np.asarray(keys, dtype=np.int64))
        assert algorithm.total == len(keys)
        # Every packet either updated a counter or was ignored.
        assert algorithm.counter_updates + algorithm.ignored_packets == len(keys)

    def test_empty_and_mismatched_batches(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.02, delta=0.05, seed=1)
        algorithm.update_batch([])
        assert algorithm.total == 0
        with pytest.raises(ConfigurationError):
            algorithm.update_batch([1, 2, 3], weights=[1, 2])

    def test_mismatched_weights_raise_uniformly_across_algorithms(self, byte_hierarchy):
        # The sequential fallback must raise the same exception type as the
        # vectorized override, so harness code can handle both uniformly.
        with pytest.raises(ConfigurationError):
            MST(byte_hierarchy, epsilon=0.05).update_batch([1, 2, 3], weights=[1, 2])

    def test_batch_then_output_matches_convergence_accounting(self, two_dim_hierarchy):
        # update_batch interoperates with update(): totals keep accumulating.
        keys = _keys_2d(4_000)
        algorithm = RHHH(two_dim_hierarchy, epsilon=0.02, delta=0.05, seed=2)
        algorithm.update_batch(np.asarray(keys[:2_000], dtype=np.int64))
        for key in keys[2_000:]:
            algorithm.update(key)
        assert algorithm.total == len(keys)
        assert algorithm.output(0.2).total == len(keys)


def _weighted_engine(name, hierarchy):
    if name == "sharded":
        spec = AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=4)
        return ShardedHHH(spec, "1d-bytes", shards=2, parallel=False)
    return build_algorithm(AlgorithmSpec(name=name, epsilon=0.05, delta=0.1, seed=4), hierarchy)


class TestWeightValidation:
    """A fractional weight or one below 1 is rejected before any RNG draw or state change."""

    ENGINES = ["rhhh", "mst", "sampled_mst", "sharded", "exact", "full_ancestry", "partial_ancestry"]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "bad,message",
        [(-3, ">= 1"), (0, ">= 1"), (1.9, "whole numbers"), (0.5, "whole numbers")],
        ids=["negative", "zero", "fraction", "fraction-below-one"],
    )
    def test_bad_batch_weight_leaves_state_untouched(self, engine, bad, message, byte_hierarchy):
        algorithm = _weighted_engine(engine, byte_hierarchy)
        keys = np.random.default_rng(8).integers(0, 2**32, size=200, dtype=np.int64)
        algorithm.update_batch(keys[:100])
        before = pickle.dumps(snapshot_algorithm(algorithm))
        weights = np.ones(100, dtype=np.result_type(bad))
        weights[37] = bad
        with pytest.raises(ConfigurationError, match=f"weights must be {message}"):
            algorithm.update_batch(keys[100:], weights)
        assert pickle.dumps(snapshot_algorithm(algorithm)) == before
        assert algorithm.total == 100

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bad_packet_weight_leaves_state_untouched(self, engine, byte_hierarchy):
        algorithm = _weighted_engine(engine, byte_hierarchy)
        algorithm.update(0x0A000001, 3)
        before = pickle.dumps(snapshot_algorithm(algorithm))
        for bad, message in ((0, ">= 1"), (1.9, "whole numbers"), (0.5, "whole numbers")):
            with pytest.raises(ConfigurationError, match=f"weights must be {message}"):
                algorithm.update(0x0A000002, bad)
            assert pickle.dumps(snapshot_algorithm(algorithm)) == before
        assert algorithm.total == 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_integral_float_weights_count_as_integers(self, engine, byte_hierarchy):
        keys = np.random.default_rng(9).integers(0, 2**32, size=50, dtype=np.int64)
        floats = _weighted_engine(engine, byte_hierarchy)
        ints = _weighted_engine(engine, byte_hierarchy)
        floats.update_batch(keys, np.full(50, 3.0))
        ints.update_batch(keys, np.full(50, 3, dtype=np.int64))
        assert pickle.dumps(snapshot_algorithm(floats)) == pickle.dumps(snapshot_algorithm(ints))
        assert floats.total == ints.total == 150


class TestSequentialFallback:
    """The base-class update_batch must equal a per-packet update loop.

    MST grew its own vectorized aggregated batch path (checked against its
    scalar reference in ``tests/hhh/test_batch_baselines.py``), so the
    sequential-fallback contract is pinned on the ancestry algorithms, which
    still use the base-class implementation.
    """

    def test_ancestry_fallback_bit_identical(self, two_dim_hierarchy, small_backbone_keys_2d):
        keys = small_backbone_keys_2d[:2_000]
        batched = FullAncestry(two_dim_hierarchy, epsilon=0.05)
        sequential = FullAncestry(two_dim_hierarchy, epsilon=0.05)
        batched.update_batch(np.asarray(keys, dtype=np.int64))
        for key in keys:
            sequential.update(key)
        assert _output_signature(batched, 0.1) == _output_signature(sequential, 0.1)
        assert batched.total == sequential.total

    def test_fallback_accepts_weights(self, byte_hierarchy):
        batched = FullAncestry(byte_hierarchy, epsilon=0.05)
        sequential = FullAncestry(byte_hierarchy, epsilon=0.05)
        keys = [0x0A000001, 0x0A000002, 0x0B000001]
        weights = [5, 2, 9]
        batched.update_batch(keys, weights)
        for key, weight in zip(keys, weights):
            sequential.update(key, weight)
        assert _output_signature(batched, 0.2) == _output_signature(sequential, 0.2)

    def test_mst_aggregated_batch_preserves_totals(self, two_dim_hierarchy, small_backbone_keys_2d):
        # MST's vectorized batch aggregates per node, so counter *summaries*
        # may make different eviction choices than a per-packet loop - but
        # every per-node total and the stream total must still match.
        keys = small_backbone_keys_2d[:3_000]
        batched = MST(two_dim_hierarchy, epsilon=0.05)
        sequential = MST(two_dim_hierarchy, epsilon=0.05)
        batched.update_batch(np.asarray(keys, dtype=np.int64))
        for key in keys:
            sequential.update(key)
        assert batched.total == sequential.total
        for node in range(two_dim_hierarchy.size):
            assert batched.node_counter(node).total == sequential.node_counter(node).total

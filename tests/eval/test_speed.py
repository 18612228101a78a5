"""Unit tests for the update-speed measurement helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rhhh import RHHH
from repro.eval.speed import measure_update_speed
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.traffic.zipf import ZipfFlowGenerator


@pytest.fixture(scope="module")
def keys():
    return ZipfFlowGenerator(num_flows=300, skew=1.1, seed=13).keys_1d(5_000)


class TestMeasureUpdateSpeed:
    def test_uses_the_unit_weight_fast_path_when_present(self, keys):
        hierarchy = ipv4_byte_hierarchy()
        algorithm = RHHH(hierarchy, epsilon=0.05, delta=0.1, seed=1)
        calls = {"fast": 0}
        original = algorithm.update_fast

        def counting_fast(key):
            calls["fast"] += 1
            original(key)

        algorithm.update_fast = counting_fast
        result = measure_update_speed(algorithm, keys)
        assert calls["fast"] == len(keys)
        assert result.packets == len(keys)
        assert algorithm.total == len(keys)

    def test_multi_update_variant_keeps_its_r_fold_semantics(self, keys):
        # update_fast performs a single update per packet, so the fast path
        # must not stand in for update() when updates_per_packet > 1.
        hierarchy = ipv4_byte_hierarchy()
        algorithm = RHHH(hierarchy, epsilon=0.05, delta=0.1, seed=1, updates_per_packet=4)
        measure_update_speed(algorithm, keys[:1_000])
        assert algorithm.counter_updates + algorithm.ignored_packets == 4 * 1_000

    def test_falls_back_to_update_without_fast_path(self, keys):
        hierarchy = ipv4_byte_hierarchy()
        algorithm = RHHH(hierarchy, epsilon=0.05, delta=0.1, seed=1)
        # Simulate an algorithm without the fast path.
        algorithm.update_fast = None
        result = measure_update_speed(algorithm, keys[:500])
        assert result.packets == 500
        assert algorithm.total == 500

    def test_accepts_2d_numpy_key_arrays(self):
        # Regression: iterating an (n, 2) array directly fed unhashable
        # numpy rows into the counters; keys must arrive as (src, dst)
        # tuples via HHHAlgorithm._iter_batch_keys.
        from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy

        key_array = ZipfFlowGenerator(num_flows=100, skew=1.1, seed=3).key_array(1_000)
        algorithm = RHHH(ipv4_two_dim_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=1)
        result = measure_update_speed(algorithm, key_array)
        assert result.packets == 1_000
        assert algorithm.total == 1_000

    def test_accepts_1d_numpy_key_arrays(self):
        key_array = np.asarray(
            ZipfFlowGenerator(num_flows=100, skew=1.1, seed=3).keys_1d(800), dtype=np.int64
        )
        algorithm = RHHH(ipv4_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=1)
        result = measure_update_speed(algorithm, key_array)
        assert result.packets == 800
        assert algorithm.total == 800


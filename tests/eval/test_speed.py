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
    @pytest.mark.parametrize("r", [1, 4])
    def test_multi_update_variant_keeps_its_r_fold_semantics(self, keys, r):
        # Every packet must take the full update(): r counter updates or
        # ignores each, all of them tallied.
        hierarchy = ipv4_byte_hierarchy()
        algorithm = RHHH(hierarchy, epsilon=0.05, delta=0.1, seed=1, updates_per_packet=r)
        result = measure_update_speed(algorithm, keys[:1_000])
        assert result.packets == algorithm.total == 1_000
        assert algorithm.counter_updates + algorithm.ignored_packets == r * 1_000

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


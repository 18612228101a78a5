"""Unit tests for the RHHH algorithm itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RHHHConfig
from repro.core.rhhh import RHHH
from repro.exceptions import ConfigurationError
from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hierarchy.ip import ipv4_to_int
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy


class TestConstruction:
    def test_defaults_to_v_equals_h(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1)
        assert algorithm.v == byte_hierarchy.size
        assert algorithm.updates_per_packet == 1

    def test_explicit_config(self, byte_hierarchy):
        config = RHHHConfig(h=5, epsilon=0.05, delta=0.1, v=50, seed=1)
        algorithm = RHHH(byte_hierarchy, config)
        assert algorithm.v == 50
        assert algorithm.config is config

    def test_config_hierarchy_mismatch_rejected(self, two_dim_hierarchy):
        config = RHHHConfig(h=5, epsilon=0.05, delta=0.1)
        with pytest.raises(ConfigurationError):
            RHHH(two_dim_hierarchy, config)

    def test_rejects_bad_updates_per_packet(self, byte_hierarchy):
        with pytest.raises(ConfigurationError):
            RHHH(byte_hierarchy, updates_per_packet=0)

    def test_counters_allocation(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1)
        assert algorithm.counters() == byte_hierarchy.size * algorithm.config.counters_per_node


class TestUpdateMechanics:
    def test_at_most_one_counter_update_per_packet(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, seed=2)
        for _ in range(1_000):
            algorithm.update(ipv4_to_int("10.0.0.1"))
        assert algorithm.total == 1_000
        assert algorithm.counter_updates + algorithm.ignored_packets == 1_000
        # With V = H, every packet updates exactly one node.
        assert algorithm.ignored_packets == 0

    def test_v_larger_than_h_ignores_packets(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, v=50, seed=3)
        for _ in range(2_000):
            algorithm.update(ipv4_to_int("10.0.0.1"))
        # Expected update probability is H/V = 0.1; allow generous slack.
        assert 0.04 <= algorithm.counter_updates / 2_000 <= 0.2
        assert algorithm.ignored_packets == 2_000 - algorithm.counter_updates

    def test_updates_spread_across_levels(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, seed=4)
        key = ipv4_to_int("181.7.20.6")
        for _ in range(5_000):
            algorithm.update(key)
        per_node = [algorithm.node_counter(node).total for node in range(byte_hierarchy.size)]
        assert sum(per_node) == 5_000
        # Every level must have received a non-trivial share.
        for count in per_node:
            assert count > 5_000 / byte_hierarchy.size * 0.5

    def test_deterministic_with_seed(self, byte_hierarchy):
        keys = [ipv4_to_int("10.0.0.1"), ipv4_to_int("10.0.0.2")] * 500
        a = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, seed=7)
        b = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, seed=7)
        a.update_stream(keys)
        b.update_stream(keys)
        assert [a.node_counter(n).total for n in range(5)] == [
            b.node_counter(n).total for n in range(5)
        ]

    def test_weighted_update(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, seed=9)
        algorithm.update(ipv4_to_int("1.1.1.1"), weight=10)
        assert algorithm.total == 10


class TestMultiUpdateVariant:
    def test_r_updates_per_packet(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, seed=5, updates_per_packet=4)
        for _ in range(500):
            algorithm.update(ipv4_to_int("10.0.0.1"))
        assert algorithm.counter_updates == 4 * 500

    def test_faster_convergence_scaling(self, byte_hierarchy):
        """Corollary 6.8: r updates per packet converge r times faster (is_converged uses N*r)."""
        plain = RHHH(byte_hierarchy, epsilon=0.1, delta=0.2, seed=6)
        multi = RHHH(byte_hierarchy, epsilon=0.1, delta=0.2, seed=6, updates_per_packet=4)
        bound = plain.config.convergence_bound
        n = int(bound / 2)
        for _ in range(n):
            plain.update(ipv4_to_int("1.1.1.1"))
            multi.update(ipv4_to_int("1.1.1.1"))
        assert not plain.is_converged
        assert multi.is_converged

    def test_estimates_rescaled_by_r(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.1, delta=0.2, seed=10, updates_per_packet=5)
        key = ipv4_to_int("77.88.99.11")
        for _ in range(4_000):
            algorithm.update(key)
        estimate = algorithm.frequency_estimate(key, node=4)  # the root sees everything
        assert estimate == pytest.approx(4_000, rel=0.15)


class TestOutput:
    def test_recovers_dominant_flow_1d(self, skewed_keys_1d, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, seed=11)
        algorithm.update_stream(skewed_keys_1d)
        output = algorithm.output(theta=0.3)
        reported = {c.prefix.key() for c in output}
        assert (0, 0x0A000001) in reported

    def test_recovers_dominant_flow_2d(self, two_dim_hierarchy):
        heavy = (ipv4_to_int("10.0.0.1"), ipv4_to_int("20.0.0.2"))
        keys = [heavy] * 8_000 + [
            (ipv4_to_int(f"1.2.{i % 200}.{i % 100}"), ipv4_to_int(f"3.4.{i % 150}.{i % 90}"))
            for i in range(8_000)
        ]
        algorithm = RHHH(two_dim_hierarchy, epsilon=0.05, delta=0.1, seed=12)
        algorithm.update_stream(keys)
        reported = {c.prefix.key() for c in algorithm.output(theta=0.3)}
        assert (0, heavy) in reported

    def test_rejects_bad_theta(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1)
        with pytest.raises(ConfigurationError):
            algorithm.output(theta=0.0)

    def test_empty_stream_output_is_empty(self, byte_hierarchy):
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1)
        assert len(algorithm.output(theta=0.1)) == 0

    def test_frequency_estimates_within_bound_after_convergence(self, byte_hierarchy):
        """Accuracy (Definition 10): estimates within epsilon*N once N > psi."""
        algorithm = RHHH(byte_hierarchy, epsilon=0.1, delta=0.2, seed=13)
        heavy = ipv4_to_int("123.45.67.89")
        n = int(algorithm.config.convergence_bound * 1.5)
        keys = [heavy if i % 2 == 0 else ipv4_to_int(f"9.9.{i % 250}.{i % 240}") for i in range(n)]
        algorithm.update_stream(keys)
        assert algorithm.is_converged
        true_frequency = sum(1 for k in keys if k == heavy)
        estimate = algorithm.frequency_estimate(heavy, node=0)
        assert abs(estimate - true_frequency) <= 0.1 * n

    def test_output_conservative_covers_root(self, byte_hierarchy):
        """The fully general prefix always has conditioned frequency N, so it is reported
        unless more specific prefixes already cover (nearly) everything."""
        algorithm = RHHH(byte_hierarchy, epsilon=0.05, delta=0.1, seed=14)
        keys = [ipv4_to_int(f"{i % 200}.{i % 100}.{i % 50}.{i % 25}") for i in range(20_000)]
        algorithm.update_stream(keys)
        output = algorithm.output(theta=0.2)
        # Flat traffic: nothing specific is heavy, so the root must be the cover.
        assert any(c.prefix.node == byte_hierarchy.fully_general_node() for c in output)


class TestNumpyScalarKeys:
    """numpy integer keys fed one at a time are stored, and queried, as Python ints."""

    @pytest.mark.parametrize("dimensions", [1, 2])
    def test_numpy_keys_are_stored_as_ints(self, dimensions, monkeypatch):
        keys = [ipv4_to_int(f"10.{i % 7}.{i % 5}.{i % 50}") for i in range(2_000)]
        if dimensions == 1:
            hierarchy = ipv4_byte_hierarchy()

            def as_numpy(key):
                return np.int64(key)

        else:
            hierarchy = ipv4_two_dim_byte_hierarchy()
            keys = [(key, ipv4_to_int("192.0.2.1") + i % 3) for i, key in enumerate(keys)]

            def as_numpy(key):
                return (np.int64(key[0]), np.uint32(key[1]))

        algorithm = RHHH(hierarchy, epsilon=0.05, delta=0.1, seed=3)
        for key in keys:
            algorithm.update(as_numpy(key))
        stored = [key for node in range(hierarchy.size) for key in algorithm.node_counter(node)]
        members = stored if dimensions == 1 else [member for key in stored for member in key]
        assert {type(member) for member in members} == {int}
        for node in range(hierarchy.size):
            assert algorithm.frequency_estimate(as_numpy(keys[0]), node) == algorithm.frequency_estimate(
                keys[0], node
            )

        def refuse(self, items):
            raise AssertionError("the batch fell back to the scalar twin")

        # Stored keys pack, so the next batch keeps the packed array path.
        monkeypatch.setattr(ArraySpaceSaving, "update_batch_reference", refuse)
        algorithm.update_batch(np.array(keys[:500]))

"""Unit tests for the exact offline HHH solver (the evaluation ground truth)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.hhh.exact import ExactHHH
from repro.hierarchy.ip import ipv4_to_int


class TestFrequencies:
    def test_prefix_frequency_definition_3(self, byte_hierarchy):
        exact = ExactHHH(byte_hierarchy)
        for key, count in [("10.1.1.1", 5), ("10.1.1.2", 3), ("10.2.2.2", 2)]:
            exact.update(ipv4_to_int(key), weight=count)
        assert exact.prefix_frequency((0, ipv4_to_int("10.1.1.1"))) == 5
        assert exact.prefix_frequency((1, ipv4_to_int("10.1.1.0"))) == 8
        assert exact.prefix_frequency((3, ipv4_to_int("10.0.0.0"))) == 10
        assert exact.prefix_frequency((4, 0)) == 10

    def test_prefix_frequencies_per_node(self, byte_hierarchy):
        exact = ExactHHH(byte_hierarchy)
        exact.update(ipv4_to_int("1.1.1.1"), weight=4)
        exact.update(ipv4_to_int("1.1.2.2"), weight=6)
        by_value = exact.prefix_frequencies(2)
        assert by_value[ipv4_to_int("1.1.0.0")] == 10

    def test_conditioned_frequency_definition_6(self, byte_hierarchy):
        """The paper's worked example: C(p1|{p2}) = 108 - 102 = 6."""
        exact = ExactHHH(byte_hierarchy)
        exact.update(ipv4_to_int("101.102.3.4"), weight=60)
        exact.update(ipv4_to_int("101.102.9.9"), weight=42)
        exact.update(ipv4_to_int("101.55.1.1"), weight=6)
        p1 = (3, ipv4_to_int("101.0.0.0"))
        p2 = (2, ipv4_to_int("101.102.0.0"))
        assert exact.conditioned_frequency(p1, []) == 108
        assert exact.conditioned_frequency(p2, []) == 102
        assert exact.conditioned_frequency(p1, [p2]) == 6

    def test_distinct_keys(self, byte_hierarchy):
        exact = ExactHHH(byte_hierarchy)
        for key in ["1.1.1.1", "1.1.1.1", "2.2.2.2"]:
            exact.update(ipv4_to_int(key))
        assert exact.distinct_keys() == 2
        assert exact.counters() == 2


class TestExactHHHSet:
    def test_paper_example_only_p2_is_hhh(self, byte_hierarchy):
        """theta*N = 100: p2 = 101.102.* qualifies, p1 = 101.* does not (conditioned 6)."""
        exact = ExactHHH(byte_hierarchy)
        exact.update(ipv4_to_int("101.102.3.4"), weight=60)
        exact.update(ipv4_to_int("101.102.9.9"), weight=42)
        exact.update(ipv4_to_int("101.55.1.1"), weight=6)
        exact.update(ipv4_to_int("55.55.55.55"), weight=892)  # padding so N = 1000
        output = exact.output(theta=0.1)
        reported = {c.prefix.text for c in output}
        assert "101.102.*" in reported
        assert "101.*" not in reported

    def test_heavy_flow_and_root(self, byte_hierarchy):
        exact = ExactHHH(byte_hierarchy)
        exact.update(ipv4_to_int("9.9.9.9"), weight=80)
        exact.update(ipv4_to_int("8.8.8.8"), weight=20)
        output = exact.output(theta=0.5)
        reported = {c.prefix.text for c in output}
        assert "9.9.9.9" in reported

    def test_level_by_level_semantics(self, byte_hierarchy):
        """Two sibling /24s each below threshold, their /16 above it: only the /16 reported."""
        exact = ExactHHH(byte_hierarchy)
        for i in range(10):
            exact.update(ipv4_to_int(f"50.60.1.{i}"), weight=4)
            exact.update(ipv4_to_int(f"50.60.2.{i}"), weight=4)
        exact.update(ipv4_to_int("7.7.7.7"), weight=20)
        output = exact.output(theta=0.5)  # threshold 50
        reported = {c.prefix.text for c in output}
        assert "50.60.*" in reported
        assert "50.60.1.*" not in reported
        assert "50.60.2.*" not in reported

    def test_two_dimensions(self, two_dim_hierarchy):
        exact = ExactHHH(two_dim_hierarchy)
        src = ipv4_to_int("10.0.0.1")
        for i in range(20):
            exact.update((src, ipv4_to_int(f"20.{30 + i}.0.1")), weight=5)
        exact.update((ipv4_to_int("99.99.99.99"), ipv4_to_int("1.1.1.1")), weight=100)
        output = exact.output(theta=0.4)
        reported = {c.prefix.text for c in output}
        # The source talks to many distinct /16 destinations, so the first
        # aggregate that reaches the threshold is (src, 20.*); once it is
        # selected, the more general (src, *) adds nothing and is not an HHH.
        assert "(10.0.0.1, 20.*)" in reported
        assert "(10.0.0.1, *)" not in reported

    def test_heavy_prefixes_helper(self, byte_hierarchy):
        exact = ExactHHH(byte_hierarchy)
        exact.update(ipv4_to_int("3.3.3.3"), weight=90)
        exact.update(ipv4_to_int("4.4.4.4"), weight=10)
        heavy = exact.heavy_prefixes(node=0, threshold=50)
        assert heavy == {ipv4_to_int("3.3.3.3"): 90}

    def test_rejects_bad_theta(self, byte_hierarchy):
        with pytest.raises(ConfigurationError):
            ExactHHH(byte_hierarchy).output(theta=0.0)

    def test_rejects_negative_weight(self, byte_hierarchy):
        with pytest.raises(ConfigurationError, match="weights must be >= 1"):
            ExactHHH(byte_hierarchy).update(ipv4_to_int("1.1.1.1"), weight=-1)

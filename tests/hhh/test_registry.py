"""Unit tests for building every registered HHH algorithm."""

from __future__ import annotations

import pytest

from repro.api.registry import algorithm_names, build_algorithm
from repro.core.base import HHHAlgorithm
from repro.core.rhhh import RHHH
from repro.exceptions import ConfigurationError
from repro.hierarchy.ip import ipv4_to_int


class TestRegistry:
    @pytest.mark.parametrize("name", algorithm_names())
    def test_every_algorithm_instantiates_and_runs(self, name, byte_hierarchy):
        algorithm = build_algorithm(name, byte_hierarchy, epsilon=0.05, delta=0.1, seed=1)
        assert isinstance(algorithm, HHHAlgorithm)
        for _ in range(200):
            algorithm.update(ipv4_to_int("10.0.0.1"))
        output = algorithm.output(theta=0.5)
        assert output.total == 200

    def test_ten_rhhh_uses_ten_h(self, two_dim_hierarchy):
        algorithm = build_algorithm("10-rhhh", two_dim_hierarchy, epsilon=0.05, delta=0.1, seed=1)
        assert isinstance(algorithm, RHHH)
        assert algorithm.v == 10 * two_dim_hierarchy.size

    def test_unknown_name_raises(self, byte_hierarchy):
        with pytest.raises(ConfigurationError):
            build_algorithm("definitely-not-an-algorithm", byte_hierarchy)

    def test_registry_covers_the_paper_lineup(self):
        for name in ("rhhh", "10-rhhh", "mst", "partial_ancestry", "full_ancestry"):
            assert name in algorithm_names()

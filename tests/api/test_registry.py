"""Unit tests for the decorator-based plugin registries and builders."""

from __future__ import annotations

import pytest

from repro.api.registry import (
    algorithm_names,
    build_algorithm,
    build_counter,
    counter_names,
    hierarchy_names,
    make_hierarchy,
    register_algorithm,
    register_counter,
    unregister_algorithm,
    unregister_counter,
)
from repro.api.specs import AlgorithmSpec, CounterSpec
from repro.core.base import HHHAlgorithm
from repro.core.rhhh import RHHH
from repro.hh.base import CounterAlgorithm
from repro.hh.space_saving import SpaceSaving
from repro.exceptions import ConfigurationError


class TestBuiltinTables:
    def test_algorithms_cover_the_paper_lineup(self):
        assert {"rhhh", "10-rhhh", "mst", "sampled_mst", "full_ancestry",
                "partial_ancestry", "exact"} <= set(algorithm_names())

    def test_counters_cover_the_ablation_lineup(self):
        assert {"space_saving", "misra_gries", "lossy_counting", "count_min",
                "count_sketch", "conservative_count_min", "exact"} <= set(counter_names())

    def test_hierarchies(self):
        assert set(hierarchy_names()) == {"1d-bytes", "1d-bits", "2d-bytes"}
        assert make_hierarchy("1d-bytes").size == 5

    def test_unknown_names_rejected_with_known_list(self):
        with pytest.raises(ConfigurationError, match="known:"):
            build_counter("nope", epsilon=0.01)
        with pytest.raises(ConfigurationError, match="known:"):
            make_hierarchy("nope")

    @pytest.mark.parametrize("name", ["rhhh", "10-rhhh", "mst", "sampled_mst",
                                      "full_ancestry", "partial_ancestry", "exact"])
    def test_every_builtin_algorithm_builds_and_runs(self, name, byte_hierarchy):
        algorithm = build_algorithm(
            AlgorithmSpec(name=name, epsilon=0.05, delta=0.1, seed=1), byte_hierarchy
        )
        assert isinstance(algorithm, HHHAlgorithm)
        for _ in range(100):
            algorithm.update(0x0A000001)
        assert algorithm.output(0.5).total == 100

    @pytest.mark.parametrize("name", ["space_saving", "misra_gries", "lossy_counting",
                                      "count_min", "count_sketch", "conservative_count_min",
                                      "exact"])
    def test_every_builtin_counter_builds_and_counts(self, name):
        counter = build_counter(CounterSpec(name=name), epsilon=0.01)
        assert isinstance(counter, CounterAlgorithm)
        for _ in range(50):
            counter.update("hot")
        assert counter.estimate("hot") > 0


class TestDecoratorRegistration:
    def test_register_and_build_custom_counter(self):
        @register_counter("unit_test_counter")
        def _build(*, epsilon, capacity=None):
            return SpaceSaving(capacity=capacity, epsilon=epsilon)

        try:
            counter = build_counter(CounterSpec(name="unit_test_counter", capacity=8), epsilon=0.5)
            assert counter.counters() == 8  # the spec's capacity reached the factory
            assert "unit_test_counter" in counter_names()
        finally:
            unregister_counter("unit_test_counter")
        assert "unit_test_counter" not in counter_names()

    def test_register_and_build_custom_algorithm(self):
        @register_algorithm("unit_test_algorithm")
        def _build(hierarchy, *, epsilon, delta, seed=None, v=None, counter=None):
            return RHHH(hierarchy, epsilon=epsilon, delta=delta, v=v, seed=seed)

        try:
            algorithm = build_algorithm("unit_test_algorithm", make_hierarchy("1d-bytes"),
                                        epsilon=0.05, delta=0.1, seed=2)
            assert isinstance(algorithm, RHHH)
        finally:
            unregister_algorithm("unit_test_algorithm")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            @register_counter("space_saving")
            def _clash(**kwargs):  # pragma: no cover - never called
                raise AssertionError

    def test_duplicate_algorithm_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            @register_algorithm("rhhh")
            def _clash(hierarchy, **kwargs):  # pragma: no cover - never called
                raise AssertionError

    def test_replace_flag_allows_override(self):
        @register_counter("unit_test_replace")
        def _first(*, epsilon):
            return SpaceSaving(epsilon=epsilon)

        try:
            @register_counter("unit_test_replace", replace=True)
            def _second(*, epsilon):
                return SpaceSaving(capacity=3, epsilon=epsilon)

            counter = build_counter("unit_test_replace", epsilon=0.5)
            assert counter.counters() == 3  # the replacement factory's capacity
        finally:
            unregister_counter("unit_test_replace")


class TestTypedKwargs:
    def test_sketch_width_depth_overrides(self):
        counter = build_counter(CounterSpec(name="count_min", width=64, depth=3), epsilon=0.01)
        assert counter.width == 64 and counter.depth == 3

    def test_ten_rhhh_default_v(self, byte_hierarchy):
        algorithm = build_algorithm("10-rhhh", byte_hierarchy, epsilon=0.05, delta=0.1, seed=1)
        assert algorithm.v == 10 * byte_hierarchy.size

    def test_v_multiplier_resolves_against_hierarchy(self, byte_hierarchy):
        algorithm = build_algorithm(
            AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=1, v_multiplier=4),
            byte_hierarchy,
        )
        assert algorithm.v == 4 * byte_hierarchy.size

    def test_unsupported_parameter_rejected_not_ignored(self, byte_hierarchy):
        with pytest.raises(ConfigurationError, match="rejected its parameters"):
            build_algorithm(
                AlgorithmSpec(name="full_ancestry", epsilon=0.05, v=100), byte_hierarchy
            )

    def test_counter_spec_flows_into_rhhh(self, byte_hierarchy):
        algorithm = build_algorithm(
            AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=1,
                          counter=CounterSpec(name="count_min")),
            byte_hierarchy,
        )
        assert type(algorithm.node_counter(0)).__name__ == "CountMinSketch"


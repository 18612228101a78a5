"""Unit tests for :func:`repro.core.output.prepare_counter_factory`."""

from __future__ import annotations

import pytest

from repro.api.registry import counter_names, make_hierarchy
from repro.api.specs import CounterSpec
from repro.core.output import prepare_counter_factory
from repro.core.rhhh import RHHH
from repro.exceptions import ConfigurationError
from repro.hh.base import CounterAlgorithm


class TestFactory:
    @pytest.mark.parametrize("name", counter_names())
    def test_every_registered_counter_instantiates(self, name):
        counter = prepare_counter_factory(name, 0.01)()
        assert isinstance(counter, CounterAlgorithm)

    @pytest.mark.parametrize("name", counter_names())
    def test_every_counter_counts(self, name):
        counter = prepare_counter_factory(name, 0.01)()
        for _ in range(50):
            counter.update("hot")
        assert counter.estimate("hot") > 0
        assert counter.total == 50

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            prepare_counter_factory("no-such-algorithm", 0.01)()

    def test_registry_contains_space_saving(self):
        assert "space_saving" in counter_names()

    def test_spec_and_callable_forms(self):
        built = prepare_counter_factory(CounterSpec(name="misra_gries"), 0.01)()
        assert type(built).__name__ == "MisraGries"
        called = prepare_counter_factory(
            lambda eps: prepare_counter_factory("space_saving", eps)(), 0.01
        )()
        assert type(called).__name__ == "SpaceSaving"

    def test_prepared_factory_builds_independent_counters(self):
        factory = prepare_counter_factory("space_saving", 0.01)
        first, second = factory(), factory()
        assert first is not second
        first.update("hot")
        assert first.total == 1 and second.total == 0

    def test_spec_resolves_once_per_lattice_build(self, monkeypatch):
        # One resolution per algorithm, not one more per lattice node: the
        # prepared factory only instantiates.
        resolved = []
        original = CounterSpec.resolve

        def counting_resolve(spec, *args, **kwargs):
            resolved.append(spec)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(CounterSpec, "resolve", counting_resolve)
        algorithm = RHHH(make_hierarchy("2d-bytes"), epsilon=0.05, seed=1)
        assert algorithm.hierarchy.size == 25
        assert len(resolved) == 1

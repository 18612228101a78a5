"""Unit tests for the counter-argument helpers in :mod:`repro.hh.factory`."""

from __future__ import annotations

import pytest

from repro.api.registry import counter_names
from repro.api.specs import CounterSpec
from repro.exceptions import ConfigurationError
from repro.hh.base import CounterAlgorithm
from repro.hh.factory import prepare_counter_factory, resolve_counter


class TestFactory:
    @pytest.mark.parametrize("name", counter_names())
    def test_every_registered_counter_instantiates(self, name):
        counter = resolve_counter(name, epsilon=0.01)
        assert isinstance(counter, CounterAlgorithm)

    @pytest.mark.parametrize("name", counter_names())
    def test_every_counter_counts(self, name):
        counter = resolve_counter(name, epsilon=0.01)
        for _ in range(50):
            counter.update("hot")
        assert counter.estimate("hot") > 0
        assert counter.total == 50

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_counter("no-such-algorithm", epsilon=0.01)

    def test_registry_contains_space_saving(self):
        assert "space_saving" in counter_names()

    def test_spec_and_callable_forms(self):
        built = resolve_counter(CounterSpec(name="misra_gries"), epsilon=0.01)
        assert type(built).__name__ == "MisraGries"
        called = resolve_counter(lambda eps: resolve_counter("space_saving", eps), 0.01)
        assert type(called).__name__ == "SpaceSaving"

    def test_prepared_factory_builds_independent_counters(self):
        factory = prepare_counter_factory("space_saving", 0.01)
        first, second = factory(), factory()
        assert first is not second
        first.update("hot")
        assert first.total == 1 and second.total == 0

"""Unit tests for the memory-budget counter chooser."""

from __future__ import annotations

import pytest

from repro.api.memory import (
    SPACE_SAVING_BYTES_PER_COUNTER,
    choose_counter_backend,
    estimate_counter_memory,
)
from repro.api.registry import build_counter
from repro.api.specs import CounterSpec
from repro.exceptions import ConfigurationError
from repro.hh.count_min import CountMinSketch
from repro.hh.count_sketch import CountSketch


class TestEstimates:
    def test_space_saving_scales_with_one_over_epsilon(self):
        small = estimate_counter_memory("space_saving", epsilon=0.01)
        large = estimate_counter_memory("space_saving", epsilon=0.001)
        assert small == 100 * SPACE_SAVING_BYTES_PER_COUNTER
        assert large == 10 * small

    def test_capacity_override(self):
        assert estimate_counter_memory("space_saving", epsilon=0.01, capacity=7) == (
            7 * SPACE_SAVING_BYTES_PER_COUNTER
        )

    def test_bounded_track_shrinks_sketches(self):
        default = estimate_counter_memory("count_min", epsilon=0.01)
        bounded = estimate_counter_memory("count_min", epsilon=0.01, track=50)
        assert bounded < default

    def test_exact_has_no_model(self):
        with pytest.raises(ConfigurationError, match="bounded"):
            estimate_counter_memory("exact", epsilon=0.01)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="memory model"):
            estimate_counter_memory("nope", epsilon=0.01)


class TestChooser:
    def test_space_saving_preferred_when_it_fits(self):
        # The array structure is the preferred Space Saving: on a budget both
        # structures fit, it wins; the linked one only when named alone.
        budget = estimate_counter_memory("space_saving", epsilon=0.01) + 1
        assert choose_counter_backend(budget, epsilon=0.01) == "array_space_saving"
        linked_only = ("space_saving", "count_min", "count_sketch")
        assert choose_counter_backend(budget, epsilon=0.01, candidates=linked_only) == "space_saving"

    def test_array_backend_chosen_when_linked_does_not_fit(self):
        # The array-backed Space Saving is the compacter twin of the linked
        # structure: budgets between the two estimates select it.
        epsilon = 0.01
        array = estimate_counter_memory("array_space_saving", epsilon=epsilon)
        space_saving = estimate_counter_memory("space_saving", epsilon=epsilon)
        assert array < space_saving
        budget = (array + space_saving) // 2
        assert choose_counter_backend(budget, epsilon=epsilon) == "array_space_saving"

    def test_sketch_chosen_when_no_space_saving_variant_fits(self):
        # With a tightly bounded tracked set the count-min table undercuts
        # even the array-backed Space Saving entries; pick a budget between
        # the two.
        epsilon = 0.01
        sketch = estimate_counter_memory("count_min", epsilon=epsilon, track=10)
        array = estimate_counter_memory("array_space_saving", epsilon=epsilon)
        assert sketch < array
        budget = (sketch + array) // 2
        assert choose_counter_backend(budget, epsilon=epsilon, track=10) == "count_min"

    def test_impossible_budget_names_the_cheapest_backend(self):
        with pytest.raises(ConfigurationError, match="raise the budget"):
            choose_counter_backend(16, epsilon=0.001)

    def test_auto_spec_builds_space_saving_on_a_big_budget(self):
        counter = build_counter(
            CounterSpec(auto=True, memory_bytes=10_000_000), epsilon=0.01
        )
        assert type(counter).__name__ == "ArraySpaceSaving"

    def test_auto_spec_builds_array_space_saving_on_a_mid_budget(self):
        epsilon = 0.01
        array = estimate_counter_memory("array_space_saving", epsilon=epsilon)
        space_saving = estimate_counter_memory("space_saving", epsilon=epsilon)
        budget = (array + space_saving) // 2
        counter = build_counter(CounterSpec(auto=True, memory_bytes=budget), epsilon=epsilon)
        assert type(counter).__name__ == "ArraySpaceSaving"

    def test_auto_spec_builds_sketch_on_a_tight_budget(self):
        epsilon = 0.01
        sketch = estimate_counter_memory("count_min", epsilon=epsilon, track=10)
        array = estimate_counter_memory("array_space_saving", epsilon=epsilon)
        budget = (sketch + array) // 2
        counter = build_counter(
            CounterSpec(auto=True, memory_bytes=budget, track=10), epsilon=epsilon
        )
        assert type(counter).__name__ == "CountMinSketch"

    def test_auto_spec_resolution_is_recorded(self):
        resolved = CounterSpec(auto=True, memory_bytes=10_000_000).resolve(0.01)
        assert resolved.name == "array_space_saving" and resolved.auto is False


class TestChooserBoundaries:
    """Exact budget boundaries: the chooser treats "fits" as ``<=``."""

    def test_budget_exactly_at_estimate_fits(self):
        for name in ("space_saving", "array_space_saving"):
            budget = estimate_counter_memory(name, epsilon=0.01)
            assert choose_counter_backend(budget, epsilon=0.01, candidates=(name,)) == name
        # One byte below the array estimate, only a bounded-track sketch fits.
        array = estimate_counter_memory("array_space_saving", epsilon=0.01)
        assert choose_counter_backend(array, epsilon=0.01, track=10) == "array_space_saving"
        assert choose_counter_backend(array - 1, epsilon=0.01, track=10) == "count_min"

    def test_budget_below_every_estimate_is_an_error(self):
        cheapest = min(
            estimate_counter_memory(name, epsilon=0.01)
            for name in ("space_saving", "array_space_saving", "count_min", "count_sketch")
        )
        assert choose_counter_backend(cheapest, epsilon=0.01)  # boundary fits
        with pytest.raises(ConfigurationError, match="raise the budget"):
            choose_counter_backend(cheapest - 1, epsilon=0.01)

    def test_minimum_budget_validation(self):
        with pytest.raises(ConfigurationError, match="memory_bytes"):
            choose_counter_backend(0, epsilon=0.01)


class TestShardBudgetDivision:
    """``shards=N`` divides the deployment budget into per-shard budgets."""

    def test_per_shard_spec_divides_memory_bytes(self):
        from repro.core.shard import per_shard_algorithm_spec
        from repro.api.specs import AlgorithmSpec

        spec = AlgorithmSpec(
            name="rhhh", counter=CounterSpec(auto=True, memory_bytes=100_000)
        )
        assert per_shard_algorithm_spec(spec, 1, 4).counter.memory_bytes == 25_000
        # A budget smaller than the shard count still yields a valid spec
        # (the chooser then reports the shortfall with its usual error).
        assert per_shard_algorithm_spec(spec, 1, 200_001).counter.memory_bytes == 1

    def test_sharded_engine_downgrades_backend_to_fit_the_divided_budget(self):
        from repro.api.specs import AlgorithmSpec
        from repro.core.shard import ShardedHHH

        array = estimate_counter_memory("array_space_saving", epsilon=0.01)
        sketch = estimate_counter_memory("count_min", epsilon=0.01, track=10)
        budget = array + sketch  # fits the array backend outright...
        assert sketch <= budget // 2 < array  # ...but halved, only the sketch
        spec = AlgorithmSpec(
            name="rhhh",
            epsilon=0.05,
            seed=1,
            counter=CounterSpec(auto=True, memory_bytes=budget, epsilon=0.01, track=10),
        )
        unsharded = build_counter(spec.counter, epsilon=0.01)
        assert type(unsharded).__name__ == "ArraySpaceSaving"
        engine = ShardedHHH(spec, "1d-bytes", 2, parallel=False)
        for shard in range(2):
            node_counter = engine.shard_algorithm(shard).node_counter(0)
            assert type(node_counter).__name__ == "CountMinSketch"


class TestSketchGeometryEstimates:
    """The estimates price exactly the tables the constructors build."""

    def test_count_min_estimate_prices_the_constructed_table(self):
        sketch = CountMinSketch(epsilon=0.02, delta=0.14)
        estimate = estimate_counter_memory("count_min", epsilon=0.02, delta=0.14, track=0)
        assert estimate == sketch.depth * sketch.width * 8

    def test_count_sketch_even_depth_delta_prices_the_bumped_table(self):
        # ceil(ln 1/0.14) == 2, which CountSketch.__init__ bumps to 3 so the
        # median stays unambiguous; the estimate must price the bumped row
        # too, not under-count the table at even-depth deltas.
        sketch = CountSketch(epsilon=0.05, delta=0.14)
        assert sketch.depth == 3
        estimate = estimate_counter_memory("count_sketch", epsilon=0.05, delta=0.14, track=0)
        assert estimate == sketch.depth * sketch.width * 8

    def test_count_sketch_odd_depth_delta_is_not_bumped(self):
        # ceil(ln 1/0.04) == 4 bumps to 5; ceil(ln 1/0.01) == 5 stays 5.
        even = estimate_counter_memory("count_sketch", epsilon=0.05, delta=0.04, track=0)
        odd = estimate_counter_memory("count_sketch", epsilon=0.05, delta=0.01, track=0)
        assert even == odd == CountSketch(epsilon=0.05, delta=0.01).depth * CountSketch.derived_width(0.05) * 8

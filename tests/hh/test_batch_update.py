"""Batch-update contracts of the counter algorithms.

Two properties back the RHHH batch engine:

* ``update_batch`` on aggregated ``(key, weight)`` pairs must leave every
  counter in exactly the state a loop of scalar ``update`` calls over the
  same pairs would (this is what the scalar reference path relies on);
* for Space Saving specifically, a weighted update must be exactly
  equivalent to the same number of consecutive unit updates of that key -
  the property that makes pre-aggregating duplicate masked keys lossless.
"""

from __future__ import annotations

import random

import pytest

from repro.api.registry import build_counter, counter_names
from repro.hh.space_saving import SpaceSaving


def _signature(counter):
    return sorted(
        (key, counter.estimate(key), counter.upper_bound(key), counter.lower_bound(key))
        for key in counter
    )


def _random_pairs(seed: int, count: int, key_space: int = 50, max_weight: int = 6):
    rng = random.Random(seed)
    return [(rng.randrange(key_space), rng.randrange(1, max_weight)) for _ in range(count)]


class TestCounterBatchFallback:
    @pytest.mark.parametrize("name", counter_names())
    def test_update_batch_matches_scalar_loop(self, name):
        batched = build_counter(name, epsilon=0.05)
        sequential = build_counter(name, epsilon=0.05)
        pairs = _random_pairs(seed=17, count=800)
        batched.update_batch(pairs)
        for key, weight in pairs:
            sequential.update(key, weight)
        assert batched.total == sequential.total
        assert _signature(batched) == _signature(sequential)

    def test_update_batch_accepts_generator(self):
        counter = build_counter("space_saving", epsilon=0.1)
        counter.update_batch((key, 2) for key in range(5))
        assert counter.total == 10

    def test_space_saving_batch_rejects_non_positive_weight(self):
        counter = SpaceSaving(capacity=4)
        with pytest.raises(ValueError):
            counter.update_batch([(1, 3), (2, 0)])
        # The valid prefix of the batch was applied before the failure.
        assert counter.total == 3

    def test_space_saving_total_survives_mid_batch_iterable_failure(self):
        # If the pair iterable itself blows up mid-batch, the pairs already
        # applied must still be reflected in total (the summary state and its
        # N-based guarantees would silently diverge otherwise).
        counter = SpaceSaving(capacity=4)

        def exploding_pairs():
            yield (1, 3)
            yield (2, 4)
            raise RuntimeError("stream died")

        with pytest.raises(RuntimeError):
            counter.update_batch(exploding_pairs())
        assert counter.total == 7
        assert counter.estimate(1) == 3.0
        assert counter.estimate(2) == 4.0


class TestSpaceSavingWeightedAggregation:
    """update(key, w) == w consecutive unit updates, under eviction pressure."""

    @pytest.mark.parametrize("capacity", [1, 2, 5, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_equals_repeated_unit_updates(self, capacity, seed):
        weighted = SpaceSaving(capacity=capacity)
        repeated = SpaceSaving(capacity=capacity)
        rng = random.Random(seed)
        for _ in range(600):
            key = rng.randrange(capacity * 4)
            weight = rng.randrange(1, 7)
            weighted.update(key, weight)
            for _ in range(weight):
                repeated.update(key, 1)
            # The full internal state must stay in lockstep after every step,
            # not just at the end, so eviction ordering is pinned too.
            assert _signature(weighted) == _signature(repeated)
            assert weighted.total == repeated.total

    def test_aggregated_batch_equals_expanded_stream(self):
        # Aggregating consecutive duplicates of a key stream into weighted
        # pairs must not change the summary.
        rng = random.Random(42)
        stream = [rng.randrange(30) for _ in range(2_000)]
        aggregated = SpaceSaving(capacity=12)
        expanded = SpaceSaving(capacity=12)
        index = 0
        while index < len(stream):
            end = index
            while end < len(stream) and stream[end] == stream[index]:
                end += 1
            aggregated.update_batch([(stream[index], end - index)])
            index = end
        for key in stream:
            expanded.update(key, 1)
        assert _signature(aggregated) == _signature(expanded)
        assert aggregated.total == expanded.total

    def test_heavy_weight_promotion_stays_sorted(self):
        # Large aggregated weights exercise the past-the-tail shortcut; the
        # bucket list must stay strictly sorted by count.
        counter = SpaceSaving(capacity=8)
        rng = random.Random(9)
        for _ in range(400):
            counter.update(rng.randrange(12), rng.choice([1, 2, 5_000, 10_000]))
        counts = []
        bucket = counter._head
        while bucket is not None:
            counts.append(bucket.count)
            assert bucket.keys, "empty bucket left in the list"
            bucket = bucket.next
        assert counts == sorted(set(counts))

"""Differential twin tests for the counter batch paths.

``SpaceSaving.update_batch`` and ``ArraySpaceSaving.update_batch`` each
carry an inlined/vectorized fast path; their scalar twins
(``update_batch_reference``) are the specification.  These tests feed the
same pair streams through both and require bit-identical summaries - the
contract the ``twin-parity`` reprolint rule enforces statically - and pin
the batch order both twins share: hits on keys monitored when the batch
starts, then the remaining pairs.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hh.space_saving import SpaceSaving, hits_first


def _pair_stream(seed: int, n: int, key_space: int, aggregated: bool):
    rng = random.Random(seed)
    pairs = [(rng.randrange(key_space), rng.randint(1, 9)) for _ in range(n)]
    if aggregated:
        totals = {}
        for key, weight in pairs:
            totals[key] = totals.get(key, 0) + weight
        return list(totals.items())
    return pairs


def _observable_state(counter):
    keys = list(counter)
    return {
        "total": counter.total,
        "keys": keys,
        "counters": counter.counters(),
        "estimates": [counter.estimate(k) for k in keys],
        "upper": [counter.upper_bound(k) for k in keys],
        "lower": [counter.lower_bound(k) for k in keys],
    }


@pytest.mark.parametrize("aggregated", [True, False], ids=["aggregated", "raw-pairs"])
@pytest.mark.parametrize("seed", [1, 7, 23])
class TestSpaceSavingTwins:
    def test_linked_space_saving_batch_matches_reference(self, seed, aggregated):
        batch, reference = SpaceSaving(capacity=32), SpaceSaving(capacity=32)
        pairs = _pair_stream(seed, 600, key_space=120, aggregated=aggregated)
        batch.update_batch(pairs)
        reference.update_batch_reference(pairs)
        assert batch.__getstate__() == reference.__getstate__()

    def test_array_space_saving_batch_matches_reference(self, seed, aggregated):
        batch, reference = ArraySpaceSaving(capacity=32), ArraySpaceSaving(capacity=32)
        pairs = _pair_stream(seed, 600, key_space=120, aggregated=aggregated)
        batch.update_batch(pairs)
        reference.update_batch_reference(pairs)
        assert _observable_state(batch) == _observable_state(reference)
        assert pickle.dumps(batch) == pickle.dumps(reference)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_array_space_saving_aggregated_matches_reference(seed):
    # The batch engine's entry point, over consecutive batches that mix
    # hits, free-slot inserts and evictions.
    fast, reference = ArraySpaceSaving(capacity=32), ArraySpaceSaving(capacity=32)
    rng = random.Random(seed)
    for _ in range(6):
        pairs = _pair_stream(rng.randrange(1 << 30), 200, key_space=120, aggregated=True)
        fast.update_aggregated([key for key, _ in pairs], np.array([w for _, w in pairs]))
        reference.update_batch_reference(pairs)
        assert pickle.dumps(fast) == pickle.dumps(reference)


def _apply(structure, method, pairs):
    """Feed ``pairs`` to a fresh-state counter through one batch entry point."""
    if method == "update_aggregated":
        structure.update_aggregated([key for key, _ in pairs], np.array([w for _, w in pairs]))
    else:
        getattr(structure, method)(list(pairs))


@pytest.mark.parametrize(
    "structure, method",
    [
        (SpaceSaving, "update_batch"),
        (SpaceSaving, "update_batch_reference"),
        (ArraySpaceSaving, "update_batch"),
        (ArraySpaceSaving, "update_aggregated"),
        (ArraySpaceSaving, "update_batch_reference"),
    ],
)
def test_batch_applies_hits_before_misses(structure, method):
    # Table {a: 5, b: 1}; the batch lists the miss c before the hit on b.
    # In the given order c would evict b and b would then evict c; hits
    # first, b grows to 4 and c evicts it instead.
    counter = structure(capacity=2)
    counter.update("a", 5)
    counter.update("b", 1)
    given_order = structure(capacity=2)
    given_order.update("a", 5)
    given_order.update("b", 1)
    batch = [("c", 1), ("b", 3)]
    assert hits_first(batch, counter) == [("b", 3), ("c", 1)]
    _apply(counter, method, batch)
    for key, weight in batch:
        given_order.update(key, weight)
    assert {key: (counter.estimate(key), counter.error_of(key)) for key in counter} == {
        "a": (5.0, 0),
        "c": (5.0, 4),
    }
    assert counter.total == 10
    assert set(given_order) == {"a", "b"}  # the order makes a difference here


def test_hits_first_keeps_each_group_in_order():
    pairs = [(5, 1), (1, 2), (6, 3), (2, 4), (5, 5), (1, 6)]
    assert hits_first(iter(pairs), {1, 2}) == [(1, 2), (2, 4), (1, 6), (5, 1), (6, 3), (5, 5)]

"""Property-based merge-equivalence suite for the mergeable counter backends.

The sharded engine reduces per-shard summaries with ``merge``; these tests
pin the documented guarantee of every backend against exact counts computed
from the raw streams:

* **Space Saving** (both implementations): the merged summary brackets every
  key's exact combined count (``lower_bound <= f <= upper_bound``) and
  over-estimates a monitored key by at most the *sum* of the two inputs'
  error bounds (their minimum monitored counts) - per-shard bound only under
  the key-disjoint merge the shard engine uses.  The two implementations
  must also produce *identical* merged states, including cross-implementation
  merges.
* **Misra-Gries**: the merged summary keeps the classic mergeable-summaries
  guarantee over the concatenated stream - never over-estimates, and
  under-estimates by at most ``(N_a + N_b) / (capacity + 1)``.
* **Count-Min / Count Sketch**: table addition is linear, so a merged sketch
  must be *bit-identical* to a single sketch that saw both streams.

Streams are randomized mixes of scalar updates and aggregated weighted
batches over several seeds, the same mixed-feeding discipline the batch
engine exercises in production.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

import numpy as np

from repro.core.shard import shard_of_key
from repro.exceptions import ConfigurationError
from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hh.conservative_update import ConservativeCountMin
from repro.hh.count_min import CountMinSketch
from repro.hh.count_sketch import CountSketch
from repro.hh.exact_counter import ExactCounter
from repro.hh.lossy_counting import LossyCounting
from repro.hh.misra_gries import MisraGries
from repro.hh.space_saving import SpaceSaving

SEEDS = [0, 1, 7, 23]

SPACE_SAVERS = [SpaceSaving, ArraySpaceSaving]


def _random_pairs(rng, key_space, batches, max_keys=24, max_weight=9):
    """A stream as ``[(key, weight), ...]`` chunks of distinct sorted keys."""
    stream = []
    for _ in range(batches):
        count = rng.randrange(1, max_keys + 1)
        keys = sorted(rng.sample(range(key_space), min(count, key_space)))
        stream.append([(key, rng.randrange(1, max_weight + 1)) for key in keys])
    return stream


def _feed_mixed(counter, chunks, rng):
    """Feed chunks through a random mix of scalar updates and batch updates."""
    for chunk in chunks:
        if rng.random() < 0.5:
            for key, weight in chunk:
                counter.update(key, weight)
        else:
            counter.update_batch(list(chunk))


def _exact(chunks) -> Counter:
    exact: Counter = Counter()
    for chunk in chunks:
        for key, weight in chunk:
            exact[key] += weight
    return exact


def _ss_state(counter):
    return sorted(
        (key, counter.estimate(key), counter.error_of(key), counter.lower_bound(key))
        for key in counter
    )


class TestSpaceSavingMerge:
    @pytest.mark.parametrize("cls", SPACE_SAVERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_error_stays_within_summed_bounds(self, cls, seed):
        rng = random.Random(seed)
        chunks_a = _random_pairs(rng, key_space=300, batches=30)
        chunks_b = _random_pairs(rng, key_space=300, batches=30)
        a, b = cls(capacity=40), cls(capacity=40)
        _feed_mixed(a, chunks_a, rng)
        _feed_mixed(b, chunks_b, rng)
        error_a, error_b = a._min_count(), b._min_count()
        total_b = b.total
        a.merge(b)
        exact = _exact(chunks_a) + _exact(chunks_b)
        assert a.total == sum(exact.values())
        assert b.total == total_b  # merge never mutates its argument
        for key, true_count in exact.items():
            assert a.lower_bound(key) <= true_count <= a.upper_bound(key)
            if key in a:
                assert a.estimate(key) - true_count <= error_a + error_b

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linked_and_array_merges_are_identical(self, seed):
        rng = random.Random(seed)
        chunks_a = _random_pairs(rng, key_space=200, batches=25)
        chunks_b = _random_pairs(rng, key_space=200, batches=25)
        merged_states = []
        for cls in SPACE_SAVERS:
            replay = random.Random(seed + 1)
            a, b = cls(capacity=32), cls(capacity=32)
            _feed_mixed(a, chunks_a, replay)
            _feed_mixed(b, chunks_b, replay)
            a.merge(b)
            merged_states.append((_ss_state(a), a.total))
        assert merged_states[0] == merged_states[1]

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_cross_implementation_merge(self, seed):
        rng = random.Random(seed)
        chunks_a = _random_pairs(rng, key_space=150, batches=20)
        chunks_b = _random_pairs(rng, key_space=150, batches=20)
        linked, array = SpaceSaving(capacity=24), ArraySpaceSaving(capacity=24)
        _feed_mixed(linked, chunks_a, random.Random(seed))
        _feed_mixed(array, chunks_b, random.Random(seed))
        reference_a, reference_b = SpaceSaving(capacity=24), SpaceSaving(capacity=24)
        _feed_mixed(reference_a, chunks_a, random.Random(seed))
        _feed_mixed(reference_b, chunks_b, random.Random(seed))
        linked.merge(array)
        reference_a.merge(reference_b)
        assert _ss_state(linked) == _ss_state(reference_a)

    @pytest.mark.parametrize("cls", SPACE_SAVERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_disjoint_shard_merge_against_unsharded_reference(self, cls, seed):
        """The shard reduction: partition one stream, merge back, compare.

        Hash-partitioned shards see disjoint key sets, so the merged summary
        must over-estimate each monitored key by at most the owning shard's
        own error bound - which the summed per-shard minimum bounds from
        above.  The lockstep reference is the exact count table of the whole
        stream.
        """
        rng = random.Random(seed)
        chunks = _random_pairs(rng, key_space=400, batches=60)
        shards = 3
        sharded = [cls(capacity=40) for _ in range(shards)]
        for chunk in chunks:
            per_shard = [[] for _ in range(shards)]
            for key, weight in chunk:
                per_shard[shard_of_key(key, shards)].append((key, weight))
            for shard, pairs in enumerate(per_shard):
                if pairs:
                    sharded[shard].update_batch(pairs)
        shard_error = sum(counter._min_count() for counter in sharded)
        merged = sharded[0]
        for counter in sharded[1:]:
            merged.merge(counter, disjoint=True)
        exact = _exact(chunks)
        assert merged.total == sum(exact.values())
        for key, true_count in exact.items():
            assert merged.lower_bound(key) <= true_count <= merged.upper_bound(key)
            if key in merged:
                assert merged.estimate(key) - true_count <= shard_error

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="capacities"):
            SpaceSaving(capacity=8).merge(SpaceSaving(capacity=9))

    def test_merge_with_non_space_saving_rejected(self):
        with pytest.raises(ConfigurationError, match="merge"):
            SpaceSaving(capacity=8).merge(MisraGries(capacity=8))


class TestMisraGriesMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_underestimates_within_combined_bound(self, seed):
        rng = random.Random(seed)
        chunks_a = _random_pairs(rng, key_space=300, batches=30)
        chunks_b = _random_pairs(rng, key_space=300, batches=30)
        capacity = 40
        a, b = MisraGries(capacity=capacity), MisraGries(capacity=capacity)
        _feed_mixed(a, chunks_a, rng)
        _feed_mixed(b, chunks_b, rng)
        a.merge(b)
        exact = _exact(chunks_a) + _exact(chunks_b)
        combined = sum(exact.values())
        assert a.total == combined
        bound = combined / (capacity + 1)
        for key, true_count in exact.items():
            estimate = a.estimate(key)
            assert estimate <= true_count
            assert true_count - estimate <= bound
            assert a.upper_bound(key) >= true_count

    def test_merge_respects_capacity(self):
        a, b = MisraGries(capacity=5), MisraGries(capacity=5)
        for key in range(5):
            a.update(key, key + 1)
        for key in range(5, 10):
            b.update(key, key + 1)
        a.merge(b)
        assert len(a) <= 5

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="capacities"):
            MisraGries(capacity=8).merge(MisraGries(capacity=9))


class TestSketchMerge:
    @pytest.mark.parametrize("cls", [CountMinSketch, CountSketch, ConservativeCountMin])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_matches_single_pass_table(self, cls, seed):
        rng = random.Random(seed)
        chunks_a = _random_pairs(rng, key_space=500, batches=25)
        chunks_b = _random_pairs(rng, key_space=500, batches=25)
        a = cls(epsilon=0.02, seed=99)
        b = cls(epsilon=0.02, seed=99)
        single = cls(epsilon=0.02, seed=99)
        _feed_mixed(a, chunks_a, random.Random(seed))
        _feed_mixed(b, chunks_b, random.Random(seed))
        for chunk in chunks_a + chunks_b:
            single.update_batch(list(chunk))
        a.merge(b)
        assert a.total == single.total
        if cls is ConservativeCountMin:
            # Conservative update is sub-linear: the merged table only upper
            # bounds the single-pass one, but it must stay a valid sketch.
            exact = _exact(chunks_a) + _exact(chunks_b)
            for key, true_count in exact.items():
                assert a.estimate(key) >= true_count
            return
        assert np.array_equal(a._table, single._table)
        probe = random.Random(seed + 1)
        for key in probe.sample(range(500), 60):
            assert a.estimate(key) == single.estimate(key)

    @pytest.mark.parametrize("cls", [CountMinSketch, CountSketch])
    def test_tracked_keys_survive_merge(self, cls):
        a = cls(epsilon=0.05, seed=5, track=8)
        b = cls(epsilon=0.05, seed=5, track=8)
        for _ in range(50):
            a.update(1)
            b.update(2)
        a.merge(b)
        assert 1 in a and 2 in a

    @pytest.mark.parametrize("cls", [CountMinSketch, CountSketch])
    def test_incompatible_sketches_rejected(self, cls):
        base = cls(epsilon=0.05, seed=5)
        with pytest.raises(ConfigurationError, match="geometry"):
            base.merge(cls(epsilon=0.01, seed=5))
        with pytest.raises(ConfigurationError, match="hash"):
            base.merge(cls(epsilon=0.05, seed=6))

    def test_count_min_refuses_conservative_twin(self):
        with pytest.raises(ConfigurationError, match="merge"):
            CountMinSketch(epsilon=0.05, seed=5).merge(ConservativeCountMin(epsilon=0.05, seed=5))

    @pytest.mark.parametrize(
        "cls,other_cls",
        list(itertools.permutations([CountMinSketch, CountSketch, ConservativeCountMin], 2)),
        ids=lambda cls: cls.__name__,
    )
    def test_cross_family_merge_refused(self, cls, other_cls):
        # The variants subclass one core, so isinstance() holds across
        # families; only the exact-type check keeps their tables apart.
        # Explicit equal geometry makes the type the only difference.
        a = cls(epsilon=0.05, width=64, depth=5, seed=5)
        b = other_cls(epsilon=0.05, width=64, depth=5, seed=5)
        before = a._table.copy()
        with pytest.raises(ConfigurationError, match=f"cannot merge {cls.__name__} with"):
            a.merge(b)
        assert np.array_equal(a._table, before)


class TestDictionaryBackendMerge:
    """The dictionary summaries (ExactCounter, LossyCounting) merge too."""

    def _two_streams(self, seed: int):
        rng = random.Random(seed)
        stream_a = [rng.randrange(40) for _ in range(600)]
        stream_b = [rng.randrange(40) for _ in range(400)]
        return stream_a, stream_b

    def test_exact_counter_merge_is_exact(self):
        stream_a, stream_b = self._two_streams(7)
        a, b = ExactCounter(), ExactCounter()
        for key in stream_a:
            a.update(key)
        for key in stream_b:
            b.update(key)
        a.merge(b)
        combined = Counter(stream_a) + Counter(stream_b)
        assert a.total == len(stream_a) + len(stream_b)
        for key, count in combined.items():
            assert a.estimate(key) == count

    @pytest.mark.parametrize("disjoint", [False, True])
    def test_lossy_counting_merge_brackets_exact_counts(self, disjoint):
        stream_a, stream_b = self._two_streams(11)
        if disjoint:
            # Key-disjoint shards: even keys on a, odd keys on b.
            stream_a = [2 * key for key in stream_a]
            stream_b = [2 * key + 1 for key in stream_b]
        a = LossyCounting(epsilon=0.05)
        b = LossyCounting(epsilon=0.05)
        for key in stream_a:
            a.update(key)
        for key in stream_b:
            b.update(key)
        a.merge(b, disjoint=disjoint)
        combined = Counter(stream_a) + Counter(stream_b)
        n = len(stream_a) + len(stream_b)
        assert a.total == n
        for key, count in combined.items():
            assert a.estimate(key) <= count <= a.upper_bound(key)
            assert a.upper_bound(key) - a.estimate(key) <= 0.05 * n + 2
        # Memory stays epsilon-bounded after the merge, like a fresh summary.
        assert a.counters() <= len(combined)

    def test_lossy_counting_merge_rejects_epsilon_mismatch(self):
        a = LossyCounting(epsilon=0.1)
        b = LossyCounting(epsilon=0.01)
        with pytest.raises(ConfigurationError, match="epsilon"):
            a.merge(b)

    @pytest.mark.parametrize(
        "counter", [LossyCounting(epsilon=0.1), ExactCounter()], ids=["lossy", "exact"]
    )
    def test_merge_rejects_foreign_backends(self, counter):
        with pytest.raises(ConfigurationError, match="merge"):
            counter.merge(MisraGries(capacity=8))

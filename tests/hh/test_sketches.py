"""Unit tests for the sketch-based counters (Count-Min, Count Sketch, conservative update)."""

from __future__ import annotations

import hashlib
import random
import zlib
from collections import Counter

import pytest

import numpy as np

from repro.api.registry import make_hierarchy
from repro.exceptions import ConfigurationError
from repro.hh.conservative_update import ConservativeCountMin
from repro.hh.count_min import CountMinSketch
from repro.hh.count_sketch import CountSketch
from repro.hh.sketch_batch import key_objects
from repro.hhh.mst import MST


def _skewed_stream(n: int, universe: int, seed: int):
    rng = random.Random(seed)
    return [int(rng.paretovariate(1.2)) % universe for _ in range(n)]


class TestCountMin:
    def test_dimensions_from_parameters(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        assert sketch.width >= int(2.718 / 0.01)
        assert sketch.depth >= 4  # ln(100) ~ 4.6

    @pytest.mark.parametrize("epsilon,delta", [(0, 0.1), (0.1, 0), (1.5, 0.1), (0.1, 1.5)])
    def test_rejects_bad_parameters(self, epsilon, delta):
        with pytest.raises(ConfigurationError):
            CountMinSketch(epsilon=epsilon, delta=delta)

    def test_never_underestimates(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.05)
        truth = Counter(_skewed_stream(5_000, 300, seed=1))
        for key, count in truth.items():
            sketch.update(key, weight=count)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_overestimate_within_bound(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        stream = _skewed_stream(20_000, 1_000, seed=2)
        truth = Counter(stream)
        for key in stream:
            sketch.update(key)
        allowed = 0.01 * len(stream)
        violations = sum(
            1 for key, count in truth.items() if sketch.estimate(key) - count > allowed
        )
        # The bound holds per query with probability 1-delta; allow a few.
        assert violations <= max(3, 0.05 * len(truth))

    def test_heavy_hitters_tracked(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        for _ in range(500):
            sketch.update("elephant")
        for i in range(300):
            sketch.update(f"mouse{i}")
        hitters = sketch.heavy_hitters(threshold=100)
        assert any(h.key == "elephant" for h in hitters)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            CountMinSketch().update("a", weight=0)


class TestConservativeCountMin:
    def test_never_underestimates(self):
        sketch = ConservativeCountMin(epsilon=0.01, delta=0.05)
        stream = _skewed_stream(5_000, 200, seed=3)
        truth = Counter(stream)
        for key in stream:
            sketch.update(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_no_worse_than_plain_count_min(self):
        """Conservative update's total table mass never exceeds plain CM's."""
        plain = CountMinSketch(epsilon=0.02, delta=0.05, seed=9)
        conservative = ConservativeCountMin(epsilon=0.02, delta=0.05, seed=9)
        stream = _skewed_stream(10_000, 400, seed=4)
        for key in stream:
            plain.update(key)
            conservative.update(key)
        assert conservative._table.sum() <= plain._table.sum()


class TestCountSketch:
    def test_depth_is_odd(self):
        assert CountSketch(epsilon=0.05, delta=0.05).counters() > 0
        assert CountSketch(epsilon=0.05, delta=0.05)._depth % 2 == 1

    def test_estimates_close_on_skewed_stream(self):
        sketch = CountSketch(epsilon=0.05, delta=0.01)
        stream = _skewed_stream(20_000, 500, seed=5)
        truth = Counter(stream)
        for key in stream:
            sketch.update(key)
        heavy = [key for key, count in truth.items() if count > 500]
        assert heavy, "the stream must contain at least one heavy key"
        for key in heavy:
            assert abs(sketch.estimate(key) - truth[key]) <= 0.05 * len(stream)

    def test_bounds_bracket_estimate(self):
        sketch = CountSketch(epsilon=0.05, delta=0.05)
        for _ in range(100):
            sketch.update("x")
        assert sketch.lower_bound("x") <= sketch.estimate("x") <= sketch.upper_bound("x")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            CountSketch(epsilon=2.0)


def _sign_collision_pair(sketch):
    """Find two keys hashing to the same column with opposite signs (depth 1)."""
    by_col = {}
    for key in range(2000):
        cols, signs = sketch._cols_signs(key)
        col, sign = int(cols[0]), int(signs[0])
        other = by_col.get((col, -sign))
        if other is not None:
            return other, key
        by_col.setdefault((col, sign), key)
    raise AssertionError("no sign collision found in the first 2000 keys")


def _raw_signed_median(sketch, key):
    """The Count Sketch median *before* the nonnegative clamp."""
    cols, signs = sketch._cols_signs(key)
    return float(np.median(sketch._table[sketch._row_idx, cols] * signs))


class TestCountSketchClampRegression:
    """Sign collisions must never surface as negative frequency estimates."""

    def test_sign_collision_estimate_clamped_at_zero(self):
        sketch = CountSketch(epsilon=0.1, width=2, depth=1, seed=0, track=8)
        loud, quiet = _sign_collision_pair(sketch)
        sketch.update(loud, 100)
        # The unclamped signed median really is negative - the clamp is load-
        # bearing, not vacuous.
        assert _raw_signed_median(sketch, quiet) < 0
        assert sketch.estimate(quiet) == 0.0
        assert sketch.upper_bound(quiet) >= sketch.lower_bound(quiet) >= 0.0

    def test_mst_output_bounds_stay_ordered_under_sign_collisions(self):
        # A tiny signed table under an adversarial stream: before the clamp,
        # negative estimates propagated into lattice upper bounds below lower
        # bounds.  MST drives the full Output path deterministically.
        hierarchy = make_hierarchy("1d-bytes")
        algo = MST(
            hierarchy,
            epsilon=0.2,
            counter=lambda epsilon: CountSketch(epsilon=0.2, width=2, depth=1, seed=0, track=16),
        )
        for key in range(64):
            algo.update(key, 1 + key % 7)
        node0 = algo._counters[0]
        assert any(_raw_signed_median(node0, key) < 0 for key in range(64))
        for candidate in algo.output(0.05):
            assert 0.0 <= candidate.lower_bound <= candidate.upper_bound


class TestTrackedEvictionRefresh:
    """The tracked-set victim is re-estimated before being evicted."""

    def test_count_min_keeps_a_victim_whose_estimate_grew(self):
        # width=1: every key shares the single column, so the incumbent's
        # stale tracked value (5) undersells its current estimate (15).
        sketch = CountMinSketch(epsilon=0.5, delta=0.5, width=1, depth=1, track=1)
        sketch.update("a", 5)
        sketch.update("c", 10)
        assert list(sketch) == ["a"]
        assert sketch._tracked["a"] == 15

    def test_count_min_still_evicts_a_genuinely_smaller_victim(self):
        # Integer keys hash to their own value, not through the per-process
        # salted str hash, so 1 and 2 take different columns on every run.
        sketch = CountMinSketch(epsilon=0.1, delta=0.5, track=1)
        assert sketch._cols_signs(1)[0].tolist() != sketch._cols_signs(2)[0].tolist()
        sketch.update(1, 5)
        sketch.update(2, 10)
        assert list(sketch) == [2]

    def test_count_sketch_keeps_a_victim_whose_estimate_grew(self):
        sketch = CountSketch(epsilon=0.5, width=1, depth=1, seed=0, track=1)
        positives = [k for k in range(100) if int(sketch._cols_signs(k)[1][0]) == 1]
        first, second = positives[0], positives[1]
        sketch.update(first, 5)
        sketch.update(second, 10)
        assert list(sketch) == [first]
        assert sketch._tracked[first] == 15


class TestRowIndexCache:
    def test_row_index_cache_matches_depth(self):
        for cls in (CountMinSketch, CountSketch, ConservativeCountMin):
            sketch = cls(epsilon=0.05, delta=0.05)
            assert sketch._row_idx.tolist() == list(range(sketch.depth))


class _Label(str):
    """A string key with a process-stable hash.

    Builtin ``str`` hashing is salted per process, and string keys take the
    sketches' ``hash(key)`` fallback, so a plain string would make the golden
    digests below depend on ``PYTHONHASHSEED``.
    """

    def __hash__(self) -> int:
        return zlib.crc32(self.encode())


def _feed_aggregated(sketch, keys: np.ndarray, weights: np.ndarray) -> None:
    """Apply one aggregated batch the way ``repro.core.batch.feed_counter`` does."""
    if sketch.update_aggregated is None:
        sketch.update_batch(zip(key_objects(keys), weights.tolist()))
    else:
        sketch.update_aggregated(keys, weights)


def _golden_stream(sketch) -> None:
    """Feed a fixed stream through every update entry point of a sketch."""
    rng = np.random.default_rng(2024)
    for i, key in enumerate((rng.zipf(1.3, 60) % 97).tolist()):
        sketch.update(key, 1 + i % 3)
    sketch.update_batch([(key, 1 + key % 4) for key in range(100, 130)])
    sketch.update_batch([(5, 2), (7, 1), (5, 3), (200, 4), (7, 6)])
    _feed_aggregated(
        sketch, np.arange(300, 340, dtype=np.int64) * 7919, np.arange(1, 41, dtype=np.int64)
    )
    pairs = np.array([[10, 20], [10, 21], [11, 20], [2**31, 5], [7, 7]], dtype=np.int64)
    _feed_aggregated(sketch, pairs, np.array([3, 1, 4, 1, 5], dtype=np.int64))
    sketch.update_batch([(_Label(f"host{i}"), 2 + i % 3) for i in range(15)])


def _golden_sketch(cls, geometry):
    """A sketch after the golden stream plus one merge of a same-seed peer."""
    sketch = cls(track=12, **geometry)
    _golden_stream(sketch)
    peer = cls(track=12, **geometry)
    peer.update_batch([(key, 2) for key in range(120, 160)])
    peer.update(_Label("host3"), 9)
    peer.update(5, 11)
    sketch.merge(peer)
    return sketch


def _state_digest(sketch) -> str:
    """SHA-256 over a sketch's full state, independent of the numpy pickle format."""
    state = vars(sketch)
    digest = hashlib.sha256()
    digest.update(repr(list(state)).encode())
    digest.update(repr(sketch._table.shape).encode())
    digest.update(sketch._table.tobytes())
    for attr in ("_a", "_b", "_sa", "_sb"):
        if attr in state:
            digest.update(attr.encode())
            digest.update(state[attr].tobytes())
    digest.update(
        repr((sketch._total, sketch._track_limit, list(sketch._tracked.items()))).encode()
    )
    return digest.hexdigest()


GOLDEN_DIGESTS = {
    ("CountMinSketch", "default"): "acc034af87f200d799711838f2793066eb1828e063d12d093da4538465489cfe",
    ("CountMinSketch", "even-depth"): "12bfe489ab34149359ddddc169aab12201b5730389b8bb602ef100f960b6dfe0",
    ("CountSketch", "default"): "9c178138aff00df2287198ab740e29d58c00fff591c0a7f2e7ec91155b96829d",
    ("CountSketch", "even-depth"): "874041aa2ac964f8009b13a24105523273ccacd6e2c2819fc21141d287f4a50a",
    ("ConservativeCountMin", "default"): "3636ef31281e5c534a4573f477ebff6dde23462ddae63e9168d740ae40d76efe",
    ("ConservativeCountMin", "even-depth"): "9fe256cffb11c0b7b99f730b6efaf57cbc73b665d0270f23fdf63163aca7e7a9",
}


class TestGoldenSketchState:
    """Every sketch reaches a pinned state on a fixed stream.

    The stream covers scalar ``update``, ``update_batch`` with distinct and
    duplicate keys, ``update_aggregated`` with 1-D and ``(n, 2)`` key arrays,
    the string-key fallback and one ``merge``; the geometries cover the
    defaults and an explicit even depth (which the Count Sketch bumps to odd).
    """

    @pytest.mark.parametrize("geometry_id", ["default", "even-depth"])
    @pytest.mark.parametrize("cls", [CountMinSketch, CountSketch, ConservativeCountMin])
    def test_state_digest_is_pinned(self, cls, geometry_id):
        geometry = {"default": {}, "even-depth": {"width": 64, "depth": 4}}[geometry_id]
        sketch = _golden_sketch(cls, geometry)
        assert _state_digest(sketch) == GOLDEN_DIGESTS[(cls.__name__, geometry_id)]

"""Lockstep suite for the array Space Saving merge.

``ArraySpaceSaving.merge`` runs on packed keys with array operations when
both sides' keys pack to one dtype, and otherwise falls back to its scalar
twin ``merge_reference`` (the entry-list merge of :mod:`repro.hh.merge`).
Every case here merges three ways from identical inputs - the array path,
the twin, and the linked-bucket ``SpaceSaving`` - and requires:

* the array result and the twin's to have identical ``__getstate__``;
* both to show the linked summary's observable state (estimates, bounds,
  errors, iteration order, absent-key bound);
* all three to keep evolving in lockstep under further batches and scalar
  updates, which pins the post-merge eviction tie-break order;
* the argument to come out of the merge untouched, index form included.

Inputs cover 1-D and 2-D keys, generic and key-disjoint merges, empty,
partial and full tables, truncating unions, chained merges that carry the
absent-key floor forward, each mix of scalar and batch index forms, and
self-merges.  Unpackable keys and mixed key kinds must take the twin.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hh.array_space_saving import ArraySpaceSaving, pack_keys
from repro.hh.count_min import CountMinSketch
from repro.hh.space_saving import SpaceSaving

CAPACITY = 24
SEEDS = [0, 5, 11]

#: Distinct keys and batches per fill level of a fed table.
FILLS = {"empty": (1, 0), "partial": (12, 2), "full": (400, 30)}

FORMS = ["scalar", "batch"]


def _key(dims, value):
    return value if dims == 1 else (value >> 4, value & 15)


def _stream(rng, dims, fill, offset=0, parity=None):
    """``[(key, weight), ...]`` chunks of distinct sorted keys at the fill level.

    ``parity`` restricts the underlying values to one residue mod 2, which
    makes two streams key-disjoint (the shard partition).
    """
    key_space, batches = FILLS[fill]
    values = [v + offset for v in range(key_space) if parity is None or v % 2 == parity]
    chunks = []
    for _ in range(batches):
        picked = sorted(rng.sample(values, min(rng.randrange(1, 25), len(values))))
        chunks.append([(_key(dims, v), rng.randrange(1, 10)) for v in picked])
    return chunks


def _feed(counters, chunks, rng):
    """Feed the same chunks to an array and a linked summary.

    Half the chunks go through scalar ``update`` calls, half as one
    aggregated batch (a key array for the array summary, so it packs).
    """
    array, linked = counters
    for chunk in chunks:
        if rng.random() < 0.5:
            for key, weight in chunk:
                array.update(key, weight)
                linked.update(key, weight)
        else:
            keys = np.array([key for key, _ in chunk], dtype=np.int64)
            weights = np.array([weight for _, weight in chunk], dtype=np.int64)
            array.update_aggregated(keys, weights)
            linked.update_batch(list(chunk))


def _in_form(counter, form):
    """A copy of ``counter`` holding only the scalar or only the batch index."""
    clone = pickle.loads(pickle.dumps(counter))  # __setstate__: scalar index only
    if form == "batch" and len(clone):
        assert clone._batch_index(pack_keys(list(clone)).dtype)
        clone._keys = clone._slot = None
    assert (clone._slot is None) == (form == "batch" and len(clone) > 0)
    return clone


def _state(counter):
    """``__getstate__`` with arrays as lists, for exact comparison."""
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in counter.__getstate__().items()
    }


def _observed(counter):
    """Every observable of a summary, comparable across the two implementations."""
    keys = list(counter)
    return {
        "entries": [
            (key, counter.estimate(key), counter.lower_bound(key), counter.upper_bound(key),
             counter.error_of(key))
            for key in keys
        ],
        "total": counter.total,
        "absent": (counter.estimate("__absent__"), counter.upper_bound("__absent__")),
    }


def _index_form(counter):
    return (counter._slot is None, counter._packed is None)


class Trio:
    """One summary as the array path, the scalar twin and the linked summary."""

    def __init__(self, array, linked):
        self.fast = array
        self.twin = copy.deepcopy(array)
        self.linked = linked

    @classmethod
    def fed(cls, rng, dims, fill, form, **stream):
        array, linked = ArraySpaceSaving(CAPACITY), SpaceSaving(CAPACITY)
        _feed((array, linked), _stream(rng, dims, fill, **stream), rng)
        return cls(_in_form(array, form), linked)

    def merge(self, other, disjoint=False):
        before = (_state(other.fast), _index_form(other.fast))
        self.fast.merge(other.fast, disjoint=disjoint)
        self.twin.merge_reference(other.twin, disjoint=disjoint)
        self.linked.merge(other.linked, disjoint=disjoint)
        if other is not self:
            assert (_state(other.fast), _index_form(other.fast)) == before
        self.check()

    def check(self):
        assert _state(self.fast) == _state(self.twin)
        assert _observed(self.fast) == _observed(self.twin) == _observed(self.linked)

    def evolve(self, rng, dims):
        """Further batches and scalar updates, in lockstep on all three."""
        for chunk in _stream(rng, dims, "full", offset=7)[:8]:
            keys = np.array([key for key, _ in chunk], dtype=np.int64)
            weights = np.array([weight for _, weight in chunk], dtype=np.int64)
            if rng.random() < 0.5:
                for counter in (self.fast, self.twin, self.linked):
                    for key, weight in chunk:
                        counter.update(key, weight)
            else:
                self.fast.update_aggregated(keys, weights)
                self.twin.update_aggregated(keys, weights)
                self.linked.update_batch(list(chunk))
            self.check()


def _took_array_path(counter):
    """Only the array path leaves a batch index (the twin drops it)."""
    return counter._packed is not None


class TestArrayMergeLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("forms", [(a, b) for a in FORMS for b in FORMS])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_generic_merge(self, dims, forms, seed):
        rng = random.Random(seed)
        a = Trio.fed(rng, dims, "full", forms[0])
        b = Trio.fed(rng, dims, "full", forms[1])
        a.merge(b)
        assert _took_array_path(a.fast)
        a.evolve(rng, dims)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("forms", [(a, b) for a in FORMS for b in FORMS])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_disjoint_merge(self, dims, forms, seed):
        rng = random.Random(seed)
        a = Trio.fed(rng, dims, "full", forms[0], parity=0)
        b = Trio.fed(rng, dims, "full", forms[1], parity=1)
        a.merge(b, disjoint=True)
        assert _took_array_path(a.fast)
        a.evolve(rng, dims)

    @pytest.mark.parametrize("disjoint", [False, True])
    @pytest.mark.parametrize("fills", [
        ("empty", "empty"), ("empty", "partial"), ("partial", "empty"), ("empty", "full"),
        ("full", "empty"), ("partial", "partial"), ("partial", "full"), ("full", "partial"),
    ])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_fill_levels(self, dims, fills, disjoint):
        rng = random.Random(len("".join(fills)) * 10 + dims)
        a = Trio.fed(rng, dims, fills[0], "batch", parity=0 if disjoint else None)
        b = Trio.fed(rng, dims, fills[1], "scalar", parity=1 if disjoint else None)
        a.merge(b, disjoint=disjoint)
        a.evolve(rng, dims)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_truncating_union_raises_the_floor(self, dims):
        rng = random.Random(3)
        a = Trio.fed(rng, dims, "full", "batch", parity=0)
        b = Trio.fed(rng, dims, "full", "batch", parity=1)
        a.merge(b, disjoint=True)
        # The union of two full key-disjoint tables is twice the capacity,
        # so the floor is the smallest kept count, above either input's.
        assert len(a.fast) == CAPACITY
        kept_min = a.fast._min_count()
        assert a.fast._absent_floor == kept_min > 0
        assert a.fast.upper_bound("__absent__") == kept_min

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dims", [1, 2])
    def test_chained_merges_carry_the_floor(self, dims, seed):
        rng = random.Random(seed)
        parts = [Trio.fed(rng, dims, "full", FORMS[i % 2]) for i in range(4)]
        head = parts[0]
        for part in parts[1:3]:  # a three-way chain
            head.merge(part)
        assert head.fast._absent_floor > 0
        head.merge(parts[3])  # four-way: the earlier floor enters this one
        head.evolve(rng, dims)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_merged_pairs_merge_again(self, dims):
        rng = random.Random(17)
        a, b, c, d = (Trio.fed(rng, dims, "full", form) for form in FORMS * 2)
        a.merge(b)
        c.merge(d, disjoint=True)
        a.merge(c)
        a.evolve(rng, dims)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("dims", [1, 2])
    def test_self_merge(self, dims, form):
        rng = random.Random(29)
        a = Trio.fed(rng, dims, "full", form)
        a.merge(a)
        assert _took_array_path(a.fast)
        a.evolve(rng, dims)

    def test_unpackable_keys_take_the_twin(self):
        rng = random.Random(4)
        trios = []
        for _ in range(2):
            array, linked = ArraySpaceSaving(CAPACITY), SpaceSaving(CAPACITY)
            for chunk in _stream(rng, 1, "full"):
                for key, weight in chunk:
                    array.update(f"k{key}", weight)
                    linked.update(f"k{key}", weight)
            trios.append(Trio(array, linked))
        trios[0].merge(trios[1])
        assert not _took_array_path(trios[0].fast)

    @pytest.mark.parametrize("forms", [(a, b) for a in FORMS for b in FORMS])
    def test_mixed_key_kinds_take_the_twin(self, forms):
        rng = random.Random(8)
        a = Trio.fed(rng, 1, "full", forms[0])
        b = Trio.fed(rng, 2, "full", forms[1])
        a.merge(b)
        assert not _took_array_path(a.fast)

    def test_linked_argument_takes_the_twin(self):
        rng = random.Random(9)
        a = Trio.fed(rng, 2, "full", "batch")
        b = Trio.fed(rng, 2, "full", "batch")
        a.fast.merge(b.linked)
        a.twin.merge_reference(b.fast)
        assert not _took_array_path(a.fast)
        assert _state(a.fast) == _state(a.twin)

    def test_capacity_mismatch_and_foreign_backends_rejected(self):
        a, b = ArraySpaceSaving(8), ArraySpaceSaving(9)
        a.update_aggregated(np.arange(4), np.ones(4, dtype=np.int64))
        b.update_aggregated(np.arange(4), np.ones(4, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            a.merge(b)
        with pytest.raises(ConfigurationError):
            a.merge(CountMinSketch(width=16, depth=2, seed=1))

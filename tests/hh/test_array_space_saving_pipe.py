"""Copy forms of the array Space Saving: the worker-pipe form and ``deepcopy``.

Shard workers answer ``snapshot``/``checkpoint`` over a
``multiprocessing`` pipe, whose pickler (``ForkingPickler``) ships an
``ArraySpaceSaving`` as its used-slot arrays with packed keys and rebuilds
it holding the batch index.  The pipe form must carry exactly the state
``__getstate__`` describes, for both index forms of the sender, without
changing the sender; keys that do not pack (and empty tables) ship the
plain form.  Plain ``pickle`` keeps ``__getstate__``, so checkpoint bytes do
not depend on which side of a pipe a counter was last on.

``deepcopy`` copies the arrays in the index form the table holds; a copy
must equal its original and evolve identically.
"""

from __future__ import annotations

import copy
import multiprocessing
import pickle
import random
from multiprocessing.reduction import ForkingPickler

import pytest

import numpy as np

from repro.hh.array_space_saving import ArraySpaceSaving

CAPACITY = 32


def _pair_keys(values):
    return np.stack([values >> 5, values & 31], axis=1)


def _batches(seed, dims, count=12):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        values = np.unique(rng.integers(0, 600, size=40))
        keys = values if dims == 1 else _pair_keys(values)
        yield keys, rng.integers(1, 9, size=values.size)


def _counter(form, dims=2, seed=1):
    """A fed table in the named state.

    ``batch``: only the batch index (after inserting batches); ``scalar``:
    only the scalar index (after scalar inserts); ``both``: a query after a
    batch rebuilt the dict beside the packed keys; ``merged``: a merge
    result, with an absent-key floor; ``strings``: unpackable keys;
    ``empty``: never fed.
    """
    counter = ArraySpaceSaving(CAPACITY)
    if form == "empty":
        return counter
    if form == "strings":
        for index in range(3 * CAPACITY):
            counter.update(f"key{index % 50}", 1 + index % 3)
        return counter
    for keys, weights in _batches(seed, dims):
        counter.update_aggregated(keys, weights)
    if form == "scalar":
        rng = random.Random(seed)
        for _ in range(CAPACITY):
            value = rng.randrange(1000, 2000)
            counter.update(value if dims == 1 else (value >> 5, value & 31), 2)
    elif form == "both":
        list(counter)
    elif form == "merged":
        other = ArraySpaceSaving(CAPACITY)
        for keys, weights in _batches(seed + 1, dims):
            other.update_aggregated(keys, weights)
        counter.merge(other)
    expected = {"batch": (True, False), "scalar": (False, True), "both": (False, False)}
    assert _index_form(counter)[:2] == expected.get(form, _index_form(counter)[:2])
    return counter


FORMS = ["batch", "scalar", "both", "merged", "strings", "empty"]
#: The forms whose keys take integer batches afterwards.
INTEGER_FORMS = [form for form in FORMS if form != "strings"]


def _index_form(counter):
    return (counter._slot is None, counter._packed is None, counter._sorted is None)


def _assert_same_state(left, right):
    """``__getstate__`` equal array for array (dtype included) and key for key."""
    a, b = left.__getstate__(), right.__getstate__()
    assert a.keys() == b.keys()
    for name in a:
        if isinstance(a[name], np.ndarray):
            assert a[name].dtype == b[name].dtype, name
            assert np.array_equal(a[name], b[name]), name
        else:
            assert a[name] == b[name], name
            if name == "keys":
                assert list(map(type, a[name])) == list(map(type, b[name]))


def _evolve_in_lockstep(left, right, dims, seed):
    """Further batches and scalar updates on both; states stay equal after each."""
    rng = random.Random(seed)
    for keys, weights in _batches(seed + 7, dims, count=6):
        left.update_aggregated(keys, weights)
        right.update_aggregated(keys, weights)
        _assert_same_state(left, right)
        for _ in range(10):
            value = rng.randrange(0, 700)
            key = value if dims == 1 else (value >> 5, value & 31)
            left.update(key, 3)
            right.update(key, 3)
        _assert_same_state(left, right)


class TestPipeForm:
    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("form", FORMS)
    def test_round_trip_keeps_the_state(self, form, dims):
        counter = _counter(form, dims)
        before = _index_form(counter)
        received = pickle.loads(ForkingPickler.dumps(counter))
        _assert_same_state(received, counter)
        assert _index_form(counter) == before

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("form", ["batch", "scalar", "both", "merged"])
    def test_packable_counters_arrive_holding_the_batch_index(self, form, dims):
        received = pickle.loads(ForkingPickler.dumps(_counter(form, dims)))
        assert received._slot is None and received._packed is not None

    @pytest.mark.parametrize("form", ["strings", "empty"])
    def test_unpackable_and_empty_counters_ship_the_plain_form(self, form):
        counter = _counter(form)
        received = pickle.loads(ForkingPickler.dumps(counter))
        assert received._packed is None and received._slot is not None

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("form", INTEGER_FORMS)
    def test_received_counter_evolves_like_the_sender(self, form, dims):
        counter = _counter(form, dims)
        received = pickle.loads(ForkingPickler.dumps(counter))
        _evolve_in_lockstep(counter, received, dims, seed=3)

    @pytest.mark.parametrize("form", FORMS)
    def test_plain_pickle_bytes_do_not_depend_on_the_pipe(self, form):
        counter = _counter(form)
        received = pickle.loads(ForkingPickler.dumps(counter))
        assert pickle.dumps(received) == pickle.dumps(counter)
        assert pickle.loads(pickle.dumps(received))._slot is not None

    def test_connection_send_uses_the_pipe_form(self):
        counter = _counter("scalar")
        reader, writer = multiprocessing.Pipe(duplex=False)
        try:
            writer.send([counter, counter])
            received = reader.recv()
        finally:
            reader.close()
            writer.close()
        assert received[0] is received[1]
        assert received[0]._slot is None
        _assert_same_state(received[0], counter)


class TestDeepcopy:
    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("form", INTEGER_FORMS)
    def test_copy_equals_and_evolves_like_the_original(self, form, dims):
        counter = _counter(form, dims)
        clone = copy.deepcopy(counter)
        _assert_same_state(clone, counter)
        assert _index_form(clone)[:2] == _index_form(counter)[:2]
        _evolve_in_lockstep(counter, clone, dims, seed=5)

    def test_copy_of_unpackable_keys_evolves_like_the_original(self):
        counter = _counter("strings")
        clone = copy.deepcopy(counter)
        _assert_same_state(clone, counter)
        for index in range(200):
            key = f"later{index % 70}"
            counter.update(key, 1 + index % 4)
            clone.update(key, 1 + index % 4)
        _assert_same_state(clone, counter)

    @pytest.mark.parametrize("form", ["batch", "scalar", "both"])
    def test_copy_shares_no_mutable_state(self, form):
        counter = _counter(form)
        state = pickle.dumps(counter)
        clone = copy.deepcopy(counter)
        for keys, weights in _batches(99, 2, count=4):
            clone.update_aggregated(keys, weights)
        clone.update((1000, 1), 5)
        assert pickle.dumps(counter) == state

    def test_memo_keeps_shared_references_shared(self):
        counter = _counter("batch")
        copied = copy.deepcopy([counter, counter])
        assert copied[0] is copied[1] and copied[0] is not counter

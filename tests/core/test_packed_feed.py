"""Differential suite of the packed lattice feed.

``LatticeHHH.update_batch`` packs an integer batch once (int64 for 1-D keys,
uint64 ``src << 32 | dst`` for pairs), reducing it to the hierarchy's domain
first when it does not pack as it is (negative keys, components past the
hierarchy's width); it masks each node's group with one AND against the
hierarchy's packed mask table, aggregates it with a 1-D ``np.unique`` and
hands the packed unique keys to the counter.  Keys numpy cannot hold and
hierarchies without a packed mask table take the scalar twin
``update_batch_reference``.  Either way the state must be bit-identical to
that twin: every hierarchy, lattice algorithm, registered counter and weight
kind below, and the out-of-domain keys that pack only after the domain
reduction.  Batches that cannot be keys of the hierarchy are refused before
any state moves, by both twins and by the sharded engine.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api.registry import counter_names
from repro.api.specs import AlgorithmSpec
from repro.core import rhhh
from repro.core.rhhh import RHHH
from repro.core.shard import ShardedHHH
from repro.exceptions import HierarchyError
from repro.hhh.mst import MST
from repro.hhh.sampled_mst import SampledMST
from repro.hierarchy.onedim import ipv4_bit_hierarchy, ipv4_byte_hierarchy, ipv6_byte_hierarchy
from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy
from repro.traffic.caida_like import named_workload

PACKETS = 1_500
CHUNK = 500
EPSILON = 0.05

HIERARCHIES = {
    "1d-bytes": ipv4_byte_hierarchy,
    "1d-bits": ipv4_bit_hierarchy,
    "2d-bytes": ipv4_two_dim_byte_hierarchy,
}

ALGORITHMS = {
    "rhhh": lambda h, counter: RHHH(h, epsilon=EPSILON, delta=0.1, counter=counter, seed=5),
    "rhhh-r3": lambda h, counter: RHHH(
        h, epsilon=EPSILON, delta=0.1, counter=counter, seed=5, updates_per_packet=3
    ),
    "mst": lambda h, counter: MST(h, epsilon=EPSILON, counter=counter),
    "sampled_mst": lambda h, counter: SampledMST(h, epsilon=EPSILON, delta=0.1, counter=counter, seed=5),
}


def _stream(hierarchy_name):
    pairs = named_workload("chicago16", num_flows=600).keys_2d(PACKETS)
    if hierarchy_name == "2d-bytes":
        return np.asarray(pairs, dtype=np.int64)
    return np.asarray([src for src, _dst in pairs], dtype=np.int64)


def _weights(kind):
    if kind == "unit":
        return None
    return np.random.default_rng(3).integers(1, 1_500, size=PACKETS)


def _feed(algorithm, keys, weights, path):
    update = getattr(algorithm, path)
    for lo in range(0, len(keys), CHUNK):
        update(keys[lo : lo + CHUNK], None if weights is None else weights[lo : lo + CHUNK])


def _state(algorithm):
    """The whole lattice state: pickled counters, their iteration order, bookkeeping, RNG.

    The Output is a function of this state, so it is not compared again.
    """
    batch_rng = getattr(algorithm, "_batch_rng", None)
    return {
        "total": algorithm.total,
        "versions": list(algorithm._versions),
        "tallies": [
            getattr(algorithm, name, None)
            for name in ("ignored_packets", "counter_updates", "sampled_packets")
        ],
        "batch_rng": None if batch_rng is None else batch_rng.bit_generator.state,
        "counters": [pickle.dumps(algorithm.node_counter(node)) for node in range(algorithm.hierarchy.size)],
        "iteration": [list(algorithm.node_counter(node)) for node in range(algorithm.hierarchy.size)],
    }


@pytest.fixture
def packed_calls(monkeypatch):
    """The dtype of every node group the lattice core feeds (always packed)."""
    calls = []
    original = rhhh.feed_counter

    def spy(counter, packed, weights):
        calls.append(packed.dtype)
        original(counter, packed, weights)

    monkeypatch.setattr(rhhh, "feed_counter", spy)
    return calls


def _twins(hierarchy, algorithm="rhhh", counter="array_space_saving"):
    return ALGORITHMS[algorithm](hierarchy, counter), ALGORITHMS[algorithm](hierarchy, counter)


@pytest.mark.parametrize("weights", ["unit", "whole"])
@pytest.mark.parametrize("counter", counter_names())
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
@pytest.mark.parametrize("hierarchy", list(HIERARCHIES))
def test_packed_feed_matches_reference(hierarchy, algorithm, counter, weights):
    keys = _stream(hierarchy)
    weight_array = _weights(weights)
    fast, reference = _twins(HIERARCHIES[hierarchy](), algorithm, counter)
    _feed(fast, keys, weight_array, "update_batch")
    _feed(reference, keys, weight_array, "update_batch_reference")
    assert _state(fast) == _state(reference)


class TestPackedPathRuns:
    @pytest.mark.parametrize("hierarchy, dtype", [("1d-bytes", np.int64), ("2d-bytes", np.uint64)])
    def test_numeric_batches_reach_the_counter_packed(self, hierarchy, dtype, packed_calls):
        fast, _ = _twins(HIERARCHIES[hierarchy]())
        fast.update_batch(_stream(hierarchy)[:CHUNK])
        assert packed_calls and set(packed_calls) == {np.dtype(dtype)}

    def test_hierarchy_mask_tables(self):
        assert ipv4_byte_hierarchy().compile_packed_masks().dtype == np.int64
        masks = ipv4_two_dim_byte_hierarchy().compile_packed_masks()
        assert masks.dtype == np.uint64
        assert int(masks[0]) == (1 << 64) - 1 and int(masks[-1]) == 0


OUT_OF_DOMAIN_TWINS = [
    (algorithm, counter)
    for algorithm in ("rhhh", "mst")
    for counter in ("array_space_saving", "space_saving", "count_min", "misra_gries")
]


@pytest.mark.parametrize("algorithm, counter", OUT_OF_DOMAIN_TWINS)
class TestOutOfDomainKeys:
    """Keys past the hierarchy's domain take the packed path, with the twin's state.

    Reducing them to the domain keeps the low bits Python's ``key & mask``
    keeps, so every node masks them to the scalar twin's key.
    """

    def _check(self, hierarchy, keys, packed_calls, algorithm, counter):
        fast, reference = _twins(hierarchy, algorithm, counter)
        fast.update_batch(keys)
        reference.update_batch_reference(keys)
        assert _state(fast) == _state(reference)
        assert packed_calls

    def test_pair_component_past_32_bits(self, packed_calls, algorithm, counter):
        keys = _stream("2d-bytes")[:CHUNK].copy()
        keys[7, 0] = (1 << 32) + 5
        self._check(ipv4_two_dim_byte_hierarchy(), keys, packed_calls, algorithm, counter)

    def test_uint64_pair_component_past_32_bits(self, packed_calls, algorithm, counter):
        keys = _stream("2d-bytes")[:CHUNK].astype(np.uint64)
        keys[7, 1] = (1 << 40) + 9
        keys[8, 0] = (1 << 64) - 1
        self._check(ipv4_two_dim_byte_hierarchy(), keys, packed_calls, algorithm, counter)

    @pytest.mark.parametrize("hierarchy", ["1d-bytes", "2d-bytes"])
    def test_negative_key(self, hierarchy, packed_calls, algorithm, counter):
        keys = _stream(hierarchy)[:CHUNK].copy()
        keys[3] = -9
        self._check(HIERARCHIES[hierarchy](), keys, packed_calls, algorithm, counter)

    def test_uint64_keys_past_63_bits(self, packed_calls, algorithm, counter):
        keys = _stream("1d-bytes")[:CHUNK].astype(np.uint64)
        keys[11] = (1 << 63) + 17
        self._check(ipv4_byte_hierarchy(), keys, packed_calls, algorithm, counter)


class TestPackedKeyForms:
    def test_uint64_keys_on_a_1d_hierarchy_stay_1d(self, packed_calls):
        keys = _stream("1d-bytes")[:CHUNK]
        as_uint, as_int = _twins(ipv4_byte_hierarchy())
        as_uint.update_batch(keys.astype(np.uint64))
        as_int.update_batch(keys)
        assert _state(as_uint) == _state(as_int)
        assert set(packed_calls) == {np.dtype(np.int64)}

    def test_out_of_domain_pairs_mask_like_their_in_domain_twins(self):
        keys = _stream("2d-bytes")[:CHUNK]
        wide, narrow = _twins(ipv4_two_dim_byte_hierarchy())
        wide.update_batch(keys.astype(np.uint64) | np.uint64(0xFFFF_FFFF_0000_0000))
        narrow.update_batch(keys)
        assert _state(wide) == _state(narrow)

    def test_array_node_filled_by_scalar_updates_then_packed_batch(self, packed_calls):
        keys = _stream("2d-bytes")
        fast, reference = _twins(ipv4_two_dim_byte_hierarchy(), "mst")
        for key in map(tuple, keys[:200].tolist()):
            fast.update(key)
            reference.update(key)
        assert all(fast.node_counter(node)._packed is None for node in range(fast.hierarchy.size))
        fast.update_batch(keys[200:700])
        reference.update_batch_reference(keys[200:700])
        assert packed_calls
        assert all(fast.node_counter(node)._packed is not None for node in range(fast.hierarchy.size))
        assert _state(fast) == _state(reference)


class TestReferenceRoute:
    """Keys numpy cannot hold, and hierarchies without a packed table, take the scalar twin."""

    @pytest.mark.parametrize("counter", ["array_space_saving", "space_saving", "count_min"])
    def test_ipv6_keys_past_64_bits(self, counter, packed_calls):
        base = (0x2001_0DB8 << 96) + (7 << 64)
        keys = [base + (i % 37) * 0x1_0000 + i % 5 for i in range(300)]
        fast, reference = _twins(ipv6_byte_hierarchy(), "rhhh", counter)
        fast.update_batch(keys)
        reference.update_batch_reference(keys)
        assert _state(fast) == _state(reference)
        assert fast.total == 300 and not packed_calls

    def test_ipv6_keys_that_fit_int64_still_take_the_twin(self, packed_calls):
        keys = _stream("1d-bytes")[:CHUNK]
        fast, reference = _twins(ipv6_byte_hierarchy(), "mst")
        fast.update_batch(keys)
        reference.update_batch_reference(keys)
        assert _state(fast) == _state(reference)
        assert not packed_calls


def _refused_batches():
    pairs = _stream("2d-bytes")[:CHUNK]
    return [
        pytest.param("1d-bytes", pairs, id="pairs-on-1d"),
        pytest.param("1d-bytes", [tuple(row) for row in pairs[:50].tolist()], id="pair-list-on-1d"),
        pytest.param("2d-bytes", pairs[:, 0], id="scalars-on-2d"),
        pytest.param("2d-bytes", np.hstack([pairs, pairs[:, :1]]), id="triples-on-2d"),
        pytest.param("1d-bytes", pairs[:, 0].astype(np.float64), id="float-1d"),
        pytest.param("2d-bytes", pairs.astype(np.float64), id="float-2d"),
        pytest.param("1d-bytes", np.asarray(["10.0.0.1", "10.0.0.2"]), id="strings"),
    ]


class TestRefusedBatches:
    """A batch that cannot be keys of the hierarchy raises before any state moves."""

    @pytest.mark.parametrize("path", ["update_batch", "update_batch_reference"])
    @pytest.mark.parametrize("hierarchy, keys", _refused_batches())
    def test_lattice_twins_refuse_without_moving_state(self, hierarchy, keys, path):
        algorithm = ALGORITHMS["rhhh"](HIERARCHIES[hierarchy](), "array_space_saving")
        algorithm.update_batch(_stream(hierarchy)[:CHUNK])
        before = _state(algorithm)
        with pytest.raises(HierarchyError, match="integer keys"):
            getattr(algorithm, path)(keys)
        assert _state(algorithm) == before

    @pytest.mark.parametrize("hierarchy, keys", _refused_batches())
    def test_sharded_engine_refuses_before_partitioning(self, hierarchy, keys):
        spec = AlgorithmSpec(name="rhhh", epsilon=EPSILON, delta=0.1, seed=5)
        engine = ShardedHHH(spec, hierarchy, 2, parallel=False)
        engine.update_batch(_stream(hierarchy)[:CHUNK])
        total = engine.total
        with pytest.raises(HierarchyError, match="integer keys"):
            engine.update_batch(keys)
        assert engine.total == total
        assert sum(engine.shard_algorithm(shard).total for shard in range(2)) == total

"""The sharded driver's packed route: pack once, route packed keys, ship packed parts.

:class:`~repro.core.shard.ShardedHHH` packs an integer batch once with the
template's :meth:`~repro.core.rhhh.LatticeHHH._pack`, routes the packed keys
through :func:`~repro.core.shard.shard_assignments` and ships each replica
``("update_packed", packed part, weights)``.  These tests pin that

* in-domain keys keep the shard they had when the driver hashed raw
  ``(n, 2)`` pairs and 1-D keys (golden shard ids);
* the packed part of a 2-D batch is a 1-D uint64 array, one entry a packet;
* keys outside the hierarchy's domain route by their reduction to it, on
  the batch and on the scalar path alike, so the level-0 merge stays
  key-disjoint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.specs import AlgorithmSpec
from repro.core.shard import ShardedHHH, shard_assignments, shard_of_key
from repro.exceptions import HierarchyError
from repro.hh.array_space_saving import pack_keys, unpack_keys
from repro.hierarchy import OneDimHierarchy, TwoDimHierarchy, ipv6_byte_hierarchy

#: Shard ids of :func:`_golden_batches`' keys, one digit a key, as the driver
#: placed them when it hashed raw pairs and 1-D keys.
GOLDEN_IDS = {
    2: (
        "0000010010101101001101001010000100100010",
        "0110100001000111000111101001100101101110",
    ),
    3: (
        "2000011121012000121211122222100021120002",
        "0211121022200120110120112200210012211001",
    ),
    4: (
        "0222230032101101021103023212220100100012",
        "0112100203220311220333303201322301123132",
    ),
}


def _golden_batches():
    rng = np.random.default_rng(2024)
    pairs = rng.integers(0, 2**32, size=(40, 2), dtype=np.int64)
    ones = rng.integers(0, 2**32, size=40, dtype=np.int64)
    return pairs, ones


def _recorded_jobs(engine):
    """Record every job the driver dispatches (the in-process set still applies them)."""
    jobs = []
    apply = engine._replicas.apply

    def recording(batch_jobs, batch):
        jobs.extend(batch_jobs)
        apply(batch_jobs, batch)

    engine._replicas.apply = recording
    return jobs


def _driver_placement(hierarchy, keys, shards):
    """Per key, the replica the driver shipped it to (keys must be distinct)."""
    engine = ShardedHHH("mst", hierarchy, shards, parallel=False)
    jobs = _recorded_jobs(engine)
    engine.update_batch(keys)
    owner = {}
    for replica, (command, packed, _), _ in jobs:
        assert command == "update_packed"
        for key in unpack_keys(packed):
            owner[key] = replica
    plain = [tuple(row) for row in keys.tolist()] if keys.ndim == 2 else keys.tolist()
    return "".join(str(owner[key]) for key in plain)


class TestInDomainPlacementIsUnchanged:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_pair_batch_keeps_its_golden_shards(self, shards):
        pairs, _ = _golden_batches()
        golden = GOLDEN_IDS[shards][0]
        assert _driver_placement("2d-bytes", pairs, shards) == golden
        raw = shard_assignments(pairs, shards)
        packed = shard_assignments(pack_keys(pairs), shards, pairs=True)
        assert "".join(map(str, raw.tolist())) == golden
        assert "".join(map(str, packed.tolist())) == golden

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_one_dim_batch_keeps_its_golden_shards(self, shards):
        _, ones = _golden_batches()
        golden = GOLDEN_IDS[shards][1]
        assert _driver_placement("1d-bytes", ones, shards) == golden
        assert "".join(map(str, shard_assignments(ones, shards).tolist())) == golden

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_scalar_route_agrees_with_the_batch_route(self, shards):
        pairs, ones = _golden_batches()
        scalar = "".join(str(shard_of_key(key, shards)) for key in map(tuple, pairs.tolist()))
        assert scalar == GOLDEN_IDS[shards][0]
        assert "".join(str(shard_of_key(key, shards)) for key in ones.tolist()) == GOLDEN_IDS[shards][1]


class TestPackedMessages:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_two_dim_batch_ships_as_packed_uint64(self, shards):
        pairs, _ = _golden_batches()
        engine = ShardedHHH("rhhh", "2d-bytes", shards, parallel=False)
        jobs = _recorded_jobs(engine)
        engine.update_batch(pairs)
        assert {message[0] for _, message, _ in jobs} == {"update_packed"}
        for _, (_, packed, weights), weight in jobs:
            assert packed.ndim == 1 and packed.dtype == np.uint64
            assert weights is None and weight == len(packed)
        assert sum(len(message[1]) for _, message, _ in jobs) == len(pairs)
        if shards == 1:
            [(_, (_, packed, _), _)] = jobs
            assert packed.tolist() == pack_keys(pairs).tolist()

    def test_weights_travel_with_their_packed_keys(self):
        pairs, _ = _golden_batches()
        weights = np.arange(1, len(pairs) + 1, dtype=np.int64)
        engine = ShardedHHH("rhhh", "2d-bytes", 3, parallel=False)
        jobs = _recorded_jobs(engine)
        engine.update_batch(pairs, weights)
        by_key = dict(zip(map(tuple, pairs.tolist()), weights.tolist()))
        for _, (_, packed, sub_weights), weight in jobs:
            assert [by_key[key] for key in unpack_keys(packed)] == sub_weights.tolist()
            assert weight == int(sub_weights.sum())
        assert engine.total == int(weights.sum())

    def test_unpackable_batches_keep_the_key_message(self):
        wide = np.array([(1 << 70, 5), (3, 4)] * 4, dtype=object)
        engine = ShardedHHH("mst", "2d-bytes", 2, parallel=False)
        jobs = _recorded_jobs(engine)
        engine.update_batch(wide)
        assert {message[0] for _, message, _ in jobs} == {"update_batch"}
        assert engine.total == len(wide)

    def test_update_packed_refuses_keys_of_another_packed_form(self):
        replica = ShardedHHH("mst", "2d-bytes", 1, parallel=False).shard_algorithm(0)
        with pytest.raises(HierarchyError, match="packed key form"):
            replica.update_packed(np.arange(4, dtype=np.int64))
        assert replica.total == 0


def _out_of_domain_stream(seed=0):
    """300 copies of 5 and 200 of 5 + 2**32 among random and heavy 1-D keys."""
    rng = np.random.default_rng(seed)
    keys = np.concatenate(
        [
            np.full(300, 5),
            np.full(200, 5 + 2**32),
            rng.integers(0, 2**32, 2_000),
            np.repeat(np.arange(12) * 1_000 + 7, 250),
        ]
    ).astype(np.int64)
    rng.shuffle(keys)
    return keys


class TestOutOfDomainKeysRouteByTheirReduction:
    @pytest.mark.parametrize("path", ["update", "update_batch"])
    def test_merged_level0_count_brackets_the_reduced_key(self, path):
        """5 and 5 + 2**32 are one 1d-bytes key: they must share a shard, or
        the key-disjoint level-0 merge undercounts it."""
        keys = _out_of_domain_stream()
        engine = ShardedHHH(AlgorithmSpec(name="mst", epsilon=0.1), "1d-bytes", 2, parallel=False)
        jobs = _recorded_jobs(engine)
        if path == "update":
            for key in keys.tolist():
                engine.update(key)
        else:
            for lo in range(0, len(keys), 512):
                engine.update_batch(keys[lo : lo + 512])
        # Every copy of the reduced key 5 went to one replica...
        owners = set()
        for replica, (_, sent, _), _ in jobs:
            if (np.atleast_1d(np.asarray(sent)) & 0xFFFFFFFF == 5).any():
                owners.add(replica)
        assert len(owners) == 1
        # ...so the key-disjoint level-0 merge brackets its true count.
        counters, total = engine.merged_counters()
        assert total == len(keys)
        assert counters[0].lower_bound(5) <= 500 <= counters[0].upper_bound(5)

    def test_update_and_update_batch_place_every_packet_alike(self):
        keys = _out_of_domain_stream(seed=1)
        scalar = ShardedHHH("mst", "1d-bytes", 3, parallel=False)
        batch = ShardedHHH("mst", "1d-bytes", 3, parallel=False)
        for key in keys.tolist():
            scalar.update(key)
        batch.update_batch(keys)
        totals = [[engine.shard_algorithm(i).total for i in range(3)] for engine in (scalar, batch)]
        assert totals[0] == totals[1]

    def test_out_of_domain_pairs_share_their_reduced_pair_shard(self):
        pairs = np.array([(5, 7), (5 + 2**32, 7), (5, 7 - 2**32), (-(2**32) + 5, 7)], dtype=np.int64)
        for shards in (2, 3, 4):
            engine = ShardedHHH("mst", "2d-bytes", shards, parallel=False)
            jobs = _recorded_jobs(engine)
            engine.update_batch(pairs)
            [(_, (_, packed, _), _)] = jobs
            assert unpack_keys(packed) == [(5, 7)] * 4
            owner = shard_of_key((5, 7), shards)
            for pair in pairs.tolist():
                engine.update(tuple(pair))
            assert engine.shard_algorithm(owner).total == 2 * len(pairs)

    @pytest.mark.parametrize("path", ["update", "update_batch", "int64_batch"])
    def test_ipv6_keys_route_by_their_reduction(self, path):
        """IPv6 has no packed form: -1 and 2**128 - 1 (and 5 and 5 + 2**128)
        are one key each, so they share its shard on every route, and the
        replicas see the reduced key."""
        top = 2**128 - 1
        for shards in (2, 3, 4):
            engine = ShardedHHH("mst", ipv6_byte_hierarchy(), shards, parallel=False)
            jobs = _recorded_jobs(engine)
            if path == "update":
                for key in [5, 5 + 2**128, -1, top] * 40:
                    engine.update(key)
            elif path == "update_batch":
                engine.update_batch([5, 5 + 2**128, -1, top] * 40)
            else:
                engine.update_batch(np.array([5, -1] * 80, dtype=np.int64))
            owners = {}
            for replica, (_, sent, _), _ in jobs:
                for key in np.atleast_1d(np.asarray(sent, dtype=object)).tolist():
                    owners.setdefault(key % 2**128, set()).add(replica)
            assert owners == {5: {shard_of_key(5, shards)}, top: {shard_of_key(top, shards)}}
            counters, total = engine.merged_counters()
            assert total == 160
            for key in (5, top):
                assert counters[0].lower_bound(key) <= 80 <= counters[0].upper_bound(key)

    @pytest.mark.parametrize("path", ["update", "update_batch", "int64_batch"])
    def test_wide_pair_keys_route_by_their_reduction(self, path):
        """40-bit dimensions have no packed form, and 2**40 is not 0 modulo
        the hash's 2**64: (5, 7), (5 + 2**40, 7) and (5, 7 - 2**40) are one
        key, and so are (-1, 7) and (2**40 - 1, 7)."""
        top = 2**40 - 1
        pairs = [(5, 7), (5 + 2**40, 7), (5, 7 - 2**40)] + [(-1, 7), (top, 7), (top + 2**40, 7)]
        hierarchy = TwoDimHierarchy(OneDimHierarchy(40, 8), OneDimHierarchy(40, 8))
        for shards in (2, 3, 4):
            engine = ShardedHHH("mst", hierarchy, shards, parallel=False)
            jobs = _recorded_jobs(engine)
            if path == "update":
                for pair in pairs * 20:
                    engine.update(pair)
            elif path == "update_batch":
                engine.update_batch(pairs * 20)
            else:
                engine.update_batch(np.array(pairs * 20, dtype=np.int64))
            owners = {}
            for replica, (_, sent, _), _ in jobs:
                for src, dst in np.asarray(sent).reshape(-1, 2).tolist():
                    owners.setdefault((src & top, dst & top), set()).add(replica)
            assert owners == {key: {shard_of_key(key, shards)} for key in [(5, 7), (top, 7)]}
            counters, total = engine.merged_counters()
            assert total == 120
            for key in [(5, 7), (top, 7)]:
                assert counters[0].lower_bound(key) <= 60 <= counters[0].upper_bound(key)

"""Lockstep and property suite for the sharded parallel batch engine.

Sharded execution is deliberately *not* bit-identical to an unsharded run
(each shard draws its own RNG stream and the merged Space Saving summary is
truncated to capacity), so this suite pins what must hold instead:

* the hash partition is deterministic, total, and identical between the
  scalar and vectorized routing paths;
* per-shard RNG streams come from ``SeedSequence.spawn``: reproducible for a
  fixed ``(seed, shards)`` pair, never identical across shards;
* the serial in-process engine is exactly "N independent replicas fed the
  hash-partitioned sub-streams, merged at output" - the lockstep reference;
* the process-pool engine produces byte-for-byte the same merged counters
  and output as the serial engine (the 2-worker suite CI runs on every
  push);
* merged estimates respect the summed per-shard error bounds against exact
  ground truth (deterministic check via sharded MST);
* the ``shards=`` knob wires through ``ExperimentSpec``/``Session`` and
  divides a memory-budgeted auto counter across shards.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.api.specs import AlgorithmSpec, CounterSpec, ExperimentSpec
from repro.api.registry import build_algorithm, make_hierarchy
from repro.api.session import Session
from repro.core.base import HHHAlgorithm
from repro.core.rhhh import RHHH
from repro.core.shard import (
    ShardedHHH,
    partition_batch,
    per_shard_algorithm_spec,
    shard_assignments,
    shard_of_key,
    spawn_shard_seeds,
)
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.traffic.caida_like import named_workload
from repro.traffic.zipf import ZipfFlowGenerator


def _rhhh_spec(seed=42, epsilon=0.02, delta=0.05):
    return AlgorithmSpec(name="rhhh", epsilon=epsilon, delta=delta, seed=seed)


def _output_state(output):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in output
    ]


def _counter_states(counters):
    return [
        sorted((key, counter.estimate(key), counter.lower_bound(key)) for key in counter)
        for counter in counters
    ]


class TestShardSeeds:
    def test_reproducible_for_fixed_seed_and_shards(self):
        assert spawn_shard_seeds(42, 4) == spawn_shard_seeds(42, 4)

    def test_distinct_across_shards_and_roots(self):
        seeds = spawn_shard_seeds(42, 8)
        assert len(set(seeds)) == 8
        assert spawn_shard_seeds(42, 8) != spawn_shard_seeds(43, 8)

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            spawn_shard_seeds(42, 0)

    def test_shards_never_see_identical_draw_sequences(self):
        """Regression for the shared-RNG bug class: every worker must flip
        its own coins.  Both the numpy batch Generator and the per-packet
        ``random.Random`` streams of any two shard replicas must diverge."""
        hierarchy = make_hierarchy("1d-bytes")
        replicas = [
            RHHH(hierarchy, epsilon=0.05, delta=0.1, seed=seed)
            for seed in spawn_shard_seeds(123, 4)
        ]
        batch_draws = [replica._draw_nodes(256).tolist() for replica in replicas]
        scalar_draws = [
            [replica._rng.randrange(replica.v) for _ in range(256)] for replica in replicas
        ]
        for i in range(len(replicas)):
            for j in range(i + 1, len(replicas)):
                assert batch_draws[i] != batch_draws[j]
                assert scalar_draws[i] != scalar_draws[j]

    def test_unseeded_spawn_still_yields_distinct_streams(self):
        seeds = spawn_shard_seeds(None, 4)
        assert len(set(seeds)) == 4


class TestHashPartition:
    def test_assignments_cover_every_packet_in_range(self):
        keys = named_workload("chicago16", num_flows=500).key_array(5_000)
        assignments = shard_assignments(keys, 4)
        assert assignments.shape == (5_000,)
        assert assignments.min() >= 0 and assignments.max() < 4
        # Every shard gets a non-trivial share on real traffic.
        assert (np.bincount(assignments, minlength=4) > 0).all()

    def test_scalar_and_vectorized_routing_agree(self):
        keys = named_workload("chicago16", num_flows=500).key_array(512)
        assignments = shard_assignments(keys, 5)
        for (src, dst), shard in zip(keys.tolist(), assignments.tolist()):
            assert shard_of_key((src, dst), 5) == shard
        ones = np.ascontiguousarray(keys[:, 0])
        assignments_1d = shard_assignments(ones, 5)
        for key, shard in zip(ones.tolist(), assignments_1d.tolist()):
            assert shard_of_key(key, 5) == shard

    def test_same_key_always_same_shard(self):
        keys = np.asarray([17, 99, 17, 42, 99, 17], dtype=np.int64)
        assignments = shard_assignments(keys, 3)
        assert assignments[0] == assignments[2] == assignments[5]
        assert assignments[1] == assignments[4]

    def test_list_input_matches_array_input(self):
        values = [3, 1 << 31, 7, 123456789]
        as_list = shard_assignments(values, 4)
        as_array = shard_assignments(np.asarray(values, dtype=np.int64), 4)
        assert as_list.tolist() == as_array.tolist()

    def test_non_numeric_keys_fall_back_to_python_hash(self):
        assert shard_assignments(["a", "b"], 2) is None
        assert 0 <= shard_of_key("some-key", 3) < 3

    @staticmethod
    def _partition_batches():
        pairs = named_workload("chicago16", num_flows=200).key_array(600)
        weights = np.arange(1, 601, dtype=np.int64)
        wide = np.array([(1 << 70, 5), (3, 4), (1 << 65, 1 << 66), (9, 9)] * 25, dtype=object)
        return {
            "1d": (np.ascontiguousarray(pairs[:, 0]), None),
            "pairs": (pairs, None),
            "tuple-list": ([(int(s), int(d)) for s, d in pairs.tolist()], None),
            "object": (wide, None),
            "weighted-1d": (np.ascontiguousarray(pairs[:, 0]), weights),
            "weighted-object": (wide, weights[: len(wide)]),
        }

    @pytest.mark.parametrize("parts", [1, 3])
    @pytest.mark.parametrize(
        "batch", ["1d", "pairs", "tuple-list", "object", "weighted-1d", "weighted-object"]
    )
    def test_partition_batch_routes_every_packet_to_its_owner(self, batch, parts):
        keys, weights = self._partition_batches()[batch]
        plain = list(HHHAlgorithm._iter_batch_keys(keys))
        owners = [shard_of_key(key, parts) for key in plain]
        split = partition_batch(keys, weights, parts)
        assert len(split) == parts
        # Every packet lands in exactly one part, in stream order.
        assert sum(len(sub_keys) for sub_keys, _ in split) == len(plain)
        for part, (sub_keys, sub_weights) in enumerate(split):
            picked = [i for i, owner in enumerate(owners) if owner == part]
            assert list(HHHAlgorithm._iter_batch_keys(sub_keys)) == [plain[i] for i in picked]
            if weights is None:
                assert sub_weights is None
            else:
                # Weights follow their keys.
                assert sub_weights.tolist() == [int(weights[i]) for i in picked]


class TestSerialEngineLockstep:
    def test_engine_equals_manual_replicas_plus_merge(self):
        """The serial engine IS hash-partitioned replicas + disjoint merge."""
        spec = _rhhh_spec()
        hierarchy = make_hierarchy("1d-bytes")
        keys = np.ascontiguousarray(
            named_workload("chicago16", num_flows=1_000).key_array(30_000)[:, 0]
        )
        engine = ShardedHHH(spec, "1d-bytes", 3, parallel=False)
        manual = [build_algorithm(s, hierarchy) for s in engine.shard_specs]
        assignments = shard_assignments(keys, 3)
        for lo in range(0, len(keys), 8_192):
            chunk = keys[lo : lo + 8_192]
            engine.update_batch(chunk)
            chunk_assignments = assignments[lo : lo + 8_192]
            for shard, replica in enumerate(manual):
                sub = chunk[chunk_assignments == shard]
                if len(sub):
                    replica.update_batch(sub)
        assert engine.total == len(keys) == sum(r.total for r in manual)
        for shard, replica in enumerate(manual):
            live = engine.shard_algorithm(shard)
            assert live.total == replica.total
            assert _counter_states(live._counters) == _counter_states(replica._counters)
        import copy

        merged_counters = copy.deepcopy(manual[0]._counters)
        for replica in manual[1:]:
            for node, counter in enumerate(replica._counters):
                # Key-disjointness only holds where counter keys are the
                # routed keys: the fully-specified (level-0) node.
                merged_counters[node].merge(counter, disjoint=hierarchy.node_level(node) == 0)
        engine_counters, engine_total = engine.merged_counters()
        assert engine_total == len(keys)
        assert _counter_states(engine_counters) == _counter_states(merged_counters)

    def test_update_routes_like_update_batch(self):
        spec = _rhhh_spec(seed=7)
        engine = ShardedHHH(spec, "1d-bytes", 4, parallel=False)
        keys = [int(k) for k in ZipfFlowGenerator(num_flows=200, seed=3).keys_1d(2_000)]
        for key in keys:
            engine.update(key)
        expected = np.bincount(shard_assignments(np.asarray(keys), 4), minlength=4)
        for shard in range(4):
            assert engine.shard_algorithm(shard).total == expected[shard]
        assert engine.total == len(keys)

    def test_weighted_batches_partition_with_their_keys(self):
        spec = _rhhh_spec(seed=11)
        engine = ShardedHHH(spec, "1d-bytes", 3, parallel=False)
        keys = np.asarray([5, 9, 5, 14, 9, 23, 5], dtype=np.int64)
        weights = np.asarray([2, 3, 1, 4, 1, 2, 5], dtype=np.int64)
        engine.update_batch(keys, weights)
        assignments = shard_assignments(keys, 3)
        for shard in range(3):
            expected = int(weights[assignments == shard].sum())
            assert engine.shard_algorithm(shard).total == expected
        assert engine.total == int(weights.sum())

    def test_merged_estimates_respect_summed_shard_bounds(self):
        """Deterministic (epsilon-bound) lockstep via sharded MST.

        MST updates every lattice node with every packet, so each shard's
        node counter is a plain Space Saving summary of the shard's masked
        sub-stream: the merged counter must bracket the exact masked counts
        and over-estimate monitored keys by at most the summed per-shard
        minima."""
        spec = AlgorithmSpec(name="mst", epsilon=0.05)
        hierarchy = make_hierarchy("1d-bytes")
        generator = ZipfFlowGenerator(num_flows=3_000, skew=1.1, seed=5)
        keys = np.ascontiguousarray(generator.key_array(25_000)[:, 0])
        engine = ShardedHHH(spec, "1d-bytes", 3, parallel=False)
        for lo in range(0, len(keys), 4_096):
            engine.update_batch(keys[lo : lo + 4_096])
        shard_minima = [
            sum(
                engine.shard_algorithm(shard).node_counter(node)._min_count()
                for shard in range(engine.shards)
            )
            for node in range(hierarchy.size)
        ]
        merged, total = engine.merged_counters()
        assert total == len(keys)
        generalizers = hierarchy.compile_generalizers()
        for node in range(hierarchy.size):
            exact: dict = {}
            generalize = generalizers[node]
            for key in keys.tolist():
                masked = generalize(key)
                exact[masked] = exact.get(masked, 0) + 1
            counter = merged[node]
            for masked, true_count in exact.items():
                assert counter.lower_bound(masked) <= true_count <= counter.upper_bound(masked)
                if masked in counter:
                    assert counter.estimate(masked) - true_count <= shard_minima[node]

    def test_single_shard_engine_works(self):
        engine = ShardedHHH(_rhhh_spec(), "1d-bytes", 1, parallel=False)
        keys = np.arange(1_000, dtype=np.int64)
        engine.update_batch(keys)
        assert engine.total == 1_000
        assert len(engine.output(0.5)) >= 0

    def test_output_is_reproducible_for_fixed_seed_and_shards(self):
        keys = np.ascontiguousarray(
            named_workload("chicago16", num_flows=500).key_array(15_000)[:, 0]
        )
        outputs = []
        for _ in range(2):
            engine = ShardedHHH(_rhhh_spec(seed=99), "1d-bytes", 3, parallel=False)
            engine.update_batch(keys)
            outputs.append(_output_state(engine.output(0.1)))
        assert outputs[0] == outputs[1]


class TestEngineValidation:
    def test_rejects_bad_shard_counts(self):
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ConfigurationError):
                ShardedHHH(_rhhh_spec(), "1d-bytes", bad, parallel=False)

    def test_rejects_unmergeable_counter_backend(self):
        # Every built-in backend implements merge() now (lossy_counting and
        # the exact counter grew theirs with the dictionary-backend merges),
        # so the rejection needs a synthetic backend that leaves the
        # protocol default in place.
        from repro.api.registry import register_counter, unregister_counter
        from repro.hh.base import FrequencyEstimator
        from repro.hh.space_saving import SpaceSaving

        class _Unmergeable(SpaceSaving):
            merge = FrequencyEstimator.merge

        @register_counter("unmergeable_test_counter")
        def _build(*, epsilon, capacity=None, **_kwargs):
            return _Unmergeable(capacity=capacity, epsilon=epsilon)

        spec = AlgorithmSpec(
            name="rhhh", counter=CounterSpec(name="unmergeable_test_counter")
        )
        try:
            with pytest.raises(ConfigurationError, match="merge"):
                ShardedHHH(spec, "1d-bytes", 2, parallel=False)
        finally:
            unregister_counter("unmergeable_test_counter")

    def test_accepts_newly_mergeable_lossy_counting_backend(self):
        spec = AlgorithmSpec(
            name="rhhh", epsilon=0.05, delta=0.1, seed=5,
            counter=CounterSpec(name="lossy_counting"),
        )
        engine = ShardedHHH(spec, "1d-bytes", 2, parallel=False)
        keys = named_workload("chicago16", num_flows=200).key_batches(4_000, batch_size=1_000)
        for batch in keys:
            engine.update_batch(batch)
        assert engine.total == 4_000
        assert engine.output(0.3).candidates is not None

    def test_rejects_algorithms_without_a_counter_lattice(self):
        with pytest.raises(ConfigurationError, match="lattice"):
            ShardedHHH(AlgorithmSpec(name="exact"), "1d-bytes", 2, parallel=False)

    def test_shard_algorithm_accessor_is_serial_only(self):
        engine = ShardedHHH(_rhhh_spec(), "1d-bytes", 2, parallel=False)
        assert engine.shard_algorithm(0).total == 0

    def test_divides_memory_budget_across_shards(self):
        spec = AlgorithmSpec(
            name="rhhh",
            epsilon=0.02,
            seed=1,
            counter=CounterSpec(auto=True, memory_bytes=1_000_000),
        )
        sharded = per_shard_algorithm_spec(spec, 77, 4)
        assert sharded.counter.memory_bytes == 250_000
        assert sharded.seed == 77
        engine = ShardedHHH(spec, "1d-bytes", 4, parallel=False)
        assert [s.counter.memory_bytes for s in engine.shard_specs] == [250_000] * 4


class TestParallelEngineLockstep:
    """The 2-worker process-pool suite CI runs on every push.

    One worker pool is spawned for the whole class (spawn-safe lifecycle:
    workers rebuild their replica from the pickled spec and hierarchy name);
    the pool must reproduce the serial engine exactly, surface worker errors
    as :class:`AlgorithmError`, and shut down idempotently.
    """

    def test_pool_matches_serial_engine_and_survives_errors(self):
        spec = _rhhh_spec(seed=42)
        keys = np.ascontiguousarray(
            named_workload("chicago16", num_flows=1_000).key_array(20_000)[:, 0]
        )
        serial = ShardedHHH(spec, "1d-bytes", 2, parallel=False)
        with ShardedHHH(spec, "1d-bytes", 2, parallel=True) as pooled:
            assert pooled.parallel and pooled.shards == 2
            for lo in range(0, len(keys), 4_096):
                chunk = keys[lo : lo + 4_096]
                serial.update_batch(chunk)
                pooled.update_batch(chunk)
            # Scalar routing drives the same workers.
            for key in keys[:50].tolist():
                serial.update(key)
                pooled.update(key)
            assert pooled.total == serial.total == len(keys) + 50
            serial_counters, serial_total = serial.merged_counters()
            pooled_counters, pooled_total = pooled.merged_counters()
            assert pooled_total == serial_total
            assert _counter_states(pooled_counters) == _counter_states(serial_counters)
            assert _output_state(pooled.output(0.1)) == _output_state(serial.output(0.1))
            # A poisoned update fails inside the worker, surfaces as
            # AlgorithmError with the worker traceback, and leaves the pool
            # alive for further work.
            with pytest.raises(AlgorithmError, match="shard worker failed"):
                pooled.update("not-an-integer-key")
            pooled.update_batch(keys[:100])
            assert pooled.total >= serial.total + 100
            pooled.close()
            pooled.close()  # idempotent


class TestSessionIntegration:
    def test_spec_roundtrips_shard_fields(self):
        spec = ExperimentSpec(shards=4, shard_parallel=False, batch_size=1024)
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.shards == 4 and clone.shard_parallel is False

    def test_spec_rejects_bad_shards(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(shards=0)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(shard_parallel="yes")

    def test_session_builds_sharded_engine_and_runs(self):
        spec = ExperimentSpec(
            algorithm=_rhhh_spec(seed=3),
            hierarchy="1d-bytes",
            workload="chicago16",
            num_flows=500,
            packets=20_000,
            theta=0.1,
            batch_size=4_096,
            shards=2,
            shard_parallel=False,
        )
        with Session(spec) as session:
            assert isinstance(session.algorithm, ShardedHHH)
            assert session.algorithm.shards == 2
            assert not session.algorithm.parallel
            result = session.run()
        assert result.packets == 20_000
        assert session.processed == 20_000
        assert result.output.total == 20_000

    def test_sharded_session_matches_direct_engine(self):
        spec = ExperimentSpec(
            algorithm=_rhhh_spec(seed=17),
            hierarchy="1d-bytes",
            workload="chicago16",
            num_flows=500,
            packets=15_000,
            theta=0.1,
            batch_size=2_048,
            shards=3,
            shard_parallel=False,
        )
        with Session(spec) as session:
            result = session.run()
            keys = session.keys()
        engine = ShardedHHH(spec.algorithm, spec.hierarchy, 3, parallel=False)
        for lo in range(0, len(keys), 2_048):
            engine.update_batch(keys[lo : lo + 2_048])
        assert _output_state(result.output) == _output_state(engine.output(0.1))

    def test_per_packet_sharded_session(self):
        spec = ExperimentSpec(
            algorithm=_rhhh_spec(seed=5),
            hierarchy="1d-bytes",
            workload="chicago16",
            num_flows=200,
            packets=2_000,
            theta=0.2,
            shards=2,
            shard_parallel=False,
        )
        with Session(spec) as session:
            result = session.run()
        assert result.packets == 2_000

    def test_parallel_per_packet_spec_warns(self):
        # A worker pool fed one packet (one pipe round-trip) at a time is a
        # slowdown, not a speedup; the Session says so up front.
        import warnings as warnings_module

        from repro.exceptions import ConfigurationWarning

        spec = ExperimentSpec(
            algorithm=_rhhh_spec(), hierarchy="1d-bytes", packets=10, shards=2
        )
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            with Session(spec):
                pass
        assert any(issubclass(w.category, ConfigurationWarning) for w in caught)

    def test_unsharded_specs_build_plain_algorithms(self):
        for shards in (None, 1):
            session = Session(
                ExperimentSpec(algorithm=_rhhh_spec(), hierarchy="1d-bytes", shards=shards)
            )
            assert isinstance(session.algorithm, RHHH)
            session.close()  # no-op without a worker pool

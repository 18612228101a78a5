"""The distributed tier end to end: lockstep identity, soundness, wiring.

``TestLockstep`` is the CI "distrib-lockstep" gate: over a reliable
transport the whole codec -> compression -> delta -> merge chain must be
*bit-identical* to the serial sharded engine - any lossy step shows up as a
differing candidate list.  ``TestSoundnessUnderFaults`` is the other half of
the contract: with loss, delay, reordering, a dead switch *and* top-k
truncation all active, every reported bracket must still contain the exact
count.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.registry import make_hierarchy
from repro.api.session import Session
from repro.api.specs import AlgorithmSpec, DistribSpec, ExperimentSpec
from repro.core.faults import FaultEvent, FaultPlan
from repro.core.shard import ShardedHHH
from repro.distrib.cluster import DistributedCluster
from repro.eval.ground_truth import GroundTruth
from repro.exceptions import CheckpointError, ConfigurationError
from repro.traffic.zipf import ZipfFlowGenerator

SWITCHES = 4
BATCH = 4_096
PACKETS = 30_000
THETA = 0.05


def _keys(seed: int, *, packets: int = PACKETS, dims: int = 2):
    generator = ZipfFlowGenerator(num_flows=3_000, skew=1.2, seed=seed)
    array = generator.key_array(packets)
    return array if dims == 2 else array[:, 0].copy()


def _feed(algorithm, keys, *, batch: int = BATCH) -> None:
    for lo in range(0, len(keys), batch):
        algorithm.update_batch(keys[lo : lo + batch])


def _spec(*, algorithm=None, hierarchy="2d-bytes", **distrib_kwargs) -> ExperimentSpec:
    return ExperimentSpec(
        algorithm=algorithm or AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=7),
        hierarchy=hierarchy,
        batch_size=BATCH,
        distrib=DistribSpec(switches=SWITCHES, **distrib_kwargs),
    )


class TestLockstep:
    """Loopback cluster == serial ShardedHHH, bit for bit (the CI gate)."""

    @pytest.mark.parametrize("delta", [True, False], ids=["delta", "snapshots"])
    def test_cluster_matches_the_serial_sharded_engine(self, delta):
        keys = _keys(31)
        spec = _spec(delta=delta, epoch_batches=1)
        cluster = DistributedCluster(spec)
        reference = ShardedHHH(spec.algorithm, "2d-bytes", SWITCHES, parallel=False)
        _feed(cluster, keys)
        _feed(reference, keys)
        ours, theirs = cluster.output(THETA), reference.output(THETA)
        assert ours.candidates == theirs.candidates
        assert len(ours.candidates) > 0
        assert not ours.failed_shards
        if delta:
            # the equality above went through the delta path, not around it
            assert cluster.aggregator.deltas_applied > 0
        else:
            assert cluster.aggregator.deltas_applied == 0

    def test_epoch_cadence_does_not_change_the_answer(self):
        keys = _keys(32)
        outputs = []
        for epoch_batches in (1, 3):
            cluster = DistributedCluster(_spec(epoch_batches=epoch_batches))
            _feed(cluster, keys)
            outputs.append(cluster.output(THETA))
        assert outputs[0].candidates == outputs[1].candidates

    def test_scalar_updates_stay_lockstep_with_the_serial_engine(self):
        # RHHH's scalar and batch paths own independent RNG streams, so the
        # lockstep pairing is scalar-vs-scalar (and batch-vs-batch above).
        keys = _keys(33, packets=2_000)
        spec = _spec()
        cluster = DistributedCluster(spec)
        reference = ShardedHHH(spec.algorithm, "2d-bytes", SWITCHES, parallel=False)
        for src, dst in keys:
            cluster.update((int(src), int(dst)))
            reference.update((int(src), int(dst)))
        assert cluster.output(THETA).candidates == reference.output(THETA).candidates


    def test_object_dtype_pair_batch_routes_like_the_serial_engine(self):
        # Regression: the cluster used to iterate raw ndarray rows and hash
        # them (TypeError: unhashable type); both engines share one router.
        keys = np.array([(1 << 70, 5), (3, 4)] * 8, dtype=object)
        spec = _spec()
        cluster = DistributedCluster(spec)
        reference = ShardedHHH(spec.algorithm, "2d-bytes", SWITCHES, parallel=False)
        cluster.update_batch(keys)
        reference.update_batch(keys)
        assert cluster.total == reference.total == len(keys)
        candidates = cluster.output(THETA).candidates
        assert len(candidates) > 0
        assert candidates == reference.output(THETA).candidates


class TestSoundnessUnderFaults:
    """Bounds must bracket the exact counts with every adversity enabled."""

    def _run(self, *, faults=True):
        keys = _keys(41, dims=1)
        plan = None
        if faults:
            events = list(
                FaultPlan.random_network(
                    11, messages=10, switches=8, drops=2, delays=2, reorders=1
                ).events
            )
            events.append(FaultEvent("kill", 5, shard=2))
            plan = FaultPlan(events)
        spec = ExperimentSpec(
            algorithm=AlgorithmSpec(name="mst", epsilon=0.02, seed=9),
            hierarchy="1d-bytes",
            batch_size=BATCH,
            distrib=DistribSpec(switches=8, top_k=24, transport="simulated"),
        )
        cluster = DistributedCluster(spec, fault_plan=plan)
        _feed(cluster, keys)
        return cluster, cluster.output(0.02), keys

    def test_every_bracket_contains_the_exact_count(self):
        cluster, output, keys = self._run()
        truth = GroundTruth(make_hierarchy("1d-bytes"), keys.tolist())
        assert len(output.candidates) > 0
        for candidate in output.candidates:
            exact = truth.frequency(candidate.prefix.key())
            assert candidate.lower_bound <= exact <= candidate.upper_bound, candidate

    def test_every_switchs_unshipped_packets_are_quantified(self):
        cluster, output, keys = self._run()
        assert cluster.dead_switches == [2]
        reported = {loss.shard for loss in output.failed_shards}
        # the killed switch is always reported; dropped or still-in-flight
        # final messages of healthy switches are quantified the same way
        assert 2 in reported
        for loss in output.failed_shards:
            assert loss.lost_packets > 0
            dispatched = cluster._dispatched[loss.shard]
            stored = cluster.aggregator._contributions[loss.shard]["total"]
            assert loss.lost_packets == dispatched - stored
        total_lost = sum(loss.lost_packets for loss in output.failed_shards)
        accounted = sum(
            cluster.aggregator._contributions[s]["total"] for s in range(cluster.switches)
        )
        assert accounted + total_lost == len(keys)

    def test_a_faultless_simulated_run_reports_no_loss(self):
        _, clean, _ = self._run(faults=False)
        assert not clean.failed_shards

    def test_quantified_loss_widens_the_upper_bounds_by_exactly_the_loss(self, monkeypatch):
        cluster, output, _ = self._run()
        total_lost = sum(loss.lost_packets for loss in output.failed_shards)
        assert total_lost > 0
        # same merged state, loss accounting switched off: the uppers must
        # sit exactly `total_lost` below the widened ones
        monkeypatch.setattr(cluster, "_loss", lambda: (0, []))
        unwidened = cluster.output(0.02)
        bare = {c.prefix.key(): c.upper_bound for c in unwidened.candidates}
        for candidate in output.candidates:
            key = candidate.prefix.key()
            if key in bare:
                assert candidate.upper_bound == bare[key] + total_lost


class TestCheckpointRefusal:
    def test_session_checkpoint_raises_instead_of_writing_an_empty_snapshot(self, tmp_path):
        # Regression: the cluster's checkpoint fell through to the plain
        # algorithm snapshot, which holds only the total, and the resumed
        # session failed on its first query.
        spec = ExperimentSpec(
            algorithm=AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=7),
            hierarchy="1d-bytes",
            batch_size=BATCH,
            distrib=DistribSpec(switches=3),
        )
        path = tmp_path / "cluster.ckpt"
        with Session(spec, keys=_keys(61, packets=20_000, dims=1)) as session:
            session.feed()
            with pytest.raises(CheckpointError, match="cannot be checkpointed"):
                session.checkpoint(path)
        assert not path.exists()


class TestBandwidthReport:
    def test_reports_per_switch_traffic_and_flags_budget_overruns(self):
        cluster = DistributedCluster(_spec(top_k=16, byte_budget=64))
        _feed(cluster, _keys(51, packets=10_000))
        cluster.output(THETA)
        report = cluster.bandwidth_report()
        assert report["switches"] == SWITCHES
        assert report["budget_per_switch"] == 64
        assert len(report["per_switch"]) == SWITCHES
        for row in report["per_switch"]:
            assert row["messages"] > 0
            assert row["bytes"] > 0
            assert row["snapshots"] >= 1
        assert report["total_bytes"] == sum(r["bytes"] for r in report["per_switch"])
        assert report["max_switch_bytes"] == max(r["bytes"] for r in report["per_switch"])
        # 64 bytes per epoch is absurdly tight: everyone is over budget
        assert report["over_budget"] == list(range(SWITCHES))

    def test_truncation_reduces_shipped_bytes(self):
        def shipped(top_k):
            cluster = DistributedCluster(_spec(top_k=top_k, delta=False))
            _feed(cluster, _keys(52, packets=10_000))
            cluster.output(THETA)
            return cluster.bandwidth_report()["max_switch_bytes"]

        assert shipped(8) < shipped(None)

    def test_no_budget_means_nothing_is_flagged(self):
        cluster = DistributedCluster(_spec())
        _feed(cluster, _keys(53, packets=5_000))
        cluster.output(THETA)
        assert cluster.bandwidth_report()["over_budget"] == []


class TestSpecWiring:
    def test_distrib_requires_batch_size(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            ExperimentSpec(distrib=DistribSpec())

    def test_distrib_excludes_sharding_and_periodic_checkpoints(self):
        with pytest.raises(ConfigurationError, match="shards"):
            ExperimentSpec(batch_size=BATCH, shards=2, distrib=DistribSpec())
        with pytest.raises(ConfigurationError, match="checkpoint"):
            ExperimentSpec(
                batch_size=BATCH,
                checkpoint_every=1_000,
                checkpoint_path="x.ckpt",
                distrib=DistribSpec(),
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"switches": 0},
            {"epoch_batches": 0},
            {"top_k": 0},
            {"byte_budget": 0},
            {"delta": "yes"},
            {"transport": "carrier-pigeon"},
        ],
    )
    def test_distrib_spec_field_validation(self, bad):
        with pytest.raises(ConfigurationError):
            DistribSpec(**bad)

    def test_json_round_trip_keeps_the_nested_distrib_spec(self):
        spec = _spec(top_k=32, transport="simulated", byte_budget=10_000)
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert isinstance(rebuilt.distrib, DistribSpec)

    def test_session_builds_and_drives_the_cluster(self):
        spec = dataclasses.replace(_spec(), packets=5_000, num_flows=500)
        with Session(spec) as session:
            assert isinstance(session.algorithm, DistributedCluster)
            result = session.run()
        assert result.output.candidates
        assert session.algorithm.epoch > 0

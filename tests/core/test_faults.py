"""Deterministic fault-injection suite: crash recovery under every policy.

These tests drive real 2-worker process pools through seeded
:class:`~repro.core.faults.FaultPlan` schedules (SIGKILLs, IPC delays,
injected read errors) and pin the recovery invariants the fault-tolerant
execution layer claims:

* **fail** policy: a worker death mid-``update_batch`` surfaces as a typed
  :class:`~repro.exceptions.ShardFailure` naming the shard and exitcode
  within the IPC timeout - no hang, no orphaned worker processes, and the
  engine's recorded total never runs ahead of acknowledged shard state;
* **restart** policy: the shard respawns from its last supervision
  checkpoint and replays the journaled delta - the run's final output is
  bit-for-bit identical to a failure-free run;
* **degrade** policy: the run continues on the survivors, the lost shard's
  unaccounted weight is quantified in a :class:`ShardLoss` and folded into
  widened error bounds, and the (epsilon, delta) coverage gate still holds
  under a single-shard loss;
* the ingest/trace layers raise scheduled
  :class:`~repro.exceptions.FaultInjectionError`\\ s after exactly the
  planned batch prefix.

Everything here is module-scope and spawn-safe: worker processes rebuild
their replicas from pickled specs, never from test-local state.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import time

import numpy as np
import pytest

from repro.api.registry import make_hierarchy
from repro.api.session import Session
from repro.api.specs import AlgorithmSpec, DistribSpec, ExperimentSpec
from repro.core.faults import FAULT_KINDS, FaultEvent, FaultPlan
from repro.core.ingest import RingBufferIngest
from repro.core.shard import ShardedHHH, partition_batch
from repro.core.supervise import SupervisorPolicy
from repro.distrib.cluster import DistributedCluster
from repro.eval.ground_truth import GroundTruth
from repro.eval.metrics import evaluate_output
from repro.exceptions import (
    AlgorithmError,
    ConfigurationError,
    FaultInjectionError,
    ShardFailure,
)
from repro.traffic.zipf import ZipfFlowGenerator

#: The accuracy-regression gate's constants, reused for the degraded-run gate.
EPSILON = 0.05
DELTA = 0.1
THETA = 0.05

RHHH_SPEC = AlgorithmSpec(name="rhhh", epsilon=EPSILON, delta=DELTA, seed=7)


def _batches(count=8, size=2_000, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2**32, size=(size, 2), dtype=np.int64) for _ in range(count)]


def _output_state(output):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in output
    ]


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def _assert_no_orphans(pids):
    """Every listed worker pid must be fully reaped within a short grace."""
    deadline = time.monotonic() + 5.0
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        alive = [pid for pid in alive if _pid_alive(pid)]
        time.sleep(0.05)
    assert not alive, f"orphaned shard worker processes: {alive}"


# --------------------------------------------------------------------------- #
# the fault plan itself
# --------------------------------------------------------------------------- #


class TestFaultEventValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent("explode", 0)

    def test_rejects_bad_batch_index(self):
        for bad in (-1, True, 1.5):
            with pytest.raises(ConfigurationError):
                FaultEvent("kill", bad, shard=0)

    def test_kill_and_delay_need_a_shard(self):
        with pytest.raises(ConfigurationError, match="shard"):
            FaultEvent("kill", 0)
        with pytest.raises(ConfigurationError, match="shard"):
            FaultEvent("delay", 0, seconds=1.0)

    def test_delay_needs_positive_seconds(self):
        with pytest.raises(ConfigurationError, match="seconds"):
            FaultEvent("delay", 0, shard=0, seconds=0.0)

    def test_plan_rejects_non_events(self):
        with pytest.raises(ConfigurationError, match="FaultEvent"):
            FaultPlan([("kill", 0)])

    def test_event_round_trips_through_dict(self):
        event = FaultEvent("delay", 3, shard=1, seconds=0.5, message="slow pipe")
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestFaultPlanMechanics:
    def test_events_fire_exactly_once(self):
        plan = FaultPlan([FaultEvent("kill", 2, shard=0), FaultEvent("kill", 2, shard=1)])
        assert sorted(plan.kills_at(2)) == [0, 1]
        assert plan.kills_at(2) == []  # single-use
        assert plan.kills_at(3) == []

    def test_delays_report_shard_and_seconds(self):
        plan = FaultPlan([FaultEvent("delay", 1, shard=1, seconds=0.25)])
        assert plan.delays_at(0) == []
        assert plan.delays_at(1) == [(1, 0.25)]
        assert plan.delays_at(1) == []

    def test_wrap_batches_yields_exact_prefix_then_raises(self):
        plan = FaultPlan([FaultEvent("ingest_error", 2, message="boom")])
        source = [np.arange(4)] * 5
        seen = []
        with pytest.raises(FaultInjectionError, match=r"boom \(batch 2\)"):
            for batch in plan.wrap_batches(iter(source)):
                seen.append(batch)
        assert len(seen) == 2

    def test_wrap_batches_filters_by_kind(self):
        plan = FaultPlan([FaultEvent("trace_error", 0, message="bad read")])
        # An ingest-kind pass ignores trace events entirely...
        assert len(list(plan.wrap_batches([np.arange(2)] * 3, kind="ingest_error"))) == 3
        # ...and the trace-kind pass still fires it.
        with pytest.raises(FaultInjectionError, match="bad read"):
            list(plan.wrap_batches([np.arange(2)] * 3, kind="trace_error"))

    def test_plan_round_trips_through_dict(self):
        plan = FaultPlan(
            [FaultEvent("kill", 3, shard=1), FaultEvent("ingest_error", 5, message="x")]
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.events == plan.events

    def test_random_plans_are_reproducible(self):
        kwargs = {"batches": 64, "shards": 4, "kills": 2, "delays": 1, "ingest_errors": 1}
        assert FaultPlan.random(11, **kwargs).events == FaultPlan.random(11, **kwargs).events
        assert FaultPlan.random(11, **kwargs).events != FaultPlan.random(12, **kwargs).events
        plan = FaultPlan.random(11, **kwargs)
        assert len(plan) == 4
        assert len({event.at_batch for event in plan.events}) == 4  # no collisions
        assert all(event.kind in FAULT_KINDS for event in plan.events)

    def test_random_rejects_overfull_schedules(self):
        with pytest.raises(ConfigurationError, match="cannot schedule"):
            FaultPlan.random(1, batches=2, shards=2, kills=3)


class TestOutOfRangeTargets:
    """``kill``/``delay`` events aimed past the last replica are refused up front."""

    @pytest.mark.parametrize("kind", ["kill", "delay"])
    @pytest.mark.parametrize("engine", ["serial", "pool", "cluster"])
    def test_every_engine_rejects_them_before_any_worker_spawns(self, engine, kind):
        # Regression: the pool raised a bare IndexError at the scheduled
        # batch and the cluster dropped the event silently.
        plan = FaultPlan([FaultEvent(kind, 1, shard=5, seconds=0.1 if kind == "delay" else 0.0)])
        children = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="targets shard 5"):
            if engine == "cluster":
                spec = ExperimentSpec(
                    algorithm=RHHH_SPEC,
                    hierarchy="2d-bytes",
                    batch_size=2_000,
                    distrib=DistribSpec(switches=2),
                )
                DistributedCluster(spec, fault_plan=plan)
            else:
                ShardedHHH(RHHH_SPEC, "2d-bytes", 2, parallel=engine == "pool", fault_plan=plan)
        assert set(multiprocessing.active_children()) == children


class TestIngestAndTraceInjection:
    def test_ring_buffer_ingest_raises_scheduled_fault(self):
        plan = FaultPlan([FaultEvent("ingest_error", 1, message="injected ingest fault")])
        source = [np.arange(8)] * 4
        seen = []
        with pytest.raises(FaultInjectionError, match="injected ingest fault"):
            with RingBufferIngest(iter(source), depth=2, fault_plan=plan) as ring:
                for batch in ring:
                    seen.append(batch)
        assert len(seen) == 1

    def test_trace_reader_raises_scheduled_fault(self, tmp_path):
        from repro.traffic.packet import Packet
        from repro.traffic.trace_io import trace_key_batches, write_trace_v2

        trace = str(tmp_path / "faulty.v2")
        write_trace_v2(
            trace,
            (Packet(src=i, dst=i + 1, size=64) for i in range(1_024)),
            chunk_size=256,
        )
        plan = FaultPlan([FaultEvent("trace_error", 2, message="injected trace fault")])
        seen = 0
        with pytest.raises(FaultInjectionError, match=r"injected trace fault \(batch 2\)"):
            for batch in trace_key_batches(trace, dimensions=2, fault_plan=plan):
                seen += len(batch)
        assert seen == 512  # exactly the two pre-fault chunks

    def test_session_feed_trace_surfaces_trace_fault(self, tmp_path):
        from repro.traffic.packet import Packet
        from repro.traffic.trace_io import write_trace_v2

        trace = str(tmp_path / "faulty.v2")
        write_trace_v2(
            trace,
            (Packet(src=i, dst=i + 1, size=64) for i in range(1_024)),
            chunk_size=256,
        )
        spec = ExperimentSpec(
            algorithm=RHHH_SPEC, hierarchy="2d-bytes", trace=trace, batch_size=256
        )
        plan = FaultPlan([FaultEvent("trace_error", 1, message="mid-replay fault")])
        session = Session(spec, fault_plan=plan)
        with pytest.raises(FaultInjectionError, match="mid-replay fault"):
            session.feed_trace()
        assert session.processed == 256


# --------------------------------------------------------------------------- #
# fail policy: typed failure, bounded detection, consistent totals
# --------------------------------------------------------------------------- #


class TestFailPolicy:
    def test_scheduled_kill_raises_typed_shard_failure(self):
        """A SIGKILLed worker surfaces as ShardFailure naming shard and
        exitcode, the recorded total never includes the failed batch, and
        close() leaves no orphaned processes."""
        batches = _batches()
        plan = FaultPlan([FaultEvent("kill", 2, shard=1)])
        policy = SupervisorPolicy(policy="fail", timeout=10.0)
        engine = ShardedHHH(RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan)
        pids = list(engine.worker_pids().values())
        try:
            engine.update_batch(batches[0])
            engine.update_batch(batches[1])
            fed = engine.total
            with pytest.raises(ShardFailure, match="shard worker failed") as excinfo:
                engine.update_batch(batches[2])
            assert excinfo.value.shard == 1
            assert excinfo.value.exitcode == -signal.SIGKILL
            # Satellite invariant: the total only moves after every touched
            # shard acked, so the failed batch is not counted.
            assert engine.total == fed == 4_000
        finally:
            engine.close(raise_errors=False)
        _assert_no_orphans(pids)

    def test_hostile_external_sigkill_mid_run(self):
        """Satellite (c): SIGKILL a worker from outside mid-update_batch -
        the engine must report a typed failure naming the shard within the
        IPC timeout (no hang) and close without orphaning any process."""
        policy = SupervisorPolicy(policy="fail", timeout=10.0)
        engine = ShardedHHH(RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy)
        pids = engine.worker_pids()
        assert sorted(pids) == [0, 1]
        try:
            engine.update_batch(_batches(count=1)[0])
            os.kill(pids[0], signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(ShardFailure, match=r"shard worker failed \(shard 0") as excinfo:
                # One batch is enough: both shards receive a slice of it.
                engine.update_batch(_batches(count=1, seed=1)[0])
            elapsed = time.monotonic() - started
            assert excinfo.value.shard == 0
            assert excinfo.value.exitcode == -signal.SIGKILL
            assert elapsed < policy.timeout + 5.0
        finally:
            engine.close(raise_errors=False)
        _assert_no_orphans(list(pids.values()))

    def test_delay_beyond_timeout_is_reported_as_hang(self):
        plan = FaultPlan([FaultEvent("delay", 1, shard=0, seconds=30.0)])
        policy = SupervisorPolicy(policy="fail", timeout=1.0)
        started = time.monotonic()
        with ShardedHHH(
            RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            engine.update_batch(_batches(count=1)[0])
            with pytest.raises(ShardFailure, match="no reply within") as excinfo:
                engine.update_batch(_batches(count=1, seed=1)[0])
            assert excinfo.value.shard == 0
            assert excinfo.value.exitcode is None  # hang, not death
        assert time.monotonic() - started < 25.0  # never waits out the sleep

    def test_short_delay_within_timeout_is_harmless(self):
        plan = FaultPlan([FaultEvent("delay", 0, shard=0, seconds=0.05)])
        policy = SupervisorPolicy(policy="fail", timeout=10.0)
        with ShardedHHH(
            RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            engine.update_batch(_batches(count=1)[0])
            assert engine.total == 2_000

    def test_close_collects_unreported_worker_deaths(self):
        """Satellite (b): close() surfaces failures of shards that died
        without the engine noticing, naming shard index and exitcode."""
        engine = ShardedHHH(RHHH_SPEC, "2d-bytes", 2, parallel=True)
        pids = engine.worker_pids()
        engine.update_batch(_batches(count=1)[0])
        os.kill(pids[1], signal.SIGKILL)
        with pytest.raises(ShardFailure, match=r"shard worker failed \(shard 1") as excinfo:
            engine.close()
        assert excinfo.value.shard == 1
        assert excinfo.value.exitcode == -signal.SIGKILL
        engine.close()  # idempotent after the report
        _assert_no_orphans(list(pids.values()))

    def test_close_summarises_multiple_dead_shards(self):
        engine = ShardedHHH(RHHH_SPEC, "2d-bytes", 2, parallel=True)
        pids = engine.worker_pids()
        engine.update_batch(_batches(count=1)[0])
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        with pytest.raises(AlgorithmError, match="2 shard workers failed") as excinfo:
            engine.close()
        message = str(excinfo.value)
        assert "shard 0" in message and "shard 1" in message
        _assert_no_orphans(list(pids.values()))


# --------------------------------------------------------------------------- #
# restart policy: recovery must be bit-exact
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def failure_free_baseline():
    """Output and total of an unfaulted 2-worker run over the shared stream."""
    batches = _batches()
    with ShardedHHH(RHHH_SPEC, "2d-bytes", 2, parallel=True) as engine:
        for batch in batches:
            engine.update_batch(batch)
        return _output_state(engine.output(THETA)), engine.total


class TestRestartPolicy:
    def _recovered_run(self, plan):
        policy = SupervisorPolicy(policy="restart", timeout=10.0, checkpoint_every=2)
        with ShardedHHH(
            RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            for batch in _batches():
                engine.update_batch(batch)
            assert engine.supervisor.failed_shards == []  # recovered, not lost
            return _output_state(engine.output(THETA)), engine.total

    def test_kill_after_checkpoint_recovers_bit_exactly(self, failure_free_baseline):
        """Kill between supervision checkpoints: restore + journal replay
        must reproduce the failure-free run exactly."""
        output, total = self._recovered_run(FaultPlan([FaultEvent("kill", 3, shard=1)]))
        assert (output, total) == failure_free_baseline

    def test_kill_before_first_checkpoint_recovers_bit_exactly(self, failure_free_baseline):
        """Kill at batch 0: no checkpoint exists yet, recovery is pure
        journal replay from an empty replica."""
        output, total = self._recovered_run(FaultPlan([FaultEvent("kill", 0, shard=0)]))
        assert (output, total) == failure_free_baseline

    def test_repeated_kills_of_both_shards_recover_bit_exactly(self, failure_free_baseline):
        plan = FaultPlan(
            [
                FaultEvent("kill", 1, shard=0),
                FaultEvent("kill", 4, shard=1),
                FaultEvent("kill", 6, shard=0),
            ]
        )
        assert self._recovered_run(plan) == failure_free_baseline

    def test_hang_is_recovered_bit_exactly_too(self, failure_free_baseline):
        """A hung worker (delay past the timeout) is terminated and restarted
        through the same checkpoint+journal path as a crash."""
        plan = FaultPlan([FaultEvent("delay", 3, shard=1, seconds=30.0)])
        policy = SupervisorPolicy(policy="restart", timeout=1.0, checkpoint_every=2)
        with ShardedHHH(
            RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            for batch in _batches():
                engine.update_batch(batch)
            assert (_output_state(engine.output(THETA)), engine.total) == failure_free_baseline

    def test_session_restart_policy_via_spec(self):
        """spec.shard_policy wires through Session: a faulted restart run's
        result is bit-identical to the same spec without faults."""
        spec = ExperimentSpec(
            algorithm=AlgorithmSpec(name="rhhh", epsilon=EPSILON, delta=DELTA, seed=9),
            hierarchy="2d-bytes",
            workload="chicago16",
            num_flows=1_000,
            packets=24_576,
            theta=0.1,
            batch_size=4_096,
            shards=2,
            shard_policy="restart",
            shard_timeout=15.0,
        )
        with Session(spec) as session:
            baseline = session.run()
        plan = FaultPlan([FaultEvent("kill", 2, shard=0)])
        with Session(spec, fault_plan=plan) as session:
            result = session.run()
        assert result.packets == baseline.packets
        assert _output_state(result.output) == _output_state(baseline.output)


# --------------------------------------------------------------------------- #
# degrade policy: quantified loss, widened bounds, preserved coverage
# --------------------------------------------------------------------------- #


class TestDegradePolicy:
    def test_run_continues_with_quantified_loss(self, failure_free_baseline):
        batches = _batches()
        plan = FaultPlan([FaultEvent("kill", 3, shard=1)])
        policy = SupervisorPolicy(policy="degrade", timeout=10.0, checkpoint_every=2)
        with ShardedHHH(
            RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            for batch in batches:
                engine.update_batch(batch)
            # Every dispatched packet stays in the recorded total...
            assert engine.total == failure_free_baseline[1] == 16_000
            output = engine.output(THETA)
            assert engine.supervisor.is_failed(1)
        assert output.total == 16_000
        assert len(output.failed_shards) == 1
        loss = output.failed_shards[0]
        assert loss.shard == 1
        assert loss.exitcode == -signal.SIGKILL
        assert loss.at_batch == 3
        # ...and the unaccounted weight is exactly the shard's share of the
        # batches since its last supervision checkpoint (taken after batch
        # 1): bounded by six batches' worth, and at least two batches' share
        # of a ~50/50 hash split.
        assert 0 < loss.lost_packets <= 6 * 2_000
        assert loss.lost_packets >= 2_000
        # The lost weight widens every candidate's upper bound.
        for candidate in output:
            assert candidate.upper_bound - candidate.lower_bound >= loss.lost_packets

    def test_loss_ledger_is_exactly_the_weight_routed_since_the_last_checkpoint(self):
        batches = _batches()
        plan = FaultPlan([FaultEvent("kill", 3, shard=1)])
        policy = SupervisorPolicy(policy="degrade", timeout=10.0, checkpoint_every=2)
        with ShardedHHH(
            RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            for batch in batches:
                engine.update_batch(batch)
            output = engine.output(THETA)
        # The last supervision checkpoint holding shard 1 ran after batch 1,
        # so every packet routed to it from batch 2 on is unaccounted.
        routed = sum(len(partition_batch(batch, None, 2)[1][0]) for batch in batches[2:])
        [loss] = output.failed_shards
        assert loss.lost_packets == routed
        assert (loss.shard, loss.exitcode, loss.at_batch) == (1, -signal.SIGKILL, 3)
        assert re.fullmatch(
            r"shard worker failed \(shard 1, pid \d+\): its pipe broke during dispatch "
            r"\(exitcode -9\)",
            loss.reason,
        )

    def test_single_shard_lost_before_any_checkpoint_has_no_state(self):
        plan = FaultPlan([FaultEvent("kill", 0, shard=0)])
        policy = SupervisorPolicy(policy="degrade", timeout=10.0, checkpoint_every=64)
        with ShardedHHH(
            RHHH_SPEC, "2d-bytes", 1, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            for batch in _batches(count=2):
                engine.update_batch(batch)
            with pytest.raises(AlgorithmError, match="no shard state survives"):
                engine.output(THETA)

    def test_degraded_engine_refuses_to_checkpoint(self):
        plan = FaultPlan([FaultEvent("kill", 1, shard=1)])
        policy = SupervisorPolicy(policy="degrade", timeout=10.0, checkpoint_every=1)
        from repro.exceptions import CheckpointError

        with ShardedHHH(
            RHHH_SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            for batch in _batches(count=3):
                engine.update_batch(batch)
            with pytest.raises(CheckpointError, match="degraded"):
                engine.snapshot_state()

    def test_degraded_run_still_meets_coverage_gate(self):
        """The (epsilon, delta) accuracy gate under a single-shard loss: the
        widened bounds must keep covering the exact HHH set - degrading
        trades precision, never coverage."""
        hierarchy = make_hierarchy("1d-bytes")
        generator = ZipfFlowGenerator(num_flows=5_000, skew=1.2, seed=101)
        keys = np.ascontiguousarray(generator.key_array(60_000)[:, 0])
        truth = GroundTruth(hierarchy, keys.tolist())
        plan = FaultPlan([FaultEvent("kill", 4, shard=1)])
        policy = SupervisorPolicy(policy="degrade", timeout=10.0, checkpoint_every=2)
        spec = AlgorithmSpec(name="rhhh", epsilon=EPSILON, delta=DELTA, seed=1)
        with ShardedHHH(
            spec, "1d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan
        ) as engine:
            for lo in range(0, len(keys), 8_192):
                engine.update_batch(keys[lo : lo + 8_192])
            assert engine.total == len(keys)
            output = engine.output(THETA)
        assert [loss.shard for loss in output.failed_shards] == [1]
        assert output.failed_shards[0].lost_packets > 0
        report = evaluate_output(output, truth, epsilon=EPSILON, theta=THETA)
        assert report.recall >= 0.9, report
        assert report.coverage_error_ratio <= DELTA, report

"""The worker pool's overlapped snapshot fetch, with and without faults.

A query asks every live shard for its snapshot before it reads any reply
(:meth:`~repro.core.supervise.ShardSupervisor.merge_states`).  These tests
SIGKILL one worker after a dispatch and before the query, and pin that the
query still answers - recovered bit-exactly under ``restart``, degraded
with the loss ledger under ``degrade``, a typed failure under ``fail`` -
and that the next batch's acknowledgements stay aligned with its commands.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.api.specs import AlgorithmSpec
from repro.core.shard import ShardedHHH, partition_batch
from repro.core.supervise import SupervisorPolicy
from repro.exceptions import ShardFailure

SPEC = AlgorithmSpec(name="mst", epsilon=0.05)
THETA = 0.1


def _batches(count=5, size=2_000, seed=3):
    """Skewed pair batches over 200 flows, so every answer holds several prefixes."""
    rng = np.random.default_rng(seed)
    flows = rng.integers(0, 2**32, size=(200, 2), dtype=np.int64)
    return [flows[rng.geometric(0.2, size=size) % len(flows)] for _ in range(count)]


def _state(output):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in output
    ]


def _shard_weight(batches, shard):
    return sum(len(partition_batch(batch, None, 2)[shard][0]) for batch in batches)


def test_every_snapshot_request_is_out_before_any_reply_is_read():
    with ShardedHHH(SPEC, "2d-bytes", 2, parallel=True) as engine:
        engine.update_batch(_batches(count=1)[0])
        supervisor = engine.supervisor
        events = []
        send_raw, await_ok = supervisor._send_raw, supervisor._await_ok

        def recording_send(shard, message):
            events.append(("send", shard, message[0]))
            send_raw(shard, message)

        def recording_await(shard, timeout=None):
            events.append(("await", shard))
            return await_ok(shard, timeout)

        supervisor._send_raw, supervisor._await_ok = recording_send, recording_await
        engine.output(THETA)
        del supervisor._send_raw, supervisor._await_ok
    assert events == [
        ("send", 0, "snapshot"),
        ("send", 1, "snapshot"),
        ("await", 0),
        ("await", 1),
    ]


@pytest.fixture(scope="module")
def reference():
    """In-process twin of the pool runs: per-step outputs and shard totals."""
    batches = _batches()
    engine = ShardedHHH(SPEC, "2d-bytes", 2, parallel=False)
    for batch in batches[:3]:
        engine.update_batch(batch)
    first = _state(engine.output(THETA))
    engine.update_batch(batches[3])
    second = _state(engine.output(THETA))
    return first, second


def _killed_before_query(policy, shard=1):
    """Feed three batches and SIGKILL ``shard``: the next query finds it dead."""
    engine = ShardedHHH(
        SPEC,
        "2d-bytes",
        2,
        parallel=True,
        supervisor=SupervisorPolicy(policy=policy, timeout=10.0, checkpoint_every=2),
    )
    for batch in _batches()[:3]:
        engine.update_batch(batch)
    engine.supervisor.kill(shard)
    return engine


def test_restart_recovers_the_killed_shard_inside_the_fetch(reference):
    engine = _killed_before_query("restart")
    with engine:
        assert _state(engine.output(THETA)) == reference[0]
        assert engine.supervisor.failed_shards == []
        # The next batch's acks and the next fetch line up with their commands.
        engine.update_batch(_batches()[3])
        assert _state(engine.output(THETA)) == reference[1]
        assert engine.total == 8_000


def test_degrade_answers_with_the_loss_ledger():
    batches = _batches()
    engine = _killed_before_query("degrade")
    with engine:
        output = engine.output(THETA)
        # The last supervision checkpoint ran after batch 1: shard 1's part
        # of batch 2 is lost.
        [loss] = output.failed_shards
        assert (loss.shard, loss.exitcode, loss.at_batch) == (1, -signal.SIGKILL, None)
        assert loss.lost_packets == _shard_weight(batches[2:3], 1)
        assert output.total == engine.total == 6_000
        engine.update_batch(batches[3])
        assert engine.supervisor.failed_shards == [1]
        output = engine.output(THETA)
        [loss] = output.failed_shards
        assert loss.lost_packets == _shard_weight(batches[2:4], 1)
        # The survivor's fresh snapshot plus shard 1's checkpoint: every
        # packet either state accounts for, nothing stale.
        _, merged_total = engine.merged_counters()
        assert merged_total == _shard_weight(batches[:4], 0) + _shard_weight(batches[:2], 1)
        assert output.total == engine.total == 8_000


@pytest.mark.parametrize("fault", ["kill", "stop"])
def test_fail_raises_after_draining_the_survivor(fault):
    """Shard 0 fails the fetch: dead (its request cannot be sent) or stopped
    (its reply never comes).  Shard 1's reply is read before the failure is
    raised, so its next ack and snapshot belong to the next commands."""
    batches = _batches()
    engine = _killed_before_query("fail", shard=0) if fault == "kill" else None
    if fault == "stop":
        policy = SupervisorPolicy(policy="fail", timeout=1.0)
        engine = ShardedHHH(SPEC, "2d-bytes", 2, parallel=True, supervisor=policy)
        for batch in batches[:3]:
            engine.update_batch(batch)
        os.kill(engine.worker_pids()[0], signal.SIGSTOP)
    try:
        with pytest.raises(ShardFailure, match=r"shard worker failed \(shard 0"):
            engine.output(THETA)
        engine.update_batch(batches[3])
        [(total, counters)] = engine.supervisor.merge_states()
        assert total == _shard_weight(batches[:4], 1)
        assert len(counters) == engine.hierarchy.size
    finally:
        engine.close(raise_errors=False)

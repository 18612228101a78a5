"""Pool versus in-process parity of the sharded query path.

Worker replicas ship their Space Saving state over the pipe in packed-array
form and the merger folds it with the array merge; in-process replicas are
deep-copied and merged in this process.  Fed the same 2-D DDoS stream with a
query after every chunk, the worker pool, the in-process engine and the
full re-merge reference (``_merger.incremental = False``) must answer identically.
Under the degrade policy a killed shard is represented by its last
checkpoint, whose counters merge with the live shard's; that path must
agree with its own from-scratch reference and with the scalar merge twin.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.api.specs import AlgorithmSpec
from repro.core.faults import FaultEvent, FaultPlan
from repro.core.shard import ShardedHHH
from repro.core.supervise import SupervisorPolicy
from repro.traffic.ddos import DDoSScenario

SPEC = AlgorithmSpec(name="rhhh", epsilon=0.01, delta=0.1, seed=5)
CHUNK = 4_096
PACKETS = 8 * CHUNK
#: Well above the sampling correction at these stream lengths: a saturated
#: small-N query reports every prefix and takes minutes.
THETA = 0.3


@pytest.fixture(scope="module")
def ddos_keys():
    scenario = DDoSScenario(
        attack_subnets=[("10.20.0.0", 16), ("198.51.0.0", 16)],
        victim="203.0.113.7",
        attack_fraction=0.4,
        seed=11,
    )
    return scenario.key_array(PACKETS)


def _output_state(output):
    return (
        output.total,
        output.threshold,
        [
            (c.prefix, c.lower_bound, c.upper_bound, c.conditioned_estimate)
            for c in output.candidates
        ],
        [(loss.shard, loss.lost_packets, loss.at_batch) for loss in output.failed_shards],
    )


def _chunks(keys):
    return [keys[lo : lo + CHUNK] for lo in range(0, len(keys), CHUNK)]


def _merged_nodes(engine):
    """Pickle bytes of every cached merged node counter (none on the scratch path)."""
    return [pickle.dumps(entry[1]) for entry in engine._merger._nodes if entry is not None]


def _answers(engine, keys):
    answers = []
    for chunk in _chunks(keys):
        engine.update_batch(chunk)
        answers.append(_output_state(engine.output(THETA)))
    return answers


def _answers_and_merges(engine, keys):
    answers, merges = [], []
    for chunk in _chunks(keys):
        engine.update_batch(chunk)
        answers.append(_output_state(engine.output(THETA)))
        merges.append(_merged_nodes(engine))
    return answers, merges


def test_pool_matches_in_process_and_the_scratch_reference(ddos_keys):
    serial = ShardedHHH(SPEC, "2d-bytes", 2, parallel=False)
    scratch = ShardedHHH(SPEC, "2d-bytes", 2, parallel=False)
    scratch._merger.incremental = False
    with ShardedHHH(SPEC, "2d-bytes", 2, parallel=True) as pool:
        pooled, pool_merges = _answers_and_merges(pool, ddos_keys)
    serial_answers, serial_merges = _answers_and_merges(serial, ddos_keys)
    assert pooled == serial_answers == _answers(scratch, ddos_keys)
    assert pool_merges == serial_merges
    assert all(len(merges) == serial._template.hierarchy.size for merges in pool_merges)
    assert all(candidates for _, _, candidates, _ in pooled)


def _degraded(*, cache):
    # Checkpoints after every batch keep the lost weight small: a loss near
    # the sampling correction saturates the query (every prefix reported).
    plan = FaultPlan([FaultEvent("kill", 5, shard=1)])
    policy = SupervisorPolicy(policy="degrade", timeout=10.0, checkpoint_every=1)
    engine = ShardedHHH(SPEC, "2d-bytes", 2, parallel=True, supervisor=policy, fault_plan=plan)
    if not cache:
        engine._merger.incremental = False
    return engine


def test_degraded_pool_matches_its_reference_and_the_merge_twin(ddos_keys):
    with _degraded(cache=True) as incremental, _degraded(cache=False) as scratch:
        answers = _answers(incremental, ddos_keys)
        assert answers == _answers(scratch, ddos_keys)
        assert incremental.supervisor.is_failed(1)
        assert answers[-1][3] and answers[-1][3][0][0] == 1
        (_, live), (_, dead) = incremental.supervisor.merge_states()
    disjoint = incremental._merger._disjoint
    for node, (live_counter, dead_counter) in enumerate(zip(live, dead)):
        # The dead shard's counters as a checkpoint read back from bytes
        # holds them (scalar index only, deep-copied) against the live
        # shard's, which arrive over the pipe holding the batch index.
        restored = copy.deepcopy(pickle.loads(pickle.dumps(dead_counter)))
        assert restored._packed is None and live_counter._slot is None
        fast = copy.deepcopy(live_counter)
        fast.merge(restored, disjoint=disjoint[node])
        twin = pickle.loads(pickle.dumps(live_counter))
        twin.merge_reference(restored, disjoint=disjoint[node])
        assert pickle.dumps(fast) == pickle.dumps(twin)
        assert fast._packed is not None

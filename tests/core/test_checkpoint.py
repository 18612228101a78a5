"""Checkpoint/restore suite: file container, runtime snapshots, session resume.

Three layers are pinned here:

* the **file container** (``RCKP`` magic, version, SHA-256 payload digest,
  atomic replace-on-write) must reject every corruption shape - bad magic,
  unknown version, truncation, flipped payload bytes - with a typed
  :class:`~repro.exceptions.CheckpointError` instead of unpickling garbage;
* **runtime snapshots** (:func:`capture_runtime_state` /
  :func:`apply_runtime_state` and the sharded engine's
  ``snapshot_state``/``restore_state``) must be *bit-exact*: an instance
  restored mid-stream and fed the remaining packets produces the same output
  - candidate order included - as one that never stopped.  That includes the
  counter summaries' iteration order surviving a pickle round trip, which is
  what makes restored output ordering deterministic;
* **session checkpoint/resume**: periodic checkpoints land on batch
  boundaries, :meth:`Session.resume` replays the deterministic source from
  the recorded position, and the resumed run is bit-identical to an
  uninterrupted one - for the in-memory keys path and for streamed v2
  traces.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api.registry import build_algorithm, make_hierarchy
from repro.api.session import Session, _skip_batches
from repro.api.specs import AlgorithmSpec, CounterSpec, ExperimentSpec
from repro.core.checkpoint import (
    _HEADER,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    apply_runtime_state,
    capture_runtime_state,
    load_checkpoint,
    restore_algorithm,
    save_checkpoint,
    snapshot_algorithm,
)
from repro.core.shard import ShardedHHH
from repro.exceptions import CheckpointError, ConfigurationError
from repro.hh.space_saving import SpaceSaving
from repro.traffic.caida_like import named_workload
from repro.traffic.packet import Packet
from repro.traffic.trace_io import write_trace_v2


def _rhhh(seed=7, hierarchy="1d-bytes"):
    spec = AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=seed)
    return build_algorithm(spec, make_hierarchy(hierarchy))


def _keys_1d(packets=20_000, num_flows=1_000):
    return np.ascontiguousarray(
        named_workload("chicago16", num_flows=num_flows).key_array(packets)[:, 0]
    )


def _feed(algorithm, keys, start, stop, step):
    for lo in range(start, stop, step):
        algorithm.update_batch(keys[lo : min(lo + step, stop)])


def _output_state(output):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in output
    ]


# --------------------------------------------------------------------------- #
# the file container
# --------------------------------------------------------------------------- #


class TestCheckpointFile:
    PAYLOAD = {"format": "test", "numbers": list(range(32)), "array": [1.5, 2.5]}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.rckp"
        assert save_checkpoint(path, self.PAYLOAD) == path
        assert load_checkpoint(path) == self.PAYLOAD

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "state.rckp"
        save_checkpoint(path, self.PAYLOAD)
        save_checkpoint(path, self.PAYLOAD)  # replaces, never appends
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.rckp"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "never-written.rckp")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "state.rckp"
        save_checkpoint(path, self.PAYLOAD)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "state.rckp"
        body = pickle.dumps(self.PAYLOAD)
        import hashlib

        header = _HEADER.pack(
            CHECKPOINT_MAGIC, CHECKPOINT_VERSION + 1, len(body), hashlib.sha256(body).digest()
        )
        path.write_bytes(header + body)
        with pytest.raises(CheckpointError, match="unsupported format version"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "state.rckp"
        save_checkpoint(path, self.PAYLOAD)
        path.write_bytes(path.read_bytes()[: _HEADER.size - 1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "state.rckp"
        save_checkpoint(path, self.PAYLOAD)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "state.rckp"
        save_checkpoint(path, self.PAYLOAD)
        raw = bytearray(path.read_bytes())
        raw[_HEADER.size + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(path)

    def test_non_dict_payload_rejected_on_load(self, tmp_path):
        path = tmp_path / "state.rckp"
        save_checkpoint(path, ["not", "a", "dict"])
        with pytest.raises(CheckpointError, match="expected a dict"):
            load_checkpoint(path)

    def test_unpicklable_payload_rejected_on_save(self, tmp_path):
        with pytest.raises(CheckpointError, match="not picklable"):
            save_checkpoint(tmp_path / "state.rckp", {"hook": lambda: None})


# --------------------------------------------------------------------------- #
# runtime snapshots: capture/apply must be bit-exact
# --------------------------------------------------------------------------- #


class TestRuntimeState:
    def test_captured_state_resumes_bit_exactly(self):
        """Feed half the stream, snapshot, feed the rest on the original and
        on a restored twin: outputs must match exactly, order included (the
        RNG streams are restored to the very next draw)."""
        keys = _keys_1d(24_000)
        original = _rhhh(seed=11)
        _feed(original, keys, 0, 12_000, 4_096)
        state = capture_runtime_state(original)
        twin = _rhhh(seed=11)
        apply_runtime_state(twin, state)
        for algorithm in (original, twin):
            _feed(algorithm, keys, 12_000, len(keys), 4_096)
        assert original.total == twin.total == len(keys)
        assert _output_state(original.output(0.1)) == _output_state(twin.output(0.1))

    def test_snapshot_is_isolated_from_further_updates(self):
        keys = _keys_1d(8_192)
        algorithm = _rhhh(seed=2)
        algorithm.update_batch(keys[:4_096])
        state = capture_runtime_state(algorithm)
        total_then = state["attrs"]["_total"]
        algorithm.update_batch(keys[4_096:])
        assert state["attrs"]["_total"] == total_then != algorithm.total

    def test_copy_state_false_aliases_live_state(self):
        algorithm = _rhhh(seed=2)
        algorithm.update_batch(_keys_1d(4_096))
        state = capture_runtime_state(algorithm, copy_state=False)
        assert state["attrs"]["_counters"] is algorithm._counters

    def test_apply_rejects_class_mismatch(self):
        state = capture_runtime_state(_rhhh())
        mst = build_algorithm(AlgorithmSpec(name="mst", epsilon=0.1), make_hierarchy("1d-bytes"))
        with pytest.raises(CheckpointError, match="cannot apply"):
            apply_runtime_state(mst, state)

    def test_restore_rejects_unknown_snapshot_kind(self):
        with pytest.raises(CheckpointError, match="unknown checkpoint snapshot kind"):
            restore_algorithm(_rhhh(), {"kind": "mystery"})

    def test_engine_state_cannot_apply_to_plain_algorithm(self):
        with pytest.raises(CheckpointError, match="not an engine"):
            restore_algorithm(_rhhh(), {"kind": "engine", "state": {}})


class TestSpaceSavingPickleOrder:
    def test_pickle_round_trip_preserves_iteration_order(self):
        """Restored output ordering is only deterministic if the counter
        summary iterates its keys in the same order after a pickle round
        trip - the regression that made resumed sessions report the same
        candidates in a different order."""
        counter = SpaceSaving(capacity=8)
        rng = np.random.default_rng(5)
        for key in rng.integers(0, 20, size=500).tolist():
            counter.update(int(key))
        clone = pickle.loads(pickle.dumps(counter))
        assert list(clone) == list(counter)
        for key in counter:
            assert clone.estimate(key) == counter.estimate(key)
            assert clone.lower_bound(key) == counter.lower_bound(key)


def _engine_state(engine):
    """A sharded engine's snapshot with each shard's runtime state pickled.

    Shards pickle one by one: a pool engine's states arrive unpickled from
    its workers, so object sharing across shards - and with it the bytes of
    one pickle of the whole snapshot - differs from a serial engine's.
    """
    snapshot = engine.snapshot_state()
    shard_states = [pickle.dumps(state) for state in snapshot.pop("shard_states")]
    return snapshot, shard_states


class TestShardedEngineSnapshots:
    def test_serial_engine_snapshot_restore_parity(self):
        keys = _keys_1d(20_000)
        spec = AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=13)
        engine = ShardedHHH(spec, "1d-bytes", 3, parallel=False)
        _feed(engine, keys, 0, 10_000, 2_048)
        snapshot = engine.snapshot_state()
        restored = ShardedHHH(spec, "1d-bytes", 3, parallel=False)
        restored.restore_state(snapshot)
        for target in (engine, restored):
            _feed(target, keys, 10_000, len(keys), 2_048)
        assert engine.total == restored.total == len(keys)
        assert _output_state(engine.output(0.1)) == _output_state(restored.output(0.1))

    @pytest.mark.parametrize(
        "first_parallel, then_parallel",
        [(True, False), (False, True)],
        ids=["pool-to-serial", "serial-to-pool"],
    )
    @pytest.mark.parametrize("counter", ["space_saving", "array_space_saving"])
    def test_snapshot_crosses_the_serial_pool_boundary(self, counter, first_parallel, then_parallel):
        # The split falls on a batch boundary: batches aggregate internally.
        # Both Space Saving structures must pickle to the same bytes whether
        # their state was built in this process or unpickled from a worker.
        keys = _keys_1d(40_960)
        spec = AlgorithmSpec(
            name="rhhh", epsilon=0.05, delta=0.1, seed=13, counter=CounterSpec(name=counter)
        )
        reference = ShardedHHH(spec, "1d-bytes", 2, parallel=False)
        _feed(reference, keys, 0, len(keys), 4_096)
        with ShardedHHH(spec, "1d-bytes", 2, parallel=first_parallel) as first:
            _feed(first, keys, 0, 20_480, 4_096)
            snapshot = first.snapshot_state()
        with ShardedHHH(spec, "1d-bytes", 2, parallel=then_parallel) as resumed:
            resumed.restore_state(snapshot)
            _feed(resumed, keys, 20_480, len(keys), 4_096)
            assert _engine_state(resumed) == _engine_state(reference)
            assert _output_state(resumed.output(0.1)) == _output_state(reference.output(0.1))

    def test_restore_rejects_shard_count_mismatch(self):
        spec = AlgorithmSpec(name="rhhh", epsilon=0.05, seed=13)
        snapshot = ShardedHHH(spec, "1d-bytes", 3, parallel=False).snapshot_state()
        other = ShardedHHH(spec, "1d-bytes", 2, parallel=False)
        with pytest.raises(CheckpointError, match="shards"):
            other.restore_state(snapshot)

    def test_restore_rejects_seed_mismatch(self):
        snapshot = ShardedHHH(
            AlgorithmSpec(name="rhhh", epsilon=0.05, seed=13), "1d-bytes", 2, parallel=False
        ).snapshot_state()
        other = ShardedHHH(
            AlgorithmSpec(name="rhhh", epsilon=0.05, seed=14), "1d-bytes", 2, parallel=False
        )
        with pytest.raises(CheckpointError, match="seeds"):
            other.restore_state(snapshot)

    def test_restore_rejects_foreign_engine_kind(self):
        engine = ShardedHHH(AlgorithmSpec(name="rhhh", epsilon=0.05), "1d-bytes", 2, parallel=False)
        with pytest.raises(CheckpointError, match="expected 'sharded'"):
            engine.restore_state({"engine": "other"})

    def test_snapshot_algorithm_dispatches_engine_vs_algorithm(self):
        engine = ShardedHHH(AlgorithmSpec(name="rhhh", epsilon=0.05), "1d-bytes", 2, parallel=False)
        assert snapshot_algorithm(engine)["kind"] == "engine"
        assert snapshot_algorithm(_rhhh())["kind"] == "algorithm"


# --------------------------------------------------------------------------- #
# session checkpoint / resume
# --------------------------------------------------------------------------- #


def _session_spec(**overrides):
    defaults = {
        "algorithm": AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=3),
        "hierarchy": "2d-bytes",
        "workload": "chicago16",
        "packets": 40_000,
        "theta": 0.1,
        "batch_size": 8_192,
    }
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSessionCheckpointValidation:
    def test_checkpoint_every_needs_a_path(self):
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            Session(_session_spec(), checkpoint_every=1_000)

    def test_checkpoint_every_rejects_bool_and_nonpositive(self):
        for bad in (True, 0, -5):
            with pytest.raises(ConfigurationError):
                Session(_session_spec(), checkpoint_every=bad, checkpoint_path="x.rckp")

    def test_spec_rejects_every_without_path(self):
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            _session_spec(checkpoint_every=1_000)

    def test_spec_round_trips_checkpoint_and_supervision_fields(self):
        spec = _session_spec(
            checkpoint_every=5_000,
            checkpoint_path="run.rckp",
            shard_policy="restart",
            shard_timeout=12.5,
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.checkpoint_every == 5_000
        assert clone.checkpoint_path == "run.rckp"
        assert clone.shard_policy == "restart"
        assert clone.shard_timeout == 12.5

    def test_explicit_checkpoint_needs_some_path(self):
        with pytest.raises(ConfigurationError, match="path"):
            Session(_session_spec()).checkpoint()

    def test_resume_rejects_non_session_checkpoint(self, tmp_path):
        path = tmp_path / "bench.rckp"
        save_checkpoint(path, {"format": "bench", "position": 0})
        with pytest.raises(CheckpointError, match="not a session checkpoint"):
            Session.resume(path)


class TestSessionResumeParity:
    def test_keys_path_resume_is_bit_identical(self, tmp_path):
        """Interrupt after a periodic checkpoint, resume from the file, and
        the final output must equal the uninterrupted run's exactly."""
        spec = _session_spec()
        baseline = Session(spec).run()
        path = tmp_path / "session.rckp"
        session = Session(spec, checkpoint_every=16_000, checkpoint_path=path)
        keys = session.keys()
        # Feed a prefix past the checkpoint mark: the write lands on the
        # next batch boundary (16_384), then the session "crashes".
        session.feed(keys[:24_576])
        assert session.stream_position == 24_576
        assert load_checkpoint(path)["position"] == 16_384

        resumed = Session.resume(path)
        assert resumed.resume_position == 16_384
        assert resumed.processed == 16_384
        result = resumed.run()
        assert result.packets == spec.packets
        assert _output_state(result.output) == _output_state(baseline.output)

    def test_sharded_serial_session_resume_parity(self, tmp_path):
        spec = _session_spec(
            hierarchy="1d-bytes", packets=24_576, batch_size=4_096, shards=2, shard_parallel=False
        )
        baseline = Session(spec).run()
        path = tmp_path / "sharded.rckp"
        session = Session(spec, checkpoint_every=8_192, checkpoint_path=path)
        session.feed(session.keys()[:12_288])
        resumed = Session.resume(path)
        assert resumed.resume_position == 8_192
        result = resumed.run()
        assert _output_state(result.output) == _output_state(baseline.output)
        # Unified packets accounting: the resumed run reports the absolute
        # stream position, exactly like the fresh baseline run.
        assert result.packets == baseline.packets == spec.packets

    def test_trace_path_resume_is_bit_identical(self, tmp_path):
        trace = str(tmp_path / "stream.v2")
        keys = named_workload("chicago16", num_flows=1_000).key_array(20_000)
        write_trace_v2(
            trace,
            (
                Packet(src=int(s), dst=int(d), src_port=0, dst_port=0, protocol=6, size=64)
                for s, d in keys.tolist()
            ),
            chunk_size=8_192,
        )
        spec = _session_spec(trace=trace, packets=20_000, batch_size=2_048)
        baseline = Session(spec).run()
        path = tmp_path / "trace.rckp"
        session = Session(spec, checkpoint_every=6_000, checkpoint_path=path)
        from repro.core.ingest import rechunk_batches
        from repro.traffic.trace_io import trace_key_batches

        batches = list(
            rechunk_batches(trace_key_batches(trace, dimensions=2, limit=20_000), 2_048)
        )
        session.feed_batches(batches[:5])
        assert load_checkpoint(path)["position"] == 6_144

        resumed = Session.resume(path)
        assert resumed.resume_position == 6_144
        result = resumed.run()
        assert result.packets == baseline.packets == 20_000
        assert _output_state(result.output) == _output_state(baseline.output)

    def test_resumed_trace_progress_reports_absolute_positions(self, tmp_path):
        # Regression: the streamed-trace feed reported the count fed since
        # the resume against the full-stream total, so a resumed run's last
        # progress call stopped at (23_616, 40_000) instead of reaching it.
        trace = str(tmp_path / "stream.v2")
        keys = named_workload("chicago16", num_flows=1_000).key_array(40_000)
        write_trace_v2(
            trace,
            (
                Packet(src=int(s), dst=int(d), src_port=0, dst_port=0, protocol=6, size=64)
                for s, d in keys.tolist()
            ),
            chunk_size=8_192,
        )
        spec = _session_spec(trace=trace, packets=40_000, batch_size=4_096)
        path = tmp_path / "trace.rckp"
        session = Session(spec, checkpoint_every=16_000, checkpoint_path=path)
        from repro.core.ingest import rechunk_batches
        from repro.traffic.trace_io import trace_key_batches

        batches = list(
            rechunk_batches(trace_key_batches(trace, dimensions=2, limit=40_000), 4_096)
        )
        session.feed_batches(batches[:5])
        assert load_checkpoint(path)["position"] == 16_384

        resumed = Session.resume(path)
        seen = []
        resumed.add_progress_hook(lambda s, done, total: seen.append((done, total)))
        resumed.run()
        assert seen[0] == (16_384 + 4_096, 40_000)
        assert seen[-1] == (40_000, 40_000)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)


class TestSkipBatches:
    BATCHES = (np.arange(4), np.arange(4), np.arange(2))

    def test_skips_whole_batches_exactly(self):
        remaining = list(_skip_batches(iter(self.BATCHES), 4))
        assert [len(b) for b in remaining] == [4, 2]
        assert list(_skip_batches(iter(self.BATCHES), 0)) == list(self.BATCHES)

    def test_rejects_mid_batch_resume_position(self):
        with pytest.raises(CheckpointError, match="not on a batch boundary"):
            list(_skip_batches(iter(self.BATCHES), 6))

    def test_rejects_position_beyond_stream_end(self):
        with pytest.raises(CheckpointError, match="beyond the end"):
            list(_skip_batches(iter(self.BATCHES), 11))

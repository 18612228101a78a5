"""Session protocol tests: parity with the manual loops, hooks, validation.

The load-bearing guarantees:

* a Session **batch** run is bit-identical to the hand-written
  ``update_batch`` chunk loop (same chunk boundaries, same RNG stream);
* a Session **per-packet** run is bit-identical to the ``update`` loop;
* the spec-built construction path is bit-identical to the legacy direct
  construction for every (algorithm x counter backend) pair the acceptance
  criteria name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import build_algorithm
from repro.api.session import Session, run_experiment
from repro.api.specs import AlgorithmSpec, CounterSpec, ExperimentSpec
from repro.core.rhhh import RHHH
from repro.eval.speed import SpeedResult
from repro.exceptions import ConfigurationError
from repro.hhh.mst import MST
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.traffic.caida_like import named_workload
from repro.traffic.zipf import ZipfFlowGenerator

EPSILON = 0.05
DELTA = 0.1
THETA = 0.1
SEED = 7
PACKETS = 20_000
BATCH = 1024


def _keys_1d(count=PACKETS):
    return named_workload("chicago16", num_flows=2_000).keys_1d(count)


def _spec(name, *, batch_size=None, counter=None, packets=PACKETS):
    return ExperimentSpec(
        algorithm=AlgorithmSpec(
            name=name, epsilon=EPSILON, delta=DELTA, seed=SEED, counter=counter
        ),
        hierarchy="1d-bytes",
        workload="chicago16",
        num_flows=2_000,
        packets=packets,
        theta=THETA,
        batch_size=batch_size,
    )


def _counter_state(algorithm, hierarchy_size):
    state = []
    for node in range(hierarchy_size):
        counter = algorithm.node_counter(node)
        state.append(sorted((key, counter.estimate(key), counter.lower_bound(key)) for key in counter))
    return state


def _output_tuples(output):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in output
    ]


class TestBatchParity:
    """Session batch run == the existing manual update_batch loop, bit for bit."""

    @pytest.mark.parametrize("name", ["rhhh", "10-rhhh", "mst"])
    def test_bit_identical_to_manual_batch_loop(self, name):
        hierarchy = ipv4_byte_hierarchy()
        keys = np.asarray(_keys_1d(), dtype=np.int64)

        manual = build_algorithm(AlgorithmSpec(name=name, epsilon=EPSILON, delta=DELTA, seed=SEED),
                                 hierarchy)
        for start in range(0, len(keys), BATCH):
            manual.update_batch(keys[start : start + BATCH])

        session = Session(_spec(name, batch_size=BATCH), hierarchy=hierarchy, keys=keys)
        result = session.run()

        assert session.algorithm.total == manual.total
        assert _counter_state(session.algorithm, hierarchy.size) == _counter_state(
            manual, hierarchy.size
        )
        assert _output_tuples(result.output) == _output_tuples(manual.output(THETA))

    @pytest.mark.parametrize("name", ["rhhh", "mst"])
    def test_bit_identical_to_manual_update_loop(self, name):
        hierarchy = ipv4_byte_hierarchy()
        keys = _keys_1d(8_000)

        manual = build_algorithm(AlgorithmSpec(name=name, epsilon=EPSILON, delta=DELTA, seed=SEED),
                                 hierarchy)
        for key in keys:
            manual.update(key)

        session = Session(_spec(name, packets=8_000), hierarchy=hierarchy, keys=keys)
        result = session.run()
        assert _counter_state(session.algorithm, hierarchy.size) == _counter_state(
            manual, hierarchy.size
        )
        assert _output_tuples(result.output) == _output_tuples(manual.output(THETA))


class TestSpecVsLegacyConstruction:
    """Acceptance: >= 3 algorithms x >= 3 counter backends, spec path == legacy path."""

    @pytest.mark.parametrize("algorithm_name", ["rhhh", "10-rhhh", "mst"])
    @pytest.mark.parametrize("counter_name", ["space_saving", "misra_gries", "count_min"])
    def test_end_to_end_bit_identical(self, algorithm_name, counter_name):
        hierarchy = ipv4_byte_hierarchy()
        keys = _keys_1d(8_000)

        if algorithm_name == "mst":
            legacy = MST(hierarchy, epsilon=EPSILON, counter=counter_name)
        else:
            v = 10 * hierarchy.size if algorithm_name == "10-rhhh" else None
            legacy = RHHH(hierarchy, epsilon=EPSILON, delta=DELTA, v=v, seed=SEED,
                          counter=counter_name)
        for key in keys:
            legacy.update(key)

        spec = _spec(algorithm_name, counter=CounterSpec(name=counter_name), packets=8_000)
        session = Session(spec, hierarchy=hierarchy, keys=keys)
        result = session.run()

        assert _counter_state(session.algorithm, hierarchy.size) == _counter_state(
            legacy, hierarchy.size
        )
        assert _output_tuples(result.output) == _output_tuples(legacy.output(THETA))


class TestHooksAndValidation:
    def test_progress_hook_reaches_total(self):
        keys = _keys_1d(4_000)
        session = Session(_spec("mst", batch_size=1_000, packets=4_000), keys=keys)
        seen = []
        session.add_progress_hook(lambda sess, processed, total: seen.append((processed, total)))
        session.run()
        assert seen[-1] == (4_000, 4_000)
        assert [p for p, _ in seen] == [1_000, 2_000, 3_000, 4_000]

    def test_per_packet_progress_fires_at_chunk_granularity(self):
        # Regression: the per-packet path used to fire hooks only once per
        # segment, starving progress consumers on long per-packet runs; the
        # documented contract is "after every fed chunk".
        keys = _keys_1d(4_000)
        session = Session(_spec("mst", packets=4_000), keys=keys, progress_chunk=1_000)
        seen = []
        session.add_progress_hook(lambda sess, processed, total: seen.append(processed))
        session.run()
        assert seen == [1_000, 2_000, 3_000, 4_000]

    def test_per_packet_progress_respects_checkpoint_cuts(self):
        keys = _keys_1d(2_500)
        session = Session(_spec("mst", packets=2_500), keys=keys, progress_chunk=1_000)
        session.add_measurement_hook(lambda sess, processed: processed)
        seen = []
        session.add_progress_hook(lambda sess, processed, total: seen.append(processed))
        measurements = session.feed(checkpoints=[1_500])
        assert measurements == [1_500]
        # Chunking restarts after the checkpoint cut, exactly like the batch path.
        assert seen == [1_000, 1_500, 2_500]

    def test_per_packet_progress_default_chunk_covers_short_streams(self):
        keys = _keys_1d(100)
        session = Session(_spec("mst", packets=100), keys=keys)
        seen = []
        session.add_progress_hook(lambda sess, processed, total: seen.append(processed))
        session.feed()
        assert seen == [100]

    def test_invalid_progress_chunk_rejected(self):
        with pytest.raises(ConfigurationError, match="progress_chunk"):
            Session(_spec("mst", packets=10), keys=_keys_1d(10), progress_chunk=0)

    def test_measurement_hooks_fire_at_checkpoints(self):
        keys = _keys_1d(4_000)
        session = Session(_spec("mst", packets=4_000), keys=keys)
        session.add_measurement_hook(lambda sess, processed: (processed, len(sess.output(0.5))))
        result = session.run(checkpoints=[1_000, 4_000])
        assert [processed for processed, _ in result.measurements] == [1_000, 4_000]

    def test_checkpoint_beyond_stream_rejected(self):
        session = Session(_spec("mst", packets=100), keys=_keys_1d(100))
        with pytest.raises(ConfigurationError, match="checkpoints"):
            session.feed(checkpoints=[200])

    def test_output_rejects_bad_theta(self):
        session = Session(_spec("mst", packets=10), keys=_keys_1d(10))
        session.feed()
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ConfigurationError, match="theta"):
                session.output(bad)

    def test_session_requires_experiment_spec(self):
        with pytest.raises(ConfigurationError, match="ExperimentSpec"):
            Session(AlgorithmSpec(name="rhhh"))

    def test_workload_materialisation_matches_spec(self):
        result = run_experiment(_spec("mst", packets=2_000))
        assert result.packets == 2_000
        assert result.output.total == 2_000

    def test_batch_workload_uses_key_array(self):
        session = Session(_spec("rhhh", batch_size=512, packets=2_000))
        keys = session.keys()
        assert isinstance(keys, np.ndarray) and len(keys) == 2_000

    def test_1d_batch_keys_come_from_the_array_emitter(self):
        # The 1-D batch path reads the source column of key_array directly;
        # it must produce exactly the stream the keys_1d materialisation
        # produced (same generator RNG consumption, same values).
        from repro.traffic.caida_like import named_workload

        session = Session(_spec("rhhh", batch_size=512, packets=2_000))
        keys = session.keys()
        expected = np.asarray(
            named_workload("chicago16", num_flows=2_000).keys_1d(2_000), dtype=np.int64
        )
        assert keys.dtype == np.int64 and keys.flags["C_CONTIGUOUS"]
        assert np.array_equal(keys, expected)

    def test_measure_speed_per_packet_accepts_numpy_keys(self):
        # Regression: a per-packet spec with an explicit numpy key stream
        # used to feed unhashable array rows into the counters.
        keys = np.asarray(_keys_1d(1_000), dtype=np.int64)
        session = Session(_spec("rhhh", packets=1_000), keys=keys)
        result = session.measure_speed()
        assert result.packets == 1_000
        assert session.algorithm.total == 1_000

    def test_measure_speed_batch_processes_every_packet(self):
        keys = np.asarray(
            ZipfFlowGenerator(num_flows=300, skew=1.1, seed=13).keys_1d(5_000), dtype=np.int64
        )
        session = Session(_spec("rhhh", batch_size=1_024, packets=5_000), keys=keys)
        seen = []
        session.add_progress_hook(lambda sess, processed, total: seen.append(processed))
        result = session.measure_speed()
        assert isinstance(result, SpeedResult)
        assert result.packets == len(keys)
        assert session.algorithm.total == len(keys)
        assert result.packets_per_second > 0
        # The batch branch times the session's feed loop, so hooks fire.
        assert seen == [1_024, 2_048, 3_072, 4_096, 5_000]

    def test_measure_speed_batch_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            _spec("rhhh", batch_size=0, packets=5_000)

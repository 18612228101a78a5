"""The incremental streaming query engine: parity, idempotence, watch cadence.

The incremental output pass (``repro.core.output``) must be *bit-identical*
to the from-scratch pass on every engine - same candidates, same float
bounds, same conditioned estimates - over interleaved update/query streams.
Every engine exposes a scratch toggle for exactly this comparison:

* core lattice algorithms: ``algorithm._output_cache = None``;
* the sharded engine and the distributed aggregator share one merger:
  ``engine._merger.cache = None`` and ``aggregator._merger.cache = None``.

The suite drives each engine over seeded Zipf-like and DDoS streams with a
query after every chunk, pins repeated-query idempotence (including the
epoch flush of the distributed tier and the restoration of every hijacked
template attribute), the empty-stream regression (a ``total == 0`` query
used to select every residue prefix at threshold 0.0), and the
``Session.watch`` cadence contract.
"""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.api.specs import AlgorithmSpec, DistribSpec, ExperimentSpec
from repro.core.rhhh import RHHH
from repro.core.shard import ShardedHHH
from repro.distrib.cluster import DistributedCluster
from repro.exceptions import ConfigurationError
from repro.hhh.mst import MST
from repro.hhh.sampled_mst import SampledMST
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy
from repro.traffic.caida_like import named_workload
from repro.traffic.ddos import DDoSScenario

PACKETS = 24_576
CHUNK = 4_096
THETAS = (0.1, 0.05)


def _zipf_keys():
    return named_workload("sanjose14", num_flows=2_000).key_array(PACKETS)


def _ddos_keys():
    scenario = DDoSScenario(
        attack_subnets=[("10.20.0.0", 16), ("198.51.0.0", 16)],
        victim="203.0.113.7",
        attack_fraction=0.4,
        seed=11,
    )
    return scenario.key_array(PACKETS)


STREAMS = {"zipf": _zipf_keys, "ddos": _ddos_keys}


def _output_state(output):
    return (
        output.total,
        output.threshold,
        [
            (c.prefix, c.lower_bound, c.upper_bound, c.conditioned_estimate)
            for c in output.candidates
        ],
    )


def _core_pair(name):
    """Build (incremental, scratch-reference) twins of a core engine."""

    def build():
        if name == "rhhh":
            return RHHH(ipv4_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=7)
        if name == "mst":
            return MST(ipv4_byte_hierarchy(), epsilon=0.05)
        return SampledMST(ipv4_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=7)

    incremental, scratch = build(), build()
    scratch._output_cache = None
    return incremental, scratch


class TestIncrementalParity:
    """Incremental output == from-scratch output, bit for bit, every chunk."""

    @pytest.mark.parametrize("engine", ["rhhh", "mst", "sampled_mst"])
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_core_engines(self, engine, stream):
        keys = STREAMS[stream]()[:, 0].copy()
        incremental, scratch = _core_pair(engine)
        for lo in range(0, len(keys), CHUNK):
            chunk = keys[lo : lo + CHUNK]
            incremental.update_batch(chunk)
            scratch.update_batch(chunk)
            for theta in THETAS:
                assert _output_state(incremental.output(theta)) == _output_state(
                    scratch.output(theta)
                ), f"{engine}/{stream} diverged at {lo + CHUNK} packets, theta={theta}"

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_sharded_serial(self, stream):
        keys = STREAMS[stream]()[:, 0].copy()
        spec = AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=3)
        incremental = ShardedHHH(spec, "1d-bytes", shards=3, parallel=False)
        scratch = ShardedHHH(spec, "1d-bytes", shards=3, parallel=False)
        scratch._merger.cache = None
        for lo in range(0, len(keys), CHUNK):
            chunk = keys[lo : lo + CHUNK]
            incremental.update_batch(chunk)
            scratch.update_batch(chunk)
            for theta in THETAS:
                assert _output_state(incremental.output(theta)) == _output_state(
                    scratch.output(theta)
                ), f"sharded/{stream} diverged at {lo + CHUNK} packets, theta={theta}"

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_distributed_cluster(self, stream):
        keys = STREAMS[stream]()[:, 0].copy()
        spec = ExperimentSpec(
            algorithm=AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=7),
            hierarchy="1d-bytes",
            batch_size=CHUNK,
            distrib=DistribSpec(switches=4, epoch_batches=1),
        )
        incremental = DistributedCluster(spec)
        scratch = DistributedCluster(spec)
        scratch.aggregator._merger.cache = None
        for lo in range(0, len(keys), CHUNK):
            chunk = keys[lo : lo + CHUNK]
            incremental.update_batch(chunk)
            scratch.update_batch(chunk)
            assert _output_state(incremental.output(0.1)) == _output_state(
                scratch.output(0.1)
            ), f"distrib/{stream} diverged at {lo + CHUNK} packets"

    def test_two_dimensional_rhhh(self):
        keys = _zipf_keys()
        incremental = RHHH(ipv4_two_dim_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=7)
        scratch = RHHH(ipv4_two_dim_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=7)
        scratch._output_cache = None
        for lo in range(0, len(keys), 8_192):
            chunk = keys[lo : lo + 8_192]
            incremental.update_batch(chunk)
            scratch.update_batch(chunk)
            assert _output_state(incremental.output(0.2)) == _output_state(
                scratch.output(0.2)
            )

    def test_alternating_thetas_share_the_cache(self):
        """The per-theta LRU keeps independent passes; alternation stays exact."""
        keys = _zipf_keys()[:, 0].copy()
        incremental, scratch = _core_pair("rhhh")
        thetas = (0.05, 0.1, 0.2)
        for i, lo in enumerate(range(0, len(keys), CHUNK)):
            chunk = keys[lo : lo + CHUNK]
            incremental.update_batch(chunk)
            scratch.update_batch(chunk)
            theta = thetas[i % len(thetas)]
            assert _output_state(incremental.output(theta)) == _output_state(
                scratch.output(theta)
            )


class TestRepeatedQueryIdempotence:
    """Back-to-back queries with no updates in between are pinned identical."""

    @pytest.mark.parametrize("engine", ["rhhh", "mst", "sampled_mst"])
    def test_core_engines(self, engine):
        keys = _zipf_keys()[:, 0].copy()
        algorithm, _ = _core_pair(engine)
        algorithm.update_batch(keys)
        first = _output_state(algorithm.output(0.1))
        for _ in range(3):
            assert _output_state(algorithm.output(0.1)) == first

    def test_sharded_restores_every_template_attribute(self):
        keys = _zipf_keys()[:, 0].copy()
        engine = ShardedHHH(
            AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=3),
            "1d-bytes",
            shards=2,
            parallel=False,
        )
        engine.update_batch(keys)
        first = _output_state(engine.output(0.1))
        assert _output_state(engine.output(0.1)) == first
        template = engine._template
        # The hijacked template holds none of the merged state afterwards.
        assert template._total == 0
        assert template.extra_correction == 0.0
        assert template._output_cache is not engine._merger.cache

    def test_cluster_output_flushes_the_epoch_then_stays_pinned(self):
        keys = _zipf_keys()[:, 0].copy()
        spec = ExperimentSpec(
            algorithm=AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=7),
            hierarchy="1d-bytes",
            batch_size=CHUNK,
            distrib=DistribSpec(switches=4, epoch_batches=4),
        )
        cluster = DistributedCluster(spec)
        for lo in range(0, len(keys), CHUNK):
            cluster.update_batch(keys[lo : lo + CHUNK])
        first = cluster.output(0.1)
        # The query flushed the partial epoch; the state it answered from is
        # now stable, so repeats must be pinned identical (the merge cache
        # short-circuits on the unchanged contribution signature).
        assert cluster._batches_since_epoch == 0
        for _ in range(3):
            assert _output_state(cluster.output(0.1)) == _output_state(first)
        template = cluster.aggregator._template
        assert template._total == 0
        assert template.extra_correction == 0.0

    def test_aggregator_restores_template_between_thetas(self):
        keys = _zipf_keys()[:, 0].copy()
        spec = ExperimentSpec(
            algorithm=AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=7),
            hierarchy="1d-bytes",
            batch_size=CHUNK,
            distrib=DistribSpec(switches=3, epoch_batches=1),
        )
        cluster = DistributedCluster(spec)
        cluster.update_batch(keys[:CHUNK])
        saved_counters = cluster.aggregator._template._counters
        first = _output_state(cluster.output(0.1))
        cluster.output(0.05)
        # Different theta in between must not disturb the 0.1 pass.
        assert _output_state(cluster.output(0.1)) == first
        assert cluster.aggregator._template._counters is saved_counters


class TestEmptyStreamOutput:
    """``total == 0`` returns an empty report - never every residue prefix."""

    @pytest.mark.parametrize("engine", ["rhhh", "mst", "sampled_mst"])
    def test_fresh_engine_is_empty(self, engine):
        algorithm, _ = _core_pair(engine)
        output = algorithm.output(0.1)
        assert output.candidates == []
        assert output.total == 0
        assert output.threshold == 0.0

    def test_counter_residue_without_total_is_not_reported(self):
        """The regression: counters poked without moving the total.

        Before the guard, threshold ``0.0`` selected every tracked residue
        prefix even though the stream, by the algorithm's own accounting,
        was empty.
        """
        algorithm = MST(ipv4_byte_hierarchy(), epsilon=0.05)
        for node in range(len(algorithm._counters)):
            algorithm._counters[node].update(
                algorithm._hierarchy.generalize(167837697, node), 5
            )
        assert algorithm.total == 0
        output = algorithm.output(0.1)
        assert output.candidates == []
        assert output.total == 0
        assert output.threshold == 0.0


class TestWatchCadence:
    """``Session.watch`` yields on the chunk cadence plus a final report."""

    def _spec(self, packets=PACKETS - CHUNK, batch_size=CHUNK):
        return ExperimentSpec(
            algorithm=AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=7),
            hierarchy="1d-bytes",
            workload="sanjose14",
            num_flows=2_000,
            packets=packets,
            theta=0.1,
            batch_size=batch_size,
        )

    def test_cadence_and_final_report(self):
        # 20_480 packets / 4_096 chunks = 5 chunks; every=2 -> reports after
        # chunks 2 and 4 plus the off-cadence final chunk 5.
        with Session(self._spec()) as session:
            outputs = list(session.watch(every=2))
        assert len(outputs) == 3
        assert outputs[-1].total == PACKETS - CHUNK

    def test_final_watch_report_equals_run(self):
        with Session(self._spec()) as session:
            outputs = list(session.watch(every=2))
        with Session(self._spec()) as session:
            result = session.run()
        assert _output_state(outputs[-1]) == _output_state(result.output)
        assert result.packets == PACKETS - CHUNK

    def test_exact_cadence_has_no_duplicate_final(self):
        # 5 chunks, every=1 -> exactly 5 reports, no extra end-of-stream one.
        with Session(self._spec()) as session:
            outputs = list(session.watch(every=1))
        assert len(outputs) == 5
        totals = [output.total for output in outputs]
        assert totals == sorted(totals)

    def test_empty_stream_yields_one_empty_report(self):
        with Session(self._spec(packets=0)) as session:
            outputs = list(session.watch())
        assert len(outputs) == 1
        assert outputs[0].total == 0
        assert outputs[0].candidates == []

    def test_per_packet_path_watches_at_progress_chunks(self):
        spec = self._spec(packets=6_000, batch_size=None)
        with Session(spec, progress_chunk=2_000) as session:
            outputs = list(session.watch(every=1))
        assert len(outputs) == 3
        assert outputs[-1].total == 6_000

    def test_every_must_be_a_positive_int(self):
        with Session(self._spec()) as session:
            with pytest.raises(ConfigurationError):
                session.watch(every=0)
            with pytest.raises(ConfigurationError):
                session.watch(every=True)

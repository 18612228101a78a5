"""Streaming queries: parity, idempotence, watch cadence.

Every engine's answer must be *bit-identical* to its reference twin - same
candidates, same float bounds, same conditioned estimates - over
interleaved update/query streams:

* core lattice algorithms: the array Output pass against the scalar
  reference :func:`~repro.core.output.lattice_output_reference`, swapped in
  for the module-level ``lattice_output`` the engines call;
* the replica driver (the sharded engine and the distributed cluster): the
  reused per-node merges against a full re-merge per query
  (``engine._merger.incremental = False``).

The suite drives each engine over seeded Zipf-like and DDoS streams with a
query after every chunk, pins repeated-query idempotence (including the
epoch flush of the distributed tier and a merger template that never holds
merged state), the empty-stream regression (a ``total == 0`` query
used to select every residue prefix at threshold 0.0), and the
``Session.watch`` cadence contract.
"""

from __future__ import annotations

import pytest

import repro.core.rhhh
import repro.hhh.mst
import repro.hhh.sampled_mst
from repro.api.session import Session
from repro.api.specs import AlgorithmSpec, DistribSpec, ExperimentSpec
from repro.core.output import lattice_output_reference
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


@pytest.fixture
def reference_output(monkeypatch):
    """``reference_output(engine, theta)``: the engine's answer through the scalar Output twin."""

    def query(engine, theta):
        with monkeypatch.context() as patch:
            for module in (repro.core.rhhh, repro.hhh.mst, repro.hhh.sampled_mst):
                patch.setattr(module, "lattice_output", lattice_output_reference)
            return engine.output(theta)

    return query


def _core_pair(name):
    """Build two identical instances of a core engine (array pass, scalar-reference twin)."""

    def build():
        if name == "rhhh":
            return RHHH(ipv4_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=7)
        if name == "mst":
            return MST(ipv4_byte_hierarchy(), epsilon=0.05)
        return SampledMST(ipv4_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=7)

    return build(), build()


class TestIncrementalParity:
    """Every engine answers as its reference twin, bit for bit, every chunk."""

    @pytest.mark.parametrize("engine", ["rhhh", "mst", "sampled_mst"])
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_core_engines(self, engine, stream, reference_output):
        keys = STREAMS[stream]()[:, 0].copy()
        fast, scratch = _core_pair(engine)
        for lo in range(0, len(keys), CHUNK):
            chunk = keys[lo : lo + CHUNK]
            fast.update_batch(chunk)
            scratch.update_batch(chunk)
            for theta in THETAS:
                assert _output_state(fast.output(theta)) == _output_state(
                    reference_output(scratch, theta)
                ), f"{engine}/{stream} diverged at {lo + CHUNK} packets, theta={theta}"

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_sharded_serial(self, stream):
        keys = STREAMS[stream]()[:, 0].copy()
        spec = AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=3)
        incremental = ShardedHHH(spec, "1d-bytes", shards=3, parallel=False)
        scratch = ShardedHHH(spec, "1d-bytes", shards=3, parallel=False)
        scratch._merger.incremental = False
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
        scratch._merger.incremental = False
        for lo in range(0, len(keys), CHUNK):
            chunk = keys[lo : lo + CHUNK]
            incremental.update_batch(chunk)
            scratch.update_batch(chunk)
            assert _output_state(incremental.output(0.1)) == _output_state(
                scratch.output(0.1)
            ), f"distrib/{stream} diverged at {lo + CHUNK} packets"

    def test_two_dimensional_rhhh(self, reference_output):
        keys = _zipf_keys()
        fast = RHHH(ipv4_two_dim_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=7)
        scratch = RHHH(ipv4_two_dim_byte_hierarchy(), epsilon=0.05, delta=0.1, seed=7)
        for lo in range(0, len(keys), 8_192):
            chunk = keys[lo : lo + 8_192]
            fast.update_batch(chunk)
            scratch.update_batch(chunk)
            assert _output_state(fast.output(0.2)) == _output_state(
                reference_output(scratch, 0.2)
            )

    def test_alternating_thetas_share_the_cache(self, reference_output):
        """Alternating thresholds between chunks stays exact (no state carries across queries)."""
        keys = _zipf_keys()[:, 0].copy()
        fast, scratch = _core_pair("rhhh")
        thetas = (0.05, 0.1, 0.2)
        for i, lo in enumerate(range(0, len(keys), CHUNK)):
            chunk = keys[lo : lo + CHUNK]
            fast.update_batch(chunk)
            scratch.update_batch(chunk)
            theta = thetas[i % len(thetas)]
            assert _output_state(fast.output(theta)) == _output_state(
                reference_output(scratch, theta)
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
        # Merged queries never write merged state into the template.
        assert template._total == 0

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
        assert cluster._replicas._batches_since_epoch == 0
        for _ in range(3):
            assert _output_state(cluster.output(0.1)) == _output_state(first)
        template = cluster._template
        assert template._total == 0

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
        saved_counters = cluster._template._counters
        first = _output_state(cluster.output(0.1))
        cluster.output(0.05)
        # Different theta in between must not disturb the 0.1 pass.
        assert _output_state(cluster.output(0.1)) == first
        assert cluster._template._counters is saved_counters


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

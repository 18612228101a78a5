"""The benchmark's workloads: seeded inputs and the Session spec each one runs.

Every workload drives :class:`repro.api.Session` with RHHH at the Figure 5
settings (2d-bytes, epsilon 0.003, delta 0.01, V = H, the default counter
backend) in 65,536-packet chunks.  Only the keys depend on the seed; the
spec, chunking, engine and algorithm seed are the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.api import AlgorithmSpec, ExperimentSpec
from repro.traffic.caida_like import WORKLOADS, named_workload
from repro.traffic.ddos import DDoSScenario
from repro.traffic.trace_io import TraceV2Writer
from repro.traffic.zipf import zipf_weights

HIERARCHY = "2d-bytes"
EPSILON = 0.003
DELTA = 0.01
#: Query threshold.  Lower thresholds put the per-chunk queries of
#: ``ddos-monitor`` into the saturated small-N corner (the first query alone
#: runs for minutes at theta 0.05).
THETA = 0.1
CHUNK = 65_536
#: Algorithm seed, fixed: the workload seed changes the keys and nothing else.
ALGORITHM_SEED = 7
#: Ring depth of the trace ingest stage on ``backbone``.
INGEST_DEPTH = 4

_STORM_SRC = 0x9E3779B1
_STORM_DST = 0x85EBCA77
_MASK32 = 0xFFFFFFFF


def backbone_keys(seed: int, packets: int) -> np.ndarray:
    """The sanjose14 flow population (fixed) drawn with Zipf popularity by ``seed``."""
    generator = named_workload("sanjose14")
    flows = np.asarray(generator.flow_population(), dtype=np.int64)
    weights = zipf_weights(generator.num_flows, WORKLOADS["sanjose14"].flow_skew)
    rng = np.random.default_rng(seed)
    return flows[rng.choice(generator.num_flows, size=packets, p=weights)]


def storm_keys(seed: int, packets: int) -> np.ndarray:
    """All-distinct keys: two odd multiplicative bijections mod 2**32.

    The seed picks where the index range starts, so every seed gives
    pairwise-distinct keys spread across every byte prefix.
    """
    start = np.random.default_rng(seed).integers(0, 1 << 32, dtype=np.uint64)
    idx = (start + np.arange(packets, dtype=np.uint64)) & np.uint64(_MASK32)
    src = (idx * np.uint64(_STORM_SRC)) & np.uint64(_MASK32)
    dst = (idx * np.uint64(_STORM_DST)) & np.uint64(_MASK32)
    return np.stack([src, dst], axis=1).astype(np.int64)


def ddos_keys(seed: int, packets: int) -> np.ndarray:
    """Two attacking /16 subnets (40% of packets) over a backbone background."""
    scenario = DDoSScenario(
        [("10.20.0.0", 16), ("198.51.0.0", 16)],
        "203.0.113.7",
        attack_fraction=0.4,
        seed=seed,
    )
    return scenario.key_array(packets)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``--workload`` selects.
        why: why the workload is in the benchmark.
        chunks: chunks per pass (a pass feeds ``chunks * CHUNK`` packets).
        make_keys: ``(seed, packets) -> (n, 2) int64 keys``.
        trace: replay the keys from a v2 trace through the ingest ring.
        shards: size of the shard process pool (``None``: single engine).
        watch_every: query cadence in chunks (``None``: one final query).
        distinct_keys: every key is distinct (scored by prefix counts).
    """

    name: str
    why: str
    chunks: int
    make_keys: Callable[[int, int], np.ndarray]
    trace: bool = False
    distinct_keys: bool = False
    shards: Optional[int] = None
    watch_every: Optional[int] = None

    @property
    def packets(self) -> int:
        return self.chunks * CHUNK

    def keys(self, seed: int) -> np.ndarray:
        return self.make_keys(seed, self.packets)

    def spec(self, trace_path: Optional[Path] = None) -> ExperimentSpec:
        return ExperimentSpec(
            algorithm=AlgorithmSpec(
                name="rhhh", epsilon=EPSILON, delta=DELTA, seed=ALGORITHM_SEED
            ),
            hierarchy=HIERARCHY,
            trace=str(trace_path) if trace_path is not None else None,
            ingest=INGEST_DEPTH if trace_path is not None else None,
            packets=self.packets,
            theta=THETA,
            batch_size=CHUNK,
            shards=self.shards,
        )


def write_trace(keys: np.ndarray, path: Path) -> None:
    """Write ``keys`` as a v2 columnar trace whose chunks match the feed chunks."""
    with TraceV2Writer(path, chunk_size=CHUNK) as writer:
        writer.key_batches_from([keys])


WORKLOADS_BY_NAME = {
    workload.name: workload
    for workload in (
        Workload(
            name="backbone",
            why=(
                "sanjose14 Zipf backbone replayed from a v2 trace through the ingest "
                "ring; one final query; the counter hit path dominates"
            ),
            chunks=32,
            make_keys=backbone_keys,
            trace=True,
        ),
        Workload(
            name="storm",
            why=(
                "all-distinct keys: every counter update misses and evicts, "
                "aggregation collapses nothing; one final query"
            ),
            chunks=16,
            make_keys=storm_keys,
            distinct_keys=True,
        ),
        Workload(
            name="ddos-monitor",
            why=(
                "DDoS blend on a 2-shard process pool queried after every chunk: "
                "state fetch, merge and the Output pass sit between writes"
            ),
            chunks=34,
            make_keys=ddos_keys,
            shards=2,
            watch_every=1,
        ),
    )
}

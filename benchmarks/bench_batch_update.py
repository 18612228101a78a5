"""Scalar-vs-batch update throughput microbenchmark for the batch engine.

Compares the ways of feeding the same stream into RHHH at the Figure 5
settings (sanjose14 backbone workload, 2D-bytes lattice by default):

* ``update``              - the per-packet general entry point (the scalar baseline);
* ``update_batch``        - the vectorized batch engine over the linked-bucket
                            Space Saving counter, fed ``--batch-size`` chunks;
* ``update_batch[array]`` - the same batch engine over the struct-of-arrays
                            ``array_space_saving`` counter backend;
* ``update_batch[ckpt]``   (with ``--checkpoint-every N``) - the batch engine
                            plus a durable checkpoint of the full runtime
                            state every N packets, bounding the
                            fault-tolerance layer's overhead
                            (``--max-checkpoint-overhead`` gates it);
* ``update_batch[sharded]`` (with ``--shards N``) - the hash-partitioned
                            process-pool engine: N worker shards each running
                            the vectorized batch path on their own sub-stream,
                            merged at output time (worker spawn excluded from
                            the timing; the feed loop includes the per-chunk
                            dispatch, partitioning and acknowledgement).

With ``--trace FILE`` the stream comes from a serialized binary trace instead
of the workload generator, and three replay paths are additionally measured:
``trace_inline`` (read + update alternating on one thread), ``trace_ingest``
(reader on a ring-buffer producer thread overlapping ``update_batch``) and,
with ``--shards N``, ``trace_ingest[sharded]`` - reader thread plus the
worker-pool engine, the fully overlapped pipeline.  An ingest parity gate
first verifies the ring-buffered feed is bit-identical to the inline feed.

It also measures the batch-aware MST baseline (``--mst-packets`` stream
prefix): the scalar every-node-every-packet ``update`` loop against the
vectorized aggregated ``update_batch`` - the number that makes the Figure 5
speedup-vs-MST comparison honest in batch mode.

The **eviction-storm** variants (``--storm-packets`` all-distinct keys, the
max-churn adversary) probe the last recorded scalar floor: exact Space
Saving semantics force per-event eviction work when every key misses a full
table, while the sketch backend (``count_min``) has no eviction order to
preserve and vectorizes completely.  ``storm_update[...]`` is the per-packet
scalar loop and ``storm_batch[...]`` the batch engine, each over the sketch
and the array Space Saving backends; ``--min-sketch-vs-array`` gates the
sketch batch path against the array Space Saving batch path on that stream
(``sketch_vs_array_storm_ratio``, array batch time over sketch batch time;
it stays armed under ``--smoke``).  The storm
stream is parity-gated first: the sketch-counter batch feed must be
bit-identical to its scalar reference twin.

Before timing anything the script verifies the batch engine end to end: for
each counter backend a seeded RHHH instance fed through the vectorized
``update_batch`` must be bit-identical (same ``output(theta)`` candidates and
same per-node counter state) to a same-seed instance fed through the scalar
reference ``update_batch_reference``, and the MST instance likewise against
its scalar reference.  The benchmark refuses to report numbers for a batch
path that does not match its sequential specification.

Runs standalone (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_batch_update.py
    PYTHONPATH=src python benchmarks/bench_batch_update.py --packets 100000 --json out.json

Exit status is non-zero if verification fails, if ``--min-speedup`` is given
and the measured linked-counter batch speedup over the ``update`` loop falls
short, if ``--min-array-speedup`` is given and the array-backend batch
speedup over the ``update`` loop falls short, or if ``--min-sketch-vs-array``
is given and the sketch-over-array batch ratio on the eviction-storm stream
falls short.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

from repro.api.specs import AlgorithmSpec
from repro.core.ingest import RingBufferIngest, rechunk_batches
from repro.core.rhhh import RHHH
from repro.core.shard import ShardedHHH
from repro.eval.reporting import format_table
from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hhh.mst import MST
from repro.hierarchy.onedim import ipv4_bit_hierarchy, ipv4_byte_hierarchy
from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy
from repro.traffic.caida_like import named_workload
from repro.traffic.trace_io import trace_key_array, trace_key_batches, trace_packet_count

HIERARCHIES = {
    "1d-bytes": ipv4_byte_hierarchy,
    "1d-bits": ipv4_bit_hierarchy,
    "2d-bytes": ipv4_two_dim_byte_hierarchy,
}

COUNTERS = {
    "space_saving": "space_saving",
    "array_space_saving": lambda epsilon: ArraySpaceSaving(epsilon=epsilon),
}


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="sanjose14")
    parser.add_argument("--num-flows", type=int, default=10_000)
    parser.add_argument("--packets", type=int, default=500_000)
    parser.add_argument("--hierarchy", default="2d-bytes", choices=sorted(HIERARCHIES))
    parser.add_argument("--epsilon", type=float, default=0.003, help="Figure 5 accuracy target")
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--v-multiplier", type=int, default=1, help="V = multiplier * H (10 = 10-RHHH)")
    parser.add_argument("--batch-size", type=int, default=131_072)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3, help="median-of-N timing repeats")
    parser.add_argument("--verify-packets", type=int, default=100_000,
                        help="prefix length used for the batch-vs-reference equivalence checks")
    parser.add_argument("--theta", type=float, default=0.1, help="threshold for the verification output")
    parser.add_argument("--mst-packets", type=int, default=100_000,
                        help="stream prefix used for the MST scalar-vs-batch comparison "
                        "(the scalar loop costs O(H) per packet)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail (exit 1) if the linked-counter batch speedup over the "
                        "update loop is below this")
    parser.add_argument("--min-array-speedup", type=float, default=None,
                        help="fail (exit 1) if the array-backend batch speedup over the "
                        "update loop is below this")
    parser.add_argument("--storm-packets", type=int, default=200_000,
                        help="length of the all-distinct-keys eviction-storm stream used "
                        "for the sketch-vs-Space-Saving churn comparison")
    parser.add_argument("--min-sketch-vs-array", type=float, default=None,
                        help="fail (exit 1) if the sketch batch path's speed over the "
                        "array Space Saving batch path on the eviction-storm stream "
                        "(sketch_vs_array_storm_ratio) is below this (NOT disarmed by "
                        "--smoke)")
    parser.add_argument("--trace", default=None,
                        help="replay a serialized binary trace (v2 columnar preferred) "
                        "instead of generating the workload, and additionally measure "
                        "reader-inline vs ring-buffer-overlapped trace feeds (gated on "
                        "the ingest-vs-inline parity check)")
    parser.add_argument("--ingest-depth", type=int, default=4,
                        help="ring-buffer depth (batches) of the overlapped trace feed")
    parser.add_argument("--shards", type=int, default=0,
                        help="also measure the hash-partitioned process-pool engine with "
                        "this many worker shards (0 = skip)")
    parser.add_argument("--min-shard-speedup", type=float, default=None,
                        help="fail (exit 1) if the sharded-engine throughput over the "
                        "single-process batch path is below this (needs as many free "
                        "cores as shards to mean anything)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        help="also measure the batch feed with a durable checkpoint "
                        "(atomic write of the full runtime state) every this many "
                        "packets, and report the overhead vs the plain batch feed")
    parser.add_argument("--max-checkpoint-overhead", type=float, default=None,
                        help="fail (exit 1) if the checkpointed feed's median overhead "
                        "over the plain batch feed exceeds this percentage "
                        "(needs --checkpoint-every)")
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke preset: a small stream, one timing repeat, no "
                        "speedup gates - exercises the full verify+measure pipeline fast")
    args = parser.parse_args(argv)
    if args.smoke:
        args.packets = min(args.packets, 100_000)
        args.verify_packets = min(args.verify_packets, args.packets)
        args.mst_packets = min(args.mst_packets, 20_000)
        args.storm_packets = min(args.storm_packets, 30_000)
        args.repeats = 1
        # --min-sketch-vs-array stays armed: its threshold is set from
        # smoke-sized runs, where the storm stream is short.
        args.min_speedup = None
        args.min_array_speedup = None
        args.min_shard_speedup = None
        # Keep the verification output() tractable: at Figure-5 epsilon the
        # candidate set explodes on short streams (the RHHH correction term
        # shrinks only as sqrt(N) relative to theta*N) and the quadratic
        # closest_descendants scan dominates the whole run.
        args.epsilon = max(args.epsilon, 0.01)
        args.theta = max(args.theta, 0.2)
    args.mst_packets = min(args.mst_packets, args.packets)
    return args


def _storm_keys(args, hierarchy):
    """The eviction-storm stream: every key distinct (the max-churn adversary).

    Two odd multiplicative constants give bijections mod ``2**32``, so the
    keys are pairwise distinct, spread across every byte prefix, and fully
    deterministic without consuming any RNG stream.
    """
    idx = np.arange(args.storm_packets, dtype=np.uint64)
    mask = np.uint64(0xFFFFFFFF)
    src = (idx * np.uint64(0x9E3779B1)) & mask
    dst = (idx * np.uint64(0x85EBCA77)) & mask
    if hierarchy.dimensions == 2:
        batch = np.stack([src, dst], axis=1).astype(np.int64)
        scalar = [(int(s), int(d)) for s, d in batch]
    else:
        batch = src.astype(np.int64)
        scalar = batch.tolist()
    return scalar, batch


def _make(args, hierarchy, counter="space_saving") -> RHHH:
    return RHHH(
        hierarchy,
        epsilon=args.epsilon,
        delta=args.delta,
        v=args.v_multiplier * hierarchy.size,
        seed=args.seed,
        counter=counter,
    )


def _counter_state(algorithm):
    state = []
    for node in range(algorithm.hierarchy.size):
        counter = algorithm.node_counter(node)
        state.append(
            sorted((key, counter.estimate(key), counter.lower_bound(key)) for key in counter)
        )
    return state


def _output_state(algorithm, theta):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in algorithm.output(theta)
    ]


def verify_equivalence(args, hierarchy, keys, counter="space_saving") -> bool:
    """Vectorized RHHH update_batch must be bit-identical to the scalar reference."""
    count = min(args.verify_packets, len(keys))
    vectorized = _make(args, hierarchy, counter)
    reference = _make(args, hierarchy, counter)
    for start in range(0, count, args.batch_size):
        chunk = keys[start : min(start + args.batch_size, count)]
        vectorized.update_batch(chunk)
        reference.update_batch_reference(chunk)
    tallies_match = (
        vectorized.total == reference.total
        and vectorized.ignored_packets == reference.ignored_packets
        and vectorized.counter_updates == reference.counter_updates
    )
    counters_match = _counter_state(vectorized) == _counter_state(reference)
    outputs_match = _output_state(vectorized, args.theta) == _output_state(reference, args.theta)
    return tallies_match and counters_match and outputs_match


def _shard_spec(args, hierarchy) -> AlgorithmSpec:
    """The per-shard RHHH spec at the benchmark's Figure-5 settings."""
    return AlgorithmSpec(
        name="rhhh",
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        v=args.v_multiplier * hierarchy.size,
    )


def _merged_shard_state(engine):
    counters, total = engine.merged_counters()
    state = [
        sorted((key, counter.estimate(key), counter.lower_bound(key)) for key in counter)
        for counter in counters
    ]
    return total, state


def verify_shard_equivalence(args, hierarchy, keys) -> bool:
    """The process-pool sharded run must match the in-process shard reference.

    Sharded output is deliberately not bit-identical to the unsharded engine
    (independent per-shard RNG streams, merged summaries); what must hold is
    that the worker-pool execution is exactly the serial shard semantics -
    same merged counters, same output - for the same ``(seed, shards)``.
    """
    count = min(args.verify_packets, len(keys))
    spec = _shard_spec(args, hierarchy)
    serial = ShardedHHH(spec, args.hierarchy, args.shards, parallel=False)
    with ShardedHHH(spec, args.hierarchy, args.shards, parallel=True) as pooled:
        for start in range(0, count, args.batch_size):
            chunk = keys[start : min(start + args.batch_size, count)]
            serial.update_batch(chunk)
            pooled.update_batch(chunk)
        pooled_state = _merged_shard_state(pooled)
        pooled_output = _output_state(pooled, args.theta)
    return (
        serial.total == pooled.total
        and _merged_shard_state(serial) == pooled_state
        and _output_state(serial, args.theta) == pooled_output
    )


def _trace_batches(args, hierarchy, limit):
    """The re-chunked trace batch stream both trace feed paths consume."""
    return rechunk_batches(
        trace_key_batches(args.trace, dimensions=hierarchy.dimensions, limit=limit),
        args.batch_size,
    )


def verify_ingest_equivalence(args, hierarchy) -> bool:
    """The ring-buffered trace feed must be bit-identical to the inline feed.

    Same trace, same re-chunking, same seed: the only difference is whether
    the batches cross the bounded ring (reader on a producer thread) or are
    pulled inline.  Any divergence in counter state or output fails the gate
    and the benchmark refuses to report overlap numbers.
    """
    count = min(args.verify_packets, args.packets)
    inline = _make(args, hierarchy)
    overlapped = _make(args, hierarchy)
    for chunk in _trace_batches(args, hierarchy, count):
        inline.update_batch(chunk)
    with RingBufferIngest(_trace_batches(args, hierarchy, count), depth=args.ingest_depth) as ring:
        for chunk in ring:
            overlapped.update_batch(chunk)
    return (
        inline.total == overlapped.total
        and inline.ignored_packets == overlapped.ignored_packets
        and _counter_state(inline) == _counter_state(overlapped)
        and _output_state(inline, args.theta) == _output_state(overlapped, args.theta)
    )


def verify_mst_equivalence(args, hierarchy, keys) -> bool:
    """Vectorized MST update_batch must be bit-identical to its scalar reference."""
    count = min(args.verify_packets, args.mst_packets, len(keys))
    vectorized = MST(hierarchy, epsilon=args.epsilon)
    reference = MST(hierarchy, epsilon=args.epsilon)
    for start in range(0, count, args.batch_size):
        chunk = keys[start : min(start + args.batch_size, count)]
        vectorized.update_batch(chunk)
        reference.update_batch_reference(chunk)
    return (
        vectorized.total == reference.total
        and _counter_state(vectorized) == _counter_state(reference)
        and _output_state(vectorized, args.theta) == _output_state(reference, args.theta)
    )


def main(argv=None) -> int:
    args = _parse_args(argv)
    hierarchy = HIERARCHIES[args.hierarchy]()
    if args.trace:
        args.packets = min(args.packets, trace_packet_count(args.trace))
        args.verify_packets = min(args.verify_packets, args.packets)
        args.mst_packets = min(args.mst_packets, args.packets)
        batch_keys = trace_key_array(
            args.trace, dimensions=hierarchy.dimensions, limit=args.packets
        )
        if hierarchy.dimensions == 2:
            scalar_keys = [tuple(row) for row in batch_keys.tolist()]
        else:
            scalar_keys = batch_keys.tolist()
        source = f"trace={args.trace}"
    else:
        generator = named_workload(args.workload, num_flows=args.num_flows)
        if hierarchy.dimensions == 2:
            key_array = generator.key_array(args.packets)
            scalar_keys = [(int(s), int(d)) for s, d in key_array]
            batch_keys = key_array
        else:
            scalar_keys = generator.keys_1d(args.packets)
            batch_keys = np.asarray(scalar_keys, dtype=np.int64)
        source = f"workload={args.workload} flows={args.num_flows}"

    print(
        f"{source} packets={args.packets:,} "
        f"hierarchy={args.hierarchy} (H={hierarchy.size}) epsilon={args.epsilon} "
        f"V={args.v_multiplier}*H batch_size={args.batch_size}"
    )

    verified: Dict[str, bool] = {}
    for counter_name, counter in COUNTERS.items():
        verified[counter_name] = verify_equivalence(args, hierarchy, batch_keys, counter)
        print(
            f"rhhh[{counter_name}] batch output bit-identical to sequential reference: "
            f"{verified[counter_name]}"
        )
    verified["mst"] = verify_mst_equivalence(args, hierarchy, batch_keys)
    print(f"mst batch output bit-identical to sequential reference: {verified['mst']}")
    storm_scalar, storm_batch = _storm_keys(args, hierarchy)
    for sketch_name in ("count_min", "count_sketch"):
        verified[f"storm[{sketch_name}]"] = verify_equivalence(
            args, hierarchy, storm_batch, sketch_name
        )
        print(
            f"rhhh[{sketch_name}] storm batch output bit-identical to sequential "
            f"reference: {verified[f'storm[{sketch_name}]']}"
        )
    if args.trace:
        verified["ingest"] = verify_ingest_equivalence(args, hierarchy)
        print(
            f"ring-buffer trace feed bit-identical to inline trace feed: "
            f"{verified['ingest']}"
        )
    if args.shards >= 2:
        verified["sharded"] = verify_shard_equivalence(args, hierarchy, batch_keys)
        print(
            f"sharded[{args.shards}] pool output identical to serial shard reference: "
            f"{verified['sharded']}"
        )
    if not all(verified.values()):
        print("FAIL: a vectorized batch path diverges from its scalar specification",
              file=sys.stderr)
        return 1

    def run_update() -> float:
        algorithm = _make(args, hierarchy)
        update = algorithm.update
        start = time.perf_counter()
        for key in scalar_keys:
            update(key)
        return time.perf_counter() - start

    def run_batch(counter) -> float:
        algorithm = _make(args, hierarchy, counter)
        update_batch = algorithm.update_batch
        start = time.perf_counter()
        for lo in range(0, len(batch_keys), args.batch_size):
            update_batch(batch_keys[lo : lo + args.batch_size])
        return time.perf_counter() - start

    def run_storm_update(counter) -> float:
        # The eviction-storm scalar floor: every key distinct, per-packet loop.
        algorithm = _make(args, hierarchy, counter)
        update = algorithm.update
        start = time.perf_counter()
        for key in storm_scalar:
            update(key)
        return time.perf_counter() - start

    def run_storm_batch(counter) -> float:
        algorithm = _make(args, hierarchy, counter)
        update_batch = algorithm.update_batch
        start = time.perf_counter()
        for lo in range(0, len(storm_batch), args.batch_size):
            update_batch(storm_batch[lo : lo + args.batch_size])
        return time.perf_counter() - start

    def run_mst_update() -> float:
        algorithm = MST(hierarchy, epsilon=args.epsilon)
        update = algorithm.update
        start = time.perf_counter()
        for key in scalar_keys[: args.mst_packets]:
            update(key)
        return time.perf_counter() - start

    def run_mst_batch() -> float:
        algorithm = MST(hierarchy, epsilon=args.epsilon)
        update_batch = algorithm.update_batch
        start = time.perf_counter()
        for lo in range(0, args.mst_packets, args.batch_size):
            update_batch(batch_keys[lo : min(lo + args.batch_size, args.mst_packets)])
        return time.perf_counter() - start

    def run_shard_batch() -> float:
        # Worker spawn/teardown excluded: a deployment pays it once per
        # engine, not per batch.  The timed loop includes the partitioning,
        # dispatch and per-chunk acknowledgements - the real pipeline cost.
        with ShardedHHH(
            _shard_spec(args, hierarchy), args.hierarchy, args.shards, parallel=True
        ) as engine:
            update_batch = engine.update_batch
            start = time.perf_counter()
            for lo in range(0, len(batch_keys), args.batch_size):
                update_batch(batch_keys[lo : lo + args.batch_size])
            elapsed = time.perf_counter() - start
        return elapsed

    def run_trace_inline() -> float:
        # Read + decode + update alternating on one thread: the honest
        # replay baseline the overlapped feed is compared against.
        algorithm = _make(args, hierarchy)
        update_batch = algorithm.update_batch
        start = time.perf_counter()
        for chunk in _trace_batches(args, hierarchy, args.packets):
            update_batch(chunk)
        return time.perf_counter() - start

    def run_trace_ingest() -> float:
        algorithm = _make(args, hierarchy)
        update_batch = algorithm.update_batch
        start = time.perf_counter()
        with RingBufferIngest(
            _trace_batches(args, hierarchy, args.packets), depth=args.ingest_depth
        ) as ring:
            for chunk in ring:
                update_batch(chunk)
        return time.perf_counter() - start

    def run_shard_trace_ingest() -> float:
        # The acceptance measurement: trace reader on the producer thread,
        # sharded batch engine (worker pool) on the consumer side - the
        # whole pipeline overlapped end to end.  Worker spawn excluded, as
        # in run_shard_batch.
        with ShardedHHH(
            _shard_spec(args, hierarchy), args.hierarchy, args.shards, parallel=True
        ) as engine:
            update_batch = engine.update_batch
            start = time.perf_counter()
            with RingBufferIngest(
                _trace_batches(args, hierarchy, args.packets), depth=args.ingest_depth
            ) as ring:
                for chunk in ring:
                    update_batch(chunk)
            elapsed = time.perf_counter() - start
        return elapsed

    def run_batch_checkpointed() -> float:
        # The plain batch feed plus a durable checkpoint (atomic temp-file
        # write of the full runtime state) every --checkpoint-every packets:
        # the number that bounds the fault-tolerance layer's overhead.
        import os
        import tempfile

        from repro.core.checkpoint import save_checkpoint, snapshot_algorithm

        algorithm = _make(args, hierarchy)
        update_batch = algorithm.update_batch
        handle, path = tempfile.mkstemp(suffix=".rckp")
        os.close(handle)
        next_mark = args.checkpoint_every
        try:
            start = time.perf_counter()
            for lo in range(0, len(batch_keys), args.batch_size):
                update_batch(batch_keys[lo : lo + args.batch_size])
                fed = min(lo + args.batch_size, len(batch_keys))
                if fed >= next_mark:
                    save_checkpoint(
                        path,
                        {
                            "format": "bench",
                            "position": fed,
                            "algorithm": snapshot_algorithm(algorithm, copy_state=False),
                        },
                    )
                    next_mark = fed + args.checkpoint_every
            elapsed = time.perf_counter() - start
        finally:
            os.unlink(path)
        return elapsed

    variants = {
        "update": run_update,
        "update_batch": lambda: run_batch("space_saving"),
        "update_batch[array]": lambda: run_batch(COUNTERS["array_space_saving"]),
        "mst_update": run_mst_update,
        "mst_update_batch": run_mst_batch,
        "storm_update[sketch]": lambda: run_storm_update("count_min"),
        "storm_batch[sketch]": lambda: run_storm_batch("count_min"),
        "storm_update[array]": lambda: run_storm_update(COUNTERS["array_space_saving"]),
        "storm_batch[array]": lambda: run_storm_batch(COUNTERS["array_space_saving"]),
    }
    if args.checkpoint_every is not None:
        variants[f"update_batch[ckpt every {args.checkpoint_every}]"] = run_batch_checkpointed
    if args.trace:
        variants["trace_inline"] = run_trace_inline
        variants[f"trace_ingest[depth={args.ingest_depth}]"] = run_trace_ingest
        if args.shards >= 2:
            variants[f"trace_ingest[sharded x{args.shards}]"] = run_shard_trace_ingest
    if args.shards >= 2:
        variants[f"update_batch[sharded x{args.shards}]"] = run_shard_batch
    # Interleave the variants so machine noise hits them evenly.
    times: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(max(1, args.repeats)):
        for name, run in variants.items():
            times[name].append(run())
    medians = {name: statistics.median(values) for name, values in times.items()}

    baseline = medians["update"]

    def _variant_packets(name: str) -> int:
        if name.startswith("mst"):
            return args.mst_packets
        if name.startswith("storm"):
            return args.storm_packets
        return args.packets

    rows = [
        {
            "path": name,
            "packets": _variant_packets(name),
            "seconds": seconds,
            "kpps": _variant_packets(name) / seconds / 1e3,
            "speedup_vs_update": (
                baseline / seconds
                if not name.startswith(("mst", "storm"))
                else float("nan")
            ),
        }
        for name, seconds in medians.items()
    ]
    print(format_table(rows, title="scalar vs batch update throughput (medians)"))

    speedup = baseline / medians["update_batch"]
    array_speedup = baseline / medians["update_batch[array]"]
    array_vs_linked = medians["update_batch"] / medians["update_batch[array]"]
    mst_speedup = medians["mst_update"] / medians["mst_update_batch"]
    sketch_storm_speedup = medians["storm_update[sketch]"] / medians["storm_batch[sketch]"]
    array_storm_speedup = medians["storm_update[array]"] / medians["storm_batch[array]"]
    sketch_vs_array_storm = medians["storm_batch[array]"] / medians["storm_batch[sketch]"]
    print(f"\nbatch speedup over per-packet update loop:        {speedup:.2f}x")
    print(f"array-backend batch speedup over update loop:     {array_speedup:.2f}x")
    print(f"array backend vs linked counter (batch path):     {array_vs_linked:.2f}x")
    print(f"MST batch speedup over its scalar O(H) loop:      {mst_speedup:.2f}x")
    print(f"eviction storm: sketch batch over sketch loop:    {sketch_storm_speedup:.2f}x")
    print(f"eviction storm: array batch over array loop:      {array_storm_speedup:.2f}x")
    print(f"eviction storm: sketch batch over array batch:    {sketch_vs_array_storm:.2f}x")
    ingest_speedup = None
    if args.trace:
        ingest_speedup = (
            medians["trace_inline"] / medians[f"trace_ingest[depth={args.ingest_depth}]"]
        )
        print(
            f"ring-buffer overlap speedup over inline replay:   {ingest_speedup:.2f}x "
            f"(depth={args.ingest_depth})"
        )
        if args.shards >= 2:
            sharded_trace = medians[f"trace_ingest[sharded x{args.shards}]"]
            print(
                f"overlapped sharded-engine trace throughput:       "
                f"{args.packets / sharded_trace / 1e3:,.0f} kpps "
                f"({args.shards} shards + reader thread)"
            )
    checkpoint_overhead = None
    if args.checkpoint_every is not None:
        checkpointed = medians[f"update_batch[ckpt every {args.checkpoint_every}]"]
        checkpoint_overhead = (checkpointed / medians["update_batch"] - 1.0) * 100.0
        print(
            f"checkpoint overhead over plain batch feed:        "
            f"{checkpoint_overhead:+.2f}% (every {args.checkpoint_every:,} packets)"
        )
    shard_speedup = None
    if args.shards >= 2:
        import os

        shard_speedup = medians["update_batch"] / medians[f"update_batch[sharded x{args.shards}]"]
        cores = os.cpu_count() or 1
        print(
            f"sharded x{args.shards} speedup over single-process batch path: "
            f"{shard_speedup:.2f}x ({cores} cores visible"
            + (", fewer cores than shards - expect no gain)" if cores < args.shards else ")")
        )

    if args.json:
        payload = {
            "settings": vars(args),
            "hierarchy_size": hierarchy.size,
            "verified": verified,
            "median_seconds": medians,
            "raw_seconds": times,
            "batch_speedup_vs_update": speedup,
            "array_batch_speedup_vs_update": array_speedup,
            "array_vs_scalar_counter_batch_ratio": array_vs_linked,
            "mst_batch_speedup": mst_speedup,
            "sketch_storm_speedup": sketch_storm_speedup,
            "array_storm_speedup": array_storm_speedup,
            "sketch_vs_array_storm_ratio": sketch_vs_array_storm,
            "shard_batch_speedup": shard_speedup,
            "ingest_overlap_speedup": ingest_speedup,
            "checkpoint_overhead_percent": checkpoint_overhead,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    failed = False
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: batch speedup {speedup:.2f}x below required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if args.min_array_speedup is not None and array_speedup < args.min_array_speedup:
        print(
            f"FAIL: array-backend batch speedup {array_speedup:.2f}x below required "
            f"{args.min_array_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if args.min_sketch_vs_array is not None and sketch_vs_array_storm < args.min_sketch_vs_array:
        print(
            f"FAIL: eviction-storm sketch batch over array batch {sketch_vs_array_storm:.2f}x "
            f"below required {args.min_sketch_vs_array:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if args.max_checkpoint_overhead is not None:
        if checkpoint_overhead is None:
            print(
                "FAIL: --max-checkpoint-overhead needs --checkpoint-every to measure",
                file=sys.stderr,
            )
            failed = True
        elif checkpoint_overhead > args.max_checkpoint_overhead:
            print(
                f"FAIL: checkpoint overhead {checkpoint_overhead:.2f}% above allowed "
                f"{args.max_checkpoint_overhead:.2f}%",
                file=sys.stderr,
            )
            failed = True
    if args.min_shard_speedup is not None and (
        shard_speedup is None or shard_speedup < args.min_shard_speedup
    ):
        print(
            f"FAIL: sharded speedup "
            f"{'not measured (pass --shards N)' if shard_speedup is None else f'{shard_speedup:.2f}x'} "
            f"below required {args.min_shard_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

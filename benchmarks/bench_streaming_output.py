"""Streaming-query benchmark: the array Output pass at monitor cadence, against its scalar reference.

A seeded workload stream is fed in ``--update-chunk`` chunks and the engine
is queried after every chunk, as ``Session.watch`` does.  Both sides are
timed: the chunk feed (``update_batch``) and the query (``output``, one
array Output pass).  Query points are also answered through the scalar
reference :func:`~repro.core.output.lattice_output_reference` and compared
candidate for candidate: an answer that is not *bit-identical* fails the
run.  ``--smoke`` checks every point; the full setting checks a fixed
sample (the first point, every ``PARITY_STRIDE``-th and the last), because
the unindexed reference is quadratic in the number of selections.

Reported per engine:

* ms per query and ms per chunk feed, and their ratio (gated by
  ``--max-query-feed-ratio`` when given): what a query costs in units of
  the stream work between two queries;
* queries/sec of repeated queries over an unchanged engine (which must
  also be pinned identical).

Runs standalone (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_streaming_output.py
    PYTHONPATH=src python benchmarks/bench_streaming_output.py --smoke --json out.json

The default settings mirror the Figure 5 measurement point (sanjose14
workload, 2d-bytes hierarchy, 10-RHHH) run past its convergence bound
(~1.1M packet warmup: pre-convergence the sampling correction exceeds the
threshold, every tracked prefix is selected and the query cost says nothing
about the steady state), then queried every ``--update-chunk`` packets.
``--smoke`` shrinks the stream and drops to the 1-D hierarchy for CI.  Exit
status is non-zero if any parity check fails or a given gate is missed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import repro.core.rhhh
import repro.hhh.mst
import repro.hhh.sampled_mst
from repro.api.registry import build_algorithm, make_hierarchy
from repro.api.specs import AlgorithmSpec
from repro.core.output import lattice_output_reference
from repro.eval.reporting import format_table
from repro.traffic.caida_like import named_workload

ENGINES = ("rhhh", "mst", "sampled_mst")

#: Outside ``--smoke``, every PARITY_STRIDE-th query point (plus the first
#: and the last) is checked against the scalar reference.
PARITY_STRIDE = 100

#: The modules whose ``lattice_output`` the engines' queries call.
_QUERY_MODULES = (repro.core.rhhh, repro.hhh.mst, repro.hhh.sampled_mst)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--engines", nargs="+", default=["rhhh"], choices=ENGINES)
    parser.add_argument("--workload", default="sanjose14")
    parser.add_argument("--hierarchy", default="2d-bytes")
    parser.add_argument("--packets", type=int, default=1_108_000)
    parser.add_argument("--num-flows", type=int, default=10_000)
    parser.add_argument("--epsilon", type=float, default=0.003)
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--theta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--v-multiplier", type=int, default=10,
                        help="RHHH V = multiplier * H (10 reproduces 10-RHHH)")
    parser.add_argument("--update-chunk", type=int, default=16,
                        help="packets fed between query points (the monitor "
                        "cadence)")
    parser.add_argument("--warmup-packets", type=int, default=1_100_000,
                        help="stream prefix fed before the first query point "
                        "(pre-convergence queries select almost every "
                        "tracked prefix and would dominate the timing)")
    parser.add_argument("--max-query-feed-ratio", type=float, default=None,
                        help="fail (exit 1) if the mean query time exceeds this "
                        "many mean chunk-feed times for any engine")
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke preset: short stream, 1-D hierarchy, "
                        "parity on every point - fast")
    args = parser.parse_args(argv)
    if args.smoke:
        args.packets = min(args.packets, 120_000)
        args.num_flows = min(args.num_flows, 5_000)
        args.warmup_packets = min(args.warmup_packets, 40_000)
        args.epsilon = max(args.epsilon, 0.01)
        args.update_chunk = max(args.update_chunk, 8_192)
        args.hierarchy = "1d-bytes"
        args.engines = list(ENGINES)
    args.warmup_packets = min(args.warmup_packets, args.packets)
    return args


def _keys(args):
    generator = named_workload(args.workload, num_flows=args.num_flows)
    arr = generator.key_array(args.packets)
    if make_hierarchy(args.hierarchy).dimensions == 1:
        return arr[:, 0].copy()
    return arr


def _build(args, engine: str):
    spec = AlgorithmSpec(
        name=engine,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        v_multiplier=args.v_multiplier if engine == "rhhh" else None,
    )
    return build_algorithm(spec, make_hierarchy(args.hierarchy))


def _output_state(output):
    return (
        output.total,
        output.threshold,
        [
            (c.prefix, c.lower_bound, c.upper_bound, c.conditioned_estimate)
            for c in output.candidates
        ],
    )


def _reference_output(algorithm, theta: float):
    """``algorithm.output(theta)`` answered through the scalar reference pass."""
    saved = [module.lattice_output for module in _QUERY_MODULES]
    for module in _QUERY_MODULES:
        module.lattice_output = lattice_output_reference
    try:
        return algorithm.output(theta)
    finally:
        for module, original in zip(_QUERY_MODULES, saved):
            module.lattice_output = original


def run_engine(args, engine: str, keys) -> Dict[str, object]:
    """Interleave timed chunk feeds with timed queries; check parity on the sampled points."""
    algorithm = _build(args, engine)
    chunk = args.update_chunk
    warmup = args.warmup_packets
    # Large warmup chunks: the warmup only has to reach the steady state,
    # the monitor cadence starts at the first query point.
    for lo in range(0, warmup, 65_536):
        algorithm.update_batch(keys[lo : min(lo + 65_536, warmup)])

    starts = range(warmup, len(keys), chunk)
    stride = 1 if args.smoke else PARITY_STRIDE
    points = 0
    checked = 0
    mismatches = 0
    feed_seconds = 0.0
    query_seconds = 0.0
    for point, lo in enumerate(starts):
        started = time.perf_counter()
        algorithm.update_batch(keys[lo : lo + chunk])
        feed_seconds += time.perf_counter() - started
        started = time.perf_counter()
        output = algorithm.output(args.theta)
        query_seconds += time.perf_counter() - started
        points += 1
        if point % stride == 0 or point == len(starts) - 1:
            checked += 1
            if _output_state(output) != _output_state(_reference_output(algorithm, args.theta)):
                mismatches += 1
    # Repeated queries with no updates in between must be pinned identical.
    repeats = max(points, 1)
    baseline = _output_state(algorithm.output(args.theta))
    started = time.perf_counter()
    for _ in range(repeats):
        repeated = algorithm.output(args.theta)
    repeat_seconds = time.perf_counter() - started
    if _output_state(repeated) != baseline:
        mismatches += 1

    per_point = max(points, 1)
    return {
        "engine": engine,
        "query_points": points,
        "parity_points": checked,
        "parity_mismatches": mismatches,
        "query_ms": 1e3 * query_seconds / per_point,
        "feed_ms": 1e3 * feed_seconds / per_point,
        "query_feed_ratio": query_seconds / feed_seconds if feed_seconds else float("inf"),
        "repeat_qps": repeats / repeat_seconds if repeat_seconds else float("inf"),
        "candidates": len(repeated.candidates),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    keys = _keys(args)
    results: List[Dict[str, object]] = [
        run_engine(args, engine, keys) for engine in args.engines
    ]

    rows = [
        {
            "engine": result["engine"],
            "points": result["query_points"],
            "query ms": f"{result['query_ms']:.3f}",
            "feed ms": f"{result['feed_ms']:.3f}",
            "query/feed": f"{result['query_feed_ratio']:.1f}",
            "repeat q/s": f"{result['repeat_qps']:,.1f}",
            "HHHs": result["candidates"],
            "checked": result["parity_points"],
            "mismatch": result["parity_mismatches"],
        }
        for result in results
    ]
    print(format_table(
        rows,
        title=(
            f"streaming queries: {args.packets:,} packets ({args.hierarchy}), "
            f"query every {args.update_chunk:,} after {args.warmup_packets:,} warmup, "
            f"theta={args.theta:.0%}"
        ),
    ))

    failures: List[str] = []
    for result in results:
        if result["parity_mismatches"]:
            failures.append(
                f"{result['engine']}: {result['parity_mismatches']} array/reference "
                "parity mismatches"
            )
        if (
            args.max_query_feed_ratio is not None
            and result["query_feed_ratio"] > args.max_query_feed_ratio
        ):
            failures.append(
                f"{result['engine']}: query/feed ratio {result['query_feed_ratio']:.1f} > "
                f"gate {args.max_query_feed_ratio}"
            )

    if args.json:
        payload = {
            "config": {k: v for k, v in vars(args).items() if k != "json"},
            "engines": results,
            "failures": failures,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"wrote {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

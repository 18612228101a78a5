"""Distributed aggregation tier benchmark: many switches, one answer.

Simulates a cluster of ``--switches`` switch nodes (default 100), each
running its own per-switch engine over its hash-partition of a seeded Zipf
stream, shipping top-k-truncated delta-encoded counter summaries to one
aggregator every ``--epoch-batches`` batches.  One switch is killed
mid-stream (``--kill-switch``), so every reported number includes the
degraded path: quantified loss, widened bounds, a merge over the survivors.

Before timing anything the script verifies the tier end to end: over a
reliable loopback transport a small cluster must be *bit-identical* (same
``output(theta)`` candidates) to the serial sharded engine - the codec,
compression, delta and merge chain is refused if it is lossy.

Reported per seed, then aggregated via Student-t confidence intervals
(:func:`repro.eval.confidence.mean_confidence_interval`, the paper's own
reporting methodology):

* feed throughput (packets/s through the full tier);
* recall / precision of ``output(theta)`` against exact ground truth;
* coverage / accuracy violation ratios (the (epsilon, delta) gate);
* bound soundness violations (brackets that miss the exact count);
* per-switch shipped bytes (max / mean, snapshots vs deltas).

Runs standalone (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_distrib.py
    PYTHONPATH=src python benchmarks/bench_distrib.py --smoke --json out.json

Exit status is non-zero if the lockstep verification fails, if a gate is
given and missed (``--max-bytes-per-switch``, ``--min-recall-ci``,
``--min-precision-ci``, ``--max-violation-ratio``), or if the dead switch's
loss goes unreported.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.api.specs import AlgorithmSpec, DistribSpec, ExperimentSpec
from repro.core.faults import FaultEvent, FaultPlan
from repro.core.shard import ShardedHHH
from repro.distrib.cluster import DistributedCluster
from repro.eval.confidence import mean_confidence_interval
from repro.eval.ground_truth import GroundTruth
from repro.eval.metrics import evaluate_output
from repro.eval.reporting import format_table
from repro.traffic.zipf import ZipfFlowGenerator


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--switches", type=int, default=100)
    parser.add_argument("--packets", type=int, default=2_000_000)
    parser.add_argument("--num-flows", type=int, default=50_000)
    parser.add_argument("--skew", type=float, default=1.2)
    parser.add_argument("--seeds", type=int, default=3, help="independent Zipf seeds (Student-t over these)")
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--theta", type=float, default=0.05)
    parser.add_argument("--batch-size", type=int, default=32_768)
    parser.add_argument("--epoch-batches", type=int, default=4,
                        help="batches between counter-summary emissions")
    parser.add_argument("--top-k", type=int, default=32,
                        help="per-node entries shipped per emission (0 = uncompressed)")
    parser.add_argument("--no-delta", action="store_true",
                        help="ship full snapshots instead of deltas against the last acked epoch")
    parser.add_argument("--kill-switch", type=int, default=17,
                        help="switch killed mid-stream (-1 = nobody dies)")
    parser.add_argument("--kill-at-batch", type=int, default=8)
    parser.add_argument("--verify-packets", type=int, default=100_000,
                        help="stream prefix for the lockstep cluster-vs-serial check")
    parser.add_argument("--max-bytes-per-switch", type=int, default=None,
                        help="fail (exit 1) if any live switch ships more bytes than this")
    parser.add_argument("--min-recall-ci", type=float, default=None,
                        help="fail (exit 1) if the recall CI lower bound is below this")
    parser.add_argument("--min-precision-ci", type=float, default=None,
                        help="fail (exit 1) if the precision CI lower bound is below this")
    parser.add_argument("--max-violation-ratio", type=float, default=None,
                        help="fail (exit 1) if the mean coverage or accuracy violation "
                        "ratio exceeds this (the delta of the (epsilon, delta) gate)")
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke preset: ~300k packets, 100 switches, gates on - "
                        "exercises verification, faults, compression and the accuracy "
                        "gate fast")
    args = parser.parse_args(argv)
    if args.smoke:
        args.packets = min(args.packets, 300_000)
        args.num_flows = min(args.num_flows, 10_000)
        args.verify_packets = min(args.verify_packets, 60_000)
        if args.max_bytes_per_switch is None:
            args.max_bytes_per_switch = 200_000
        if args.min_recall_ci is None:
            args.min_recall_ci = 0.9
        if args.min_precision_ci is None:
            args.min_precision_ci = 0.3
        if args.max_violation_ratio is None:
            args.max_violation_ratio = args.delta
    args.verify_packets = min(args.verify_packets, args.packets)
    return args


def _keys(args, seed: int) -> np.ndarray:
    generator = ZipfFlowGenerator(num_flows=args.num_flows, skew=args.skew, seed=100 + seed)
    return np.ascontiguousarray(generator.key_array(args.packets)[:, 0])


def _spec(args, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        algorithm=AlgorithmSpec(name="rhhh", epsilon=args.epsilon, delta=args.delta, seed=seed),
        hierarchy="1d-bytes",
        batch_size=args.batch_size,
        distrib=DistribSpec(
            switches=args.switches,
            epoch_batches=args.epoch_batches,
            top_k=args.top_k or None,
            delta=not args.no_delta,
            byte_budget=args.max_bytes_per_switch,
        ),
    )


def _feed(cluster, keys, batch_size: int) -> float:
    started = time.perf_counter()
    for lo in range(0, len(keys), batch_size):
        cluster.update_batch(keys[lo : lo + batch_size])
    return time.perf_counter() - started


def verify_lockstep(args) -> bool:
    """The tier must be bit-identical to the serial sharded engine.

    Runs with top-k truncation off: truncation is *deliberately* lossy (its
    residual is folded into the error bracket, gated statistically below),
    while the codec / delta / merge chain must be exactly lossless - that is
    what this check pins.
    """
    keys = _keys(args, seed=0)[: args.verify_packets]
    spec = _spec(args, seed=0)
    spec = dataclasses.replace(
        spec,
        # epoch per batch so the check also covers the delta emission path
        distrib=dataclasses.replace(
            spec.distrib, top_k=None, byte_budget=None, epoch_batches=1
        ),
    )
    cluster = DistributedCluster(spec)
    reference = ShardedHHH(spec.algorithm, "1d-bytes", args.switches, parallel=False)
    for lo in range(0, len(keys), args.batch_size):
        cluster.update_batch(keys[lo : lo + args.batch_size])
        reference.update_batch(keys[lo : lo + args.batch_size])
    ours = cluster.output(args.theta).candidates
    theirs = reference.output(args.theta).candidates
    deltas = cluster.aggregator.deltas_applied
    print(
        f"lockstep verify: cluster == serial sharded engine over "
        f"{len(keys):,} packets: {ours == theirs} "
        f"({len(ours)} candidates, {deltas} deltas applied)"
    )
    return ours == theirs and len(ours) > 0


def run_seed(args, seed: int) -> Dict[str, object]:
    keys = _keys(args, seed)
    plan = None
    if args.kill_switch >= 0:
        plan = FaultPlan([FaultEvent("kill", args.kill_at_batch, shard=args.kill_switch)])
    cluster = DistributedCluster(_spec(args, seed), fault_plan=plan)
    elapsed = _feed(cluster, keys, args.batch_size)
    output = cluster.output(args.theta)
    truth = GroundTruth(cluster.hierarchy, keys.tolist())
    report = evaluate_output(output, truth, epsilon=args.epsilon, theta=args.theta)

    violations = 0
    for candidate in output.candidates:
        exact = truth.frequency(candidate.prefix.key())
        if not candidate.lower_bound <= exact <= candidate.upper_bound:
            violations += 1
    bandwidth = cluster.bandwidth_report()
    lost = {loss.shard: loss.lost_packets for loss in output.failed_shards}
    live_bytes = [
        row["bytes"] for row in bandwidth["per_switch"] if row["switch"] != args.kill_switch
    ]
    return {
        "seed": seed,
        "packets": len(keys),
        "seconds": elapsed,
        "packets_per_second": len(keys) / elapsed,
        "candidates": len(output.candidates),
        "recall": report.recall,
        "precision": report.precision,
        "coverage_violation_ratio": report.coverage_error_ratio,
        "accuracy_violation_ratio": report.accuracy_error_ratio,
        "bound_violations": violations,
        "dead_switches": cluster.dead_switches,
        "quantified_loss": lost,
        "epochs": bandwidth["epochs"],
        "max_live_switch_bytes": max(live_bytes),
        "mean_live_switch_bytes": sum(live_bytes) / len(live_bytes),
        "snapshots": sum(row["snapshots"] for row in bandwidth["per_switch"]),
        "deltas": sum(row["deltas"] for row in bandwidth["per_switch"]),
        "over_budget": bandwidth["over_budget"],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not verify_lockstep(args):
        print("FAIL: distributed tier is not lockstep with the serial engine", file=sys.stderr)
        return 1

    results: List[Dict[str, object]] = [run_seed(args, seed) for seed in range(args.seeds)]

    rows = [
        {
            "seed": result["seed"],
            "pkts/s": f"{result['packets_per_second']:,.0f}",
            "recall": f"{result['recall']:.3f}",
            "precision": f"{result['precision']:.3f}",
            "cov-viol": f"{result['coverage_violation_ratio']:.3f}",
            "acc-viol": f"{result['accuracy_violation_ratio']:.3f}",
            "bound-viol": result["bound_violations"],
            "max-bytes": f"{result['max_live_switch_bytes']:,}",
            "snapshots": result["snapshots"],
            "deltas": result["deltas"],
        }
        for result in results
    ]
    print()
    print(format_table(rows, title=f"{args.switches} switches, one killed, top_k={args.top_k}"))

    recall_mean, recall_half = mean_confidence_interval([r["recall"] for r in results])
    precision_mean, precision_half = mean_confidence_interval([r["precision"] for r in results])
    mean_coverage = sum(r["coverage_violation_ratio"] for r in results) / len(results)
    mean_accuracy = sum(r["accuracy_violation_ratio"] for r in results) / len(results)
    max_bytes = max(r["max_live_switch_bytes"] for r in results)
    print()
    print(f"recall CI:    {recall_mean:.3f} +/- {recall_half:.3f}")
    print(f"precision CI: {precision_mean:.3f} +/- {precision_half:.3f}")
    print(f"mean violation ratios: coverage {mean_coverage:.3f}, accuracy {mean_accuracy:.3f}")
    print(f"max live-switch shipped bytes: {max_bytes:,}")
    if args.kill_switch >= 0:
        for result in results:
            loss = result["quantified_loss"].get(args.kill_switch, 0)
            print(f"seed {result['seed']}: switch {args.kill_switch} lost {loss:,} packets (quantified)")

    failures: List[str] = []
    if args.kill_switch >= 0:
        for result in results:
            if result["dead_switches"] != [args.kill_switch]:
                failures.append(f"seed {result['seed']}: dead switches {result['dead_switches']}")
            if result["quantified_loss"].get(args.kill_switch, 0) <= 0:
                failures.append(f"seed {result['seed']}: dead switch's loss not quantified")
    if args.max_bytes_per_switch is not None and max_bytes > args.max_bytes_per_switch:
        failures.append(
            f"bandwidth gate: {max_bytes:,} bytes > budget {args.max_bytes_per_switch:,}"
        )
    if args.min_recall_ci is not None and recall_mean - recall_half < args.min_recall_ci:
        failures.append(f"recall gate: CI low {recall_mean - recall_half:.3f} < {args.min_recall_ci}")
    if args.min_precision_ci is not None and precision_mean - precision_half < args.min_precision_ci:
        failures.append(
            f"precision gate: CI low {precision_mean - precision_half:.3f} < {args.min_precision_ci}"
        )
    if args.max_violation_ratio is not None and (
        mean_coverage > args.max_violation_ratio or mean_accuracy > args.max_violation_ratio
    ):
        failures.append(
            f"violation gate: coverage {mean_coverage:.3f} / accuracy {mean_accuracy:.3f} "
            f"> {args.max_violation_ratio}"
        )

    if args.json:
        payload = {
            "config": {k: v for k, v in vars(args).items() if k != "json"},
            "seeds": results,
            "recall_ci": [recall_mean, recall_half],
            "precision_ci": [precision_mean, precision_half],
            "max_live_switch_bytes": max_bytes,
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

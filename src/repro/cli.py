"""Command-line interface of the reproduction.

Five sub-commands cover the common workflows without writing any Python:

``detect``
    run one HHH algorithm over a synthetic workload (or a serialized trace)
    and print the detected prefixes; ``--print-spec`` emits the equivalent
    JSON :class:`~repro.api.specs.ExperimentSpec` instead of running;

``run``
    execute a JSON experiment spec (the declarative twin of ``detect``);
    ``--trace``/``--ingest`` override the spec's trace replay settings;

``compare``
    run several algorithms over the same stream and print speed + quality
    against the exact ground truth;

``figure``
    regenerate one of the paper's figures and print its table;

``trace``
    manage serialized traces: ``generate`` a v2 columnar trace from a named
    workload, ``convert`` between csv/v1/v2, ``inspect`` a file's layout;

``distrib``
    simulate the distributed aggregation tier: the stream partitioned across
    N switch nodes shipping compressed counter state to one aggregator, with
    the global HHH prefixes and a per-switch bandwidth table printed.

Examples::

    python -m repro.cli detect --workload chicago16 --packets 200000 --theta 0.05
    python -m repro.cli distrib --switches 16 --packets 500000 --batch-size 8192 --top-k 64
    python -m repro.cli detect --print-spec > experiment.json
    python -m repro.cli run --spec experiment.json
    python -m repro.cli run --spec experiment.json --watch 4
    python -m repro.cli compare --algorithms rhhh mst --packets 50000
    python -m repro.cli figure --name fig6
    python -m repro.cli trace generate trace.v2 --workload sanjose14 --packets 500000
    python -m repro.cli trace convert old_trace.bin trace.v2
    python -m repro.cli detect --trace trace.v2 --batch-size 65536 --ingest 4

The CLI is a thin veneer over :mod:`repro.api`: algorithm and hierarchy
choices come from the plugin registries, and every execution path goes
through :class:`~repro.api.session.Session`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.api.registry import algorithm_names, counter_names, hierarchy_names, make_hierarchy
from repro.api.session import Session, SessionResult
from repro.api.specs import AlgorithmSpec, CounterSpec, DistribSpec, ExperimentSpec
from repro.core.base import HHHAlgorithm
from repro.core.faults import FaultPlan
from repro.eval import figures as figure_module
from repro.eval.ground_truth import GroundTruth
from repro.eval.metrics import evaluate_output
from repro.eval.reporting import format_table
from repro.exceptions import ReproError
from repro.traffic.caida_like import WORKLOADS, named_workload
from repro.traffic.trace_io import (
    DEFAULT_TRACE_CHUNK,
    TraceV2Writer,
    inspect_trace,
    read_trace_binary,
    read_trace_csv,
    trace_version,
    write_trace_binary,
    write_trace_csv,
    write_trace_v2,
)

#: Hierarchy constructors, keyed by registry name (kept as a dict for
#: backwards compatibility; the source of truth is the repro.api registry).
HIERARCHIES = {name: functools.partial(make_hierarchy, name) for name in hierarchy_names()}

FIGURES = {
    "fig2": figure_module.figure2_accuracy_error,
    "fig3": figure_module.figure3_coverage_error,
    "fig4": figure_module.figure4_false_positives,
    "fig5": figure_module.figure5_update_speed,
    "fig6": figure_module.figure6_ovs_dataplane,
    "fig7": figure_module.figure7_dataplane_v_sweep,
    "fig8": figure_module.figure8_distributed_v_sweep,
    "convergence": figure_module.convergence_study,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    detect = subparsers.add_parser("detect", help="run one algorithm and print the HHH prefixes")
    _add_stream_arguments(detect)
    detect.add_argument("--algorithm", default="rhhh", choices=algorithm_names())
    detect.add_argument("--theta", type=float, default=0.05, help="HHH threshold fraction")
    detect.add_argument(
        "--print-spec",
        action="store_true",
        help="print the equivalent JSON ExperimentSpec instead of running",
    )

    run = subparsers.add_parser("run", help="execute a JSON experiment spec")
    run.add_argument("--spec", default=None, help="path to an ExperimentSpec JSON file ('-' for stdin)")
    run.add_argument(
        "--resume",
        default=None,
        metavar="CHECKPOINT",
        help="resume a run from a session checkpoint file instead of starting "
        "from a spec (mutually exclusive with --spec; the spec is restored "
        "from the checkpoint)",
    )
    run.add_argument("--theta", type=float, default=None, help="override the spec's theta")
    run.add_argument("--trace", default=None, help="override the spec's trace file")
    run.add_argument(
        "--ingest",
        type=int,
        default=None,
        help="override the spec's ingest ring depth (overlap trace reading "
        "with the batch engine)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="override the spec's checkpoint cadence: write a session "
        "checkpoint roughly every this many fed packets (requires "
        "--checkpoint-path or a spec-level checkpoint path)",
    )
    run.add_argument(
        "--checkpoint-path",
        default=None,
        help="override the file the periodic session checkpoint is "
        "(atomically) written to; resume with `repro run --resume PATH`",
    )
    run.add_argument(
        "--watch",
        type=int,
        default=None,
        metavar="N",
        help="stream the run and print an intermediate HHH report line every "
        "N fed chunks (batch_size packets each; progress_chunk on the "
        "per-packet path) before the final table - each report is one "
        "array Output pass",
    )

    compare = subparsers.add_parser("compare", help="compare several algorithms on the same stream")
    _add_stream_arguments(compare)
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["rhhh", "10-rhhh", "mst", "partial_ancestry"],
        choices=algorithm_names(),
    )
    compare.add_argument("--theta", type=float, default=0.05, help="HHH threshold fraction")

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("--name", required=True, choices=sorted(FIGURES))

    trace = subparsers.add_parser("trace", help="generate, convert and inspect serialized traces")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    generate = trace_commands.add_parser(
        "generate", help="draw a named workload once and save it as a trace"
    )
    generate.add_argument("output", help="trace file to write")
    generate.add_argument("--workload", default="chicago16", choices=sorted(WORKLOADS))
    generate.add_argument("--packets", type=int, default=500_000)
    generate.add_argument("--num-flows", type=int, default=None)
    generate.add_argument(
        "--format", default="v2", choices=("v2", "v1", "csv"), help="output format (default: v2 columnar)"
    )
    generate.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_TRACE_CHUNK,
        help="packets per v2 chunk (v2 only)",
    )

    convert = trace_commands.add_parser(
        "convert", help="convert a trace between csv, v1 rows and v2 columnar"
    )
    convert.add_argument("input", help="source trace (csv or binary; format auto-detected)")
    convert.add_argument("output", help="destination trace file")
    convert.add_argument(
        "--format", default="v2", choices=("v2", "v1", "csv"), help="output format (default: v2 columnar)"
    )
    convert.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_TRACE_CHUNK,
        help="packets per v2 chunk (v2 only)",
    )

    inspect = trace_commands.add_parser("inspect", help="print a binary trace's layout summary")
    inspect.add_argument("path", help="trace file to inspect")

    distrib = subparsers.add_parser(
        "distrib", help="simulate the many-switch aggregation tier over one stream"
    )
    _add_stream_arguments(distrib)
    distrib.add_argument("--algorithm", default="rhhh", choices=algorithm_names())
    distrib.add_argument("--theta", type=float, default=0.05, help="HHH threshold fraction")
    distrib.add_argument("--switches", type=int, default=4, help="number of simulated switches")
    distrib.add_argument(
        "--epoch-batches",
        type=int,
        default=1,
        help="emit one wire message per switch every this many batches",
    )
    distrib.add_argument(
        "--top-k",
        type=int,
        default=None,
        help="ship only the top-k entries per lattice node (lossy, "
        "error-bounded; default: lossless)",
    )
    distrib.add_argument(
        "--no-delta",
        action="store_true",
        help="always ship full snapshots instead of deltas against the last "
        "acked epoch",
    )
    distrib.add_argument(
        "--transport",
        default="loopback",
        choices=("loopback", "simulated"),
        help="loopback is reliable/ordered; simulated adds seeded loss, "
        "delay and reordering driven by --drops/--net-delays/--reorders",
    )
    distrib.add_argument(
        "--byte-budget",
        type=int,
        default=None,
        help="per-switch shipped-bytes budget flagged in the bandwidth report",
    )
    distrib.add_argument(
        "--drops", type=int, default=0, help="messages dropped by the simulated transport"
    )
    distrib.add_argument(
        "--net-delays", type=int, default=0, help="messages delayed by the simulated transport"
    )
    distrib.add_argument(
        "--reorders", type=int, default=0, help="messages reordered by the simulated transport"
    )

    return parser


def _add_stream_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="chicago16", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", help="read packets from a binary trace instead of a synthetic workload")
    parser.add_argument(
        "--ingest",
        type=int,
        default=None,
        help="ring-buffer depth overlapping trace reading with the batch "
        "engine (requires --trace and --batch-size; default: inline feed)",
    )
    parser.add_argument("--packets", type=int, default=100_000)
    parser.add_argument("--hierarchy", default="2d-bytes", choices=hierarchy_names())
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="feed the stream through update_batch in chunks of this size "
        "(default: per-packet updates)",
    )
    parser.add_argument(
        "--counter",
        default=None,
        choices=counter_names(),
        help="per-node counter backend (default: the algorithm's own, "
        "array_space_saving; use space_saving for the paper's O(1) "
        "per-packet structure)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="hash-partition the stream across this many parallel worker "
        "shards and merge their counter summaries at output time "
        "(default: unsharded)",
    )
    parser.add_argument(
        "--shard-policy",
        default="fail",
        choices=("fail", "restart", "degrade"),
        help="supervision policy when a shard worker crashes or hangs: fail "
        "(raise), restart (respawn from its last checkpoint and replay - "
        "bit-identical recovery), degrade (continue with survivors and "
        "widen the error bounds)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for a shard worker's reply before declaring "
        "it hung (default: 30)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="write a session checkpoint roughly every this many fed packets "
        "(requires --checkpoint-path)",
    )
    parser.add_argument(
        "--checkpoint-path",
        default=None,
        help="file the periodic session checkpoint is (atomically) written to; "
        "resume with `repro run --resume PATH`",
    )


def _spec_from_args(args: argparse.Namespace, algorithm: str, theta: float) -> ExperimentSpec:
    """Translate stream arguments into a declarative ExperimentSpec."""
    _check_batch_size(args.batch_size)
    counter = CounterSpec(name=args.counter) if getattr(args, "counter", None) else None
    try:
        return ExperimentSpec(
            algorithm=AlgorithmSpec(
                name=algorithm,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=args.seed,
                counter=counter,
            ),
            hierarchy=args.hierarchy,
            workload=args.workload,
            trace=args.trace,
            ingest=args.ingest,
            packets=args.packets,
            theta=theta,
            batch_size=args.batch_size,
            shards=args.shards,
            shard_policy=getattr(args, "shard_policy", "fail"),
            shard_timeout=getattr(args, "shard_timeout", 30.0),
            checkpoint_every=getattr(args, "checkpoint_every", None),
            checkpoint_path=getattr(args, "checkpoint_path", None),
        )
    except ReproError as exc:
        raise SystemExit(str(exc)) from None


def _check_batch_size(batch_size) -> None:
    """Exit with a clean message on a non-positive --batch-size."""
    if batch_size is not None and batch_size < 1:
        raise SystemExit(f"--batch-size must be >= 1, got {batch_size}")


def _print_detection(result: SessionResult, *, algorithm: str, hierarchy: str, theta: float) -> None:
    rows = [
        {
            "prefix": candidate.prefix.text,
            "lower": candidate.lower_bound,
            "upper": candidate.upper_bound,
        }
        for candidate in result.output
    ]
    print(
        format_table(
            rows,
            title=(
                f"{algorithm} on {result.packets:,} packets "
                f"({hierarchy}, theta={theta:.2%}): {len(rows)} HHH prefixes"
            ),
            float_format="{:,.0f}",
        )
    )


def _command_detect(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, args.algorithm, args.theta)
    if args.print_spec:
        # Specs carry trace paths since the trace/ingest fields landed, so
        # --print-spec round-trips --trace runs too.
        print(spec.to_json())
        return 0
    with Session(spec) as session:
        result = session.run()
    _print_detection(result, algorithm=spec.algorithm.name, hierarchy=spec.hierarchy, theta=spec.theta)
    return 0


def _watch_session(session: Session, theta: Optional[float], every: int) -> SessionResult:
    """Drain :meth:`Session.watch`, printing one report line per cadence point.

    Returns a :class:`SessionResult` built from the final report (the last
    watch output equals what ``run()`` would have returned), so the caller
    prints the same final table either way.
    """
    start = time.perf_counter()
    last = None
    for output in session.watch(theta, every=every):
        last = output
        print(
            f"watch @ {session.stream_position:>12,} pkts: "
            f"{len(output.candidates):>4} HHH prefixes "
            f"(threshold {output.threshold:,.0f})"
        )
    return SessionResult(
        spec=session.spec,
        output=last,
        packets=session.stream_position,
        seconds=time.perf_counter() - start,
        measurements=[],
    )


def _command_run(args: argparse.Namespace) -> int:
    if (args.spec is None) == (args.resume is None):
        print("error: pass exactly one of --spec or --resume", file=sys.stderr)
        return 1
    try:
        if args.resume is not None:
            if args.trace is not None or args.ingest is not None:
                print(
                    "error: --trace/--ingest overrides do not apply to --resume "
                    "(the checkpointed spec must replay the original stream)",
                    file=sys.stderr,
                )
                return 1
            if args.checkpoint_every is not None or args.checkpoint_path is not None:
                print(
                    "error: --checkpoint-every/--checkpoint-path overrides do "
                    "not apply to --resume (the resumed session keeps the "
                    "checkpointed cadence and path)",
                    file=sys.stderr,
                )
                return 1
            with Session.resume(args.resume) as session:
                spec = session.spec
                if args.watch is not None:
                    result = _watch_session(session, args.theta, args.watch)
                else:
                    result = session.run(theta=args.theta)
        else:
            if args.spec == "-":
                text = sys.stdin.read()
            else:
                with open(args.spec) as handle:
                    text = handle.read()
            spec = ExperimentSpec.from_json(text)
            overrides = {
                "trace": args.trace,
                "ingest": args.ingest,
                "checkpoint_every": args.checkpoint_every,
                "checkpoint_path": args.checkpoint_path,
            }
            applied = {key: value for key, value in overrides.items() if value is not None}
            if applied:
                spec = dataclasses.replace(spec, **applied)
            with Session(spec) as session:
                if args.watch is not None:
                    result = _watch_session(session, args.theta, args.watch)
                else:
                    result = session.run(theta=args.theta)
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_detection(
        result,
        algorithm=spec.algorithm.name,
        hierarchy=spec.hierarchy,
        theta=args.theta if args.theta is not None else spec.theta,
    )
    print(
        f"\n{result.packets:,} packets in {result.seconds:.2f}s "
        f"({result.packets_per_second / 1e3:,.0f} kpps)"
        + (f"  [{spec.label}]" if spec.label else "")
    )
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    _check_batch_size(args.batch_size)
    if args.ingest is not None:
        # compare materialises the stream once and shares it across the
        # algorithms (same packets for a fair comparison), so there is no
        # streaming feed to overlap; accepting the flag would silently
        # report non-overlapped numbers as overlapped.
        raise SystemExit(
            "--ingest does not apply to compare (the stream is materialised "
            "once and shared); use detect or run for overlapped trace replay"
        )
    hierarchy = make_hierarchy(args.hierarchy)
    rows = []
    truth: Optional[GroundTruth] = None
    keys = None  # materialised by the first session (trace- and spec-aware)
    packets = 0
    for name in args.algorithms:
        spec = _spec_from_args(args, name, args.theta)
        # Materialise the stream once (the first session draws it) and share
        # it: every algorithm must see the same packets anyway, and workload
        # generation is far from free.
        try:
            session = Session(spec, hierarchy=hierarchy, keys=keys)
        except ReproError as exc:
            # e.g. --shards with an algorithm that has no counter lattice
            # (the ancestry baselines): report and keep the other rows.
            print(f"skipping {name}: {exc}", file=sys.stderr)
            continue
        with session:
            keys = session.keys()
            packets = len(keys)
            if truth is None:
                truth = GroundTruth(hierarchy, list(HHHAlgorithm._iter_batch_keys(keys)))
            speed = session.measure_speed()
            report = evaluate_output(
                session.output(args.theta), truth, epsilon=args.epsilon, theta=args.theta
            )
        rows.append(
            {
                "algorithm": name,
                "kpps": speed.packets_per_second / 1e3,
                "reported": report.reported,
                "precision": report.precision,
                "recall": report.recall,
                "false_positive_ratio": report.false_positive_ratio,
            }
        )
    print(format_table(rows, title=f"{packets:,} packets, {args.hierarchy}, theta={args.theta:.2%}"))
    return 0


def _command_distrib(args: argparse.Namespace) -> int:
    if args.batch_size is None:
        args.batch_size = 8192  # the tier is batch-first; give it a sane default
    base = _spec_from_args(args, args.algorithm, args.theta)
    try:
        spec = dataclasses.replace(
            base,
            shards=None,
            distrib=DistribSpec(
                switches=args.switches,
                epoch_batches=args.epoch_batches,
                top_k=args.top_k,
                delta=not args.no_delta,
                transport=args.transport,
                byte_budget=args.byte_budget,
            ),
        )
    except ReproError as exc:
        raise SystemExit(str(exc)) from None
    fault_plan = None
    faults = args.drops + args.net_delays + args.reorders
    if faults:
        if args.transport != "simulated":
            raise SystemExit(
                "--drops/--net-delays/--reorders need --transport simulated "
                "(loopback never loses messages)"
            )
        # Roughly one message per switch per epoch over the whole run.
        messages = max(faults, (spec.packets // (args.batch_size * args.epoch_batches)) + 1)
        fault_plan = FaultPlan.random_network(
            args.seed,
            messages=messages,
            switches=args.switches,
            drops=args.drops,
            delays=args.net_delays,
            reorders=args.reorders,
        )
    try:
        with Session(spec, fault_plan=fault_plan) as session:
            result = session.run()
            cluster = session.algorithm
            report = cluster.bandwidth_report()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_detection(
        result, algorithm=spec.algorithm.name, hierarchy=spec.hierarchy, theta=spec.theta
    )
    if result.output.failed_shards:
        print("\nquantified loss:")
        for loss in result.output.failed_shards:
            print(f"  switch {loss.shard}: {loss.lost_packets:,} packets ({loss.reason})")
    rows = [
        {
            "switch": entry["switch"],
            "messages": entry["messages"],
            "bytes": entry["bytes"],
            "bytes_per_epoch": entry["bytes_per_epoch"],
            "snapshots": entry["snapshots"],
            "deltas": entry["deltas"],
            "dropped": entry["dropped"],
        }
        for entry in report["per_switch"]
    ]
    budget = report["budget_per_switch"]
    print(
        "\n"
        + format_table(
            rows,
            title=(
                f"bandwidth: {report['total_bytes']:,} bytes total over "
                f"{report['epochs']} epochs, max switch "
                f"{report['max_switch_bytes']:,} bytes"
                + (f" (budget {budget:,})" if budget is not None else "")
            ),
            float_format="{:,.0f}",
        )
    )
    if report["over_budget"]:
        print(f"over budget: switches {report['over_budget']}", file=sys.stderr)
        return 1
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    result = FIGURES[args.name]()
    print(result.table())
    if result.notes:
        print(f"\nNotes: {result.notes}")
    return 0


def _write_packets(path: str, packets, fmt: str, chunk_size: int) -> int:
    """Write a packet iterable in the requested trace format."""
    if fmt == "v2":
        return write_trace_v2(path, packets, chunk_size=chunk_size)
    if fmt == "v1":
        return write_trace_binary(path, packets)
    return write_trace_csv(path, packets)


def _command_trace(args: argparse.Namespace) -> int:
    try:
        if args.trace_command == "generate":
            generator = named_workload(args.workload, num_flows=args.num_flows)
            if args.format == "v2":
                # Vectorized route: the key-array emitter feeds whole columnar
                # chunks, never materialising per-packet objects.
                with TraceV2Writer(args.output, chunk_size=args.chunk_size) as writer:
                    count = writer.key_batches_from(
                        generator.key_batches(args.packets, args.chunk_size)
                    )
            else:
                count = _write_packets(
                    args.output, generator.packets(args.packets), args.format, args.chunk_size
                )
            print(f"wrote {count:,} packets ({args.workload}, {args.format}) to {args.output}")
            return 0
        if args.trace_command == "convert":
            if Path(args.input).resolve() == Path(args.output).resolve():
                # The reader memory-maps the input while the writer would
                # truncate it: in-place conversion destroys the trace.
                print("error: input and output are the same file; convert to a new path",
                      file=sys.stderr)
                return 1
            try:
                trace_version(args.input)
                is_binary = True
            except ReproError:
                is_binary = False  # no RHHH magic: try CSV below
            if is_binary:
                # A recognized binary trace that fails to read (truncation,
                # corruption) must surface its real error, not be re-parsed
                # as CSV.
                packets = read_trace_binary(args.input)
            else:
                packets = iter(read_trace_csv(args.input))
            count = _write_packets(args.output, packets, args.format, args.chunk_size)
            print(f"converted {count:,} packets to {args.format}: {args.output}")
            return 0
        summary = inspect_trace(args.path)
        for key, value in summary.items():
            if key == "chunk_packets":
                preview = ", ".join(str(v) for v in value[:8])
                more = f", ... ({len(value)} chunks)" if len(value) > 8 else ""
                print(f"{key:>17}: [{preview}{more}]")
            elif isinstance(value, float):
                print(f"{key:>17}: {value:.2f}")
            else:
                print(f"{key:>17}: {value}")
        return 0
    except UnicodeDecodeError:
        print("error: input is neither a binary trace nor CSV text", file=sys.stderr)
        return 1
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "detect":
        return _command_detect(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "figure":
        return _command_figure(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "distrib":
        return _command_distrib(args)
    return 2  # unreachable: argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())

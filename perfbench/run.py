"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload backbone --seed 1 --seconds 20 --trace 0

Prints a table of every metric (name, value, unit, sample count), then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  Runtime files
(the replayed trace, the recorded spans) go to ``.perfbench/`` under the
repository root.  Exits 2 when the program's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from multiprocessing import resource_tracker
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"

WORKER_NOTE = (
    "note: on ddos-monitor the draw, aggregation and counter layers run inside the "
    "shard workers; the traced parent sees them only as ipc.ack_wait_s"
)


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (keys only)")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    return parser.parse_args(argv)


def _print_table(title: str, metrics) -> None:
    print(title)
    print(f"  {'metric':<26} {'value':>16} {'unit':<6} samples")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric.value:>16.6g} {metric.unit:<6} {metric.samples}")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from harness import end_to_end_metrics, layer_metrics, run_workload
    from workloads import WORKLOADS_BY_NAME

    args = _parse_args(argv, sorted(WORKLOADS_BY_NAME))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS_BY_NAME[args.workload]
    result = run_workload(
        workload, args.seed, args.seconds, trace=bool(args.trace), work_dir=WORK_DIR
    )
    traced = sum(p.traced for p in result.passes)
    print(
        f"workload {workload.name} seed {args.seed}: {len(result.passes)} passes "
        f"({traced} traced) of {workload.packets} packets in {workload.chunks} chunks; "
        f"{workload.why}"
    )
    end_to_end = end_to_end_metrics(result)
    _print_table("end-to-end (untraced passes)", end_to_end)
    if args.trace:
        layers = layer_metrics(result)
        _print_table("per layer (traced passes; seconds are per pass)", layers)
        if workload.shards:
            print(WORKER_NOTE)
        for missing in result.tracer.missing:
            print(f"note: entry point {missing} not found; its layer records nothing")
        print(f"spans written to {WORK_DIR.relative_to(ROOT)}/spans-{workload.name}-{args.seed}.json")
    print(f"correct: {result.correct} (reports identical across passes: {result.consistent})")
    for error in result.errors[:20]:
        print(f"failure: {error}")
    reported = layers if args.trace else end_to_end
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": reported[name].value, "unit": reported[name].unit}
                    for name in names
                },
            }
        )
    )
    return 0


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Each pass closes its shard workers with its ``Session``; a worker a
    failed pass left behind is terminated here.  Spawning workers also
    starts multiprocessing's resource tracker, which would otherwise outlive
    this process; it ends once every holder of its pipe has exited.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)

"""Closed-loop passes over one workload, and the metrics they yield.

A *pass* builds a fresh :class:`repro.api.Session`, feeds the workload's
keys chunk by chunk (the next chunk only after the previous one returned)
and takes its reports.  A run repeats passes until ``--seconds`` have gone
by and, untraced, until it holds enough chunk samples for the p90.  Every
pass feeds the same keys with the same algorithm seed, so every pass must
return the same final report; the first one is scored against the exact
oracle after the last pass, outside every timed region.
"""

from __future__ import annotations

import gc
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from oracle import evaluate, exact_oracle, report_problems, report_signature
from tracing import Tracer
from workloads import EPSILON, HIERARCHY, THETA, Workload, write_trace

from repro.api import Session
from repro.api.registry import make_hierarchy
from repro.core.base import HHHOutput
from repro.eval.metrics import EvaluationReport

#: A chunk or query that takes longer than this counts as failed.
OP_TIMEOUT_S = 60.0
#: Chunk samples an untraced run collects at least: ten beyond its p90.
MIN_CHUNKS = 100


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class PassRecord:
    """What one pass measured."""

    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    packets: int = 0
    chunk_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    final: Optional[HHHOutput] = None
    counter_updates: int = 0
    state_counters: int = 0

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(why)

    def check_report(self, output: HHHOutput, packets_fed: int) -> None:
        """Count one query; it fails on a wrong total or inverted bounds."""
        self.attempted += 1
        problems = report_problems(output, packets_fed)
        if problems:
            self.failed += 1
            self.errors.extend(problems)


def _reports(session: Session, workload: Workload) -> Iterator[HHHOutput]:
    if workload.watch_every is not None:
        yield from session.watch(every=workload.watch_every)
    else:
        yield session.run().output


def run_pass(workload: Workload, spec, keys: np.ndarray, tracer: Optional[Tracer]) -> PassRecord:
    """One closed-loop pass; traced when ``tracer`` is given."""
    record = PassRecord(traced=tracer is not None)
    begin = time.perf_counter()
    try:
        session = Session(spec, keys=None if workload.trace else keys)
    except Exception as exc:
        record.fail(f"setup: {exc!r}")
        return record
    record.setup_s = time.perf_counter() - begin
    stamps: List[float] = []
    fed: List[int] = []

    def on_chunk(_session, processed: int, _total: int) -> None:
        stamps.append(time.perf_counter())
        fed.append(processed)

    session.add_progress_hook(on_chunk)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for output in _reports(session, workload):
            record.query_s.append(time.perf_counter() - stamps[-1])
            record.check_report(output, fed[-1])
            record.final = output
        record.wall_s = time.perf_counter() - start
        record.counter_updates = int(getattr(session.algorithm, "counter_updates", 0))
        record.state_counters = int(session.algorithm.counters())
    except Exception as exc:
        record.fail(f"chunk or query after {len(stamps)} chunks: {exc!r}")
    finally:
        if tracer is not None:
            tracer.restore()
        try:
            session.close()
        except Exception as exc:
            record.fail(f"close: {exc!r}")
    record.chunk_s = np.diff([start, *stamps]).tolist()
    record.attempted += len(stamps)
    slow = [t for t in record.chunk_s + record.query_s if t > OP_TIMEOUT_S]
    for duration in slow:
        record.failed += 1
        record.errors.append(f"operation took {duration:.1f}s > {OP_TIMEOUT_S:.0f}s")
    record.packets = fed[-1] if fed else 0
    if record.wall_s and record.packets != workload.packets:
        record.failed += 1
        record.errors.append(f"fed {record.packets} of {workload.packets} packets")
    return record


@dataclass
class RunResult:
    workload: Workload
    seed: int
    passes: List[PassRecord]
    tracer: Optional[Tracer]
    peak_rss_mb: float
    evaluation: Optional[EvaluationReport]
    consistent: bool

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    @property
    def errors(self) -> List[str]:
        return [error for p in self.passes for error in p.errors]

    @property
    def correct(self) -> bool:
        return (
            self.failed == 0
            and self.consistent
            and self.evaluation is not None
            and self.evaluation.coverage_error_ratio == 0
        )


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest reaped child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def run_workload(
    workload: Workload, seed: int, seconds: float, *, trace: bool, work_dir: Path
) -> RunResult:
    """Repeat passes for ``seconds``, then score the reports against the oracle.

    Untraced runs keep going past ``seconds`` until they hold
    :data:`MIN_CHUNKS` chunk samples.  Traced runs alternate untraced
    and traced passes (at least one of each), so the tracing overhead comes
    from the same run.  No run goes on past three times ``seconds``.
    """
    keys = workload.keys(seed)
    trace_path = None
    if workload.trace:
        work_dir.mkdir(parents=True, exist_ok=True)
        trace_path = work_dir / f"{workload.name}-{seed}.v2trace"
        write_trace(keys, trace_path)
    tracer = Tracer() if trace else None
    passes: List[PassRecord] = []
    try:
        spec = workload.spec(trace_path)
        begin = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            # The previous pass's engine is garbage now; collect it outside
            # the timed region so no pass pays for its predecessor.
            gc.collect()
            passes.append(run_pass(workload, spec, keys, tracer if traced else None))
            elapsed = time.perf_counter() - begin
            if elapsed >= 3 * seconds:
                break
            if elapsed < seconds:
                continue
            if trace:
                if any(p.traced for p in passes) and any(not p.traced for p in passes):
                    break
            elif sum(len(p.chunk_s) for p in passes) >= MIN_CHUNKS:
                break
    finally:
        if trace_path is not None:
            trace_path.unlink(missing_ok=True)
    rss = peak_rss_mb(workload.shards or 0)
    finals = [p.final for p in passes if p.final is not None]
    evaluation = None
    if finals:
        truth = exact_oracle(make_hierarchy(HIERARCHY), keys, all_distinct=workload.distinct_keys)
        evaluation = evaluate(finals[0], truth, epsilon=EPSILON, theta=THETA)
    consistent = bool(finals) and len({report_signature(f) for f in finals}) == 1
    if tracer is not None:
        work_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(work_dir / f"spans-{workload.name}-{seed}.json")
    return RunResult(workload, seed, passes, tracer, rss, evaluation, consistent)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values: List[float]) -> float:
    return float(np.median(values)) if values else 0.0


def _throughput(passes: List[PassRecord]) -> Metric:
    """Packets fed / wall time, summed over the completed passes.

    A ratio of sums, not a median of per-pass rates: the host's speed drifts
    over tens of seconds, and a median flips between its fast and slow
    phases where the ratio of sums moves with their mix.
    """
    done = [p for p in passes if p.wall_s > 0]
    wall = sum(p.wall_s for p in done)
    return Metric(sum(p.packets for p in done) / wall if wall else 0.0, "pkt/s", len(done))


def end_to_end_metrics(result: RunResult) -> Dict[str, Metric]:
    """The user-visible metrics, from the untraced passes."""
    untraced = [p for p in result.passes if not p.traced]
    chunks_ms = [1e3 * t for p in untraced for t in p.chunk_s]
    queries_ms = [1e3 * t for p in untraced for t in p.query_s]
    setups = [p.setup_s for p in result.passes if p.setup_s > 0]
    evaluation = result.evaluation
    scored = 1 if evaluation is not None else 0
    return {
        "throughput_pps": _throughput(untraced),
        "chunk_p10_ms": Metric(_percentile(chunks_ms, 10), "ms", len(chunks_ms)),
        "chunk_p50_ms": Metric(_percentile(chunks_ms, 50), "ms", len(chunks_ms)),
        "chunk_p90_ms": Metric(_percentile(chunks_ms, 90), "ms", len(chunks_ms)),
        "query_p50_ms": Metric(_percentile(queries_ms, 50), "ms", len(queries_ms)),
        "query_p90_ms": Metric(_percentile(queries_ms, 90), "ms", len(queries_ms)),
        "setup_s": Metric(_median(setups), "s", len(setups)),
        "peak_rss_mb": Metric(result.peak_rss_mb, "MB", 1),
        "accuracy_error_ratio": Metric(
            evaluation.accuracy_error_ratio if evaluation else 0.0, "frac", scored
        ),
        "coverage_error_ratio": Metric(
            evaluation.coverage_error_ratio if evaluation else 0.0, "frac", scored
        ),
        "false_positive_ratio": Metric(
            evaluation.false_positive_ratio if evaluation else 0.0, "frac", scored
        ),
        "failed_ops_ratio": Metric(
            result.failed / result.attempted if result.attempted else 1.0, "frac", result.attempted
        ),
    }


#: Per-layer seconds: ``metric -> (span name, "total" or "self")``.
_LAYER_SECONDS = {
    "source.read_s": ("source.read", "total"),
    "source.wait_s": ("source.wait", "total"),
    "batch.update_s": ("batch.update", "total"),
    "batch.self_s": ("batch.update", "self"),
    "batch.group_s": ("batch.group", "total"),
    "batch.aggregate_s": ("batch.aggregate", "total"),
    "counter.update_s": ("counter.feed", "self"),
    "shard.self_s": ("shard.update", "self"),
    "routing.s": ("routing", "total"),
    "ipc.send_s": ("ipc.send", "total"),
    "ipc.ack_wait_s": ("ipc.ack_wait", "total"),
    "ipc.fetch_s": ("ipc.fetch", "total"),
    "merge.s": ("merge", "total"),
    "query.self_s": ("query", "self"),
    "output.s": ("output", "total"),
}


def _share_name(seconds_name: str) -> str:
    """``counter.update_s`` -> ``counter.update_share``, ``merge.s`` -> ``merge.share``."""
    return seconds_name[:-2] + ("_share" if seconds_name.endswith("_s") else ".share")


def layer_metrics(result: RunResult) -> Dict[str, Metric]:
    """Per-layer seconds (per traced pass), their shares of traced wall time, and counts."""
    tracer = result.tracer
    traced = [p for p in result.passes if p.traced and p.wall_s > 0]
    n = len(traced)
    wall = sum(p.wall_s for p in traced)
    times = tracer.layer_times()
    counts = tracer.counts
    seconds = {
        name: times.get(span, {}).get(kind, 0.0) for name, (span, kind) in _LAYER_SECONDS.items()
    }
    seconds["session.self_s"] = wall - tracer.root_time(threading.main_thread().ident)
    metrics: Dict[str, Metric] = {}
    for name, value in seconds.items():
        metrics[name] = Metric(value / n if n else 0.0, "s", n)
        metrics[_share_name(name)] = Metric(value / wall if wall else 0.0, "frac", n)

    def calls(span: str) -> float:
        return times.get(span, {}).get("calls", 0)

    packets = sum(p.packets for p in traced)
    updates = sum(p.counter_updates for p in traced)
    keys_fed = counts.get("counter.keys", 0.0)
    per_shard = counts.get("routing.per_shard")
    fetches = calls("ipc.fetch")
    untraced_tput = _throughput([p for p in result.passes if not p.traced]).value
    traced_tput = _throughput(traced).value
    metrics.update(
        {
            "source.batches": Metric(counts.get("source.read.items", 0.0) / n if n else 0.0, "count", n),
            "batch.sampled_frac": Metric(updates / packets if packets else 0.0, "frac", n),
            "batch.dedup_ratio": Metric(keys_fed / updates if updates else 0.0, "ratio", n),
            "counter.keys": Metric(keys_fed / n if n else 0.0, "count", n),
            "counter.state_counters": Metric(
                _median([p.state_counters for p in traced]), "count", n
            ),
            "routing.skew": Metric(
                float(per_shard.max() / per_shard.mean())
                if per_shard is not None and per_shard.sum()
                else 0.0,
                "ratio",
                int(calls("routing")),
            ),
            "ipc.state_bytes": Metric(
                counts.get("ipc.state_bytes", 0.0) / fetches if fetches else 0.0,
                "bytes",
                int(fetches),
            ),
            "merge.calls": Metric(calls("merge") / n if n else 0.0, "count", n),
            "output.calls": Metric(calls("output") / n if n else 0.0, "count", n),
            "output.candidates": Metric(
                counts.get("output.candidates", 0.0) / calls("output") if calls("output") else 0.0,
                "count",
                int(calls("output")),
            ),
            "trace.overhead_frac": Metric(
                1.0 - traced_tput / untraced_tput if untraced_tput else 0.0, "frac", n
            ),
        }
    )
    return metrics

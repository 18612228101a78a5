"""Self-tests of the benchmark: scoring, failure accounting, tracing, seeding.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import PassRecord  # noqa: E402
from oracle import PrefixCountTruth, coverage_error_ratio, ground_truth, report_problems  # noqa: E402
from tracing import LAYER_ENTRY_POINTS, Tracer  # noqa: E402
from workloads import THETA, WORKLOADS_BY_NAME, backbone_keys, storm_keys  # noqa: E402

from repro.api import AlgorithmSpec  # noqa: E402
from repro.api.registry import build_algorithm, make_hierarchy  # noqa: E402
from repro.core.base import HHHOutput  # noqa: E402

HIERARCHY = make_hierarchy("2d-bytes")


def _exact_report(truth) -> HHHOutput:
    output = truth.exact.output(THETA)
    return HHHOutput(candidates=list(output.candidates), total=truth.total)


def test_dropping_an_exact_hhh_raises_coverage_error():
    truth = ground_truth(HIERARCHY, backbone_keys(3, 40_000))
    report = _exact_report(truth)
    assert len(report.candidates) > 1
    assert coverage_error_ratio(report, truth, THETA) == 0
    doctored = HHHOutput(candidates=report.candidates[1:], total=report.total)
    assert coverage_error_ratio(doctored, truth, THETA) > 0


def test_prefix_count_truth_scores_the_root_like_ground_truth():
    keys = storm_keys(3, 20_000)
    truth = PrefixCountTruth(HIERARCHY, keys)
    root = HIERARCHY.fully_general_node()
    assert truth.hhh_set(THETA) == {(root, (0, 0))}
    assert truth.frequency((root, (0, 0))) == len(keys)
    exact = ground_truth(HIERARCHY, keys)
    assert exact.hhh_set(THETA) == truth.hhh_set(THETA)
    report = _exact_report(exact)
    assert coverage_error_ratio(report, truth, THETA) == 0
    empty = HHHOutput(candidates=[], total=len(keys))
    assert coverage_error_ratio(empty, truth, THETA) == 1


def test_prefix_count_truth_refuses_streams_with_heavy_prefixes():
    with pytest.raises(ValueError, match="not the root alone"):
        PrefixCountTruth(HIERARCHY, backbone_keys(3, 20_000)).hhh_set(THETA)


def test_swapped_bounds_count_as_a_failed_operation():
    truth = ground_truth(HIERARCHY, backbone_keys(4, 20_000))
    report = _exact_report(truth)
    first = report.candidates[0]
    swapped = dataclasses.replace(
        first, lower_bound=first.upper_bound + 1, upper_bound=first.lower_bound
    )
    doctored = HHHOutput(candidates=[swapped, *report.candidates[1:]], total=report.total)
    assert report_problems(report, truth.total) == []
    assert report_problems(doctored, truth.total)
    record = PassRecord(traced=False)
    record.check_report(report, truth.total)
    record.check_report(doctored, truth.total)
    assert (record.attempted, record.failed) == (2, 1)


def test_wrong_total_counts_as_a_failed_operation():
    record = PassRecord(traced=False)
    record.check_report(HHHOutput(candidates=[], total=10), 11)
    assert (record.attempted, record.failed) == (1, 1)


def _entry_points():
    current = {}
    for _, module_name, path, _ in LAYER_ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        current[(module_name, path)] = getattr(owner, attr)
    return current


def test_untraced_run_after_a_traced_one_sees_the_original_functions():
    originals = _entry_points()
    algorithm = build_algorithm(
        AlgorithmSpec(name="rhhh", epsilon=0.01, delta=0.05, seed=1), HIERARCHY
    )
    keys = backbone_keys(5, 4_096)
    tracer = Tracer().install()
    try:
        assert any(_entry_points()[k] is not v for k, v in originals.items())
        algorithm.update_batch(keys)
    finally:
        tracer.restore()
    traced_spans = len(tracer.spans)
    assert traced_spans > 0
    assert {span.name for span in tracer.spans} >= {"batch.update", "counter.feed"}
    assert all(_entry_points()[k] is v for k, v in originals.items())
    algorithm.update_batch(keys)
    algorithm.output(THETA)
    assert len(tracer.spans) == traced_spans


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    outer = tracer._open("outer")
    inner = tracer._open("inner")
    tracer._close(inner)
    tracer._close(outer)
    spans = tracer.spans
    spans[0].start, spans[0].end = 0.0, 10.0
    spans[1].start, spans[1].end = 2.0, 5.0
    times = tracer.layer_times()
    assert spans[1].parent == 0
    assert times["outer"]["self"] == pytest.approx(7.0)
    assert times["inner"]["total"] == pytest.approx(3.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS_BY_NAME))
def test_seed_changes_the_keys_and_nothing_else(name):
    workload = WORKLOADS_BY_NAME[name]
    first = workload.make_keys(1, 8_192)
    again = workload.make_keys(1, 8_192)
    other = workload.make_keys(2, 8_192)
    np.testing.assert_array_equal(first, again)
    assert first.shape == other.shape and first.dtype == other.dtype
    assert not np.array_equal(first, other)


def test_storm_keys_are_all_distinct():
    keys = storm_keys(9, 100_000)
    packed = (keys[:, 0].astype(np.uint64) << np.uint64(32)) | keys[:, 1].astype(np.uint64)
    assert len(np.unique(packed)) == len(keys)

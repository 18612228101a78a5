"""Unit tests for the evaluation metrics."""

from __future__ import annotations

import pytest

from repro.api.registry import make_hierarchy
from repro.core.base import HHHCandidate, HHHOutput
from repro.eval.ground_truth import GroundTruth
from repro.eval.metrics import (
    accuracy_error_ratio,
    coverage_error_ratio,
    evaluate_output,
    false_positive_ratio,
    precision_recall,
)
from repro.hierarchy.ip import ipv4_to_int
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.traffic.caida_like import named_workload


def _keys():
    keys = []
    keys += [ipv4_to_int("10.0.0.1")] * 400  # heavy flow
    keys += [ipv4_to_int(f"20.30.{i % 50}.{i % 40}") for i in range(400)]  # heavy /16 aggregate
    keys += [ipv4_to_int(f"{50 + i % 100}.1.1.1") for i in range(200)]  # background
    return keys


@pytest.fixture
def truth():
    return GroundTruth(ipv4_byte_hierarchy(), _keys())


def _candidate(hierarchy, node, address, lower, upper):
    value = hierarchy.generalize(ipv4_to_int(address), node)
    return HHHCandidate(
        prefix=hierarchy.to_prefix((node, value)),
        lower_bound=lower,
        upper_bound=upper,
        conditioned_estimate=upper,
    )


class TestGroundTruth:
    def test_total_and_frequency(self, truth):
        assert truth.total == 1_000
        assert truth.frequency((0, ipv4_to_int("10.0.0.1"))) == 400
        assert truth.frequency((2, ipv4_to_int("20.30.0.0"))) == 400

    def test_hhh_set_contains_the_two_heavies(self, truth):
        hhh = truth.hhh_set(0.3)
        assert (0, ipv4_to_int("10.0.0.1")) in hhh
        assert (2, ipv4_to_int("20.30.0.0")) in hhh

    def test_heavy_prefixes_superset_of_hhh(self, truth):
        heavy = set(truth.heavy_prefixes(0.3))
        assert truth.hhh_set(0.3) <= heavy

    def test_conditioned_node_frequencies(self, truth):
        conditioned = truth.conditioned_node_frequencies([(0, ipv4_to_int("10.0.0.1"))])
        # The heavy flow is excluded once selected; its /24 keeps nothing else.
        assert conditioned[1].get(ipv4_to_int("10.0.0.0"), 0) == 0
        # The /16 aggregate is untouched by that selection.
        assert conditioned[2][ipv4_to_int("20.30.0.0")] == 400


class TestAccuracyError:
    def test_accurate_output_has_zero_ratio(self, truth):
        hierarchy = truth.hierarchy
        output = HHHOutput(
            candidates=[_candidate(hierarchy, 0, "10.0.0.1", 395, 405)], total=1_000, threshold=300
        )
        assert accuracy_error_ratio(output, truth, epsilon=0.05) == 0.0

    def test_wild_estimate_counts_as_error(self, truth):
        hierarchy = truth.hierarchy
        output = HHHOutput(
            candidates=[
                _candidate(hierarchy, 0, "10.0.0.1", 395, 405),
                _candidate(hierarchy, 2, "20.30.0.0", 900, 900),  # true 400, off by 500
            ],
            total=1_000,
            threshold=300,
        )
        assert accuracy_error_ratio(output, truth, epsilon=0.05) == pytest.approx(0.5)

    def test_empty_output(self, truth):
        assert accuracy_error_ratio(HHHOutput(total=1_000), truth, epsilon=0.05) == 0.0


class TestCoverageError:
    def test_missing_heavy_aggregate_is_a_violation(self, truth):
        hierarchy = truth.hierarchy
        # Report only the heavy flow; the heavy /16 is missing and nothing covers it.
        output = HHHOutput(
            candidates=[_candidate(hierarchy, 0, "10.0.0.1", 400, 400)], total=1_000, threshold=300
        )
        assert coverage_error_ratio(output, truth, theta=0.3) > 0.0

    def test_covering_output_has_no_violations(self, truth):
        hierarchy = truth.hierarchy
        output = HHHOutput(
            candidates=[
                _candidate(hierarchy, 0, "10.0.0.1", 400, 400),
                _candidate(hierarchy, 2, "20.30.0.0", 400, 400),
            ],
            total=1_000,
            threshold=300,
        )
        assert coverage_error_ratio(output, truth, theta=0.3) == 0.0

    def test_over_reporting_never_hurts_coverage(self, truth):
        hierarchy = truth.hierarchy
        output = HHHOutput(
            candidates=[
                _candidate(hierarchy, 0, "10.0.0.1", 400, 400),
                _candidate(hierarchy, 2, "20.30.0.0", 400, 400),
                _candidate(hierarchy, 3, "50.0.0.0", 10, 10),
                _candidate(hierarchy, 4, "0.0.0.0", 1_000, 1_000),
            ],
            total=1_000,
            threshold=300,
        )
        assert coverage_error_ratio(output, truth, theta=0.3) == 0.0

    def test_dropped_exact_hhh_is_a_violation(self):
        # Regression: conditioning on every reported prefix let a reported
        # ancestor (the root) cover the packets of a missed HHH beneath it,
        # so the exact set minus one level-0 HHH scored 0.0.
        hierarchy = make_hierarchy("1d-bytes")
        keys = named_workload("sanjose14").keys_1d(20_000)
        truth = GroundTruth(hierarchy, keys)
        exact = truth.exact.output(0.05)
        dropped = next(c for c in exact.candidates if hierarchy.node_level(c.prefix.node) == 0)
        output = HHHOutput(
            candidates=[c for c in exact.candidates if c is not dropped],
            total=exact.total,
            threshold=exact.threshold,
        )
        assert coverage_error_ratio(exact, truth, theta=0.05) == 0.0
        assert coverage_error_ratio(output, truth, theta=0.05) >= 1 / len(exact.candidates)


class TestFalsePositivesAndPrecisionRecall:
    def test_false_positive_ratio(self, truth):
        hierarchy = truth.hierarchy
        output = HHHOutput(
            candidates=[
                _candidate(hierarchy, 0, "10.0.0.1", 400, 400),  # real HHH
                _candidate(hierarchy, 3, "50.0.0.0", 10, 10),  # not an HHH
            ],
            total=1_000,
            threshold=300,
        )
        assert false_positive_ratio(output, truth, theta=0.3) == pytest.approx(0.5)
        precision, recall = precision_recall(output, truth, theta=0.3)
        assert precision == pytest.approx(0.5)
        assert recall < 1.0

    def test_empty_output_edge_cases(self, truth):
        empty = HHHOutput(total=1_000)
        assert false_positive_ratio(empty, truth, theta=0.3) == 0.0
        precision, recall = precision_recall(empty, truth, theta=0.3)
        assert recall == 0.0

    def test_evaluate_output_bundles_everything(self, truth):
        hierarchy = truth.hierarchy
        output = HHHOutput(
            candidates=[_candidate(hierarchy, 0, "10.0.0.1", 400, 400)], total=1_000, threshold=300
        )
        report = evaluate_output(output, truth, epsilon=0.05, theta=0.3)
        assert report.reported == 1
        assert report.exact_count == len(truth.hhh_set(0.3))
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0

"""Solution-quality metrics matching Section 4 of the paper."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.base import HHHOutput
from repro.eval.ground_truth import GroundTruth
from repro.hierarchy.base import PrefixKey


@dataclass(frozen=True)
class EvaluationReport:
    """All quality metrics of one algorithm output against the ground truth.

    Attributes:
        accuracy_error_ratio: share of reported prefixes whose estimate is off
            by more than ``epsilon * N`` (Figure 2).
        coverage_error_ratio: false-negative ratio - prefixes outside the
            output whose exact conditioned frequency still reaches
            ``theta * N``, normalised by the exact HHH count (Figure 3).
        false_positive_ratio: share of reported prefixes that are not exact
            HHHs (Figure 4).
        precision: |reported ∩ exact| / |reported|.
        recall: |reported ∩ exact| / |exact|.
        reported: number of reported prefixes.
        exact_count: size of the exact HHH set.
    """

    accuracy_error_ratio: float
    coverage_error_ratio: float
    false_positive_ratio: float
    precision: float
    recall: float
    reported: int
    exact_count: int


def accuracy_error_ratio(output: HHHOutput, truth: GroundTruth, epsilon: float) -> float:
    """Share of reported prefixes whose frequency estimate misses by more than ``epsilon * N``.

    The estimate compared against the truth is the midpoint of the candidate's
    ``[lower_bound, upper_bound]`` interval, which treats over-estimating
    algorithms (Space Saving based) and slack-carrying ones (the Ancestry
    tries) evenly.
    """
    if not output.candidates:
        return 0.0
    allowed = epsilon * truth.total
    errors = 0
    for candidate in output.candidates:
        true_frequency = truth.frequency(candidate.prefix.key())
        if abs(true_frequency - candidate.estimate) > allowed:
            errors += 1
    return errors / len(output.candidates)


def coverage_error_ratio(output: HHHOutput, truth: GroundTruth, theta: float) -> float:
    """False-negative ratio: prefixes left out whose exact conditioned frequency reaches ``theta * N``.

    Only prefixes whose plain frequency reaches the threshold can violate
    coverage (``C_{q|P} <= f_q``), so only those are examined.  As in the
    exact solver (Definition 8 evaluates level ``l`` against ``HHH_{l-1}``),
    a prefix is conditioned on the reported prefixes at strictly lower
    levels, one pass over the keys per level with a missed prefix; a
    reported ancestor (the root, say) therefore cannot hide a missed HHH
    beneath it.  The count of violations is normalised by the size of the
    exact HHH set so traces of different lengths are comparable, mirroring
    the percentage plotted in Figure 3.
    """
    hierarchy = truth.hierarchy
    reported = [c.prefix.key() for c in output.candidates]
    reported_set: Set[PrefixKey] = set(reported)
    missed: Dict[int, List[PrefixKey]] = defaultdict(list)
    for prefix in truth.heavy_prefixes(theta):
        if prefix not in reported_set:
            missed[hierarchy.node_level(prefix[0])].append(prefix)
    threshold = theta * truth.total
    violations = 0
    for level, prefixes in missed.items():
        below = [q for q in reported if hierarchy.node_level(q[0]) < level]
        conditioned = truth.conditioned_node_frequencies(below)
        violations += sum(
            1 for node, value in prefixes if conditioned[node].get(value, 0) >= threshold
        )
    exact_count = max(1, len(truth.hhh_set(theta)))
    return violations / exact_count


def false_positive_ratio(output: HHHOutput, truth: GroundTruth, theta: float) -> float:
    """Share of reported prefixes that are not exact hierarchical heavy hitters (Figure 4)."""
    if not output.candidates:
        return 0.0
    exact = truth.hhh_set(theta)
    false_positives = sum(1 for c in output.candidates if c.prefix.key() not in exact)
    return false_positives / len(output.candidates)


def precision_recall(output: HHHOutput, truth: GroundTruth, theta: float) -> Tuple[float, float]:
    """Precision and recall of the reported set against the exact HHH set."""
    exact = truth.hhh_set(theta)
    reported = {c.prefix.key() for c in output.candidates}
    if not reported:
        return (1.0 if not exact else 0.0, 0.0 if exact else 1.0)
    hits = len(reported & exact)
    precision = hits / len(reported)
    recall = hits / len(exact) if exact else 1.0
    return (precision, recall)


def evaluate_output(
    output: HHHOutput, truth: GroundTruth, *, epsilon: float, theta: float
) -> EvaluationReport:
    """Compute every quality metric of one output in a single call."""
    precision, recall = precision_recall(output, truth, theta)
    return EvaluationReport(
        accuracy_error_ratio=accuracy_error_ratio(output, truth, epsilon),
        coverage_error_ratio=coverage_error_ratio(output, truth, theta),
        false_positive_ratio=false_positive_ratio(output, truth, theta),
        precision=precision,
        recall=recall,
        reported=len(output.candidates),
        exact_count=len(truth.hhh_set(theta)),
    )

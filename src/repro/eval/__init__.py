"""Evaluation harness: ground truth, metrics, experiment runner and figure regeneration.

The metrics mirror Section 4 of the paper:

* accuracy-error ratio (Figure 2) - share of reported prefixes whose frequency
  estimate is off by more than ``epsilon * N``;
* coverage-error ratio (Figure 3) - prefixes missing from the output whose true
  conditioned frequency still exceeds ``theta * N`` (false negatives);
* false-positive ratio (Figure 4) - share of reported prefixes that are not
  exact hierarchical heavy hitters;
* update speed (Figure 5) and the OVS throughput model (Figures 6-8) live in
  :mod:`repro.eval.speed` and :mod:`repro.vswitch`.
"""

from repro.eval.ground_truth import GroundTruth
from repro.eval.metrics import (
    EvaluationReport,
    accuracy_error_ratio,
    coverage_error_ratio,
    evaluate_output,
    false_positive_ratio,
    precision_recall,
)
from repro.eval.confidence import mean_confidence_interval
from repro.eval.speed import SpeedResult, measure_update_speed
from repro.eval.runner import ExperimentResult, ExperimentRunner
from repro.eval.reporting import format_table, to_csv

__all__ = [
    "GroundTruth",
    "EvaluationReport",
    "accuracy_error_ratio",
    "coverage_error_ratio",
    "false_positive_ratio",
    "precision_recall",
    "evaluate_output",
    "mean_confidence_interval",
    "SpeedResult",
    "measure_update_speed",
    "ExperimentRunner",
    "ExperimentResult",
    "format_table",
    "to_csv",
]

"""Exact answers and report checks, computed outside every timed region.

Two exact oracles serve the quality metrics of the paper's Figures 2-4
(:func:`evaluate`):

* :func:`ground_truth` feeds :class:`repro.eval.ground_truth.GroundTruth`
  the ``np.unique``-aggregated keys, one weighted update per distinct key;
* :class:`PrefixCountTruth` answers the same questions from numpy prefix
  counts, for streams whose keys are all distinct (GroundTruth would spend
  minutes on a per-key dictionary there).  It covers exactly the streams
  whose only exact HHH is the root, and raises on any other.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.base import HHHOutput
from repro.eval.ground_truth import GroundTruth
from repro.eval.metrics import (
    EvaluationReport,
    accuracy_error_ratio,
    false_positive_ratio,
    precision_recall,
)
from repro.hierarchy.base import Hierarchy

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

PrefixKey = Tuple[int, Hashable]


def _pack(keys: np.ndarray) -> np.ndarray:
    """``(n, 2)`` non-negative 32-bit pairs as one sortable uint64 per row."""
    return (keys[:, 0].astype(np.uint64) << _SHIFT32) | keys[:, 1].astype(np.uint64)


def ground_truth(hierarchy: Hierarchy, keys: np.ndarray) -> GroundTruth:
    """Exact solver over the distinct keys of ``keys``, each with its packet count."""
    unique, counts = np.unique(_pack(keys), return_counts=True)
    truth = GroundTruth(hierarchy, ())
    exact = truth.exact
    sources = (unique >> _SHIFT32).tolist()
    destinations = (unique & _MASK32).tolist()
    for src, dst, count in zip(sources, destinations, counts.tolist()):
        exact.update((src, dst), count)
    return truth


class PrefixCountTruth:
    """The :class:`GroundTruth` questions the metrics ask, answered with numpy.

    Valid only when no prefix below the root reaches ``theta * N``; then the
    exact HHH set is the root alone.  :meth:`hhh_set` checks that condition
    and raises ``ValueError`` when it does not hold.  Every prefix below the
    root generalizes to one of the root's immediate descendants, so checking
    those nodes settles every node.
    """

    def __init__(self, hierarchy: Hierarchy, keys: np.ndarray) -> None:
        self._hierarchy = hierarchy
        self._keys = keys
        self._masks = hierarchy.compile_batch_generalizers()
        self._root = hierarchy.fully_general_node()
        self._root_value = hierarchy.generalize((0, 0), self._root)

    @property
    def hierarchy(self) -> Hierarchy:
        return self._hierarchy

    @property
    def total(self) -> int:
        return len(self._keys)

    def frequency(self, prefix: PrefixKey) -> int:
        node, value = prefix
        masked = self._masks[node](self._keys)
        return int(np.count_nonzero((masked[:, 0] == value[0]) & (masked[:, 1] == value[1])))

    def heavy_prefixes(self, theta: float) -> List[PrefixKey]:
        threshold = theta * self.total
        for node in range(self._hierarchy.size):
            if self._root not in self._hierarchy.node_parents(node):
                continue
            _, counts = np.unique(_pack(self._masks[node](self._keys)), return_counts=True)
            if counts.size and counts.max() >= threshold:
                raise ValueError(
                    f"a prefix at node {node} reaches theta*N ({counts.max()} >= {threshold:.0f}); "
                    "the exact HHH set is not the root alone"
                )
        return [(self._root, self._root_value)]

    def hhh_set(self, theta: float) -> Set[PrefixKey]:
        return set(self.heavy_prefixes(theta))

    def conditioned_frequency(self, prefix: PrefixKey, selected: Sequence[PrefixKey]) -> int:
        """``C_{root|selected}``: packets no selected prefix covers (the root only)."""
        if prefix != (self._root, self._root_value):
            raise ValueError(f"prefix counts answer conditioned frequencies of the root only, not {prefix}")
        covered = np.zeros(len(self._keys), dtype=bool)
        by_node: Dict[int, List[Hashable]] = {}
        for node, value in selected:
            by_node.setdefault(node, []).append(value)
        for node, values in by_node.items():
            wanted = _pack(np.asarray(values, dtype=np.int64).reshape(-1, 2))
            covered |= np.isin(_pack(self._masks[node](self._keys)), wanted)
        return int(np.count_nonzero(~covered))


def exact_oracle(hierarchy: Hierarchy, keys: np.ndarray, *, all_distinct: bool):
    """The oracle for one workload's keys: prefix counts when every key is distinct."""
    if all_distinct:
        return PrefixCountTruth(hierarchy, keys)
    return ground_truth(hierarchy, keys)


def coverage_error_ratio(output: HHHOutput, truth, theta: float) -> float:
    """Figure 3's false-negative ratio, conditioning on lower levels only.

    A prefix whose plain frequency reaches ``theta * N`` but is not reported
    is a violation when its conditioned frequency still reaches the
    threshold.  As in the exact solver (Definition 8 evaluates level ``l``
    against ``HHH_{l-1}``), the conditioning set is the reported prefixes at
    strictly lower levels.  :func:`repro.eval.metrics.coverage_error_ratio`
    conditions on every reported prefix instead, so a reported ancestor (the
    root, in most reports) covers every packet and hides any missing HHH
    beneath it.
    """
    reported = [candidate.prefix.key() for candidate in output.candidates]
    reported_set = set(reported)
    hierarchy = truth.hierarchy
    threshold = theta * truth.total
    violations = 0
    for prefix in truth.heavy_prefixes(theta):
        if prefix in reported_set:
            continue
        level = hierarchy.node_level(prefix[0])
        below = [q for q in reported if hierarchy.node_level(q[0]) < level]
        if truth.conditioned_frequency(prefix, below) >= threshold:
            violations += 1
    return violations / max(1, len(truth.hhh_set(theta)))


def evaluate(output: HHHOutput, truth, *, epsilon: float, theta: float) -> EvaluationReport:
    """The quality metrics of ``output``: :mod:`repro.eval.metrics`, with the coverage above."""
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


def report_problems(output: HHHOutput, packets_fed: int) -> List[str]:
    """Why a report counts as a failed operation; empty when it passes.

    A report fails when its ``total`` differs from the packets fed or when
    any candidate's lower bound exceeds its upper bound.
    """
    problems = []
    if output.total != packets_fed:
        problems.append(f"report total {output.total} != packets fed {packets_fed}")
    for candidate in output.candidates:
        if candidate.lower_bound > candidate.upper_bound:
            problems.append(
                f"candidate {candidate.prefix} has lower bound {candidate.lower_bound} "
                f"> upper bound {candidate.upper_bound}"
            )
            break
    return problems


def report_signature(output: HHHOutput) -> tuple:
    """Everything a report says, for comparing the reports of repeated passes."""
    return (
        output.total,
        tuple(
            (c.prefix.key(), c.lower_bound, c.upper_bound, c.conditioned_estimate)
            for c in output.candidates
        ),
    )

"""Exact offline hierarchical heavy hitters (Definition 8).

Counts every fully specified key exactly, then materialises the exact HHH set
level by level, computing exact conditioned frequencies
``C_{p|P} = sum of f_e over e generalized by p but by no member of P``
(Definition 6).  Memory grows with the number of distinct keys, so this class
is the evaluation ground truth, not a streaming algorithm.

It also exposes :meth:`conditioned_frequency` and :meth:`prefix_frequency`,
which the metrics module uses to score the approximate algorithms' outputs
(accuracy errors, coverage errors and false positives).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.core.base import HHHAlgorithm, HHHCandidate, HHHOutput
from repro.core.batch import check_weight
from repro.core.output import validate_theta
from repro.hierarchy.base import Hierarchy, PrefixKey


class ExactHHH(HHHAlgorithm):
    """Exact (offline) HHH solver used as ground truth."""

    name = "exact"

    #: Runtime state beyond the shared checkpoint whitelist (the exact
    #: per-key counts are the whole algorithm state).
    CHECKPOINT_EXTRA_ATTRS = ("_counts",)

    def __init__(self, hierarchy: Hierarchy) -> None:
        super().__init__(hierarchy)
        self._counts: Dict[Hashable, int] = defaultdict(int)
        self._generalizers = hierarchy.compile_generalizers()

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #

    def update(self, key: Hashable, weight: int = 1) -> None:
        check_weight(weight)
        self._counts[key] += weight
        self._total += weight

    def distinct_keys(self) -> int:
        """Number of distinct fully specified keys observed."""
        return len(self._counts)

    def counters(self) -> int:
        return len(self._counts)

    # ------------------------------------------------------------------ #
    # exact frequencies
    # ------------------------------------------------------------------ #

    def prefix_frequency(self, prefix: PrefixKey) -> int:
        """Exact frequency ``f_p`` of a prefix (Definition 3)."""
        node, value = prefix
        generalize = self._generalizers[node]
        return sum(count for key, count in self._counts.items() if generalize(key) == value)

    def prefix_frequencies(self, node: int) -> Dict[Hashable, int]:
        """Exact frequency of every prefix at lattice node ``node``."""
        generalize = self._generalizers[node]
        frequencies: Dict[Hashable, int] = defaultdict(int)
        for key, count in self._counts.items():
            frequencies[generalize(key)] += count
        return dict(frequencies)

    def conditioned_frequency(self, prefix: PrefixKey, selected: Sequence[PrefixKey]) -> int:
        """Exact conditioned frequency ``C_{p|P}`` (Definition 6).

        Sums the counts of fully specified keys generalized by ``prefix`` but
        not generalized by any prefix in ``selected``.
        """
        node, value = prefix
        generalize = self._generalizers[node]
        generalizers = self._generalizers
        total = 0
        for key, count in self._counts.items():
            if generalize(key) != value:
                continue
            covered = False
            for p_node, p_value in selected:
                if generalizers[p_node](key) == p_value:
                    covered = True
                    break
            if not covered:
                total += count
        return total

    # ------------------------------------------------------------------ #
    # exact HHH set
    # ------------------------------------------------------------------ #

    def output(self, theta: float) -> HHHOutput:
        """Materialise the exact HHH set per Definition 8."""
        theta = validate_theta(theta)
        threshold = theta * self._total
        hierarchy = self._hierarchy
        generalizers = self._generalizers

        # Group lattice nodes by generality level so all of level l is
        # evaluated against HHH_{l-1}, exactly as Definition 8 prescribes.
        levels: Dict[int, List[int]] = defaultdict(list)
        for node in hierarchy.output_order():
            levels[hierarchy.node_level(node)].append(node)

        selected: List[PrefixKey] = []
        covered: Dict[Hashable, bool] = {}
        candidates: List[HHHCandidate] = []
        for level in sorted(levels):
            newly_selected: List[PrefixKey] = []
            for node in levels[level]:
                generalize = generalizers[node]
                # Conditioned frequency of each prefix at this node w.r.t. the
                # prefixes selected at strictly lower levels.
                conditioned: Dict[Hashable, int] = defaultdict(int)
                totals: Dict[Hashable, int] = defaultdict(int)
                for key, count in self._counts.items():
                    value = generalize(key)
                    totals[value] += count
                    if not covered.get(key, False):
                        conditioned[value] += count
                for value, cond in conditioned.items():
                    if cond >= threshold:
                        prefix: PrefixKey = (node, value)
                        newly_selected.append(prefix)
                        frequency = float(totals[value])
                        candidates.append(
                            HHHCandidate(
                                prefix=hierarchy.to_prefix(prefix),
                                lower_bound=frequency,
                                upper_bound=frequency,
                                conditioned_estimate=float(cond),
                            )
                        )
            # Only after the whole level is processed do its prefixes start
            # covering keys for the next level.
            for node, value in newly_selected:
                generalize = generalizers[node]
                for key in self._counts:
                    if not covered.get(key, False) and generalize(key) == value:
                        covered[key] = True
            selected.extend(newly_selected)
        return HHHOutput(candidates=candidates, total=self._total, threshold=threshold)

    # ------------------------------------------------------------------ #
    # helpers for the evaluation harness
    # ------------------------------------------------------------------ #

    def heavy_prefixes(self, node: int, threshold: float) -> Dict[Hashable, int]:
        """Prefixes at lattice node ``node`` whose exact frequency reaches ``threshold``."""
        return {
            value: count
            for value, count in self.prefix_frequencies(node).items()
            if count >= threshold
        }

    def items(self) -> Iterable[Tuple[Hashable, int]]:
        """Iterate over ``(fully specified key, exact count)`` pairs."""
        return self._counts.items()

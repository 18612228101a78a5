"""Trie-based deterministic HHH baselines in the style of Cormode et al. [14].

The Full Ancestry and Partial Ancestry algorithms are hierarchical
generalizations of Lossy Counting: the stream is divided into buckets of
width ``w = ceil(1/epsilon)``; a trie over prefixes stores, per kept prefix, a
count ``g`` and an insertion-time slack ``delta``; every bucket boundary a
compression pass removes prefixes whose ``g + delta`` has fallen behind the
bucket index, rolling their counts into their parents.

* **Full Ancestry** materialises every ancestor of an inserted element, so a
  miss costs Theta(H) trie insertions, and keeps per-ancestor counts exact
  within the bucket.
* **Partial Ancestry** inserts only the fully specified element, inheriting
  its slack from the closest ancestor already present; ancestors are only
  created lazily by the compression pass, so the common (hit) path is cheap
  but a miss still walks up to Theta(H) levels to find the closest ancestor.

These are reimplementations from the published algorithm descriptions (the
original code is not part of this repository); they reproduce the two
properties that matter for the paper's comparison: update cost growing with
``H`` and with the number of trie replacements (hence improving as ``epsilon``
shrinks), and deterministic accuracy/coverage comparable to MST.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List

from repro.core.base import HHHAlgorithm, HHHCandidate, HHHOutput
from repro.core.batch import check_weight
from repro.core.output import conditioned_frequency_estimate, validate_theta
from repro.exceptions import ConfigurationError
from repro.hierarchy.base import Hierarchy, PrefixKey


class _AncestryBase(HHHAlgorithm):
    """Shared machinery of the Full and Partial Ancestry algorithms."""

    #: Whether update materialises every missing ancestor (Full) or not (Partial).
    _materialise_ancestors = True

    #: Runtime state beyond the shared checkpoint whitelist: the trie itself,
    #: the bucket clock and the churn counters the eval layer reports.
    CHECKPOINT_EXTRA_ATTRS = ("_entries", "_bucket", "_compressions", "_replacements")

    def __init__(self, hierarchy: Hierarchy, *, epsilon: float = 0.001) -> None:
        super().__init__(hierarchy)
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        self._epsilon = epsilon
        self._width = int(math.ceil(1.0 / epsilon))
        self._bucket = 1
        # prefix (node, value) -> [g, delta]
        self._entries: Dict[PrefixKey, List[int]] = {}
        self._generalizers = hierarchy.compile_generalizers()
        # Nodes ordered from most specific to most general; compression and
        # output both walk the trie in this order.
        self._order = list(hierarchy.output_order())
        self._parents_of_node = {node: hierarchy.node_parents(node) for node in self._order}
        self._compressions = 0
        self._replacements = 0

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #

    @property
    def epsilon(self) -> float:
        """Configured accuracy target (bucket width is ``ceil(1/epsilon)``)."""
        return self._epsilon

    @property
    def compressions(self) -> int:
        """Number of compression passes executed so far."""
        return self._compressions

    @property
    def replacements(self) -> int:
        """Number of trie entries created after the first bucket (a proxy for trie churn)."""
        return self._replacements

    def update(self, key: Hashable, weight: int = 1) -> None:
        check_weight(weight)
        self._total += weight
        entries = self._entries
        leaf: PrefixKey = (0, self._generalizers[0](key))
        entry = entries.get(leaf)
        if entry is not None:
            entry[0] += weight
        else:
            delta = self._insertion_slack(key)
            entries[leaf] = [weight, delta]
            if self._bucket > 1:
                self._replacements += 1
            if self._materialise_ancestors:
                for node in self._order[1:]:
                    ancestor: PrefixKey = (node, self._generalizers[node](key))
                    if ancestor not in entries:
                        entries[ancestor] = [0, delta]
        current_bucket = self._total // self._width + 1
        if current_bucket != self._bucket:
            self._bucket = current_bucket
            self._compress()

    def _insertion_slack(self, key: Hashable) -> int:
        """Slack (``delta``) assigned to a newly inserted fully specified element."""
        raise NotImplementedError

    def _compress(self) -> None:
        """Remove entries whose ``g + delta`` fell behind the bucket index, rolling counts up.

        An evicted entry's count is split evenly among its lattice parents (the
        "splitting" propagation strategy of the multi-dimensional ancestry
        algorithms); in one dimension there is a single parent so the count is
        passed on intact.  Entries are visited from the most specific node
        upward so a count evicted at one level can keep flowing upward within
        the same pass.
        """
        self._compressions += 1
        bucket = self._bucket
        entries = self._entries
        fully_general = self._hierarchy.fully_general_node()
        # Group the current entries by node once; per-node scans of the whole
        # trie would make every compression O(H * |trie|).
        by_node: Dict[int, List[PrefixKey]] = {}
        for prefix in entries:
            by_node.setdefault(prefix[0], []).append(prefix)
        for node in self._order:
            if node == fully_general:
                continue
            parents = self._parents_of_node[node]
            share = 1.0 / len(parents)
            for prefix in by_node.get(node, ()):
                entry = entries.get(prefix)
                if entry is None or entry[0] + entry[1] > bucket - 1:
                    continue
                del entries[prefix]
                for parent_node in parents:
                    parent_value = self._hierarchy.generalize_prefix(prefix, parent_node)
                    parent_key: PrefixKey = (parent_node, parent_value)
                    parent = entries.get(parent_key)
                    if parent is not None:
                        parent[0] += entry[0] * share
                    else:
                        entries[parent_key] = [entry[0] * share, entry[1]]
                        by_node.setdefault(parent_node, []).append(parent_key)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def output(self, theta: float) -> HHHOutput:
        """Estimate per-prefix frequencies from the trie and run the lattice output procedure.

        Every packet's weight lives in (at least) one trie entry - its leaf,
        or wherever compression rolled it - so aggregating the entry weights
        upward gives a lower bound on every prefix's frequency; adding the
        current bucket index (the cumulative compression slack, at most
        ``epsilon * N``) gives an upper bound.  The candidate selection is
        then the same conservative conditioned-frequency scan used by MST and
        RHHH, which is what makes the three families directly comparable in
        the evaluation.
        """
        theta = validate_theta(theta)
        threshold = theta * self._total
        hierarchy = self._hierarchy
        slack = float(self._bucket - 1)

        # One pass over the trie: push every entry's weight to every lattice
        # node that generalizes the entry's node.
        aggregated: Dict[int, Dict[Hashable, float]] = {node: {} for node in self._order}
        ancestors_of_node: Dict[int, List[int]] = {
            node: [
                other
                for other in self._order
                if other == node or self._is_node_ancestor(other, node)
            ]
            for node in self._order
        }
        for (node, value), (g, _delta) in self._entries.items():
            if not g:
                continue
            for ancestor_node in ancestors_of_node[node]:
                ancestor_value = hierarchy.generalize_prefix((node, value), ancestor_node)
                bucket = aggregated[ancestor_node]
                bucket[ancestor_value] = bucket.get(ancestor_value, 0.0) + g

        def upper(prefix: PrefixKey) -> float:
            return aggregated[prefix[0]].get(prefix[1], 0.0) + slack

        def lower(prefix: PrefixKey) -> float:
            return aggregated[prefix[0]].get(prefix[1], 0.0)

        selected: List[PrefixKey] = []
        candidates: List[HHHCandidate] = []
        for node in self._order:
            for value in aggregated[node]:
                prefix: PrefixKey = (node, value)
                estimate = conditioned_frequency_estimate(
                    hierarchy, prefix, selected, lower, upper, 0.0
                )
                if estimate >= threshold:
                    selected.append(prefix)
                    candidates.append(
                        HHHCandidate(
                            prefix=hierarchy.to_prefix(prefix),
                            lower_bound=lower(prefix),
                            upper_bound=upper(prefix),
                            conditioned_estimate=estimate,
                        )
                    )
        return HHHOutput(candidates=candidates, total=self._total, threshold=threshold)

    def _is_node_ancestor(self, ancestor: int, descendant: int) -> bool:
        """True when lattice node ``ancestor`` generalizes lattice node ``descendant``."""
        hierarchy = self._hierarchy
        if hierarchy.dimensions == 1:
            return ancestor >= descendant
        ai, aj = hierarchy.decode(ancestor)
        di, dj = hierarchy.decode(descendant)
        return ai >= di and aj >= dj

    def counters(self) -> int:
        return len(self._entries)


class FullAncestry(_AncestryBase):
    """Full Ancestry: every ancestor of an inserted element is materialised."""

    name = "full_ancestry"
    _materialise_ancestors = True

    def _insertion_slack(self, key: Hashable) -> int:
        return self._bucket - 1


class PartialAncestry(_AncestryBase):
    """Partial Ancestry: only the element itself is inserted; slack is inherited.

    On a miss the algorithm walks up the hierarchy to find the closest ancestor
    already present and inherits ``g + delta`` from it as the new entry's
    slack, which is what keeps its estimates conservative without storing every
    ancestor.
    """

    name = "partial_ancestry"
    _materialise_ancestors = False

    def _insertion_slack(self, key: Hashable) -> int:
        entries = self._entries
        for node in self._order[1:]:
            ancestor: PrefixKey = (node, self._generalizers[node](key))
            entry = entries.get(ancestor)
            if entry is not None:
                return min(entry[0] + entry[1], self._bucket - 1)
        return self._bucket - 1

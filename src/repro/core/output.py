"""The Output procedure of Algorithm 1 and the ``calcPred`` helpers (Algorithms 2 and 3).

The same code serves RHHH and the lattice-based baselines (MST and the naive
sampling baseline): they differ only in the ``scale`` applied to raw counter
values (``V`` for RHHH because each counter sees roughly a ``1/V`` sample of
the stream, ``1`` for MST) and in the additive ``correction`` term of
Algorithm 1 line 13 (``2 Z_{1-delta} sqrt(N V)`` for RHHH, ``0`` for the
deterministic baselines).

Each lattice algorithm (RHHH, MST and SampledMST, the subclasses of
:class:`~repro.core.rhhh.LatticeHHH`) states its Output once, as ``query``
over explicit state, and ``query`` ends in :func:`lattice_output`.  This module also resolves the
per-node counter backend (:func:`prepare_counter_factory`), which
:mod:`repro.core.config` needs without importing the algorithms.

A query is one scan, :func:`lattice_output`, from the most specific lattice
node to the most general.  Each node's tracked entries and their bounds are
read as arrays (:meth:`~repro.hh.base.CounterAlgorithm.tracked_entries`), and
the whole node is tested against the threshold with one comparison: only an
entry that generalizes an already-selected prefix has a nonzero ``calcPred``,
so only those entries, and the selected ones, are handled one by one.
:func:`lattice_output_reference` is the same procedure as one scalar loop per
entry; the two are bit-identical (same candidates, float bounds and order),
which the parity suites pin.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.base import HHHCandidate, HHHOutput
from repro.exceptions import ConfigurationError
from repro.hh.base import CounterAlgorithm, TrackedEntries
from repro.hierarchy.base import Hierarchy, PrefixKey

#: A function mapping an internal ``(node, value)`` prefix to a frequency bound.
BoundFn = Callable[[PrefixKey], float]


class SelectedIndex:
    """Masked-value index of selected HHH prefixes for fast ``G(p|P)`` queries.

    ``Hierarchy.closest_descendants`` scans the *whole* selected set (one
    ``is_proper_ancestor`` each) for every candidate prefix, which makes the
    Output procedure quadratic in the candidate count - painful at small
    theta, where hundreds of prefixes pass the threshold.  This index caps
    that scan two ways:

    * selected prefixes are grouped by lattice node, and a query skips whole
      groups whose node cannot be generalized to the query node at all
      (node-to-node reachability is value-independent by the
      :meth:`~repro.hierarchy.base.Hierarchy.generalize_prefix` contract -
      ``None`` means the *nodes* are incomparable - so one probe per node
      pair is cached);
    * within a reachable group, candidates are bucketed by their value masked
      to the query node, built lazily once per ``(candidate node, query
      node)`` pair and kept current by :meth:`add`.  A prefix ``p``
      generalizes exactly the candidates in the bucket of ``p``'s own value,
      so each query is one dict lookup per reachable node instead of a pass
      over every selected prefix.

    Results are returned in selection (insertion) order - exactly the order
    the unindexed reference produces - so the floating-point summations in
    ``calc_pred`` are bit-identical to the reference; the parity tests pin
    this.
    """

    def __init__(self, hierarchy: Hierarchy) -> None:
        self._hierarchy = hierarchy
        self._by_node: Dict[int, List[Tuple[int, PrefixKey]]] = {}
        self._order = 0
        #: (candidate node, query node) -> can any prefix at candidate node be
        #: masked to query node?
        self._node_reaches: Dict[Tuple[int, int], bool] = {}
        #: candidate node -> query node -> {masked value: [(order, prefix)]}
        self._masked: Dict[int, Dict[int, Dict]] = {}

    def __len__(self) -> int:
        return self._order

    def add(self, prefix: PrefixKey) -> None:
        """Record a newly selected prefix (and refresh the lazy mask buckets)."""
        node = prefix[0]
        entry = (self._order, prefix)
        self._by_node.setdefault(node, []).append(entry)
        self._order += 1
        for query_node, buckets in self._masked.get(node, {}).items():
            masked = self._hierarchy.generalize_prefix(prefix, query_node)
            buckets.setdefault(masked, []).append(entry)

    def _buckets(self, candidate_node: int, query_node: int) -> Dict:
        """The masked-value buckets of one reachable node pair (built lazily)."""
        by_query = self._masked.setdefault(candidate_node, {})
        buckets = by_query.get(query_node)
        if buckets is None:
            buckets = by_query[query_node] = {}
            generalize_prefix = self._hierarchy.generalize_prefix
            for entry in self._by_node[candidate_node]:
                buckets.setdefault(generalize_prefix(entry[1], query_node), []).append(entry)
        return buckets

    def _reaches(self, candidate_node: int, query_node: int) -> bool:
        """Can a prefix at ``candidate_node`` be masked to ``query_node`` (cached per pair)?"""
        pair = (candidate_node, query_node)
        compatible = self._node_reaches.get(pair)
        if compatible is None:
            probe = self._by_node[candidate_node][0][1]
            compatible = self._hierarchy.generalize_prefix(probe, query_node) is not None
            self._node_reaches[pair] = compatible
        return compatible

    def descendant_values(self, node: int) -> Set:
        """The values at ``node`` that generalize at least one selected prefix of another node.

        Every selected prefix masked to ``node``: exactly the values whose
        ``G(p|P)`` is non-empty, hence the only ones with a nonzero
        ``calcPred``.
        """
        values: Set = set()
        for candidate_node in self._by_node:
            if candidate_node != node and self._reaches(candidate_node, node):
                values.update(self._buckets(candidate_node, node))
        return values

    def closest_descendants(self, prefix: PrefixKey) -> List[PrefixKey]:
        """``G(prefix | selected)``, identical to the unindexed reference.

        Equivalent to ``hierarchy.closest_descendants(prefix, selected)`` with
        ``selected`` in insertion order, but resolved through the node-pair
        reachability cache and the masked-value buckets.
        """
        node, value = prefix
        hierarchy = self._hierarchy
        below: List[Tuple[int, PrefixKey]] = []
        for candidate_node in self._by_node:
            if not self._reaches(candidate_node, node):
                continue
            for entry in self._buckets(candidate_node, node).get(value, ()):
                if entry[1] != prefix:
                    below.append(entry)
        below.sort()
        candidates = [candidate for _, candidate in below]
        return [
            c
            for c in candidates
            if not any(
                other != c and hierarchy.is_proper_ancestor(other, c) for other in candidates
            )
        ]


def validate_theta(theta: float) -> float:
    """Validate the HHH threshold fraction and return it.

    Every ``output(theta)`` entry point shares this check: a ``theta`` outside
    ``(0, 1]`` would make the ``theta * N`` threshold non-positive (reporting
    everything) or unreachable (reporting nothing) without any error - the
    classic silent-garbage failure mode.

    Raises:
        ConfigurationError: when ``theta`` is not in ``(0, 1]``.
    """
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise ConfigurationError(f"theta must be a number in (0, 1], got {theta!r}")
    if not 0.0 < theta <= 1.0:
        raise ConfigurationError(f"theta must be in (0, 1], got {theta}")
    return float(theta)


def calc_pred(
    hierarchy: Hierarchy,
    prefix: PrefixKey,
    selected: Sequence[PrefixKey],
    lower_bound: BoundFn,
    upper_bound: BoundFn,
) -> float:
    """Compute the predecessor adjustment of the conditioned-frequency estimate.

    In one dimension this is Algorithm 2: subtract the lower-bound frequency of
    every already-selected HHH that ``prefix`` most closely generalizes
    (``G(p|P)``).  In two dimensions this is Algorithm 3: additionally add back
    the upper-bound frequency of the greatest lower bound of every pair of such
    prefixes (inclusion-exclusion), unless a third member of ``G(p|P)``
    already generalizes that glb.

    Args:
        hierarchy: the hierarchical domain.
        prefix: the candidate prefix ``p`` as a ``(node, value)`` tuple.
        selected: the already-selected HHH prefixes ``P``.
        lower_bound: maps a prefix to a lower bound of its frequency (``f^-``).
        upper_bound: maps a prefix to an upper bound of its frequency (``f^+``).

    Returns:
        the (usually negative) adjustment ``R`` to add to ``f^+_p``.
    """
    closest = hierarchy.closest_descendants(prefix, selected)
    return _pred_sum(closest, _glb_terms(hierarchy, closest), lower_bound, upper_bound)


def _glb_terms(hierarchy: Hierarchy, closest: Sequence[PrefixKey]) -> List[PrefixKey]:
    """The glbs whose upper bounds Algorithm 3 adds back for ``G(p|P) = closest``, in order.

    One per pair of ``closest`` with a glb that no third member generalizes;
    none in one dimension.
    """
    added: List[PrefixKey] = []
    if hierarchy.dimensions >= 2 and len(closest) >= 2:
        for i in range(len(closest)):
            for j in range(i + 1, len(closest)):
                h, h_prime = closest[i], closest[j]
                q = hierarchy.glb(h, h_prime)
                if q is None:
                    continue
                covered_by_third = any(
                    h3 not in (h, h_prime) and hierarchy.is_ancestor(h3, q) for h3 in closest
                )
                if not covered_by_third:
                    added.append(q)
    return added


def _pred_sum(
    closest: Sequence[PrefixKey],
    added: Sequence[PrefixKey],
    lower_bound: BoundFn,
    upper_bound: BoundFn,
) -> float:
    """The adjustment ``R``: subtract each ``closest`` lower bound, then add each glb upper bound."""
    result = 0.0
    for h in closest:
        result -= lower_bound(h)
    for q in added:
        result += upper_bound(q)
    return result


def conditioned_frequency_estimate(
    hierarchy: Hierarchy,
    prefix: PrefixKey,
    selected: Sequence[PrefixKey],
    lower_bound: BoundFn,
    upper_bound: BoundFn,
    correction: float,
) -> float:
    """Conservative conditioned-frequency estimate ``C^_{p|P}`` (Algorithm 1, lines 12-13)."""
    return upper_bound(prefix) + calc_pred(hierarchy, prefix, selected, lower_bound, upper_bound) + correction


def _no_output(hierarchy: Hierarchy, counters: Sequence[CounterAlgorithm], theta: float, total: int):
    """Check the lattice shape; the empty report when ``total`` is 0, else ``None``."""
    if len(counters) != hierarchy.size:
        raise ValueError(
            f"expected {hierarchy.size} counter instances (one per lattice node), got {len(counters)}"
        )
    if total == 0:
        # An empty stream has no heavy hitters.  Without this, threshold
        # would be 0.0 and any counter residue (state restored from a
        # checkpoint before feeding, a template holding merged counters)
        # would select every tracked prefix.
        return HHHOutput(candidates=[], total=total, threshold=theta * total)
    return None


def lattice_output(
    hierarchy: Hierarchy,
    counters: Sequence[CounterAlgorithm],
    theta: float,
    total: int,
    *,
    scale: float = 1.0,
    correction: float = 0.0,
) -> HHHOutput:
    """Run the Output procedure over a per-lattice-node array of counter summaries.

    Scans lattice nodes from the most specific to the most general (the order
    Definition 8 builds the exact HHH set in), computes the conservative
    conditioned frequency of every tracked prefix against the already-selected
    set ``P``, and selects prefixes whose estimate reaches ``theta * total``.

    Each node is one array step.  Its entries' estimates start as
    ``f+ + correction``; the entries that generalize a prefix selected at an
    earlier node get ``(f+ + calcPred) + correction`` instead, computed in
    Python through :class:`SelectedIndex` with the reference's float
    operations.  Two prefixes of one node are never each other's
    descendants, so the whole node is then tested at once, and the selected
    entries are reported in the counter's iteration order.  Bit-identical to
    :func:`lattice_output_reference`.

    Args:
        hierarchy: the hierarchical domain.
        counters: one counter summary per lattice node (indexed by node).
        theta: threshold fraction.
        total: stream length ``N``.
        scale: multiplier converting raw counter values to stream-level
            frequencies (``V`` for RHHH, 1 for MST).
        correction: additive sampling-error compensation in stream-level units.

    Returns:
        an :class:`~repro.core.base.HHHOutput` with the selected candidates.
    """
    empty = _no_output(hierarchy, counters, theta, total)
    if empty is not None:
        return empty
    threshold = theta * total
    tracked: Dict[int, TrackedEntries] = {}
    #: Scaled ``(upper, lower)`` bounds of every selected prefix and of every
    #: glb prefix a ``calcPred`` adds back.
    known: Dict[PrefixKey, Tuple[float, float]] = {}

    def entries_of(node: int) -> TrackedEntries:
        entries = tracked.get(node)
        if entries is None:
            entries = tracked[node] = counters[node].tracked_entries()
        return entries

    def learn(prefixes: Sequence[PrefixKey]) -> None:
        """Record the bounds of the not yet known ``prefixes``, one lookup per lattice node."""
        by_node: Dict[int, Set] = {}
        for node, value in prefixes:
            if (node, value) not in known:
                by_node.setdefault(node, set()).add(value)
        for node, value_set in by_node.items():
            values = list(value_set)
            for value, (up, lo) in zip(values, entries_of(node).bounds(values)):
                known[(node, value)] = (up * scale, lo * scale)

    def upper(prefix: PrefixKey) -> float:
        return known[prefix][0]

    def lower(prefix: PrefixKey) -> float:
        return known[prefix][1]

    index = SelectedIndex(hierarchy)
    candidates: List[HHHCandidate] = []
    for node in hierarchy.output_order():
        entries = entries_of(node)
        if not len(entries):
            continue
        uppers = entries.upper * scale
        estimates = uppers + correction
        values = list(index.descendant_values(node))
        where = entries.positions(values)
        preds = []
        for i in np.flatnonzero(where >= 0).tolist():
            closest = index.closest_descendants((node, values[i]))
            preds.append((int(where[i]), closest, _glb_terms(hierarchy, closest)))
        learn([q for _, _, added in preds for q in added])
        for position, closest, added in preds:
            pred = _pred_sum(closest, added, lower, upper)
            estimates[position] = float(uppers[position]) + pred + correction
        chosen = np.flatnonzero(estimates >= threshold)
        if not chosen.size:
            continue
        for value, lo, up, estimate in zip(
            entries.keys_at(chosen),
            (entries.lower[chosen] * scale).tolist(),
            uppers[chosen].tolist(),
            estimates[chosen].tolist(),
        ):
            prefix = (node, value)
            candidates.append(
                HHHCandidate(
                    prefix=hierarchy.to_prefix(prefix),
                    lower_bound=lo,
                    upper_bound=up,
                    conditioned_estimate=estimate,
                )
            )
            known[prefix] = (up, lo)
            index.add(prefix)
    return HHHOutput(candidates=candidates, total=total, threshold=threshold)


def lattice_output_reference(
    hierarchy: Hierarchy,
    counters: Sequence[CounterAlgorithm],
    theta: float,
    total: int,
    *,
    scale: float = 1.0,
    correction: float = 0.0,
) -> HHHOutput:
    """Scalar twin of :func:`lattice_output`: one conditioned estimate per tracked entry.

    Walks every tracked value of every node and resolves ``G(p|P)`` with the
    unindexed ``hierarchy.closest_descendants`` scan over everything
    selected so far - the Output procedure as the paper states it, and the
    specification the array pass is pinned against.
    """
    empty = _no_output(hierarchy, counters, theta, total)
    if empty is not None:
        return empty
    threshold = theta * total

    def upper(prefix: PrefixKey) -> float:
        node, value = prefix
        return counters[node].upper_bound(value) * scale

    def lower(prefix: PrefixKey) -> float:
        node, value = prefix
        return counters[node].lower_bound(value) * scale

    selected: List[PrefixKey] = []
    candidates: List[HHHCandidate] = []
    for node in hierarchy.output_order():
        for value in list(counters[node]):
            prefix: PrefixKey = (node, value)
            estimate = conditioned_frequency_estimate(
                hierarchy, prefix, selected, lower, upper, correction
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
    return HHHOutput(candidates=candidates, total=total, threshold=threshold)


#: What a lattice algorithm accepts as its ``counter`` argument: a registered
#: backend name, a :class:`~repro.api.specs.CounterSpec`, or a bare
#: ``factory(epsilon) -> CounterAlgorithm`` callable.
CounterLike = Union[str, "CounterSpec", Callable[[float], CounterAlgorithm]]  # noqa: F821


def prepare_counter_factory(counter: CounterLike, epsilon: float) -> Callable[[], CounterAlgorithm]:
    """Return a zero-argument factory producing fresh counters for ``counter``.

    The spec is resolved **once** - so an epsilon clamp or an ``auto``
    backend choice (and its warning) happens once per algorithm, not once
    per lattice node - and the returned factory then builds identical
    independent instances.  ``epsilon`` is the per-counter error target the
    owning algorithm resolved; a ``CounterSpec`` that pins its own
    ``epsilon`` wins over it.
    """
    if callable(counter) and not isinstance(counter, str):
        return lambda: counter(epsilon)
    # Late import: repro.api.registry imports the algorithm modules, which
    # import this module - the cycle only resolves at call time.
    from repro.api.registry import resolved_counter_factory
    from repro.api.specs import CounterSpec

    spec = CounterSpec(name=counter) if isinstance(counter, str) else counter
    return resolved_counter_factory(spec.resolve(default_epsilon=epsilon))

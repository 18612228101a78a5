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

The module also owns the *incremental* query engine behind repeated
``output(theta)`` calls: engines stamp a per-lattice-node version counter on
every update, and an :class:`OutputCache` keeps the previous pass per theta -
every tracked prefix's bounds, its ``calcPred`` adjustment together with the
lattice nodes that adjustment read bounds from, and the selection sequence.
A re-query then recomputes only the prefixes whose inputs changed: dirty
nodes are re-enumerated, a cached adjustment is reused only while the
selection-so-far still matches the previous pass and every node it read is
clean, and the first selection divergence invalidates everything downstream
of it.  The incremental pass is bit-identical to the from-scratch pass (the
streaming-parity suite pins this): the threshold and correction are
recomputed fresh every pass, cached adjustments are exact floats of the
reference computation, and the lazily rebuilt :class:`SelectedIndex` replays
selections in the same insertion order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.base import HHHCandidate, HHHOutput
from repro.exceptions import ConfigurationError
from repro.hh.base import CounterAlgorithm
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
        #: (candidate node, query node) -> {masked value: [(order, prefix)]}
        self._masked: Dict[Tuple[int, int], Dict] = {}

    def __len__(self) -> int:
        return self._order

    def add(self, prefix: PrefixKey) -> None:
        """Record a newly selected prefix (and refresh the lazy mask buckets)."""
        node = prefix[0]
        entry = (self._order, prefix)
        self._by_node.setdefault(node, []).append(entry)
        self._order += 1
        for (candidate_node, query_node), buckets in self._masked.items():
            if candidate_node == node:
                masked = self._hierarchy.generalize_prefix(prefix, query_node)
                buckets.setdefault(masked, []).append(entry)

    def _buckets(self, candidate_node: int, query_node: int) -> Dict:
        """The masked-value buckets of one reachable node pair (built lazily)."""
        pair = (candidate_node, query_node)
        buckets = self._masked.get(pair)
        if buckets is None:
            buckets = {}
            generalize_prefix = self._hierarchy.generalize_prefix
            for entry in self._by_node[candidate_node]:
                buckets.setdefault(generalize_prefix(entry[1], query_node), []).append(entry)
            self._masked[pair] = buckets
        return buckets

    def closest_descendants(self, prefix: PrefixKey) -> List[PrefixKey]:
        """``G(prefix | selected)``, identical to the unindexed reference.

        Equivalent to ``hierarchy.closest_descendants(prefix, selected)`` with
        ``selected`` in insertion order, but resolved through the node-pair
        reachability cache and the masked-value buckets.
        """
        node, value = prefix
        hierarchy = self._hierarchy
        reaches = self._node_reaches
        below: List[Tuple[int, PrefixKey]] = []
        for candidate_node, entries in self._by_node.items():
            compatible = reaches.get((candidate_node, node))
            if compatible is None:
                compatible = hierarchy.generalize_prefix(entries[0][1], node) is not None
                reaches[(candidate_node, node)] = compatible
            if not compatible:
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
    return _pred_from_closest(hierarchy, closest, lower_bound, upper_bound)


def _pred_from_closest(
    hierarchy: Hierarchy,
    closest: Sequence[PrefixKey],
    lower_bound: BoundFn,
    upper_bound: BoundFn,
) -> float:
    """The adjustment ``R`` given an already-computed ``G(p|P)`` set."""
    result = 0.0
    for h in closest:
        result -= lower_bound(h)
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
                    result += upper_bound(q)
    return result


def _pred_with_deps(
    hierarchy: Hierarchy,
    closest: Sequence[PrefixKey],
    lower_bound: BoundFn,
    upper_bound: BoundFn,
    deps: set,
) -> float:
    """:func:`_pred_from_closest` with dependency tracking for the output cache.

    Performs the exact floating-point operations of the reference, in the
    same order, and additionally records into ``deps`` the lattice node of
    every prefix whose bound the adjustment read - the nodes whose counter
    state the cached value depends on.
    """
    result = 0.0
    for h in closest:
        result -= lower_bound(h)
        deps.add(h[0])
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
                    result += upper_bound(q)
                    deps.add(q[0])
    return result


class _Entry:
    """One tracked prefix of a cached Output pass.

    ``lower``/``upper`` are the scaled frequency bounds at pass time (valid
    while the prefix's own node is clean); ``pred`` is the ``calcPred``
    adjustment and ``deps`` the lattice nodes it read bounds from (valid
    while the selection-so-far matches the cached pass and every dep node is
    clean); ``prefix_obj`` memoises the formatted
    :meth:`~repro.hierarchy.base.Hierarchy.to_prefix` object of selected
    prefixes (pure function of the prefix key, so reusable forever).
    """

    __slots__ = ("value", "lower", "upper", "pred", "deps", "prefix_obj")

    def __init__(self, value, lower: float, upper: float, pred: float, deps: Tuple[int, ...], prefix_obj) -> None:
        self.value = value
        self.lower = lower
        self.upper = upper
        self.pred = pred
        self.deps = deps
        self.prefix_obj = prefix_obj


class _CachedPass:
    """The reusable state of one completed Output pass at one theta."""

    __slots__ = ("versions", "scale", "node_entries", "node_selected")

    def __init__(
        self,
        versions: List[int],
        scale: float,
        node_entries: List[Optional[List[_Entry]]],
        node_selected: List[Optional[list]],
    ) -> None:
        self.versions = versions
        self.scale = scale
        self.node_entries = node_entries
        self.node_selected = node_selected


class OutputCache:
    """Per-theta memo of the last Output pass, for incremental re-queries.

    Owned by a lattice engine and handed to :func:`lattice_output` together
    with the engine's per-node version counters; everything else (storage,
    lookup, eviction, invalidation) is internal.  One cached pass is kept per
    distinct theta, up to ``max_thetas`` (least-recently-queried evicted
    beyond that), because the selection sequence - and therefore every
    cached adjustment - depends on the threshold.

    :meth:`invalidate` drops every pass; engines call it whenever counter
    state is replaced wholesale (checkpoint restore), since version counters
    from a different timeline could coincidentally match.
    """

    __slots__ = ("_passes", "_max_thetas")

    def __init__(self, max_thetas: int = 8) -> None:
        self._passes: "OrderedDict[float, _CachedPass]" = OrderedDict()
        self._max_thetas = max_thetas

    def invalidate(self) -> None:
        """Forget every cached pass (the next query recomputes from scratch)."""
        self._passes.clear()

    def _pass_for(self, theta: float) -> Optional[_CachedPass]:
        cached = self._passes.get(theta)
        if cached is not None:
            self._passes.move_to_end(theta)
        return cached

    def _store(self, theta: float, pass_: _CachedPass) -> None:
        self._passes[theta] = pass_
        self._passes.move_to_end(theta)
        while len(self._passes) > self._max_thetas:
            self._passes.popitem(last=False)


def _deps_clean(deps: Tuple[int, ...], versions: Sequence[int], prev_versions: Sequence[int]) -> bool:
    """True when every lattice node a cached adjustment read is unchanged."""
    for node in deps:
        if versions[node] != prev_versions[node]:
            return False
    return True


def _incremental_output(
    hierarchy: Hierarchy,
    counters: Sequence[CounterAlgorithm],
    theta: float,
    total: int,
    scale: float,
    correction: float,
    versions: Sequence[int],
    cache: OutputCache,
) -> HHHOutput:
    """The Output procedure against a cached previous pass (bit-identical).

    Invalidation model (the streaming-parity suite pins every clause):

    * the threshold and the correction depend on ``total``, which moves on
      every update - both are recomputed fresh each pass, never cached;
    * a *clean* node (version unchanged) keeps its value enumeration and
      scaled bounds; a dirty node is re-enumerated and its bounds recomputed;
    * a cached ``calcPred`` adjustment is reused only while (a) the selection
      sequence of every earlier node matches the cached pass (same-node
      selections can never be each other's closest descendants, so
      within-node divergence does not invalidate within-node adjustments)
      and (b) every node the adjustment read bounds from is clean;
    * the first node whose selection list diverges flips ``matching`` off,
      forcing fresh adjustments for everything downstream against a
      :class:`SelectedIndex` rebuilt from the current selections in
      insertion order.
    """
    threshold = theta * total
    prev = cache._pass_for(theta)
    if prev is not None and prev.scale != scale:
        prev = None
    prev_versions = prev.versions if prev is not None else None

    def upper(prefix: PrefixKey) -> float:
        node, value = prefix
        return counters[node].upper_bound(value) * scale

    def lower(prefix: PrefixKey) -> float:
        node, value = prefix
        return counters[node].lower_bound(value) * scale

    selected: List[PrefixKey] = []
    index: Optional[SelectedIndex] = None
    candidates: List[HHHCandidate] = []
    size = hierarchy.size
    new_entries: List[Optional[List[_Entry]]] = [None] * size
    new_selected: List[Optional[list]] = [None] * size
    matching = prev is not None

    def fresh_pred(prefix: PrefixKey) -> Tuple[float, Tuple[int, ...]]:
        nonlocal index
        if index is None:
            index = SelectedIndex(hierarchy)
            for p in selected:
                index.add(p)
        deps: set = set()
        pred = _pred_with_deps(
            hierarchy, index.closest_descendants(prefix), lower, upper, deps
        )
        return pred, tuple(deps)

    for node in hierarchy.output_order():
        node_clean = prev_versions is not None and versions[node] == prev_versions[node]
        prev_node_entries = prev.node_entries[node] if prev is not None else None
        node_selected: list = []
        if node_clean:
            # Values and bounds are valid even when the selection diverged;
            # only the adjustments are conditionally reusable.
            entries = prev_node_entries
            for entry in entries:
                if matching and _deps_clean(entry.deps, versions, prev_versions):
                    pred = entry.pred
                else:
                    pred, deps = fresh_pred((node, entry.value))
                    entry.pred = pred
                    entry.deps = deps
                estimate = entry.upper + pred + correction
                if estimate >= threshold:
                    value = entry.value
                    prefix = (node, value)
                    selected.append(prefix)
                    if index is not None:
                        index.add(prefix)
                    node_selected.append(value)
                    if entry.prefix_obj is None:
                        entry.prefix_obj = hierarchy.to_prefix(prefix)
                    candidates.append(
                        HHHCandidate(
                            prefix=entry.prefix_obj,
                            lower_bound=entry.lower,
                            upper_bound=entry.upper,
                            conditioned_estimate=estimate,
                        )
                    )
        else:
            prev_by_value = (
                {entry.value: entry for entry in prev_node_entries}
                if prev_node_entries is not None
                else None
            )
            entries = []
            for value in list(counters[node]):
                prefix = (node, value)
                up = upper(prefix)
                lo = lower(prefix)
                prev_entry = prev_by_value.get(value) if prev_by_value is not None else None
                # The adjustment reads *other* prefixes' bounds, never this
                # node's own counter, so it survives this node's dirtiness.
                if (
                    matching
                    and prev_entry is not None
                    and _deps_clean(prev_entry.deps, versions, prev_versions)
                ):
                    pred = prev_entry.pred
                    deps = prev_entry.deps
                else:
                    pred, deps = fresh_pred(prefix)
                prefix_obj = prev_entry.prefix_obj if prev_entry is not None else None
                entry = _Entry(value, lo, up, pred, deps, prefix_obj)
                entries.append(entry)
                estimate = up + pred + correction
                if estimate >= threshold:
                    selected.append(prefix)
                    if index is not None:
                        index.add(prefix)
                    node_selected.append(value)
                    if entry.prefix_obj is None:
                        entry.prefix_obj = hierarchy.to_prefix(prefix)
                    candidates.append(
                        HHHCandidate(
                            prefix=entry.prefix_obj,
                            lower_bound=lo,
                            upper_bound=up,
                            conditioned_estimate=estimate,
                        )
                    )
        new_entries[node] = entries
        new_selected[node] = node_selected
        if matching and node_selected != prev.node_selected[node]:
            matching = False
    cache._store(
        theta, _CachedPass(list(versions), scale, new_entries, new_selected)
    )
    return HHHOutput(candidates=candidates, total=total, threshold=threshold)


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


def lattice_output(
    hierarchy: Hierarchy,
    counters: Sequence[CounterAlgorithm],
    theta: float,
    total: int,
    *,
    scale: float = 1.0,
    correction: float = 0.0,
    use_index: bool = True,
    versions: Optional[Sequence[int]] = None,
    cache: Optional[OutputCache] = None,
) -> HHHOutput:
    """Run the Output procedure over a per-lattice-node array of counter summaries.

    Scans lattice nodes from the most specific to the most general (the order
    Definition 8 builds the exact HHH set in), computes the conservative
    conditioned frequency of every tracked prefix against the already-selected
    set ``P``, and selects prefixes whose estimate reaches ``theta * total``.

    Args:
        hierarchy: the hierarchical domain.
        counters: one counter summary per lattice node (indexed by node).
        theta: threshold fraction.
        total: stream length ``N``.
        scale: multiplier converting raw counter values to stream-level
            frequencies (``V`` for RHHH, 1 for MST).
        correction: additive sampling-error compensation in stream-level units.
        use_index: resolve ``G(p|P)`` through a :class:`SelectedIndex`
            (default) instead of the unindexed
            ``hierarchy.closest_descendants`` scan; both produce bit-identical
            outputs (the parity tests pin this) - the flag exists so the
            reference path stays exercised and comparable.
        versions: per-lattice-node update counters maintained by the engine;
            together with ``cache`` this routes the query through the
            incremental pass (bit-identical to the from-scratch scan, pinned
            by the streaming-parity suite).  ``None`` (either one) keeps the
            from-scratch path.
        cache: the engine's persistent :class:`OutputCache`.

    Returns:
        an :class:`~repro.core.base.HHHOutput` with the selected candidates.
    """
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
    if versions is not None and cache is not None:
        return _incremental_output(
            hierarchy, counters, theta, total, scale, correction, versions, cache
        )
    threshold = theta * total

    def upper(prefix: PrefixKey) -> float:
        node, value = prefix
        return counters[node].upper_bound(value) * scale

    def lower(prefix: PrefixKey) -> float:
        node, value = prefix
        return counters[node].lower_bound(value) * scale

    selected: List[PrefixKey] = []
    index: Optional[SelectedIndex] = SelectedIndex(hierarchy) if use_index else None
    candidates: List[HHHCandidate] = []
    for node in hierarchy.output_order():
        for value in list(counters[node]):
            prefix: PrefixKey = (node, value)
            if index is not None:
                closest = index.closest_descendants(prefix)
                estimate = upper(prefix) + _pred_from_closest(
                    hierarchy, closest, lower, upper
                ) + correction
            else:
                estimate = conditioned_frequency_estimate(
                    hierarchy, prefix, selected, lower, upper, correction
                )
            if estimate >= threshold:
                selected.append(prefix)
                if index is not None:
                    index.add(prefix)
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

"""Common interface of the heavy-hitter counter algorithms.

The RHHH algorithm (and the MST baseline) are parameterised by an arbitrary
counter algorithm satisfying the paper's Definition 4: an ``(epsilon_a,
delta_a)``-Frequency Estimation solver that can also enumerate heavy hitters
(Definition 5).  :class:`CounterAlgorithm` captures exactly that contract.

Keys are arbitrary hashable objects; in the HHH code they are integers (masked
addresses) or pairs of integers (masked source/destination addresses).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: The registered counter backend a lattice algorithm (RHHH, 10-RHHH, MST,
#: SampledMST) runs when none is named: the array Space Saving summary,
#: fastest on the batch engine in both the hit-dominated and the eviction
#: regime.  ``"space_saving"`` names the paper's O(1) linked stream summary.
DEFAULT_COUNTER = "array_space_saving"


def unmergeable_error(counter: object) -> ConfigurationError:
    """The error for a counter backend that keeps the protocol-default ``merge``."""
    return ConfigurationError(
        f"counter backend {type(counter).__name__} does not implement merge(); "
        "sharded execution requires a mergeable counter backend"
    )


@dataclass(frozen=True)
class HeavyHitter:
    """A single heavy-hitter report.

    Attributes:
        key: the reported item.
        estimate: the algorithm's point estimate of the item's count.
        upper_bound: a value that is >= the true count (subject to the
            algorithm's own guarantee).
        lower_bound: a value that is <= the true count.
    """

    key: Hashable
    estimate: float
    upper_bound: float
    lower_bound: float

    def error_width(self) -> float:
        """Return the width of the [lower_bound, upper_bound] interval."""
        return self.upper_bound - self.lower_bound


class FrequencyEstimator(abc.ABC):
    """Abstract frequency estimator (Definition 4 of the paper).

    Subclasses must implement :meth:`update`, :meth:`estimate`,
    :meth:`upper_bound`, :meth:`lower_bound` and :meth:`__iter__` (iteration
    over currently tracked keys).  The default implementations of the
    remaining methods are derived from those primitives.
    """

    def __init__(self) -> None:
        self._total = 0

    @property
    def total(self) -> int:
        """Total weight of all updates observed so far."""
        return self._total

    @abc.abstractmethod
    def update(self, key: Hashable, weight: int = 1) -> None:
        """Account ``weight`` arrivals of ``key``."""

    @abc.abstractmethod
    def estimate(self, key: Hashable) -> float:
        """Return the point estimate of ``key``'s count."""

    @abc.abstractmethod
    def upper_bound(self, key: Hashable) -> float:
        """Return an upper bound on ``key``'s count."""

    @abc.abstractmethod
    def lower_bound(self, key: Hashable) -> float:
        """Return a lower bound on ``key``'s count."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[Hashable]:
        """Iterate over the keys currently tracked by the summary."""

    def __contains__(self, key: Hashable) -> bool:
        return any(k == key for k in self)

    def update_many(self, keys: Iterable[Hashable]) -> None:
        """Convenience helper: update once for every key in ``keys``."""
        for key in keys:
            self.update(key)

    def update_batch(self, items: Iterable[Tuple[Hashable, int]]) -> None:
        """Apply a batch of aggregated ``(key, weight)`` updates.

        The batch engine pre-aggregates duplicate keys so each distinct key
        arrives as a single weighted update.  The default implementation is a
        sequential fallback over :meth:`update`; implementations with a cheap
        monitored-key fast path may override it with a tighter loop.
        """
        for key, weight in items:
            self.update(key, weight)

    def merge(self, other: "FrequencyEstimator", *, disjoint: bool = False) -> None:
        """Fold ``other``'s summary into this one (the sharded-reduction step).

        After the merge this summary describes the concatenation of both input
        streams: ``total`` is the sum of the totals, and every key's estimate
        stays within the *sum* of the two summaries' error bounds of the key's
        exact combined count (each backend documents its exact guarantee).

        Args:
            other: a summary of the same backend with compatible parameters
                (same capacity for the table summaries, same table geometry
                and hash functions for the sketches).
            disjoint: promise that the two summaries saw disjoint key sets
                (the hash-partitioned shard case).  Mergers that charge an
                absent key the other summary's worst-case residual (Space
                Saving) skip that inflation, tightening the merged error to
                the per-shard bound; backends where the flag changes nothing
                accept and ignore it.

        Raises:
            ConfigurationError: when the backend does not support merging or
                the two summaries' parameters are incompatible.
        """
        raise unmergeable_error(self)


class TrackedEntries:
    """A summary's tracked keys and their frequency bounds, in iteration order.

    What the Output pass reads from a counter: ``upper`` and ``lower`` are
    float64 arrays holding ``upper_bound``/``lower_bound`` of each tracked
    key, position ``i`` being the ``i``-th key ``iter(counter)`` yields.
    Keys are looked up and materialized only where the pass asks for them.
    This default holds the key list itself; a backend with array state may
    return a subclass that resolves keys from its own arrays instead.
    """

    def __init__(
        self, counter: "CounterAlgorithm", keys: Sequence[Hashable], upper: np.ndarray, lower: np.ndarray
    ) -> None:
        self.upper = upper
        self.lower = lower
        self._counter = counter
        self._keys = keys
        self._position: Optional[Dict[Hashable, int]] = None

    def __len__(self) -> int:
        return len(self.upper)

    def keys_at(self, positions: np.ndarray) -> list:
        """The keys at ``positions``, in that order."""
        keys = self._keys
        return [keys[position] for position in positions.tolist()]

    def positions(self, keys: Sequence[Hashable]) -> np.ndarray:
        """The position of each of ``keys`` (``-1`` for a key the summary does not track)."""
        position_of = self._position
        if position_of is None:
            position_of = self._position = {key: i for i, key in enumerate(self._keys)}
        return np.fromiter((position_of.get(key, -1) for key in keys), dtype=np.int64, count=len(keys))

    def bounds(self, keys: Sequence[Hashable]) -> List[Tuple[float, float]]:
        """``(upper_bound, lower_bound)`` of each of ``keys``, tracked or not."""
        return [
            (float(self.upper[position]), float(self.lower[position]))
            if position >= 0
            else self._untracked_bounds(key)
            for position, key in zip(self.positions(keys).tolist(), keys)
        ]

    def _untracked_bounds(self, key: Hashable) -> Tuple[float, float]:
        return self._counter.upper_bound(key), self._counter.lower_bound(key)


class CounterAlgorithm(FrequencyEstimator):
    """A frequency estimator that can also enumerate heavy hitters.

    This corresponds to the combination of Definitions 4 and 5 in the paper:
    the minimal requirement for an algorithm to be pluggable into RHHH.
    """

    @abc.abstractmethod
    def counters(self) -> int:
        """Number of counters (table entries) used by the summary."""

    def tracked_entries(self) -> TrackedEntries:
        """The tracked keys with their bounds, in iteration order (the Output pass's read)."""
        keys = list(self)
        return TrackedEntries(
            self,
            keys,
            np.array([self.upper_bound(key) for key in keys], dtype=np.float64),
            np.array([self.lower_bound(key) for key in keys], dtype=np.float64),
        )

    def heavy_hitters(self, threshold: float) -> List[HeavyHitter]:
        """Return every tracked key whose upper-bound count reaches ``threshold``.

        Using the upper bound makes the report conservative: no true heavy
        hitter can be missed among the tracked keys, at the price of possible
        false positives (which the HHH output procedure tolerates by design).
        """
        result: List[HeavyHitter] = []
        for key in self:
            ub = self.upper_bound(key)
            if ub >= threshold:
                result.append(
                    HeavyHitter(
                        key=key,
                        estimate=self.estimate(key),
                        upper_bound=ub,
                        lower_bound=self.lower_bound(key),
                    )
                )
        result.sort(key=lambda h: h.estimate, reverse=True)
        return result

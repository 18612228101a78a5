"""Shared interface of every hierarchical-heavy-hitter algorithm in the library.

Both the paper's contribution (:class:`repro.core.rhhh.RHHH`) and the baseline
algorithms (:mod:`repro.hhh`) implement :class:`HHHAlgorithm`, so the
evaluation harness, the examples and the simulated switch can treat them
interchangeably.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence

import numpy as np

from repro.core.batch import coerce_weights
from repro.hierarchy.base import Hierarchy
from repro.hierarchy.prefix import Prefix


@dataclass(frozen=True)
class HHHCandidate:
    """One hierarchical-heavy-hitter report produced by an Output call.

    Attributes:
        prefix: the reported prefix (lattice node + masked value + rendering).
        lower_bound: lower bound on the prefix's frequency (``f^-`` in the paper).
        upper_bound: upper bound on the prefix's frequency (``f^+``).
        conditioned_estimate: the conservative conditioned-frequency estimate
            ``C^`` that made this prefix pass the ``theta * N`` test.
    """

    prefix: Prefix
    lower_bound: float
    upper_bound: float
    conditioned_estimate: float = 0.0

    @property
    def estimate(self) -> float:
        """Midpoint frequency estimate."""
        return (self.lower_bound + self.upper_bound) / 2.0

    def __str__(self) -> str:
        return (
            f"{self.prefix.text or self.prefix} "
            f"[{self.lower_bound:.0f}, {self.upper_bound:.0f}] "
            f"(conditioned >= {self.conditioned_estimate:.0f})"
        )


@dataclass
class HHHOutput:
    """The full result of an Output call.

    Attributes:
        candidates: the reported prefixes, in the order they were selected
            (most specific levels first).
        total: stream length ``N`` at the time of the call.
        threshold: the absolute frequency threshold ``theta * N`` used.
        failed_shards: per-shard loss reports
            (:class:`repro.core.supervise.ShardLoss`) when a sharded engine
            served this output degraded; empty for healthy runs and
            unsharded algorithms.
    """

    candidates: List[HHHCandidate] = field(default_factory=list)
    total: int = 0
    threshold: float = 0.0
    failed_shards: List = field(default_factory=list)

    def prefixes(self) -> List[Prefix]:
        """Return just the reported prefixes."""
        return [c.prefix for c in self.candidates]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


class HHHAlgorithm(abc.ABC):
    """Abstract hierarchical-heavy-hitters algorithm.

    Subclasses process a stream of fully specified keys via :meth:`update` and
    report approximate HHH prefixes via :meth:`output`.
    """

    #: short name used by the evaluation harness and benchmark tables.
    name: str = "hhh"

    def __init__(self, hierarchy: Hierarchy) -> None:
        self._hierarchy = hierarchy
        self._total = 0

    @property
    def hierarchy(self) -> Hierarchy:
        """The hierarchical domain this algorithm operates on."""
        return self._hierarchy

    @property
    def total(self) -> int:
        """Number of packets processed so far (``N``)."""
        return self._total

    @abc.abstractmethod
    def update(self, key: Hashable, weight: int = 1) -> None:
        """Process one packet carrying the fully specified key ``key``."""

    @abc.abstractmethod
    def output(self, theta: float) -> HHHOutput:
        """Return the approximate HHH set for threshold fraction ``theta``."""

    @abc.abstractmethod
    def counters(self) -> int:
        """Total number of counters (flow-table entries) in use."""

    def update_stream(self, keys) -> None:
        """Feed every key of an iterable through :meth:`update`."""
        for key in keys:
            self.update(key)

    def update_batch(self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None) -> None:
        """Process a whole batch of packets at once.

        Semantically equivalent to calling :meth:`update` once per packet in
        stream order; this default *is* that sequential loop, so every
        algorithm supports the batch API out of the box.  Algorithms with a
        vectorizable hot path (notably :class:`repro.core.rhhh.RHHH`) override
        it to amortize per-packet interpreter overhead across the batch.

        Args:
            keys: the batch of fully specified keys.  Accepts any sequence;
                numpy arrays are understood natively (a ``(batch, 2)`` integer
                array is read as (source, destination) pairs).
            weights: optional per-packet weights, defaulting to 1 each; every
                weight must be a whole number of at least 1.
        """
        update = self.update
        if weights is None:
            for key in self._iter_batch_keys(keys):
                update(key)
            return
        # Validate the whole batch first: a bad weight must not leave the
        # packets before it applied.
        weights_arr, _ = coerce_weights(weights, len(keys))
        for key, weight in zip(self._iter_batch_keys(keys), weights_arr.tolist()):
            update(key, weight)

    @staticmethod
    def _iter_batch_keys(keys):
        """Iterate a key batch as plain Python keys (ints or tuples of ints)."""
        if isinstance(keys, np.ndarray):
            if keys.ndim == 2:
                return (tuple(row) for row in keys.tolist())
            return iter(keys.tolist())
        return iter(keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(H={self._hierarchy.size}, N={self._total})"

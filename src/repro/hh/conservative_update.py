"""Count-Min Sketch with conservative update (a.k.a. CU sketch).

Identical query path to :class:`~repro.hh.count_min.CountMinSketch`, but an
update only raises the counters that are strictly below the new estimate,
which empirically reduces over-estimation on skewed traffic at the cost of not
supporting deletions.  Provided for the counter-choice ablation.

Unlike its parent, the CU rule is **order-dependent** (counters move by
``max()``, not ``+``), so the parent's linear-algebraic batch fast path does
not apply: batch feeds replay per event, and the scalar twin is that same
per-event loop.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Tuple

import numpy as np

from repro.hh.count_min import CountMinSketch


class ConservativeCountMin(CountMinSketch):
    """Count-Min Sketch using the conservative-update rule."""

    #: Disable the parent's aggregated fast path; ``feed_counter`` checks the
    #: attribute for ``None`` and falls back to ``update_batch``, which
    #: replays per event to preserve the order-dependent semantics.
    update_aggregated = None

    def update(self, key: Hashable, weight: int = 1) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._total += weight
        cols, _ = self._cols_signs(key)
        rows = self._row_idx
        current = self._table[rows, cols]
        target = int(current.min()) + weight
        np.maximum(current, target, out=current)
        self._table[rows, cols] = current
        self._track(key, int(self._table[rows, cols].min()))

    def update_batch(self, items: Iterable[Tuple[Hashable, int]]) -> None:
        """Per-event replay: the conservative rule is order-dependent."""
        for key, weight in items:
            self.update(key, int(weight))

    def update_batch_reference(self, items: Iterable[Tuple[Hashable, int]]) -> None:
        """Scalar twin of :meth:`update_batch` - the same per-event loop."""
        for key, weight in items:
            self.update(key, int(weight))

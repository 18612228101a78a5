"""Heavy-hitter (non hierarchical) counter algorithms.

This sub-package provides the counter-algorithm substrate required by the
RHHH paper (Definition 4 and 5): every algorithm here solves the
``(epsilon, delta)``-Frequency Estimation problem and can enumerate its heavy
hitters.  The paper's implementation uses Space Saving [Metwally et al. 2005];
we additionally provide Misra-Gries, Lossy Counting and the sketches so that
the choice of the underlying counter can be ablated.  The sketches share one
core, :class:`~repro.hh.count_min.CountMinSketch` (the paper's "sketch +
heap" construction of Section 3.1); Count Sketch (signed rows, clamped
median) and the conservative-update Count-Min are small subclasses that
override only what differs.

All algorithms share the :class:`~repro.hh.base.FrequencyEstimator` interface:

``update(key, weight=1)``
    account one (optionally weighted) arrival of ``key``;

``estimate(key)`` / ``upper_bound(key)`` / ``lower_bound(key)``
    point estimate and deterministic (or probabilistic, for sketches) bounds;

``heavy_hitters(threshold)``
    every key whose estimated count is at least ``threshold``.
"""

from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hh.base import DEFAULT_COUNTER, FrequencyEstimator, HeavyHitter, CounterAlgorithm
from repro.hh.exact_counter import ExactCounter
from repro.hh.space_saving import SpaceSaving
from repro.hh.misra_gries import MisraGries
from repro.hh.lossy_counting import LossyCounting
from repro.hh.count_min import CountMinSketch
from repro.hh.count_sketch import CountSketch
from repro.hh.conservative_update import ConservativeCountMin

__all__ = [
    "DEFAULT_COUNTER",
    "FrequencyEstimator",
    "HeavyHitter",
    "CounterAlgorithm",
    "ExactCounter",
    "ArraySpaceSaving",
    "SpaceSaving",
    "MisraGries",
    "LossyCounting",
    "CountMinSketch",
    "CountSketch",
    "ConservativeCountMin",
]

"""Memory-budget-driven counter-backend selection.

The ROADMAP's "multi-backend counters per deployment size" item: given a
memory budget in bytes and an accuracy target, pick the counter backend that
satisfies the target within the budget.  The estimates model the *actual*
CPython/numpy representations used by :mod:`repro.hh`:

* Space Saving and Misra-Gries keep one Python dict entry (plus linked-list
  bucket overhead for Space Saving) per counter - compact in counter count
  (``ceil(1/epsilon)``) but expensive per entry;
* the sketches keep a dense numpy table (8 bytes per cell) plus a bounded
  tracked-keys dictionary for heavy-hitter enumeration.  The table is cheap,
  but the default tracked set (``2 * ceil(1/epsilon)`` keys) is dict-priced,
  so a sketch only undercuts Space Saving when the caller bounds ``track``
  explicitly (e.g. "I only ever report the top 50").

Selection prefers Space Saving (the paper's counter, deterministic
guarantees) whenever it fits; otherwise the cheapest fitting sketch wins.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple, Type

from repro.exceptions import ConfigurationError
from repro.hh.conservative_update import ConservativeCountMin
from repro.hh.count_min import CountMinSketch
from repro.hh.count_sketch import CountSketch

#: Estimated bytes per Space Saving counter: one ``_where`` dict entry, the
#: per-key error slot inside its bucket and an amortized share of the bucket
#: objects themselves.
SPACE_SAVING_BYTES_PER_COUNTER = 220

#: Estimated bytes per array-backed Space Saving counter: three int64 array
#: cells (count, error, stamp), one key-list slot, and one ``key -> slot``
#: dict entry - no linked-bucket objects, hence cheaper than the classic
#: structure.  While batches run, a packed-key index of four int64 cells
#: (key, insertion time and their sorted lookup copy) stands in for the
#: key-list slot and dict entry; after a query both are held.
ARRAY_SPACE_SAVING_BYTES_PER_COUNTER = 150

#: Estimated bytes per entry of a plain ``{key: value}`` counter table
#: (Misra-Gries, Lossy Counting, and the sketches' tracked-keys dict).
DICT_ENTRY_BYTES = 140

#: Bytes per sketch table cell (``int64``).
SKETCH_CELL_BYTES = 8

#: Backends the automatic chooser considers, in preference order.
AUTO_CANDIDATES: Tuple[str, ...] = (
    "array_space_saving",
    "space_saving",
    "count_min",
    "count_sketch",
)

#: The sketch backends; each prices the table its own class builds.
_SKETCH_CLASSES: Dict[str, Type[CountMinSketch]] = {
    "count_min": CountMinSketch,
    "conservative_count_min": ConservativeCountMin,
    "count_sketch": CountSketch,
}

#: Backends that keep a tracked-keys set, the one bounded by ``track``.
TRACKING_BACKENDS: Tuple[str, ...] = tuple(_SKETCH_CLASSES)


def _tracked_keys(epsilon: float, track: Optional[int]) -> int:
    return track if track is not None else 2 * int(math.ceil(1.0 / epsilon))


def estimate_counter_memory(
    name: str,
    *,
    epsilon: float,
    delta: float = 0.01,
    track: Optional[int] = None,
    capacity: Optional[int] = None,
) -> int:
    """Estimate the resident memory (bytes) of counter backend ``name``.

    Args:
        name: a builtin counter-backend name.
        epsilon: per-counter relative error target.
        delta: failure probability (sketch depth).
        track: tracked-keys bound for the sketches (``None`` = their default).
        capacity: explicit counter count for the table-based backends
            (``None`` derives ``ceil(1/epsilon)``).

    Raises:
        ConfigurationError: for a backend without a memory model (``exact``
            grows without bound) or an unknown name.
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    entries = capacity if capacity is not None else int(math.ceil(1.0 / epsilon))
    if name == "space_saving":
        return entries * SPACE_SAVING_BYTES_PER_COUNTER
    if name == "array_space_saving":
        return entries * ARRAY_SPACE_SAVING_BYTES_PER_COUNTER
    if name in ("misra_gries", "lossy_counting"):
        return entries * DICT_ENTRY_BYTES
    sketch = _SKETCH_CLASSES.get(name)
    if sketch is not None:
        # Geometry comes from the sketch class itself (derived_depth includes
        # the Count Sketch's odd-depth bump), so the estimate prices exactly
        # the table the constructor builds.
        table = sketch.derived_depth(delta) * sketch.derived_width(epsilon) * SKETCH_CELL_BYTES
        return table + _tracked_keys(epsilon, track) * DICT_ENTRY_BYTES
    if name == "exact":
        raise ConfigurationError("the 'exact' counter has no bounded memory footprint")
    raise ConfigurationError(f"no memory model for counter backend {name!r}")


def choose_counter_backend(
    memory_bytes: int,
    *,
    epsilon: float,
    delta: float = 0.01,
    track: Optional[int] = None,
    candidates: Sequence[str] = AUTO_CANDIDATES,
) -> str:
    """Pick the counter backend that meets ``epsilon`` within ``memory_bytes``.

    Space Saving is preferred whenever it fits (it is the paper's counter and
    its guarantees are deterministic): the array-backed structure first -
    compacter storage and the faster batch path, on hit-dominated streams and
    eviction storms alike - then the linked one; otherwise the fitting
    candidate with the smallest estimated footprint wins.

    Raises:
        ConfigurationError: when no candidate fits - the message names the
            smallest budget that would, so callers can either raise the
            budget or relax ``epsilon``.
    """
    if memory_bytes < 1:
        raise ConfigurationError(f"memory_bytes must be >= 1, got {memory_bytes}")
    estimates: Dict[str, int] = {
        name: estimate_counter_memory(name, epsilon=epsilon, delta=delta, track=track)
        for name in candidates
    }
    fitting = {name: size for name, size in estimates.items() if size <= memory_bytes}
    if not fitting:
        cheapest_name, cheapest_size = min(estimates.items(), key=lambda item: item[1])
        raise ConfigurationError(
            f"no counter backend reaches epsilon={epsilon} within {memory_bytes} bytes; "
            f"the cheapest ({cheapest_name}) needs {cheapest_size} bytes - raise the "
            f"budget or relax epsilon"
        )
    for preferred in ("array_space_saving", "space_saving"):
        if preferred in fitting:
            return preferred
    return min(fitting.items(), key=lambda item: item[1])[0]

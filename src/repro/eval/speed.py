"""Update-speed measurement (the quantity plotted in Figure 5).

The paper reports millions of packets per second of the C implementation; a
pure-Python reimplementation is orders of magnitude slower in absolute terms,
so what the harness preserves (and what the benchmarks assert on) is the
*relative* speed between algorithms - which depends only on how much work each
performs per packet, not on the constant factor of the language.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.base import HHHAlgorithm


@dataclass(frozen=True)
class SpeedResult:
    """Result of one update-speed measurement.

    Attributes:
        algorithm: the algorithm's ``name``.
        packets: number of packets processed.
        seconds: wall-clock time spent in the update loop.
    """

    algorithm: str
    packets: int
    seconds: float

    @property
    def packets_per_second(self) -> float:
        """Update throughput in packets per second."""
        return self.packets / self.seconds if self.seconds > 0 else float("inf")

    @property
    def mega_packets_per_second(self) -> float:
        """Update throughput in millions of packets per second (the paper's unit)."""
        return self.packets_per_second / 1e6

    def speedup_over(self, other: "SpeedResult") -> float:
        """How many times faster this measurement is than ``other``."""
        return self.packets_per_second / other.packets_per_second


def measure_update_speed(algorithm: HHHAlgorithm, keys: Sequence[Hashable]) -> SpeedResult:
    """Time the per-packet ``update`` loop of ``algorithm`` and return a :class:`SpeedResult`.

    ``keys`` may be a plain sequence or a numpy key array: arrays are walked
    through ``HHHAlgorithm._iter_batch_keys`` so an ``(n, 2)`` array feeds
    hashable ``(src, dst)`` tuples into the counters instead of unhashable
    array rows.  The conversion happens before the clock starts, so array
    and list inputs measure the same per-packet work.
    """
    update = algorithm.update
    plain_keys = list(HHHAlgorithm._iter_batch_keys(keys))
    start = time.perf_counter()
    for key in plain_keys:
        update(key)
    elapsed = time.perf_counter() - start
    return SpeedResult(algorithm=algorithm.name, packets=len(plain_keys), seconds=elapsed)


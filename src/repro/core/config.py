"""Configuration of an RHHH instance.

The paper's guarantees compose two error sources: the per-packet sampling
process (parameters ``epsilon_s``, ``delta_s``) and the underlying counter
algorithm (``epsilon_a``, ``delta_a``).  Theorem 6.6 shows the overall
guarantee is ``epsilon = epsilon_a + epsilon_s`` and
``delta = delta_a + 2 * delta_s``.  :class:`RHHHConfig` lets a caller specify
either the overall targets (which are then split evenly) or the individual
components, applies the over-sample correction of Corollary 6.5 to the counter
size, and exposes the convergence bound ``psi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.bounds import coverage_correction, oversample_adjusted_counters, psi
from repro.exceptions import ConfigurationError
from repro.core.output import CounterLike
from repro.hh.base import DEFAULT_COUNTER


@dataclass(frozen=True)
class RHHHConfig:
    """Parameters of an RHHH run.

    Attributes:
        h: the hierarchy size ``H`` (number of lattice nodes).
        epsilon: overall accuracy target; split evenly between ``epsilon_a``
            and ``epsilon_s`` unless those are given explicitly.
        delta: overall confidence target; split as ``delta_a = delta / 2`` and
            ``delta_s = delta / 4`` (so that ``delta_a + 2 delta_s = delta``)
            unless given explicitly.
        v: the performance parameter ``V >= H``.  ``None`` selects ``V = H``
            (the plain "RHHH" configuration); ``V = 10 H`` is the paper's
            "10-RHHH".
        epsilon_a, epsilon_s, delta_a, delta_s: optional explicit splits.
        counter: the per-node counter backend - a registered backend name, a
            :class:`~repro.api.specs.CounterSpec` (which is how the
            memory-budget auto-selection ``CounterSpec(auto=True,
            memory_bytes=...)`` plugs in), or a ``factory(epsilon)`` callable.
        seed: RNG seed for the level-selection randomness; ``None`` uses
            nondeterministic seeding.
    """

    h: int
    epsilon: float = 0.001
    delta: float = 0.001
    v: Optional[int] = None
    epsilon_a: Optional[float] = None
    epsilon_s: Optional[float] = None
    delta_a: Optional[float] = None
    delta_s: Optional[float] = None
    counter: CounterLike = DEFAULT_COUNTER
    seed: Optional[int] = None
    # Derived fields (filled in __post_init__).
    effective_v: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ConfigurationError(f"H must be >= 1, got {self.h}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")
        v = self.v if self.v is not None else self.h
        if v < self.h:
            raise ConfigurationError(f"V must be >= H (got V={v}, H={self.h})")
        object.__setattr__(self, "effective_v", int(v))
        for name, value in (
            ("epsilon_a", self.epsilon_a),
            ("epsilon_s", self.epsilon_s),
            ("delta_a", self.delta_a),
            ("delta_s", self.delta_s),
        ):
            if value is not None and not 0.0 < value < 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1), got {value}")

    # ------------------------------------------------------------------ #
    # error splits
    # ------------------------------------------------------------------ #

    @property
    def resolved_epsilon_a(self) -> float:
        """Counter-algorithm error target (default: ``epsilon / 2``)."""
        return self.epsilon_a if self.epsilon_a is not None else self.epsilon / 2.0

    @property
    def resolved_epsilon_s(self) -> float:
        """Sampling error target (default: ``epsilon / 2``)."""
        return self.epsilon_s if self.epsilon_s is not None else self.epsilon / 2.0

    @property
    def resolved_delta_a(self) -> float:
        """Counter-algorithm confidence target (default: ``delta / 2``)."""
        return self.delta_a if self.delta_a is not None else self.delta / 2.0

    @property
    def resolved_delta_s(self) -> float:
        """Sampling confidence target (default: ``delta / 4``)."""
        return self.delta_s if self.delta_s is not None else self.delta / 4.0

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #

    @property
    def counter_epsilon(self) -> float:
        """Per-node counter error after the over-sample correction (Corollary 6.5).

        ``epsilon_a' = epsilon_a / (1 + epsilon_s)`` so that even a node that
        receives ``(1 + epsilon_s) N / V`` updates stays within ``epsilon_a``.
        """
        return self.resolved_epsilon_a / (1.0 + self.resolved_epsilon_s)

    @property
    def counters_per_node(self) -> int:
        """Number of counters allocated per lattice node."""
        return oversample_adjusted_counters(self.resolved_epsilon_a, self.resolved_epsilon_s)

    @property
    def convergence_bound(self) -> float:
        """The convergence bound ``psi`` of Theorem 6.3 for this configuration."""
        return psi(self.resolved_delta_s, self.resolved_epsilon_s, self.effective_v)

    @property
    def update_probability(self) -> float:
        """Probability that a packet updates any counter at all (``H / V``)."""
        return self.h / self.effective_v

    def correction(self, n: int) -> float:
        """The additive conditioned-frequency correction for a stream of length ``n``."""
        return coverage_correction(n, self.effective_v, self.delta)

    def total_counters(self) -> int:
        """Total flow-table entries across the lattice (Theorem 6.19)."""
        return self.h * self.counters_per_node

    def is_converged(self, n: int) -> bool:
        """True once ``n`` packets exceed the convergence bound ``psi``."""
        return n > self.convergence_bound

    @property
    def counter_label(self) -> str:
        """A short human-readable name of the counter backend."""
        if isinstance(self.counter, str):
            return self.counter
        name = getattr(self.counter, "name", None)  # CounterSpec
        if isinstance(name, str):
            return f"auto({name})" if getattr(self.counter, "auto", False) else name
        return getattr(self.counter, "__name__", "custom")

    def describe(self) -> str:
        """Return a human-readable multi-line summary of the configuration."""
        return "\n".join(
            [
                f"RHHH configuration: H={self.h}, V={self.effective_v} "
                f"(update probability {self.update_probability:.3f})",
                f"  epsilon = {self.epsilon} (counter {self.resolved_epsilon_a}, sample {self.resolved_epsilon_s})",
                f"  delta   = {self.delta} (counter {self.resolved_delta_a}, sample {self.resolved_delta_s})",
                f"  counter algorithm = {self.counter_label} with {self.counters_per_node} counters/node "
                f"({self.total_counters()} total)",
                f"  convergence bound psi = {self.convergence_bound:,.0f} packets",
            ]
        )


def ten_rhhh_config(h: int, **kwargs) -> RHHHConfig:
    """Convenience constructor for the paper's "10-RHHH" configuration (``V = 10 H``)."""
    return RHHHConfig(h=h, v=10 * h, **kwargs)

"""Decorator-based plugin registries for algorithms, counters and hierarchies.

A registered factory takes arbitrary *typed* keyword arguments (``v``, ``updates_per_packet``,
``counter=CounterSpec(...)``, sketch ``width``/``depth``, ``seed``, ...)
instead of being locked to a fixed positional signature, and third parties
extend the line-up with a decorator::

    from repro.api import register_algorithm, register_counter

    @register_counter("my_counter")
    def _build(*, epsilon, capacity=None):
        return MyCounter(epsilon=epsilon, capacity=capacity)

    @register_algorithm("my_hhh")
    def _build(hierarchy, *, epsilon, delta, seed=None, counter=None):
        return MyHHH(hierarchy, epsilon=epsilon, ...)

Construction goes through :func:`build_algorithm` / :func:`build_counter`,
which accept either a spec (:class:`~repro.api.specs.AlgorithmSpec` /
:class:`~repro.api.specs.CounterSpec`) or a plain name.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Union

from repro.api.specs import AlgorithmSpec, CounterSpec
from repro.core.base import HHHAlgorithm
from repro.core.rhhh import RHHH
from repro.exceptions import ConfigurationError
from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hh.base import DEFAULT_COUNTER, CounterAlgorithm
from repro.hh.conservative_update import ConservativeCountMin
from repro.hh.count_min import CountMinSketch
from repro.hh.count_sketch import CountSketch
from repro.hh.exact_counter import ExactCounter
from repro.hh.lossy_counting import LossyCounting
from repro.hh.misra_gries import MisraGries
from repro.hh.space_saving import SpaceSaving
from repro.hhh.ancestry import FullAncestry, PartialAncestry
from repro.hhh.exact import ExactHHH
from repro.hhh.mst import MST
from repro.hhh.sampled_mst import SampledMST
from repro.hierarchy.base import Hierarchy
from repro.hierarchy.onedim import ipv4_bit_hierarchy, ipv4_byte_hierarchy
from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy

AlgorithmFactory = Callable[..., HHHAlgorithm]
CounterFactory = Callable[..., CounterAlgorithm]
HierarchyFactory = Callable[[], Hierarchy]

_ALGORITHMS: Dict[str, AlgorithmFactory] = {}
_COUNTERS: Dict[str, CounterFactory] = {}
_HIERARCHIES: Dict[str, HierarchyFactory] = {}


def _register(table: Dict[str, Callable], kind: str, name: str, replace: bool) -> Callable:
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"{kind} name must be a non-empty string, got {name!r}")

    def decorator(factory: Callable) -> Callable:
        if name in table and not replace:
            raise ConfigurationError(
                f"{kind} {name!r} is already registered; pass replace=True to override"
            )
        table[name] = factory
        return factory

    return decorator


def register_algorithm(name: str, *, replace: bool = False) -> Callable[[AlgorithmFactory], AlgorithmFactory]:
    """Register ``factory(hierarchy, **typed_kwargs) -> HHHAlgorithm`` under ``name``."""
    return _register(_ALGORITHMS, "algorithm", name, replace)


def register_counter(name: str, *, replace: bool = False) -> Callable[[CounterFactory], CounterFactory]:
    """Register ``factory(**typed_kwargs) -> CounterAlgorithm`` under ``name``."""
    return _register(_COUNTERS, "counter", name, replace)


def register_hierarchy(name: str, *, replace: bool = False) -> Callable[[HierarchyFactory], HierarchyFactory]:
    """Register a zero-argument hierarchy constructor under ``name``."""
    return _register(_HIERARCHIES, "hierarchy", name, replace)


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (no-op if absent); for plugins and tests."""
    _ALGORITHMS.pop(name, None)


def unregister_counter(name: str) -> None:
    """Remove a registered counter backend (no-op if absent); for plugins and tests."""
    _COUNTERS.pop(name, None)


def algorithm_names() -> List[str]:
    """Sorted names of every registered algorithm."""
    return sorted(_ALGORITHMS)


def counter_names() -> List[str]:
    """Sorted names of every registered counter backend."""
    return sorted(_COUNTERS)


def hierarchy_names() -> List[str]:
    """Sorted names of every registered hierarchy."""
    return sorted(_HIERARCHIES)


def _lookup(table: Dict[str, Callable], kind: str, name: str) -> Callable:
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ConfigurationError(f"unknown {kind} {name!r}; known: {known}") from None


def _call_factory(kind: str, name: str, factory: Callable, *args: Any, **kwargs: Any):
    try:
        return factory(*args, **kwargs)
    except TypeError as exc:
        if "argument" in str(exc):
            raise ConfigurationError(f"{kind} {name!r} rejected its parameters: {exc}") from None
        raise


def make_hierarchy(name: str) -> Hierarchy:
    """Instantiate the registered hierarchy called ``name``."""
    return _lookup(_HIERARCHIES, "hierarchy", name)()


def build_counter(
    spec: Union[CounterSpec, str],
    *,
    epsilon: Optional[float] = None,
) -> CounterAlgorithm:
    """Instantiate the counter backend described by ``spec``.

    Args:
        spec: a :class:`~repro.api.specs.CounterSpec` or a bare backend name.
        epsilon: default error target used when the spec does not pin one
            (this is how an owning algorithm passes down its per-counter
            epsilon, over-sample correction included).

    Raises:
        ConfigurationError: unknown backend, unresolvable epsilon, or
            parameters the backend factory does not accept.
    """
    if isinstance(spec, str):
        spec = CounterSpec(name=spec)
    return resolved_counter_factory(spec.resolve(default_epsilon=epsilon))()


def resolved_counter_factory(resolved: CounterSpec) -> Callable[[], CounterAlgorithm]:
    """Return a zero-argument factory building the backend of a resolved spec.

    The backend factory and its keyword arguments are looked up once, so a
    lattice algorithm building one counter per node pays for the lookup (and
    for the spec resolution before it) once, not once per node.
    """
    factory = _lookup(_COUNTERS, "counter", resolved.name)
    kwargs: Dict[str, Any] = dict(resolved.options)
    for field_name in ("epsilon", "delta", "capacity", "width", "depth", "track", "seed"):
        value = getattr(resolved, field_name)
        if value is not None:
            kwargs[field_name] = value
    return lambda: _call_factory("counter", resolved.name, factory, **kwargs)


def build_algorithm(
    spec: Union[AlgorithmSpec, str],
    hierarchy: Hierarchy,
    **overrides: Any,
) -> HHHAlgorithm:
    """Instantiate the HHH algorithm described by ``spec`` on ``hierarchy``.

    Args:
        spec: an :class:`~repro.api.specs.AlgorithmSpec` or a bare name.
        hierarchy: the hierarchical domain to run on.
        **overrides: spec-field overrides (``epsilon=...``, ``seed=...``,
            ``counter=CounterSpec(...)``, ...) applied before building.

    Raises:
        ConfigurationError: unknown algorithm, or spec parameters the
            algorithm factory does not accept (e.g. ``v`` on a deterministic
            baseline).
    """
    if isinstance(spec, str):
        spec = AlgorithmSpec(name=spec, **overrides)
    elif overrides:
        spec = dataclasses.replace(spec, **overrides)
    factory = _lookup(_ALGORITHMS, "algorithm", spec.name)
    kwargs: Dict[str, Any] = dict(spec.options)
    kwargs["epsilon"] = spec.epsilon
    kwargs["delta"] = spec.delta
    kwargs["seed"] = spec.seed
    v = spec.resolved_v(hierarchy.size)
    if v is not None:
        kwargs["v"] = v
    if spec.updates_per_packet != 1:
        kwargs["updates_per_packet"] = spec.updates_per_packet
    if spec.counter is not None:
        kwargs["counter"] = spec.counter
    return _call_factory("algorithm", spec.name, factory, hierarchy, **kwargs)


# --------------------------------------------------------------------------- #
# builtin counter backends
# --------------------------------------------------------------------------- #
# Factories pass a parameter through only when the spec pinned it, so the
# class defaults (sketch seeds, track limits) keep applying and spec-built
# counters are bit-identical to directly constructed ones.


def _pruned(**kwargs: Any) -> Dict[str, Any]:
    return {key: value for key, value in kwargs.items() if value is not None}


@register_counter("space_saving")
def _build_space_saving(*, epsilon: Optional[float] = None, capacity: Optional[int] = None) -> CounterAlgorithm:
    return SpaceSaving(capacity=capacity, epsilon=epsilon)


@register_counter("array_space_saving")
def _build_array_space_saving(
    *, epsilon: Optional[float] = None, capacity: Optional[int] = None
) -> CounterAlgorithm:
    return ArraySpaceSaving(capacity=capacity, epsilon=epsilon)


@register_counter("misra_gries")
def _build_misra_gries(*, epsilon: Optional[float] = None, capacity: Optional[int] = None) -> CounterAlgorithm:
    return MisraGries(capacity=capacity, epsilon=epsilon)


@register_counter("lossy_counting")
def _build_lossy_counting(*, epsilon: float) -> CounterAlgorithm:
    return LossyCounting(epsilon=epsilon)


def _sketch_kwargs(
    *,
    epsilon: float,
    delta: Optional[float] = None,
    width: Optional[int] = None,
    depth: Optional[int] = None,
    track: Optional[int] = None,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """The one factory signature of the three sketch backends, as constructor kwargs."""
    return {"epsilon": epsilon, **_pruned(delta=delta, width=width, depth=depth, track=track, seed=seed)}


@register_counter("count_min")
def _build_count_min(**params: Any) -> CounterAlgorithm:
    return CountMinSketch(**_sketch_kwargs(**params))


@register_counter("count_sketch")
def _build_count_sketch(**params: Any) -> CounterAlgorithm:
    return CountSketch(**_sketch_kwargs(**params))


@register_counter("conservative_count_min")
def _build_conservative(**params: Any) -> CounterAlgorithm:
    return ConservativeCountMin(**_sketch_kwargs(**params))


@register_counter("exact")
def _build_exact_counter(*, epsilon: Optional[float] = None) -> CounterAlgorithm:
    del epsilon  # the exact counter has no accuracy knob
    return ExactCounter()


# --------------------------------------------------------------------------- #
# builtin algorithms
# --------------------------------------------------------------------------- #
# Deterministic baselines accept (and deliberately ignore) delta/seed for
# line-up interchangeability, exactly like the legacy positional registry did;
# parameters they genuinely cannot honour (e.g. v) are rejected with a
# ConfigurationError by build_algorithm.


@register_algorithm("rhhh")
def _build_rhhh(
    hierarchy: Hierarchy,
    *,
    epsilon: float = 0.001,
    delta: float = 0.001,
    seed: Optional[int] = None,
    v: Optional[int] = None,
    counter: Optional[CounterSpec] = None,
    updates_per_packet: int = 1,
) -> HHHAlgorithm:
    return RHHH(
        hierarchy,
        epsilon=epsilon,
        delta=delta,
        v=v,
        seed=seed,
        counter=counter if counter is not None else DEFAULT_COUNTER,
        updates_per_packet=updates_per_packet,
    )


@register_algorithm("10-rhhh")
def _build_10_rhhh(
    hierarchy: Hierarchy,
    *,
    epsilon: float = 0.001,
    delta: float = 0.001,
    seed: Optional[int] = None,
    v: Optional[int] = None,
    counter: Optional[CounterSpec] = None,
    updates_per_packet: int = 1,
) -> HHHAlgorithm:
    return RHHH(
        hierarchy,
        epsilon=epsilon,
        delta=delta,
        v=v if v is not None else 10 * hierarchy.size,
        seed=seed,
        counter=counter if counter is not None else DEFAULT_COUNTER,
        updates_per_packet=updates_per_packet,
    )


@register_algorithm("mst")
def _build_mst(
    hierarchy: Hierarchy,
    *,
    epsilon: float = 0.001,
    delta: float = 0.001,
    seed: Optional[int] = None,
    counter: Optional[CounterSpec] = None,
) -> HHHAlgorithm:
    del delta, seed  # deterministic: accepted for line-up parity, unused
    return MST(hierarchy, epsilon=epsilon, counter=counter if counter is not None else DEFAULT_COUNTER)


@register_algorithm("sampled_mst")
def _build_sampled_mst(
    hierarchy: Hierarchy,
    *,
    epsilon: float = 0.001,
    delta: float = 0.001,
    seed: Optional[int] = None,
    counter: Optional[CounterSpec] = None,
    sampling_probability: Optional[float] = None,
) -> HHHAlgorithm:
    return SampledMST(
        hierarchy,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        counter=counter if counter is not None else DEFAULT_COUNTER,
        sampling_probability=sampling_probability,
    )


@register_algorithm("full_ancestry")
def _build_full_ancestry(
    hierarchy: Hierarchy,
    *,
    epsilon: float = 0.001,
    delta: float = 0.001,
    seed: Optional[int] = None,
) -> HHHAlgorithm:
    del delta, seed
    return FullAncestry(hierarchy, epsilon=epsilon)


@register_algorithm("partial_ancestry")
def _build_partial_ancestry(
    hierarchy: Hierarchy,
    *,
    epsilon: float = 0.001,
    delta: float = 0.001,
    seed: Optional[int] = None,
) -> HHHAlgorithm:
    del delta, seed
    return PartialAncestry(hierarchy, epsilon=epsilon)


@register_algorithm("exact")
def _build_exact(
    hierarchy: Hierarchy,
    *,
    epsilon: float = 0.001,
    delta: float = 0.001,
    seed: Optional[int] = None,
) -> HHHAlgorithm:
    del epsilon, delta, seed
    return ExactHHH(hierarchy)


# --------------------------------------------------------------------------- #
# builtin hierarchies
# --------------------------------------------------------------------------- #

register_hierarchy("1d-bytes")(ipv4_byte_hierarchy)
register_hierarchy("1d-bits")(ipv4_bit_hierarchy)
register_hierarchy("2d-bytes")(ipv4_two_dim_byte_hierarchy)

"""How the HHH algorithms accept their per-node counter argument.

The construction API is :mod:`repro.api`: describe a backend with a
:class:`~repro.api.specs.CounterSpec` and build it with
:func:`~repro.api.registry.build_counter`, or register new backends with
:func:`~repro.api.registry.register_counter`.  :func:`resolve_counter` and
:func:`prepare_counter_factory` are the internal helpers the HHH algorithms
use to accept a backend name, a ``CounterSpec`` or a bare factory callable
interchangeably.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.hh.base import CounterAlgorithm

#: What an HHH algorithm accepts as its ``counter`` argument: a registered
#: backend name, a :class:`~repro.api.specs.CounterSpec`, or a bare
#: ``factory(epsilon) -> CounterAlgorithm`` callable.
CounterLike = Union[str, "CounterSpec", Callable[[float], CounterAlgorithm]]  # noqa: F821


def resolve_counter(counter: CounterLike, epsilon: float) -> CounterAlgorithm:
    """Instantiate a per-node counter from any of the accepted ``counter`` forms.

    Args:
        counter: a backend name, a ``CounterSpec``, or a ``factory(epsilon)``
            callable (the extension point for pre-built or exotic counters).
        epsilon: the per-counter error target the owning algorithm resolved
            (over-sample correction already applied); a ``CounterSpec`` that
            pins its own ``epsilon`` wins over this default.
    """
    if callable(counter) and not isinstance(counter, str):
        return counter(epsilon)
    # Late import: repro.api.registry imports the algorithm modules, which
    # import this module - the cycle only resolves at call time.
    from repro.api.registry import build_counter

    return build_counter(counter, epsilon=epsilon)


def prepare_counter_factory(counter: CounterLike, epsilon: float) -> Callable[[], CounterAlgorithm]:
    """Return a zero-argument factory producing fresh counters for ``counter``.

    Used by the lattice algorithms (one counter instance per node): the spec
    is resolved **once** - so an epsilon clamp or an ``auto`` backend choice
    (and its warning) happens once per algorithm, not once per lattice node -
    and the returned factory then builds identical independent instances.
    """
    if callable(counter) and not isinstance(counter, str):
        return lambda: counter(epsilon)
    from repro.api.registry import build_counter  # late import, see resolve_counter
    from repro.api.specs import CounterSpec

    spec = CounterSpec(name=counter) if isinstance(counter, str) else counter
    resolved = spec.resolve(default_epsilon=epsilon)
    return lambda: build_counter(resolved)

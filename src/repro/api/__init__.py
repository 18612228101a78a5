"""The unified experiment API: declarative specs, plugin registries, Sessions.

This package is the public construction-and-run surface of the reproduction.
Three layers compose:

1. **Specs** (:mod:`repro.api.specs`) - :class:`CounterSpec`,
   :class:`AlgorithmSpec` and :class:`ExperimentSpec` are validated, frozen,
   JSON-round-trippable descriptions of what to run.
2. **Registries** (:mod:`repro.api.registry`) - decorator-based plugin tables
   (:func:`register_algorithm`, :func:`register_counter`,
   :func:`register_hierarchy`) plus the builders (:func:`build_algorithm`,
   :func:`build_counter`, :func:`make_hierarchy`) that turn specs into live
   objects.
3. **Sessions** (:mod:`repro.api.session`) - the batch-first run protocol:
   one object owns the traffic source, the per-packet/batch feed loop, the
   progress and measurement hooks, and the final ``output(theta)``.

The memory-budget counter chooser (:mod:`repro.api.memory`) backs
``CounterSpec(auto=True, memory_bytes=...)``: it picks Space Saving versus a
sketch automatically from the deployment's memory budget.
"""

from repro.api.memory import (
    AUTO_CANDIDATES,
    choose_counter_backend,
    estimate_counter_memory,
)
from repro.api.registry import (
    algorithm_names,
    build_algorithm,
    build_counter,
    counter_names,
    hierarchy_names,
    make_hierarchy,
    register_algorithm,
    register_counter,
    register_hierarchy,
    unregister_algorithm,
    unregister_counter,
)
from repro.api.session import Session, SessionResult, run_experiment
from repro.api.specs import (
    DEFAULT_COUNTER,
    DEFAULT_MIN_EPSILON,
    AlgorithmSpec,
    CounterSpec,
    DistribSpec,
    ExperimentSpec,
)

__all__ = [
    # specs
    "AlgorithmSpec",
    "CounterSpec",
    "DistribSpec",
    "ExperimentSpec",
    "DEFAULT_COUNTER",
    "DEFAULT_MIN_EPSILON",
    # registries
    "register_algorithm",
    "register_counter",
    "register_hierarchy",
    "unregister_algorithm",
    "unregister_counter",
    "build_algorithm",
    "build_counter",
    "make_hierarchy",
    "algorithm_names",
    "counter_names",
    "hierarchy_names",
    # sessions
    "Session",
    "SessionResult",
    "run_experiment",
    # memory-budget chooser
    "estimate_counter_memory",
    "choose_counter_backend",
    "AUTO_CANDIDATES",
]

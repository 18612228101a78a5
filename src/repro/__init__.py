"""repro: a reproduction of "Constant Time Updates in Hierarchical Heavy Hitters" (SIGCOMM 2017).

The package is organised as:

* :mod:`repro.api` - the unified experiment API: declarative, JSON-able
  specs (:class:`ExperimentSpec` / :class:`AlgorithmSpec` /
  :class:`CounterSpec`), decorator-based plugin registries
  (:func:`register_algorithm`, :func:`register_counter`) and the batch-first
  :class:`Session` run protocol;
* :mod:`repro.core` - the paper's contribution: the RHHH algorithm, its
  configuration and the shared Output procedure;
* :mod:`repro.hh` - the heavy-hitter counter substrate (Space Saving and
  alternatives);
* :mod:`repro.hierarchy` - prefixes, one-dimensional hierarchies and the
  two-dimensional source x destination lattice;
* :mod:`repro.hhh` - baseline HHH algorithms (MST, Full/Partial Ancestry,
  sampled MST) and the exact offline solver used as ground truth;
* :mod:`repro.analysis` - the paper's Section 6 bounds as executable code;
* :mod:`repro.traffic` - synthetic backbone / DDoS traffic generators and
  trace IO;
* :mod:`repro.vswitch` - a simulated DPDK-style Open vSwitch datapath with
  HHH measurement integrated in the dataplane or in a separate VM;
* :mod:`repro.eval` - metrics, ground-truth comparison, experiment runner and
  per-figure regeneration entry points.

Quickstart (imperative)::

    from repro import RHHH, ipv4_two_dim_byte_hierarchy, named_workload

    hierarchy = ipv4_two_dim_byte_hierarchy()
    algorithm = RHHH(hierarchy, epsilon=0.01, delta=0.01, seed=7)
    workload = named_workload("chicago16", num_flows=20_000)
    for key in workload.keys_2d(200_000):
        algorithm.update(key)
    for candidate in algorithm.output(theta=0.05):
        print(candidate)

Quickstart (declarative, the :mod:`repro.api` way)::

    from repro import AlgorithmSpec, ExperimentSpec, Session

    spec = ExperimentSpec(
        algorithm=AlgorithmSpec(name="rhhh", epsilon=0.01, delta=0.01, seed=7),
        hierarchy="2d-bytes", workload="chicago16",
        packets=200_000, theta=0.05, batch_size=65_536,
    )
    for candidate in Session(spec).run().output:
        print(candidate)
"""

from repro.api import (
    AlgorithmSpec,
    CounterSpec,
    ExperimentSpec,
    Session,
    SessionResult,
    build_algorithm,
    build_counter,
    make_hierarchy,
    register_algorithm,
    register_counter,
    register_hierarchy,
    run_experiment,
)
from repro.core.base import HHHAlgorithm, HHHCandidate, HHHOutput
from repro.core.config import RHHHConfig, ten_rhhh_config
from repro.core.rhhh import RHHH
from repro.exceptions import (
    AlgorithmError,
    ConfigurationError,
    HierarchyError,
    ReproError,
    SwitchError,
    TraceFormatError,
)
from repro.hh import (
    CountMinSketch,
    CountSketch,
    ConservativeCountMin,
    ExactCounter,
    LossyCounting,
    MisraGries,
    SpaceSaving,
)
from repro.hhh import ExactHHH, FullAncestry, MST, PartialAncestry, SampledMST
from repro.hierarchy import (
    OneDimHierarchy,
    Prefix,
    TwoDimHierarchy,
    ipv4_bit_hierarchy,
    ipv4_byte_hierarchy,
    ipv4_two_dim_byte_hierarchy,
    ipv6_byte_hierarchy,
)
from repro.traffic import BackboneTraceGenerator, DDoSScenario, Packet, ZipfFlowGenerator, named_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # unified experiment API (repro.api)
    "ExperimentSpec",
    "AlgorithmSpec",
    "CounterSpec",
    "Session",
    "SessionResult",
    "run_experiment",
    "build_algorithm",
    "build_counter",
    "make_hierarchy",
    "register_algorithm",
    "register_counter",
    "register_hierarchy",
    # core
    "RHHH",
    "RHHHConfig",
    "ten_rhhh_config",
    "HHHAlgorithm",
    "HHHCandidate",
    "HHHOutput",
    # counters
    "SpaceSaving",
    "MisraGries",
    "LossyCounting",
    "CountMinSketch",
    "CountSketch",
    "ConservativeCountMin",
    "ExactCounter",
    # baselines
    "MST",
    "SampledMST",
    "FullAncestry",
    "PartialAncestry",
    "ExactHHH",
    # hierarchies
    "Prefix",
    "OneDimHierarchy",
    "TwoDimHierarchy",
    "ipv4_byte_hierarchy",
    "ipv4_bit_hierarchy",
    "ipv6_byte_hierarchy",
    "ipv4_two_dim_byte_hierarchy",
    # traffic
    "Packet",
    "ZipfFlowGenerator",
    "BackboneTraceGenerator",
    "DDoSScenario",
    "named_workload",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "HierarchyError",
    "AlgorithmError",
    "TraceFormatError",
    "SwitchError",
]

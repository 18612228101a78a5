"""The distributed aggregation tier: many switches, one answer, bounded bandwidth.

The fleet-scale deployment the ROADMAP's north star asks for, simulated
end-to-end: per-switch :class:`~repro.distrib.switch.SwitchNode`\\ s run
proportionally-sized local replicas and periodically ship compressed counter
state as versioned wire messages (:mod:`repro.distrib.wire`, framed in the
checkpoint layer's checksummed container) over a
:class:`~repro.distrib.transport.Transport` (reliable loopback, or a seeded
fault-plan-driven lossy queue); an :class:`~repro.distrib.aggregator.Aggregator`
merges the contributions with the counter ``merge()`` protocol and serves
the global ``output(theta)`` with bounds widened by quantified loss.
:class:`~repro.distrib.cluster.DistributedCluster` packages the whole
deployment behind the ordinary algorithm interface, so a
:class:`~repro.api.session.Session` with ``ExperimentSpec(distrib=...)``
drives a 100-switch fleet the same way it drives one instance.
"""

from repro.distrib.aggregator import Aggregator
from repro.distrib.cluster import DistributedCluster
from repro.distrib.switch import SwitchNode
from repro.distrib.transport import LoopbackTransport, SimulatedTransport, Transport
from repro.distrib.wire import (
    WIRE_VERSION,
    algorithm_geometry,
    decode_message,
    encode_message,
)

__all__ = [
    "Aggregator",
    "DistributedCluster",
    "LoopbackTransport",
    "SimulatedTransport",
    "SwitchNode",
    "Transport",
    "WIRE_VERSION",
    "algorithm_geometry",
    "decode_message",
    "encode_message",
]

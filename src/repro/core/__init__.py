"""The paper's primary contribution: Randomized Hierarchical Heavy Hitters.

The public entry points are:

* :class:`~repro.core.config.RHHHConfig` - parameter handling (``epsilon``,
  ``delta``, ``theta``, ``V``) including the epsilon/delta split between the
  sampling process and the underlying counter algorithm, the over-sample
  correction of Corollary 6.5 and the convergence bound ``psi``;
* :class:`~repro.core.rhhh.RHHH` - Algorithm 1 of the paper, for one- and
  two-dimensional hierarchies, including the ``V > H`` (e.g. "10-RHHH")
  configurations and the multi-update variant of Corollary 6.8;
* :class:`~repro.core.base.HHHAlgorithm` / :class:`~repro.core.base.HHHCandidate`
  - the interface shared with the baseline algorithms in :mod:`repro.hhh`;
* :class:`~repro.core.shard.ShardedHHH` - the replica driver that routes a
  stream to hash-partitioned replicas (in-process, in worker processes, or
  a switch fleet) and reduces their counter summaries with ``merge``;
* the fault-tolerance layer - :mod:`repro.core.checkpoint` (atomic,
  checksummed snapshots of any algorithm's runtime state),
  :mod:`repro.core.supervise` (worker supervision with ``fail`` / ``restart``
  / ``degrade`` policies) and :mod:`repro.core.faults` (deterministic fault
  injection for the recovery tests).
"""

from repro.core.base import HHHAlgorithm, HHHCandidate
from repro.core.config import RHHHConfig
from repro.core.faults import FAULT_KINDS, FaultEvent, FaultPlan
from repro.core.ingest import DEFAULT_RING_DEPTH, RingBufferIngest, rechunk_batches
from repro.core.output import SelectedIndex, calc_pred, conditioned_frequency_estimate, lattice_output
from repro.core.rhhh import RHHH

__all__ = [
    "HHHAlgorithm",
    "HHHCandidate",
    "RHHHConfig",
    "RHHH",
    "RingBufferIngest",
    "DEFAULT_RING_DEPTH",
    "rechunk_batches",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "SelectedIndex",
    "ShardedHHH",
    "ShardLoss",
    "ShardSupervisor",
    "SupervisorPolicy",
    "SUPERVISOR_POLICIES",
    "calc_pred",
    "capture_runtime_state",
    "apply_runtime_state",
    "conditioned_frequency_estimate",
    "lattice_output",
    "load_checkpoint",
    "restore_algorithm",
    "save_checkpoint",
    "shard_assignments",
    "shard_of_key",
    "snapshot_algorithm",
    "spawn_shard_seeds",
]

#: Late-bound exports, resolved through ``__getattr__`` to keep importing
#: ``repro.core`` cycle-free (shard/supervise reach back into ``repro.api``,
#: checkpoint is imported by ``repro.api.session``).
_LAZY_EXPORTS = {
    "ShardedHHH": "repro.core.shard",
    "shard_assignments": "repro.core.shard",
    "shard_of_key": "repro.core.shard",
    "spawn_shard_seeds": "repro.core.shard",
    "ShardLoss": "repro.core.supervise",
    "ShardSupervisor": "repro.core.supervise",
    "SupervisorPolicy": "repro.core.supervise",
    "SUPERVISOR_POLICIES": "repro.core.supervise",
    "capture_runtime_state": "repro.core.checkpoint",
    "apply_runtime_state": "repro.core.checkpoint",
    "load_checkpoint": "repro.core.checkpoint",
    "restore_algorithm": "repro.core.checkpoint",
    "save_checkpoint": "repro.core.checkpoint",
    "snapshot_algorithm": "repro.core.checkpoint",
}


def __getattr__(name):
    # repro.core.shard imports repro.api (specs/registry), which imports
    # repro.core.rhhh back through the registry: resolve the shard exports
    # lazily so importing repro.core stays cycle-free.
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")

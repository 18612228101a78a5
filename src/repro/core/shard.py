"""Partition and merge: hash-routed replicas of a lattice algorithm, one answer.

Two engines run a stream as ``N`` replicas of one lattice algorithm (RHHH,
MST or SampledMST - anything keeping one mergeable counter per lattice
node) and answer queries from the merge of the replica summaries: the
:class:`ShardedHHH` below, and the simulated switch fleet of
:mod:`repro.distrib`.  Both are built from the two pieces of this module:

* :func:`partition_batch` routes every key to exactly one replica
  (multiplicative hashing on the packed key, :func:`shard_of_key` being its
  scalar twin), keeping stream order within each part;
* :class:`LatticeMerger` reduces per-replica ``(total, counters)`` states
  with the :meth:`~repro.hh.base.FrequencyEstimator.merge` protocol and runs
  the algorithm's Output on the merged lattice, incrementally by default.

:class:`ShardedHHH` runs its replicas in-process (``parallel=False``, the
deterministic reference) or one per worker process under a
:class:`~repro.core.supervise.ShardSupervisor`, whose policy decides what a
worker death means (``fail``, ``restart`` or ``degrade``).  Merged output is
*not* bit-identical to an unsharded run (the sampling draws differ and Space
Saving truncates the merged summary to capacity), which is why
``tests/core/test_shard.py`` and ``tests/eval/test_accuracy_regression.py``
pin the error-bound and (epsilon, delta)-coverage guarantees instead.

Per-shard RNG streams are derived with ``numpy.random.SeedSequence.spawn``:
for a fixed ``(seed, shards)`` pair every run draws the same per-shard
seeds, while different shards get independent streams.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.specs import AlgorithmSpec
from repro.core.base import HHHAlgorithm, HHHOutput
from repro.core.batch import check_weight, coerce_key_array, coerce_weights
from repro.core.checkpoint import apply_runtime_state, capture_runtime_state
from repro.core.output import LatticeHHH, OutputCache
from repro.core.supervise import ShardLoss, ShardSupervisor, SupervisorPolicy
from repro.exceptions import AlgorithmError, CheckpointError, ConfigurationError
from repro.hh.base import FrequencyEstimator
from repro.hierarchy.base import Hierarchy

_MASK64 = (1 << 64) - 1
#: Odd multiplicative-hash constants (golden-ratio and xxhash64 primes).
_GOLDEN_SRC = 0x9E3779B97F4A7C15
_GOLDEN_DST = 0xC2B2AE3D27D4EB4F
#: Keep the top 31 bits of the mixed word: the low bits of ``x * odd`` are a
#: permutation of ``x``'s low bits, the high bits are well mixed.
_MIX_SHIFT = 33

#: One replica's ``(total, per-node counters)``.
ReplicaState = Tuple[int, List]


def spawn_shard_seeds(seed: Optional[int], shards: int) -> List[int]:
    """Derive one independent RNG seed per shard via ``SeedSequence.spawn``.

    Reproducible: a fixed ``(seed, shards)`` pair always yields the same
    seed list.  Independent: spawned children occupy disjoint entropy
    streams, so two shards never see identical draw sequences (the paired
    regression test feeds both seeds into RHHH and compares the node
    choices).  ``seed=None`` draws fresh OS entropy, matching the unseeded
    behaviour of the underlying algorithms.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in root.spawn(shards)]


def per_shard_algorithm_spec(spec: AlgorithmSpec, seed: Optional[int], shards: int) -> AlgorithmSpec:
    """The spec one shard replica is built from: own seed, divided memory budget.

    A memory-budgeted auto counter (``CounterSpec(auto=True, memory_bytes=B)``)
    describes the *deployment's* budget; ``N`` shards each get ``B // N`` so
    the sharded run stays inside the same envelope.
    """
    counter = spec.counter
    if counter is not None and counter.auto and counter.memory_bytes is not None:
        counter = dataclasses.replace(counter, memory_bytes=max(1, counter.memory_bytes // shards))
    return dataclasses.replace(spec, seed=seed, counter=counter)


# --------------------------------------------------------------------------- #
# hash partitioning
# --------------------------------------------------------------------------- #


def shard_of_key(key: Hashable, shards: int) -> int:
    """Shard owning ``key`` - the scalar twin of :func:`shard_assignments`.

    Integer and integer-pair keys use the same multiplicative mix as the
    vectorized path (modulo ``2**64``), so a key is routed identically
    whether it arrives through ``update`` or inside a numpy batch; other key
    types fall back to Python ``hash`` (deterministic per process family
    only for types unaffected by hash randomization, which covers the ints
    and int tuples the hierarchies emit).
    """
    if isinstance(key, tuple) and len(key) == 2:
        src, dst = key
        if isinstance(src, (int, np.integer)) and isinstance(dst, (int, np.integer)):
            mixed = ((int(src) * _GOLDEN_SRC) & _MASK64) ^ ((int(dst) * _GOLDEN_DST) & _MASK64)
            return (mixed >> _MIX_SHIFT) % shards
    if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
        return (((int(key) * _GOLDEN_SRC) & _MASK64) >> _MIX_SHIFT) % shards
    return hash(key) % shards


def shard_assignments(keys: Sequence, shards: int) -> Optional[np.ndarray]:
    """Per-packet shard ids for a key batch, or ``None`` for non-numeric keys.

    Vectorized multiplicative hashing over the batch: 1-D integer arrays mix
    each key, ``(n, 2)`` arrays mix source and destination with different
    odd constants.  Identical keys always land in the same shard, which is
    what makes the shard summaries key-disjoint and the ``disjoint=True``
    merge reduction valid.
    """
    arr = coerce_key_array(keys, len(keys))
    if arr is None or arr.dtype.kind not in "iu":
        return None
    if arr.ndim == 1:
        mixed = arr.astype(np.uint64) * np.uint64(_GOLDEN_SRC)
    elif arr.ndim == 2 and arr.shape[1] == 2:
        mixed = (arr[:, 0].astype(np.uint64) * np.uint64(_GOLDEN_SRC)) ^ (
            arr[:, 1].astype(np.uint64) * np.uint64(_GOLDEN_DST)
        )
    else:
        return None
    return ((mixed >> np.uint64(_MIX_SHIFT)) % np.uint64(shards)).astype(np.int64)


def partition_batch(
    keys: Sequence, weights: Optional[np.ndarray], parts: int
) -> List[Tuple[Sequence, Optional[np.ndarray]]]:
    """Split a key batch into one ``(keys, weights)`` sub-batch per part.

    Every packet lands in the part :func:`shard_of_key` names, in stream
    order, and its weight travels with it.  ``weights`` is the int64 array
    :func:`~repro.core.batch.coerce_weights` returns (``None`` for unit
    weights, which stays ``None`` in every part).  Numeric batches are split
    as arrays; anything else (object arrays, wide ints, non-integer keys)
    goes through :meth:`~repro.core.base.HHHAlgorithm._iter_batch_keys` and
    comes out as lists of plain keys.
    """
    if parts == 1:
        return [(keys if isinstance(keys, np.ndarray) else list(keys), weights)]
    assignments = shard_assignments(keys, parts)
    if assignments is None:
        key_list = list(HHHAlgorithm._iter_batch_keys(keys))
        assignments = np.fromiter(
            (shard_of_key(key, parts) for key in key_list), dtype=np.int64, count=len(key_list)
        )
        buckets: List[List] = [[] for _ in range(parts)]
        for key, part in zip(key_list, assignments.tolist()):
            buckets[part].append(key)
        return [
            (bucket, weights[assignments == part] if weights is not None else None)
            for part, bucket in enumerate(buckets)
        ]
    keys_arr = coerce_key_array(keys, len(keys))
    result: List[Tuple[Sequence, Optional[np.ndarray]]] = []
    for part in range(parts):
        picked = np.flatnonzero(assignments == part)
        result.append((keys_arr[picked], weights[picked] if weights is not None else None))
    return result


# --------------------------------------------------------------------------- #
# the lattice merger
# --------------------------------------------------------------------------- #


class LatticeMerger:
    """Reduces replica counter lattices and answers ``output(theta)`` on the merge.

    The merger owns a replica-shaped *template* (per-replica counter sizing,
    so capacities line up with the replica summaries); :meth:`output` hands
    the merged lattice to the template's
    :meth:`~repro.core.output.LatticeHHH.query`, which supplies the
    algorithm-specific scaling and sampling correction (``V`` and the
    ``2 Z sqrt(NV)`` term for RHHH) against the combined stream length.
    The template's own counters, total, versions and cache are never touched.

    Replica states are reduced in replica order: at each lattice node the
    first replica's counter is the merge target and every later one is
    merged into it (``merge`` never mutates its argument).  With keys
    hash-partitioned, the fully-specified (level-0) node sees disjoint key
    sets and merges with ``disjoint=True`` - the merged estimate over-counts
    a key by at most its owning replica's error.  Generalized nodes
    aggregate keys from many replicas and take the generic merge, whose
    estimates stay within the *summed* per-replica error bounds.

    Queries are incremental: each node's merged counter is cached under a
    driver-supplied signature (an equal signature promises an unchanged
    merge at that node), a rebuilt node bumps the merger's per-node version
    handed to the incremental Output pass, and that pass keeps its own
    :attr:`cache`.  Setting :attr:`cache` to ``None`` forces the
    from-scratch reference (full re-merge, uncached Output) that the
    streaming-parity suite compares against.

    Args:
        algorithm: the deployment's algorithm spec.
        hierarchy: the shared hierarchical domain.
        parts: number of replicas (drives the per-replica sizing).
    """

    def __init__(
        self,
        algorithm: AlgorithmSpec,
        hierarchy: Hierarchy,
        parts: int,
    ) -> None:
        from repro.api.registry import build_algorithm

        self.template = build_algorithm(
            per_shard_algorithm_spec(algorithm, algorithm.seed, parts), hierarchy
        )
        if not isinstance(self.template, LatticeHHH):
            raise ConfigurationError(
                f"algorithm {algorithm.name!r} keeps no per-node counter lattice; "
                "merged execution supports the lattice algorithms (rhhh, mst, sampled_mst)"
            )
        probe = self.template.node_counter(0)
        if type(probe).merge is FrequencyEstimator.merge:
            raise ConfigurationError(
                f"counter backend {type(probe).__name__} does not implement merge(); "
                "pick a mergeable backend (space_saving, array_space_saving, "
                "misra_gries, count_min, count_sketch)"
            )
        self._disjoint = [hierarchy.node_level(node) == 0 for node in range(hierarchy.size)]
        self._nodes: List[Optional[Tuple[Hashable, object]]] = [None] * hierarchy.size
        self._total: Optional[Tuple[tuple, int]] = None
        self._versions: List[int] = [0] * hierarchy.size
        self.cache: Optional[OutputCache] = OutputCache()

    def reset(self) -> None:
        """Forget every cached merge and Output pass (replica state was replaced)."""
        self._nodes = [None] * len(self._nodes)
        self._total = None
        if self.cache is not None:
            self.cache.invalidate()

    def _merge_node(self, states: Sequence[ReplicaState], node: int, live: bool):
        counter = states[0][1][node]
        if live:
            counter = copy.deepcopy(counter)
        disjoint = self._disjoint[node]
        for _, counters in states[1:]:
            counter.merge(counters[node], disjoint=disjoint)
        return counter

    def merged_counters(
        self, states: Callable[[bool], Sequence[ReplicaState]], *, live: bool
    ) -> Tuple[List, int]:
        """The from-scratch reduction: ``(per-node merged counters, summed total)``.

        ``states(fresh)`` returns the replica states; this path passes
        ``fresh=True``, asking the driver to rebuild anything it caches
        (the aggregator's decodes) so the reference shares no state with
        the incremental path.  ``live`` says the states are the replicas
        themselves, so each merge target is deep-copied first (private
        copies - unpickled or freshly decoded - are merged into directly).
        """
        fetched = states(True)
        merged = [self._merge_node(fetched, node, live) for node in range(len(self._nodes))]
        return merged, sum(total for total, _ in fetched)

    def reduce(
        self,
        signatures: Sequence[Hashable],
        states: Callable[[bool], Sequence[ReplicaState]],
        *,
        live: bool,
    ) -> Tuple[List, int]:
        """Incremental twin of :meth:`merged_counters`: re-merge stale nodes only.

        Live replicas are cheap to read and their totals can move without
        any counter changing, so they are read on every call; private states
        are fetched only when some signature moved, and the signatures then
        also pin the total.  Value-identical to :meth:`merged_counters`:
        same merge order, same disjointness flags.
        """
        stale = [
            node
            for node, (signature, entry) in enumerate(zip(signatures, self._nodes))
            if entry is None or entry[0] != signature
        ]
        key = tuple(signatures)
        if not stale and not live and self._total is not None and self._total[0] == key:
            return [entry[1] for entry in self._nodes], self._total[1]
        fetched = states(False)
        for node in stale:
            self._nodes[node] = (signatures[node], self._merge_node(fetched, node, live))
            self._versions[node] += 1
        total = sum(replica_total for replica_total, _ in fetched)
        self._total = (key, total)
        return [entry[1] for entry in self._nodes], total

    def output(
        self,
        theta: float,
        signatures: Sequence[Hashable],
        states: Callable[[bool], Sequence[ReplicaState]],
        loss: Callable[[], Tuple[int, List[ShardLoss]]],
        *,
        live: bool,
    ) -> HHHOutput:
        """Merge the replicas and run the template's query on the result.

        ``loss`` is read after the states are fetched (a fetch can discover
        a failure) and returns the weight no replica state accounts for with
        its per-replica :class:`~repro.core.supervise.ShardLoss` reports.
        That weight widens the bounds conservatively: ``N`` still counts it,
        every conditioned estimate gains it (so no prefix that could have
        reached the threshold is dropped), every candidate's upper bound is
        stretched by it, and the reports ride along on ``failed_shards``.
        """
        if self.cache is not None:
            merged, merged_total = self.reduce(signatures, states, live=live)
        else:
            merged, merged_total = self.merged_counters(states, live=live)
        lost, losses = loss()
        result = self.template.query(
            theta, merged, merged_total + lost, self._versions, self.cache, lost
        )
        if lost:
            result.candidates = [
                dataclasses.replace(candidate, upper_bound=candidate.upper_bound + lost)
                for candidate in result.candidates
            ]
        result.failed_shards = list(losses)
        return result


# --------------------------------------------------------------------------- #
# the sharded engine
# --------------------------------------------------------------------------- #


class ShardedHHH(HHHAlgorithm):
    """Hash-partitioned shard replicas of a lattice HHH algorithm.

    Args:
        algorithm: the :class:`~repro.api.specs.AlgorithmSpec` each shard
            replica is built from (or a bare registry name).  The spec's
            ``seed`` is the *root* seed; per-shard seeds are spawned from it.
        hierarchy: the hierarchical domain - a registry name (preferred for
            process workers: each worker rebuilds it by name) or a
            :class:`~repro.hierarchy.base.Hierarchy` instance (pickled to
            the workers; the builtin hierarchies are plain data).
        shards: number of shard replicas (>= 1).
        parallel: ``True`` gives each shard a worker process; ``False`` runs
            the replicas in-process (same results, no processes - the
            lockstep reference and the sensible choice for tiny runs).
        start_method: multiprocessing start method for the worker pool
            (default ``"spawn"``, the method that works on every platform
            and never inherits live state).
        supervisor: failure handling for the worker pool - a
            :class:`~repro.core.supervise.SupervisorPolicy`, a bare policy
            name (``"fail"``/``"restart"``/``"degrade"``), or ``None`` for
            the default fail-fast policy.
        fault_plan: optional :class:`~repro.core.faults.FaultPlan` firing
            deterministic worker kills/delays at scheduled batch indices
            (``parallel=True`` only; the fault-injection test hook).
    """

    name = "sharded"

    def __init__(
        self,
        algorithm: Union[AlgorithmSpec, str] = "rhhh",
        hierarchy: Union[Hierarchy, str] = "2d-bytes",
        shards: int = 2,
        *,
        parallel: bool = True,
        start_method: str = "spawn",
        supervisor: Union[SupervisorPolicy, str, None] = None,
        fault_plan=None,
    ) -> None:
        from repro.api.registry import build_algorithm, make_hierarchy

        spec = AlgorithmSpec(name=algorithm) if isinstance(algorithm, str) else algorithm
        if not isinstance(spec, AlgorithmSpec):
            raise ConfigurationError(
                f"algorithm must be an AlgorithmSpec or name, got {type(algorithm).__name__}"
            )
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ConfigurationError(f"shards must be a positive integer, got {shards!r}")
        if isinstance(supervisor, str):
            supervisor = SupervisorPolicy(policy=supervisor)
        elif supervisor is None:
            supervisor = SupervisorPolicy()
        elif not isinstance(supervisor, SupervisorPolicy):
            raise ConfigurationError(
                f"supervisor must be a SupervisorPolicy or policy name, "
                f"got {type(supervisor).__name__}"
            )
        if fault_plan is not None and not parallel:
            raise ConfigurationError(
                "fault_plan injects worker kills/delays and requires parallel=True"
            )
        hierarchy_obj = make_hierarchy(hierarchy) if isinstance(hierarchy, str) else hierarchy
        super().__init__(hierarchy_obj)
        self._spec = spec
        self._shards = shards
        self._parallel = bool(parallel)
        self._start_method = start_method
        self._policy = supervisor
        self._seeds = spawn_shard_seeds(spec.seed, shards)
        self._shard_specs = [
            per_shard_algorithm_spec(spec, seed, shards) for seed in self._seeds
        ]
        # Built up front, so unshardable specs fail fast.
        self._merger = LatticeMerger(spec, hierarchy_obj, shards)
        self._template = self._merger.template
        self._replicas: List[HHHAlgorithm] = []
        self._supervisor: Optional[ShardSupervisor] = None
        self._batch_index = 0
        self._closed = False
        if self._parallel:
            self._supervisor = ShardSupervisor(
                self._shard_specs,
                hierarchy if isinstance(hierarchy, str) else hierarchy_obj,
                supervisor,
                start_method=start_method,
                fault_plan=fault_plan,
            )
            self._supervisor.start()
        else:
            self._replicas = [
                build_algorithm(shard_spec, hierarchy_obj) for shard_spec in self._shard_specs
            ]

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #

    def close(self, raise_errors: bool = True) -> None:
        """Shut the worker pool down (idempotent; serial mode is a no-op).

        The supervisor collects close-time failures of shards not already
        reported and raises them as one error naming each shard and
        exitcode; ``raise_errors=False`` (the GC/unwind path) still cleans
        every process up but swallows the report.
        """
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.close(raise_errors=raise_errors)

    def __enter__(self) -> "ShardedHHH":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> None:
        # Do not mask an in-flight exception with close-time failures.
        self.close(raise_errors=exc_type is None)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close(raise_errors=False)
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #

    def update(self, key: Hashable, weight: int = 1) -> None:
        """Route one packet to the shard owning its key.

        ``self._total`` moves only after the owning shard acknowledged (or
        the supervisor recovered/degraded the failure), so a dispatch
        failure never leaves the recorded total ahead of the shard state.
        """
        check_weight(weight)
        shard = shard_of_key(key, self._shards)
        if self._parallel:
            batch = self._batch_index
            self._supervisor.begin_batch(batch)
            if self._supervisor.send_update(shard, ("update", key, weight), weight, batch):
                self._supervisor.collect_acks([shard], batch)
            self._supervisor.maybe_checkpoint(batch)
            self._batch_index += 1
        else:
            self._replicas[shard].update(key, weight)
            self._batch_index += 1
        self._total += weight

    # The sharded engine has no scalar twin of its own: its reference is the
    # serial replica set the lockstep suite (test_shard.py) drives in parallel.
    def update_batch(  # reprolint: ok(twin-parity)
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Hash-partition the batch and drive every shard's own ``update_batch``.

        In parallel mode the sub-batches are dispatched to all workers before
        any acknowledgement is collected, so the per-shard vectorized engines
        run concurrently; serial mode applies them in shard order.  Either
        way each shard sees exactly the sub-stream of keys it owns, in stream
        order - the property the lockstep suite pins.  The recorded total
        only moves once every touched shard acknowledged (or its failure was
        recovered/degraded), keeping ``total`` consistent with shard state
        when a dispatch fails.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        parts = partition_batch(keys, weights_arr, self._shards)
        if self._parallel:
            batch = self._batch_index
            self._supervisor.begin_batch(batch)
            touched = []
            for shard, (sub_keys, sub_weights) in enumerate(parts):
                if len(sub_keys) == 0:
                    continue
                sub_weight = (
                    int(sub_weights.sum()) if sub_weights is not None else len(sub_keys)
                )
                message = ("update_batch", sub_keys, sub_weights)
                if self._supervisor.send_update(shard, message, sub_weight, batch):
                    touched.append(shard)
            self._supervisor.collect_acks(touched, batch)
            self._supervisor.maybe_checkpoint(batch)
            self._batch_index += 1
        else:
            for shard, (sub_keys, sub_weights) in enumerate(parts):
                if len(sub_keys):
                    self._replicas[shard].update_batch(sub_keys, sub_weights)
            self._batch_index += 1
        self._total += total_weight

    # ------------------------------------------------------------------ #
    # checkpoint/restore of the whole engine
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> dict:
        """Full engine snapshot: per-shard runtime states + engine bookkeeping.

        Plain picklable data, suitable for
        :func:`repro.core.checkpoint.save_checkpoint`.  Raises
        :class:`~repro.exceptions.CheckpointError` on a degraded engine
        (lost shards have no state left to snapshot).
        """
        if self._parallel:
            shard_states = self._supervisor.runtime_states()
        else:
            shard_states = [capture_runtime_state(replica) for replica in self._replicas]
        return {
            "engine": "sharded",
            "shards": self._shards,
            "seeds": list(self._seeds),
            "total": self._total,
            "batch_index": self._batch_index,
            "shard_states": shard_states,
        }

    def restore_state(self, state: dict) -> None:
        """Apply a :meth:`snapshot_state` snapshot to this (freshly built) engine.

        The engine must have been built from the same spec: shard count and
        spawned seeds are verified, so a checkpoint can never be silently
        replayed onto a differently-partitioned engine.  In parallel mode
        the restored states also become the supervisor's recovery baseline.
        """
        if state.get("engine") != "sharded":
            raise CheckpointError(
                f"checkpoint holds {state.get('engine')!r} state, expected 'sharded'"
            )
        if state.get("shards") != self._shards:
            raise CheckpointError(
                f"checkpoint was taken with {state.get('shards')} shards, engine has {self._shards}"
            )
        if list(state.get("seeds", [])) != list(self._seeds):
            raise CheckpointError(
                "checkpoint shard seeds do not match this engine's spawned seeds "
                "(different root seed or shard count)"
            )
        shard_states = state["shard_states"]
        if self._parallel:
            self._supervisor.restore_states(shard_states)
        else:
            for replica, shard_state in zip(self._replicas, shard_states):
                apply_runtime_state(replica, shard_state)
        self._total = int(state["total"])
        self._batch_index = int(state["batch_index"])
        # Restored version stamps could coincidentally match cached
        # signatures from a different timeline.
        self._merger.reset()

    # ------------------------------------------------------------------ #
    # the merge reduction and queries
    # ------------------------------------------------------------------ #

    def _shard_states(self, fresh: bool) -> List[ReplicaState]:
        """``(total, counters)`` of every shard, in shard order.

        Parallel snapshots arrive as private unpickled copies via the
        supervisor, which substitutes the last supervision checkpoint for a
        degraded shard; serial mode hands over the live replicas.  Neither
        source is cached, so every call is already ``fresh``.
        """
        if self._parallel:
            states = self._supervisor.merge_states()
        else:
            states = [(replica.total, replica._counters) for replica in self._replicas]
        if not states:
            raise AlgorithmError(
                "no shard state survives the failures: every shard was lost "
                "before its first supervision checkpoint"
            )
        return states

    def _signatures(self) -> List[Hashable]:
        """Per-node merge signatures: replica version stamps, or the dispatch clock.

        Parallel mode ships whole states per query, so every node is keyed
        on the dispatch clock plus the loss account (which can move without
        a dispatch under the degrade policy).
        """
        if self._parallel:
            clock = (self._batch_index, self._supervisor.lost_packets())
            return [clock] * self.hierarchy.size
        return list(zip(*(replica._versions for replica in self._replicas)))

    def _loss(self) -> Tuple[int, List[ShardLoss]]:
        if self._supervisor is None:
            return 0, []
        return self._supervisor.lost_packets(), self._supervisor.losses()

    def merged_counters(self) -> Tuple[List, int]:
        """Reduce the shard summaries into ``(per-node counters, summed total)``.

        Under the degrade policy a lost shard contributes its last
        checkpointed summary, so the returned total *excludes* the packets
        reported in the supervisor's loss report.
        """
        return self._merger.merged_counters(self._shard_states, live=not self._parallel)

    def output(self, theta: float) -> HHHOutput:
        """Merge the shards and run the underlying algorithm's Output on the result.

        Lost weight under the degrade policy widens the bounds as
        :meth:`LatticeMerger.output` describes.  Queries run incrementally;
        ``_merger.cache = None`` forces the from-scratch reference path.
        """
        return self._merger.output(
            theta, self._signatures(), self._shard_states, self._loss, live=not self._parallel
        )

    def counters(self) -> int:
        if self._parallel:
            return self._shards * self._template.counters()
        return sum(replica.counters() for replica in self._replicas)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> int:
        """Number of shard replicas."""
        return self._shards

    @property
    def parallel(self) -> bool:
        """Whether shards run in worker processes."""
        return self._parallel

    @property
    def supervisor(self) -> Optional[ShardSupervisor]:
        """The worker-pool supervisor (``None`` in serial mode)."""
        return self._supervisor

    @property
    def supervisor_policy(self) -> SupervisorPolicy:
        """The failure policy in force."""
        return self._policy

    @property
    def failed_shards(self) -> List[ShardLoss]:
        """Loss reports of shards abandoned under the degrade policy."""
        return self._supervisor.losses() if self._supervisor is not None else []

    @property
    def batch_index(self) -> int:
        """Number of update/update_batch dispatch steps performed so far."""
        return self._batch_index

    @property
    def shard_seeds(self) -> List[int]:
        """The per-shard RNG seeds spawned from the root seed."""
        return list(self._seeds)

    @property
    def shard_specs(self) -> List[AlgorithmSpec]:
        """The per-shard algorithm specs (own seed, divided memory budget)."""
        return list(self._shard_specs)

    def worker_pids(self) -> dict:
        """Pid of every live worker keyed by shard (parallel mode only)."""
        if self._supervisor is None:
            return {}
        return self._supervisor.worker_pids()

    def shard_algorithm(self, shard: int) -> HHHAlgorithm:
        """The live replica of ``shard`` (serial mode only; for tests)."""
        if self._parallel:
            raise AlgorithmError("shard replicas live in worker processes when parallel=True")
        return self._replicas[shard]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "parallel" if self._parallel else "serial"
        return (
            f"ShardedHHH({self._spec.name!r}, shards={self._shards}, {mode}, "
            f"N={self._total})"
        )

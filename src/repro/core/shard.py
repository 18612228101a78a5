"""One replica driver: hash-routed replicas of a lattice algorithm, one answer.

:class:`ShardedHHH` runs a stream as ``N`` replicas of one lattice algorithm
(RHHH, MST or SampledMST - anything keeping one mergeable counter per
lattice node) and answers queries from the merge of the replica summaries.
The driver owns what every deployment shares:

* :func:`partition_batch` routes every key to exactly one replica
  (multiplicative hashing, :func:`shard_of_key` being its scalar twin),
  keeping stream order within each part.  The driver packs an integer batch
  once, reduced to the hierarchy's domain, routes the packed keys and ships
  each replica its packed part, so keys that reduce alike share a replica;
* the batch clock, at which fault-plan ``kill``/``delay`` events fire;
* the loss ledger: the weight dispatched to each replica, of which whatever
  no replica state accounts for becomes a
  :class:`~repro.core.supervise.ShardLoss`;
* :class:`LatticeMerger`, which reduces per-replica ``(total, counters)``
  states with the :meth:`~repro.hh.base.FrequencyEstimator.merge` protocol
  and runs the algorithm's Output on the merged lattice.

How a sub-batch reaches a replica and how its state comes back is a replica
set: :class:`InProcessReplicas` (``parallel=False``, the deterministic
lockstep reference), :class:`WorkerPoolReplicas` (one worker process per
replica under a :class:`~repro.core.supervise.ShardSupervisor`) and the
switch fleet of :class:`repro.distrib.cluster.DistributedCluster`.  Merged
output is *not* bit-identical to an unsharded run (the sampling draws differ
and Space Saving truncates the merged summary to capacity), which is why
``tests/core/test_shard.py`` and ``tests/eval/test_accuracy_regression.py``
pin the error-bound and (epsilon, delta)-coverage guarantees instead.

Per-shard RNG streams are derived with ``numpy.random.SeedSequence.spawn``:
for a fixed ``(seed, shards)`` pair every run draws the same per-shard
seeds, while different shards get independent streams.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.specs import AlgorithmSpec
from repro.core.base import HHHAlgorithm, HHHOutput
from repro.core.batch import check_weight, coerce_key_array, coerce_weights, hierarchy_key_array
from repro.core.checkpoint import apply_runtime_state, capture_runtime_state
from repro.core.rhhh import LatticeHHH
from repro.core.supervise import ShardLoss, ShardSupervisor, SupervisorPolicy
from repro.exceptions import AlgorithmError, CheckpointError, ConfigurationError
from repro.hh.base import FrequencyEstimator, unmergeable_error
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
    and int tuples the hierarchies emit).  The driver hands it keys already
    reduced to the hierarchy's domain, so keys that reduce alike share a
    shard.
    """
    if isinstance(key, tuple) and len(key) == 2:
        src, dst = key
        if isinstance(src, (int, np.integer)) and isinstance(dst, (int, np.integer)):
            mixed = ((int(src) * _GOLDEN_SRC) & _MASK64) ^ ((int(dst) * _GOLDEN_DST) & _MASK64)
            return (mixed >> _MIX_SHIFT) % shards
    if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
        return (((int(key) * _GOLDEN_SRC) & _MASK64) >> _MIX_SHIFT) % shards
    return hash(key) % shards


def shard_assignments(keys: Sequence, shards: int, *, pairs: bool = False) -> Optional[np.ndarray]:
    """Per-packet shard ids for a key batch, or ``None`` for non-numeric keys.

    Vectorized multiplicative hashing over the batch: 1-D integer arrays mix
    each key, ``(n, 2)`` arrays mix source and destination with different
    odd constants.  ``pairs=True`` reads a 1-D uint64 array as packed pairs
    (``src << 32 | dst``, the form
    :func:`~repro.hh.array_space_saving.pack_keys` gives) and mixes its two
    halves the same way, so a packed pair lands where its ``(n, 2)`` row
    does.  Identical keys always land in the same shard, which is what makes
    the shard summaries key-disjoint and the ``disjoint=True`` merge
    reduction valid.
    """
    arr = coerce_key_array(keys, len(keys))
    if arr is None or arr.dtype.kind not in "iu":
        return None
    if pairs:
        mixed = ((arr >> np.uint64(32)) * np.uint64(_GOLDEN_SRC)) ^ (
            (arr & np.uint64(0xFFFFFFFF)) * np.uint64(_GOLDEN_DST)
        )
    elif arr.ndim == 1:
        mixed = arr.astype(np.uint64) * np.uint64(_GOLDEN_SRC)
    elif arr.ndim == 2 and arr.shape[1] == 2:
        mixed = (arr[:, 0].astype(np.uint64) * np.uint64(_GOLDEN_SRC)) ^ (
            arr[:, 1].astype(np.uint64) * np.uint64(_GOLDEN_DST)
        )
    else:
        return None
    # The kept 31 bits fit uint32, whose modulo is several times cheaper.
    return ((mixed >> np.uint64(_MIX_SHIFT)).astype(np.uint32) % np.uint32(shards)).astype(np.int64)


def partition_batch(
    keys: Sequence,
    weights: Optional[np.ndarray],
    parts: int,
    *,
    pairs: bool = False,
) -> List[Tuple[Sequence, Optional[np.ndarray]]]:
    """Split a key batch into one ``(keys, weights)`` sub-batch per part.

    Every packet lands in the part :func:`shard_assignments` names (its
    ``pairs`` flag says ``keys`` holds packed pairs, as the driver ships
    them), in stream order, and its weight travels with it.  ``weights`` is
    the int64 array :func:`~repro.core.batch.coerce_weights` returns
    (``None`` for unit weights, which stays ``None`` in every part).
    Numeric batches are split as arrays; anything else (object arrays, wide
    ints, non-integer keys) goes through
    :meth:`~repro.core.base.HHHAlgorithm._iter_batch_keys`, is routed by
    :func:`shard_of_key`, and comes out as lists of plain keys.
    """
    if parts == 1:
        return [(keys if isinstance(keys, np.ndarray) else list(keys), weights)]
    assignments = shard_assignments(keys, parts, pairs=pairs)
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
    :meth:`~repro.core.rhhh.LatticeHHH.query`, which supplies the
    algorithm-specific scaling and sampling correction (``V`` and the
    ``2 Z sqrt(NV)`` term for RHHH) against the combined stream length.
    The template's own counters, total and versions are never touched.

    Replica states are reduced in replica order: at each lattice node the
    first replica's counter is the merge target and every later one is
    merged into it (``merge`` never mutates its argument).  With keys
    hash-partitioned, the fully-specified (level-0) node sees disjoint key
    sets and merges with ``disjoint=True`` - the merged estimate over-counts
    a key by at most its owning replica's error.  Generalized nodes
    aggregate keys from many replicas and take the generic merge, whose
    estimates stay within the *summed* per-replica error bounds.

    The merger is backend-agnostic; the cost sits in the counters.  Worker
    replicas' array Space Saving counters arrive over the pipe holding
    their packed batch index, and in-process ones are deep-copied in the
    form they hold, so each node's merge runs on packed keys with array
    operations (:meth:`~repro.hh.array_space_saving.ArraySpaceSaving.merge`,
    pinned to its scalar twin ``merge_reference``).

    Merges are reused across queries: each node's merged counter is cached
    under a driver-supplied signature (an equal signature promises an
    unchanged merge at that node), and only nodes whose signature moved
    are re-merged (:meth:`reduce`).  Setting :attr:`incremental` to
    ``False`` re-merges every node on every query instead
    (:meth:`merged_counters`), the reference the parity suites compare
    against.  Either way the query itself is one array Output pass.

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
            raise unmergeable_error(probe)
        self._disjoint = [hierarchy.node_level(node) == 0 for node in range(hierarchy.size)]
        self._nodes: List[Optional[Tuple[Hashable, object]]] = [None] * hierarchy.size
        self._total: Optional[Tuple[tuple, int]] = None
        #: Reuse unchanged nodes' merges between queries (:meth:`reduce`);
        #: ``False`` re-merges everything (:meth:`merged_counters`).
        self.incremental = True

    def reset(self) -> None:
        """Forget every cached merge (replica state was replaced)."""
        self._nodes = [None] * len(self._nodes)
        self._total = None

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
        if self.incremental:
            merged, merged_total = self.reduce(signatures, states, live=live)
        else:
            merged, merged_total = self.merged_counters(states, live=live)
        lost, losses = loss()
        result = self.template.query(theta, merged, merged_total + lost, lost)
        if lost:
            result.candidates = [
                dataclasses.replace(candidate, upper_bound=candidate.upper_bound + lost)
                for candidate in result.candidates
            ]
        result.failed_shards = list(losses)
        return result


# --------------------------------------------------------------------------- #
# replica sets: how sub-batches reach the replicas and how state comes back
# --------------------------------------------------------------------------- #

#: One dispatch job: ``(replica, message, weight)``.  ``message`` is a worker
#: protocol command, ``("update_packed", packed, weights)``, ``("update_batch",
#: keys, weights)`` or ``("update", key, weight)``, and ``weight`` the packet
#: weight it carries.
Job = Tuple[int, tuple, int]

#: What a lagging replica's state still accounts for:
#: ``(accounted weight, exitcode, at_batch, reason)``.
Account = Tuple[int, Optional[int], Optional[int], str]


class ReplicaSet:
    """How sub-batches reach the replicas and how their state comes back.

    The driver owns routing, the batch clock, fault firing and the loss
    ledger; a replica set moves work and state.  Every set implements
    ``apply(jobs, batch)``, ``states(fresh)`` (the merger's replica states),
    ``signatures(clock, nodes)`` (per-node merge signatures),
    ``runtime_states()``/``restore_states(states)`` and ``counters()``;
    sets that accept fault plans add ``kill(replica)`` and
    ``delay(replica, seconds, batch)``.  ``live`` says :meth:`states` hands
    over the replicas' own counters, so the merger copies each merge target.
    """

    live = False

    def end_batch(self, batch: int) -> None:
        """Hook after every dispatch step."""

    def flush(self) -> None:
        """Bring the queryable state up to date before a query."""

    def accounts(self) -> Dict[int, Account]:
        """Replicas whose state may lag their dispatched weight."""
        return {}

    @property
    def failed(self) -> List[int]:
        """Replicas lost for good (reported even when nothing is lost yet)."""
        return []

    def close(self, raise_errors: bool = True) -> None:
        """Release what the set holds (idempotent)."""


class InProcessReplicas(ReplicaSet):
    """Live replicas in this process, applied in replica order: the lockstep reference."""

    live = True

    def __init__(self, specs: Sequence[AlgorithmSpec], hierarchy: Hierarchy) -> None:
        from repro.api.registry import build_algorithm

        self.algorithms = [build_algorithm(spec, hierarchy) for spec in specs]

    def apply(self, jobs: Sequence[Job], batch: int) -> None:
        for replica, (command, *args), _ in jobs:
            getattr(self.algorithms[replica], command)(*args)

    def states(self, fresh: bool) -> List[ReplicaState]:
        return [(replica.total, replica._counters) for replica in self.algorithms]

    def signatures(self, clock: int, nodes: int) -> List[Hashable]:
        """Per node, the replicas' own version stamps."""
        return list(zip(*(replica._versions for replica in self.algorithms)))

    def runtime_states(self) -> List[dict]:
        return [capture_runtime_state(replica) for replica in self.algorithms]

    def restore_states(self, states: Sequence[dict]) -> None:
        for replica, state in zip(self.algorithms, states):
            apply_runtime_state(replica, state)

    def counters(self) -> int:
        return sum(replica.counters() for replica in self.algorithms)


class WorkerPoolReplicas(ShardSupervisor, ReplicaSet):
    """One worker process per replica: a :class:`ShardSupervisor` speaking the set protocol.

    Sub-batches go out to every worker before any acknowledgement is
    collected, so the replicas' vectorized engines run concurrently.  States
    come back as private unpickled copies; a shard abandoned under the
    degrade policy is represented by its last supervision checkpoint.
    """

    def __init__(
        self,
        specs: Sequence[AlgorithmSpec],
        hierarchy_payload,
        policy: SupervisorPolicy,
        start_method: str,
        counters: int,
    ) -> None:
        super().__init__(specs, hierarchy_payload, policy, start_method=start_method)
        self._counters = counters
        try:
            self.start()
        except BaseException:
            self.close(raise_errors=False)
            raise

    def apply(self, jobs: Sequence[Job], batch: int) -> None:
        touched = [replica for replica, message, _ in jobs if self.send_update(replica, message, batch)]
        self.collect_acks(touched, batch)

    def end_batch(self, batch: int) -> None:
        self.maybe_checkpoint(batch)

    def states(self, fresh: bool) -> List[ReplicaState]:
        return self.merge_states()

    def signatures(self, clock: int, nodes: int) -> List[Hashable]:
        """Whole states ship per query, so every node keys on the clock and the dead set."""
        return [(clock, tuple(self.failed_shards))] * nodes

    def accounts(self) -> Dict[int, Account]:
        return {shard: self.dead_account(shard) for shard in self.failed_shards}

    failed = ShardSupervisor.failed_shards

    def counters(self) -> int:
        return self._counters


# --------------------------------------------------------------------------- #
# the replica driver
# --------------------------------------------------------------------------- #


class ShardedHHH(HHHAlgorithm):
    """Hash-partitioned replicas of a lattice HHH algorithm behind one interface.

    Args:
        algorithm: the :class:`~repro.api.specs.AlgorithmSpec` each replica
            is built from (or a bare registry name).  The spec's ``seed`` is
            the *root* seed; per-replica seeds are spawned from it.
        hierarchy: the hierarchical domain - a registry name (preferred for
            process workers: each worker rebuilds it by name) or a
            :class:`~repro.hierarchy.base.Hierarchy` instance (pickled to
            the workers; the builtin hierarchies are plain data).
        shards: number of replicas (>= 1).
        parallel: ``True`` gives each replica a worker process; ``False``
            runs the replicas in-process (same results, no processes - the
            lockstep reference and the sensible choice for tiny runs).
        start_method: multiprocessing start method for the worker pool
            (default ``"spawn"``, the method that works on every platform
            and never inherits live state).
        supervisor: failure handling for the worker pool - a
            :class:`~repro.core.supervise.SupervisorPolicy`, a bare policy
            name (``"fail"``/``"restart"``/``"degrade"``), or ``None`` for
            the default fail-fast policy.
        fault_plan: optional :class:`~repro.core.faults.FaultPlan` whose
            ``kill``/``delay`` events fire at the start of the scheduled
            batch (``parallel=True`` only; the fault-injection test hook).
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
        from repro.api.registry import make_hierarchy

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
        for event in fault_plan.events if fault_plan is not None else ():
            if event.kind in ("kill", "delay") and event.shard >= shards:
                raise ConfigurationError(
                    f"fault plan {event.kind!r} event at batch {event.at_batch} targets "
                    f"shard {event.shard}, but the engine has {shards} replicas"
                )
        hierarchy_obj = make_hierarchy(hierarchy) if isinstance(hierarchy, str) else hierarchy
        super().__init__(hierarchy_obj)
        self._spec = spec
        self._shards = shards
        self._policy = supervisor
        self._fault_plan = fault_plan
        self._seeds = spawn_shard_seeds(spec.seed, shards)
        self._shard_specs = [
            per_shard_algorithm_spec(spec, seed, shards) for seed in self._seeds
        ]
        # Built up front, so unshardable specs fail fast.
        self._merger = LatticeMerger(spec, hierarchy_obj, shards)
        self._template = self._merger.template
        #: The fully specified node's mask: every node mask is a sub-mask of
        #: it, so it reduces a key to the hierarchy's domain without changing
        #: what any replica stores.  Keys are routed by their reduction, so
        #: keys that reduce alike share a replica.
        self._reduce = self._template._generalizers[0]
        #: The loss ledger: weight routed to each replica so far.
        self._dispatched = [0] * shards
        self._batch_index = 0
        self._closed = False
        self._replicas = self._build_replicas(hierarchy, parallel, start_method)

    def _build_replicas(self, hierarchy, parallel: bool, start_method: str) -> ReplicaSet:
        """The replica set: a worker pool, or in-process replicas."""
        if parallel:
            return WorkerPoolReplicas(
                self._shard_specs,
                hierarchy if isinstance(hierarchy, str) else self.hierarchy,
                self._policy,
                start_method,
                self._shards * self._template.counters(),
            )
        if self._fault_plan is not None:
            raise ConfigurationError(
                "fault_plan injects worker kills/delays and requires parallel=True"
            )
        return InProcessReplicas(self._shard_specs, self.hierarchy)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self, raise_errors: bool = True) -> None:
        """Release the replica set (idempotent; only the worker pool holds anything).

        The supervisor collects close-time failures of shards not already
        reported and raises them as one error naming each shard and
        exitcode; ``raise_errors=False`` (the GC/unwind path) still cleans
        every process up but swallows the report.
        """
        if self._closed:
            return
        self._closed = True
        self._replicas.close(raise_errors=raise_errors)

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

    def _dispatch(self, jobs: List[Job], total_weight: int) -> None:
        """One dispatch step: fire due faults, apply the jobs, then tick the clock.

        The total and the ledger move only after the replica set applied
        every job (or its failure policy recovered or degraded the failure),
        so a dispatch failure never leaves them ahead of replica state.
        """
        batch = self._batch_index
        if self._fault_plan is not None:
            for replica in self._fault_plan.kills_at(batch):
                self._replicas.kill(replica)
            for replica, seconds in self._fault_plan.delays_at(batch):
                self._replicas.delay(replica, seconds, batch)
        self._replicas.apply(jobs, batch)
        self._replicas.end_batch(batch)
        for replica, _, weight in jobs:
            self._dispatched[replica] += weight
        self._batch_index += 1
        self._total += total_weight

    def _routing_key(self, key: Hashable) -> Hashable:
        """``key`` reduced to the hierarchy's domain, or as it is if it cannot be."""
        try:
            return self._reduce(key)
        except Exception:  # not a key of the hierarchy: its replica raises the error
            return key

    def update(self, key: Hashable, weight: int = 1) -> None:
        """Route one packet to the replica owning its key (one dispatch step)."""
        check_weight(weight)
        replica = shard_of_key(self._routing_key(key), self._shards)
        self._dispatch([(replica, ("update", key, weight), weight)], weight)

    # The driver has no scalar twin of its own: its reference is the
    # in-process replica set the lockstep suites drive the other sets against.
    def update_batch(  # reprolint: ok(twin-parity)
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Pack the batch once, hash-partition it and feed every replica its part.

        The batch is checked and packed here, with the template's
        :meth:`~repro.core.rhhh.LatticeHHH._pack` (which reduces keys outside
        the hierarchy's domain first), routed on the packed keys, and each
        replica gets ``("update_packed", packed part, weights)``.  A batch
        that does not pack (keys numpy cannot hold, hierarchies without a
        packed form) is reduced key by key and ships as ``("update_batch",
        keys, weights)``.  Each replica sees exactly the sub-stream of keys
        it owns, in stream order - the property the lockstep suites pin.  A
        batch that cannot be keys of the hierarchy raises before it is
        partitioned.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        keys_arr = hierarchy_key_array(keys, self._hierarchy)
        packed = None if keys_arr is None else self._template._pack(keys_arr)
        if packed is None:
            command = "update_batch"
            reduced = [self._routing_key(key) for key in self._iter_batch_keys(keys)]
            parts = partition_batch(reduced, weights_arr, self._shards)
        else:
            command = "update_packed"
            parts = partition_batch(packed, weights_arr, self._shards, pairs=packed.dtype == np.uint64)
        jobs = [
            (
                replica,
                (command, sub_keys, sub_weights),
                int(sub_weights.sum()) if sub_weights is not None else len(sub_keys),
            )
            for replica, (sub_keys, sub_weights) in enumerate(parts)
            if len(sub_keys)
        ]
        self._dispatch(jobs, total_weight)

    # ------------------------------------------------------------------ #
    # checkpoint/restore of the whole engine
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> dict:
        """Full engine snapshot: per-replica runtime states + engine bookkeeping.

        Plain picklable data, suitable for
        :func:`repro.core.checkpoint.save_checkpoint`.  Raises
        :class:`~repro.exceptions.CheckpointError` on a degraded pool (lost
        shards have no state left to snapshot) and on the switch fleet.
        """
        return {
            "engine": "sharded",
            "shards": self._shards,
            "seeds": list(self._seeds),
            "total": self._total,
            "batch_index": self._batch_index,
            "shard_states": self._replicas.runtime_states(),
        }

    def restore_state(self, state: dict) -> None:
        """Apply a :meth:`snapshot_state` snapshot to this (freshly built) engine.

        The engine must have been built from the same spec: shard count and
        spawned seeds are verified, so a checkpoint can never be silently
        replayed onto a differently-partitioned engine.  A worker pool also
        takes the restored states as its recovery baseline.
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
        self._replicas.restore_states(shard_states)
        # Snapshots are only taken with every replica live, so each state
        # accounts for exactly the weight dispatched to it.
        self._dispatched = [int(shard["attrs"]["_total"]) for shard in shard_states]
        self._total = int(state["total"])
        self._batch_index = int(state["batch_index"])
        # Restored version stamps could coincidentally match cached
        # signatures from a different timeline.
        self._merger.reset()

    # ------------------------------------------------------------------ #
    # the merge reduction, the loss ledger and queries
    # ------------------------------------------------------------------ #

    def _shard_states(self, fresh: bool) -> List[ReplicaState]:
        """``(total, counters)`` of every replica with state left, in replica order."""
        states = self._replicas.states(fresh)
        if not states:
            raise AlgorithmError(
                "no shard state survives the failures: every shard was lost "
                "before its first supervision checkpoint"
            )
        return states

    def _loss(self) -> Tuple[int, List[ShardLoss]]:
        """The loss ledger: dispatched weight no replica state accounts for.

        A replica is reported when it lost weight or is lost for good.
        """
        failed = set(self._replicas.failed)
        losses = [
            ShardLoss(replica, self._dispatched[replica] - accounted, exitcode, at_batch, reason)
            for replica, (accounted, exitcode, at_batch, reason) in sorted(
                self._replicas.accounts().items()
            )
        ]
        losses = [loss for loss in losses if loss.lost_packets > 0 or loss.shard in failed]
        return sum(loss.lost_packets for loss in losses), losses

    def merged_counters(self) -> Tuple[List, int]:
        """Reduce the replica summaries into ``(per-node counters, summed total)``.

        The total counts what the replica states account for, so it
        *excludes* the weight the loss ledger reports.
        """
        return self._merger.merged_counters(self._shard_states, live=self._replicas.live)

    def output(self, theta: float) -> HHHOutput:
        """Merge the replicas and run the underlying algorithm's Output on the result.

        Lost weight widens the bounds as :meth:`LatticeMerger.output`
        describes.  Unchanged nodes' merges are reused;
        ``_merger.incremental = False`` re-merges every node instead.
        """
        self._replicas.flush()
        return self._merger.output(
            theta,
            self._replicas.signatures(self._batch_index, self.hierarchy.size),
            self._shard_states,
            self._loss,
            live=self._replicas.live,
        )

    def counters(self) -> int:
        return self._replicas.counters()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> int:
        """Number of replicas."""
        return self._shards

    @property
    def parallel(self) -> bool:
        """Whether replicas run in worker processes."""
        return isinstance(self._replicas, WorkerPoolReplicas)

    @property
    def supervisor(self) -> Optional[ShardSupervisor]:
        """The worker-pool supervisor (``None`` without a worker pool)."""
        return self._replicas if self.parallel else None

    @property
    def supervisor_policy(self) -> SupervisorPolicy:
        """The failure policy in force."""
        return self._policy

    @property
    def failed_shards(self) -> List[ShardLoss]:
        """Loss reports of replicas whose state lags their dispatched weight."""
        return self._loss()[1]

    @property
    def batch_index(self) -> int:
        """Number of update/update_batch dispatch steps performed so far."""
        return self._batch_index

    @property
    def shard_seeds(self) -> List[int]:
        """The per-replica RNG seeds spawned from the root seed."""
        return list(self._seeds)

    @property
    def shard_specs(self) -> List[AlgorithmSpec]:
        """The per-replica algorithm specs (own seed, divided memory budget)."""
        return list(self._shard_specs)

    def worker_pids(self) -> dict:
        """Pid of every live worker keyed by shard (worker pool only)."""
        supervisor = self.supervisor
        return supervisor.worker_pids() if supervisor is not None else {}

    def shard_algorithm(self, shard: int) -> HHHAlgorithm:
        """The live replica of ``shard`` (in-process replicas only; for tests)."""
        if not isinstance(self._replicas, InProcessReplicas):
            raise AlgorithmError("shard replicas live in worker processes when parallel=True")
        return self._replicas.algorithms[shard]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "parallel" if self.parallel else "serial"
        return (
            f"ShardedHHH({self._spec.name!r}, shards={self._shards}, {mode}, "
            f"N={self._total})"
        )

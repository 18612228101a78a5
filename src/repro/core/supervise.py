"""Shard-worker supervision: the worker pool's spawn, IPC and failure handling.

A :class:`ShardSupervisor` owns the processes behind the worker-pool replica
set of :class:`repro.core.shard.ShardedHHH`:

* every wait is ``poll()``-based with a deadline and interleaved
  ``process.is_alive()`` / exitcode liveness checks, so death and hangs are
  detected within the configured IPC timeout and reported as a typed
  :class:`~repro.exceptions.ShardFailure` naming the shard, its pid and its
  exitcode;
* a :class:`SupervisorPolicy` decides what a failure means.  ``fail``
  (default) raises.  ``restart`` respawns the shard, restores its last
  supervision checkpoint (exact counter + RNG state, via
  :mod:`repro.core.checkpoint`) and replays the journal of updates
  dispatched since, so the engine's output matches the failure-free run
  exactly.  ``degrade`` abandons the shard: the run continues on the
  survivors and the last checkpoint stands in for the lost shard at merge
  time.  The driver's loss ledger turns "dispatched minus that checkpoint's
  total" into the :class:`ShardLoss` report.

The journal/checkpoint bookkeeping only runs under the recovering policies;
``fail`` adds no per-batch state.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.specs import AlgorithmSpec
from repro.core.checkpoint import apply_runtime_state, capture_runtime_state
from repro.exceptions import (
    AlgorithmError,
    CheckpointError,
    ConfigurationError,
    ShardFailure,
)

#: Supported failure policies.
SUPERVISOR_POLICIES = ("fail", "restart", "degrade")

#: Extra allowance for the first reply of a freshly spawned worker, which
#: pays the interpreter + numpy import cost before it can acknowledge.
_STARTUP_TIMEOUT_FLOOR = 60.0


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the supervisor reacts to shard-worker failure.

    Attributes:
        policy: ``"fail"`` (raise), ``"restart"`` (respawn from the last
            supervision checkpoint and replay the delta) or ``"degrade"``
            (continue on the survivors with quantified loss).
        timeout: seconds to wait for one worker reply before declaring a
            hang.
        poll_interval: granularity of the poll/liveness loop.
        checkpoint_every: batches between per-shard recovery snapshots
            (recovering policies only; bounds both the replay journal and
            the worst-case loss of a degraded shard).
    """

    policy: str = "fail"
    timeout: float = 30.0
    poll_interval: float = 0.05
    checkpoint_every: int = 64

    def __post_init__(self) -> None:
        if self.policy not in SUPERVISOR_POLICIES:
            raise ConfigurationError(
                f"unknown supervisor policy {self.policy!r}; expected one of {SUPERVISOR_POLICIES}"
            )
        if self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout!r}")
        if self.poll_interval <= 0:
            raise ConfigurationError(f"poll_interval must be > 0, got {self.poll_interval!r}")
        if not isinstance(self.checkpoint_every, int) or self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be a positive int, got {self.checkpoint_every!r}"
            )

    @property
    def recovers(self) -> bool:
        """Whether this policy keeps the journal/checkpoint state recovery needs."""
        return self.policy in ("restart", "degrade")


@dataclass
class ShardLoss:
    """The quantified damage of one replica whose state lags its dispatched weight.

    Attributes:
        shard: index of the replica (shard or switch).
        lost_packets: total weight dispatched to the replica that no
            surviving state accounts for.
        exitcode: the dead worker's exitcode (``-9`` for SIGKILL), or
            ``None`` for a hang or a switch.
        at_batch: batch index at which a worker failure was detected, or
            the epoch of a switch's last stored contribution, when known.
        reason: the failure message.
    """

    shard: int
    lost_packets: int
    exitcode: Optional[int]
    at_batch: Optional[int]
    reason: str


# --------------------------------------------------------------------------- #
# worker process loop
# --------------------------------------------------------------------------- #


def _shard_worker(conn, hierarchy_payload, spec_dict: dict) -> None:
    """One shard's process loop: build the replica, then serve commands.

    Spawn-safe by construction: everything the worker needs arrives as
    picklable data (a registry hierarchy name or a plain-data hierarchy
    instance, and the shard's ``AlgorithmSpec`` as a dict) and the replica
    is built inside the worker.  Replies are ``("ok", payload)`` or
    ``("error", traceback_text)``; the parent re-raises the latter.

    An update command (``update_packed``, ``update_batch`` or ``update``,
    each with ``(keys, weights)``) calls the replica's method of that name.
    Beyond the update, snapshot and close protocol the worker serves the
    supervision commands: ``checkpoint`` ships its runtime state to the
    parent, ``restore`` applies such a state after a respawn, and ``delay``
    sleeps before acknowledging (the fault-injection hook for slow/hung
    IPC).
    """
    from repro.api.registry import build_algorithm, make_hierarchy

    try:
        hierarchy = (
            make_hierarchy(hierarchy_payload)
            if isinstance(hierarchy_payload, str)
            else hierarchy_payload
        )
        algorithm = build_algorithm(AlgorithmSpec.from_dict(spec_dict), hierarchy)
        conn.send(("ok", None))
    except Exception:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        command = message[0]
        try:
            if command in ("update_packed", "update_batch", "update"):
                getattr(algorithm, command)(message[1], message[2])
                conn.send(("ok", None))
            elif command == "snapshot":
                conn.send(("ok", (algorithm.total, algorithm._counters)))
            elif command == "checkpoint":
                conn.send(("ok", capture_runtime_state(algorithm)))
            elif command == "restore":
                apply_runtime_state(algorithm, message[1])
                conn.send(("ok", None))
            elif command == "delay":
                time.sleep(message[1])
                conn.send(("ok", None))
            elif command == "close":
                conn.send(("ok", None))
                break
            else:
                conn.send(("error", f"unknown shard command {command!r}"))
        except Exception:
            conn.send(("error", traceback.format_exc()))
    conn.close()


# --------------------------------------------------------------------------- #
# the supervisor
# --------------------------------------------------------------------------- #


class ShardSupervisor:
    """Owns the shard worker pool: spawning, IPC, failure handling, shutdown.

    Args:
        shard_specs: one :class:`~repro.api.specs.AlgorithmSpec` per shard
            (own seed, divided memory budget).
        hierarchy_payload: registry name or picklable hierarchy instance,
            handed to every worker.
        policy: the :class:`SupervisorPolicy` in force.
        start_method: multiprocessing start method (default ``"spawn"``).
    """

    def __init__(
        self,
        shard_specs: Sequence[AlgorithmSpec],
        hierarchy_payload,
        policy: Optional[SupervisorPolicy] = None,
        *,
        start_method: str = "spawn",
    ) -> None:
        self._specs = list(shard_specs)
        self._hierarchy_payload = hierarchy_payload
        self._policy = policy or SupervisorPolicy()
        self._context = multiprocessing.get_context(start_method)
        count = len(self._specs)
        self._workers: List[Optional[Tuple[Any, Any]]] = [None] * count
        #: Per-shard journal of messages dispatched since the last
        #: supervision checkpoint (recovering policies only).
        self._journals: List[List[tuple]] = [[] for _ in range(count)]
        #: Per-shard last supervision checkpoint (capture_runtime_state dict).
        self._recovery: List[Optional[dict]] = [None] * count
        #: Per dead shard: the failure that killed it and the batch it was
        #: detected at.
        self._failures: Dict[int, Tuple[ShardFailure, Optional[int]]] = {}
        self._dead: set = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Spawn every worker and wait for its build acknowledgement."""
        for shard in range(len(self._specs)):
            self._spawn(shard)
        startup = max(self._policy.timeout, _STARTUP_TIMEOUT_FLOOR)
        for shard in range(len(self._specs)):
            self._await_ok(shard, timeout=startup)

    def _spawn(self, shard: int) -> None:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_worker,
            args=(child_conn, self._hierarchy_payload, self._specs[shard].to_dict()),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers[shard] = (process, parent_conn)

    def close(self, raise_errors: bool = True) -> None:
        """Shut the pool down, guaranteeing no orphaned worker survives.

        Every worker gets a close handshake bounded by the IPC timeout, then
        an unconditional join/terminate/kill escalation.  Close-time
        failures of shards not already reported (a worker that died without
        the engine noticing, or errors during the handshake) are collected
        and raised as one summarizing error naming each shard and exitcode -
        pass ``raise_errors=False`` (the ``__del__``/unwind path) to swallow
        them after cleanup.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        failures: List[Exception] = []
        for shard, entry in enumerate(self._workers):
            if entry is None:
                continue
            process, conn = entry
            if shard not in self._dead:
                try:
                    conn.send(("close", None))
                    self._await_ok(shard)
                except (ShardFailure, AlgorithmError) as exc:
                    failures.append(exc)
                except OSError as exc:
                    process.join(timeout=1.0)
                    failures.append(
                        ShardFailure(
                            f"shard worker failed (shard {shard}, pid {process.pid}): "
                            f"close handshake broke: {exc}"
                            + (
                                f" (exitcode {process.exitcode})"
                                if process.exitcode is not None
                                else ""
                            ),
                            shard=shard,
                            exitcode=process.exitcode,
                        )
                    )
            try:
                conn.close()
            except OSError:
                pass
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=2.0)
        self._workers = [None] * len(self._specs)
        if failures and raise_errors:
            if len(failures) == 1:
                raise failures[0]
            summary = "; ".join(str(failure) for failure in failures)
            raise AlgorithmError(
                f"{len(failures)} shard workers failed during close: {summary}"
            )

    # ------------------------------------------------------------------ #
    # IPC primitives: poll-based waits with liveness
    # ------------------------------------------------------------------ #

    def _await_ok(self, shard: int, timeout: Optional[float] = None):
        """Wait for one reply with a deadline and liveness checks.

        Raises :class:`ShardFailure` (naming shard, pid and exitcode) when
        the worker dies or the deadline passes, and plain
        :class:`AlgorithmError` when the (live) worker reports an error.
        """
        process, conn = self._workers[shard]
        budget = self._policy.timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while True:
            try:
                ready = conn.poll(self._policy.poll_interval)
            except (EOFError, OSError):
                raise self._death(shard, "its pipe closed before replying") from None
            if ready:
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    raise self._death(shard, "died before replying") from None
                break
            if not process.is_alive():
                # One grace poll: the reply may have been in flight when the
                # worker exited.
                try:
                    if conn.poll(0.2):
                        status, payload = conn.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise self._death(shard, "died before replying")
            if time.monotonic() >= deadline:
                raise ShardFailure(
                    f"shard worker failed (shard {shard}, pid {process.pid}): "
                    f"no reply within {budget:.1f}s (worker still alive - hung pipe?)",
                    shard=shard,
                    exitcode=None,
                )
        if status != "ok":
            raise AlgorithmError(
                f"shard worker failed (shard {shard}, pid {process.pid}):\n{payload}"
            )
        return payload

    def _death(self, shard: int, why: str) -> ShardFailure:
        """Build the ShardFailure describing a dead worker (joins it first)."""
        process, _ = self._workers[shard]
        process.join(timeout=1.0)
        exitcode = process.exitcode
        suffix = f" (exitcode {exitcode})" if exitcode is not None else ""
        return ShardFailure(
            f"shard worker failed (shard {shard}, pid {process.pid}): {why}{suffix}",
            shard=shard,
            exitcode=exitcode,
        )

    def _send_raw(self, shard: int, message: tuple) -> None:
        entry = self._workers[shard]
        if entry is None:
            raise ShardFailure(
                f"shard worker failed (shard {shard}): no live worker", shard=shard
            )
        _, conn = entry
        try:
            conn.send(message)
        except OSError:
            raise self._death(shard, "its pipe broke during send") from None

    def _request_all(
        self, shards: Sequence[int], message: tuple, at_batch: Optional[int] = None
    ) -> Dict[int, Any]:
        """Send one command to every listed shard, then await every reply.

        Every request is out before the first reply is read, so the workers
        build their replies concurrently.  A shard whose send or reply fails
        goes through the policy once every other reply is drained, so a
        stale reply never bleeds into the next command: a recovered shard is
        asked once more, a degraded one answers ``None`` (the caller falls
        back to its checkpointed state).  Fatal failures and worker-reported
        errors are raised after the drain, the first one seen first.
        """
        replies: Dict[int, Any] = {}
        failed: List[Tuple[int, ShardFailure]] = []
        errors: List[Exception] = []
        sent = []
        for shard in shards:
            try:
                self._send_raw(shard, message)
                sent.append(shard)
            except ShardFailure as failure:
                failed.append((shard, failure))
        for shard in sent:
            try:
                replies[shard] = self._await_ok(shard)
            except ShardFailure as failure:
                failed.append((shard, failure))
            except AlgorithmError as exc:
                errors.append(exc)
        for shard, failure in failed:
            try:
                self._handle_failure(shard, failure, at_batch=at_batch)
                if shard in self._dead:
                    replies[shard] = None
                    continue
                self._send_raw(shard, message)
                replies[shard] = self._await_ok(shard)
            except (ShardFailure, AlgorithmError) as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return replies

    def _live_shards(self) -> List[int]:
        """Shards not given up for dead, in shard order."""
        return [shard for shard in range(len(self._specs)) if shard not in self._dead]

    # ------------------------------------------------------------------ #
    # batch dispatch
    # ------------------------------------------------------------------ #

    def kill(self, shard: int) -> None:
        """SIGKILL a worker (fault injection); death is *discovered* later."""
        entry = self._workers[shard]
        if entry is None or shard in self._dead:
            return
        process, _ = entry
        if process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5.0)

    def delay(self, shard: int, seconds: float, at_batch: int) -> None:
        """Have a worker sleep before acknowledging (fault injection)."""
        if shard in self._dead or self._workers[shard] is None:
            return
        try:
            self._send_raw(shard, ("delay", float(seconds)))
            self._await_ok(shard)
        except ShardFailure as failure:
            self._handle_failure(shard, failure, at_batch=at_batch)

    def send_update(self, shard: int, message: tuple, at_batch: int) -> bool:
        """Dispatch one update command; ``True`` when an ack is now pending.

        ``False`` means no ack will arrive: the shard is dead, or the
        dispatch failed and restart recovery already applied the message
        via journal replay.
        """
        if shard in self._dead:
            return False
        if self._policy.recovers:
            self._journals[shard].append(message)
        _, conn = self._workers[shard]
        try:
            conn.send(message)
            return True
        except OSError:
            failure = self._death(shard, "its pipe broke during dispatch")
            self._handle_failure(shard, failure, at_batch=at_batch)
            return False

    def collect_acks(self, shards: Sequence[int], at_batch: int) -> None:
        """Await one ack per listed shard, draining every pipe before raising.

        Draining first keeps the request/reply protocol aligned even when an
        early shard fails: a stale ack never bleeds into the next command.
        Deaths and hangs go through the supervisor policy; worker-*reported*
        errors (worker alive, data-dependent failure) are re-raised as plain
        :class:`AlgorithmError` after the drain.
        """
        errors: List[Exception] = []
        for shard in shards:
            try:
                self._await_ok(shard)
            except ShardFailure as failure:
                try:
                    self._handle_failure(shard, failure, at_batch=at_batch)
                except ShardFailure as fatal:
                    errors.append(fatal)
            except AlgorithmError as exc:
                if self._policy.recovers and self._journals[shard]:
                    # The message is poison (the worker rejected it); keep it
                    # out of the replay journal so recovery is not poisoned
                    # with it too.
                    self._journals[shard].pop()
                errors.append(exc)
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------ #
    # failure handling
    # ------------------------------------------------------------------ #

    def _handle_failure(self, shard: int, failure: ShardFailure, *, at_batch: Optional[int]) -> None:
        """Apply the policy to a detected worker death/hang."""
        self._reap(shard)
        if self._policy.policy == "restart":
            try:
                self._recover(shard)
                return
            except Exception as exc:
                self._abandon(shard, failure, at_batch)
                raise ShardFailure(
                    f"shard worker failed (shard {shard}): restart recovery failed: {exc}",
                    shard=shard,
                    exitcode=failure.exitcode,
                ) from exc
        self._abandon(shard, failure, at_batch)
        if self._policy.policy == "fail":
            raise failure

    def _reap(self, shard: int) -> None:
        """Make sure a failed worker's process is gone and its pipe closed."""
        entry = self._workers[shard]
        if entry is None:
            return
        process, conn = entry
        try:
            conn.close()
        except OSError:
            pass
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - defensive
            process.kill()
            process.join(timeout=2.0)
        process.join(timeout=1.0)

    def _recover(self, shard: int) -> None:
        """Respawn a dead shard: last checkpoint + journaled delta, bit-exact.

        The checkpoint restores the exact counter and RNG state at the last
        supervision snapshot; the journal then replays every update
        dispatched since - including the one in flight when the worker died
        - so the recovered worker is indistinguishable from one that never
        crashed.
        """
        self._spawn(shard)
        self._await_ok(shard, timeout=max(self._policy.timeout, _STARTUP_TIMEOUT_FLOOR))
        if self._recovery[shard] is not None:
            self._send_raw(shard, ("restore", self._recovery[shard]))
            self._await_ok(shard)
        for message in self._journals[shard]:
            self._send_raw(shard, message)
            self._await_ok(shard)

    def _abandon(self, shard: int, failure: ShardFailure, at_batch: Optional[int]) -> None:
        """Give a shard up for dead; its last checkpoint is all that survives."""
        self._journals[shard] = []
        self._dead.add(shard)
        self._workers[shard] = None
        self._failures[shard] = (failure, at_batch)

    # ------------------------------------------------------------------ #
    # supervision checkpoints
    # ------------------------------------------------------------------ #

    def maybe_checkpoint(self, batch_index: int) -> None:
        """Snapshot every live shard and clear the journals when the batch index is due."""
        if not self._policy.recovers:
            return
        if (batch_index + 1) % self._policy.checkpoint_every:
            return
        states = self._request_all(self._live_shards(), ("checkpoint", None), at_batch=batch_index)
        for shard, state in states.items():
            if state is not None:
                self._recovery[shard] = state
                self._journals[shard] = []

    def runtime_states(self) -> List[dict]:
        """One full runtime snapshot per shard (the engine-checkpoint path)."""
        if self._dead:
            raise CheckpointError(
                f"cannot checkpoint a degraded engine: shards {sorted(self._dead)} already lost"
            )
        states = self._request_all(self._live_shards(), ("checkpoint", None))
        for shard, state in states.items():
            if state is None:
                raise CheckpointError(
                    f"shard {shard} was lost while snapshotting the engine"
                )
        return [states[shard] for shard in range(len(self._specs))]

    def restore_states(self, states: Sequence[dict]) -> None:
        """Push one runtime snapshot into every worker and rebase recovery on it."""
        if self._dead:
            raise CheckpointError(
                f"cannot restore into a degraded engine: shards {sorted(self._dead)} already lost"
            )
        if len(states) != len(self._specs):
            raise CheckpointError(
                f"checkpoint holds {len(states)} shard states, engine has {len(self._specs)}"
            )
        for shard, state in enumerate(states):
            self._send_raw(shard, ("restore", state))
            self._await_ok(shard)
            if self._policy.recovers:
                self._recovery[shard] = copy.deepcopy(state)
                self._journals[shard] = []

    # ------------------------------------------------------------------ #
    # merge-time snapshots and reporting
    # ------------------------------------------------------------------ #

    def merge_states(self) -> List[Tuple[int, list]]:
        """``(total, counters)`` per shard for the output-time reduction.

        Live shards answer with a fresh snapshot, all requested at once
        (:meth:`_request_all`); lost shards contribute their last supervision
        checkpoint (their preserved partial state) or nothing if they died
        before the first checkpoint.
        """
        snapshots = self._request_all(self._live_shards(), ("snapshot", None))
        states: List[Tuple[int, list]] = []
        for shard in range(len(self._specs)):
            snapshot = snapshots.get(shard)
            if snapshot is not None:
                states.append(snapshot)
                continue
            checkpoint = self._recovery[shard]
            if checkpoint is not None:
                attrs = checkpoint.get("attrs", {})
                counters = attrs.get("_counters")
                if counters is not None:
                    states.append((attrs.get("_total", 0), copy.deepcopy(counters)))
        return states

    def dead_account(self, shard: int) -> Tuple[int, Optional[int], Optional[int], str]:
        """``(accounted weight, exitcode, detection batch, reason)`` of a dead shard.

        The accounted weight is the total of its last supervision checkpoint
        (0 without one), the state :meth:`merge_states` substitutes for it.
        """
        checkpoint = self._recovery[shard]
        accounted = checkpoint.get("attrs", {}).get("_total", 0) if checkpoint else 0
        failure, at_batch = self._failures[shard]
        return accounted, failure.exitcode, at_batch, str(failure)

    def is_failed(self, shard: int) -> bool:
        return shard in self._dead

    @property
    def failed_shards(self) -> List[int]:
        return sorted(self._dead)

    def worker_pids(self) -> Dict[int, int]:
        """Pid of every live worker (tests use this to aim hostile signals)."""
        return {
            shard: entry[0].pid
            for shard, entry in enumerate(self._workers)
            if entry is not None and entry[0].is_alive()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardSupervisor({len(self._specs)} shards, policy={self._policy.policy!r}, "
            f"failed={sorted(self._dead)})"
        )

"""Checkpoint/restore of lattice-algorithm state: atomic files, runtime snapshots.

Two layers live here.  The *state* layer turns a live algorithm into plain
picklable data and back: :func:`capture_runtime_state` copies the runtime
attributes a lattice algorithm accumulates (counter summaries, totals,
sampling bookkeeping) plus the exact position of its RNG streams, and
:func:`apply_runtime_state` pushes such a snapshot into a freshly *built*
instance of the same class - algorithms are deliberately not pickled whole
(they hold compiled generalizer closures), so a restore always rebuilds from
the spec first and then replays the state.  Because the RNG streams are
restored bit-exactly, a restored instance continues the stream with the very
draws the snapshotted instance would have made - the property the
restart-recovery and resume parity tests pin.

The *file* layer is the durability story: :func:`save_checkpoint` writes a
versioned, checksummed container (magic ``RCKP``, format version, payload
length, SHA-256 digest, pickled payload) to a temporary sibling and
``os.replace``\\ s it into place, so readers only ever see the old complete
checkpoint or the new complete checkpoint - never a torn write.
:func:`load_checkpoint` re-verifies the whole chain and raises
:class:`~repro.exceptions.CheckpointError` on any mismatch (bad magic,
unknown version, truncation, checksum failure) instead of unpickling
garbage.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import random
import struct
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from repro.exceptions import CheckpointError

#: Container magic / format version of the checkpoint file layer.
CHECKPOINT_MAGIC = b"RCKP"
CHECKPOINT_VERSION = 1

#: Header layout: magic, format version, payload length, SHA-256 of payload.
_HEADER = struct.Struct("<4sIQ32s")

#: Runtime attributes captured from a lattice algorithm, in addition to the
#: RNG streams.  Only the attributes an instance actually has are captured,
#: so the one whitelist covers RHHH (all but ``_sampled``), MST (totals and
#: counters only) and SampledMST (all but the RHHH bookkeeping).
#: ``_versions`` is the per-node update clock that in-process replicas hand
#: the merger as merge signatures; capturing it keeps a restored instance's
#: version stamps in step with its restored counters.
#: Algorithms with runtime state beyond this list declare it in a class-level
#: ``CHECKPOINT_EXTRA_ATTRS`` tuple (see :func:`_state_attr_names`); the
#: ``checkpoint-drift`` reprolint rule fails the build when a mutated
#: attribute is on neither list.
_STATE_ATTRS = ("_total", "_counters", "_ignored", "_update_calls", "_sampled", "_versions")


def _state_attr_names(algorithm: Any) -> Tuple[str, ...]:
    """The whitelist plus every ``CHECKPOINT_EXTRA_ATTRS`` declaration.

    Extra attrs are collected per class across the MRO (base-first), so a
    subclass extends - never shadows - what its ancestors declared.
    """
    names = list(_STATE_ATTRS)
    for klass in reversed(type(algorithm).__mro__):
        for name in klass.__dict__.get("CHECKPOINT_EXTRA_ATTRS", ()):
            if name not in names:
                names.append(name)
    return tuple(names)


# --------------------------------------------------------------------------- #
# runtime-state snapshots
# --------------------------------------------------------------------------- #


def capture_runtime_state(algorithm: Any, *, copy_state: bool = True) -> Dict[str, Any]:
    """Snapshot a lattice algorithm's runtime state as plain picklable data.

    By default the snapshot holds deep copies, so it stays valid while the
    live instance keeps processing the stream.  ``copy_state=False`` skips
    the copies for snapshots that are serialized immediately (pickling never
    mutates) - roughly halving the checkpoint cost - but such a snapshot
    aliases live state and must not be kept across further updates.
    """
    state: Dict[str, Any] = {"class": type(algorithm).__name__, "attrs": {}, "rng": {}}
    for name in _state_attr_names(algorithm):
        if hasattr(algorithm, name):
            value = getattr(algorithm, name)
            state["attrs"][name] = copy.deepcopy(value) if copy_state else value
    rng = getattr(algorithm, "_rng", None)
    if isinstance(rng, random.Random):
        state["rng"]["_rng"] = rng.getstate()
    batch_rng = getattr(algorithm, "_batch_rng", None)
    if isinstance(batch_rng, np.random.Generator):
        state["rng"]["_batch_rng"] = batch_rng.bit_generator.state
    return state


def apply_runtime_state(algorithm: Any, state: Dict[str, Any]) -> None:
    """Push a :func:`capture_runtime_state` snapshot into a rebuilt instance.

    ``algorithm`` must be a freshly built instance of the class the snapshot
    was taken from (same spec/hierarchy); after the call it is
    indistinguishable from the snapshotted instance, RNG position included.
    """
    expected = state.get("class")
    if expected != type(algorithm).__name__:
        raise CheckpointError(
            f"checkpoint holds {expected!r} state, cannot apply to {type(algorithm).__name__!r}"
        )
    for name, value in state.get("attrs", {}).items():
        if not hasattr(algorithm, name):
            raise CheckpointError(f"checkpoint attribute {name!r} does not exist on {expected}")
        setattr(algorithm, name, copy.deepcopy(value))
    for name, value in state.get("rng", {}).items():
        rng = getattr(algorithm, name, None)
        if isinstance(rng, random.Random):
            rng.setstate(value)
        elif isinstance(rng, np.random.Generator):
            rng.bit_generator.state = value
        else:
            raise CheckpointError(f"checkpoint RNG stream {name!r} has no counterpart on {expected}")


def snapshot_algorithm(algorithm: Any, *, copy_state: bool = True) -> Dict[str, Any]:
    """Snapshot any lattice algorithm or engine.

    Engines that manage their own distributed state (``ShardedHHH``) expose
    ``snapshot_state``/``restore_state``; plain algorithms go through the
    attribute capture.  The returned dict is what a Session checkpoint
    embeds.  ``copy_state=False`` has :func:`capture_runtime_state`'s
    serialize-immediately semantics (engine snapshots always copy - their
    state crosses a process boundary anyway).
    """
    if hasattr(algorithm, "snapshot_state"):
        return {"kind": "engine", "state": algorithm.snapshot_state()}
    return {"kind": "algorithm", "state": capture_runtime_state(algorithm, copy_state=copy_state)}


def restore_algorithm(algorithm: Any, snapshot: Dict[str, Any]) -> None:
    """Apply a :func:`snapshot_algorithm` snapshot to a rebuilt algorithm/engine."""
    kind = snapshot.get("kind")
    if kind == "engine":
        if not hasattr(algorithm, "restore_state"):
            raise CheckpointError(
                f"checkpoint holds engine state but {type(algorithm).__name__} is not an engine"
            )
        algorithm.restore_state(snapshot["state"])
    elif kind == "algorithm":
        apply_runtime_state(algorithm, snapshot["state"])
    else:
        raise CheckpointError(f"unknown checkpoint snapshot kind {kind!r}")


# --------------------------------------------------------------------------- #
# the checkpoint file container
# --------------------------------------------------------------------------- #


def pack_payload(payload: Dict[str, Any], *, label: str = "checkpoint") -> bytes:
    """Frame ``payload`` as the versioned, checksummed ``RCKP`` container.

    The in-memory half of the durability container: pickled payload behind a
    header carrying the magic, format version, payload length and SHA-256
    digest.  :func:`save_checkpoint` writes these bytes to disk; the
    distributed wire layer (:mod:`repro.distrib.wire`) ships them over a
    transport - one integrity format for both.
    """
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(f"{label} payload is not picklable: {exc}") from exc
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(body), hashlib.sha256(body).digest()
    )
    return header + body


def unpack_payload(raw: bytes, *, label: str = "checkpoint") -> Dict[str, Any]:
    """Verify and unpickle a :func:`pack_payload` container.

    Raises:
        CheckpointError: the bytes are truncated, have the wrong magic or
            version, or the payload fails the checksum.  ``label`` names the
            artefact (a checkpoint path, a wire message) in the error text.
    """
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"{label} is truncated (no complete header)")
    magic, version, length, digest = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{label} has bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{label} has unsupported format version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    body = raw[_HEADER.size :]
    if len(body) != length:
        raise CheckpointError(
            f"{label} is truncated: header promises {length} payload bytes, "
            f"found {len(body)}"
        )
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{label} failed its SHA-256 integrity check")
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(f"{label} payload does not unpickle: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"{label} payload is {type(payload).__name__}, expected a dict"
        )
    return payload


def save_checkpoint(path: Union[str, Path], payload: Dict[str, Any]) -> Path:
    """Atomically write ``payload`` as a checksummed checkpoint file.

    The payload is pickled, framed with a ``RCKP`` header carrying the
    format version and a SHA-256 digest, written to ``<path>.tmp.<pid>`` and
    renamed into place, so a crash mid-write never destroys the previous
    checkpoint.  Returns the final path.
    """
    path = Path(path)
    framed = pack_payload(payload, label=f"checkpoint {path}")
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(framed)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    return path


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and verify a checkpoint file written by :func:`save_checkpoint`.

    Raises:
        CheckpointError: the file is missing, truncated, has the wrong magic
            or version, or its payload fails the checksum.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return unpack_payload(raw, label=f"checkpoint {path}")

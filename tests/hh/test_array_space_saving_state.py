"""Pinned serialized state of the array Space Saving counters.

``ArraySpaceSaving.__getstate__`` is the form checkpoints, shard-state
fetches and the distributed wire carry, so a change of the summary's
internals must leave it byte-for-byte alone.  Each case drives RHHH's
per-node counters through batches, the reads of a query, more batches and
then scalar updates mixed with batches, and pins the SHA-256 of the
canonical JSON of every node counter's ``__getstate__()`` (numpy arrays
written as lists, so the digest does not depend on the numpy version).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.rhhh import RHHH
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy
from repro.traffic.ddos import DDoSScenario

_MASK32 = np.uint64(0xFFFFFFFF)


def _storm_keys(packets: int) -> np.ndarray:
    """All-distinct pairs: two odd multiplicative bijections mod ``2**32``."""
    idx = np.arange(12_345, 12_345 + packets, dtype=np.uint64)
    src = (idx * np.uint64(0x9E3779B1)) & _MASK32
    dst = (idx * np.uint64(0x85EBCA77)) & _MASK32
    return np.stack([src, dst], axis=1).astype(np.int64)


def _ddos_keys(packets: int) -> np.ndarray:
    scenario = DDoSScenario(
        [("10.20.0.0", 16), ("198.51.0.0", 16)], "203.0.113.7", attack_fraction=0.4, seed=5
    )
    return scenario.key_array(packets)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    return value


def _state_digest(algorithm) -> str:
    states = [
        _jsonable(algorithm.node_counter(node).__getstate__())
        for node in range(algorithm.hierarchy.size)
    ]
    canonical = json.dumps(states, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _query(algorithm) -> None:
    """The reads of the Output pass: every monitored key and its bounds."""
    for node in range(algorithm.hierarchy.size):
        counter = algorithm.node_counter(node)
        for key in list(counter):
            assert counter.lower_bound(key) <= counter.upper_bound(key)


def _drive(hierarchy, keys, scalar_keys) -> str:
    algorithm = RHHH(hierarchy, epsilon=0.02, delta=0.05, seed=3, counter="array_space_saving")
    chunk = 2_048
    for lo in range(0, 6 * chunk, chunk):
        algorithm.update_batch(keys[lo : lo + chunk])
    _query(algorithm)
    for lo in range(6 * chunk, 10 * chunk, chunk):
        algorithm.update_batch(keys[lo : lo + chunk])
    for key in scalar_keys[:1_500]:
        algorithm.update(key)
    algorithm.update_batch(keys[10 * chunk : 11 * chunk])
    for key in scalar_keys[1_500:3_000]:
        algorithm.update(key)
    algorithm.update_batch(keys[11 * chunk : 12 * chunk])
    return _state_digest(algorithm)


def _as_scalar_keys(keys: np.ndarray) -> list:
    if keys.ndim == 2:
        return [tuple(row) for row in keys.tolist()]
    return keys.tolist()


@pytest.mark.parametrize(
    "case, expected",
    [
        ("storm-2d", "c3296b34dcfe3392cd2373b29d0f722025cfca14eb6251f20a96f7f75352a628"),
        ("ddos-2d", "c97492820b3434e90e4b7a3275b9e78213a6a8cb2c53de1ac2a73bb601763646"),
        ("ddos-1d", "0346f4fab545b23267736ad80286c7bf912026619a4e8061a363d2cb1d7555f6"),
    ],
)
def test_serialized_counter_state_is_pinned(case, expected):
    packets = 12 * 2_048
    if case == "storm-2d":
        keys = _storm_keys(packets + 3_000)
        hierarchy = ipv4_two_dim_byte_hierarchy()
    elif case == "ddos-2d":
        keys = _ddos_keys(packets + 3_000)
        hierarchy = ipv4_two_dim_byte_hierarchy()
    else:
        keys = np.ascontiguousarray(_ddos_keys(packets + 3_000)[:, 0])
        hierarchy = ipv4_byte_hierarchy()
    digest = _drive(hierarchy, keys[:packets], _as_scalar_keys(keys[packets:]))
    assert digest == expected

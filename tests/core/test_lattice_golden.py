"""Golden lattice states: the batch semantics of RHHH, MST and SampledMST, pinned.

Each case feeds one small chicago16 stream in uneven chunks through
``LatticeHHH.update_batch`` or its scalar twin ``update_batch_reference`` and
hashes the state it leaves: the total, the per-node ``_versions``, the
sampling tallies, both RNG states, every node's ``(key, estimate,
lower_bound)`` list and the ``output(theta)`` signature.  The twin and the
vectorized path must reach the same pinned digest, for every configuration
and for every feed: numeric arrays, weighted arrays, object arrays (the
scalar fallback) and plain lists.

The digests hash a canonical JSON rendering of plain Python values, never
pickle bytes, so they do not depend on the numpy version.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.rhhh import RHHH
from repro.hhh.mst import MST
from repro.hhh.sampled_mst import SampledMST
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.hierarchy.twodim import ipv4_two_dim_byte_hierarchy
from repro.traffic.caida_like import named_workload

PACKETS = 2_400
CHUNK = 700
THETA = 0.1

HIERARCHIES = {"1d": ipv4_byte_hierarchy, "2d": ipv4_two_dim_byte_hierarchy}

CONFIGS = {
    "rhhh": lambda h: RHHH(h, epsilon=0.05, delta=0.1, seed=21),
    "10-rhhh": lambda h: RHHH(h, epsilon=0.05, delta=0.1, v=10 * h.size, seed=21),
    "rhhh-r3": lambda h: RHHH(h, epsilon=0.05, delta=0.1, seed=21, updates_per_packet=3),
    "rhhh-linked": lambda h: RHHH(h, epsilon=0.05, delta=0.1, counter="space_saving", seed=21),
    "mst": lambda h: MST(h, epsilon=0.05),
    "mst-count_min": lambda h: MST(h, epsilon=0.05, counter="count_min"),
    "sampled_mst": lambda h: SampledMST(h, epsilon=0.05, delta=0.1, seed=21),
}

FEEDS = ("int", "weighted", "object", "list")

#: ``(hierarchy, configuration, feed) -> digest``; both paths must reach it.
GOLDEN = {
    ("1d", "rhhh", "int"): "8b94780f26b232c0205a681d5f321225809b7ddaab98d95ddcc4e9854d266590",
    ("1d", "rhhh", "weighted"): "e115142d92840083e3d50413dce221b4cb81102a97e09a4377124378ea42f463",
    ("1d", "rhhh", "object"): "8b94780f26b232c0205a681d5f321225809b7ddaab98d95ddcc4e9854d266590",
    ("1d", "rhhh", "list"): "8b94780f26b232c0205a681d5f321225809b7ddaab98d95ddcc4e9854d266590",
    ("1d", "10-rhhh", "int"): "68f21b79c2326e2615169d7cdee5dfdb59fe02344510c3fa295cdb5b46a4288e",
    ("1d", "10-rhhh", "weighted"): "6a04f569d1d6d4eb3ebb01dd78d9a3d384ab202a061517e0af198ae35015a421",
    ("1d", "10-rhhh", "object"): "68f21b79c2326e2615169d7cdee5dfdb59fe02344510c3fa295cdb5b46a4288e",
    ("1d", "10-rhhh", "list"): "68f21b79c2326e2615169d7cdee5dfdb59fe02344510c3fa295cdb5b46a4288e",
    ("1d", "rhhh-r3", "int"): "7eae0ef8d956689bb690dff0c52387ddc2f55080f6c875ed7b29ca7c6fa6c161",
    ("1d", "rhhh-r3", "weighted"): "e6080c6909a84d7f17e943f0797127e0695800378d00a6cb1f8b11fdb2d8a134",
    ("1d", "rhhh-r3", "object"): "7eae0ef8d956689bb690dff0c52387ddc2f55080f6c875ed7b29ca7c6fa6c161",
    ("1d", "rhhh-r3", "list"): "7eae0ef8d956689bb690dff0c52387ddc2f55080f6c875ed7b29ca7c6fa6c161",
    ("1d", "rhhh-linked", "int"): "8b94780f26b232c0205a681d5f321225809b7ddaab98d95ddcc4e9854d266590",
    ("1d", "rhhh-linked", "weighted"): "e115142d92840083e3d50413dce221b4cb81102a97e09a4377124378ea42f463",
    ("1d", "rhhh-linked", "object"): "8b94780f26b232c0205a681d5f321225809b7ddaab98d95ddcc4e9854d266590",
    ("1d", "rhhh-linked", "list"): "8b94780f26b232c0205a681d5f321225809b7ddaab98d95ddcc4e9854d266590",
    ("1d", "mst", "int"): "f67890b54651d56b075f4476baa739022eeb8a9fa48ea07f9688fcbe76b00099",
    ("1d", "mst", "weighted"): "cbbc717a3fccdb71b9cbc9d8ae4dc3a9e4beddb761be9d9902dcef4cf59da4a0",
    ("1d", "mst", "object"): "f67890b54651d56b075f4476baa739022eeb8a9fa48ea07f9688fcbe76b00099",
    ("1d", "mst", "list"): "f67890b54651d56b075f4476baa739022eeb8a9fa48ea07f9688fcbe76b00099",
    ("1d", "mst-count_min", "int"): "71383395609972c9e75ab91d0cb59e651ef2985b3b2d04633324d22dc5cadc49",
    ("1d", "mst-count_min", "weighted"): "abbca50ee8c73a3245f81be20ed7cc6f421422e2a1a2d531cb50fd667ccd8077",
    ("1d", "mst-count_min", "object"): "71383395609972c9e75ab91d0cb59e651ef2985b3b2d04633324d22dc5cadc49",
    ("1d", "mst-count_min", "list"): "71383395609972c9e75ab91d0cb59e651ef2985b3b2d04633324d22dc5cadc49",
    ("1d", "sampled_mst", "int"): "8d1e107b161380abef7fc6b67193945b53beebab3b3d0288d6908741715964d3",
    ("1d", "sampled_mst", "weighted"): "6b9e0d013cb9cb61661754059c93d7e523f096a9b68cc8fe5fdbac178a765c7f",
    ("1d", "sampled_mst", "object"): "8d1e107b161380abef7fc6b67193945b53beebab3b3d0288d6908741715964d3",
    ("1d", "sampled_mst", "list"): "8d1e107b161380abef7fc6b67193945b53beebab3b3d0288d6908741715964d3",
    ("2d", "rhhh", "int"): "ab3ba9a97fbe97901d7f30b086f4517b09af99537c63bd0295661895d69c7693",
    ("2d", "rhhh", "weighted"): "1d0fa0ec9cab329bb29d52320495bc42d490bbe591cea6705a9967a722c3aaa4",
    ("2d", "rhhh", "object"): "ab3ba9a97fbe97901d7f30b086f4517b09af99537c63bd0295661895d69c7693",
    ("2d", "rhhh", "list"): "ab3ba9a97fbe97901d7f30b086f4517b09af99537c63bd0295661895d69c7693",
    ("2d", "10-rhhh", "int"): "b522ac6094b0c4633112ec1619df894c9d5f7a8b375790e5b313517dee2badeb",
    ("2d", "10-rhhh", "weighted"): "4980d4f38d0f0c93cb32b2310f773f68b41e5badd4712a47d9e3e2dd2d44d406",
    ("2d", "10-rhhh", "object"): "b522ac6094b0c4633112ec1619df894c9d5f7a8b375790e5b313517dee2badeb",
    ("2d", "10-rhhh", "list"): "b522ac6094b0c4633112ec1619df894c9d5f7a8b375790e5b313517dee2badeb",
    ("2d", "rhhh-r3", "int"): "78f900a5d310d2823c6e1211760e6d77b104f235837c81cd67c584f03f116ebf",
    ("2d", "rhhh-r3", "weighted"): "7ac94066d59944db98f64fc352f06d325460746767da62b2df58c5763ccd963c",
    ("2d", "rhhh-r3", "object"): "78f900a5d310d2823c6e1211760e6d77b104f235837c81cd67c584f03f116ebf",
    ("2d", "rhhh-r3", "list"): "78f900a5d310d2823c6e1211760e6d77b104f235837c81cd67c584f03f116ebf",
    ("2d", "rhhh-linked", "int"): "ab3ba9a97fbe97901d7f30b086f4517b09af99537c63bd0295661895d69c7693",
    ("2d", "rhhh-linked", "weighted"): "1d0fa0ec9cab329bb29d52320495bc42d490bbe591cea6705a9967a722c3aaa4",
    ("2d", "rhhh-linked", "object"): "ab3ba9a97fbe97901d7f30b086f4517b09af99537c63bd0295661895d69c7693",
    ("2d", "rhhh-linked", "list"): "ab3ba9a97fbe97901d7f30b086f4517b09af99537c63bd0295661895d69c7693",
    ("2d", "mst", "int"): "665505e666e1ca7a17a67a1426bf05bffc406b16a7dfc7288f8f9c28f704d946",
    ("2d", "mst", "weighted"): "8ae8672123c30a749a1bbd3174f458a0e258edcfd4b9c103a47867a4911de372",
    ("2d", "mst", "object"): "665505e666e1ca7a17a67a1426bf05bffc406b16a7dfc7288f8f9c28f704d946",
    ("2d", "mst", "list"): "665505e666e1ca7a17a67a1426bf05bffc406b16a7dfc7288f8f9c28f704d946",
    ("2d", "mst-count_min", "int"): "b134c80ce9ac59f3e5945ebd5bf4149617d4dcb739b6ceff0af70b82bc16a80f",
    ("2d", "mst-count_min", "weighted"): "1964d5397bb2ac6cc5a579e44d82c6c32075ec628fef31105e09b63023b7d50f",
    ("2d", "mst-count_min", "object"): "b134c80ce9ac59f3e5945ebd5bf4149617d4dcb739b6ceff0af70b82bc16a80f",
    ("2d", "mst-count_min", "list"): "b134c80ce9ac59f3e5945ebd5bf4149617d4dcb739b6ceff0af70b82bc16a80f",
    ("2d", "sampled_mst", "int"): "63dad23d9655aa6236cf794926a1d2854cc259b2a58d25685aab9e18b1dc5e03",
    ("2d", "sampled_mst", "weighted"): "2ba2ef5306a25cf111d8f15863c6efac15e92bb1221ce614dafc3b6ef1b3c74c",
    ("2d", "sampled_mst", "object"): "63dad23d9655aa6236cf794926a1d2854cc259b2a58d25685aab9e18b1dc5e03",
    ("2d", "sampled_mst", "list"): "63dad23d9655aa6236cf794926a1d2854cc259b2a58d25685aab9e18b1dc5e03",
}


def _plain(value):
    """``value`` as JSON-ready plain Python (numpy scalars unwrapped, tuples as lists)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    return value


def _stream(dimension):
    pairs = named_workload("chicago16", num_flows=800).keys_2d(PACKETS)
    return pairs if dimension == "2d" else [src for src, _dst in pairs]


def _feed_batches(dimension, feed):
    """``(keys, weights)`` chunks of the stream in the form ``feed`` names."""
    keys = _stream(dimension)
    weights = None
    if feed == "object":
        batch = np.empty(len(keys), dtype=object)
        for i, key in enumerate(keys):
            batch[i] = key
    elif feed == "list":
        batch = keys
    else:
        batch = np.asarray(keys, dtype=np.int64)
    if feed == "weighted":
        weights = np.random.default_rng(3).integers(1, 10, size=len(keys))
    for lo in range(0, len(keys), CHUNK):
        yield batch[lo : lo + CHUNK], None if weights is None else weights[lo : lo + CHUNK]


def _state_digest(algorithm):
    rng = getattr(algorithm, "_rng", None)
    batch_rng = getattr(algorithm, "_batch_rng", None)
    nodes = []
    for node in range(algorithm.hierarchy.size):
        counter = algorithm.node_counter(node)
        nodes.append(
            sorted(
                (_plain(key), _plain(counter.estimate(key)), _plain(counter.lower_bound(key)))
                for key in counter
            )
        )
    state = {
        "total": algorithm.total,
        "versions": list(algorithm._versions),
        "tallies": [
            getattr(algorithm, name, None)
            for name in ("ignored_packets", "counter_updates", "sampled_packets")
        ],
        "rng": rng.getstate() if rng is not None else None,
        "batch_rng": batch_rng.bit_generator.state if batch_rng is not None else None,
        "nodes": nodes,
        "output": [
            (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
            for c in algorithm.output(THETA)
        ],
    }
    encoded = json.dumps(_plain(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("ascii")).hexdigest()


def lattice_digest(dimension, config, feed, path):
    algorithm = CONFIGS[config](HIERARCHIES[dimension]())
    update = getattr(algorithm, path)
    for keys, weights in _feed_batches(dimension, feed):
        update(keys, weights)
    return _state_digest(algorithm)


@pytest.mark.parametrize("path", ["update_batch", "update_batch_reference"])
@pytest.mark.parametrize("feed", FEEDS)
@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("dimension", list(HIERARCHIES))
def test_lattice_state_matches_golden(dimension, config, feed, path):
    assert lattice_digest(dimension, config, feed, path) == GOLDEN[dimension, config, feed]

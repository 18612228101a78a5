"""The array Output pass against its scalar reference, over every counter state form.

:func:`~repro.core.output.lattice_output` reads each lattice node through
:meth:`~repro.hh.base.CounterAlgorithm.tracked_entries` and handles one by one
only the entries that generalize an already-selected prefix;
:func:`~repro.core.output.lattice_output_reference` walks every entry.  The
two must agree bit for bit - same candidates, same float bounds and
conditioned estimates, same order - for:

* every registered counter backend (all but the array Space Saving read
  through the default ``tracked_entries``);
* the array Space Saving summary holding only its scalar dict, only its
  batch index, and a merged table with a nonzero absent-key floor;
* the 1d-bytes, 1d-bits and 2d-bytes lattices, unit and byte weights, lost
  weight, empty nodes and a saturated small stream.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.analysis.bounds import coverage_correction
from repro.api.registry import counter_names, make_hierarchy
from repro.core.output import lattice_output, lattice_output_reference
from repro.core.rhhh import RHHH
from repro.hh.array_space_saving import ArraySpaceSaving
from repro.hhh.mst import MST
from repro.traffic.caida_like import named_workload

HIERARCHIES = ("1d-bytes", "1d-bits", "2d-bytes")
#: At the RHHH lattices' 40,000 packets both thresholds sit above the
#: sampling correction, so selection depends on the counters (the saturated
#: regime has its own test).
THETAS = (0.1, 0.2)


def _keys(hierarchy, packets, *, workload="sanjose14"):
    keys = named_workload(workload, num_flows=400).key_array(packets)
    return keys if hierarchy.dimensions == 2 else keys[:, 0].copy()


def _byte_weights(packets, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([64, 1500]), size=packets, p=[0.6, 0.4])


def _signature(output):
    return (
        output.total,
        output.threshold,
        [
            (c.prefix, c.lower_bound, c.upper_bound, c.conditioned_estimate)
            for c in output.candidates
        ],
    )


def _assert_parity(hierarchy, counters, theta, total, **kwargs):
    fast = lattice_output(hierarchy, counters, theta, total, **kwargs)
    reference = lattice_output_reference(hierarchy, counters, theta, total, **kwargs)
    assert _signature(fast) == _signature(reference)
    return fast


def _rhhh_query_args(algorithm):
    """``(scale, correction)`` of ``algorithm``'s own query at its total."""
    correction = coverage_correction(algorithm.total, algorithm.v, algorithm.config.delta)
    return algorithm.v, correction


def _array_lattice(hierarchy_name, weighted, *, seed=3, workload="sanjose14", packets=40_000):
    hierarchy = make_hierarchy(hierarchy_name)
    algorithm = RHHH(hierarchy, epsilon=0.02, delta=0.1, seed=seed, counter="array_space_saving")
    keys = _keys(hierarchy, packets, workload=workload)
    weights = _byte_weights(packets, seed) if weighted else None
    for lo in range(0, packets, 8_000):
        algorithm.update_batch(keys[lo : lo + 8_000], None if weights is None else weights[lo : lo + 8_000])
    return algorithm


@pytest.mark.parametrize("hierarchy_name", HIERARCHIES)
@pytest.mark.parametrize("counter", counter_names())
def test_every_registered_backend(counter, hierarchy_name):
    hierarchy = make_hierarchy(hierarchy_name)
    algorithm = MST(hierarchy, epsilon=0.05, counter=counter)
    algorithm.update_batch(_keys(hierarchy, 3_000))
    sizes = []
    for theta in THETAS:
        output = _assert_parity(hierarchy, algorithm._counters, theta, algorithm.total)
        sizes.append(len(output.candidates))
    assert max(sizes) > 0


class TestArraySpaceSavingForms:
    """The slot-array read of each index form, against the reference's point queries."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "bytes"])
    @pytest.mark.parametrize("hierarchy_name", HIERARCHIES)
    def test_batch_index_only(self, hierarchy_name, weighted):
        algorithm = _array_lattice(hierarchy_name, weighted)
        counters = algorithm._counters
        assert all(counter._slot is None for counter in counters)
        scale, correction = _rhhh_query_args(algorithm)
        for theta in THETAS:
            fast = lattice_output(
                algorithm.hierarchy, counters, theta, algorithm.total, scale=scale, correction=correction
            )
            # The array pass reads the packed keys and never builds a key dict.
            assert all(counter._slot is None for counter in counters)
            reference = lattice_output_reference(
                algorithm.hierarchy,
                copy.deepcopy(counters),
                theta,
                algorithm.total,
                scale=scale,
                correction=correction,
            )
            assert _signature(fast) == _signature(reference)
            assert fast.candidates

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "bytes"])
    @pytest.mark.parametrize("hierarchy_name", HIERARCHIES)
    def test_scalar_dict_only(self, hierarchy_name, weighted):
        algorithm = _array_lattice(hierarchy_name, weighted)
        # A pickle round trip restores the same summary into the scalar index.
        counters = [pickle.loads(pickle.dumps(counter)) for counter in algorithm._counters]
        assert all(counter._packed is None for counter in counters)
        scale, correction = _rhhh_query_args(algorithm)
        for theta in THETAS:
            output = _assert_parity(
                algorithm.hierarchy, counters, theta, algorithm.total, scale=scale, correction=correction
            )
            assert output.candidates

    @pytest.mark.parametrize("hierarchy_name", HIERARCHIES)
    def test_merged_with_absent_floor(self, hierarchy_name):
        first = _array_lattice(hierarchy_name, False, seed=3)
        second = _array_lattice(hierarchy_name, True, seed=4, workload="chicago16")
        merged = [copy.deepcopy(counter) for counter in first._counters]
        for counter, other in zip(merged, second._counters):
            counter.merge(other)
        assert any(counter._absent_floor > 0 for counter in merged)
        total = first.total + second.total
        for theta in THETAS:
            output = _assert_parity(
                first.hierarchy, merged, theta, total, scale=float(first.v), correction=25.5
            )
            assert output.candidates


@pytest.mark.parametrize("hierarchy_name", HIERARCHIES)
def test_lost_weight_joins_the_correction(hierarchy_name):
    algorithm = _array_lattice(hierarchy_name, True)
    lost = 7_321
    total = algorithm.total + lost
    scale, correction = _rhhh_query_args(algorithm)
    for theta in THETAS:
        _assert_parity(
            algorithm.hierarchy,
            algorithm._counters,
            theta,
            total,
            scale=scale,
            correction=correction + lost,
        )


@pytest.mark.parametrize("hierarchy_name", HIERARCHIES)
def test_empty_nodes(hierarchy_name):
    hierarchy = make_hierarchy(hierarchy_name)
    keys = _keys(hierarchy, 2_000)
    fed = MST(hierarchy, epsilon=0.05)
    fed.update_batch(keys)
    # Every other node keeps a fresh (empty) summary.
    counters = [
        counter if node % 2 else ArraySpaceSaving(epsilon=0.05)
        for node, counter in enumerate(fed._counters)
    ]
    assert any(len(counter) == 0 for counter in counters)
    for theta in THETAS:
        _assert_parity(hierarchy, counters, theta, fed.total)
    fresh = [ArraySpaceSaving(epsilon=0.05) for _ in range(hierarchy.size)]
    assert _assert_parity(hierarchy, fresh, 0.1, 1_000).candidates == []


@pytest.mark.parametrize("hierarchy_name", HIERARCHIES)
def test_saturated_small_stream(hierarchy_name):
    """The correction alone reaches theta * N: every estimate clears the threshold test."""
    hierarchy = make_hierarchy(hierarchy_name)
    algorithm = RHHH(hierarchy, epsilon=0.1, delta=0.1, seed=5)
    algorithm.update_batch(_keys(hierarchy, 120))
    theta = 0.2
    scale, correction = _rhhh_query_args(algorithm)
    assert correction >= theta * algorithm.total
    output = _assert_parity(
        hierarchy, algorithm._counters, theta, algorithm.total, scale=scale, correction=correction
    )
    assert output.candidates

"""Unit tests for one-dimensional hierarchies (byte and bit granularity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, HierarchyError
from repro.hierarchy.ip import ipv4_to_int
from repro.hierarchy.onedim import (
    OneDimHierarchy,
    ipv4_bit_hierarchy,
    ipv4_byte_hierarchy,
    ipv6_byte_hierarchy,
)


class TestStructure:
    def test_paper_hierarchy_sizes(self):
        """The paper's H values: 1D bytes H=5, 1D bits H=33, IPv6 bytes H=17."""
        assert ipv4_byte_hierarchy().size == 5
        assert ipv4_bit_hierarchy().size == 33
        assert ipv6_byte_hierarchy().size == 17

    def test_depth(self):
        assert ipv4_byte_hierarchy().depth == 4
        assert ipv4_bit_hierarchy().depth == 32

    def test_dimensions(self):
        assert ipv4_byte_hierarchy().dimensions == 1

    def test_output_order_is_specific_to_general(self):
        hierarchy = ipv4_byte_hierarchy()
        assert list(hierarchy.output_order()) == [0, 1, 2, 3, 4]
        assert hierarchy.fully_general_node() == 4

    def test_node_parents(self):
        hierarchy = ipv4_byte_hierarchy()
        assert hierarchy.node_parents(0) == [1]
        assert hierarchy.node_parents(3) == [4]
        assert hierarchy.node_parents(4) == []

    def test_node_level_equals_node(self):
        hierarchy = ipv4_byte_hierarchy()
        for node in range(hierarchy.size):
            assert hierarchy.node_level(node) == node

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            OneDimHierarchy(total_bits=32, step=5)  # 5 does not divide 32
        with pytest.raises(ConfigurationError):
            OneDimHierarchy(total_bits=0, step=8)

    def test_invalid_node_rejected(self):
        hierarchy = ipv4_byte_hierarchy()
        with pytest.raises(HierarchyError):
            hierarchy.generalize(0, 7)


class TestGeneralization:
    def test_byte_masking(self):
        hierarchy = ipv4_byte_hierarchy()
        key = ipv4_to_int("181.7.20.6")
        assert hierarchy.generalize(key, 0) == key
        assert hierarchy.generalize(key, 1) == ipv4_to_int("181.7.20.0")
        assert hierarchy.generalize(key, 2) == ipv4_to_int("181.7.0.0")
        assert hierarchy.generalize(key, 4) == 0

    def test_bit_masking(self):
        hierarchy = ipv4_bit_hierarchy()
        key = ipv4_to_int("192.168.1.1")
        assert hierarchy.generalize(key, 0) == key
        assert hierarchy.generalize(key, 1) == ipv4_to_int("192.168.1.0")
        assert hierarchy.generalize(key, 8) == ipv4_to_int("192.168.1.0")
        assert hierarchy.generalize(key, 32) == 0

    def test_generalize_rejects_bad_keys(self):
        hierarchy = ipv4_byte_hierarchy()
        with pytest.raises(HierarchyError):
            hierarchy.generalize("not an int", 0)
        with pytest.raises(HierarchyError):
            hierarchy.generalize(1 << 40, 0)

    def test_generalize_accepts_numpy_integers(self):
        hierarchy = ipv4_byte_hierarchy()
        key = ipv4_to_int("192.168.1.1")
        for numpy_key in (np.int64(key), np.uint32(key)):
            masked = hierarchy.generalize(numpy_key, 1)
            assert masked == ipv4_to_int("192.168.1.0") and type(masked) is int
            assert type(hierarchy.compile_generalizers()[1](numpy_key)) is int
        with pytest.raises(HierarchyError):
            hierarchy.generalize(np.bool_(True), 0)

    def test_generalize_prefix(self):
        hierarchy = ipv4_byte_hierarchy()
        key = ipv4_to_int("10.1.2.3")
        prefix = (1, hierarchy.generalize(key, 1))
        assert hierarchy.generalize_prefix(prefix, 3) == ipv4_to_int("10.0.0.0")
        assert hierarchy.generalize_prefix(prefix, 0) is None

    def test_compiled_generalizers_match_generalize(self):
        hierarchy = ipv4_byte_hierarchy()
        generalizers = hierarchy.compile_generalizers()
        key = ipv4_to_int("172.16.5.9")
        for node in range(hierarchy.size):
            assert generalizers[node](key) == hierarchy.generalize(key, node)

    def test_all_prefixes_of(self):
        hierarchy = ipv4_byte_hierarchy()
        key = ipv4_to_int("1.2.3.4")
        prefixes = hierarchy.all_prefixes_of(key)
        assert len(prefixes) == 5
        assert prefixes[0] == (0, key)
        assert prefixes[-1] == (4, 0)


class TestAncestry:
    def test_is_ancestor(self):
        hierarchy = ipv4_byte_hierarchy()
        key = ipv4_to_int("181.7.20.6")
        full = (0, key)
        slash24 = (1, hierarchy.generalize(key, 1))
        slash16 = (2, hierarchy.generalize(key, 2))
        root = (4, 0)
        assert hierarchy.is_ancestor(slash24, full)
        assert hierarchy.is_ancestor(slash16, full)
        assert hierarchy.is_ancestor(root, full)
        assert hierarchy.is_ancestor(slash16, slash24)
        assert not hierarchy.is_ancestor(full, slash24)
        # A prefix from a different subtree is unrelated.
        other = (1, hierarchy.generalize(ipv4_to_int("9.9.9.9"), 1))
        assert not hierarchy.is_ancestor(other, full)

    def test_is_ancestor_reflexive(self):
        hierarchy = ipv4_byte_hierarchy()
        prefix = (2, hierarchy.generalize(ipv4_to_int("5.6.7.8"), 2))
        assert hierarchy.is_ancestor(prefix, prefix)
        assert not hierarchy.is_proper_ancestor(prefix, prefix)

    def test_glb_one_dimension(self):
        hierarchy = ipv4_byte_hierarchy()
        key = ipv4_to_int("10.1.2.3")
        slash24 = (1, hierarchy.generalize(key, 1))
        slash8 = (3, hierarchy.generalize(key, 3))
        assert hierarchy.glb(slash24, slash8) == slash24
        assert hierarchy.glb(slash8, slash24) == slash24
        unrelated = (1, hierarchy.generalize(ipv4_to_int("99.1.2.3"), 1))
        assert hierarchy.glb(slash24, unrelated) is None

    def test_closest_descendants(self):
        hierarchy = ipv4_byte_hierarchy()
        key = ipv4_to_int("142.14.13.14")
        # The paper's example under Definition 2: G(142.14.* | P) with
        # P = {142.14.13.*, 142.14.13.14} contains only 142.14.13.*.
        p_slash16 = (2, hierarchy.generalize(key, 2))
        p_slash24 = (1, hierarchy.generalize(key, 1))
        p_full = (0, key)
        result = hierarchy.closest_descendants(p_slash16, [p_slash24, p_full])
        assert result == [p_slash24]


class TestFormatting:
    def test_byte_granularity_rendering(self):
        hierarchy = ipv4_byte_hierarchy()
        key = ipv4_to_int("181.7.20.6")
        assert hierarchy.format_prefix((0, key)) == "181.7.20.6"
        assert hierarchy.format_prefix((1, hierarchy.generalize(key, 1))) == "181.7.20.*"
        assert hierarchy.format_prefix((2, hierarchy.generalize(key, 2))) == "181.7.*"
        assert hierarchy.format_prefix((4, 0)) == "*"

    def test_bit_granularity_rendering(self):
        hierarchy = ipv4_bit_hierarchy()
        key = ipv4_to_int("192.168.0.0")
        assert hierarchy.format_prefix((16, key)) == "192.168.0.0/16"

    def test_prefix_length_bits(self):
        hierarchy = ipv4_byte_hierarchy()
        assert hierarchy.prefix_length_bits(0) == 32
        assert hierarchy.prefix_length_bits(2) == 16
        assert hierarchy.prefix_length_bits(4) == 0

    def test_to_prefix_wrapper(self):
        hierarchy = ipv4_byte_hierarchy()
        prefix = hierarchy.to_prefix((1, ipv4_to_int("10.0.0.0")))
        assert prefix.node == 1
        assert prefix.text == "10.0.0.*"
        assert prefix.key() == (1, ipv4_to_int("10.0.0.0"))

"""Unit tests for the two-dimensional lattice, including the Table 1 structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import HierarchyError
from repro.hierarchy.ip import ipv4_to_int
from repro.hierarchy.onedim import ipv4_byte_hierarchy
from repro.hierarchy.twodim import TwoDimHierarchy, ipv4_two_dim_byte_hierarchy

SRC = ipv4_to_int("181.7.20.6")
DST = ipv4_to_int("208.67.222.222")


@pytest.fixture
def lattice():
    return ipv4_two_dim_byte_hierarchy()


class TestLatticeStructure:
    def test_table1_lattice_size(self, lattice):
        """Table 1 of the paper: the 2D byte lattice has 5 x 5 = 25 nodes."""
        assert lattice.size == 25
        assert lattice.depth == 8
        assert lattice.dimensions == 2

    def test_encode_decode_round_trip(self, lattice):
        for i in range(5):
            for j in range(5):
                assert lattice.decode(lattice.encode(i, j)) == (i, j)

    def test_encode_rejects_out_of_range(self, lattice):
        with pytest.raises(HierarchyError):
            lattice.encode(5, 0)
        with pytest.raises(HierarchyError):
            lattice.decode(25)

    def test_node_levels_match_table1_diagonals(self, lattice):
        """The lattice level of node (i, j) is i + j; the corners are 0 and 8."""
        assert lattice.node_level(lattice.encode(0, 0)) == 0
        assert lattice.node_level(lattice.encode(4, 4)) == 8
        assert lattice.node_level(lattice.encode(2, 3)) == 5
        # Exactly Table 1's shape: the number of nodes per level follows the
        # diagonal counts of a 5x5 grid: 1,2,3,4,5,4,3,2,1.
        per_level = [0] * 9
        for node in range(lattice.size):
            per_level[lattice.node_level(node)] += 1
        assert per_level == [1, 2, 3, 4, 5, 4, 3, 2, 1]

    def test_every_node_has_two_parents_except_edges(self, lattice):
        """Each node's parents are directly above and directly to the left in Table 1."""
        parents = lattice.node_parents(lattice.encode(1, 1))
        assert set(parents) == {lattice.encode(2, 1), lattice.encode(1, 2)}
        # Edge nodes have a single parent; the fully general node has none.
        assert lattice.node_parents(lattice.encode(4, 2)) == [lattice.encode(4, 3)]
        assert lattice.node_parents(lattice.encode(4, 4)) == []

    def test_fully_general_node(self, lattice):
        assert lattice.fully_general_node() == lattice.encode(4, 4)

    def test_output_order_is_monotone_in_level(self, lattice):
        order = list(lattice.output_order())
        levels = [lattice.node_level(node) for node in order]
        assert levels == sorted(levels)
        assert order[0] == lattice.encode(0, 0)
        assert order[-1] == lattice.encode(4, 4)


class TestGeneralization:
    def test_generalize_both_dimensions(self, lattice):
        node = lattice.encode(1, 2)
        src, dst = lattice.generalize((SRC, DST), node)
        assert src == ipv4_to_int("181.7.20.0")
        assert dst == ipv4_to_int("208.67.0.0")

    def test_generalize_rejects_non_pairs(self, lattice):
        with pytest.raises(HierarchyError):
            lattice.generalize(SRC, 0)

    def test_generalize_accepts_numpy_integer_pairs(self, lattice):
        node = lattice.encode(1, 2)
        numpy_key = (np.int64(SRC), np.uint32(DST))
        for masked in (lattice.generalize(numpy_key, node), lattice.compile_generalizers()[node](numpy_key)):
            assert masked == lattice.generalize((SRC, DST), node)
            assert [type(member) for member in masked] == [int, int]

    def test_compiled_generalizers_match(self, lattice):
        generalizers = lattice.compile_generalizers()
        for node in range(lattice.size):
            assert generalizers[node]((SRC, DST)) == lattice.generalize((SRC, DST), node)

    def test_generalize_prefix_directions(self, lattice):
        prefix = (lattice.encode(1, 1), lattice.generalize((SRC, DST), lattice.encode(1, 1)))
        more_general = lattice.generalize_prefix(prefix, lattice.encode(2, 1))
        assert more_general == lattice.generalize((SRC, DST), lattice.encode(2, 1))
        assert lattice.generalize_prefix(prefix, lattice.encode(0, 1)) is None

    def test_is_ancestor(self, lattice):
        full = (lattice.encode(0, 0), (SRC, DST))
        src_parent = (lattice.encode(1, 0), lattice.generalize((SRC, DST), lattice.encode(1, 0)))
        dst_parent = (lattice.encode(0, 1), lattice.generalize((SRC, DST), lattice.encode(0, 1)))
        root = (lattice.encode(4, 4), (0, 0))
        assert lattice.is_ancestor(src_parent, full)
        assert lattice.is_ancestor(dst_parent, full)
        assert lattice.is_ancestor(root, full)
        assert not lattice.is_ancestor(full, src_parent)
        assert not lattice.is_ancestor(src_parent, dst_parent)

    def test_ancestor_requires_matching_prefix_bits(self, lattice):
        other_src = ipv4_to_int("10.0.0.1")
        p = (lattice.encode(1, 0), lattice.generalize((other_src, DST), lattice.encode(1, 0)))
        q = (lattice.encode(0, 0), (SRC, DST))
        assert not lattice.is_ancestor(p, q)


class TestGreatestLowerBound:
    def test_glb_combines_the_more_specific_sides(self, lattice):
        """glb((s1.*, *), (*, d1.*)) = (s1.*, d1.*), as in Definition 12."""
        h = (lattice.encode(3, 4), lattice.generalize((SRC, DST), lattice.encode(3, 4)))
        h_prime = (lattice.encode(4, 3), lattice.generalize((SRC, DST), lattice.encode(4, 3)))
        expected_node = lattice.encode(3, 3)
        glb = lattice.glb(h, h_prime)
        assert glb is not None
        assert glb[0] == expected_node
        assert glb[1] == lattice.generalize((SRC, DST), expected_node)

    def test_glb_of_related_prefixes_is_the_more_specific(self, lattice):
        specific = (lattice.encode(1, 1), lattice.generalize((SRC, DST), lattice.encode(1, 1)))
        general = (lattice.encode(2, 3), lattice.generalize((SRC, DST), lattice.encode(2, 3)))
        assert lattice.glb(specific, general) == specific

    def test_glb_of_incompatible_prefixes_is_none(self, lattice):
        other = ipv4_to_int("9.9.9.9")
        a = (lattice.encode(1, 4), lattice.generalize((SRC, DST), lattice.encode(1, 4)))
        b = (lattice.encode(1, 4), lattice.generalize((other, DST), lattice.encode(1, 4)))
        assert lattice.glb(a, b) is None

    def test_glb_is_symmetric(self, lattice):
        a = (lattice.encode(2, 4), lattice.generalize((SRC, DST), lattice.encode(2, 4)))
        b = (lattice.encode(4, 1), lattice.generalize((SRC, DST), lattice.encode(4, 1)))
        assert lattice.glb(a, b) == lattice.glb(b, a)


class TestFormatting:
    def test_format_pairs(self, lattice):
        node = lattice.encode(2, 0)
        prefix = (node, lattice.generalize((SRC, DST), node))
        assert lattice.format_prefix(prefix) == "(181.7.*, 208.67.222.222)"

    def test_named_constructor(self):
        lattice = ipv4_two_dim_byte_hierarchy()
        assert lattice.name == "ipv4-2d-bytes"
        assert isinstance(lattice.source, type(ipv4_byte_hierarchy()))
        assert lattice.source.size == 5
        assert lattice.destination.size == 5

    def test_custom_product(self):
        lattice = TwoDimHierarchy(ipv4_byte_hierarchy(), ipv4_byte_hierarchy())
        assert lattice.size == 25

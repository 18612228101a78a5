"""Two-dimensional (source x destination) prefix lattice.

The product of two one-dimensional hierarchies, as illustrated by Table 1 of
the paper: every lattice node is a pair ``(i, j)`` where ``i`` is the source
generality level and ``j`` the destination generality level.  For IPv4 byte
granularity in both dimensions this yields the ``H = 25`` node lattice used in
the paper's "2D Bytes" experiments.

Keys are ``(source, destination)`` integer pairs and prefix values are pairs
of masked integers.  The class provides the lattice-specific pieces the output
procedure needs: two parents per node, the greatest lower bound ``glb``
(Definition 12), and generality-ordered traversal.
"""

from __future__ import annotations

from operator import index
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import HierarchyError
from repro.hierarchy.base import Hierarchy, PrefixKey
from repro.hierarchy.onedim import OneDimHierarchy, ipv4_byte_hierarchy


class TwoDimHierarchy(Hierarchy):
    """Product lattice of a source hierarchy and a destination hierarchy.

    Args:
        source: hierarchy applied to the first key component.
        destination: hierarchy applied to the second key component.
        name: label used in formatted output and reports.
    """

    def __init__(self, source: OneDimHierarchy, destination: OneDimHierarchy, *, name: str = "") -> None:
        self._src = source
        self._dst = destination
        self._src_size = source.size
        self._dst_size = destination.size
        self.name = name or f"2D({source.name}x{destination.name})"
        order = sorted(range(self.size), key=lambda node: sum(self.decode(node)))
        self._output_order: Tuple[int, ...] = tuple(order)

    # ------------------------------------------------------------------ #
    # node encoding
    # ------------------------------------------------------------------ #

    def encode(self, src_level: int, dst_level: int) -> int:
        """Encode a ``(source level, destination level)`` pair into a node index."""
        if not (0 <= src_level < self._src_size and 0 <= dst_level < self._dst_size):
            raise HierarchyError(
                f"lattice coordinates ({src_level}, {dst_level}) outside "
                f"[0,{self._src_size - 1}] x [0,{self._dst_size - 1}]"
            )
        return src_level * self._dst_size + dst_level

    def decode(self, node: int) -> Tuple[int, int]:
        """Decode a node index into ``(source level, destination level)``."""
        if not 0 <= node < self.size:
            raise HierarchyError(f"node {node} outside [0, {self.size - 1}] for {self.name}")
        return divmod(node, self._dst_size)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return self._src_size * self._dst_size

    @property
    def depth(self) -> int:
        return self._src.depth + self._dst.depth

    @property
    def dimensions(self) -> int:
        return 2

    @property
    def source(self) -> OneDimHierarchy:
        """The source-dimension hierarchy."""
        return self._src

    @property
    def destination(self) -> OneDimHierarchy:
        """The destination-dimension hierarchy."""
        return self._dst

    def node_level(self, node: int) -> int:
        i, j = self.decode(node)
        return i + j

    def output_order(self) -> Sequence[int]:
        return self._output_order

    def node_parents(self, node: int) -> List[int]:
        i, j = self.decode(node)
        parents: List[int] = []
        if i + 1 < self._src_size:
            parents.append(self.encode(i + 1, j))
        if j + 1 < self._dst_size:
            parents.append(self.encode(i, j + 1))
        return parents

    def fully_general_node(self) -> int:
        return self.encode(self._src_size - 1, self._dst_size - 1)

    # ------------------------------------------------------------------ #
    # keys and prefixes
    # ------------------------------------------------------------------ #

    def generalize(self, key: Hashable, node: int) -> Tuple[int, int]:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise HierarchyError(f"{self.name} expects (source, destination) keys, got {key!r}")
        i, j = self.decode(node)
        return (self._src.generalize(key[0], i), self._dst.generalize(key[1], j))

    def compile_generalizers(self):
        """Validation-free per-node masking closures for the packet fast path.

        Like the 1-D closures, each member goes through ``index``, so numpy
        integer members are stored as Python ints.
        """
        src_masks = self._src.masks()
        dst_masks = self._dst.masks()
        generalizers = []
        for node in range(self.size):
            i, j = self.decode(node)
            src_mask = src_masks[i]
            dst_mask = dst_masks[j]
            generalizers.append(
                lambda key, sm=src_mask, dm=dst_mask: (index(key[0]) & sm, index(key[1]) & dm)
            )
        return generalizers

    def compile_batch_generalizers(self):
        """Vectorized per-node masking over ``(batch, 2)`` int64 key arrays.

        Each closure ANDs a whole batch with the node's ``(src, dst)`` mask
        pair; both dimensions must fit a signed 64-bit integer.
        """
        src_masks = self._src.masks()
        dst_masks = self._dst.masks()
        masks = [
            np.array([src_masks[i], dst_masks[j]], dtype=np.int64)
            for i, j in map(self.decode, range(self.size))
        ]
        return [lambda keys, mask=mask: np.bitwise_and(keys, mask) for mask in masks]

    def compile_packed_masks(self) -> Optional[np.ndarray]:
        """The per-node masks as uint64 ``src_mask << 32 | dst_mask``, the packed form of pairs.

        ``None`` when either dimension is wider than 32 bits: its keys do
        not pack into one uint64.
        """
        if self._src.total_bits > 32 or self._dst.total_bits > 32:
            return None
        src_masks = self._src.masks()
        dst_masks = self._dst.masks()
        return np.array(
            [(src_masks[i] << 32) | dst_masks[j] for i, j in map(self.decode, range(self.size))],
            dtype=np.uint64,
        )

    def generalize_prefix(self, prefix: PrefixKey, node: int) -> Optional[Tuple[int, int]]:
        p_node, value = prefix
        pi, pj = self.decode(p_node)
        i, j = self.decode(node)
        if i < pi or j < pj:
            return None
        src = self._src.generalize_prefix((pi, value[0]), i)
        dst = self._dst.generalize_prefix((pj, value[1]), j)
        if src is None or dst is None:
            return None
        return (src, dst)

    def is_ancestor(self, ancestor: PrefixKey, descendant: PrefixKey) -> bool:
        a_node, a_value = ancestor
        d_node, d_value = descendant
        ai, aj = self.decode(a_node)
        di, dj = self.decode(d_node)
        return self._src.is_ancestor((ai, a_value[0]), (di, d_value[0])) and self._dst.is_ancestor(
            (aj, a_value[1]), (dj, d_value[1])
        )

    def glb(self, p: PrefixKey, q: PrefixKey) -> Optional[PrefixKey]:
        p_node, p_value = p
        q_node, q_value = q
        pi, pj = self.decode(p_node)
        qi, qj = self.decode(q_node)
        src = self._dim_glb(self._src, (pi, p_value[0]), (qi, q_value[0]))
        if src is None:
            return None
        dst = self._dim_glb(self._dst, (pj, p_value[1]), (qj, q_value[1]))
        if dst is None:
            return None
        node = self.encode(src[0], dst[0])
        return (node, (src[1], dst[1]))

    @staticmethod
    def _dim_glb(
        hierarchy: OneDimHierarchy, a: Tuple[int, int], b: Tuple[int, int]
    ) -> Optional[Tuple[int, int]]:
        """Greatest lower bound within one dimension, or ``None`` when incompatible."""
        if hierarchy.is_ancestor(a, b):
            return b
        if hierarchy.is_ancestor(b, a):
            return a
        return None

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def format_prefix(self, prefix: PrefixKey) -> str:
        node, value = prefix
        i, j = self.decode(node)
        src = self._src.format_prefix((i, value[0]))
        dst = self._dst.format_prefix((j, value[1]))
        return f"({src}, {dst})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwoDimHierarchy(src={self._src!r}, dst={self._dst!r}, H={self.size})"


def ipv4_two_dim_byte_hierarchy() -> TwoDimHierarchy:
    """The paper's "2D Bytes" source/destination IPv4 byte lattice (``H = 25``)."""
    return TwoDimHierarchy(ipv4_byte_hierarchy(), ipv4_byte_hierarchy(), name="ipv4-2d-bytes")

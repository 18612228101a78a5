"""One-dimensional prefix hierarchies (byte or bit granularity).

A :class:`OneDimHierarchy` over ``total_bits``-bit keys with generalization
``step`` has ``L = total_bits / step`` proper generalization levels and
``H = L + 1`` lattice nodes (the extra node is the fully general ``*``),
matching the paper's examples: IPv4 byte granularity gives ``H = 5`` and IPv4
bit granularity gives ``H = 33``.

Lattice node ``i`` keeps the top ``total_bits - i * step`` bits of the key;
node 0 is the fully specified address and node ``L`` is ``*``.
"""

from __future__ import annotations

from operator import index
from typing import Hashable, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, HierarchyError
from repro.hierarchy.base import Hierarchy, PrefixKey
from repro.hierarchy.ip import IPV4_BITS, IPV6_BITS, int_to_ipv4, int_to_ipv6


class OneDimHierarchy(Hierarchy):
    """A single-dimension hierarchy over fixed-width integer keys.

    Args:
        total_bits: width of a fully specified key in bits (32 for IPv4).
        step: number of bits removed per generalization level (8 for byte
            granularity, 1 for bit granularity).
        name: label used in formatted output and reports.
    """

    def __init__(self, total_bits: int = IPV4_BITS, step: int = 8, *, name: str = "") -> None:
        if total_bits <= 0:
            raise ConfigurationError(f"total_bits must be positive, got {total_bits}")
        if step <= 0 or total_bits % step != 0:
            raise ConfigurationError(
                f"step must be a positive divisor of total_bits, got step={step}, total_bits={total_bits}"
            )
        self._total_bits = total_bits
        self._step = step
        self._levels = total_bits // step  # L
        full = (1 << total_bits) - 1
        # _masks[i] keeps the top (total_bits - i*step) bits.
        self._masks: List[int] = [full ^ ((1 << (i * step)) - 1) for i in range(self._levels + 1)]
        self._max_key = full
        self.name = name or f"1D-{total_bits}b-step{step}"

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return self._levels + 1

    @property
    def depth(self) -> int:
        return self._levels

    @property
    def dimensions(self) -> int:
        return 1

    @property
    def total_bits(self) -> int:
        """Width of fully specified keys in bits."""
        return self._total_bits

    @property
    def step(self) -> int:
        """Bits removed per generalization level."""
        return self._step

    def masks(self) -> Sequence[int]:
        """Bitmask of every lattice node, indexed by node."""
        return tuple(self._masks)

    def node_level(self, node: int) -> int:
        self._check_node(node)
        return node

    def output_order(self) -> Sequence[int]:
        return range(self.size)

    def node_parents(self, node: int) -> List[int]:
        self._check_node(node)
        return [node + 1] if node < self._levels else []

    def fully_general_node(self) -> int:
        return self._levels

    def _check_node(self, node: int) -> None:
        if not 0 <= node <= self._levels:
            raise HierarchyError(f"node {node} outside [0, {self._levels}] for {self.name}")

    # ------------------------------------------------------------------ #
    # keys and prefixes
    # ------------------------------------------------------------------ #

    def generalize(self, key: Hashable, node: int) -> int:
        self._check_node(node)
        if isinstance(key, np.integer):
            key = int(key)
        elif not isinstance(key, int):
            raise HierarchyError(f"{self.name} expects integer keys, got {type(key).__name__}")
        if not 0 <= key <= self._max_key:
            raise HierarchyError(f"key {key} does not fit in {self._total_bits} bits")
        return key & self._masks[node]

    def compile_generalizers(self):
        """Validation-free per-node masking closures for the packet fast path.

        ``index`` turns a numpy integer key into a Python int (and passes an
        int through), so counters store plain ints whatever the caller fed.
        """
        return [lambda key, mask=mask: index(key) & mask for mask in self._masks]

    def compile_packed_masks(self) -> Optional[np.ndarray]:
        """The per-node masks as int64, the packed form of 1-D keys; ``None`` past 63 bits."""
        if self._total_bits > 63:
            return None
        return np.array(self._masks, dtype=np.int64)

    def generalize_prefix(self, prefix: PrefixKey, node: int) -> Optional[int]:
        self._check_node(node)
        p_node, value = prefix
        if node < p_node:
            return None
        return value & self._masks[node]

    def is_ancestor(self, ancestor: PrefixKey, descendant: PrefixKey) -> bool:
        a_node, a_value = ancestor
        d_node, d_value = descendant
        if a_node < d_node:
            return False
        return (d_value & self._masks[a_node]) == a_value

    def glb(self, p: PrefixKey, q: PrefixKey) -> Optional[PrefixKey]:
        if self.is_ancestor(p, q):
            return q
        if self.is_ancestor(q, p):
            return p
        return None

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def prefix_length_bits(self, node: int) -> int:
        """Number of significant (unmasked) bits at lattice node ``node``."""
        self._check_node(node)
        return self._total_bits - node * self._step

    def format_prefix(self, prefix: PrefixKey) -> str:
        node, value = prefix
        self._check_node(node)
        bits = self.prefix_length_bits(node)
        if bits == 0:
            return "*"
        if self._total_bits == IPV4_BITS:
            rendered = int_to_ipv4(value)
            if self._step == 8:
                kept = bits // 8
                octets = rendered.split(".")[:kept]
                return ".".join(octets) + (".*" if kept < 4 else "")
            return f"{rendered}/{bits}"
        if self._total_bits == IPV6_BITS:
            return f"{int_to_ipv6(value)}/{bits}"
        return f"0x{value:x}/{bits}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OneDimHierarchy(total_bits={self._total_bits}, step={self._step}, H={self.size})"


def ipv4_byte_hierarchy() -> OneDimHierarchy:
    """IPv4 source hierarchy at byte granularity (``H = 5``), as in the paper's "1D Bytes"."""
    return OneDimHierarchy(total_bits=IPV4_BITS, step=8, name="ipv4-bytes")


def ipv4_bit_hierarchy() -> OneDimHierarchy:
    """IPv4 source hierarchy at bit granularity (``H = 33``), as in the paper's "1D Bits"."""
    return OneDimHierarchy(total_bits=IPV4_BITS, step=1, name="ipv4-bits")


def ipv6_byte_hierarchy() -> OneDimHierarchy:
    """IPv6 source hierarchy at byte granularity (``H = 17``), the paper's motivation for larger H."""
    return OneDimHierarchy(total_bits=IPV6_BITS, step=8, name="ipv6-bytes")

"""Abstract interface shared by one- and two-dimensional hierarchies.

A hierarchy exposes the operations the HHH algorithms need:

* ``size`` - the number of lattice nodes (``H`` in the paper);
* ``generalize(key, node)`` - mask a fully specified key to lattice node
  ``node`` (the ``x & HH[d].mask`` of Algorithm 1);
* ``output_order()`` - lattice nodes ordered from fully specified to fully
  general, the order in which the Output procedure scans levels;
* ``node_parents(node)`` - the immediately-more-general lattice nodes;
* ``is_ancestor(p, q)`` - the generalization relation ``q ⪯ p`` of
  Definition 1 (``p`` generalizes ``q``);
* ``glb(p, q)`` - the greatest lower bound of Definition 12 (two dimensions).

Prefixes are passed around as bare ``(node, value)`` tuples for speed; see
:class:`repro.hierarchy.prefix.Prefix` for the user-facing wrapper.
"""

from __future__ import annotations

import abc
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hierarchy.prefix import Prefix

PrefixKey = Tuple[int, Hashable]


class Hierarchy(abc.ABC):
    """A hierarchical (possibly multi-dimensional) prefix domain."""

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of lattice nodes (``H``)."""

    @property
    @abc.abstractmethod
    def depth(self) -> int:
        """Depth ``L`` of the hierarchy (Definition 7): the longest generalization chain."""

    @property
    @abc.abstractmethod
    def dimensions(self) -> int:
        """Number of dimensions (1 or 2)."""

    @abc.abstractmethod
    def node_level(self, node: int) -> int:
        """Generality level of a lattice node; 0 is the fully specified node."""

    @abc.abstractmethod
    def output_order(self) -> Sequence[int]:
        """Lattice nodes ordered from fully specified to fully general."""

    @abc.abstractmethod
    def node_parents(self, node: int) -> List[int]:
        """Lattice nodes that are immediate generalizations of ``node``."""

    @abc.abstractmethod
    def fully_general_node(self) -> int:
        """Index of the fully general (all-wildcard) lattice node."""

    # ------------------------------------------------------------------ #
    # key/prefix manipulation
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def generalize(self, key: Hashable, node: int) -> Hashable:
        """Mask a fully specified key to lattice node ``node``."""

    @abc.abstractmethod
    def generalize_prefix(self, prefix: PrefixKey, node: int) -> Optional[Hashable]:
        """Mask an existing prefix further, to a more general node.

        Returns ``None`` if ``node`` is not a generalization of the prefix's
        node (e.g. masking a destination prefix to a source-only node in a
        lattice where the dimensions are incomparable).
        """

    @abc.abstractmethod
    def is_ancestor(self, ancestor: PrefixKey, descendant: PrefixKey) -> bool:
        """Return True when ``ancestor`` generalizes ``descendant`` (``descendant ⪯ ancestor``)."""

    @abc.abstractmethod
    def glb(self, p: PrefixKey, q: PrefixKey) -> Optional[PrefixKey]:
        """Greatest lower bound of two prefixes (Definition 12), or ``None`` when disjoint."""

    @abc.abstractmethod
    def format_prefix(self, prefix: PrefixKey) -> str:
        """Render a prefix as human-readable text."""

    # ------------------------------------------------------------------ #
    # derived helpers
    # ------------------------------------------------------------------ #

    def compile_generalizers(self):
        """Return one ``key -> masked value`` callable per lattice node.

        The default implementation simply binds :meth:`generalize`; concrete
        hierarchies override it with validation-free bitmask closures so the
        per-packet fast path of the algorithms does as little work as possible.
        """
        return [lambda key, node=node: self.generalize(key, node) for node in range(self.size)]

    def compile_packed_masks(self) -> Optional[np.ndarray]:
        """Return the per-node masks in the packed key domain, or ``None``.

        The batch engine packs a whole batch once
        (:func:`repro.hh.array_space_saving.pack_keys`: int64 for 1-D keys,
        uint64 ``src << 32 | dst`` for pairs) and generalizes it to lattice
        node ``i`` with one AND against entry ``i`` of this table, whose
        dtype is the packed dtype the hierarchy's keys take.  Entry 0 (the
        fully specified node) is the hierarchy's whole domain.  The default
        is ``None``: no packed form, the batch engine takes its scalar twin.
        """
        return None

    def is_proper_ancestor(self, ancestor: PrefixKey, descendant: PrefixKey) -> bool:
        """Return True when ``ancestor`` strictly generalizes ``descendant``."""
        return ancestor != descendant and self.is_ancestor(ancestor, descendant)

    def to_prefix(self, prefix: PrefixKey) -> Prefix:
        """Wrap a bare ``(node, value)`` tuple into a :class:`Prefix`."""
        node, value = prefix
        return Prefix(node=node, value=value, text=self.format_prefix(prefix))

    def all_prefixes_of(self, key: Hashable) -> List[PrefixKey]:
        """Return every prefix (one per lattice node) generalizing a fully specified key."""
        return [(node, self.generalize(key, node)) for node in range(self.size)]

    def closest_descendants(self, prefix: PrefixKey, candidates: Sequence[PrefixKey]) -> List[PrefixKey]:
        """Compute ``G(prefix | candidates)`` (Definitions 2 and 14).

        Returns the candidates strictly generalized by ``prefix`` that are not
        themselves strictly generalized by another qualifying candidate.
        """
        below = [c for c in candidates if self.is_proper_ancestor(prefix, c)]
        result: List[PrefixKey] = []
        for c in below:
            dominated = any(
                other != c and self.is_proper_ancestor(other, c) and self.is_proper_ancestor(prefix, other)
                for other in below
            )
            if not dominated:
                result.append(c)
        return result

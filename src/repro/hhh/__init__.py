"""Baseline hierarchical-heavy-hitter algorithms and the exact offline solver.

These are the comparison points used throughout the paper's evaluation:

* :class:`~repro.hhh.mst.MST` - the algorithm of Mitzenmacher, Steinke and
  Thaler [35]: one Space Saving instance per lattice node, **all** of which are
  updated for every packet (O(H) per packet);
* :class:`~repro.hhh.sampled_mst.SampledMST` - the "sample a packet with
  probability 1/V, then run the full MST update" strawman discussed in the
  paper's introduction (amortized O(1), but a Theta(H) worst case);
* :class:`~repro.hhh.ancestry.FullAncestry` and
  :class:`~repro.hhh.ancestry.PartialAncestry` - trie-based deterministic
  algorithms in the style of Cormode et al. [14];
* :class:`~repro.hhh.exact.ExactHHH` - an exact offline solver (Definition 8)
  used as the ground truth by the evaluation harness.

Every class implements :class:`repro.core.base.HHHAlgorithm`, so they are
drop-in interchangeable with :class:`repro.core.rhhh.RHHH`.
"""

from repro.hhh.mst import MST
from repro.hhh.sampled_mst import SampledMST
from repro.hhh.ancestry import FullAncestry, PartialAncestry
from repro.hhh.exact import ExactHHH

__all__ = [
    "MST",
    "SampledMST",
    "FullAncestry",
    "PartialAncestry",
    "ExactHHH",
]

"""Hierarchical coordination: compact node addressing + propagation tree.

The paper's coordinator is a deliberate star -- every checkpoint manager
holds one socket to a single stateless coordinator (Section 3) -- and
Section 6 names the scaling fix: "the single coordinator can be replaced
by a distributed coordinator using well-known algorithms for distributed
global barriers."  This package implements that future work at cluster
scale:

* :mod:`repro.coord.nodeset` -- ClusterShell-style ``RangeSet`` /
  ``NodeSet`` addressing, so a 32k-node membership is one folded string.
* :mod:`repro.coord.tree` -- a configurable-fanout propagation tree of
  gateway relays that aggregate barrier arrivals from their subtree into
  a single upstream message and fan releases (and every other
  coordinator verb) back down.  Enabled with
  ``DmtcpComputation(tree_fanout=N)``.
"""

from repro.coord.nodeset import NodeSet, RangeSet
from repro.coord.tree import TreeTopology

__all__ = ["NodeSet", "RangeSet", "TreeTopology"]

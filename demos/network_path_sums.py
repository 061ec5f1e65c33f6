#!/usr/bin/env python3
"""Weighted acyclic networks as dynamical systems.

Summing ordered weight products over all directed walks gives a family with
phi(u, u) = 1, but composition through an intermediate node only collects the
walks passing through it: the leftover walks are exactly the indivisibility
defect.  The discrete pipeline dilates the (contractively weighted) family
anyway.
"""

import numpy as np

from graphdyn.dilate import dilate_discrete
from graphdyn.dynamics import DagNetwork, network_family, walk_sums
from graphdyn.linops import spectral_norm

edges = [("u", "v"), ("v", "w"), ("u", "z"), ("z", "w")]

print("== the classic diamond, weights 2*I ==")
net = DagNetwork(["u", "v", "z", "w"], edges,
                 {e: 2.0 * np.eye(2, dtype=complex) for e in edges}, 2)
fam = network_family(net)
print("phi(u, u)          =", fam(("u", "u"))[0, 0].real, "* I")
print("phi(u, w)          =", fam(("u", "w"))[0, 0].real, "* I   (two walks)")
# the walks into every node that avoid v, from every node: one sweep
defect = walk_sums(net, range(4), avoid=net.index["v"])[net.index["u"], net.index["w"]]
print("defect through v   =", defect[0, 0].real, "* I   (the walk through z)")
gap = fam(("u", "w")) - fam(("u", "v")) @ fam(("v", "w"))
print("equals the axiom gap exactly:", np.array_equal(defect, gap))

print("\n== contractive weights dilate through the discrete pipeline ==")
net = DagNetwork(["u", "v", "z", "w"], edges,
                 {e: 0.3 * np.eye(2, dtype=complex) for e in edges}, 2)
fam = network_family(net)
dilated = dilate_discrete({"graph": fam.graph, "family": fam})
for rep in dilated.verify(rng=np.random.default_rng(0)):
    print(f"{rep.name:32s} pass={rep.passed}  defect={rep.max_defect:.2e}")

print("\nthe dilated family is divisible exactly at the group level, even")
print("though the compressed network family is not:")
d = spectral_norm(fam(("u", "w")) - fam(("u", "v")) @ fam(("v", "w")))
print(f"  network divisibility defect at (u, v, w): {d:.6f}")

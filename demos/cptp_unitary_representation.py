#!/usr/bin/env python3
"""One unitary representation for a whole channel family.

Channels sitting on the edges of a graph compose along normal forms into a
channel per group element: the product of their superoperators.  Each element gets a reflection dilation on a
shared environment, and a single unitary representation on finitely
supported group-indexed vectors reproduces the channel of every element through
the partial trace - without assuming the family composes edge to edge.
"""

import numpy as np

from graphdyn import rewrite
from graphdyn.dilate import Channel, FormalVector, dilate_cptp
from graphdyn.dynamics import LinearOrderGraph, OperatorFamily
from graphdyn.linops import eye, superop_apply, trace_norm
from graphdyn.rewrite import embed_edge, gmul

rng = np.random.default_rng(12)
graph = LinearOrderGraph([0, 1, 2])
channels = {(0, 1): Channel.random(rng, 2),
            (1, 2): Channel.random(rng, 2),
            (0, 2): Channel.random(rng, 2)}

# pipeline A-cptp extends the channels' superoperators along normal forms;
# the loops carry the identity map
def superops(edges):
    graph.edge_indices(edges)  # raises for the first pair that is not an edge
    return np.array([channels[e].superop() if e in channels else eye(4)
                     for e in edges]).reshape(-1, 4, 4)


family = OperatorFamily(graph, 4, superops)
system = {"graph": graph, "dim": 2, "family": family}
dilated = dilate_cptp(system)
dil = dilated.dilation
ctx = graph.context()

print("== reconstruction along edges ==")
s = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
for e in [(0, 1), (1, 2), (0, 2)]:
    g = embed_edge(ctx, e)
    print(f"edge {e}: trace-norm defect = {dil.verify_element(g, s):.2e}")

print("\n== the representation law, exactly on tags ==")
p = dil.dim * dil.env_dim
x = embed_edge(ctx, (0, 1))
y = embed_edge(ctx, (1, 2))
zeta = rng.standard_normal(p) + 1j * rng.standard_normal(p)
v = FormalVector.of([(rewrite.identity(), zeta)])
two = dil.apply(x, dil.apply(y, v))
one = dil.apply(gmul(x, y), v)
print(f"U(x)U(y) vs U(xy) on a random vector: {two.distance(one):.2e}")

print("\n== indivisibility is preserved, not repaired ==")
gh = gmul(x, y)  # the word (0,1)(1,2) rewrites to the single letter (0,2)
print("x*y =", [tuple(l) for l in gh.letters])
dilated_val = superop_apply(dilated.extension(gh), s)
composed = channels[(0, 1)].apply(channels[(1, 2)].apply(s))
family_gap = trace_norm(channels[(0, 2)].apply(s) - composed)
print(f"family's own defect |phi(0,2) - phi(0,1) phi(1,2)| = {family_gap:.6f}")
print(f"dilated value differs from the composition by      = "
      f"{trace_norm(dilated_val - composed):.6f}")
print("the dilation reproduces the assigned channel at x*y, so the gap "
      "matches exactly.")

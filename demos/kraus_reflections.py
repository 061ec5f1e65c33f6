#!/usr/bin/env python3
"""From a channel to a reflection.

Any CPTP map decomposes through Kraus operators extracted from its (PSD,
partial-trace-normalized) Choi matrix.  Stacking the Kraus operators gives an
isometric coupling into system + system (x) C^k, and the block operator
[[0, D*], [D, 1 - D D*]] is a self-adjoint unitary - a reflection - whose
conjugation, compressed by the partial trace against a pure environment
state, reproduces the channel.
"""

import numpy as np

from graphdyn.dilate import Channel, isometric_partition, kraus_ii_dilation
from graphdyn.linops import dagger, matrix_units, spectral_norm, trace_norm

rng = np.random.default_rng(7)

print("== a random qutrit channel ==")
ch = Channel.random(rng, 3)
print("Choi eigenvalues:", np.round(np.linalg.eigvalsh(ch.choi), 4))
print("Kraus rank:", len(ch.kraus))
norm_defect = spectral_norm(sum(dagger(k) @ k for k in ch.kraus) - np.eye(3))
print(f"normalization defect sum K*K - 1: {norm_defect:.2e}")

print("\n== isometric partition ==")
v, parts = isometric_partition(ch)
print("coupling isometry shape:", v.shape)
print("slot isometries:", len(parts), "(identities verified on construction)")

print("\n== reflection dilation ==")
kd = kraus_ii_dilation(ch)
print(f"environment dimension: {kd.env_dim} = d (k + 1)")
u = kd.unitary
n = u.shape[0]
print(f"|u u* - 1|  = {spectral_norm(u @ dagger(u) - np.eye(n)):.2e}")
print(f"|u - u*|    = {spectral_norm(u - dagger(u)):.2e}")
print(f"|u^2 - 1|   = {spectral_norm(u @ u - np.eye(n)):.2e}")

units = matrix_units(3)
worst = trace_norm(kd.reconstructed(units) - ch.apply(units)).max()
print(f"reconstruction defect over all matrix units: {worst:.2e}")

print("\n== the flat channel, for comparison ==")
dep = Channel.depolarizing(2)
print("depolarizing qubit Choi spectrum:",
      np.round(np.linalg.eigvalsh(dep.choi), 6), "- rank 4, flat")

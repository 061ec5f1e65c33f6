#!/usr/bin/env python3
"""Generators of noisy quantum channels.

A generator of the form i[h, .] + Psi - (1/2){Psi(1), .} with h Hermitian and
Psi completely positive annihilates the identity, maps adjoints to adjoints,
and has a positive dissipation map D_L(a, a) - and those three conditions
force every expm(alpha L) to be an operator-norm contraction.  The purely
Hamiltonian case exponentiates to conjugation by a unitary.
"""

import numpy as np

from graphdyn.dynamics import check_schwarz_generator, lindblad_generator
from graphdyn.linops import (SIGMA_Z, expm, kraus_superop, spectral_norm,
                             superop_apply)

rng = np.random.default_rng(3)

print("== purely Hamiltonian part ==")
gen = lindblad_generator(SIGMA_Z, np.zeros((4, 4)))
t = 0.8
lhs = expm(t * gen)
rhs = kraus_superop([expm(1j * t * SIGMA_Z)])  # conjugation by the unitary
print(f"expm(t i[h,.]) equals conjugation by expm(ith): "
      f"{spectral_norm(lhs - rhs):.2e}")

print("\n== with a dissipative part ==")
jump = [np.array([[0, 0.6], [0, 0]]), np.array([[0.8, 0], [0, 1.0]])]
psi = kraus_superop([np.sqrt(0.5) * k for k in jump])
gen = lindblad_generator(SIGMA_Z, psi)
print(f"L(1) = {spectral_norm(superop_apply(gen, np.eye(2))):.2e}")

samples = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
           for _ in range(25)]
rep = check_schwarz_generator(gen, samples)
print("D_L(a, a) >= 0 on samples:", rep.details["dissipation_psd_defect"] <= 1e-9)
print("generator conditions certified:", rep.passed)
print("  unital defect      ", f"{rep.details['unital_defect']:.2e}")
print("  self-adjoint defect", f"{rep.details['self_adjoint_defect']:.2e}")
print("  contraction excess ", f"{rep.details['contraction_defect']:.2e}")

print("\n== contraction across scales ==")
for alpha in (0.1, 1.0, 10.0, 100.0):
    phi = expm(alpha * gen)
    worst = max(spectral_norm(superop_apply(phi, a)) - spectral_norm(a)
                for a in samples)
    print(f"alpha = {alpha:6}: max operator-norm growth = {worst:+.2e}")

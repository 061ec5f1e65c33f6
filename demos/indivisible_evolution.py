#!/usr/bin/env python3
"""A memoryful evolution family and its divisible dilation.

The generator interpolates between two non-commuting Hamiltonian directions
over a time window, so the induced evolution family satisfies the identity
axiom but not the composition law phi(t, r) = phi(t, s) phi(s, r).  The
generator-sum pipeline lifts it to the edge group and dilates it to a family
that is divisible *exactly*, with the original family sitting inside as a
compression.
"""

import numpy as np

from graphdyn import dynamics
from graphdyn.dilate import dilate_exponential, one_param_factorization
from graphdyn.dynamics import (divisibility_defect, example_indivisible,
                               proportional_length)
from graphdyn.linops import SIGMA_X, SIGMA_Z, SuperOp, spectral_norm

gens = example_indivisible(SIGMA_X, SIGMA_Z, t_max=1.0, grid_points=9)
fam = gens.exponential(1.0)

print("== the family ==")
c1, c2 = dynamics.interpolated_commutator_coefficients(1.0, 0.5, 1.0)
print(f"generator over [1/2, 1] has direction coefficients ({c1}, {c2})")
print("identity axiom:", dynamics.check_identity_axiom(fam).passed)
print("additivity of generators:",
      dynamics.check_additivity(gens).max_defect)

print("\n== indivisibility ==")
for alpha in (0.1, 0.5, 1.0, 2.0):
    d = divisibility_defect(gens.exponential(alpha), 1.0, 0.5, 0.0)
    print(f"alpha = {alpha:3}: defect at (1, 1/2, 0) = {d:.6f}")

print("\n== dilation through the generator-sum pipeline ==")
c0 = max(spectral_norm(1j * SuperOp.commutator_with(h).matrix)
         for h in (SIGMA_X, SIGMA_Z))
system = {"graph": gens.graph, "family": fam, "generators": gens,
          "ell": proportional_length(c0)}
dilated = dilate_exponential(system)
for rep in dilated.verify(rng=np.random.default_rng(0)):
    print(f"{rep.name:32s} pass={rep.passed}  defect={rep.max_defect:.2e}")

print("\n== one-parameter factorization ==")
# U(t, s) always factors as U(t) U(s)^{-1}; the one-parameter family cannot
# satisfy the semigroup law, otherwise the original family were memoryless.
for rep in one_param_factorization(dilated, 0.0, rng=np.random.default_rng(1)):
    print(f"{rep.name:32s} pass={rep.passed}  defect={rep.max_defect:.2e}")

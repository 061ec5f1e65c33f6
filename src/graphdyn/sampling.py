"""Seeded random generators for matrices, states and channels.

All sampling in the package flows through ``numpy.random.Generator`` objects
passed in explicitly, so a single seed makes every report reproducible.
"""

import numpy as np

from . import linops


def rng_from_seed(seed):
    return np.random.default_rng(seed)


def random_matrix(rng, d, scale=1.0):
    """Ginibre matrix: i.i.d. complex Gaussian entries."""
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def random_hermitian(rng, d, scale=1.0):
    a = random_matrix(rng, d, scale)
    return 0.5 * (a + linops.dagger(a))


def random_dissipative(rng, d, scale=1.0):
    """iH - N with H Hermitian and N positive semidefinite: the Hermitian
    part is -N <= 0, so this generates a contraction semigroup."""
    h = random_hermitian(rng, d, scale)
    b = random_matrix(rng, d, scale)
    return 1j * h - b @ linops.dagger(b)


def random_kraus_ops(rng, d, k=None):
    """k Kraus operators with exact normalization sum K_i* K_i = 1."""
    k = d * d if k is None else k
    raw = [random_matrix(rng, d) for _ in range(k)]
    s = sum(linops.dagger(a) @ a for a in raw)
    # s is positive definite almost surely; whiten by s^{-1/2}
    w, v = np.linalg.eigh(s)
    s_inv_half = v @ np.diag(w**-0.5) @ linops.dagger(v)
    return [a @ s_inv_half for a in raw]


import numpy as np
import pytest

from graphdyn import linops
from graphdyn.dynamics import OperatorFamily, descending_grid
from graphdyn.linops import spectral_norm
from graphdyn.sampling import random_dissipative, rng_from_seed
from oracles import edgewise


@pytest.fixture
def noncommuting_divisible():
    """Exactly divisible but order-sensitive family: phi(t_i, t_j) is the
    ordered product of per-step contractions C_i ... C_{j-1} along the grid,
    with the matching superadditive length bound."""
    rng = rng_from_seed(100)
    dim, points, scale = 3, 7, 0.3
    graph = descending_grid(1.0, points)
    step_logs = [random_dissipative(rng, dim, scale) for _ in range(points - 1)]
    steps = [linops.expm(d) for d in step_logs]
    index = graph.index

    def phi(edge):
        i, j = index(edge[0]), index(edge[1])
        out = np.eye(dim, dtype=complex)
        for k in range(i, j):
            out = out @ steps[k]
        return out

    def ell(edge):
        i, j = index(edge[0]), index(edge[1])
        return float(np.expm1(sum(spectral_norm(step_logs[k])
                                  for k in range(i, j))))

    fam = edgewise(OperatorFamily, graph, dim, phi)
    return fam, ell

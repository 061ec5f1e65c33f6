"""Reference computations that tests compare the library against.

Each one is the direct, unbatched form of something the library computes
another way: the formal tag/payload evaluation of a shift dilation, the
additivity defect of one triple, a Haar-random unitary and a channel spec.
``cptp_system`` builds by hand the system dict that a cptp spec parses to.
"""

import numpy as np

from graphdyn import linops, rewrite
from graphdyn.dynamics import OperatorFamily
from graphdyn.errors import GraphError
from graphdyn.sampling import random_matrix


# -- shift dilations: the formal round trip that compression_matrix shortcuts --

def act(dil, g, payload):
    """The value of ``dil`` at ``g`` applied to one payload: a matrix
    product (banach) or a superoperator applied to the payload (cstar)."""
    val = dil.value(g)
    if dil.flavor == "banach":
        return val @ payload
    return linops.superop_apply(val, payload)


def evaluate(dil, v, g):
    """The formal vector ``v`` evaluated at ``g``: each payload acted on by
    the value at ``g`` times its tag, summed."""
    total = None
    for tag, payload in v.terms:
        term = act(dil, rewrite.gmul(g, tag), payload)
        total = term if total is None else total + term
    if total is None:
        shape = (dil.dim, dil.dim) if dil.flavor == "cstar" else (dil.dim,)
        total = np.zeros(shape, dtype=complex)
    return total


def compress(dil, v):
    """The compression j: evaluation at the group identity."""
    return evaluate(dil, v, rewrite.identity())


# -- families, sampling and specs -------------------------------------------------

def additivity_defect(gen, u, v, w):
    """Norm of A(u,w) - A(u,v) - A(v,w)."""
    for e in ((u, v), (v, w), (u, w)):
        if not gen.graph.has_edge(*e):
            raise GraphError(f"missing edge {e!r}")
    return linops.spectral_norm(gen((u, w)) - gen((u, v)) - gen((v, w)))


def random_unitary(rng, d):
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    q, r = np.linalg.qr(random_matrix(rng, d))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def channel_to_spec(ch):
    """The JSON channel spec that ``dilate.channel_from_spec`` reads back."""
    if ch.kraus is not None:
        return {"dim": ch.dim, "repr": "kraus",
                "data": [linops.matrix_to_literal(k) for k in ch.kraus]}
    return {"dim": ch.dim, "repr": "choi",
            "data": linops.matrix_to_literal(ch.choi)}


def cptp_system(graph, channels, dim=2):
    """The system dict that ``dynamics.build_system`` makes of a cptp spec,
    for channels given as a function of the edge: the channels beside their
    superoperator family, which pipeline A-cptp extends."""
    return {"graph": graph, "channels": channels, "dim": dim, "kind": "cptp",
            "family": OperatorFamily(graph, dim * dim, lambda e: channels(e).superop())}

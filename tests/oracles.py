"""Reference computations that tests compare the library against.

Each one is the direct, unbatched form of something the library computes
another way: the group product of words folded one word at a time, the
formal tag/payload evaluation of a shift dilation, the additivity defect of
one triple, a family evaluated one edge at a time, the closed-form
generators at one edge, the extension products of one element, the dense
cover pass, the walk sums into one target, the validation, Kraus list,
reflection unitary and reduced action of one channel, the Kraus sum of a
channel, a Haar-random unitary and channel specs.
``cptp_system`` parses the cptp spec of a dict of channels, and
``identity_channel`` is the channel the parser puts on a loop.
"""

import numpy as np

from graphdyn import dilate, dynamics, extend, linops, rewrite
from graphdyn.dilate import Channel
from graphdyn.errors import InputError
from graphdyn.sampling import random_matrix


# -- the edge group -------------------------------------------------------------

def folded_product(ctx, words):
    """The product of ``words`` as a left fold of ``gmul`` over their normal
    forms, one word at a time from the identity; by confluence, the normal
    form of the concatenated words that ``group mul`` prints."""
    product = rewrite.identity()
    for w in words:
        product = rewrite.gmul(product, rewrite.normalize(ctx, w))
    return product


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

def edgewise(cls, graph, dim, value):
    """The family ``cls`` on ``graph`` whose value at an edge is
    ``value(edge)``, evaluated one edge at a time: the per-edge form of a
    batch evaluator.  The first non-edge of a batch, in order, raises."""
    def stack(edges):
        for u, v in edges:
            if not graph.has_edge(u, v):
                raise ValueError(f"({u!r}, {v!r}) is not an edge of the graph")
        vals = [np.asarray(value(e), dtype=complex) for e in edges]
        return np.stack(vals) if vals else np.empty((0, dim, dim), dtype=complex)
    return cls(graph, dim, stack)


def additivity_defect(gen, u, v, w):
    """Norm of A(u,w) - A(u,v) - A(v,w)."""
    for e in ((u, v), (v, w), (u, w)):
        if not gen.graph.has_edge(*e):
            raise ValueError(f"missing edge {e!r}")
    return linops.spectral_norm(gen((u, w)) - gen((u, v)) - gen((v, w)))


def rate_generator(rate, edge):
    """``(t - s) * rate`` at the edge (t, s)."""
    t, s = edge
    return (t - s) * rate


def interpolation_generator(h1, h2, t_max, edge):
    """The generator of ``dynamics.example_indivisible`` at the edge (t, s):
    ``c1 i[h1, .] + c2 i[h2, .]``."""
    t, s = edge
    c1, c2 = dynamics.interpolated_commutator_coefficients(t, s, t_max)
    return c1 * (1j * linops.commutator_superop(h1)) + c2 * (1j * linops.commutator_superop(h2))


def ordered_product(fam, edges):
    """``fam`` at ``edges`` multiplied left to right, one edge at a time,
    from the identity."""
    out = linops.eye(fam.dim)
    for edge in edges:
        out = out @ fam(edge)
    return out


def normal_form_value(fam, g):
    """The normal-form extension at ``g``: the product over its edge letters."""
    return ordered_product(fam, [(t, h) for t, h in g.letters if fam.graph.has_edge(t, h)])


def interval_value(fam, g, extra=()):
    """The interval-product extension at ``g``: the product over the positive
    intervals of its cover, cut also at the nodes ``extra``."""
    return ordered_product(fam, extend.positive_intervals(
        extend.cover_of_word(fam.graph, g), extra))


def dense_cover_segments(graph, w):
    """The cover segments of the word ``w`` by a pass over all m nodes: the
    per-node sums of the letters' sweeps, merged into maximal constant
    nonzero segments."""
    diff = [0] * (len(graph.nodes) + 1)
    for t, h in w:
        diff[graph.index(t)] += 1
        diff[graph.index(h)] -= 1
    segments, start, cur, acc = [], None, 0, 0
    for i, d in enumerate(diff):  # the sum is 0 again at index m
        acc += d
        if acc != cur:
            if cur:
                segments.append((start, i, cur))
            start, cur = i, acc
    return tuple(segments)


def path_sums_into(net, target, avoid=None):
    """Ordered weight-product sums over the walks from every node to
    ``target`` that skip the node ``avoid``, as ``{node: sum}``, by one
    reverse-topological sweep for this target alone: ``total + W(x, z) @
    sums[z]`` over the successors ``z`` of each node ``x`` in order."""
    eye = linops.eye(net.dim)
    sums = {}
    for x in reversed(net.order):
        total = eye.copy() if x == target else np.zeros((net.dim, net.dim), dtype=complex)
        for z in net.successors(x):
            if z != avoid:
                total = total + net.weight(x, z) @ sums[z]
        sums[x] = total
    return sums


def avoiding_walk_sum(net, u, v, w):
    """The sum over the walks from ``u`` to ``w`` that skip ``v``, from the
    one-target sweep into ``w``; zero when ``v`` is ``u`` or ``w``, since
    every such walk touches it."""
    if v in (u, w):
        return np.zeros((net.dim, net.dim), dtype=complex)
    return path_sums_into(net, w, avoid=v)[u]


# -- one channel at a time: what the stacked channel kernels batch ------------------

def validate_choi(choi, d):
    """Raise InputError unless the Choi matrix's ``dilate.cptp_defects``
    are at most ``linops.DEFAULT_TOL``: not PSD first, then not trace
    preserving."""
    tol = linops.DEFAULT_TOL
    herm, negative, tp = dilate.cptp_defects(choi, d)
    if max(herm, negative) > tol:
        raise InputError("Choi matrix is not positive semidefinite")
    if tp > tol:
        raise InputError(f"trace-preservation defect {tp:.3e}")


def kraus_list(choi, d):
    """The Kraus list of one Choi matrix's eigendecomposition, as a (k, d, d)
    stack: the eigenvalues above 1e-12 relative to the largest one are kept."""
    w, v = np.linalg.eigh(linops.hermitian_part(choi))
    keep = w > 1e-12 * max(w.max(), 1.0)
    return (np.sqrt(w[keep])[:, None] * v.T[keep]).reshape(-1, d, d)


def reflection_unitary(ks, pad_to):
    """The reflection unitary [[0, D*], [D, 1 - D D*]] of one Kraus list,
    zero-padded to ``pad_to`` operators, built from its (d, pad_to, d)
    coupling isometry ``w[a, i, c] = K_i[a, c]``."""
    k, d = ks.shape[:2]
    w = np.zeros((d, pad_to, d), dtype=complex)
    w[:, :k] = ks.transpose(1, 0, 2)
    env = d + d * pad_to
    dmat = np.zeros((d, d, pad_to, d, d), dtype=complex)
    for b in range(d):
        dmat[:, b, :, :, b] = w
    dmat = dmat.reshape(d * d * pad_to, d * d)
    u = np.zeros((d, env, d, env), dtype=complex)
    u[:, :d, :, d:] = linops.dagger(dmat).reshape(d, d, d, d * pad_to)
    u[:, d:, :, :d] = dmat.reshape(d, d * pad_to, d, d)
    u[:, d:, :, d:] = (linops.eye(d * d * pad_to)
                       - dmat @ linops.dagger(dmat)).reshape(d, d * pad_to, d, d * pad_to)
    return u.reshape(d * env, d * env)


def reduced_action(u, env, s):
    """``Tr_env(V s V*)`` for the first environment column V of one unitary
    ``u``, at a d x d matrix or a (..., d, d) stack ``s``."""
    d = u.shape[0] // env
    v = np.ascontiguousarray(u.reshape(d, env, d, env)[..., 0])
    s = np.asarray(s, dtype=complex)
    vs = (v @ s[..., None, :, :]).reshape(s.shape[:-2] + (d, -1))
    return vs @ linops.dagger(v.reshape(d, -1))


def element_unitary(value, d):
    """The unitary that pipeline A-cptp puts at a group element whose channel
    has the superoperator ``value``: validated, decomposed and dilated on d^2
    Kraus slots, one element alone."""
    choi = linops.superop_to_choi(value, d)
    validate_choi(choi, d)
    return reflection_unitary(kraus_list(choi, d), d * d)


def random_unitary(rng, d):
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    q, r = np.linalg.qr(random_matrix(rng, d))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def kraus_apply(ks, s):
    """The Kraus sum ``sum_i K_i s K_i*`` at a d x d matrix or a (..., d, d)
    stack ``s``: the channel without its Choi matrix."""
    s = np.asarray(s, dtype=complex)
    ks = np.asarray(ks, dtype=complex)
    # every K_i s K_i* as one stacked product, added in list order
    ks = ks.reshape((len(ks),) + (1,) * (s.ndim - 2) + s.shape[-2:])
    return sum(ks @ s @ linops.dagger(ks))


def channel_to_spec(ch):
    """The JSON channel spec that ``dilate.choi_from_spec`` reads back: its
    Choi matrix, whose literal round-trips bit for bit."""
    return {"dim": ch.dim, "repr": "choi",
            "data": linops.matrix_to_literal(ch.choi)}


def kraus_spec(ks):
    """The ``"kraus"`` JSON channel spec of the operators ``ks``."""
    return {"dim": len(ks[0]), "repr": "kraus",
            "data": [linops.matrix_to_literal(k) for k in ks]}


def identity_channel(d):
    """The identity channel on d x d matrices."""
    return Channel.from_kraus([np.eye(d)])


def cptp_system(graph, channels):
    """The system that ``dynamics.build_system`` parses from the cptp spec of
    ``channels``, a dict from edges of the linear order ``graph`` to channels
    of one dimension; loops left out carry the identity map.  Each channel
    goes through :func:`channel_to_spec`, whose matrix literals round-trip
    exactly."""
    entries = [{"edge": list(e), "channel": channel_to_spec(ch)} for e, ch in channels.items()]
    return dynamics.build_system({
        "graph": {"order": list(graph.nodes)}, "dim": next(iter(channels.values())).dim,
        "family": dict(kind="cptp", channels=entries)})

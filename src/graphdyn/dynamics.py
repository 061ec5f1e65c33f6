"""Operator and generator families on graphs, axiom checkers, and the
built-in example systems (commuting evolutions, a non-commuting
interpolation family, weighted acyclic networks, Lindblad-form generators).
"""

from dataclasses import dataclass

import numpy as np

from . import linops, rewrite
from .errors import (AcyclicityError, DegeneracyError, GraphError, InputError,
                     OrderError, is_number, reading)
from .linops import SuperOp, dagger, spectral_norm
from .reports import CheckReport, defect_report


class LinearOrderGraph:
    """Finite linearly ordered node set; the edge set is all pairs (u, v)
    with u preceding (or equal to) v in the stored order.

    The stored sequence *is* the order: evolution families indexed by
    (later, earlier) time pairs are modelled by listing the time grid in
    decreasing order.  Node keys compare exactly, by position.
    """

    def __init__(self, nodes):
        self.nodes = tuple(nodes)
        self._index = {u: i for i, u in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise GraphError("linear order nodes must be distinct")

    def index(self, u):
        try:
            return self._index[u]
        except KeyError:
            raise GraphError(f"node {u!r} is not on the grid") from None

    def leq(self, u, v):
        return self.index(u) <= self.index(v)

    def has_node(self, u):
        return u in self._index

    def has_edge(self, u, v):
        return self.has_node(u) and self.has_node(v) and self.leq(u, v)

    def meet(self, u, v):
        return u if self.leq(u, v) else v

    def join(self, u, v):
        return v if self.leq(u, v) else u

    def edges(self):
        for i, u in enumerate(self.nodes):
            for v in self.nodes[i:]:
                yield (u, v)

    def context(self):
        # the closure of the edges is one component
        return rewrite.complete_context(self.nodes)


class CompleteGraph:
    """All ordered pairs are edges (the natural home of network families)."""

    def __init__(self, nodes):
        self.nodes = tuple(dict.fromkeys(nodes))
        self._set = set(self.nodes)

    def has_node(self, u):
        return u in self._set

    def has_edge(self, u, v):
        return self.has_node(u) and self.has_node(v)

    def edges(self):
        for u in self.nodes:
            for v in self.nodes:
                yield (u, v)

    def context(self):
        # the closure of the edges is one component
        return rewrite.complete_context(self.nodes)


class _Family:
    """Shared machinery: a deterministic edge evaluator with a memo cache.

    ``eval_fn`` maps one edge to its value.  A family that evaluates many
    edges at once passes ``stack_fn`` instead: it maps a list of distinct
    edges to their (len, dim, dim) value stack and raises for the first bad
    edge in order, as :meth:`stack` does.  Either way every missing value of
    a call or a stack is filled by one call of the batch evaluator."""

    def __init__(self, graph, dim, eval_fn=None, *, stack_fn=None):
        self.graph = graph
        self.dim = int(dim)
        self._eval = eval_fn
        self._stack_fn = stack_fn
        self._cache = {}

    def _check_edge(self, edge):
        u, v = edge
        if not self.graph.has_edge(u, v):
            raise GraphError(f"({u!r}, {v!r}) is not an edge of the graph")

    def _evaluate(self, edges):
        if self._stack_fn is not None:
            return self._stack_fn(edges)
        out = np.empty((len(edges), self.dim, self.dim), dtype=complex)
        for i, edge in enumerate(edges):
            self._check_edge(edge)
            val = np.asarray(self._eval(edge), dtype=complex)
            if val.shape != (self.dim, self.dim):
                raise GraphError(
                    f"evaluator returned shape {val.shape}, expected "
                    f"{(self.dim, self.dim)} at edge {edge!r}"
                )
            out[i] = val
        return out

    def __call__(self, edge):
        edge = (edge[0], edge[1])
        out = self._cache.get(edge)
        if out is None:
            out = self._cache[edge] = self._evaluate([edge])[0]
        return out

    def stack(self, edges):
        """The values at ``edges`` as one (len(edges), dim, dim) array; the
        distinct uncached edges are evaluated in one batch."""
        rows = {}
        order = [rows.setdefault((e[0], e[1]), len(rows)) for e in edges]
        if not rows:
            return np.empty((0, self.dim, self.dim), dtype=complex)
        missing = [e for e in rows if e not in self._cache]
        if missing:
            self._cache.update(zip(missing, self._evaluate(missing)))
        return np.stack([self._cache[e] for e in rows])[order]


class OperatorFamily(_Family):
    """Edge-indexed family of dim x dim matrices (the evolution operators)."""

    def check_contractions(self, edges=None, tol=1e-10):
        edges = list(self.graph.edges()) if edges is None else edges
        excess = _blockwise(edges, lambda es: spectral_norm(self.stack(es)) - 1.0)
        return defect_report("contractions", excess, edges, tol)


class GeneratorFamily(_Family):
    """Edge-indexed family of generators; the induced evolution operators
    are ``expm(alpha * A(edge))``."""

    def exponential(self, alpha=1.0):
        return OperatorFamily(self.graph, self.dim, stack_fn=lambda es: linops.expm(
            alpha * self.stack(es)))

    def check_dissipative(self, tol=1e-10):
        edges = list(self.graph.edges())

        def top_eigenvalues(es):
            vals = self.stack(es)
            herm = 0.5 * (vals + np.conj(vals).swapaxes(-1, -2))
            return np.linalg.eigvalsh(herm).max(axis=-1)

        return defect_report("dissipative", _blockwise(edges, top_eigenvalues),
                             edges, tol)


@dataclass
class LengthFunction:
    """Edge length bound; ``kind`` is one of additive/superadditive/subadditive."""

    eval_fn: object
    kind: str = "superadditive"

    def __post_init__(self):
        if self.kind not in ("additive", "superadditive", "subadditive"):
            raise InputError(f"unknown length-function kind {self.kind!r}")

    def __call__(self, edge):
        val = float(self.eval_fn(edge))
        if val < 0:
            raise OrderError(f"length function negative at {edge!r}")
        return val

    def check(self, graph, tol=1e-12):
        """Verify vanishing on loops plus the kind's inequality on triples."""
        nodes = graph.nodes
        triples = _node_triples(nodes, _ordered_triples(graph))
        keys = [(u, u, u) for u in nodes] + list(triples)
        defects = [abs(self((u, u))) for u in nodes]
        for (u, v, w) in triples:
            split = self((u, v)) + self((v, w))
            whole = self((u, w))
            # max(x, 0.0), not max(0.0, x): a NaN difference stays NaN
            if self.kind == "additive":
                defects.append(abs(whole - split))
            elif self.kind == "superadditive":
                defects.append(max(split - whole, 0.0))
            else:
                defects.append(max(whole - split, 0.0))
        return defect_report(f"length-{self.kind}", defects, keys, tol,
                             count=len(triples))


def proportional_length(scale):
    """l(u, v) = scale * |v - u| for numeric node keys (additive)."""
    return LengthFunction(lambda e: scale * abs(e[1] - e[0]), "additive")


# -- axiom checkers ------------------------------------------------------------

# Edges, nodes or triples per batched call: value stacks stay a few hundred
# matrices long, so exhaustive checks on fine grids add no peak memory.
_BLOCK = 512


def _blockwise(keys, defect):
    """``defect(block)`` over consecutive blocks of ``keys``, as one array."""
    out = np.empty(len(keys))
    for start in range(0, len(keys), _BLOCK):
        out[start:start + _BLOCK] = defect(keys[start:start + _BLOCK])
    return out


def check_identity_axiom(fam, tol=1e-10):
    nodes = fam.graph.nodes
    eye = linops.eye(fam.dim)
    defects = _blockwise(nodes, lambda us: spectral_norm(
        fam.stack([(u, u) for u in us]) - eye))
    return defect_report("identity-axiom", defects, nodes, tol, offenders=True)


def divisibility_defect(fam, u, v, w):
    """Norm of phi(u,w) - phi(u,v) phi(v,w); zero iff divisible at the triple."""
    for e in ((u, v), (v, w), (u, w)):
        if not fam.graph.has_edge(*e):
            raise GraphError(f"missing edge {e!r}")
    return spectral_norm(fam((u, w)) - fam((u, v)) @ fam((v, w)))


def additivity_defect(gen, u, v, w):
    """Norm of A(u,w) - A(u,v) - A(v,w)."""
    for e in ((u, v), (v, w), (u, w)):
        if not gen.graph.has_edge(*e):
            raise GraphError(f"missing edge {e!r}")
    return spectral_norm(gen((u, w)) - gen((u, v)) - gen((v, w)))


def _unrank_triples(m, ranks):
    """Node-index triples (i <= j <= k < m) at the given ranks of their
    lexicographic order, as an (N, 3) array."""
    ranks = np.asarray(ranks, dtype=np.int64)
    rest = np.arange(m, 0, -1, dtype=np.int64)  # m - i
    total = m * (m + 1) * (m + 2) // 6
    # ranks of (i, i, i) among the triples and of (i, i) among the pairs j <= k
    first_triple = total - rest * (rest + 1) * (rest + 2) // 6
    first_pair = m * (m + 1) // 2 - rest * (rest + 1) // 2
    i = np.searchsorted(first_triple, ranks, side="right") - 1
    # (j, k) ranges over the pairs j <= k < m from (i, i) on
    pair = ranks - first_triple[i] + first_pair[i]
    j = np.searchsorted(first_pair, pair, side="right") - 1
    return np.stack([i, j, j + pair - first_pair[j]], axis=-1)


def _ordered_triples(graph, rng=None, count=None):
    """Node-index triples (i <= j <= k) of the graph's node order, as an
    (N, 3) array: all of them, or ``count`` drawn without replacement."""
    m = len(graph.nodes)
    total = m * (m + 1) * (m + 2) // 6
    if rng is not None and count is not None and count < total:
        return _unrank_triples(m, rng.choice(total, size=count, replace=False))
    return _unrank_triples(m, np.arange(total))


def _node_triples(nodes, idx):
    """The node-index triples of ``idx`` as tuples of node keys."""
    return [(nodes[i], nodes[j], nodes[k]) for i, j, k in idx.tolist()]


def _triple_check(name, fam, defect, tol, rng, count):
    """Report on ``defect(phi(u,v), phi(v,w), phi(u,w))``, which maps three
    (N, d, d) value stacks to N norms, over the ordered triples."""
    nodes = fam.graph.nodes
    m = len(nodes)
    idx = _ordered_triples(fam.graph, rng, count)

    def block_defects(rows):
        # edge codes a*m + b of (u,v), (v,w), (u,w); the distinct edges are
        # stacked in first-occurrence order, so the first bad edge still raises
        i, j, k = rows.T
        codes = np.concatenate([i, j, i]) * m + np.concatenate([j, k, k])
        uniq, first, inverse = np.unique(codes, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        edges = [(nodes[c // m], nodes[c % m]) for c in uniq[order].tolist()]
        return defect(*np.split(fam.stack(edges)[rank[inverse]], 3))

    rep = defect_report(name, _blockwise(idx, block_defects), idx, tol)
    if rep.argmax is not None:  # a row of node indices
        rep.argmax = tuple(nodes[t] for t in rep.argmax)
    return rep


def check_divisibility(fam, tol=1e-9, rng=None, count=None):
    return _triple_check("divisibility-axiom", fam,
                         lambda uv, vw, uw: spectral_norm(uw - uv @ vw),
                         tol, rng, count)


def check_additivity(gen, tol=1e-9, rng=None, count=None):
    return _triple_check("additivity-axiom", gen,
                         lambda uv, vw, uw: spectral_norm(uw - uv - vw),
                         tol, rng, count)


def check_geometric_growth(fam, ell, tol=1e-12):
    """Operator families: |phi(e) - 1| <= l(e).  Generator families: |A(e)| <= l(e)."""
    edges = list(fam.graph.edges())
    shift = 0 if isinstance(fam, GeneratorFamily) else linops.eye(fam.dim)
    excess = _blockwise(edges, lambda es: spectral_norm(fam.stack(es) - shift)
                        - np.array([ell(e) for e in es], dtype=float))
    return defect_report("geometric-growth", excess, edges, tol, offenders=True)


def lipschitz_check(fam, pairs, ell=None, bound_const=None, gen=None, tol=1e-10):
    """Four-term modulus bound on |phi(u,v) - phi(u',v')| for edge pairs.

    With ``gen`` given, the bound is the sum of the four generator norms
    |A(m,u)| + |A(v,M)| + |A(m,u')| + |A(v',M)| where m/M are the meet/join
    of the tails/heads.  Otherwise it is ``bound_const`` times the same four
    terms of ``ell``.
    """
    if gen is None and (ell is None or bound_const is None):
        raise InputError("need either gen or (ell and bound_const)")
    g = fam.graph
    pairs = [(e, e2) for e, e2 in pairs]
    corners = []
    for (u, v), (u2, v2) in pairs:
        m = g.meet(u, u2)
        big = g.join(v, v2)
        corners += [(m, u), (v, big), (m, u2), (v2, big)]
    lhs = spectral_norm(fam.stack([e for e, _ in pairs]) - fam.stack([e2 for _, e2 in pairs]))
    if gen is not None:
        terms, const = spectral_norm(gen.stack(corners)), 1.0
    else:
        terms, const = np.array([ell(c) for c in corners], dtype=float), bound_const
    t = terms.reshape(-1, 4)
    # the four corner terms added left to right, as the builtin sum does
    excess = lhs - const * (((t[:, 0] + t[:, 1]) + t[:, 2]) + t[:, 3])
    return defect_report("lipschitz-bound", excess, pairs, tol, floor=-np.inf,
                         offenders=True)


# -- integrated generator families --------------------------------------------

def integrate_generators(a_of_tau, s, t, tol=1e-10):
    """Adaptive integral of the generator curve over [s, t] to absolute
    tolerance ``tol``; suppliers of closed forms should bypass this and
    provide the antiderivative directly.
    """
    if t < s:
        raise OrderError(f"integration bounds out of order: t={t} < s={s}")
    if t == s:
        probe = np.asarray(a_of_tau(s), dtype=complex)
        return np.zeros_like(probe)
    from scipy import integrate  # local import: slow, and no CLI command needs it

    value, _ = integrate.quad_vec(
        lambda tau: np.asarray(a_of_tau(tau), dtype=complex), s, t,
        epsabs=tol, epsrel=0)
    return value


def descending_grid(t_max, points):
    """Time grid listed from t_max down to 0: edges are (later, earlier)."""
    if points < 2:
        raise InputError("need at least two grid points")
    return LinearOrderGraph(tuple(np.linspace(t_max, 0.0, points)))


def interpolated_commutator_coefficients(t, s, t_max):
    """Coefficients (c1, c2) of the integrated two-Hamiltonian interpolation:
    the generator over [s, t] is c1 * K1 + c2 * K2 where Ki = i[h_i, .]."""
    lam = (t + s) / (2.0 * t_max)
    scale = (t - s) / t_max
    return scale * lam, scale * (1.0 - lam)


def example_indivisible(h1, h2, t_max=1.0, grid_points=9, tol=1e-12):
    """Generator family interpolating two non-commuting Hamiltonian
    directions over a descending time grid; divisibility of its exponential
    family fails whenever [h1, h2] does not commute with everything.
    """
    h1 = np.asarray(h1, dtype=complex)
    h2 = np.asarray(h2, dtype=complex)
    if not linops.is_hermitian(h1, tol) or not linops.is_hermitian(h2, tol):
        raise InputError("h1 and h2 must be Hermitian")
    hat = linops.commutator(h1, h2)
    # tr[h1,h2] = 0, so [h1,h2] is central iff it vanishes
    if spectral_norm(hat) <= tol:
        raise DegeneracyError("[h1, h2] is central; the family would be divisible")
    d = h1.shape[0]
    psi1 = 1j * SuperOp.commutator_with(h1).matrix
    psi2 = 1j * SuperOp.commutator_with(h2).matrix
    graph = descending_grid(t_max, grid_points)

    def gen(edge):
        t, s = edge  # descending grid: t >= s numerically
        c1, c2 = interpolated_commutator_coefficients(t, s, t_max)
        return c1 * psi1 + c2 * psi2

    return GeneratorFamily(graph, d * d, gen)


def commuting_evolution(rate, t_max=1.0, grid_points=9):
    """Memoryless divisible demo family phi(t, s) = expm((t - s) * rate) on a
    descending grid; ``rate`` should be dissipative for contractions."""
    rate = np.asarray(rate, dtype=complex)
    graph = descending_grid(t_max, grid_points)
    return GeneratorFamily(graph, rate.shape[0], lambda e: (e[0] - e[1]) * rate)


# -- Lindblad-form generators ---------------------------------------------------

def lindblad_generator(h, psi):
    """Generator i[h, .] + Psi - (1/2){Psi(1), .} for Hermitian h and a
    completely positive map Psi (as a SuperOp)."""
    h = np.asarray(h, dtype=complex)
    if not linops.is_hermitian(h):
        raise InputError("Hamiltonian part must be Hermitian")
    d = h.shape[0]
    if psi.dim != d:
        raise InputError("dimension mismatch between h and Psi")
    psi_of_one = psi.apply(linops.eye(d))
    m = (1j * SuperOp.commutator_with(h).matrix
         + psi.matrix
         - 0.5 * SuperOp.anticommutator_with(psi_of_one).matrix)
    return SuperOp(d, m)


def dissipation_map(l, a, b):
    """D_L(a, b) = L(b* a) - (L(b)* a + b* L(a)), per matrix of stacks."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    bd = dagger(b)
    return l.apply(bd @ a) - (dagger(l.apply(b)) @ a + bd @ l.apply(a))


def check_schwarz_generator(l, samples, tol=1e-10, alphas=(0.1, 1.0, 10.0)):
    """Certify the three generator conditions and, on success, sampled
    contraction of the induced maps.

    Conditions: L(1) = 0; L maps adjoints to adjoints (checked on matrix
    units); D_L(a, a) >= 0 on every sample.  On pass the induced maps
    expm(alpha * L) are checked to not expand operator norms on the samples.
    Each condition is one stacked call over the units or the samples.
    """
    d = l.dim
    details = {"alphas": list(alphas), "samples": len(samples)}
    unital_defect = spectral_norm(l.apply(linops.eye(d)))
    units = linops.matrix_units(d)
    sa_defect = max(0.0, *spectral_norm(l.apply(dagger(units))
                                        - dagger(l.apply(units))).tolist())
    a = np.asarray(list(samples) or np.zeros((0, d, d)), dtype=complex)
    m = dissipation_map(l, a, a)
    vals = np.linalg.eigvalsh(linops.hermitian_part(m)).min(axis=-1)
    psd_defect = max(0.0, *(-vals).tolist(), *spectral_norm(m - dagger(m)).tolist())
    conditions_ok = max(unital_defect, sa_defect, psd_defect) <= tol
    details.update(unital_defect=unital_defect, self_adjoint_defect=sa_defect,
                   dissipation_psd_defect=psd_defect)
    contraction_defect = 0.0
    if conditions_ok:
        norms = spectral_norm(a)
        for alpha in alphas:
            excess = spectral_norm(l.expm(alpha).apply(a)) - norms
            contraction_defect = max(contraction_defect, *excess.tolist())
        details["contraction_defect"] = contraction_defect
    worst = max(unital_defect, sa_defect, psd_defect, contraction_defect)
    return CheckReport("schwarz-generator", conditions_ok and
                       contraction_defect <= 10 * tol, worst, tol,
                       details=details, count=len(samples))


# -- weighted acyclic networks ---------------------------------------------------

class DagNetwork:
    """Finite acyclic directed graph with matrix edge weights."""

    def __init__(self, nodes, edges, weights, dim):
        self.nodes = tuple(dict.fromkeys(nodes))
        self.edges = [tuple(e) for e in edges]
        self.dim = int(dim)
        self.weights = {tuple(e): np.asarray(w, dtype=complex)
                        for e, w in weights.items()}
        for e in self.edges:
            if e not in self.weights:
                raise GraphError(f"edge {e!r} has no weight")
            if self.weights[e].shape != (self.dim, self.dim):
                raise GraphError(f"weight at {e!r} has wrong shape")
        self._succ = {u: [] for u in self.nodes}
        indeg = {u: 0 for u in self.nodes}
        for (t, h) in self.edges:
            if t not in indeg or h not in indeg:
                raise GraphError(f"edge ({t!r}, {h!r}) uses unknown nodes")
            self._succ[t].append(h)
            indeg[h] += 1
        # Kahn's algorithm: a leftover node means a directed cycle
        queue = [u for u in self.nodes if indeg[u] == 0]
        self.order = []  # topological: every edge points forward
        while queue:
            u = queue.pop()
            self.order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(self.order) != len(self.nodes):
            raise AcyclicityError("the weighted graph has a directed cycle")

    def successors(self, u):
        return self._succ[u]

    def weight(self, u, v):
        return self.weights[(u, v)]


def _path_sums_into(net, target, avoid=None):
    """Ordered weight-product sums over the walks from every node to
    ``target`` that skip the node ``avoid``, by one reverse-topological sweep
    (iterative, so chain depth is not bounded by the recursion limit)."""
    eye = linops.eye(net.dim)
    sums = {}
    for x in reversed(net.order):
        total = eye.copy() if x == target else np.zeros((net.dim, net.dim), dtype=complex)
        for z in net.successors(x):
            if z != avoid:
                total = total + net.weight(x, z) @ sums[z]
        sums[x] = total
    return sums


def network_family(net):
    """Path-sum family on the complete graph over the network's nodes:
    phi(u, v) sums the ordered weight products over all directed walks.
    Loops contribute the empty product, so phi(u, u) = 1."""
    graph = CompleteGraph(net.nodes)
    columns = {}

    def phi(edge):
        u, v = edge
        if v not in columns:
            columns[v] = _path_sums_into(net, v)
        return columns[v][u]

    return OperatorFamily(graph, net.dim, phi)


def network_defect(net, u, v, w):
    """Path-sum over the walks from u to w that avoid node v.

    Equals phi(u, w) - phi(u, v) phi(v, w) for the network family (walks
    through v factor through the pair product; the rest is the defect).
    """
    for x in (u, v, w):
        if x not in net._succ:
            raise GraphError(f"node {x!r} is not in the network")
    if u == v or w == v:
        return np.zeros((net.dim, net.dim), dtype=complex)
    return _path_sums_into(net, w, avoid=v)[u]


# -- JSON system specs ------------------------------------------------------------

@reading("system spec")
def build_system(spec):
    """Parse a system spec into (graph, family-or-generators, extras).

    {"graph": {...}, "dim": d, "family": {"kind": ..., ...}} with kinds
    "explicit", "exponential", "network", "indivisible-example", "cptp".
    Generator kinds store the ``alpha``-scaled generators under
    "generators" and their exponential under "family", so checks and
    pipelines read one scaled family.
    """
    fam_spec = spec["family"]
    builder = _SYSTEM_BUILDERS.get(fam_spec["kind"])
    if builder is None:
        raise InputError(f"unknown family kind {fam_spec['kind']!r}")
    return builder(spec, fam_spec)


def _edge_table(entries, field="matrix", parse=linops.matrix_from_literal):
    """{edge: parsed value} from ``[{"edge": [t, h], field: ...}, ...]``."""
    return {tuple(item["edge"]): parse(item[field]) for item in entries}


def _edge_lookup(table, loop_value, what):
    """Edge -> table entry; loops missing from the table get ``loop_value``."""
    def lookup(edge):
        if edge[0] == edge[1] and edge not in table:
            return loop_value
        try:
            return table[edge]
        except KeyError:
            raise GraphError(f"no {what} for edge {edge!r}") from None
    return lookup


def _spec_number(spec, key, default=None, integer=False, minimum=None, name=None):
    """Spec field ``key`` (``default`` when absent, if given): a positive int,
    or with ``integer`` false any finite number not below ``minimum``,
    returned as a float.  Neither is a bool.  Errors call the field ``name``
    (default ``key``)."""
    value = spec[key] if default is None else spec.get(key, default)
    if integer:
        minimum, what = 1, "a positive integer"
    else:
        what = "a finite number" + ("" if minimum is None else f" >= {minimum}")
    if not is_number(value) or (integer and not isinstance(value, int)) \
            or (minimum is not None and value < minimum):
        raise InputError(f"{name or key} must be {what}, got {value!r}")
    return value if integer else float(value)


def _numeric_nodes(graph, field):
    """Raise unless every node key is a number: ``field`` subtracts them."""
    for u in graph.nodes:
        if not is_number(u):
            raise InputError(f"{field} needs numeric graph.order keys, got {u!r}")


def _order_and_dim(spec):
    """The linear order ``graph.order`` and the positive integer ``dim``."""
    return LinearOrderGraph(spec["graph"]["order"]), _spec_number(spec, "dim", integer=True)


def _build_explicit(spec, fam_spec):
    graph, dim = _order_and_dim(spec)
    phi = _edge_lookup(_edge_table(fam_spec["values"]), linops.eye(dim),
                       "value supplied")
    return {"graph": graph, "family": OperatorFamily(graph, dim, phi),
            "kind": "explicit", "ell": _parse_ell(fam_spec, graph)}


def _build_exponential(spec, fam_spec):
    graph, dim = _order_and_dim(spec)
    if "rate" in fam_spec:
        rate = linops.matrix_from_literal(fam_spec["rate"])
        _numeric_nodes(graph, "rate")
        gen_fn = lambda e: (e[0] - e[1]) * rate
    else:
        gen_fn = _edge_lookup(_edge_table(fam_spec["generators"]),
                              np.zeros((dim, dim), dtype=complex), "generator")
    alpha = _spec_number(fam_spec, "alpha", 1.0)
    gens = GeneratorFamily(graph, dim, lambda e: alpha * gen_fn(e))
    return {"graph": graph, "family": gens.exponential(), "generators": gens,
            "kind": "exponential", "ell": _parse_ell(fam_spec, graph)}


def _build_network(spec, fam_spec):
    gspec = spec["graph"]
    dim = _spec_number(spec, "dim", integer=True)
    weights = _edge_table(fam_spec["weights"])
    net = DagNetwork(gspec["nodes"], [(e[0], e[1]) for e in gspec["edges"]],
                     weights, dim)
    fam = network_family(net)
    return {"graph": fam.graph, "family": fam, "network": net, "kind": "network"}


def _build_indivisible(spec, fam_spec):
    h1 = linops.matrix_from_literal(fam_spec["h1"])
    h2 = linops.matrix_from_literal(fam_spec["h2"])
    t_max = _spec_number(fam_spec, "t_max", 1.0)
    if t_max <= 0:
        raise InputError(f"t_max must be a finite number > 0, got {t_max!r}")
    points = _spec_number(fam_spec, "grid_points", 9, integer=True)
    alpha = _spec_number(fam_spec, "alpha", 1.0)
    raw = example_indivisible(h1, h2, t_max, points)
    # the grid and dimension are built, not read: a spec that names others
    # would be checked on a system it does not describe
    graph = spec.get("graph", {})
    if "order" in graph and tuple(graph["order"]) != tuple(map(float, raw.graph.nodes)):
        raise InputError(f"graph.order does not match the {points}-point grid "
                         f"from t_max={t_max} down to 0")
    if "dim" in spec and spec["dim"] != raw.dim:
        raise InputError(f"dim {spec['dim']!r} does not match d^2 = {raw.dim} "
                         "of h1 and h2")
    # scaled from the raw evaluator, so unscaled values are never cached
    gens = GeneratorFamily(raw.graph, raw.dim, lambda e: alpha * raw._eval(e))
    c0 = max(spectral_norm(1j * SuperOp.commutator_with(h).matrix)
             for h in (h1, h2)) / t_max
    return {"graph": gens.graph, "family": gens.exponential(), "generators": gens,
            "kind": "indivisible-example", "ell": proportional_length(alpha * c0)}


def _build_cptp(spec, fam_spec):
    from . import dilate  # local import: dilate depends on this module

    graph, dim = _order_and_dim(spec)
    channels = _edge_table(fam_spec["channels"], "channel", dilate.channel_from_spec)
    # one identity channel for loops and for dilate_cptp's products
    ident = dilate.Channel.identity(dim)
    get_channel = _edge_lookup(channels, ident, "channel")
    fam = OperatorFamily(graph, dim * dim,
                         lambda e: get_channel(e).superop().matrix)
    return {"graph": graph, "family": fam, "channels": get_channel,
            "dim": dim, "kind": "cptp", "identity": ident}


def _parse_ell(fam_spec, graph):
    spec = fam_spec.get("ell")
    if spec is None:
        return None
    if not (isinstance(spec, dict) and spec.get("kind") == "proportional"):
        raise InputError(f'ell must be {{"kind": "proportional", "scale": c}}, got {spec!r}')
    scale = _spec_number(spec, "scale", minimum=0, name="ell.scale")
    _numeric_nodes(graph, "ell")
    return proportional_length(scale)


_SYSTEM_BUILDERS = {
    "explicit": _build_explicit,
    "exponential": _build_exponential,
    "network": _build_network,
    "indivisible-example": _build_indivisible,
    "cptp": _build_cptp,
}

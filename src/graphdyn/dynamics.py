"""Operator and generator families on graphs, axiom checkers, and the
built-in example systems (commuting evolutions, a non-commuting
interpolation family, weighted acyclic networks, Lindblad-form generators).
"""

import itertools
import math
from graphlib import CycleError, TopologicalSorter

import numpy as np

from . import linops, rewrite
from .errors import InputError, is_number, reading
from .linops import commutator_superop, dagger, spectral_norm, superop_apply
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
            raise InputError("linear order nodes must be distinct")

    def index(self, u):
        try:
            return self._index[u]
        except KeyError:
            raise ValueError(f"node {u!r} is not on the grid") from None

    def leq(self, u, v):
        return self.index(u) <= self.index(v)

    def has_node(self, u):
        return u in self._index

    def has_edge(self, u, v):
        return self.has_node(u) and self.has_node(v) and self.leq(u, v)

    def edge_indices(self, edges):
        """The node indices ``(i, j)`` of the pairs ``edges`` as two int
        arrays; raise for the first pair, in input order, that is not an edge."""
        get = self._index.get
        i, j = np.array([(get(u, -1), get(v, -1)) for u, v in edges],
                        dtype=np.intp).reshape(-1, 2).T
        bad = np.flatnonzero((i < 0) | (j < i))  # an unknown head has j = -1 < i
        if bad.size:
            u, v = edges[bad[0]]
            raise ValueError(f"({u!r}, {v!r}) is not an edge of the graph")
        return i, j

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

    ``stack_fn`` maps a list of distinct edges to their (len, dim, dim) value
    stack and raises for the first bad edge in order, as :meth:`stack` does.
    Every missing value of a call or a stack is filled by one call of it,
    whose shape is checked, and a value with a non-finite entry (an
    overflow, say) is an error that names its edge.  The values sit in one
    array with an edge -> row index: a stack is one gather, and a call
    returns a read-only view."""

    def __init__(self, graph, dim, stack_fn):
        self.graph = graph
        self.dim = int(dim)
        self._stack_fn = stack_fn
        self._rows, self._values = {}, np.empty((0, self.dim, self.dim), dtype=complex)

    def _evaluate(self, edges):
        with np.errstate(over="ignore", invalid="ignore"):  # named below, by edge
            out = self._stack_fn(edges)
        if out.shape != (len(edges), self.dim, self.dim):
            # the batch's values share one shape
            raise ValueError(f"evaluator returned shape {out.shape[1:]}, expected "
                             f"{(self.dim, self.dim)} at edge {edges[0]!r}")
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            raise InputError(f"value at edge {edges[np.argmin(finite)]!r} "
                             "has non-finite entries")
        return out

    def __call__(self, edge):
        edge = (edge[0], edge[1])
        if edge not in self._rows:
            self.stack([edge])
        return self._values[self._rows[edge]]

    def stack(self, edges):
        """The values at ``edges`` as one (len(edges), dim, dim) array; the
        distinct uncached edges are evaluated in one batch."""
        try:
            rows = np.fromiter(map(self._rows.__getitem__, edges), np.intp, len(edges))
        except (KeyError, TypeError):  # an uncached edge, or one given as a list
            edges = [(e[0], e[1]) for e in edges]
            missing = [e for e in dict.fromkeys(edges) if e not in self._rows]
            if missing:  # cached edges given as lists need no evaluation
                vals, n = self._evaluate(missing), len(self._rows)
                if n + len(vals) > len(self._values):  # at least double the array
                    self._values = np.resize(self._values, (2 * n + len(vals),) + vals.shape[1:])
                self._values.flags.writeable = True
                self._values[n:n + len(vals)] = vals
                self._values.flags.writeable = False
                self._rows.update(zip(missing, range(n, n + len(vals))))
            rows = np.fromiter(map(self._rows.__getitem__, edges), np.intp, len(edges))
        return self._values[rows]


class OperatorFamily(_Family):
    """Edge-indexed family of dim x dim matrices (the evolution operators)."""


class GeneratorFamily(_Family):
    """Edge-indexed family of generators; the induced evolution operators
    are ``expm(alpha * A(edge))``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._exps = {}  # matrix bytes -> its expm, as long as the family lives

    def expm(self, mats):
        """The exponential of each matrix of an (N, n, n) stack, as a fresh
        array.  Results are kept in the family's memo, keyed by the matrix
        bytes, and scipy gets the distinct new matrices in one call.  Equal
        input bits give equal output bits, and scipy's stacked expm is
        bitwise the per-matrix one, so every value is bitwise
        ``linops.expm`` of its matrix.  ``-0.0`` and ``+0.0`` differ in their
        bytes, so matrices that differ only there are both sent."""
        keys = [a.tobytes() for a in mats]
        new = {k: a for k, a in zip(keys, mats) if k not in self._exps}
        if new:
            self._exps.update(zip(new, linops.expm(np.stack(list(new.values())))))
        return np.array([self._exps[k] for k in keys]).reshape(mats.shape)

    def exponential(self, alpha=1.0):
        """The operator family ``expm(alpha * A(edge))``, exponentiated
        through :meth:`expm`."""
        return OperatorFamily(self.graph, self.dim,
                              stack_fn=lambda edges: self.expm(alpha * self.stack(edges)))

    def check_dissipative(self, tol=1e-10):
        edges = list(self.graph.edges())

        def top_eigenvalues(es):
            vals = self.stack(es)
            herm = 0.5 * (vals + np.conj(vals).swapaxes(-1, -2))
            return np.linalg.eigvalsh(herm).max(axis=-1)

        return defect_report("dissipative", _blockwise(edges, top_eigenvalues),
                             edges, tol)


def proportional_length(scale):
    """The edge length bound l(u, v) = scale * |v - u| for numeric node keys
    (additive); every scale reaching it is parsed or built ``>= 0``."""
    return lambda e: scale * abs(e[1] - e[0])


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
    defects = _blockwise(nodes, lambda us: linops.screened_norms(
        fam.stack([(u, u) for u in us]) - eye, tol, offenders=True))
    return defect_report("identity-axiom", defects, nodes, tol, offenders=True)


def divisibility_defect(fam, u, v, w):
    """Norm of phi(u,w) - phi(u,v) phi(v,w); zero iff divisible at the triple."""
    for e in ((u, v), (v, w), (u, w)):
        if not fam.graph.has_edge(*e):
            raise ValueError(f"missing edge {e!r}")
    return spectral_norm(fam((u, w)) - fam((u, v)) @ fam((v, w)))


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


def _difference_norms(diffs, tol):
    """``linops.screened_norms`` of an (N, d, d) complex stack of differences,
    where a difference with a non-finite entry, which finite values reach by
    overflow, has the defect inf.  The one finiteness pass is this one."""
    finite = np.isfinite(diffs).all(axis=(1, 2))
    if finite.all():
        return linops._screen(diffs, tol, 0.0, False)
    out = np.full(len(diffs), np.inf)
    out[finite] = linops._screen(diffs[finite], tol, 0.0, False)
    return out


def _triple_check(name, fam, difference, tol, rng, count):
    """Report on the spectral norm of ``difference(phi(u,v), phi(v,w),
    phi(u,w))``, which maps three (N, d, d) value stacks to N matrices, over
    the ordered triples, by :func:`_difference_norms`."""
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
        with np.errstate(over="ignore", invalid="ignore"):  # inf defects
            diffs = difference(*np.split(fam.stack(edges)[rank[inverse]], 3))
        return _difference_norms(diffs, tol)

    rep = defect_report(name, _blockwise(idx, block_defects), idx, tol)
    if rep.argmax is not None:  # a row of node indices
        rep.argmax = tuple(nodes[t] for t in rep.argmax)
    return rep


def _divisible_by_pairs(fam, tol):
    """True when one O(m^2) pass over the edges of a linear order proves that
    ``check_divisibility(fam, tol)`` passes; False when it cannot, and the
    exhaustive scan must decide.

    With nodes ``x_0 < ... < x_{m-1}``, write ``phi_ik = phi(x_i, x_k)``, the
    steps ``S_l = phi_{l,l+1}``, ``T(l, k) = S_l ... S_{k-1}`` (``T(k, k) = 1``)
    and the residuals ``R(i, l) = phi_il - phi_{i,l-1} S_{l-1}`` for ``l > i``.
    Telescoping over ``l`` gives ``phi_ik = phi_ij T(j, k) + sum_{l=j+1..k}
    R(i, l) T(l, k)`` for ``i <= j <= k``, and with it, for every triple,

        phi_ik - phi_ij phi_jk = phi_ij (1 - phi_jj) T(j, k)
                                 + sum_{l=j+1..k} (R(i, l) - phi_ij R(j, l)) T(l, k).

    So every exact defect is at most ``B = tau (N eps + (1 + N) rho)``, where
    ``rho = max_i sum_l |R(i, l)|_F``, ``eps = max_x |1 - phi(x, x)|_F``,
    ``N = max |phi|_F`` and ``tau >= 1`` is the product of
    ``max(1, |S_l|_2)``, which bounds every ``|T(l, k)|_2``.

    Rounding (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, ch. 3), with ``gamma_n = n u / (1 - n u)``: every computed norm, sum
    and product of norms here, and the scan's difference, is within a
    relative ``g = gamma_{4d^2+2m+16}`` of its exact value, either way up;
    each entry of a computed product of d x d complex matrices is within
    ``c = gamma_{2d+4}`` (twice the ``n`` of the complex inner-product bound
    ``gamma_{n+2}``, for any order of summation) of ``|A||B|``, so within
    ``c N^2`` in the Frobenius norm; an SVD norm is within a relative
    ``eta = 1e-10``, far over LAPACK's.  So the exact ``rho`` is at most the
    computed one times ``1 + g`` plus ``(m - 1) c N^2``, and the scan's
    computed defect at most ``(1 + eta)(1 + g)(B + c N^2)``: when that is at
    most ``tol``, every triple passes.

    Nothing is certified for fewer than two nodes, when reading the values
    raises an input error, or when anything is NaN or inf.  ``max rho > tol``
    is tested first, so an indivisible family fails in one residual pass."""
    m, d = len(fam.graph.nodes), fam.dim
    if m < 2:
        return False
    try:
        vals = fam.stack(list(fam.graph.edges()))
    except InputError:
        return False
    # the rows (i, i), (i, i+1), ..., (i, m-1) of graph.edges() are consecutive
    i, j = np.triu_indices(m)
    rows = np.flatnonzero(j > i)
    steps = vals[np.flatnonzero(j == i + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        res = vals[rows - 1] @ steps[j[rows] - 1]
        np.subtract(vals[rows], res, out=res)
        rho = np.bincount(i[rows], np.linalg.norm(res, axis=(1, 2)), m).max()
        if not rho <= tol:
            return False
        u = np.finfo(float).eps / 2
        g, c = ((n * u / (1 - n * u)) for n in (4 * d * d + 2 * m + 16, 2 * d + 4))
        top = (1 + g) * np.linalg.norm(vals, axis=(1, 2)).max()  # N
        eps = (1 + g) * np.linalg.norm(linops.eye(d) - vals[j == i], axis=(1, 2)).max()
        rho = (1 + g) * rho + (m - 1) * c * top * top
        tau = (1 + g) * np.prod(np.maximum(1.0, (1 + 1e-10) * spectral_norm(steps)))
        bound = (1 + 1e-10) * (1 + g) * (tau * (top * eps + (1 + top) * rho) + c * top * top)
    return bool(bound <= tol)


def check_divisibility(fam, tol=1e-9, rng=None, count=None):
    return _triple_check("divisibility-axiom", fam, lambda uv, vw, uw: uw - uv @ vw,
                         tol, rng, count)


def check_additivity(gen, tol=1e-9, rng=None, count=None):
    return _triple_check("additivity-axiom", gen, lambda uv, vw, uw: uw - uv - vw,
                         tol, rng, count)


# The tolerance of the geometric-growth check; ``check --tol`` does not reach it.
GROWTH_TOL = 1e-12
# The least tolerance of ``check``'s divisibility and additivity reports, which
# compare products of computed exponentials; a lower ``check --tol`` cannot.
TRIPLE_TOL_FLOOR = 1e-9


def check_geometric_growth(fam, ell):
    """Operator families: |phi(e) - 1| <= l(e).  Generator families: |A(e)| <= l(e)."""
    edges = list(fam.graph.edges())
    shift = 0 if isinstance(fam, GeneratorFamily) else linops.eye(fam.dim)
    excess = _blockwise(edges, lambda es: linops.screened_norms(
        fam.stack(es) - shift, GROWTH_TOL, np.array([ell(e) for e in es], dtype=float),
        offenders=True))
    return defect_report("geometric-growth", excess, edges, GROWTH_TOL, offenders=True)


# -- example families -------------------------------------------------------------

def descending_grid(t_max, points):
    """Time grid listed from t_max down to 0: edges are (later, earlier)."""
    if points < 2:
        raise InputError("need at least two grid points")
    # plain floats: they print, hash and compare like JSON-parsed node keys
    return LinearOrderGraph(tuple(np.linspace(t_max, 0.0, points).tolist()))


def interpolated_commutator_coefficients(t, s, t_max):
    """Coefficients (c1, c2) of the integrated two-Hamiltonian interpolation:
    the generator over [s, t] is c1 * K1 + c2 * K2 where Ki = i[h_i, .].
    Elementwise on arrays of ``t`` and ``s``."""
    lam = (t + s) / (2.0 * t_max)
    scale = (t - s) / t_max
    return scale * lam, scale * (1.0 - lam)


def example_indivisible(h1, h2, t_max=1.0, grid_points=9):
    """Generator family interpolating two non-commuting Hamiltonian
    directions over a descending time grid; divisibility of its exponential
    family fails whenever [h1, h2] does not commute with everything.
    """
    h1 = np.asarray(h1, dtype=complex)
    h2 = np.asarray(h2, dtype=complex)
    if not linops.is_hermitian(h1, 1e-12) or not linops.is_hermitian(h2, 1e-12):
        raise InputError("h1 and h2 must be Hermitian")
    hat = linops.commutator(h1, h2)
    # tr[h1,h2] = 0, so [h1,h2] is central iff it vanishes
    if spectral_norm(hat) <= 1e-12:
        raise InputError("[h1, h2] is central; the family would be divisible")
    d = h1.shape[0]
    psi1 = 1j * commutator_superop(h1)
    psi2 = 1j * commutator_superop(h2)
    graph = descending_grid(t_max, grid_points)
    keys = np.array(graph.nodes)

    def gen(edges):
        i, j = graph.edge_indices(edges)  # descending grid: t >= s numerically
        c1, c2 = interpolated_commutator_coefficients(keys[i], keys[j], t_max)
        return c1[:, None, None] * psi1 + c2[:, None, None] * psi2

    return GeneratorFamily(graph, d * d, stack_fn=gen)


def _rate_generators(graph, rate):
    """The generator family (t - s) * rate on a linear order with numeric
    keys.  Each t - s is the Python difference of the two keys, so integer
    keys stay exact, and it is converted as a scalar factor would be."""
    def gen(edges):
        graph.edge_indices(edges)  # raises for the first non-edge
        steps = np.array([t - s for t, s in edges], dtype=float)
        return steps[:, None, None] * rate

    return GeneratorFamily(graph, rate.shape[0], stack_fn=gen)


def commuting_evolution(rate, t_max=1.0, grid_points=9):
    """Memoryless divisible demo family phi(t, s) = expm((t - s) * rate) on a
    descending grid; ``rate`` should be dissipative for contractions."""
    return _rate_generators(descending_grid(t_max, grid_points),
                           np.asarray(rate, dtype=complex))


def _scaled(raw, alpha, dim):
    """The generator family ``alpha * raw`` of dimension ``dim``, scaled from
    the batch evaluator of ``raw``, so unscaled values are never cached."""
    return GeneratorFamily(raw.graph, dim, stack_fn=lambda es: alpha * raw._evaluate(es))


# -- Lindblad-form generators ---------------------------------------------------

def lindblad_generator(h, psi):
    """Generator i[h, .] + Psi - (1/2){Psi(1), .} for Hermitian h and a
    completely positive map Psi, both maps as superoperator matrices."""
    h = np.asarray(h, dtype=complex)
    if not linops.is_hermitian(h):
        raise ValueError("Hamiltonian part must be Hermitian")
    d = h.shape[0]
    psi = linops.as_matrix(psi)
    if psi.shape != (d * d, d * d):
        raise ValueError("dimension mismatch between h and Psi")
    psi_of_one = superop_apply(psi, linops.eye(d))
    return (1j * commutator_superop(h)
            + psi
            - 0.5 * linops.anticommutator_superop(psi_of_one))


def dissipation_map(l, a, b):
    """D_L(a, b) = L(b* a) - (L(b)* a + b* L(a)), per matrix of stacks."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    bd = dagger(b)
    return superop_apply(l, bd @ a) - (dagger(superop_apply(l, b)) @ a
                                       + bd @ superop_apply(l, a))


# The tolerance of the three generator conditions (ten times it bounds the
# contraction excess) and the step sizes alpha at which expm(alpha * L) is
# sampled by check_schwarz_generator.
SCHWARZ_TOL = 1e-10
SCHWARZ_ALPHAS = (0.1, 1.0, 10.0)


def check_schwarz_generator(l, samples):
    """Certify the three generator conditions and, on success, sampled
    contraction of the induced maps.

    Conditions: L(1) = 0; L maps adjoints to adjoints (checked on matrix
    units); D_L(a, a) >= 0 on every sample.  On pass the induced maps
    expm(alpha * L) are checked to not expand operator norms on the samples.
    Each condition is one stacked call over the units or the samples.
    """
    l = linops.as_matrix(l)
    d = math.isqrt(l.shape[0])
    details = {"alphas": list(SCHWARZ_ALPHAS), "samples": len(samples)}
    unital_defect = spectral_norm(superop_apply(l, linops.eye(d)))
    units = linops.matrix_units(d)
    sa_defect = max(0.0, *spectral_norm(superop_apply(l, dagger(units))
                                        - dagger(superop_apply(l, units))).tolist())
    a = np.asarray(list(samples) or np.zeros((0, d, d)), dtype=complex)
    m = dissipation_map(l, a, a)
    vals = np.linalg.eigvalsh(linops.hermitian_part(m)).min(axis=-1)
    psd_defect = max(0.0, *(-vals).tolist(), *spectral_norm(m - dagger(m)).tolist())
    conditions_ok = max(unital_defect, sa_defect, psd_defect) <= SCHWARZ_TOL
    details.update(unital_defect=unital_defect, self_adjoint_defect=sa_defect,
                   dissipation_psd_defect=psd_defect)
    contraction_defect = 0.0
    if conditions_ok:
        norms = spectral_norm(a)
        for alpha in SCHWARZ_ALPHAS:
            excess = spectral_norm(superop_apply(linops.expm(alpha * l), a)) - norms
            contraction_defect = max(contraction_defect, *excess.tolist())
        details["contraction_defect"] = contraction_defect
    worst = max(unital_defect, sa_defect, psd_defect, contraction_defect)
    return CheckReport("schwarz-generator", conditions_ok and
                       contraction_defect <= 10 * SCHWARZ_TOL, worst, SCHWARZ_TOL,
                       details=details, count=len(samples))


# -- weighted acyclic networks ---------------------------------------------------

class DagNetwork:
    """Finite acyclic directed graph with matrix edge weights."""

    def __init__(self, nodes, edges, weights, dim):
        self.nodes = tuple(dict.fromkeys(nodes))
        self.index = {u: i for i, u in enumerate(self.nodes)}  # positions in walk_sums
        self.edges = [tuple(e) for e in edges]
        self.dim = int(dim)
        self.weights = {tuple(e): np.asarray(w, dtype=complex)
                        for e, w in weights.items()}
        for e in self.edges:
            if e not in self.weights:
                raise InputError(f"edge {e!r} has no weight")
            if self.weights[e].shape != (self.dim, self.dim):
                raise InputError(f"weight at {e!r} has wrong shape")
        self._succ = {u: [] for u in self.nodes}
        sorter = TopologicalSorter({u: () for u in self.nodes})
        seen = set()
        for (t, h) in self.edges:
            if t not in self._succ or h not in self._succ:
                raise InputError(f"edge ({t!r}, {h!r}) uses unknown nodes")
            if (t, h) in seen:  # a second copy would count each walk twice
                raise InputError(f"edge ({t!r}, {h!r}) is listed twice")
            seen.add((t, h))
            self._succ[t].append(h)
            sorter.add(h, t)
        try:
            self.order = list(sorter.static_order())  # every edge points forward
        except CycleError:
            raise InputError("the weighted graph has a directed cycle") from None

    def successors(self, u):
        return self._succ[u]

    def weight(self, u, v):
        return self.weights[(u, v)]


def walk_sums(net, targets, avoid=None):
    """Ordered weight-product sums over the walks from every node into each
    of ``targets`` (positions in ``net.nodes``) that skip position ``avoid``,
    as an (n, len(targets), dim, dim) array, from one reverse-topological
    sweep that adds ``W(x, z) @ sums[z]`` over x's successors in order:
    one stacked product per edge, bitwise the one-target sweep."""
    targets, index, eye = np.asarray(targets, dtype=np.intp), net.index, linops.eye(net.dim)
    sums = np.zeros((len(net.nodes), len(targets), net.dim, net.dim), dtype=complex)
    for x in reversed(net.order):
        i = index[x]
        if i != avoid:
            sums[i, targets == i] = eye
            for z in net.successors(x):
                if index[z] != avoid:
                    sums[i] += net.weight(x, z) @ sums[index[z]]
    return sums


def network_family(net):
    """Path-sum family on the complete graph over the network's nodes:
    phi(u, v) sums the ordered weight products over all directed walks.
    Loops contribute the empty product, so phi(u, u) = 1."""
    def stack(edges):  # one sweep carries the batch's distinct heads
        for u, v in edges:  # the first non-edge, in order, is the error
            if u not in net.index or v not in net.index:
                raise ValueError(f"({u!r}, {v!r}) is not an edge of the graph")
        pos = np.array([(net.index[u], net.index[v]) for u, v in edges], dtype=np.intp)
        targets, cols = np.unique(pos[:, 1], return_inverse=True)
        return walk_sums(net, targets)[pos[:, 0], cols]

    return OperatorFamily(CompleteGraph(net.nodes), net.dim, stack_fn=stack)


def check_network_defect(net, fam, tol):
    """phi(u,w) - phi(u,v) phi(v,w) against the v-avoiding path sum over all
    node triples, by :func:`_difference_norms`; one sweep per v."""
    nodes, n, d = net.nodes, len(net.nodes), net.dim
    phi = fam.stack(list(itertools.product(nodes, repeat=2))).reshape(n, n, d, d)
    defects = np.empty((n, n, n))
    for b in range(n):
        with np.errstate(over="ignore", invalid="ignore"):  # inf defects
            diffs = walk_sums(net, range(n), avoid=b) - (phi - phi[:, b, None] @ phi[b])
        defects[:, b] = _difference_norms(diffs.reshape(-1, d, d), tol).reshape(n, n)
    return defect_report("network-defect-formula", defects.reshape(-1),
                         list(itertools.product(nodes, repeat=3)), tol)


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


def _edge_entries(fam_spec, key, has_edge, field="matrix", parse=linops.matrix_from_literal):
    """The (edge, parsed value) pairs of ``fam_spec[key]``, a list
    ``[{"edge": [t, h], field: ...}, ...]``, parsed one entry at a time.  A
    malformed edge literal, an edge that ``has_edge(t, h)`` rejects, or one
    listed twice, is an input error: none can be misread, dropped or
    overwritten unseen."""
    seen = set()
    for i, item in enumerate(fam_spec[key]):
        edge = rewrite.edge_from_literal(item["edge"], f"the edge of family.{key} entry {i}")
        if not has_edge(*edge):
            raise InputError(f"edge {edge!r} is not an edge of the graph")
        if edge in seen:
            raise InputError(f"edge {edge!r} is listed twice")
        seen.add(edge)
        yield edge, parse(item[field])


def _matrix_table(fam_spec, key, graph, dim):
    """:func:`_edge_entries` of the graph's edges as a dict, each value a
    ``dim`` x ``dim`` matrix; an entry of another shape is an input error
    that names it."""
    table = dict(_edge_entries(fam_spec, key, graph.has_edge))
    for i, m in enumerate(table.values()):
        if m.shape != (dim, dim):
            raise InputError(f"family.{key} entry {i} has shape {m.shape}, but dim is {dim}")
    return table


def _table_evaluator(graph, dim, table, loop_value, what):
    """The batch evaluator of an edge table on a linear order: ``table``
    completed over the graph's edges at once, where a loop left out gets
    ``loop_value`` and any other missing edge is an input error.  A batch
    is one :meth:`LinearOrderGraph.edge_indices` call and one gather."""
    values = []
    for u, v in graph.edges():
        if (u, v) not in table and u != v:
            raise InputError(f"no {what} for edge {(u, v)!r}")
        values.append(table.get((u, v), loop_value))
    values, m = np.array(values, dtype=complex).reshape(-1, dim, dim), len(graph.nodes)

    def stack(edges):
        i, j = graph.edge_indices(edges)
        return values[i * (2 * m - i - 1) // 2 + j]  # the row of (i, j) in graph.edges()
    return stack


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
    """Raise unless every node key is a number and their span ``max - min`` is
    a finite float: ``field`` subtracts them."""
    for u in graph.nodes:
        if not is_number(u):
            raise InputError(f"{field} needs numeric graph.order keys, got {u!r}")
    if not is_number(max(graph.nodes) - min(graph.nodes)):
        raise InputError(f"{field} needs graph.order keys whose span is a finite float")


def _order_and_dim(spec):
    """The linear order ``graph.order`` and the positive integer ``dim``."""
    order = rewrite.nodes_from_literal(spec["graph"]["order"], "graph.order")
    return LinearOrderGraph(order), _spec_number(spec, "dim", integer=True)


def _build_explicit(spec, fam_spec):
    graph, dim = _order_and_dim(spec)
    phi = _table_evaluator(graph, dim, _matrix_table(fam_spec, "values", graph, dim),
                           linops.eye(dim), "value supplied")
    return {"graph": graph, "family": OperatorFamily(graph, dim, phi),
            "kind": "explicit", "ell": _parse_ell(fam_spec, graph)}


def _build_exponential(spec, fam_spec):
    graph, dim = _order_and_dim(spec)
    if "rate" in fam_spec:
        rate = linops.matrix_from_literal(fam_spec["rate"])
        if rate.shape != (dim, dim):
            raise InputError(f"family.rate has shape {rate.shape}, but dim is {dim}")
        _numeric_nodes(graph, "rate")
        raw = _rate_generators(graph, rate)
    else:
        raw = GeneratorFamily(graph, dim, _table_evaluator(
            graph, dim, _matrix_table(fam_spec, "generators", graph, dim),
            np.zeros((dim, dim), dtype=complex), "generator"))
    gens = _scaled(raw, _spec_number(fam_spec, "alpha", 1.0), dim)
    return {"graph": graph, "family": gens.exponential(), "generators": gens,
            "kind": "exponential", "ell": _parse_ell(fam_spec, graph)}


def _build_network(spec, fam_spec):
    gspec = spec["graph"]
    dim = _spec_number(spec, "dim", integer=True)
    edges = rewrite.edges_from_literal(gspec["edges"], "graph.edges")
    edge_set = set(edges)
    weights = dict(_edge_entries(fam_spec, "weights", lambda t, h: (t, h) in edge_set))
    net = DagNetwork(rewrite.nodes_from_literal(gspec["nodes"], "graph.nodes"), edges,
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
    if "order" in graph and tuple(graph["order"]) != raw.graph.nodes:
        raise InputError(f"graph.order does not match the {points}-point grid "
                         f"from t_max={t_max} down to 0")
    if "dim" in spec and _spec_number(spec, "dim", integer=True) != raw.dim:
        raise InputError(f"dim {spec['dim']!r} does not match d^2 = {raw.dim} "
                         "of h1 and h2")
    gens = _scaled(raw, alpha, raw.dim)
    c0 = max(spectral_norm(1j * commutator_superop(h))
             for h in (h1, h2)) / t_max
    return {"graph": gens.graph, "family": gens.exponential(), "generators": gens,
            "kind": "indivisible-example", "ell": proportional_length(abs(alpha) * c0)}


def _build_cptp(spec, fam_spec):
    from . import dilate  # local import: dilate depends on this module

    graph, dim = _order_and_dim(spec)
    edges, chois = [], []
    try:
        for edge, choi in _edge_entries(fam_spec, "channels", graph.has_edge, "channel",
                                        dilate.choi_from_spec):
            edges.append(edge)
            chois.append(choi)
    except Exception:
        # the entries before the bad one fail their validation first, as they
        # do when each is validated as it is read
        dilate.validate_chois(chois)
        raise
    dilate.validate_chois(chois)
    for edge, choi in zip(edges, chois):
        if len(choi) != dim * dim:
            raise InputError(f"channel at edge {edge!r} has dim {math.isqrt(len(choi))}, "
                             f"but the system dim is {dim}")
    # only the superoperators are kept; a loop defaults to the identity map
    superops = dict(zip(edges, linops.choi_to_superop(np.stack(chois), dim))) if chois else {}
    fam = OperatorFamily(graph, dim * dim, _table_evaluator(
        graph, dim * dim, superops, linops.eye(dim * dim), "channel"))
    return {"graph": graph, "family": fam, "dim": dim, "kind": "cptp"}


def _parse_ell(fam_spec, graph):
    spec = fam_spec.get("ell")
    if spec is None:
        return None
    if not (isinstance(spec, dict) and spec.get("kind") == "proportional"):
        raise InputError(f'ell must be {{"kind": "proportional", "scale": c}}, got {spec!r}')
    scale = _spec_number(spec, "scale", minimum=0, name="ell.scale")
    _numeric_nodes(graph, "ell")
    if not is_number(scale * (max(graph.nodes) - min(graph.nodes))):  # bounds every length
        raise InputError("ell needs ell.scale times the graph.order keys' span "
                         "to be a finite float")
    return proportional_length(scale)


_SYSTEM_BUILDERS = {
    "explicit": _build_explicit,
    "exponential": _build_exponential,
    "network": _build_network,
    "indivisible-example": _build_indivisible,
    "cptp": _build_cptp,
}

"""Lifting edge-indexed families to group-indexed families.

Three constructions, in increasing order of required structure:

* normal-form extension: multiply the family values along the letters of an
  element's normal form (identity axiom only, any graph);
* interval-product extension: on linear orders, multiply family values over
  the positive part of the element's signed interval profile (requires
  divisibility, and is then refinement-independent);
* generator-sum extension: same positive part, but summing generators and
  exponentiating once (requires additivity; dissipativity makes the result
  a contraction).

The signed interval profile of a word ("cover") is invariant under the
rewrite rules, which is what makes the last two well-defined on the group.
"""

from dataclasses import dataclass

import numpy as np

from . import linops, rewrite
from .dynamics import GeneratorFamily, LinearOrderGraph, _divisible_by_pairs, \
    check_additivity, check_divisibility, check_identity_axiom
from .errors import InputError, PreconditionError
from .linops import spectral_norm
from .reports import defect_report


@dataclass(frozen=True)
class CoverFunction:
    """Canonical integer step function on a linear order.

    Segments are (left_index, right_index, coeff) with left < right, nonzero
    integer coeff, pairwise disjoint, sorted; adjacent segments sharing a
    boundary carry distinct coeffs.  Values live on node indices: the
    half-open segment [l, r) covers nodes l .. r-1.
    """

    graph: LinearOrderGraph
    segments: tuple

    def as_segment_dicts(self):
        """JSON-facing dump: endpoints as node keys."""
        nodes = self.graph.nodes
        return [{"left": nodes[l], "right": nodes[r], "coeff": int(c)}
                for (l, r, c) in self.segments]


def _endpoint_deltas(graph, letters):
    """The net sweep that starts at each node index: each letter (u, v) adds
    +1 at u and -1 at v, so a loop's deltas cancel."""
    delta = {}
    for t, h in letters:
        iu, iv = graph.index(t), graph.index(h)
        delta[iu] = delta.get(iu, 0) + 1
        delta[iv] = delta.get(iv, 0) - 1
    return delta


def cover_of_word(graph, w):
    """Signed interval profile of a word: each letter (u, v) sweeps +1 over
    [u, v) when u precedes v, -1 over [v, u) when v precedes u, and nothing
    on loops.  Invariant under every rewrite rule.

    The profile changes only at letter endpoints, so the segments are read
    off the endpoint deltas at their sorted indices: O(k log k) for k
    letters, whatever the number of nodes."""
    if not isinstance(graph, LinearOrderGraph):
        raise InputError("covers need a linearly ordered graph")
    delta = _endpoint_deltas(graph, w.letters if isinstance(w, rewrite.GroupElement) else w)
    segments, start, cur = [], None, 0
    for i in sorted(delta):
        if delta[i]:
            if cur:
                segments.append((start, i, cur))
            start, cur = i, cur + delta[i]
    return CoverFunction(graph, tuple(segments))


def positive_part(graph, letters, extra_nodes):
    """The (left, right) node pairs of consecutive breakpoints on which the
    cover of the word ``letters`` is positive; the breakpoints are the ends
    of the cover's segments plus the extra nodes.

    One sorted pass over the letters' endpoint deltas, with no cover built:
    every point whose deltas do not cancel ends or starts a segment, and a
    point whose deltas cancel is a breakpoint only when it is an extra node.
    The cover on each interval is the running sum of the deltas up to its
    left end."""
    if len(letters) == 1 and not extra_nodes:  # an edge element: its letter, if forward
        (t, h), = letters
        i, j = graph.index(t), graph.index(h)
        return [(graph.nodes[i], graph.nodes[j])] if i < j else []
    delta = _endpoint_deltas(graph, letters)
    points = {i for i, d in delta.items() if d}
    points.update(map(graph.index, extra_nodes))
    bps = sorted(points)
    nodes, out, cur = graph.nodes, [], 0
    for l, r in zip(bps, bps[1:]):
        cur += delta.get(l, 0)
        if cur > 0:
            out.append((nodes[l], nodes[r]))
    return out


# -- the three extensions ------------------------------------------------------

# The precondition tolerances: the identity axiom of the normal-form
# extension, and every precondition of the two cover extensions.
NORMAL_FORM_TOL = 1e-10
COVER_TOL = 1e-9


def _products(fam, factors):
    """The ordered products of family values over each edge list of
    ``factors``, as one (len(factors), dim, dim) stack.

    The elements are grouped by their factor count k, and all factors are
    read with one ``fam.stack``, group after group.  Each group is folded
    together, ``acc = acc @ F_j`` from the identity: the association of a
    product taken edge by edge, and a stacked matmul runs the same gemm per
    matrix, so each product is bitwise the one-by-one fold."""
    groups = {}  # factor count -> its elements, in input order
    for n, f in enumerate(factors):
        groups.setdefault(len(f), []).append(n)
    vals = fam.stack([e for elements in groups.values() for n in elements for e in factors[n]])
    out, start = np.empty((len(factors), fam.dim, fam.dim), dtype=complex), 0
    for k, elements in groups.items():
        block = vals[start:start + k * len(elements)].reshape(len(elements), k, fam.dim, fam.dim)
        start += k * len(elements)
        acc = linops.eye(fam.dim)
        for j in range(k):
            acc = acc @ block[:, j]  # the identity broadcasts over the stack
        out[elements] = acc
    return out


class NormalFormExtension:
    """Letter-by-letter product along normal forms.

    Family values are used on true edges; reversed or otherwise non-edge
    letters of the closed relation contribute the identity.
    """

    def __init__(self, fam):
        self.fam = fam
        self.dim = fam.dim
        rep = check_identity_axiom(fam, NORMAL_FORM_TOL)
        if not rep.passed:
            raise PreconditionError("identity", f"identity axiom fails: {rep.max_defect:.3e}")

    def _edges(self, g):
        return [(t, h) for t, h in g.letters if self.fam.graph.has_edge(t, h)]

    def __call__(self, g):
        return self.stack([g])[0]

    def stack(self, gs):
        """The values at the elements ``gs``, one product each; the family is
        read at all their letters in one batch."""
        return _products(self.fam, [self._edges(g) for g in gs])


class FirstCoverExtension:
    """Ordered product of family values over the positive intervals of the
    cover; well-defined because divisibility collapses refinements."""

    def __init__(self, fam):
        if not isinstance(fam.graph, LinearOrderGraph):
            raise InputError("cover extensions need a linearly ordered graph")
        self.fam = fam
        self.dim = fam.dim
        rep = check_identity_axiom(fam, COVER_TOL)
        if not rep.passed:
            raise PreconditionError("identity", f"identity axiom fails: {rep.max_defect:.3e}")
        if not _divisible_by_pairs(fam, COVER_TOL):  # O(m^2); else the O(m^3) scan decides
            rep = check_divisibility(fam, COVER_TOL)
            if not rep.passed:
                raise PreconditionError(
                    "divisibility",
                    f"divisibility defect {rep.max_defect:.3e} at {rep.argmax} "
                    f"exceeds {COVER_TOL:.1e}; the interval product would be ill-defined",
                )

    @staticmethod
    def corner_bound(lengths):
        """The continuity bound from the four corner lengths: expm1 of each."""
        return float(sum(np.expm1(x) for x in lengths))

    def _intervals(self, g, extra):
        return positive_part(self.fam.graph, g.letters, extra)

    def evaluate(self, g, extra=()):
        return _products(self.fam, [self._intervals(g, extra)])[0]

    def stack(self, gs):
        """The values at the elements ``gs``, one interval product each; the
        family is read at all their intervals in one batch."""
        return _products(self.fam, [self._intervals(g, ()) for g in gs])

    def __call__(self, g, extra=(), verify=False):
        out = self.evaluate(g, extra)
        if verify:
            finest = self.evaluate(g, self.fam.graph.nodes)
            if spectral_norm(out - finest) > 1e-12 + 10 * len(self.fam.graph.nodes) * COVER_TOL:
                raise PreconditionError(
                    "divisibility", "refinement changed the interval product")
        return out


class SecondCoverExtension:
    """Sum generators over the positive intervals of the cover, then
    exponentiate; additivity makes the sum refinement-independent and
    positive combinations of dissipative generators stay dissipative."""

    def __init__(self, gen):
        if not isinstance(gen, GeneratorFamily):
            raise ValueError("the generator-sum extension needs a GeneratorFamily")
        if not isinstance(gen.graph, LinearOrderGraph):
            raise ValueError("cover extensions need a linearly ordered graph")
        self.fam = gen
        self.dim = gen.dim
        rep = check_additivity(gen, COVER_TOL)
        if not rep.passed:
            raise PreconditionError(
                "additivity",
                f"additivity defect {rep.max_defect:.3e} at {rep.argmax} "
                f"exceeds {COVER_TOL:.1e}",
            )
        rep = gen.check_dissipative(tol=COVER_TOL)
        if not rep.passed:
            raise PreconditionError(
                "dissipativity",
                f"generator at {rep.argmax} is not dissipative "
                f"({rep.max_defect:.3e})",
            )

    @staticmethod
    def corner_bound(lengths):
        """The continuity bound from the four corner lengths: their sum."""
        return float(sum(lengths))

    def generator_of(self, g, extra=()):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for edge in positive_part(self.fam.graph, g.letters, extra):
            out = out + self.fam(edge)
        return out

    def __call__(self, g, extra=()):
        return self.fam.expm(self.generator_of(g, extra)[None])[0]

    def stack(self, gs):
        """The values at the elements ``gs``, exponentiated through the
        generator family's memo: at an edge element the sum is the edge's
        generator, so a value that ``exponential()`` computed is read back."""
        return self.fam.expm(np.stack([self.generator_of(g) for g in gs]))


# -- continuity modulus ---------------------------------------------------------

def continuity_modulus_check(ext, ell, e, e_prime, gh_pairs, xis):
    """Two-sided translate modulus against the analytic bound.

    For every sampled pair (g, h) and unit vector xi the difference
    ``(ext(g * edge' * h) - ext(g * edge * h)) xi`` must stay below the
    four-corner bound: with m/M the meet/join of the two tails/heads, the
    corner lengths are l(m,u'), l(v',M), l(v,M), l(m,u), and the cover
    extension's ``corner_bound`` turns them into the bound: the
    interval-product extension pays expm1 of each corner, the generator-sum
    extension pays the corner lengths themselves.  The extension is read
    once, through ``stack``, at every translate of both edges, and each
    vector is normalized once.
    """
    graph = ext.fam.graph
    ctx = graph.context()
    (u0, v0), (u1, v1) = e, e_prime
    m = graph.meet(u0, u1)
    big = graph.join(v0, v1)
    corners = [(m, u1), (v1, big), (v0, big), (m, u0)]
    bound = ext.corner_bound([ell(c) for c in corners])
    ge = rewrite.embed_edge(ctx, e)
    ge_prime = rewrite.embed_edge(ctx, e_prime)
    lefts = [rewrite.gmul(rewrite.gmul(g, ge_prime), h) for g, h in gh_pairs]
    rights = [rewrite.gmul(rewrite.gmul(g, ge), h) for g, h in gh_pairs]
    values = ext.stack(lefts + rights) if gh_pairs else ()
    units = [np.asarray(xi, dtype=complex) for xi in xis]
    units = [xi / np.linalg.norm(xi) for xi in units]
    keys, excess = [], []
    for k, (g, h) in enumerate(gh_pairs):
        delta = values[k] - values[len(lefts) + k]
        for xi in units:
            keys.append((g.letters, h.letters))
            excess.append(float(np.linalg.norm(delta @ xi)) - bound)
    signed = float(np.max(excess, initial=-np.inf))
    return defect_report(
        "continuity-modulus", excess, keys, 1e-10, floor=-np.inf, offenders=True,
        details={"bound": bound, "signed_excess": signed,
                 "edge": list(e), "edge_prime": list(e_prime)})

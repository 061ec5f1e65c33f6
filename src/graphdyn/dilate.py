"""Dilations: channels and their Kraus forms, reflection dilations of single
channels, unitary group-representation dilations of channel families, and
shift dilations of contraction families on groups, composed into the three
end-to-end pipelines (discrete / divisible-continuous / generator-continuous)
plus the CPTP variant of the discrete one.

Group-indexed carrier spaces are never materialized: vectors over the group
are finitely supported tag/payload lists, so the representation laws hold
exactly at the tag level.
"""

from dataclasses import dataclass

import numpy as np

from . import linops, rewrite
from .dynamics import (GeneratorFamily, LinearOrderGraph, _blockwise,
                       _node_triples, _ordered_triples, _spec_number,
                       check_geometric_growth)
from .errors import (InputError, NotCPTPError, PreconditionError,
                     StructureError, reading)
from .extend import (FirstCoverExtension, NormalFormExtension,
                     SecondCoverExtension, continuity_modulus_check)
from .linops import dagger, eye, spectral_norm, trace_norm
from .reports import CheckReport, bad_keys_report, defect_report


# -- channels -------------------------------------------------------------------

class Channel:
    """A CPTP map, stored as its Choi matrix.

    Choi convention (fixed globally): ``choi = sum_ij Phi(E_ij) (x) E_ij``
    over matrix units, output factor first.  Complete positivity = the Choi
    matrix is PSD; trace preservation = its partial trace over the output
    factor is the identity.  The superoperator form is the index reshuffle
    :func:`linops.choi_to_superop`, and :meth:`apply` applies it; the Kraus
    form :attr:`kraus` is read off the Choi matrix.
    """

    def __init__(self, dim, choi):
        self.dim = int(dim)
        self.choi = linops.as_matrix(choi)
        if self.choi.shape != (self.dim**2, self.dim**2):
            raise NotCPTPError(f"Choi matrix has shape {self.choi.shape}")
        self.validate()

    def validate(self):
        """Raise NotCPTPError unless the Choi matrix passes :func:`cptp_defects`
        (PSD, then trace preservation) to ``linops.DEFAULT_TOL``."""
        tol = linops.DEFAULT_TOL
        herm, negative, tp = cptp_defects(self.choi, self.dim)
        if max(herm, negative) > tol:
            raise NotCPTPError("Choi matrix is not positive semidefinite")
        if tp > tol:
            raise NotCPTPError(f"trace-preservation defect {tp:.3e}")

    @property
    def kraus(self):
        """The Kraus list of the Choi matrix's eigendecomposition, as a
        (k, d, d) stack: eigenvalues above 1e-12 relative to the largest one
        are kept, so there are at most d^2 operators."""
        w, v = np.linalg.eigh(linops.hermitian_part(self.choi))
        keep = w > 1e-12 * max(w.max(), 1.0)
        return (np.sqrt(w[keep])[:, None] * v.T[keep]).reshape(-1, self.dim, self.dim)

    def apply(self, s):
        """The channel at ``s``: a d x d matrix or a (..., d, d) stack."""
        return linops.superop_apply(self.superop(), s)

    def superop(self):
        """The channel as a column-stacking superoperator matrix."""
        return linops.choi_to_superop(self.choi, self.dim)

    @classmethod
    def from_kraus(cls, kraus_ops):
        ks = list(kraus_ops)
        m, d = linops.kraus_superop(ks), len(ks[0])
        return cls(d, linops.superop_to_choi(m, d))

    @classmethod
    def depolarizing(cls, d):
        """s -> tr(s) 1/d."""
        return cls.from_kraus(d**-0.5 * linops.matrix_units(d))

    @classmethod
    def random(cls, rng, d):
        from .sampling import random_kraus_ops
        return cls.from_kraus(random_kraus_ops(rng, d))


def cptp_defects(choi, d):
    """The CPTP defects of a Choi matrix, or of each matrix of a stack, along
    a last axis of three: the Hermiticity defect ``|C - C*|``, the negative of
    the least eigenvalue of ``(C + C*)/2`` and the trace-preservation defect
    ``|Tr_out C - 1|``.  The map is CPTP to ``tol`` if all are at most ``tol``."""
    return np.stack([spectral_norm(choi - dagger(choi)),
                     -np.linalg.eigvalsh(linops.hermitian_part(choi)).min(axis=-1),
                     spectral_norm(linops.partial_trace_first(choi, d, d) - eye(d))],
                    axis=-1)


def check_cptp_family(system, tol):
    """Per edge of a cptp system, the largest of its channel's
    :func:`cptp_defects`."""
    d, edges = system["dim"], list(system["graph"].edges())
    chois = linops.superop_to_choi(system["family"].stack(edges), d)
    return defect_report("cptp-family", cptp_defects(chois, d).max(axis=-1), edges, tol)


def _kraus_isometry(ch, pad_to=None):
    """The coupling isometry of a channel as a (d, k, d) array ``w`` with
    ``w[a, i, c] = K_i[a, c]``: reshaped to (d k, d) it maps xi to the stack of
    the K_i xi tagged by i.  ``pad_to`` zero-pads the Kraus list to that many
    operators."""
    ks = ch.kraus
    d, k = ch.dim, len(ks)
    if pad_to is None:
        pad_to = k
    elif pad_to < k:
        raise InputError(f"{k} Kraus operators do not fit in {pad_to} "
                         "environment slots")
    w = np.zeros((d, pad_to, d), dtype=complex)
    w[:, :k] = ks.transpose(1, 0, 2)
    return w


def isometric_partition(ch):
    """Canonical isometry v and the isometric partition {v_i} over the
    channel's Kraus list: v maps xi to the stack of K_i xi tagged by i, and
    v_i embeds xi into slot i.  The identities v*v = 1, v_j* v_i = delta 1,
    sum v_i v_i* = 1 and K_i* = v* v_i are all verified before returning.
    """
    w = _kraus_isometry(ch)
    d, k = w.shape[:2]
    v = w.reshape(d * k, d)
    parts = [linops.tensor(eye(d), eye(k)[:, [i]]) for i in range(k)]
    checks = [spectral_norm(dagger(v) @ v - eye(d))]
    for i, vi in enumerate(parts):
        checks.append(spectral_norm(dagger(v) @ vi - dagger(w[:, i])))
        for j, vj in enumerate(parts):
            target = eye(d) if i == j else np.zeros((d, d))
            checks.append(spectral_norm(dagger(vj) @ vi - target))
    checks.append(spectral_norm(sum(vi @ dagger(vi) for vi in parts) - eye(d * k)))
    worst = max(checks)
    if worst > 1e-12:
        raise NotCPTPError(f"isometric partition identities fail by {worst:.3e}")
    return v, parts


def _reduced_action(u, env, s):
    """``Tr_env(V s V*)`` with ``V = u (1 (x) e_0)``: the reduced action on
    ``s (x) |e_0><e_0|`` of a unitary ``u`` on system (x) environment, for a
    d x d matrix or a (..., d, d) stack ``s``.

    V is the first environment column of u, d columns in all, so this costs
    O(n d^2) for ``n = dim u``; the n x n product state is never formed.
    """
    d = u.shape[0] // env
    v = np.ascontiguousarray(u.reshape(d, env, d, env)[..., 0])
    s = np.asarray(s, dtype=complex)
    vs = (v @ s[..., None, :, :]).reshape(s.shape[:-2] + (d, -1))
    return vs @ dagger(v.reshape(d, -1))


@dataclass
class KrausDilation:
    """Unitary (reflection) dilation of a single channel: the environment is
    the system space direct-summed with system (x) C^k, its state is e_0 (in
    the first summand), and tracing the environment out of the conjugated
    product state reproduces the channel."""

    dim: int
    env_dim: int
    unitary: np.ndarray

    def reconstructed(self, s):
        return _reduced_action(self.unitary, self.env_dim, s)

    def verify(self, ch, tol=1e-10):
        u = self.unitary
        n = u.shape[0]
        units = linops.matrix_units(self.dim)
        norms = spectral_norm(np.stack([u @ dagger(u) - eye(n), u - dagger(u),
                                        u @ u - eye(n)]))
        defects = dict(zip(("unitary", "self_adjoint", "squares_to_identity"),
                           norms.tolist()))
        defects["reconstruction"] = float(trace_norm(
            self.reconstructed(units) - ch.apply(units)).max())
        return defect_report("reflection-dilation", list(defects.values()),
                             list(defects), tol, details=defects)


def kraus_ii_dilation(ch, pad_to=None):
    """Reflection dilation of a channel with environment H + H (x) C^k.

    The coupling isometry ``D = sum_i K_i (x) 1 (x) slot_i`` maps H (x) H into
    H (x) (H (x) C^k); over the two environment summands the block operator
    [[0, D*], [D, 1 - D D*]] is then a self-adjoint unitary.  The environment
    state is e_0.  ``pad_to`` zero-pads the Kraus list so families of channels
    can share one environment.
    """
    w = _kraus_isometry(ch, pad_to)
    d, k = w.shape[:2]
    env = d + d * k
    # dmat[a, b, i, c, b'] = K_i[a, c] if b = b', else 0
    dmat = np.zeros((d, d, k, d, d), dtype=complex)
    for b in range(d):
        dmat[:, b, :, :, b] = w
    dmat = dmat.reshape(d * d * k, d * d)
    u = np.zeros((d, env, d, env), dtype=complex)
    u[:, :d, :, d:] = dagger(dmat).reshape(d, d, d, d * k)
    u[:, d:, :, :d] = dmat.reshape(d, d * k, d, d)
    u[:, d:, :, d:] = (eye(d * d * k) - dmat @ dagger(dmat)).reshape(d, d * k, d, d * k)
    return KrausDilation(d, env, u.reshape(d * env, d * env))


# -- unitary representation dilation of a channel family ------------------------

@dataclass(frozen=True)
class FormalVector:
    """Finitely supported vector over the group: (tag, payload) terms.

    Terms with equal tags are merged on construction.
    """

    terms: tuple

    @classmethod
    def of(cls, terms):
        merged = {}
        for tag, payload in terms:
            payload = np.asarray(payload, dtype=complex)
            if tag in merged:
                merged[tag] = merged[tag] + payload
            else:
                merged[tag] = payload
        return cls(tuple(merged.items()))

    def map(self, fn):
        return FormalVector.of(fn(tag, payload) for tag, payload in self.terms)

    def distance(self, other):
        tags = {t for t, _ in self.terms} | {t for t, _ in other.terms}
        a = dict(self.terms)
        b = dict(other.terms)
        total = 0.0
        for t in tags:
            pa = a.get(t)
            pb = b.get(t)
            if pa is None:
                total += float(np.linalg.norm(pb))
            elif pb is None:
                total += float(np.linalg.norm(pa))
            else:
                total += float(np.linalg.norm(pa - pb))
        return total


class VedDilation:
    """Unitary representation dilating a group-indexed CPTP family.

    ``ext`` maps a group element to the superoperator of its channel, the
    identity matrix at the identity element, as :class:`NormalFormExtension`
    does.  Each other element gets a reflection dilation, read from one
    validated channel, on one shared environment of d^2 Kraus slots; the
    representation acts on
    finitely supported vectors over the group by
    ``(tag, payload) -> (x * tag, u(x * tag) u(tag)* payload)``, which
    satisfies the representation law exactly at the tag level.
    """

    def __init__(self, ext, dim):
        self.ext = ext
        self.dim = int(dim)
        self.k = self.dim**2
        self.env_dim = self.dim * (self.k + 1)
        self._unitaries = {rewrite.identity(): eye(self.dim * self.env_dim)}

    def unitary_of(self, x):
        u = self._unitaries.get(x)
        return self._dilate(x, self.ext(x)) if u is None else u

    def _dilate(self, x, value):
        """The unitary at ``x``, from the extension's superoperator ``value``
        there; cached per element."""
        u = self._unitaries.get(x)
        if u is None:
            ch = Channel(self.dim, linops.superop_to_choi(value, self.dim))
            u = self._unitaries.setdefault(x, kraus_ii_dilation(ch, pad_to=self.k).unitary)
        return u

    def apply(self, x, v):
        """The representation on finitely supported vectors."""
        def term(tag, payload):
            new_tag = rewrite.gmul(x, tag)
            return new_tag, self.unitary_of(new_tag) @ dagger(self.unitary_of(tag)) @ payload
        return v.map(term)

    def verify_element(self, x, s):
        """Trace-norm defect between the dilated action at ``x`` and the
        extension's channel, at a d x d matrix or per matrix of a stack ``s``."""
        return trace_norm(self._element_defect(x, s, self.ext(x)))

    def _element_defect(self, x, s, value):
        """The dilated action at ``x`` minus the extension's channel ``value``
        there, at ``s``.  The product state sits at the group-identity tag,
        and U(x) moves it to tag x with payload u(x) (s (x) |e_0><e_0|) u(x)*,
        so the reduced action of u(x) is the dilated channel at x."""
        reduced = _reduced_action(self._dilate(x, value), self.env_dim, s)
        return reduced - linops.superop_apply(value, s)


# -- shift dilation of contraction families on groups ---------------------------

class ShiftDilation:
    """Right-shift dilation of a contraction family indexed by a group.

    Vectors of the dilation space are finitely supported (tag, payload)
    lists.  The maps are: r embeds a payload at the identity tag, U(x)
    left-shifts tags, j sums the payloads acted on by the values at their
    tags.  Then U is a representation, exactly at the tag level, and
    j U(x) r is the value at x, which :meth:`compression_matrix` returns.

    Flavors: "banach" (payloads are vectors, values act by matrix product,
    and must be contractions) and "cstar" (payloads are square matrices,
    values are superoperators on their column-stacked vectorizations, and
    must be unital).

    ``phi_bar`` is an extension: its ``stack(elements)`` gives the values at
    a batch of group elements in one call.
    """

    def __init__(self, phi_bar, dim, flavor="banach"):
        if flavor not in ("banach", "cstar"):
            raise InputError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.dim = int(dim)  # payload dimension: vector length or matrix size
        self._phi = phi_bar
        self._values = {}
        n = self.dim if flavor == "banach" else self.dim**2
        self._shape = (n, n)

    def value(self, g):
        val = self._values.get(g)
        if val is None:
            self._fill([g])
            val = self._values[g]
        return val

    def values(self, gs):
        """The values at the elements ``gs`` as one stack.  The uncached ones
        are evaluated as one batch and checked with one batched norm; the
        first failing element in input order raises."""
        gs = list(gs)
        self._fill(list(dict.fromkeys(g for g in gs if g not in self._values)))
        if not gs:
            return np.empty((0,) + self._shape, dtype=complex)
        return np.stack([self.value(g) for g in gs])

    def _fill(self, gs):
        """Evaluate, check and cache the distinct uncached elements ``gs``."""
        if not gs:
            return
        try:
            vals = self._evaluate(gs)
        except Exception:
            if len(gs) > 1:
                # one by one, an element before the bad one may fail its
                # check first: single-element batches keep that order
                for g in gs:
                    self._fill([g])
            raise
        self._check(gs, vals)
        vals.flags.writeable = False  # a caller's in-place write raises
        self._values.update(zip(gs, vals))

    def _evaluate(self, gs):
        vals = np.asarray(self._phi.stack(gs), dtype=complex)
        if vals.shape != (len(gs),) + self._shape:
            raise InputError(f"value stack has shape {vals.shape}")
        return vals

    def _check(self, gs, vals):
        """Raise for the first value of the stack that is not a contraction
        (banach) or not unital (cstar)."""
        if self.flavor == "banach":
            axiom, fmt = "contraction", "norm {:.6f}"
            defects, bound = spectral_norm(vals), 1.0 + 1e-10
        else:
            d = self.dim
            ones = linops.superop_apply(vals, eye(d))
            axiom, fmt = "unitality", "unitality defect {:.3e}"
            defects, bound = spectral_norm(ones - eye(d)), 1e-10
        bad = np.flatnonzero(defects > bound)
        if bad.size:
            i = bad[0]
            raise PreconditionError(
                axiom, f"family value at {gs[i]!r} has " + fmt.format(defects[i]))

    @staticmethod
    def embed(payload):
        return FormalVector.of([(rewrite.identity(), payload)])

    @staticmethod
    def shift(x, v):
        return v.map(lambda tag, payload: (rewrite.gmul(x, tag), payload))

    def compression_matrix(self, x):
        """The matrix of the compression j U(x) r.

        Shifting moves the embedded payload to tag x and j applies the value
        there, so the matrix is the value at x itself: p -> value(x) p
        (banach) or p -> superop_apply(value(x), p) (cstar)."""
        return self.value(x)


# -- pipelines -------------------------------------------------------------------

@dataclass
class DilatedSystem:
    label: str
    system: dict
    extension: object
    dilation: object
    context: object

    def edge_element(self, e):
        return rewrite.embed_edge(self.context, e)

    def verify(self, rng=None, tol=1e-10):
        reports = []
        graph = self.system["graph"]
        nodes = graph.nodes
        bad = [u for u in nodes
               if not self.edge_element((u, u)).is_identity()]
        reports.append(bad_keys_report("group-identity-axiom", bad, len(nodes)))
        triples = _node_triples(nodes, _ordered_triples(graph, rng, 200))
        bad = []
        for (u, v, w) in triples:
            lhs = rewrite.gmul(self.edge_element((u, v)), self.edge_element((v, w)))
            if lhs != self.edge_element((u, w)):
                bad.append((u, v, w))
        reports.append(bad_keys_report("group-divisibility-axiom", bad, len(triples)))
        reports.append(self._compression_report(tol))
        if self.label in ("B", "C") and self.system.get("ell") is not None:
            reports.append(self._continuity_report(rng))
        return reports

    def _compression_report(self, tol):
        fam = self.system["family"]
        edges = list(self.system["graph"].edges())
        if self.label == "A-cptp":
            # per edge, the extension's channel against the edge's own, then
            # the dilated channel against the extension's, at every matrix
            # unit: one trace-norm stack
            gs = [self.edge_element(e) for e in edges]
            units = linops.matrix_units(self.dilation.dim)
            vals = self.extension.stack(gs)
            diffs = np.concatenate([
                linops.superop_apply((vals - fam.stack(edges))[:, None], units),
                [self.dilation._element_defect(g, units, v) for g, v in zip(gs, vals)]], axis=1)
            return defect_report("dilation-reconstruction",
                                 trace_norm(diffs).max(axis=1), edges, tol)
        defects = _blockwise(edges, lambda es: linops.screened_norms(
            self.dilation.values([self.edge_element(e) for e in es]) - fam.stack(es), tol))
        return defect_report("compression-identity", defects, edges, tol)

    def _continuity_report(self, rng):
        graph = self.system["graph"]
        ell = self.system["ell"]
        ext = self.extension
        worst = CheckReport("continuity-modulus", True, 0.0, 0.0)
        nodes = graph.nodes
        if len(nodes) < 2:  # no edge (u, v) with u before v to probe
            return worst
        rng = rng or np.random.default_rng(0)
        ctx = self.context
        n = self.extension.fam.dim
        xis = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for _ in range(3)]
        pairs = [(rewrite.random_element(ctx, rng, 3),
                  rewrite.random_element(ctx, rng, 3)) for _ in range(5)]
        idx = rng.integers(0, len(nodes) - 1, size=4)
        for i in idx:
            e = (nodes[i], nodes[i + 1])
            e2 = (nodes[max(i - 1, 0)], nodes[min(i + 2, len(nodes) - 1)])
            rep = continuity_modulus_check(ext, ell, e, e2, pairs, xis)
            if not rep.passed or rep.max_defect > worst.max_defect:
                worst = rep
        return worst


def _payload_dim(fam_dim, flavor):
    if flavor == "banach":
        return fam_dim
    d = int(round(fam_dim**0.5))
    if d * d != fam_dim:
        raise InputError(
            "the cstar flavor needs superoperator-valued families "
            f"(square dimension), got {fam_dim}")
    return d


def _shift_pipeline(label, system, ext, flavor):
    """Shift-dilate the group family ``ext`` and wrap it for verification."""
    dil = ShiftDilation(ext, _payload_dim(ext.dim, flavor), flavor=flavor)
    return DilatedSystem(label, system, ext, dil, system["graph"].context())


def _require_growth(fam, ell, what):
    """Raise the geometric-growth precondition unless |fam| stays under ``ell``."""
    if ell is None:
        return
    growth = check_geometric_growth(fam, ell)
    if not growth.passed:
        raise PreconditionError(
            "geometric-growth",
            f"{what} bound fails by {growth.max_defect:.3e} at {growth.argmax}")


def dilate_discrete(system, flavor="banach"):
    """Discrete pipeline: normal-form extension + shift dilation.  Needs the
    identity axiom only; the input family may be indivisible."""
    return _shift_pipeline("A", system, NormalFormExtension(system["family"]), flavor)


def dilate_divisible(system, flavor="banach"):
    """Continuous pipeline for divisible families with geometric growth:
    interval-product extension + shift dilation."""
    fam = system["family"]
    _require_growth(fam, system.get("ell"), "growth")
    return _shift_pipeline("B", system, FirstCoverExtension(fam), flavor)


def dilate_exponential(system, flavor="banach"):
    """Continuous pipeline for exponential families with additive dissipative
    generators of geometric growth: generator-sum extension + shift dilation.
    The generators are used as given: ``system["family"]`` is their
    exponential, as :func:`dynamics.build_system` builds it."""
    gens = system.get("generators")
    if not isinstance(gens, GeneratorFamily):
        raise PreconditionError("generators", "pipeline C needs a generator family")
    _require_growth(gens, system.get("ell"), "generator growth")
    return _shift_pipeline("C", system, SecondCoverExtension(gens), flavor)


def dilate_cptp(system):
    """CPTP variant of the discrete pipeline: the normal-form extension of the
    family's superoperators is dilated through one unitary representation."""
    ext = NormalFormExtension(system["family"])
    return DilatedSystem("A-cptp", system, ext, VedDilation(ext, system["dim"]),
                         system["graph"].context())


PIPELINES = {
    "A": dilate_discrete,
    "B": dilate_divisible,
    "C": dilate_exponential,
    "A-cptp": dilate_cptp,
}


# -- one-parameter factorization --------------------------------------------------

def one_param_factorization(dilsys, t0, rng=None):
    """Factor the dilated two-parameter family through a one-parameter family
    anchored at ``t0``: U(t) is the dilation at the element of edge (t, t0)
    (inverted when the edge points the other way).

    Checks, in order: the two-parameter group elements factor exactly; the
    dilated operators factor on random finitely supported vectors; and the
    compressed one-parameter family satisfies (or, for memoryful systems,
    fails) the semigroup law over node pairs whose numeric sum is on the grid.
    """
    graph = dilsys.system["graph"]
    if not isinstance(graph, LinearOrderGraph):
        raise StructureError("factorization needs a linearly ordered graph")
    if not isinstance(dilsys.dilation, ShiftDilation):
        raise StructureError("factorization needs a shift-dilated system")
    ctx = dilsys.context
    rng = rng or np.random.default_rng(0)

    def g_of(t):
        if graph.has_edge(t, t0):
            return rewrite.embed_edge(ctx, (t, t0))
        return rewrite.ginv(rewrite.embed_edge(ctx, (t0, t)))

    bad = []
    pairs = [(t, s) for i, t in enumerate(graph.nodes)
             for s in graph.nodes[i:]]
    for (t, s) in pairs:
        lhs = rewrite.embed_edge(ctx, (t, s))
        rhs = rewrite.gmul(g_of(t), rewrite.ginv(g_of(s)))
        if lhs != rhs:
            bad.append((t, s))
    group_rep = bad_keys_report("factorization-group-level", bad, len(pairs))

    dil = dilsys.dilation
    op_defects = []
    sample_pairs = pairs if len(pairs) <= 24 else \
        [pairs[i] for i in rng.choice(len(pairs), size=24, replace=False)]
    for (t, s) in sample_pairs:
        n = dil.dim if dil.flavor == "banach" else dil.dim**2
        payload = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if dil.flavor == "cstar":
            payload = payload.reshape(dil.dim, dil.dim, order="F")
        v = dil.embed(payload)
        tag = rewrite.random_element(ctx, rng, 2)
        v = dil.shift(tag, v)
        direct = dil.shift(rewrite.embed_edge(ctx, (t, s)), v)
        factored = dil.shift(g_of(t), dil.shift(rewrite.ginv(g_of(s)), v))
        op_defects.append(direct.distance(factored))
    op_rep = defect_report("factorization-operator-level", op_defects,
                           sample_pairs, 1e-12)

    sg_keys, sg_defects = [], []
    numeric = all(isinstance(u, (int, float, np.floating)) for u in graph.nodes)
    if numeric:
        for t in graph.nodes:
            for s in graph.nodes:
                total = t + s
                if not graph.has_node(total) or t == t0 or s == t0:
                    continue
                lhs = dilsys.dilation.compression_matrix(g_of(t)) \
                    @ dilsys.dilation.compression_matrix(g_of(s))
                rhs = dilsys.dilation.compression_matrix(g_of(total))
                sg_keys.append((t, s))
                sg_defects.append(spectral_norm(lhs - rhs))
    sg_rep = defect_report("one-parameter-semigroup-law", sg_defects, sg_keys, 1e-10)
    sg_rep.details["holds"] = sg_rep.passed
    return [group_rep, op_rep, sg_rep]


# -- JSON channel specs ------------------------------------------------------------

@reading("channel spec")
def channel_from_spec(spec):
    """{"dim": d, "repr": "choi"|"kraus", "data": matrix literal(s)}."""
    d = _spec_number(spec, "dim", integer=True)
    repr_kind, data = spec["repr"], spec["data"]
    if repr_kind == "choi":
        return Channel(d, linops.matrix_from_literal(data))
    if repr_kind == "kraus":
        ks = [linops.matrix_from_literal(k) for k in data]
        for i, k in enumerate(ks):
            if k.shape != (d, d):
                raise InputError(f"channel dim is {d}, but Kraus operator {i} "
                                 f"has shape {k.shape}")
        return Channel.from_kraus(ks)
    raise InputError(f"unknown channel repr {repr_kind!r}")

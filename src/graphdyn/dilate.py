"""Dilations: channels and their Kraus forms, reflection dilations of single
channels, unitary group-representation dilations of channel families, and
shift dilations of contraction families on groups, composed into the three
end-to-end pipelines (discrete / divisible-continuous / generator-continuous)
plus the CPTP variant of the discrete one.

Group-indexed carrier spaces are never materialized: vectors over the group
are finitely supported tag/payload lists, so the representation laws hold
exactly at the tag level.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linops, rewrite
from .dynamics import (GeneratorFamily, LinearOrderGraph, _blockwise,
                       _node_triples, _ordered_triples, _spec_number,
                       check_geometric_growth)
from .errors import InputError, PreconditionError, reading
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
        self.choi = _choi_matrix(self.dim, choi)
        validate_chois([self.choi])

    @property
    def kraus(self):
        """The Kraus list of :func:`kraus_stacks`, as a (k, d, d) stack of the
        k <= d^2 operators it keeps."""
        ks, counts = kraus_stacks(self.choi[None], self.dim)
        return ks[0, :counts[0]]

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
    def random(cls, rng, d):
        from .sampling import random_kraus_ops
        return cls.from_kraus(random_kraus_ops(rng, d))


def _choi_matrix(dim, choi):
    """``choi`` as a finite complex matrix of the shape (dim^2, dim^2)."""
    choi = linops.as_matrix(choi)
    if choi.shape != (dim**2, dim**2):
        raise InputError(f"Choi matrix has shape {choi.shape}")
    return choi


def cptp_defects(choi, d):
    """The CPTP defects of a Choi matrix, or of each matrix of a stack, along
    a last axis of three: the Hermiticity defect ``|C - C*|``, the negative of
    the least eigenvalue of ``(C + C*)/2`` and the trace-preservation defect
    ``|Tr_out C - 1|``.  The map is CPTP to ``tol`` if all are at most ``tol``.
    A defect that overflows, or that reads NaN, is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.stack([
            _finite_or_inf(spectral_norm, choi - dagger(choi)),
            _finite_or_inf(lambda h: -np.linalg.eigvalsh(h).min(axis=-1),
                           linops.hermitian_part(choi)),
            _finite_or_inf(spectral_norm, linops.partial_trace_first(choi, d, d) - eye(d))],
            axis=-1)
    return np.where(np.isfinite(defects), defects, np.inf)


def _finite_or_inf(measure, mats):
    """``measure`` of each matrix of ``mats``; if a non-finite matrix makes it
    raise, as ``spectral_norm`` does, that matrix reads inf."""
    try:
        return measure(mats)
    except (InputError, np.linalg.LinAlgError):
        ok = np.isfinite(mats).all(axis=(-2, -1))
        return np.where(ok, measure(np.where(ok[..., None, None], mats, 0)), np.inf)


def validate_chois(chois):
    """Raise InputError for the first Choi matrix of the list, in order,
    whose :func:`cptp_defects` exceed ``linops.DEFAULT_TOL``: not PSD (either
    of the first two), then not trace preserving.  The matrices of one size
    are checked as one stack."""
    tol = linops.DEFAULT_TOL
    groups, rows = {}, [None] * len(chois)
    for i, choi in enumerate(chois):
        groups.setdefault(len(choi), []).append(i)
    for n, idx in groups.items():
        defects = cptp_defects(np.array([chois[i] for i in idx]), math.isqrt(n))
        for i, row in zip(idx, defects.tolist()):
            rows[i] = row
    for herm, negative, tp in rows:
        if max(herm, negative) > tol:
            raise InputError("Choi matrix is not positive semidefinite")
        if tp > tol:
            raise InputError(f"trace-preservation defect {tp:.3e}")


def check_cptp_family(system, tol):
    """Per edge of a cptp system, the largest of its channel's
    :func:`cptp_defects`."""
    d, edges = system["dim"], list(system["graph"].edges())
    chois = linops.superop_to_choi(system["family"].stack(edges), d)
    return defect_report("cptp-family", cptp_defects(chois, d).max(axis=-1), edges, tol)


def kraus_stacks(chois, d):
    """The Kraus lists of a (E, d^2, d^2) stack of Choi matrices, read off
    one stacked eigendecomposition, as a (E, d^2, d, d) stack and the number
    of operators of each list.

    A list holds, in ascending order of eigenvalue, the eigenvectors of the
    eigenvalues above 1e-12 relative to the largest one (and to 1), scaled by
    their square roots and reshaped to d x d; its remaining slots are zero."""
    w, v = np.linalg.eigh(linops.hermitian_part(chois))
    keep = w > 1e-12 * np.maximum(w.max(axis=-1), 1.0)[:, None]
    counts = keep.sum(axis=-1)
    ks = np.zeros(w.shape + (d, d), dtype=complex)
    ks[np.arange(d * d) < counts[:, None]] = (
        np.sqrt(w[keep])[:, None] * v.swapaxes(-1, -2)[keep]).reshape(-1, d, d)
    return ks, counts


def _env_column(u, env):
    """``V = u (1 (x) e_0)``, the first environment column of a unitary ``u``
    on system (x) environment, as a (d, env, d) array: d columns in all.  Of
    an (E, n, n) stack of unitaries, an (E, d, env, d) array."""
    d = u.shape[-1] // env
    return u.reshape(u.shape[:-2] + (d, env, d, env))[..., 0]


def _reduced_action(v, s):
    """``Tr_env(V s V*)``: the reduced action on ``s (x) |e_0><e_0|`` of the
    unitary with first environment column V, for each V of a contiguous
    (E, d, env, d) stack ``v`` of :func:`_env_column` arrays, at a d x d matrix
    or at each matrix of an (M, d, d) stack ``s``: an (E, d, d) or
    (E, M, d, d) stack.

    This costs O(n d^2) per unitary and matrix for ``n = d env``; the n x n
    product state is never formed.
    """
    d = v.shape[1]
    s = np.asarray(s, dtype=complex)
    lead = (len(v),) + (1,) * (s.ndim - 2)
    vs = v.reshape(lead + v.shape[1:]) @ s[..., None, :, :]
    vs = vs.reshape(vs.shape[:-3] + (d, -1))
    return vs @ dagger(v.reshape(lead + (d, -1)))


def reflection_unitaries(ks):
    """The reflection unitaries of an (E, k, d, d) stack of Kraus lists, as
    an (E, n, n) stack for ``n = d (d + d k)``.

    The coupling isometry ``D = sum_i K_i (x) 1 (x) slot_i`` maps H (x) H into
    H (x) (H (x) C^k); over the two environment summands H and H (x) C^k the
    block operator [[0, D*], [D, 1 - D D*]] is then a self-adjoint unitary."""
    e, k, d = ks.shape[:3]
    env = d + d * k
    # dmat[., a, b, i, c, b'] = K_i[a, c] if b = b', else 0
    dmat = np.zeros((e, d, d, k, d, d), dtype=complex)
    for b in range(d):
        dmat[:, :, b, :, :, b] = ks.transpose(0, 2, 1, 3)
    dmat = dmat.reshape(e, d * d * k, d * d)
    u = np.zeros((e, d, env, d, env), dtype=complex)
    u[:, :, :d, :, d:] = dagger(dmat).reshape(e, d, d, d, d * k)
    u[:, :, d:, :, :d] = dmat.reshape(e, d, d * k, d, d)
    dd = dmat @ dagger(dmat)
    u[:, :, d:, :, d:] = np.subtract(eye(d * d * k), dd, out=dd).reshape(e, d, d * k, d, d * k)
    return u.reshape(e, d * env, d * env)


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
        v = _env_column(self.unitary, self.env_dim)
        return _reduced_action(np.ascontiguousarray(v[None]), s)[0]

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


def kraus_ii_dilation(ch):
    """Reflection dilation of a channel with environment H + H (x) C^k: the
    :func:`reflection_unitaries` of its Kraus list, whose environment state
    is e_0."""
    ks = ch.kraus
    return KrausDilation(ch.dim, ch.dim * (1 + len(ks)), reflection_unitaries(ks[None])[0])


def check_kraus_dilations(kraus_lists, tol):
    """The reflection dilations of the channels with the S Kraus lists
    ``kraus_lists``, each of k d x d operators, checked as one stack: the
    report ``"kraus-dilations"`` of count S when all pass, else the
    :meth:`KrausDilation.verify` report of the first failing channel in
    order, rebuilt alone through :meth:`Channel.from_kraus` and
    :func:`kraus_ii_dilation`.

    The Choi stack is bit for bit the one ``Channel.from_kraus`` builds.  It
    is validated with one :func:`validate_chois`, read with one
    :func:`kraus_stacks` and dilated with one :func:`reflection_unitaries`
    per Kraus count, so each channel keeps the environment of
    ``kraus_ii_dilation``.  A channel fails when one of its four defects is
    not at most ``tol``: the unitarity, self-adjointness and involution
    defects, screened by one :func:`linops.screened_norms` with ``offenders``
    per Kraus count, and the reconstruction defect at the matrix units, one
    stacked trace norm.  A stack that does not build or validate is checked
    again one channel at a time, in order: a channel whose dilation fails
    before the first non-channel is reported, and otherwise that non-channel
    raises its own error."""
    kraus_lists = np.asarray(kraus_lists, dtype=complex)
    count, d = len(kraus_lists), kraus_lists.shape[-1]
    passed = CheckReport("kraus-dilations", True, 0.0, tol, count=count)
    if not count:
        return passed
    try:
        superops = linops.kraus_superop(kraus_lists)
        chois = linops.superop_to_choi(superops, d)
        validate_chois(chois)
    except InputError:
        if count > 1:
            for i in range(count):
                rep = check_kraus_dilations(kraus_lists[i:i + 1], tol)
                if not rep.passed:
                    return rep
        raise
    ks, counts = kraus_stacks(chois, d)
    defects = np.empty((count, 4))
    reduced = np.empty((count, d * d, d, d), dtype=complex)
    units = linops.matrix_units(d)
    for k in np.unique(counts):
        idx = np.flatnonzero(counts == k)
        us = reflection_unitaries(ks[idx, :k])
        one = eye(us.shape[-1])
        defects[idx, :3] = linops.screened_norms(
            np.concatenate([us @ dagger(us) - one, us - dagger(us), us @ us - one]),
            tol, offenders=True).reshape(3, -1).T
        reduced[idx] = _reduced_action(
            np.ascontiguousarray(_env_column(us, d * (1 + k))), units)
    defects[:, 3] = trace_norm(reduced - linops.superop_apply(
        superops[:, None], units)).max(axis=1)
    bad = np.flatnonzero(~(defects <= tol).all(axis=1))
    if not bad.size:
        return passed
    ch = Channel.from_kraus(kraus_lists[bad[0]])
    return kraus_ii_dilation(ch).verify(ch, tol)


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
        if x not in self._unitaries:
            self._dilate([x], self.ext(x)[None])
        return self._unitaries[x]

    def _dilate(self, xs, values):
        """Cache the unitaries at the elements ``xs`` from the extension's
        superoperators ``values`` there.  The distinct uncached elements are
        validated, decomposed and dilated as one stack: the first one in order
        that is not a channel raises.  A stack that raises is dilated again
        one element at a time, in order, so the first element that fails
        raises its own error."""
        todo = {}
        for x, value in zip(xs, values):
            if x not in self._unitaries:
                todo.setdefault(x, value)
        if not todo:
            return
        try:
            chois = linops.superop_to_choi(np.stack(list(todo.values())), self.dim)
            validate_chois(chois)
            us = reflection_unitaries(kraus_stacks(chois, self.dim)[0])
        except Exception:
            if len(todo) > 1:
                for x, value in todo.items():
                    self._dilate([x], value[None])
            raise
        self._unitaries.update(zip(todo, us))

    def apply(self, x, v):
        """The representation on finitely supported vectors."""
        def term(tag, payload):
            new_tag = rewrite.gmul(x, tag)
            return new_tag, self.unitary_of(new_tag) @ dagger(self.unitary_of(tag)) @ payload
        return v.map(term)

    def verify_element(self, x, s):
        """Trace-norm defect between the dilated action at ``x`` and the
        extension's channel, at a d x d matrix or per matrix of a stack ``s``."""
        return trace_norm(self._element_defects([x], s, self.ext(x)[None])[0])

    def _element_defects(self, xs, s, values):
        """The dilated action at each element of ``xs`` minus the extension's
        channel there, whose superoperators are ``values``, at ``s``: one
        (d, d) or (M, d, d) block per element.  The product state sits at the
        group-identity tag, and U(x) moves it to tag x with payload
        u(x) (s (x) |e_0><e_0|) u(x)*, so the reduced action of u(x) is the
        dilated channel at x."""
        self._dilate(xs, values)
        reduced = _reduced_action(np.stack([_env_column(self._unitaries[x], self.env_dim)
                                            for x in xs]), s)
        s = np.asarray(s, dtype=complex)
        return reduced - linops.superop_apply(
            values.reshape((len(values),) + (1,) * (s.ndim - 2) + values.shape[1:]), s)


# -- shift dilation of contraction families on groups ---------------------------

def _contractions(vals):
    """True when one stacked Cholesky factorization of ``c^2 - A* A`` proves
    that every matrix A of the (N, n, n) stack ``vals`` has an SVD norm of at
    most ``1 + 1e-10``; False when it cannot, and the SVD decides.

    Rounding (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, ch. 3 and 10), with ``gamma = (2n + 4) u / (1 - (2n + 4) u)``, twice
    the ``n`` of the complex bounds: the computed Gram product is within
    ``gamma |A|* |A|`` entrywise, so within ``n gamma |A|^2`` in norm; the
    subtraction rounds the diagonal by ``u``; a factorization that runs to
    the end is exact for a matrix within ``gamma tr(M) / (1 - n gamma)`` of
    the computed ``M`` (Thm 10.3).  So when it runs, ``|A|^2 <= c^2 (1 +
    4 (n + 1)^2 u)``, and ``c = (1 + 1e-10)(1 - 8 (n + 1)^2 u)`` leaves
    ``6 (n + 1)^2 u`` for the SVD's relative error, over LAPACK's.  A
    factorization that fails, or a NaN or inf in the factor, which a
    non-finite value gives, certifies nothing."""
    n = vals.shape[-1]
    c = (1 + 1e-10) * (1 - 8 * (n + 1) ** 2 * np.finfo(float).eps / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            factor = np.linalg.cholesky(c * c * eye(n) - dagger(vals) @ vals)
        except np.linalg.LinAlgError:
            return False
    return bool(np.isfinite(factor).all())


class ShiftDilation:
    """Right-shift dilation of a contraction family indexed by a group.

    Vectors of the dilation space are finitely supported (tag, payload)
    lists.  The maps are: r embeds a payload at the identity tag, U(x)
    left-shifts tags, j sums the payloads acted on by the values at their
    tags.  Then U is a representation, exactly at the tag level, and
    j U(x) r is the value at x, which :meth:`compression_matrix` returns.

    ``phi_bar`` extends a family of contractions: its ``dim`` is the payload
    length, and ``stack(elements)`` gives its values at a batch of elements.
    """

    def __init__(self, phi_bar):
        self.dim = phi_bar.dim
        self._phi = phi_bar
        self._values = {}

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
            return np.empty((0, self.dim, self.dim), dtype=complex)
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
        if vals.shape != (len(gs), self.dim, self.dim):
            raise ValueError(f"value stack has shape {vals.shape}")
        return vals

    @staticmethod
    def _check(gs, vals):
        """Raise for the first value of the stack that is not a contraction.
        A stack that :func:`_contractions` certifies needs no SVD."""
        if _contractions(vals):
            return
        norms = spectral_norm(vals)
        bad = np.flatnonzero(norms > 1.0 + 1e-10)
        if bad.size:
            i = bad[0]
            raise PreconditionError(
                "contraction", f"family value at {gs[i]!r} has norm {norms[i]:.6f}")

    @staticmethod
    def embed(payload):
        return FormalVector.of([(rewrite.identity(), payload)])

    @staticmethod
    def shift(x, v):
        return v.map(lambda tag, payload: (rewrite.gmul(x, tag), payload))

    def compression_matrix(self, x):
        """The matrix of the compression j U(x) r: shifting moves the embedded
        payload to tag x, and j applies the value there, p -> value(x) p."""
        return self.value(x)


# -- pipelines -------------------------------------------------------------------

@dataclass
class DilatedSystem:
    label: str
    system: dict
    extension: object
    dilation: object
    context: object
    # edge -> its group element, built once: the axiom checks and the
    # compression identity share the elements the dilation keys its values by
    _elements: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def edge_element(self, e):
        g = self._elements.get(e)
        if g is None:
            g = self._elements[e] = rewrite.embed_edge(self.context, e)
        return g

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
                self.dilation._element_defects(gs, units, vals)], axis=1)
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


def _shift_pipeline(label, system, ext):
    """Shift-dilate the group family ``ext`` and wrap it for verification."""
    return DilatedSystem(label, system, ext, ShiftDilation(ext), system["graph"].context())


def _require_growth(fam, ell, what):
    """Raise the geometric-growth precondition unless |fam| stays under ``ell``."""
    if ell is None:
        return
    growth = check_geometric_growth(fam, ell)
    if not growth.passed:
        raise PreconditionError(
            "geometric-growth",
            f"{what} bound fails by {growth.max_defect:.3e} at {growth.argmax}")


def dilate_discrete(system):
    """Discrete pipeline: normal-form extension + shift dilation.  Needs the
    identity axiom only; the input family may be indivisible."""
    return _shift_pipeline("A", system, NormalFormExtension(system["family"]))


def dilate_divisible(system):
    """Continuous pipeline for divisible families with geometric growth:
    interval-product extension + shift dilation."""
    fam = system["family"]
    _require_growth(fam, system.get("ell"), "growth")
    return _shift_pipeline("B", system, FirstCoverExtension(fam))


def dilate_exponential(system):
    """Continuous pipeline for exponential families with additive dissipative
    generators of geometric growth: generator-sum extension + shift dilation.
    The generators are used as given: ``system["family"]`` is their
    exponential, as :func:`dynamics.build_system` builds it."""
    gens = system.get("generators")
    if not isinstance(gens, GeneratorFamily):
        raise InputError("pipeline C needs a generator family")
    _require_growth(gens, system.get("ell"), "generator growth")
    return _shift_pipeline("C", system, SecondCoverExtension(gens))


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
        raise ValueError("factorization needs a linearly ordered graph")
    if not isinstance(dilsys.dilation, ShiftDilation):
        raise ValueError("factorization needs a shift-dilated system")
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
    n = dil.dim
    for (t, s) in sample_pairs:
        # shift only moves the payload, so it need not have the value's shape
        v = dil.embed(rng.standard_normal(n) + 1j * rng.standard_normal(n))
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
def choi_from_spec(spec):
    """{"dim": d, "repr": "choi"|"kraus", "data": matrix literal(s)}, read
    as a finite (d^2, d^2) Choi matrix, not yet validated."""
    d = _spec_number(spec, "dim", integer=True)
    repr_kind, data = spec["repr"], spec["data"]
    if repr_kind == "choi":
        return _choi_matrix(d, linops.matrix_from_literal(data))
    if repr_kind == "kraus":
        ks = [linops.matrix_from_literal(k) for k in data]
        for i, k in enumerate(ks):
            if k.shape != (d, d):
                raise InputError(f"channel dim is {d}, but Kraus operator {i} "
                                 f"has shape {k.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # named by _choi_matrix
            choi = linops.superop_to_choi(linops.kraus_superop(ks), d)
        return _choi_matrix(d, choi)
    raise InputError(f"unknown channel repr {repr_kind!r}")

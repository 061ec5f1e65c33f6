from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import dilate, dynamics, linops, rewrite
from graphdyn.dilate import (Channel, FormalVector, ShiftDilation,
                             dilate_cptp, dilate_discrete,
                             dilate_divisible, dilate_exponential,
                             isometric_partition, kraus_ii_dilation,
                             one_param_factorization)
from graphdyn.dynamics import (CompleteGraph, LinearOrderGraph,
                               OperatorFamily, descending_grid,
                               example_indivisible, proportional_length)
from graphdyn.errors import (GraphError, InputError, NotCPTPError,
                             PreconditionError)
from graphdyn.linops import (SIGMA_X, SIGMA_Z, commutator_superop,
                             conjugation_superop, dagger, spectral_norm,
                             trace_norm)
from graphdyn.rewrite import embed_edge, ginv, gmul, identity
from graphdyn.sampling import (random_dissipative, random_kraus_ops,
                               random_matrix, rng_from_seed)
from oracles import (channel_to_spec, compress, cptp_system, edgewise, evaluate,
                     identity_channel, kraus_apply, kraus_spec, random_unitary)


def matrix_units(d):
    for i in range(d):
        for j in range(d):
            u = np.zeros((d, d), dtype=complex)
            u[i, j] = 1.0
            yield u


class TestChannel:
    def test_identity_channel(self):
        ch = identity_channel(3)
        s = random_matrix(rng_from_seed(0), 3)
        assert np.allclose(ch.apply(s), s)

    def test_choi_convention_round_trip(self):
        # the superoperator action on E_ij is the (i, j) block of the Choi
        # matrix: choi[(a, i), (b, j)] = Phi(E_ij)[a, b]
        rng = rng_from_seed(1)
        ch = Channel.random(rng, 2)
        blocks = ch.choi.reshape(2, 2, 2, 2)
        for n, s in enumerate(matrix_units(2)):
            i, j = divmod(n, 2)
            assert spectral_norm(ch.apply(s) - blocks[:, i, :, j]) < 1e-12

    def test_unitary_conjugation(self):
        rng = rng_from_seed(2)
        u = random_unitary(rng, 3)
        ch = Channel.from_kraus([u])
        s = random_matrix(rng, 3)
        assert np.allclose(ch.apply(s), u @ s @ dagger(u))

    def test_trace_preserving_validated(self):
        bad_kraus = [0.5 * np.eye(2)]
        with pytest.raises(NotCPTPError, match="trace-preservation defect 7.500e-01"):
            Channel.from_kraus(bad_kraus)

    def test_non_psd_choi_rejected(self):
        choi = np.eye(4, dtype=complex)
        choi[0, 0] = -1.0
        with pytest.raises(NotCPTPError, match="not positive semidefinite"):
            Channel(2, choi)


seeded_dims = st.tuples(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))


def transpose_superop(d):
    """Column-stacking matrix of X -> X^T: positive and trace preserving, but
    not completely positive."""
    return np.stack([e.reshape(d, d, order="F").T.reshape(-1, order="F")
                     for e in np.eye(d * d)], axis=1)


class TestChannelForms:
    @settings(max_examples=30, deadline=None)
    @given(seeded_dims, st.integers(1, 16))
    def test_kraus_choi_superop_round_trips(self, dim_seed, rank):
        d, seed = dim_seed
        rng = rng_from_seed(seed)
        ks = random_kraus_ops(rng, d, min(rank, d * d))
        ch = Channel.from_kraus(ks)
        assert np.array_equal(linops.superop_to_choi(ch.superop(), d), ch.choi)
        again = Channel.from_kraus(ch.kraus)
        assert np.abs(again.choi - ch.choi).max() <= 1e-12
        samples = [*linops.matrix_units(d), random_matrix(rng, d)]
        for s in samples:
            assert spectral_norm(ch.apply(s) - kraus_apply(ks, s)) <= 1e-12
        # a (n, d, d) stack goes through both forms as one call
        want = np.stack([kraus_apply(ks, s) for s in samples])
        assert np.abs(kraus_apply(ks, np.stack(samples)) - want).max() <= 1e-14
        assert np.abs(ch.apply(np.stack(samples)) - want).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seeded_dims)
    def test_compose_matches_sequential_apply(self, dim_seed):
        # the two letters of (1, 2)(0, 1) do not fuse, so the channel that
        # pipeline A-cptp assigns to it is the product of the two edges'
        d, seed = dim_seed
        rng = rng_from_seed(seed)
        graph = LinearOrderGraph([0, 1, 2])
        a, b = Channel.random(rng, d), Channel.random(rng, d)
        ds = dilate_cptp(cptp_system(graph, {(0, 1): b, (1, 2): a,
                                             (0, 2): identity_channel(d)}))
        ctx = graph.context()
        ab = gmul(embed_edge(ctx, (1, 2)), embed_edge(ctx, (0, 1)))
        assert len(ab.letters) == 2
        for s in [*linops.matrix_units(d), random_matrix(rng, d)]:
            assert spectral_norm(linops.superop_apply(ds.extension(ab), s)
                                 - a.apply(b.apply(s))) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_transpose_map_rejected(self, d):
        with pytest.raises(NotCPTPError):
            Channel(d, linops.superop_to_choi(transpose_superop(d), d))

    def test_compose_revalidates(self):
        # a superoperator family that no parsed spec gives: the transpose map
        # on edge (0, 1); the channel built for the dilation at that edge
        # fails its validation
        graph = LinearOrderGraph([0, 1])
        fam = edgewise(OperatorFamily, graph, 4,
                       lambda e: transpose_superop(2) if e[0] != e[1] else np.eye(4))
        ds = dilate_cptp({"graph": graph, "family": fam, "dim": 2, "kind": "cptp"})
        with pytest.raises(NotCPTPError, match="not positive semidefinite"):
            ds.verify(rng=rng_from_seed(0))


def identity_choi(d):
    return identity_channel(d).choi.copy()


class TestEveryChannelCheckFails:
    """Each check of ``Channel.validate`` has an input that only it rejects
    (with ``TestChannel``'s non-PSD and trace-preservation cases), so a check
    that is dropped or skipped fails its case here."""

    def test_non_hermitian_choi(self):
        choi = identity_choi(2)
        choi[0, 1], choi[1, 0] = 0.25, -0.25  # its Hermitian part stays PSD
        with pytest.raises(NotCPTPError, match="not positive semidefinite"):
            Channel(2, choi)

    @pytest.mark.parametrize("make", [identity_channel,
                                      lambda d: Channel.random(rng_from_seed(9), d)],
                             ids=["identity", "random"])
    def test_kraus_from_choi_after_in_place_corruption(self, make):
        # both channels passed every check when they were built
        not_cp, not_tp = make(2), make(2)
        not_cp.choi[:] = linops.superop_to_choi(transpose_superop(2), 2)
        not_tp.choi *= 1.5
        with pytest.raises(NotCPTPError, match="not positive semidefinite"):
            Channel(not_cp.dim, not_cp.choi)
        with pytest.raises(NotCPTPError, match="trace-preservation defect"):
            Channel(not_tp.dim, not_tp.choi)


class TestCptpDefects:
    def test_each_defect_reads_its_own_failure(self):
        good = identity_choi(2)
        non_hermitian = good.copy()
        non_hermitian[0, 1], non_hermitian[1, 0] = 0.25, -0.25
        swap = linops.superop_to_choi(transpose_superop(2), 2)  # eigenvalue -1
        stack = np.stack([good, non_hermitian, swap, 1.5 * good])
        got = dilate.cptp_defects(stack, 2)
        assert got.shape == (4, 3)
        assert np.array_equal(got, [dilate.cptp_defects(c, 2) for c in stack])
        assert np.abs(got[0]).max() <= 1e-15
        assert got[1, 0] == pytest.approx(0.5)
        assert got[2, 1] == pytest.approx(1.0) and got[2, 2] == 0.0
        assert got[3, 2] == pytest.approx(0.5) and got[3, 0] == 0.0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seeded_dims, st.integers(1, 16),
           st.one_of(st.just(1.0), st.floats(0.25, 2.0)))
    def test_a_kraus_lists_choi_matrix_reads_its_normalization(self, dim_seed, rank,
                                                                scale):
        # the Choi matrix that from_kraus builds from a Kraus list has
        # Tr_out C = (sum K*K)^T, so its trace-preservation defect is the
        # list's normalization defect, and it is Hermitian PSD to rounding:
        # no check of the list itself can fail where cptp_defects passes
        d, seed = dim_seed
        ks = scale * np.stack(random_kraus_ops(rng_from_seed(seed), d, min(rank, d * d)))
        choi = linops.superop_to_choi(linops.kraus_superop(ks), d)
        herm, negative, tp = dilate.cptp_defects(choi, d)
        normalization = spectral_norm((dagger(ks) @ ks).sum(axis=0) - np.eye(d))
        assert abs(tp - normalization) <= 1e-14 * max(scale**2, 1.0)
        assert herm <= 1e-14 * scale**2 and negative <= 1e-14 * scale**2


class TestKrausFromChoi:
    """``Channel.kraus``: the Kraus list read off the Choi matrix."""

    def test_identity_rank_one(self):
        ch = Channel(2, identity_choi(2))
        assert len(ch.kraus) == 1
        k = ch.kraus[0]
        # single Kraus operator proportional to the identity by a phase
        assert abs(abs(k[0, 0]) - 1.0) < 1e-12
        assert spectral_norm(k - k[0, 0] * np.eye(2)) < 1e-12

    def test_unitary_conjugation_single_kraus(self):
        rng = rng_from_seed(4)
        u = random_unitary(rng, 3)
        ch = Channel.from_kraus([u])
        assert len(ch.kraus) == 1
        k = ch.kraus[0]
        phase = k[0, 0] / u[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert spectral_norm(k - phase * u) < 1e-10

    def test_depolarizing_spectrum(self):
        ch = Channel.depolarizing(2)
        w = np.linalg.eigvalsh(ch.choi)
        # trace of the Choi matrix is the dimension; rank 4, flat spectrum
        assert np.allclose(w, 0.5)
        assert len(ch.kraus) == 4

    def test_reconstruction_random(self):
        rng = rng_from_seed(5)
        for d in (2, 3, 4):
            ch = Channel.random(rng, d)
            ks = ch.kraus
            assert len(ks) <= d * d
            norm_defect = spectral_norm(
                sum(dagger(k) @ k for k in ks) - np.eye(d))
            assert norm_defect < 1e-10
            for s in matrix_units(d):
                assert spectral_norm(kraus_apply(ks, s) - ch.apply(s)) < 1e-10


class TestIsometricPartition:
    def test_identity_channel(self):
        ch = Channel(2, identity_choi(2))
        v, parts = isometric_partition(ch)
        assert len(parts) == 1
        # the canonical embedding up to the Kraus phase
        assert spectral_norm(dagger(v) @ parts[0] - dagger(ch.kraus[0])) < 1e-12

    def test_depolarizing(self):
        v, parts = isometric_partition(Channel.depolarizing(2))
        assert len(parts) == 4  # identities verified inside

    def test_random_cptp(self):
        rng = rng_from_seed(6)
        ch = Channel.random(rng, 3)
        v, parts = isometric_partition(ch)
        d, k = 3, len(parts)
        assert v.shape == (d * k, d)
        assert spectral_norm(dagger(v) @ v - np.eye(d)) < 1e-12
        total = sum(vi @ dagger(vi) for vi in parts)
        assert spectral_norm(total - np.eye(d * k)) < 1e-12


def kron_reflection_unitary(ch, pad_to=None):
    """Oracle for ``kraus_ii_dilation(ch, pad_to).unitary``: the coupling
    ``D = sum_i K_i (x) 1 (x) slot_i`` as a sum of Kronecker products, and
    the blocks [[0, D*], [D, 1 - D D*]] placed by the embeddings of the two
    environment summands, in three dense products."""
    d = ch.dim
    ks = list(ch.kraus)
    if pad_to is not None:
        ks = ks + [np.zeros((d, d), dtype=complex)] * (pad_to - len(ks))
    k = len(ks)
    env = d + d * k
    eye = linops.eye
    dmat = sum(linops.tensor(ki, linops.tensor(eye(d), eye(k)[:, [i]]))
               for i, ki in enumerate(ks))
    iota1 = np.zeros((env, d), dtype=complex)
    iota1[:d, :] = eye(d)
    iota2 = np.zeros((env, d * k), dtype=complex)
    iota2[d:, :] = eye(d * k)
    emb1 = linops.tensor(eye(d), iota1)
    emb2 = linops.tensor(eye(d), iota2)
    return (emb1 @ dagger(dmat) @ dagger(emb2)
            + emb2 @ dmat @ dagger(emb1)
            + emb2 @ (eye(d * d * k) - dmat @ dagger(dmat)) @ dagger(emb2))


class TestKrausII:
    def test_identity_channel(self):
        ch = Channel(2, identity_choi(2))
        kd = kraus_ii_dilation(ch)
        rep = kd.verify(ch, tol=1e-12)
        assert rep.passed

    def test_random_channels(self):
        rng = rng_from_seed(7)
        for d in (2, 3, 4):
            ch = Channel.random(rng, d)
            kd = kraus_ii_dilation(ch)
            assert kd.env_dim == d * (len(ch.kraus) + 1)
            rep = kd.verify(ch, tol=1e-10)
            assert rep.passed, rep.details
            units = linops.matrix_units(d)
            stacked = kd.reconstructed(units)
            assert stacked.shape == (d * d, d, d)
            for s, got in zip(units, stacked):
                assert np.abs(got - kd.reconstructed(s)).max() <= 1e-14

    def test_reflection_identities(self):
        rng = rng_from_seed(8)
        ch = Channel.random(rng, 2)
        u = kraus_ii_dilation(ch).unitary
        n = u.shape[0]
        assert spectral_norm(u @ u - np.eye(n)) < 1e-12
        assert spectral_norm(u - dagger(u)) < 1e-12

    def test_zero_padding_keeps_reconstruction(self):
        rng = rng_from_seed(10)
        ch = Channel.random(rng, 2)
        kd = kraus_ii_dilation(ch, pad_to=7)
        assert kd.env_dim == 2 * (7 + 1)
        assert kd.verify(ch).passed

    @pytest.mark.parametrize("d, rank", [(d, rank) for d in (2, 3, 4)
                                         for rank in range(1, d * d + 1)])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_unitary_equals_kron_oracle(self, d, rank, data, seed):
        pad_to = data.draw(st.one_of(st.none(), st.integers(rank, d * d + 2)),
                           label="pad_to")
        ch = Channel.from_kraus(random_kraus_ops(rng_from_seed(seed), d, rank))
        kd = kraus_ii_dilation(ch, pad_to=pad_to)
        assert np.array_equal(kd.unitary, kron_reflection_unitary(ch, pad_to))
        assert kd.env_dim == d * (1 + (rank if pad_to is None else pad_to))

    @pytest.mark.parametrize("d", [2, 3])
    def test_reduced_action_equals_product_with_e0(self, d):
        rng = rng_from_seed(40 + d)
        ch = Channel.random(rng, d)
        kd = kraus_ii_dilation(ch, pad_to=d * d)
        u, env = kd.unitary, kd.env_dim
        e0 = np.zeros(env, dtype=complex)
        e0[0] = 1.0
        v = (u.reshape(-1, d, env) @ e0).reshape(d, env, d)
        s = np.concatenate([linops.matrix_units(d), [random_matrix(rng, d)]])
        old = (v @ s[:, None]).reshape(len(s), d, -1) @ dagger(v.reshape(d, -1))
        assert np.array_equal(kd.reconstructed(s), old)

    def test_too_many_kraus_operators_for_the_padding(self):
        rng = rng_from_seed(43)
        ch = Channel.from_kraus(random_kraus_ops(rng, 2, 3))
        with pytest.raises(InputError, match="3 Kraus operators"):
            kraus_ii_dilation(ch, pad_to=2)

    def test_perturbed_unitary_fails_and_names_its_witness(self):
        rng = rng_from_seed(44)
        ch = Channel.random(rng, 2)
        kd = kraus_ii_dilation(ch)
        rep = kd.verify(ch)
        assert rep.passed and rep.count == 4
        assert set(rep.details) == {"unitary", "self_adjoint",
                                    "squares_to_identity", "reconstruction"}
        u = kd.unitary.copy()
        u[0, 1] += 1e-6
        bad = dilate.KrausDilation(kd.dim, kd.env_dim, u).verify(ch)
        assert not bad.passed
        assert bad.argmax == max(bad.details, key=bad.details.get)
        assert bad.max_defect == bad.details[bad.argmax] > bad.tolerance
        # a reflection of another channel fails on reconstruction alone
        other = kraus_ii_dilation(Channel.random(rng, 2)).verify(ch)
        assert not other.passed and other.argmax == "reconstruction"


def three_node_channel_family(rng):
    graph = LinearOrderGraph([0, 1, 2])
    chans = {(0, 1): Channel.random(rng, 2), (1, 2): Channel.random(rng, 2),
             (0, 2): Channel.random(rng, 2)}
    return graph, chans


def formal_verify_element(dil, x, s):
    """Oracle for ``VedDilation.verify_element``: builds U(x) m U(x)* column
    by column from FormalVector round trips through the group identity."""
    p = dil.dim * dil.env_dim
    m = linops.tensor(s, np.diag(np.eye(dil.env_dim)[0]))
    cols = np.empty((p, p), dtype=complex)
    for j, e_j in enumerate(np.eye(p, dtype=complex)):
        (tag, back), = dil.apply(ginv(x), FormalVector.of([(x, e_j)])).terms
        assert tag == identity()
        (tag, cols[:, j]), = dil.apply(x, FormalVector.of([(identity(), m @ back)])).terms
        assert tag == x
    # trace out the environment, the second tensor factor
    reduced = np.einsum("aibi->ab", cols.reshape((dil.dim, dil.env_dim) * 2))
    return trace_norm(reduced - linops.superop_apply(dil.ext(x), s))


def elements_up_to(ctx, length):
    pairs = [(u, v) for (u, v) in ctx.closure_pairs() if u != v]
    elements, frontier = {identity()}, [identity()]
    for _ in range(length):
        frontier = [g for g in {gmul(h, embed_edge(ctx, e))
                                for h in frontier for e in pairs}
                    if g not in elements]
        elements.update(frontier)
    return sorted(elements, key=lambda g: (len(g.letters), repr(g.letters)))


class TestVedDilation:
    def test_identity_element_acts_trivially(self):
        rng = rng_from_seed(11)
        graph, chans = three_node_channel_family(rng)
        ds = dilate_cptp(cptp_system(graph, chans))
        v = FormalVector.of([(identity(), np.arange(ds.dilation.dim
                                                    * ds.dilation.env_dim))])
        out = ds.dilation.apply(identity(), v)
        assert out.distance(v) == 0.0

    def test_single_edge_reconstruction(self):
        rng = rng_from_seed(12)
        graph, chans = three_node_channel_family(rng)
        ds = dilate_cptp(cptp_system(graph, chans))
        ctx = graph.context()
        for s in matrix_units(2):
            assert ds.dilation.verify_element(embed_edge(ctx, (0, 1)), s) < 1e-10

    def test_verify_at_identity_element(self):
        rng = rng_from_seed(29)
        graph, chans = three_node_channel_family(rng)
        ds = dilate_cptp(cptp_system(graph, chans))
        s = random_matrix(rng, 2)
        assert ds.dilation.verify_element(identity(), s) < 1e-14

    def test_common_environment_shapes(self):
        rng = rng_from_seed(13)
        # one unitary channel (1 Kraus op), one full-rank channel (4)
        graph = LinearOrderGraph([0, 1, 2])
        chans = {(0, 1): Channel.from_kraus([random_unitary(rng, 2)]),
                 (1, 2): Channel.random(rng, 2),
                 (0, 2): Channel.random(rng, 2)}
        ds = dilate_cptp(cptp_system(graph, chans))
        ctx = graph.context()
        shapes = {ds.dilation.unitary_of(embed_edge(ctx, e)).shape
                  for e in [(0, 1), (1, 2), (0, 2)]}
        assert len(shapes) == 1

    def test_representation_law(self):
        rng = rng_from_seed(14)
        graph, chans = three_node_channel_family(rng)
        ds = dilate_cptp(cptp_system(graph, chans))
        dil = ds.dilation
        ctx = graph.context()
        p = dil.dim * dil.env_dim
        for _ in range(50):
            x = rewrite.random_element(ctx, rng, 2)
            y = rewrite.random_element(ctx, rng, 2)
            z = rewrite.random_element(ctx, rng, 2)
            zeta = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            v = FormalVector.of([(z, zeta)])
            two_step = dil.apply(x, dil.apply(y, v))
            one_step = dil.apply(gmul(x, y), v)
            assert two_step.distance(one_step) < 1e-12

    def test_unitarity_on_terms(self):
        rng = rng_from_seed(15)
        graph, chans = three_node_channel_family(rng)
        ds = dilate_cptp(cptp_system(graph, chans))
        dil = ds.dilation
        ctx = graph.context()
        p = dil.dim * dil.env_dim
        for _ in range(20):
            x = rewrite.random_element(ctx, rng, 3)
            zeta = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            out = dil.apply(x, FormalVector.of([(identity(), zeta)]))
            (_, payload), = out.terms
            assert abs(np.linalg.norm(payload) - np.linalg.norm(zeta)) < 1e-12

    def test_indivisibility_preserved(self):
        rng = rng_from_seed(16)
        graph, chans = three_node_channel_family(rng)
        ds = dilate_cptp(cptp_system(graph, chans))
        ctx = graph.context()
        g = embed_edge(ctx, (0, 1))
        h = embed_edge(ctx, (1, 2))
        gh = gmul(g, h)  # rewrites to the single letter (0, 2)
        assert gh == embed_edge(ctx, (0, 2))
        s = random_matrix(rng, 2)
        dilated = linops.superop_apply(ds.extension(gh), s)
        composed = chans[(0, 1)].apply(chans[(1, 2)].apply(s))
        family_defect = trace_norm(chans[(0, 2)].apply(s) - composed)
        assert trace_norm(dilated - composed) == pytest.approx(family_defect,
                                                               abs=1e-10)
        assert ds.dilation.verify_element(gh, s) < 1e-10

    def test_closed_form_matches_formal_oracle(self):
        rng = rng_from_seed(30)
        graph, chans = three_node_channel_family(rng)
        dil = dilate_cptp(cptp_system(graph, chans)).dilation
        samples = [*linops.matrix_units(2), random_matrix(rng, 2)]
        for g in elements_up_to(graph.context(), 2):
            stacked = dil.verify_element(g, np.stack(samples))
            for s, in_stack in zip(samples, stacked):
                closed = dil.verify_element(g, s)
                assert closed <= 1e-10
                assert abs(closed - formal_verify_element(dil, g, s)) <= 1e-12
                assert abs(in_stack - closed) <= 1e-14

    def test_wrong_reflection_detected(self):
        rng = rng_from_seed(31)
        graph, chans = three_node_channel_family(rng)
        dil = dilate_cptp(cptp_system(graph, chans)).dilation
        ctx = graph.context()
        x, y = embed_edge(ctx, (0, 1)), embed_edge(ctx, (1, 2))
        dil._unitaries[x] = dil.unitary_of(y)
        assert max(dil.verify_element(x, s) for s in linops.matrix_units(2)) > 1e-10


class TestShiftDilation:
    def banach_setup(self, seed=18):
        rng = rng_from_seed(seed)
        gens = dynamics.commuting_evolution(random_dissipative(rng, 3), 1.0, 5)
        fam = gens.exponential(1.0)
        from graphdyn.extend import FirstCoverExtension
        ext = FirstCoverExtension(fam)
        dil = ShiftDilation(ext, fam.dim, flavor="banach")
        return rng, fam, dil, fam.graph.context()

    def test_section_identity(self):
        rng, fam, dil, ctx = self.banach_setup()
        for _ in range(10):
            xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert np.allclose(compress(dil, dil.embed(xi)), xi)

    def test_compression_reproduces_family(self):
        rng, fam, dil, ctx = self.banach_setup()
        for e in [(1.0, 0.75), (0.75, 0.25), (0.5, 0.5)]:
            g = embed_edge(ctx, e)
            assert spectral_norm(dil.compression_matrix(g) - fam(e)) < 1e-10

    def test_compression_matrix_matches_column_loop(self):
        rng, fam, dil, ctx = self.banach_setup()
        for _ in range(10):
            x = rewrite.random_element(ctx, rng, 3)
            columns = [compress(dil, dil.shift(x, dil.embed(e))) for e in np.eye(3)]
            assert np.array_equal(dil.compression_matrix(x), np.stack(columns, axis=1))
            # the identity payload carries every column at once
            assert np.array_equal(dil.compression_matrix(x),
                                  compress(dil, dil.shift(x, dil.embed(np.eye(3)))))

    def test_right_shift_law(self):
        rng, fam, dil, ctx = self.banach_setup()
        for _ in range(20):
            x = rewrite.random_element(ctx, rng, 3)
            y = rewrite.random_element(ctx, rng, 3)
            tags = [rewrite.random_element(ctx, rng, 2) for _ in range(3)]
            v = FormalVector.of(
                [(t, rng.standard_normal(3) + 1j * rng.standard_normal(3))
                 for t in tags])
            lhs = evaluate(dil, dil.shift(x, v), y)
            rhs = evaluate(dil, v, gmul(y, x))
            assert np.array_equal(lhs, rhs)

    def test_representation_exact_on_tags(self):
        rng, fam, dil, ctx = self.banach_setup()
        for _ in range(20):
            x = rewrite.random_element(ctx, rng, 3)
            y = rewrite.random_element(ctx, rng, 3)
            v = dil.embed(rng.standard_normal(3))
            lhs = dil.shift(x, dil.shift(y, v))
            rhs = dil.shift(gmul(x, y), v)
            assert lhs.distance(rhs) == 0.0

    def test_a_cached_value_cannot_be_written(self):
        rng, fam, dil, ctx = self.banach_setup()
        g = embed_edge(ctx, (1.0, 0.5))
        val = dil.value(g)
        before = val.copy()
        with pytest.raises(ValueError, match="read-only"):
            val[0, 0] = 7.0
        assert np.array_equal(dil.value(g), before)
        stack = dil.values([g, g])
        stack[:] = 0  # a stack is the caller's own copy
        assert np.array_equal(dil.value(g), before)

    def test_non_contraction_rejected(self):
        graph = descending_grid(1.0, 3)
        fam = edgewise(OperatorFamily, graph, 2,
                       lambda e: np.eye(2) * (1.0 if e[0] == e[1] else 2.0))
        from graphdyn.extend import NormalFormExtension
        ext = NormalFormExtension(fam)
        dil = ShiftDilation(ext, 2, flavor="banach")
        with pytest.raises(PreconditionError) as exc:
            dil.compression_matrix(embed_edge(graph.context(), (1.0, 0.5)))
        assert exc.value.axiom == "contraction"


class TestShiftDilationCstar:
    def setup_cstar(self, seed=19, h=np.diag([1.0, -0.3]).astype(complex)):
        # unitary-conjugation channel family: positive unital superoperators
        rng = rng_from_seed(seed)
        graph = descending_grid(1.0, 5)

        def value(e):
            t, s = e
            u = linops.expm(1j * (t - s) * h)
            return conjugation_superop(u)

        fam = edgewise(OperatorFamily, graph, 4, value)
        from graphdyn.extend import FirstCoverExtension
        ext = FirstCoverExtension(fam)
        return rng, fam, ShiftDilation(ext, 2, flavor="cstar"), graph.context()

    def test_compression_reproduces_family(self):
        rng, fam, dil, ctx = self.setup_cstar()
        for e in [(1.0, 0.75), (0.5, 0.25)]:
            g = embed_edge(ctx, e)
            assert spectral_norm(dil.compression_matrix(g) - fam(e)) < 1e-10

    def test_compression_matrix_matches_column_loop(self):
        # oracle: one formal round trip per basis payload, column by column;
        # a non-diagonal Hamiltonian makes the superoperators non-symmetric
        rng, fam, dil, ctx = self.setup_cstar(h=SIGMA_X + 0.3 * SIGMA_Z)
        for _ in range(10):
            x = rewrite.random_element(ctx, rng, 3)
            columns = [compress(dil, dil.shift(x, dil.embed(
                e.reshape(2, 2, order="F")))).reshape(-1, order="F") for e in np.eye(4)]
            assert np.array_equal(dil.compression_matrix(x), np.stack(columns, axis=1))


def shift_setup(which, seed):
    """A fresh (extension, payload dim, flavor) over a 5-point grid: each
    extension kind, and a conjugation family for the cstar flavor."""
    from graphdyn.extend import (FirstCoverExtension, NormalFormExtension,
                                 SecondCoverExtension)
    rng = rng_from_seed(seed)
    gens = dynamics.commuting_evolution(random_dissipative(rng, 3), 1.0, 5)
    if which == "normal":
        return NormalFormExtension(gens.exponential(1.0)), 3, "banach"
    if which == "cover1":
        return FirstCoverExtension(gens.exponential(1.0)), 3, "banach"
    if which == "cover2":
        return SecondCoverExtension(gens), 3, "banach"
    h = random_matrix(rng, 2)
    h = h + dagger(h)
    fam = edgewise(OperatorFamily, gens.graph, 4, lambda e: conjugation_superop(
        linops.expm(1j * (e[0] - e[1]) * h)))
    return FirstCoverExtension(fam), 2, "cstar"


class TestBatchedShiftValues:
    @settings(max_examples=40, deadline=None)
    @given(which=st.sampled_from(["normal", "cover1", "cover2", "cstar"]),
           seed=st.integers(0, 2**16), data=st.data())
    def test_values_match_value_loop(self, which, seed, data):
        ext, dim, flavor = shift_setup(which, seed)
        dil = ShiftDilation(ext, dim, flavor=flavor)
        oracle_ext = shift_setup(which, seed)[0]
        oracle = ShiftDilation(oracle_ext, dim, flavor=flavor)
        ctx = ext.fam.graph.context()
        rng = rng_from_seed(seed)
        pool = [rewrite.random_element(ctx, rng, 3) for _ in range(8)]
        gs = [pool[i] for i in data.draw(st.lists(st.integers(0, 7), max_size=20))]
        for i in data.draw(st.lists(st.integers(0, 7), max_size=3)):
            dil.value(pool[i])  # partly cached
        got = dil.values(gs)
        assert got.shape == (len(gs),) + dil._shape
        if gs:
            assert np.array_equal(got, np.stack([oracle.value(g) for g in gs]))
            assert np.array_equal(got, np.stack([oracle_ext(g) for g in gs]))

    def test_first_non_unital_element_in_order_raises(self):
        graph = LinearOrderGraph([0, 1, 2, 3])
        nonloop = [e for e in graph.edges() if e[0] != e[1]]
        # the third and fifth non-loop edges are not unital; the third is named
        scale = {nonloop[2]: 0.9, nonloop[4]: 0.8}

        def value(e):
            u = linops.expm(1j * (e[1] - e[0]) * SIGMA_X)
            return scale.get(e, 1.0) * conjugation_superop(u)

        for bad in (None, (2, 3)):
            # a later edge with no value must not mask the first failure
            def fam_value(e, bad=bad):
                if e == bad:
                    raise GraphError(f"no value supplied for edge {e!r}")
                return value(e)

            fam = edgewise(OperatorFamily, graph, 4, fam_value)
            ds = dilate_discrete({"graph": graph, "family": fam}, flavor="cstar")
            with pytest.raises(PreconditionError) as exc:
                ds.verify()
            assert exc.value.axiom == "unitality"
            assert str(exc.value) == (
                "family value at GroupElement(letters=(Letter(tail=0, head=3),)) "
                "has unitality defect 1.000e-01")


class TestPipelines:
    def test_pipeline_a_on_network(self):
        rng = rng_from_seed(20)
        w = 0.3 * np.eye(2, dtype=complex)
        edges = [("u", "v"), ("v", "w"), ("u", "z"), ("z", "w")]
        net = dynamics.DagNetwork(["u", "v", "z", "w"], edges,
                                  {e: w for e in edges}, 2)
        fam = dynamics.network_family(net)
        ds = dilate_discrete({"graph": fam.graph, "family": fam})
        reports = ds.verify(rng=rng)
        assert all(r.passed for r in reports)

    def test_pipeline_b_on_divisible(self):
        rng = rng_from_seed(21)
        rate = random_dissipative(rng, 2)
        gens = dynamics.commuting_evolution(rate, 1.0, 9)
        system = {"graph": gens.graph, "family": gens.exponential(1.0),
                  "generators": gens,
                  "ell": proportional_length(spectral_norm(rate))}
        ds = dilate_divisible(system)
        reports = ds.verify(rng=rng)
        assert all(r.passed for r in reports)

    def test_pipeline_b_on_noncommuting_divisible(self, noncommuting_divisible):
        rng = rng_from_seed(30)
        fam, ell = noncommuting_divisible
        ds = dilate_divisible({"graph": fam.graph, "family": fam, "ell": ell})
        reports = ds.verify(rng=rng)
        assert all(r.passed for r in reports), [r.name for r in reports
                                                if not r.passed]

    def test_pipeline_b_rejects_indivisible(self):
        gens = example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 9)
        system = {"graph": gens.graph, "family": gens.exponential(1.0),
                  "generators": gens}
        with pytest.raises(PreconditionError) as exc:
            dilate_divisible(system)
        assert exc.value.axiom == "divisibility"

    def test_pipeline_c_on_interpolation(self):
        rng = rng_from_seed(22)
        gens = example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 9)
        c0 = max(spectral_norm(1j * commutator_superop(h))
                 for h in (SIGMA_X, SIGMA_Z))
        system = {"graph": gens.graph, "family": gens.exponential(1.0),
                  "generators": gens, "alpha": 1.0,
                  "ell": proportional_length(c0)}
        ds = dilate_exponential(system)
        reports = ds.verify(rng=rng)
        assert all(r.passed for r in reports), [r.name for r in reports
                                                if not r.passed]

    def test_pipeline_a_cptp(self):
        rng = rng_from_seed(23)
        graph, chans = three_node_channel_family(rng)
        ds = dilate_cptp(cptp_system(graph, chans))
        reports = ds.verify(rng=rng)
        assert all(r.passed for r in reports)

    def test_pipeline_a_cstar_flavor(self):
        # positive unital superoperator family through the algebra flavor
        rng = rng_from_seed(28)
        graph = descending_grid(1.0, 5)
        h = np.diag([0.7, -0.2]).astype(complex)
        fam = edgewise(
            OperatorFamily, graph, 4,
            lambda e: conjugation_superop(
                linops.expm(1j * (e[0] - e[1]) * h)))
        ds = dilate_discrete({"graph": graph, "family": fam}, flavor="cstar")
        reports = ds.verify(rng=rng)
        assert all(r.passed for r in reports)

    def test_cstar_flavor_needs_square_dimension(self):
        graph = descending_grid(1.0, 3)
        fam = edgewise(OperatorFamily, graph, 3, lambda e: np.eye(3))
        with pytest.raises(InputError):
            dilate_discrete({"graph": graph, "family": fam}, flavor="cstar")


class TestBatchedVerify:
    def test_compression_report_matches_edge_loop(self):
        # the dilation compresses to fam; the report compares against a family
        # bumped by an edge-dependent amount, so every non-loop edge has a defect
        rng = rng_from_seed(24)
        gens = dynamics.commuting_evolution(random_dissipative(rng, 3), 1.0, 6)
        fam = gens.exponential(1.0)
        ds = dilate_divisible({"graph": fam.graph, "family": fam})
        bumps = {e: rng.uniform(0.0, 1e-3) * (e[0] != e[1]) for e in fam.graph.edges()}
        bumped = edgewise(OperatorFamily, fam.graph, 3,
                          lambda e: fam(e) + bumps[e] * np.eye(3))
        ds.system = {"graph": fam.graph, "family": bumped}
        edges = list(fam.graph.edges())
        for block in (4, 512):
            with mock.patch.object(dynamics, "_BLOCK", block):
                rep = ds._compression_report(1e-10)
            worst, arg = 0.0, None
            for e in edges:
                d = spectral_norm(ds.dilation.compression_matrix(ds.edge_element(e))
                                  - bumped(e))
                if d > worst:
                    worst, arg = d, e
            assert (rep.max_defect, rep.argmax, rep.count) == (worst, arg, len(edges))
            assert not rep.passed

    def test_verify_samples_at_most_200_triples(self):
        for points, sampled in ((9, 165), (17, 200)):
            fam = edgewise(OperatorFamily, descending_grid(1.0, points), 2,
                           lambda e: np.eye(2))
            ds = dilate_discrete({"graph": fam.graph, "family": fam})
            for rng, count in ((rng_from_seed(0), sampled),
                               (None, points * (points + 1) * (points + 2) // 6)):
                rep = ds.verify(rng=rng)[1]
                assert (rep.name, rep.passed, rep.count) == \
                    ("group-divisibility-axiom", True, count)

    @pytest.mark.parametrize("graph", [LinearOrderGraph(range(7)),
                                       descending_grid(1.0, 9),
                                       CompleteGraph("abcde")])
    def test_ordered_triples_are_paths(self, graph):
        # DilatedSystem.verify takes every ordered triple of the node list; on
        # both graph classes its pipelines run on, each one is a path u -> v -> w
        triples = dynamics._node_triples(graph.nodes, dynamics._ordered_triples(graph))
        m = len(graph.nodes)
        assert len(triples) == m * (m + 1) * (m + 2) // 6
        assert all(graph.has_edge(u, v) and graph.has_edge(v, w) and graph.has_edge(u, w)
                   for u, v, w in triples)


class TestOneParamFactorization:
    def test_base_point_is_identity(self):
        rng = rng_from_seed(24)
        gens = dynamics.commuting_evolution(random_dissipative(rng, 2), 1.0, 5)
        system = {"graph": gens.graph, "family": gens.exponential(1.0),
                  "generators": gens,
                  "ell": proportional_length(
                      spectral_norm(gens((1.0, 0.0))))}
        ds = dilate_divisible(system)
        ctx = ds.context
        assert embed_edge(ctx, (0.0, 0.0)).is_identity()
        reports = one_param_factorization(ds, 0.0, rng=rng)
        by_name = {r.name: r for r in reports}
        assert by_name["factorization-group-level"].passed
        assert by_name["factorization-operator-level"].passed
        assert by_name["one-parameter-semigroup-law"].passed  # memoryless

    def test_interpolation_family_fails_semigroup_law(self):
        rng = rng_from_seed(25)
        gens = example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 9)
        c0 = max(spectral_norm(1j * commutator_superop(h))
                 for h in (SIGMA_X, SIGMA_Z))
        system = {"graph": gens.graph, "family": gens.exponential(1.0),
                  "generators": gens, "alpha": 1.0,
                  "ell": proportional_length(c0)}
        ds = dilate_exponential(system)
        reports = one_param_factorization(ds, 0.0, rng=rng)
        by_name = {r.name: r for r in reports}
        assert by_name["factorization-group-level"].passed
        assert by_name["factorization-operator-level"].passed
        sg = by_name["one-parameter-semigroup-law"]
        assert not sg.passed and sg.max_defect > 1e-3

    def test_anchor_at_the_first_node_inverts_the_edges(self):
        # the demo's grid descends from 1.0, so no edge (t, 1.0) leaves a
        # later node: each U(t) is the inverse of the element of (1.0, t)
        from graphdyn import cli
        ds = dilate_discrete(dynamics.build_system(cli._indivisible_spec()))
        graph = ds.system["graph"]
        assert graph.nodes[0] == 1.0
        assert not any(graph.has_edge(t, 1.0) for t in graph.nodes[1:])
        by_name = {r.name: r for r in one_param_factorization(ds, 1.0, rng=rng_from_seed(25))}
        assert by_name["factorization-group-level"].passed
        assert by_name["factorization-operator-level"].passed

    @pytest.mark.parametrize("memoryless", [True, False])
    def test_holds_detail_is_the_semigroup_verdict(self, memoryless):
        if memoryless:
            gens = dynamics.commuting_evolution(
                random_dissipative(rng_from_seed(24), 2), 1.0, 5)
        else:
            gens = example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 5)
        ds = dilate_exponential({"graph": gens.graph, "family": gens.exponential(1.0),
                                 "generators": gens})
        sg = {r.name: r for r in one_param_factorization(ds, 0.0)}[
            "one-parameter-semigroup-law"]
        assert sg.passed is memoryless
        assert sg.details == {"holds": memoryless}


class TestChannelSpecs:
    def test_round_trip_kraus(self):
        rng = rng_from_seed(26)
        ch = Channel.random(rng, 2)
        back = Channel(2, dilate.choi_from_spec(kraus_spec(ch.kraus)))
        for s in matrix_units(2):
            assert spectral_norm(back.apply(s) - ch.apply(s)) < 1e-12

    def test_round_trip_choi(self):
        rng = rng_from_seed(27)
        ch = Channel.random(rng, 2)
        back = Channel(2, dilate.choi_from_spec(channel_to_spec(ch)))
        assert np.array_equal(back.choi, ch.choi)

    def test_malformed(self):
        with pytest.raises(InputError):
            dilate.choi_from_spec({"dim": 2, "repr": "bogus", "data": []})

    def test_kraus_operators_must_be_dim_by_dim(self):
        spec = kraus_spec([np.eye(2)])
        spec["dim"] = 3
        with pytest.raises(InputError,
                           match=r"dim is 3, but Kraus operator 0 has shape \(2, 2\)"):
            dilate.choi_from_spec(spec)

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import linops
from graphdyn.dynamics import GeneratorFamily, LinearOrderGraph
from graphdyn.errors import InputError
from graphdyn.linops import (SIGMA_X, SIGMA_Y, SIGMA_Z, anticommutator_superop,
                             commutator, commutator_superop, dagger,
                             exp_derivative, expm, kraus_superop,
                             partial_trace_first, spectral_norm, superop_apply,
                             trace_norm)
from graphdyn import reports
from graphdyn.reports import defect_report, dumps
from graphdyn.sampling import (random_dissipative, random_hermitian,
                               random_matrix, rng_from_seed)
from oracles import edgewise, random_unitary


def kron_oracle(a, b):
    """Entrywise definition of the Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def expm_taylor(a, terms=80):
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ a / n
        out = out + term
    return out


class TestPartialTrace:
    def test_defining_identity(self):
        # tr(T tr1(s)) = tr((1 (x) T) s) over all matrix-unit test operators T
        rng = rng_from_seed(3)
        s = random_matrix(rng, 6)
        red = partial_trace_first(s, 2, 3)
        for i in range(3):
            for j in range(3):
                t = np.zeros((3, 3), dtype=complex)
                t[i, j] = 1.0
                lhs = np.trace(t @ red)
                rhs = np.trace(np.kron(np.eye(2), t) @ s)
                assert abs(lhs - rhs) < 1e-12

    def test_product_state(self):
        # linear on sums of products, as every operator on the product is
        rng = rng_from_seed(4)
        a, c = random_matrix(rng, 3), random_matrix(rng, 3)
        b, d = random_matrix(rng, 2), random_matrix(rng, 2)
        assert spectral_norm(partial_trace_first(np.kron(a, b) + np.kron(c, d), 3, 2)
                             - np.trace(a) * b - np.trace(c) * d) < 1e-12

    def test_identity(self):
        assert np.allclose(partial_trace_first(np.eye(4), 2, 2), 2 * np.eye(2))

    def test_pure_environment(self):
        rng = rng_from_seed(5)
        s = random_matrix(rng, 3)
        eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        eta /= np.linalg.norm(eta)
        env = np.outer(eta, np.conj(eta))
        assert spectral_norm(partial_trace_first(np.kron(env, s), 4, 3) - s) < 1e-12

    def test_first_factor(self):
        rng = rng_from_seed(6)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        assert spectral_norm(linops.partial_trace_first(np.kron(a, b), 2, 3)
                             - np.trace(a) * b) < 1e-12

    def test_shape_error(self):
        with pytest.raises(ValueError) as exc:
            partial_trace_first(np.eye(5), 2, 3)
        assert exc.type is ValueError  # no input reaches it: not an InputError


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = expm(np.diag([1.0, -2.0]).astype(complex))
        assert np.allclose(np.diag(out), [np.e, np.exp(-2)])

    def test_rotation(self):
        theta = 0.7
        out = expm(1j * theta * SIGMA_Y)
        want = np.array([[np.cos(theta), np.sin(theta)],
                         [-np.sin(theta), np.cos(theta)]], dtype=complex)
        assert spectral_norm(out - want) < 1e-12

    def test_against_taylor(self):
        rng = rng_from_seed(7)
        a = random_matrix(rng, 4, scale=0.5)
        assert spectral_norm(expm(a) - expm_taylor(a)) < 1e-12

    def test_dissipative_gives_contraction(self):
        rng = rng_from_seed(8)
        for _ in range(10):
            a = random_dissipative(rng, 4)
            assert spectral_norm(expm(a)) <= 1 + 1e-10

    def test_non_square(self):
        with pytest.raises(InputError):
            expm(np.zeros((2, 3)))


# scipy uses scaling and squaring only above this 1-norm (theta_13 of
# Al-Mohy & Higham 2009); below it a Pade approximant is used directly
THETA_13 = 5.37


def one_norms(stack):
    return np.abs(stack).sum(axis=-2).max(axis=-1)


class TestStackedExpm:
    """The golden report bodies rely on a stacked expm being bitwise the
    per-matrix one: a family fills all missing edges with one stacked call."""

    @pytest.mark.parametrize("n", [2, 4, 9])
    @pytest.mark.parametrize("scale,squaring", [(0.01, False), (0.3, False), (30.0, True)])
    def test_stack_is_bitwise_the_matrix_loop(self, n, scale, squaring):
        rng = rng_from_seed(70 + n)
        stack = scale * (rng.standard_normal((40, n, n))
                         + 1j * rng.standard_normal((40, n, n)))
        norms = one_norms(stack)
        assert (norms.min() > THETA_13) if squaring else (norms.max() < THETA_13)
        assert np.array_equal(expm(stack), np.stack([expm(a) for a in stack]))

    def test_leading_axes_and_mixed_scales(self):
        rng = rng_from_seed(75)
        stack = rng.standard_normal((3, 4, 4, 4)) + 1j * rng.standard_normal((3, 4, 4, 4))
        stack *= np.array([0.01, 1.0, 30.0])[:, None, None, None]
        out = expm(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(3, 4):
            assert np.array_equal(out[idx], expm(stack[idx]))

    def test_empty_stack(self):
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_anywhere_in_a_stack(self, bad):
        stack = np.zeros((5, 3, 3), dtype=complex)
        stack[4, 2, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            expm(stack)

    def test_non_square_last_axes(self):
        with pytest.raises(InputError, match="square"):
            expm(np.zeros((4, 2, 3)))

    @pytest.mark.parametrize("a", [np.zeros(3), 1.0], ids=["vector", "scalar"])
    def test_fewer_than_two_axes(self, a):
        with pytest.raises(InputError, match="ndim"):
            expm(a)


def _sent_to_scipy(fam, stacks):
    """``fam.expm`` of each stack in turn, and the matrices scipy's expm
    received for them."""
    sent = []
    real = scipy.linalg.expm
    with mock.patch.object(scipy.linalg, "expm",
                           side_effect=lambda a: sent.extend(np.asarray(a).copy()) or real(a)):
        out = [fam.expm(stack) for stack in stacks]
    return out, sent


class TestDeduplicatedExpm:
    """A generator family's exponentials go through its memo: scipy gets each
    distinct matrix once over all the family's calls, and every value is
    still bitwise the per-matrix one."""

    @staticmethod
    def _family():
        return edgewise(GeneratorFamily, LinearOrderGraph([0]), 3, lambda e: np.zeros((3, 3)))

    def _repeating(self, seed, distinct, shape):
        rng = rng_from_seed(seed)
        base = rng.standard_normal((distinct, 3, 3)) + 1j * rng.standard_normal((distinct, 3, 3))
        base *= np.array([0.01, 1.0, 30.0] * distinct)[:distinct, None, None]
        return base, base[rng.integers(0, distinct, size=shape)]

    # flat: one stack of 40; leading-axes: three stacks of 13, read in turn
    @pytest.mark.parametrize("shape", [(1, 40), (3, 13)], ids=["flat", "leading-axes"])
    def test_repeats_are_bitwise_the_matrix_loop(self, shape):
        _, stacks = self._repeating(80, 5, shape)
        fam = self._family()
        out = np.stack([fam.expm(stack) for stack in stacks])
        assert out.shape == stacks.shape
        for idx in np.ndindex(*shape):
            assert np.array_equal(out[idx], scipy.linalg.expm(stacks[idx]))

    def test_scipy_receives_only_the_distinct_matrices(self):
        base, stacks = self._repeating(81, 6, (4, 10))
        assert len({m.tobytes() for m in stacks.reshape(-1, 3, 3)}) == 6
        fam = self._family()
        out, sent = _sent_to_scipy(fam, stacks)
        assert len(sent) == 6
        assert {m.tobytes() for m in sent} == {m.tobytes() for m in base}
        assert np.array_equal(out, [[expm(a) for a in row] for row in stacks])
        again, sent = _sent_to_scipy(fam, [stacks[0], base])
        assert sent == []
        assert np.array_equal(again[1], expm(base))

    def test_signed_zeros_are_both_sent(self):
        pos = np.array([[0.0, 0.5], [0.25, 0.0]], dtype=complex)
        neg = pos.copy()
        neg[0, 0] = -0.0
        assert np.array_equal(pos, neg) and pos.tobytes() != neg.tobytes()
        fam = edgewise(GeneratorFamily, LinearOrderGraph([0]), 2, lambda e: np.zeros((2, 2)))
        (out,), sent = _sent_to_scipy(fam, [np.stack([pos, neg, pos])])
        assert len(sent) == 2
        assert np.array_equal(out, np.stack([expm(pos), expm(neg), expm(pos)]))

    def test_duplicate_rows_do_not_alias(self):
        _, stack = self._repeating(82, 1, (3,))
        fam = self._family()
        want = expm(stack[0])
        out = fam.expm(stack)
        out[0] += 1.0
        assert np.array_equal(out[1], want) and np.array_equal(out[2], want)
        assert all(np.array_equal(a, want) for a in fam.expm(stack))


class TestExpDerivative:
    def test_zero_direction(self):
        rng = rng_from_seed(9)
        x = random_matrix(rng, 3)
        out = exp_derivative(x, np.zeros((3, 3)), 0.3)
        assert spectral_norm(out) < 1e-12

    def test_commuting_closed_form(self):
        x = np.diag([0.3, -0.8, 0.1]).astype(complex)
        y = np.diag([-0.2, 0.5, 0.9]).astype(complex)
        t = 0.4
        want = y @ expm(x + t * y)
        assert spectral_norm(exp_derivative(x, y, t) - want) < 1e-10

    def test_against_central_difference(self):
        rng = rng_from_seed(10)
        x = random_matrix(rng, 3)
        y = random_matrix(rng, 3)
        h = 1e-5
        fd = (expm(x + h * y) - expm(x - h * y)) / (2 * h)
        assert spectral_norm(exp_derivative(x, y, 0.0) - fd) < 1e-6

    def test_integrand_bound_for_dissipative(self):
        rng = rng_from_seed(11)
        for _ in range(5):
            x = random_dissipative(rng, 3)
            y = random_dissipative(rng, 3)
            for t in (0.0, 0.25, 0.5, 1.0):
                assert spectral_norm(exp_derivative(x, y, t)) \
                    <= spectral_norm(y) + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError) as exc:
            exp_derivative(np.eye(2), np.eye(3))
        assert exc.type is ValueError  # no input reaches it: not an InputError

    @pytest.mark.parametrize("n, t, scale", [(2, 0.0, 1.0), (3, 0.4, 1.0),
                                             (4, -1.3, 0.01), (5, 0.7, 20.0)])
    def test_bitwise_the_scipy_frechet_kernel(self, n, t, scale):
        rng = rng_from_seed(20 + n)
        x, y = scale * random_matrix(rng, n), scale * random_matrix(rng, n)
        want = scipy.linalg.expm_frechet(x + t * y, y, compute_expm=False)
        assert np.array_equal(exp_derivative(x, y, t), want)


class TestNorms:
    def test_spectral_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0)

    def test_trace_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0]).astype(complex)) == pytest.approx(3.0)

    def test_scaled_unitary(self):
        rng = rng_from_seed(12)
        u = random_unitary(rng, 4)
        svd = np.linalg.svd(2 * u, compute_uv=False)
        assert spectral_norm(2 * u) == pytest.approx(svd.max())
        assert spectral_norm(2 * u) == pytest.approx(2.0, abs=1e-12)


class TestBatchedSpectralNorm:
    def test_stack_matches_per_matrix(self):
        rng = rng_from_seed(13)
        for shape in ((30, 4, 4), (5, 6, 3, 3), (7, 2, 5)):
            stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            flat = stack.reshape(-1, *shape[-2:])
            want = np.array([float(np.linalg.norm(m, 2)) for m in flat])
            got = spectral_norm(stack)
            assert got.shape == shape[:-2]
            assert np.array_equal(got.reshape(-1), want)
            nuclear = trace_norm(stack)
            assert nuclear.shape == shape[:-2]
            assert np.allclose(nuclear.reshape(-1),
                               [np.linalg.norm(m, "nuc") for m in flat],
                               rtol=1e-14, atol=0)

    def test_matrix_gives_float(self):
        out = spectral_norm(2 * np.eye(3))
        assert type(out) is float and out == 2.0
        assert spectral_norm(np.zeros((0, 0))) == 0.0
        assert spectral_norm(np.zeros((4, 0, 2))).shape == (4,)
        out = trace_norm(np.diag([1.0, -2.0, 0.5]))
        assert type(out) is float and out == 3.5
        assert trace_norm(np.zeros((0, 0))) == 0.0
        assert np.array_equal(trace_norm(np.zeros((4, 0, 2))), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = bad
        for norm in (spectral_norm, trace_norm):
            with pytest.raises(InputError):
                norm(stack)
            with pytest.raises(InputError):
                norm(stack[1])

    def test_vector_rejected(self):
        for norm in (spectral_norm, trace_norm):
            with pytest.raises(InputError):
                norm(np.ones(3))


class TestAlgebra:
    def test_pauli_commutator(self):
        assert spectral_norm(commutator(SIGMA_X, SIGMA_Z) + 2j * SIGMA_Y) < 1e-15

    def test_anticommutator_symmetric(self):
        rng = rng_from_seed(13)
        a = random_matrix(rng, 3)
        assert np.allclose(superop_apply(anticommutator_superop(a), a), 2 * a @ a)

    def test_adjoint_identity(self):
        rng = rng_from_seed(14)
        s = random_matrix(rng, 3)
        assert np.array_equal(superop_apply(kraus_superop([np.eye(3)]), s), s)

    def test_adjoint_preserves_trace_and_spectrum(self):
        rng = rng_from_seed(15)
        u = random_unitary(rng, 4)
        s = random_hermitian(rng, 4)
        out = superop_apply(kraus_superop([u]), s)
        assert abs(np.trace(out) - np.trace(s)) < 1e-12
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(s),
                           atol=1e-12)


def is_dissipative(a):
    """The Hilbert-space criterion (Hermitian part <= 0) as pipeline C checks
    it: ``check_dissipative`` of a generator family with the one value ``a``."""
    a = np.asarray(a, dtype=complex)
    gens = edgewise(GeneratorFamily, LinearOrderGraph([0]), a.shape[0], lambda e: a)
    return gens.check_dissipative().passed


class TestDissipative:
    def test_skew_hermitian(self):
        rng = rng_from_seed(16)
        h = random_hermitian(rng, 4)
        assert is_dissipative(1j * h)

    def test_identity_not(self):
        assert not is_dissipative(np.eye(3))

    def test_shifted(self):
        assert is_dissipative(-np.eye(2) + 1j * SIGMA_Y)

    def test_contraction_consequence(self):
        rng = rng_from_seed(17)
        a = random_dissipative(rng, 3)
        assert is_dissipative(a)
        for alpha in (0.1, 1.0, 10.0):
            assert spectral_norm(expm(alpha * a)) <= 1 + 1e-9


class TestPerturbationBound:
    def test_sampled_dissipative_pairs(self):
        rng = rng_from_seed(19)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            x = random_dissipative(rng, d)
            y = random_dissipative(rng, d)
            assert spectral_norm(expm(x + y) - expm(x)) \
                <= spectral_norm(y) + 1e-10


def column_stack(x):
    """Column-stacking: entry x[i, j] at index i + j d."""
    return x.reshape(-1, order="F")


def bits(a):
    """The bit patterns of a complex array, so signs of zero count too."""
    return np.ascontiguousarray(a).view(np.int64)


class TestVectorization:
    def test_round_trip(self):
        # the identity superoperator stacks and unstacks x unchanged
        rng = rng_from_seed(20)
        x = random_matrix(rng, 3)
        assert np.array_equal(bits(superop_apply(np.eye(9), x)), bits(x))

    def test_column_stacking(self):
        # a superoperator matrix acts on column-stacked inputs, where x[i, j]
        # sits at index i + j d: the matrix unit at (0, 1) moves x[1, 0],
        # index 1, to entry (0, 0); row-stacking would move x[0, 1]
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(column_stack(x), [1, 3, 2, 4])
        m = np.zeros((4, 4))
        m[0, 1] = 1
        assert np.array_equal(superop_apply(m, x), [[3, 0], [0, 0]])

    def test_apply_is_the_column_stacked_product(self):
        rng = rng_from_seed(24)
        m = random_matrix(rng, 9)
        x = random_matrix(rng, 3)
        want = (m @ column_stack(x)).reshape(3, 3, order="F")
        assert np.array_equal(bits(superop_apply(m, x)), bits(want))

    def test_left_right_multiplication(self):
        # {a, .} and [a, .] are X -> a X + X a and X -> a X - X a
        rng = rng_from_seed(21)
        a = random_matrix(rng, 3)
        x = random_matrix(rng, 3)
        anti = anticommutator_superop(a)
        comm = commutator_superop(a)
        assert np.allclose(superop_apply((anti + comm) / 2, x), a @ x)
        assert np.allclose(superop_apply((anti - comm) / 2, x), x @ a)

    def test_conjugation_matches_adjoint_action(self):
        rng = rng_from_seed(22)
        u = random_unitary(rng, 3)
        x = random_matrix(rng, 3)
        assert np.allclose(superop_apply(kraus_superop([u]), x), u @ x @ dagger(u))

    def test_conjugation_is_the_entrywise_kron(self):
        # kraus_superop([u]) is X -> u X u*, the matrix conj(u) (x) u; small
        # integer entries make every product exact
        rng = rng_from_seed(2)
        u = rng.integers(-3, 4, size=(3, 3)) + 1j * rng.integers(-3, 4, size=(3, 3))
        assert np.array_equal(kraus_superop([u]), kron_oracle(np.conj(u), u))

    def test_commutator_superop(self):
        rng = rng_from_seed(23)
        a = random_matrix(rng, 3)
        x = random_matrix(rng, 3)
        assert np.allclose(superop_apply(commutator_superop(a), x), commutator(a, x))
        assert np.allclose(superop_apply(anticommutator_superop(a), x), a @ x + x @ a)

    def test_kraus_operators_of_different_sizes(self):
        with pytest.raises(ValueError, match=r"\(2, 2\) and \(1, 1\)") as exc:
            kraus_superop([np.eye(2) / 2, np.eye(1)])
        assert exc.type is ValueError  # no input reaches it: not an InputError

    def test_empty_kraus_list(self):
        with pytest.raises(InputError, match="needs at least one operator"):
            kraus_superop([])

    def test_input_of_the_wrong_size(self):
        with pytest.raises(ValueError, match=r"shape \(4, 4\) at 3x3 input") as exc:
            superop_apply(np.eye(4), np.eye(3))
        assert exc.type is ValueError  # no input reaches it: not an InputError


def kron_loop_from_kraus(kraus_ops):
    """The superoperator of a Kraus list as one np.kron per operator, added
    in list order onto zeros: the oracle of the stacked kraus_superop."""
    d = kraus_ops[0].shape[0]
    m = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus_ops:
        m += np.kron(np.conj(k), k)
    return m


# d = 1..3 and Kraus ranks 1..d^2, with a seed for the entries
kraus_shapes = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d * d), st.integers(0, 2**32 - 1)))


class TestStackedKernelsAreBitwise:
    """Channel checks and bodies use stacked kernels; each must give the bits
    of the per-matrix computation it replaced."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kraus_shapes)
    def test_from_kraus_is_the_kron_loop(self, shape):
        d, rank, seed = shape
        rng = rng_from_seed(seed)
        ks = [random_matrix(rng, d) for _ in range(rank)]
        if seed % 2:
            # real operators give products with imaginary part -0.0: the
            # sum must keep the loop's signs of zero too
            ks = [k.real.astype(complex) for k in ks]
        got = kraus_superop(ks)
        assert got.shape == (d * d, d * d)
        # equal bit patterns, so equal signs of zero too
        assert np.array_equal(got.view(np.int64),
                              kron_loop_from_kraus(ks).view(np.int64))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kraus_shapes)
    def test_stacked_norms_are_the_matrix_loop(self, shape):
        d, rank, seed = shape
        rng = rng_from_seed(seed)
        stack = np.stack([random_matrix(rng, d) for _ in range(rank)])
        assert np.array_equal(spectral_norm(stack),
                              [spectral_norm(m) for m in stack])
        assert np.array_equal(trace_norm(stack), [trace_norm(m) for m in stack])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kraus_shapes)
    def test_stacked_apply_is_the_matrix_loop(self, shape):
        d, rank, seed = shape
        rng = rng_from_seed(seed)
        sop = random_matrix(rng, d * d)
        stack = np.stack([random_matrix(rng, d) for _ in range(rank)])
        want = np.stack([(sop @ column_stack(m)).reshape(d, d, order="F")
                         for m in stack])
        assert np.array_equal(bits(superop_apply(sop, stack)), bits(want))
        assert np.array_equal(bits(superop_apply(sop, stack[0])), bits(want[0]))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kraus_shapes)
    def test_stack_of_superoperators_at_one_matrix_is_the_loop(self, shape):
        # as VedDilation.verify_element applies its stack of values at one matrix
        d, rank, seed = shape
        rng = rng_from_seed(seed)
        sops = np.stack([random_matrix(rng, d * d) for _ in range(rank)])
        for x in (np.eye(d, dtype=complex), random_matrix(rng, d)):
            want = np.stack([(m @ column_stack(x)).reshape(d, d, order="F")
                             for m in sops])
            assert np.array_equal(bits(superop_apply(sops, x)), bits(want))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(kraus_shapes)
    def test_reshuffles_and_partial_trace_of_a_stack_are_the_loop(self, shape):
        # the cptp-family check reads the Choi matrices of a whole family
        d, rank, seed = shape
        rng = rng_from_seed(seed)
        stack = np.stack([[random_matrix(rng, d * d) for _ in range(rank)]] * 2)
        for fn in (linops.superop_to_choi, linops.choi_to_superop):
            got = fn(stack, d)
            assert got.shape == stack.shape
            assert np.array_equal(bits(got), bits(np.stack(
                [[fn(m, d) for m in row] for row in stack])))
        assert np.array_equal(linops.choi_to_superop(linops.superop_to_choi(stack, d), d),
                              stack)
        traced = partial_trace_first(stack, d, d)
        assert np.array_equal(bits(traced), bits(np.stack(
            [[partial_trace_first(m, d, d) for m in row] for row in stack])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", [1, 1j], ids=["real", "imag"])
    def test_as_matrix_rejects_non_finite_parts(self, bad, part):
        m = np.zeros((2, 3), dtype=complex)
        m[1, 2] = bad * part if part == 1 else complex(0.0, bad)
        with pytest.raises(InputError, match="non-finite"):
            linops.as_matrix(m)
        with pytest.raises(InputError, match="non-finite"):
            linops.as_matrix(np.stack([np.zeros((2, 3)), m]), stack=True)
        with pytest.raises(InputError, match="ndim=3"):
            linops.as_matrix(np.zeros((2, 2, 3)))


class TestMatrixLiteral:
    def test_round_trip(self):
        rng = rng_from_seed(24)
        m = random_matrix(rng, 3)
        lit = linops.matrix_to_literal(m)
        assert np.array_equal(linops.matrix_from_literal(lit), m)

    def test_malformed(self):
        with pytest.raises(InputError):
            linops.matrix_from_literal([[1, 2], [3]])

    @pytest.mark.parametrize("scalar", [["1.5", 0], [0, True], [float("nan"), 0],
                                        [0, float("inf")], [10**400, 0], [1], 1.5, None],
                             ids=["string", "bool", "nan", "inf", "huge", "short",
                                  "number", "null"])
    def test_scalar_must_be_two_finite_numbers(self, scalar):
        with pytest.raises(InputError, match="matrix literal"):
            linops.matrix_from_literal([[[1.0, 0.0], scalar]])


@st.composite
def screen_cases(draw):
    """A stack with exact ties, zero and rank-one matrices and entries whose
    squares underflow or overflow; scaled unitaries next to witnesses whose
    norm lies between their two bounds; a shift with NaN and inf entries; and
    a tolerance of 0 or next to one of the exact values."""
    rng = rng_from_seed(draw(st.integers(0, 2**32 - 1)))
    n, rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = 10.0 ** draw(st.sampled_from([0, 0, -5, -160, -200, -318, 155, 200, 300]))
    r = min(rows, cols)
    mats = []
    for _ in range(n):
        # over the norm, the Frobenius bound is r^(1/2) and the Gram bound
        # r^(1/4) for a scaled unitary or identity, and both are 1 for rank
        # one, so the largest bound need not be the largest norm; a witness
        # of norm r^(3/8) beats a unitary's Frobenius bound, not its Gram one
        kind = draw(st.sampled_from(["dense", "rank-one", "identity", "unitary",
                                     "between", "zero", "tie"]))
        scale = base * draw(st.sampled_from([1.0, 1.0, 0.7, 1.2, 1e-3, 1e3]))
        if kind == "tie" and mats:
            mats.append(mats[draw(st.integers(0, len(mats) - 1))])
        elif kind == "zero":
            mats.append(np.zeros((rows, cols), dtype=complex))
        elif kind == "identity":
            mats.append(scale * np.eye(rows, cols, dtype=complex))
        elif kind == "unitary":  # r orthonormal columns or rows
            mats.append(scale * random_unitary(rng, max(rows, cols))[:rows, :cols])
        else:  # norm about ``scale``, as the identity's, or r^(3/8) times it
            m = np.outer(random_matrix(rng, rows)[:, 0], random_matrix(rng, cols)[0]) \
                if kind == "rank-one" else random_matrix(rng, max(rows, cols))[:rows, :cols]
            mats.append(scale * (r ** 0.375 if kind == "between" else 1.0)
                        * (m / spectral_norm(m)))
    stack = np.stack(mats)
    norms = spectral_norm(stack)
    shift = 0.0
    if draw(st.booleans()):
        pick = {"zero": 0.0, "norm": 1.0, "half": 0.5, "above": 1.001, "nan": np.nan,
                "inf": np.inf, "-inf": -np.inf}
        shift = np.array([pick[draw(st.sampled_from(list(pick)))] for _ in range(n)])
        scaled = np.isin(shift, (0.5, 1.0, 1.001))  # a multiple of the matrix's norm
        shift[scaled] *= norms[scaled]
        shift[rng.random(n) < 0.3] = shift[0]  # ties in the shifted values too
    values = norms - shift
    at = values[draw(st.integers(0, n - 1))]
    at = at if np.isfinite(at) else 0.0
    tol = draw(st.sampled_from([0.0, 1e-9, -1e-3, at, np.nextafter(at, -np.inf),
                                np.nextafter(at, np.inf)]))
    return stack, shift, float(tol), draw(st.booleans())


class TestScreenedNorms:
    """A screened stack gives a report equal in every field, and in every bit
    of ``max_defect``, to the report on its exact norms."""

    @staticmethod
    def reports(stack, shift, tol, offenders):
        keys = [f"k{i}" for i in range(len(stack))]
        return [dumps(defect_report("r", defects, keys, tol, offenders=offenders).as_dict())
                for defects in (spectral_norm(stack) - shift,
                                linops.screened_norms(stack, tol, shift, offenders))]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(screen_cases())
    def test_report_is_the_exact_one(self, case):
        plain, screened = self.reports(*case)
        assert screened == plain

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(screen_cases(), st.data())
    def test_blocks_screened_below_the_held_value_give_the_exact_report(self, case, data):
        # a streamed scan screens each block below the largest value its
        # earlier blocks hold; the blocks may interleave and come in any order
        stack, shift, tol, offenders = case
        stack = linops.as_matrix(stack, stack=True)
        n = len(stack)
        shift = np.broadcast_to(shift, (n,))
        label = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        blocks, held = [], -np.inf
        for b in data.draw(st.permutations(range(3))):
            index = np.flatnonzero(label == b)
            defects = linops._screen(stack[index], tol, shift[index], offenders, held)
            if index.size:
                held = max(held, defects.max())
            blocks.append((index, defects))
        keys = [f"k{i}" for i in range(n)]
        streamed = reports.streamed_report("r", blocks, keys.__getitem__, tol, floor=0.0,
                                           offenders=offenders)
        plain = defect_report("r", spectral_norm(stack) - shift, keys, tol,
                              offenders=offenders)
        assert dumps(streamed.as_dict()) == dumps(plain.as_dict())

    @pytest.mark.parametrize("offenders", [False, True])
    def test_rank_one_tolerance_just_below_its_norm(self, offenders):
        # |A|_2 = |A|_F for rank one, so without the margin the bound can sit
        # an ulp below the computed norm and the key would pass unscreened
        rng = rng_from_seed(5)
        mats = [np.outer(random_matrix(rng, 3)[:, 0], random_matrix(rng, 3)[0])
                for _ in range(40)]
        stack = np.stack(mats + [10 * mats[0]])
        for norm in spectral_norm(stack)[:-1]:
            tol = float(np.nextafter(norm, -np.inf))
            plain, screened = self.reports(stack, 0.0, tol, offenders)
            assert screened == plain

    def test_tie_at_a_bound_below_the_witness_bound(self):
        # near 2^60 the values round to multiples of 256: key 0 (rank one) has
        # bound and value 2^60 + 256, key 1 (an identity) has the larger bound
        # but the same value, so key 0 is the witness only if its tie is exact
        stack = np.stack([300 * np.outer(np.eye(4)[0], np.eye(4)[0]), 300 * np.eye(4)])
        for offenders in (False, True):
            plain, screened = self.reports(stack, -2.0**60, 1e-9, offenders)
            assert screened == plain and '"argmax": "k0"' in plain

    def test_negative_tol_can_fail_a_key_with_a_negative_bound(self):
        # key 1's bound is below 0 but above tol, and its value fails
        stack = np.stack([np.eye(4), np.outer(np.eye(4)[0], np.eye(4)[0])], dtype=complex)
        plain, screened = self.reports(stack, np.array([1.405, 1.001]), -0.01, False)
        assert screened == plain and '"passed": false' in plain

    # subnormal and huge entries too: a bound that overflows or comes out NaN
    # sends every matrix to the SVD
    @pytest.mark.parametrize("scale, tol", [(1e-15, 1e-9), (1e-318, 1e-9), (1e290, 1e300)])
    def test_only_deciding_matrices_reach_the_svd(self, scale, tol):
        rng = rng_from_seed(6)
        stack = scale * (rng.standard_normal((500, 4, 4))
                         + 1j * rng.standard_normal((500, 4, 4)))
        stack[123] *= 1e3
        seen = []
        real = linops._singular_values
        with mock.patch.object(linops, "_singular_values",
                               side_effect=lambda a: seen.append(len(a)) or real(a)):
            got = linops.screened_norms(stack, tol, offenders=True)
        assert sum(seen) == 1 and got[123] == spectral_norm(stack[123])
        assert np.array_equal(linops.screened_norms(stack[:0], 1e-9), np.empty(0))

    @pytest.mark.parametrize("offenders", [False, True])
    def test_gram_product_sees_only_what_the_frobenius_bound_leaves_open(self, offenders):
        rng = rng_from_seed(25)
        stack = 1e-15 * (rng.standard_normal((512, 4, 4))
                         + 1j * rng.standard_normal((512, 4, 4)))
        bounds = np.linalg.norm(stack, axis=(1, 2)) * (1 + 1e-10)
        first = np.argmax(bounds)
        left_open = np.flatnonzero(bounds >= spectral_norm(stack[first]))
        grams, svds = [], []
        real_gram, real_svd = linops._gram_roots, linops._singular_values
        with mock.patch.object(linops, "_gram_roots",
                               side_effect=lambda x: grams.append(x) or real_gram(x)), \
                mock.patch.object(linops, "_singular_values",
                                  side_effect=lambda a: svds.append(len(a)) or real_svd(a)):
            got = linops.screened_norms(stack, 1e-9, offenders=offenders)
        # the first exact maximum is not sent again; the rest of what is open
        # is, once, scaled by a power of two
        (gram,) = grams
        assert 0 < len(gram) == len(left_open) - 1 < 20
        rest = left_open[left_open != first]
        scale = stack[rest].real[:, :1, :1] / gram.real[:, :1, :1]
        assert np.array_equal(gram * scale, stack[rest]) and (np.frexp(scale)[0] == 0.5).all()
        # a screen on the Gram bound alone sends the SVD this one matrix too
        assert sum(svds) == 1 and got.max() == spectral_norm(stack).max()

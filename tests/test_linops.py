import numpy as np
import pytest
import scipy.linalg

from graphdyn import linops
from graphdyn.errors import DimensionError
from graphdyn.linops import (SIGMA_X, SIGMA_Y, SIGMA_Z, SuperOp,
                             adjoint_action, anticommutator, commutator,
                             exp_derivative, expm, is_dissipative_hilbert,
                             is_psd, partial_trace_second, spectral_norm,
                             tensor, trace_norm)
from graphdyn.sampling import (random_dissipative, random_hermitian,
                               random_matrix, random_unit_vector,
                               random_unitary, rng_from_seed)


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


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([1.0, 0.0]).astype(complex)
        assert np.array_equal(np.diag(tensor(a, b)), [1, 0, 2, 0])

    def test_product_vector(self):
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        out = tensor(SIGMA_X, SIGMA_X) @ linops.tensor_vec(e0, e0)
        assert np.allclose(out, linops.tensor_vec(e1, e1))

    def test_matches_entrywise_oracle(self):
        rng = rng_from_seed(1)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        assert spectral_norm(tensor(a, b) - kron_oracle(a, b)) < 1e-14

    def test_associative_exactly(self):
        # entry products must be exact for bitwise associativity, so use
        # small integer entries
        rng = rng_from_seed(2)
        mats = [rng.integers(-3, 4, size=(d, d))
                + 1j * rng.integers(-3, 4, size=(d, d))
                for d in (2, 3, 2)]
        a, b, c = (m.astype(complex) for m in mats)
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
        assert np.array_equal(tensor(a, b), kron_oracle(a, b))


class TestPartialTrace:
    def test_defining_identity(self):
        # tr(T tr2(s)) = tr((T (x) 1) s) over all matrix-unit test operators T
        rng = rng_from_seed(3)
        s = random_matrix(rng, 6)
        red = partial_trace_second(s, 2, 3)
        for i in range(2):
            for j in range(2):
                t = np.zeros((2, 2), dtype=complex)
                t[i, j] = 1.0
                lhs = np.trace(t @ red)
                rhs = np.trace(tensor(t, np.eye(3)) @ s)
                assert abs(lhs - rhs) < 1e-12

    def test_product_state(self):
        rng = rng_from_seed(4)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        assert spectral_norm(partial_trace_second(tensor(a, b), 2, 3)
                             - np.trace(b) * a) < 1e-12

    def test_identity(self):
        assert np.allclose(partial_trace_second(np.eye(4), 2, 2), 2 * np.eye(2))

    def test_pure_environment(self):
        rng = rng_from_seed(5)
        s = random_matrix(rng, 3)
        eta = random_unit_vector(rng, 4)
        env = np.outer(eta, np.conj(eta))
        assert spectral_norm(partial_trace_second(tensor(s, env), 3, 4) - s) < 1e-12

    def test_first_factor(self):
        rng = rng_from_seed(6)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        assert spectral_norm(linops.partial_trace_first(tensor(a, b), 2, 3)
                             - np.trace(a) * b) < 1e-12

    def test_shape_error(self):
        with pytest.raises(DimensionError):
            partial_trace_second(np.eye(5), 2, 3)


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
        with pytest.raises(DimensionError):
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
        with pytest.raises(DimensionError, match="non-finite"):
            expm(stack)

    def test_non_square_last_axes(self):
        with pytest.raises(DimensionError, match="square"):
            expm(np.zeros((4, 2, 3)))

    @pytest.mark.parametrize("a", [np.zeros(3), 1.0], ids=["vector", "scalar"])
    def test_fewer_than_two_axes(self, a):
        with pytest.raises(DimensionError, match="ndim"):
            expm(a)


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
        with pytest.raises(DimensionError):
            exp_derivative(np.eye(2), np.eye(3))

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
            with pytest.raises(DimensionError):
                norm(stack)
            with pytest.raises(DimensionError):
                norm(stack[1])

    def test_vector_rejected(self):
        for norm in (spectral_norm, trace_norm):
            with pytest.raises(DimensionError):
                norm(np.ones(3))


class TestAlgebra:
    def test_pauli_commutator(self):
        assert spectral_norm(commutator(SIGMA_X, SIGMA_Z) + 2j * SIGMA_Y) < 1e-15

    def test_anticommutator_symmetric(self):
        rng = rng_from_seed(13)
        a = random_matrix(rng, 3)
        assert np.allclose(anticommutator(a, a), 2 * a @ a)

    def test_adjoint_identity(self):
        rng = rng_from_seed(14)
        s = random_matrix(rng, 3)
        assert np.array_equal(adjoint_action(np.eye(3), s), s)

    def test_adjoint_preserves_trace_and_spectrum(self):
        rng = rng_from_seed(15)
        u = random_unitary(rng, 4)
        s = random_hermitian(rng, 4)
        out = adjoint_action(u, s)
        assert abs(np.trace(out) - np.trace(s)) < 1e-12
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(s),
                           atol=1e-12)


class TestDissipative:
    def test_skew_hermitian(self):
        rng = rng_from_seed(16)
        h = random_hermitian(rng, 4)
        assert is_dissipative_hilbert(1j * h)

    def test_identity_not(self):
        assert not is_dissipative_hilbert(np.eye(3))

    def test_shifted(self):
        assert is_dissipative_hilbert(-np.eye(2) + 1j * SIGMA_Y)

    def test_contraction_consequence(self):
        rng = rng_from_seed(17)
        a = random_dissipative(rng, 3)
        assert is_dissipative_hilbert(a, 1e-10)
        for alpha in (0.1, 1.0, 10.0):
            assert spectral_norm(expm(alpha * a)) <= 1 + 1e-9


class TestPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_negative(self):
        assert not is_psd(-np.eye(3))

    def test_gram(self):
        rng = rng_from_seed(18)
        b = random_matrix(rng, 4)
        assert is_psd(b @ linops.dagger(b))

    def test_non_hermitian(self):
        assert not is_psd(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPerturbationBound:
    def test_sampled_dissipative_pairs(self):
        rng = rng_from_seed(19)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            x = random_dissipative(rng, d)
            y = random_dissipative(rng, d)
            assert spectral_norm(expm(x + y) - expm(x)) \
                <= spectral_norm(y) + 1e-10


class TestVectorization:
    def test_round_trip(self):
        rng = rng_from_seed(20)
        x = random_matrix(rng, 3)
        assert np.array_equal(linops.unvec(linops.vec(x), 3), x)

    def test_column_stacking(self):
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(linops.vec(x), [1, 3, 2, 4])

    def test_left_right_multiplication(self):
        rng = rng_from_seed(21)
        a = random_matrix(rng, 3)
        x = random_matrix(rng, 3)
        assert np.allclose(SuperOp.left_multiplication(a).apply(x), a @ x)
        assert np.allclose(SuperOp.right_multiplication(a).apply(x), x @ a)

    def test_conjugation_matches_adjoint_action(self):
        rng = rng_from_seed(22)
        u = random_unitary(rng, 3)
        x = random_matrix(rng, 3)
        assert np.allclose(SuperOp.conjugation_by(u).apply(x),
                           adjoint_action(u, x))

    def test_commutator_superop(self):
        rng = rng_from_seed(23)
        a = random_matrix(rng, 3)
        x = random_matrix(rng, 3)
        assert np.allclose(SuperOp.commutator_with(a).apply(x), commutator(a, x))
        assert np.allclose(SuperOp.anticommutator_with(a).apply(x),
                           anticommutator(a, x))

    def test_kraus_operators_of_different_sizes(self):
        with pytest.raises(DimensionError, match=r"\(2, 2\) and \(1, 1\)"):
            SuperOp.from_kraus([np.eye(2) / 2, np.eye(1)])


class TestMatrixLiteral:
    def test_round_trip(self):
        rng = rng_from_seed(24)
        m = random_matrix(rng, 3)
        lit = linops.matrix_to_literal(m)
        assert np.array_equal(linops.matrix_from_literal(lit), m)

    def test_malformed(self):
        from graphdyn.errors import InputError
        with pytest.raises(InputError):
            linops.matrix_from_literal([[1, 2], [3]])

    @pytest.mark.parametrize("scalar", [["1.5", 0], [0, True], [float("nan"), 0],
                                        [0, float("inf")], [10**400, 0], [1], 1.5, None],
                             ids=["string", "bool", "nan", "inf", "huge", "short",
                                  "number", "null"])
    def test_scalar_must_be_two_finite_numbers(self, scalar):
        from graphdyn.errors import InputError
        with pytest.raises(InputError, match="matrix literal"):
            linops.matrix_from_literal([[[1.0, 0.0], scalar]])

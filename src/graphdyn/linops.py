"""Dense complex linear-algebra kernel.

All matrices are ``numpy`` arrays of ``complex128``.  Superoperators act on
column-stacked vectorizations; that convention is fixed here once and is
asserted by a round-trip test.  Everything in this module is a pure function
of its inputs.
"""

import numpy as np

from .errors import DimensionError, InputError, is_number, reading

DEFAULT_TOL = 1e-10


def as_matrix(a):
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise DimensionError("matrix has non-finite entries")
    return m


def _square(a):
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def eye(d):
    return np.eye(d, dtype=complex)


def dagger(a):
    return np.conj(np.asarray(a)).T


def tensor(a, b):
    """Kronecker product; the first factor is the slow index."""
    return np.kron(as_matrix(a), as_matrix(b))


def tensor_vec(x, y):
    """Kronecker product of vectors, same index convention as :func:`tensor`."""
    return np.kron(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))


def partial_trace_second(m, d1, d2):
    """Trace out the second tensor factor of an operator on C^d1 (x) C^d2."""
    m = as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise DimensionError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    return np.einsum("aibi->ab", m.reshape(d1, d2, d1, d2))


def partial_trace_first(m, d1, d2):
    """Trace out the first tensor factor of an operator on C^d1 (x) C^d2."""
    m = as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise DimensionError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    return np.einsum("aiaj->ij", m.reshape(d1, d2, d1, d2))


def _finite_stack(a):
    """Coerce to a complex matrix or (..., m, n) stack with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DimensionError("matrix has non-finite entries")
    return a


def expm(a):
    """Matrix exponential (scaling-and-squaring with Pade approximants) of a
    matrix, or of each matrix of a (..., n, n) stack.  scipy exponentiates a
    stack matrix by matrix, so each result is bitwise the single-matrix one."""
    m = _finite_stack(a)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    import scipy.linalg  # local import: slow, and most CLI commands never need it
    return scipy.linalg.expm(m)


def exp_derivative(x, y, t=0.0):
    """Derivative of ``t -> expm(x + t*y)``: the Frechet derivative of expm
    at ``x + t*y`` in the direction ``y`` (Al-Mohy & Higham 2009)."""
    x = _square(x)
    y = as_matrix(y)
    if y.shape != x.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    import scipy.linalg
    return scipy.linalg.expm_frechet(x + t * y, y, compute_expm=False)


def _singular_values(a):
    """Singular values of a matrix, or of each matrix of a (..., m, n) stack;
    an empty matrix has the single singular value 0."""
    a = _finite_stack(a)
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        return np.zeros(a.shape[:-2] + (1,))
    return np.linalg.svd(a, compute_uv=False)


def spectral_norm(a):
    """Largest singular value.  A stack of shape (..., m, n) gives one norm
    per matrix as an array; a single matrix gives a float."""
    norms = _singular_values(a)[..., 0]
    return float(norms) if norms.ndim == 0 else norms


def trace_norm(a):
    """Sum of singular values, per matrix of a stack as for
    :func:`spectral_norm`."""
    norms = _singular_values(a).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def commutator(a, b):
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def anticommutator(a, b):
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def adjoint_action(u, s):
    """Conjugation ``s -> u s u*``."""
    u, s = _square(u), _square(s)
    if u.shape != s.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {s.shape}")
    return u @ s @ dagger(u)


def hermitian_part(a):
    a = _square(a)
    return 0.5 * (a + dagger(a))


def is_hermitian(a, tol=DEFAULT_TOL):
    a = _square(a)
    return spectral_norm(a - dagger(a)) <= tol


def is_dissipative_hilbert(a, tol=DEFAULT_TOL):
    """True iff the Hermitian part of ``a`` is negative semidefinite.

    This is the Hilbert-space criterion for generating a contraction
    semigroup: when it holds, ``spectral_norm(expm(alpha*a)) <= 1`` for all
    alpha > 0.
    """
    h = hermitian_part(a)
    return float(np.linalg.eigvalsh(h).max()) <= tol


def is_psd(a, tol=DEFAULT_TOL):
    """True iff ``a`` is Hermitian within ``tol`` and has min eigenvalue >= -tol."""
    a = _square(a)
    if not is_hermitian(a, tol):
        return False
    return float(np.linalg.eigvalsh(hermitian_part(a)).min()) >= -tol


# -- column-stacking vectorization (fixed globally) --------------------------

def vec(x):
    """Column-stacking vectorization of a d x d matrix."""
    return _square(x).reshape(-1, order="F")


def unvec(v, d):
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex)
    if v.size != d * d:
        raise DimensionError(f"expected a vector of length {d * d}, got {v.size}")
    return v.reshape(d, d, order="F")


def matrix_units(d):
    """The d^2 matrix units E_ij as a (d^2, d, d) array, ordered row-major in
    (i, j)."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


# Choi convention: ``choi = sum_ij Phi(E_ij) (x) E_ij`` (output factor first),
# so choi[(a, i), (b, j)] = Phi(E_ij)[a, b] = superop[a + b d, i + j d].

def choi_to_superop(choi, d):
    """Column-stacking superoperator matrix of the map with this Choi matrix."""
    return as_matrix(choi).reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def superop_to_choi(m, d):
    """Inverse of :func:`choi_to_superop`."""
    return as_matrix(m).reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


class SuperOp:
    """Linear map on d x d matrices, stored as a d^2 x d^2 matrix.

    The matrix acts on column-stacked vectorizations: ``apply(X)`` is
    ``unvec(matrix @ vec(X))``.
    """

    def __init__(self, dim, matrix):
        self.dim = int(dim)
        m = as_matrix(matrix)
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionError(
                f"superoperator on dim {self.dim} needs shape "
                f"{(self.dim**2, self.dim**2)}, got {m.shape}"
            )
        self.matrix = m

    def apply(self, x):
        x = _square(x)
        if x.shape != (self.dim, self.dim):
            raise DimensionError(f"expected {self.dim}x{self.dim} input, got {x.shape}")
        return unvec(self.matrix @ vec(x), self.dim)

    def __matmul__(self, other):
        return SuperOp(self.dim, self.matrix @ _coerce_super(other, self.dim))

    def expm(self, alpha=1.0):
        return SuperOp(self.dim, expm(alpha * self.matrix))

    @classmethod
    def zero(cls, dim):
        return cls(dim, np.zeros((dim**2, dim**2), dtype=complex))

    @classmethod
    def left_multiplication(cls, a):
        """X -> a X."""
        a = _square(a)
        d = a.shape[0]
        return cls(d, tensor(eye(d), a))

    @classmethod
    def right_multiplication(cls, a):
        """X -> X a."""
        a = _square(a)
        d = a.shape[0]
        return cls(d, tensor(a.T, eye(d)))

    @classmethod
    def commutator_with(cls, a):
        """X -> [a, X]."""
        a = _square(a)
        d = a.shape[0]
        return cls(d, tensor(eye(d), a) - tensor(a.T, eye(d)))

    @classmethod
    def anticommutator_with(cls, a):
        """X -> {a, X}."""
        a = _square(a)
        d = a.shape[0]
        return cls(d, tensor(eye(d), a) + tensor(a.T, eye(d)))

    @classmethod
    def conjugation_by(cls, u):
        """X -> u X u*."""
        u = _square(u)
        d = u.shape[0]
        return cls(d, tensor(np.conj(u), u))

    @classmethod
    def from_kraus(cls, kraus_ops):
        """X -> sum_i K_i X K_i*."""
        ks = [_square(k) for k in kraus_ops]
        d = ks[0].shape[0]
        m = np.zeros((d * d, d * d), dtype=complex)
        for k in ks:
            if k.shape != ks[0].shape:
                raise DimensionError(f"Kraus operators of shapes {ks[0].shape} "
                                     f"and {k.shape}")
            m += tensor(np.conj(k), k)
        return cls(d, m)


def _coerce_super(other, dim):
    if isinstance(other, SuperOp):
        if other.dim != dim:
            raise DimensionError("superoperator dimensions differ")
        return other.matrix
    return as_matrix(other)


# -- JSON matrix literals (shared with the CLI configs) ----------------------

def matrix_to_literal(a):
    """Nested lists with each scalar as [re, im]."""
    a = as_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _literal_scalar(z):
    """``[re, im]``, two finite numbers, as a complex number."""
    if not (is_number(z[0]) and is_number(z[1])):
        raise InputError(f"matrix literal scalar {z!r} is not [re, im] of finite numbers")
    return complex(float(z[0]), float(z[1]))


@reading("matrix literal")
def matrix_from_literal(lit):
    """Parse the nested-array literal; shape is inferred from nesting."""
    rows = [[_literal_scalar(z) for z in row] for row in lit]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputError("matrix literal rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


# -- common constant matrices -------------------------------------------------

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

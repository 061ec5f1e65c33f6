"""Dense complex linear-algebra kernel.

All matrices are ``numpy`` arrays of ``complex128``.  A superoperator, a
linear map on d x d matrices, is always its d^2 x d^2 matrix on
column-stacked inputs; :func:`superop_apply` is the one way to apply it, and
``tests/test_linops.py`` states the convention with ``order="F"`` reshapes.
Everything in this module is a pure function of its inputs.
"""

import numpy as np

from .errors import DimensionError, InputError, is_number, reading

DEFAULT_TOL = 1e-10


def as_matrix(a, stack=False):
    """Coerce to a 2-d complex array, or with ``stack`` to a matrix or a
    (..., m, n) stack, with finite entries.  One ``isfinite`` pass checks the
    real and the imaginary parts."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DimensionError("matrix has non-finite entries")
    return m


def _square(a, stack=False):
    m = as_matrix(a, stack)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def eye(d):
    return np.eye(d, dtype=complex)


def dagger(a):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    a = np.conj(np.asarray(a))
    return a.swapaxes(-1, -2) if a.ndim > 1 else a


def _kron(a, b):
    """Kronecker product of checked (..., m, n) stacks, one broadcast product:
    entry for entry the products np.kron forms."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (m * p, n * q))


def tensor(a, b):
    """Kronecker product; the first factor is the slow index."""
    return _kron(as_matrix(a), as_matrix(b))


def partial_trace_first(m, d1, d2):
    """Trace out the first tensor factor of an operator on C^d1 (x) C^d2, or
    of each operator of a (..., d1 d2, d1 d2) stack."""
    m = as_matrix(m, stack=True)
    if m.shape[-2:] != (d1 * d2, d1 * d2):
        raise DimensionError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    return np.einsum("...aiaj->...ij", m.reshape(m.shape[:-2] + (d1, d2, d1, d2)))


def expm(a):
    """Matrix exponential (scaling-and-squaring with Pade approximants) of a
    matrix, or of each matrix of a (..., n, n) stack."""
    m = _square(a, stack=True)
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
    """Singular values of a checked matrix, or of each matrix of a (..., m, n)
    stack; an empty matrix has the single singular value 0."""
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        return np.zeros(a.shape[:-2] + (1,))
    return np.linalg.svd(a, compute_uv=False)


def spectral_norm(a):
    """Largest singular value.  A stack of shape (..., m, n) gives one norm
    per matrix as an array; a single matrix gives a float."""
    norms = _singular_values(as_matrix(a, stack=True))[..., 0]
    return float(norms) if norms.ndim == 0 else norms


def screened_norms(a, tol, shift=0.0, offenders=False):
    """``spectral_norm(a) - shift`` for an (N, m, n) stack, exact only where
    it can decide a :func:`graphdyn.reports.defect_report` on ``tol``.  The
    bound ``|A|_2 <= |A* A|_F^(1/2)`` (Golub & Van Loan §2.3) sends to the
    SVD the matrix of the largest bound; then every matrix whose bound is not
    below the largest value (ties and NaN too) unless it is at most
    ``min(tol, 0)``; and with ``offenders`` every one not ``<= tol``.  The
    rest get ``-inf``: not a witness, not failing, so no field moves."""
    a = as_matrix(a, stack=True)
    if not a.size:
        return spectral_norm(a) - shift
    shift = np.broadcast_to(shift, a.shape[:1])
    # each matrix scaled exactly, by a power of two, to parts below 1
    exp = np.frexp(np.maximum(abs(a.real), abs(a.imag)).max(axis=(1, 2)))[1]
    x = np.ldexp(a.real, -exp[:, None, None]) + 1j * np.ldexp(a.imag, -exp[:, None, None])
    gram = np.linalg.norm(dagger(x) @ x, axis=(1, 2))  # Frobenius, per matrix
    with np.errstate(over="ignore", invalid="ignore"):  # inf, and inf - inf
        # margin far over bound and SVD rounding (Higham ch. 6); both round once
        hi = np.ldexp(np.sqrt(gram) * (1 + 1e-10), exp) - shift
    exact = ~(hi <= tol) if offenders else np.zeros(len(a), dtype=bool)
    exact[np.argmax(hi)] = True
    out = np.full(len(a), -np.inf)
    out[exact] = spectral_norm(a[exact]) - shift[exact]
    # one pass: the largest value only grows past the bounds left below it
    late = ~exact & ~(hi < out.max()) & ~(hi <= min(tol, 0.0))
    if late.any():
        out[late] = spectral_norm(a[late]) - shift[late]
    return out


def trace_norm(a):
    """Sum of singular values, per matrix of a stack as for
    :func:`spectral_norm`."""
    norms = _singular_values(as_matrix(a, stack=True)).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def commutator(a, b):
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def hermitian_part(a):
    """(a + a*) / 2, of a matrix or of each matrix of a stack."""
    a = _square(a, stack=True)
    return 0.5 * (a + dagger(a))


def is_hermitian(a, tol=DEFAULT_TOL):
    a = _square(a)
    return bool(_singular_values(a - dagger(a))[0] <= tol)


def is_psd(a, tol=DEFAULT_TOL):
    """True iff ``a`` is Hermitian within ``tol`` and has min eigenvalue >= -tol."""
    a = _square(a)
    if not _singular_values(a - dagger(a))[0] <= tol:
        return False
    return float(np.linalg.eigvalsh(0.5 * (a + dagger(a))).min()) >= -tol


# -- superoperators: d^2 x d^2 column-stacking matrices (fixed globally) ------
#
# A linear map on d x d matrices is the d^2 x d^2 matrix M with
# M @ x.reshape(-1, order="F") == f(x).reshape(-1, order="F"): entry
# x[i, j] sits at index i + j d of the column-stacked x.

def superop_apply(m, x):
    """The map with column-stacking matrix ``m`` at ``x``.  Either side may be
    a stack, (..., d^2, d^2) or (..., d, d); the stacks broadcast, and each
    result is one matrix-vector product."""
    m, x = _square(m, stack=True), _square(x, stack=True)
    d = x.shape[-1]
    if m.shape[-1] != d * d:
        raise DimensionError(f"superoperator of shape {m.shape[-2:]} at {d}x{d} input")
    # the column-stacked x is x^T flattened row-major: a (d^2, 1) column per matrix
    cols = x.swapaxes(-1, -2).reshape(x.shape[:-2] + (d * d, 1))
    out = m @ cols
    return out.reshape(out.shape[:-2] + (d, d)).swapaxes(-1, -2)


def commutator_superop(a):
    """X -> [a, X]."""
    a = _square(a)
    d = a.shape[0]
    return _kron(eye(d), a) - _kron(a.T, eye(d))


def anticommutator_superop(a):
    """X -> {a, X}."""
    a = _square(a)
    d = a.shape[0]
    return _kron(eye(d), a) + _kron(a.T, eye(d))


def conjugation_superop(u):
    """X -> u X u*."""
    u = _square(u)
    return _kron(np.conj(u), u)


def kraus_superop(kraus_ops):
    """X -> sum_i K_i X K_i*.  Every conj(K_i) (x) K_i comes from one
    broadcast product; they are added in list order, starting from zeros."""
    ks = [np.asarray(k, dtype=complex) for k in kraus_ops]
    if not ks:
        raise DimensionError("a kraus channel needs at least one operator")
    for k in ks:
        if k.shape != ks[0].shape:
            raise DimensionError(f"Kraus operators of shapes {ks[0].shape} "
                                 f"and {k.shape}")
    if ks[0].ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={ks[0].ndim}")
    ks = _square(np.stack(ks), stack=True)
    d = ks.shape[-1]
    m = np.zeros((d * d, d * d), dtype=complex)
    for term in _kron(np.conj(ks), ks):
        m += term
    return m


def matrix_units(d):
    """The d^2 matrix units E_ij as a (d^2, d, d) array, ordered row-major in
    (i, j)."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


# Choi convention: ``choi = sum_ij Phi(E_ij) (x) E_ij`` (output factor first),
# so choi[(a, i), (b, j)] = Phi(E_ij)[a, b] = superop[a + b d, i + j d].

def _reshuffle(m, d, axes):
    """Permute the four d-indices of a d^2 x d^2 matrix or of each of a stack."""
    m = as_matrix(m, stack=True)
    n = m.ndim - 2
    return m.reshape(m.shape[:n] + (d,) * 4).transpose(
        *range(n), *(n + a for a in axes)).reshape(m.shape[:n] + (d * d, d * d))


def choi_to_superop(choi, d):
    """Column-stacking superoperator matrix of the map with this Choi matrix,
    or of each map of a stack."""
    return _reshuffle(choi, d, (2, 0, 3, 1))


def superop_to_choi(m, d):
    """Inverse of :func:`choi_to_superop`."""
    return _reshuffle(m, d, (1, 3, 0, 2))


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

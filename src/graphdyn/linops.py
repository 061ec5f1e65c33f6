"""Dense complex linear-algebra kernel.

All matrices are ``numpy`` arrays of ``complex128``.  A superoperator, a
linear map on d x d matrices, is always its d^2 x d^2 matrix on
column-stacked inputs; :func:`superop_apply` is the one way to apply it, and
``tests/test_linops.py`` states the convention with ``order="F"`` reshapes.
Everything in this module is a pure function of its inputs.
"""

import numpy as np

from .errors import InputError, is_number, reading

DEFAULT_TOL = 1e-10


def as_matrix(a, stack=False):
    """Coerce to a 2-d complex array, or with ``stack`` to a matrix or a
    (..., m, n) stack, with finite entries.  One ``isfinite`` pass checks the
    real and the imaginary parts."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise InputError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InputError("matrix has non-finite entries")
    return m


def _square(a, stack=False):
    m = as_matrix(a, stack)
    if m.shape[-1] != m.shape[-2]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
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


def partial_trace_first(m, d1, d2):
    """Trace out the first tensor factor of an operator on C^d1 (x) C^d2, or
    of each operator of a (..., d1 d2, d1 d2) stack."""
    m = as_matrix(m, stack=True)
    if m.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValueError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
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
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
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


def _gram_roots(x):
    """``|X* X|_F^(1/2)`` per matrix of an (N, m, n) stack: an upper bound of
    ``|X|_2`` that is never above ``|X|_F`` (Golub & Van Loan §2.3)."""
    return np.sqrt(np.linalg.norm(dagger(x) @ x, axis=(1, 2)))


def screened_norms(a, tol, shift=0.0, offenders=False):
    """``spectral_norm(a) - shift`` for an (N, m, n) stack, exact only where
    it can decide a :func:`graphdyn.reports.defect_report` on ``tol``; a
    non-finite entry is an input error.  See :func:`_screen`."""
    return _screen(as_matrix(a, stack=True), tol, shift, offenders, -np.inf)


def _screen(a, tol, shift, offenders, held):
    """:func:`screened_norms` of an (N, m, n) complex stack whose entries are
    known to be finite: nothing here checks them again.  ``held`` is the
    largest exact value of the report's earlier blocks (``-inf`` for none):
    a matrix whose bound is below it can be neither the witness nor, unless
    ``held`` already fails, a failure, so it is screened as if below an
    exact value of this stack.

    Two upper bounds screen the SVD (Golub & Van Loan §2.3).  The Frobenius
    bound ``|A|_2 <= |A|_F`` of every matrix sends the matrix of the largest
    bound to the SVD.  The Gram bound ``|A|_2 <= |A* A|_F^(1/2)`` is formed
    only for the matrices the Frobenius bound leaves open: not below that
    first exact value, not at most ``min(tol, 0)``, and with ``offenders``
    not within ``tol``.  Of those, the SVD gets the matrix of the largest
    bound; then every matrix whose bound is not below the largest value (ties
    and NaN too) unless it is at most ``min(tol, 0)``; and with ``offenders``
    every one not ``<= tol``.  The rest get ``-inf``: not a witness, not
    failing, so no field moves.  Only the first exact value can be an SVD
    that a screen on the Gram bound alone would not run."""
    if not a.size:
        return _singular_values(a)[..., 0] - shift
    n = len(a)
    shift = np.broadcast_to(shift, (n,))
    parts = np.ascontiguousarray(a).view(float).reshape(n, -1)
    # each matrix scaled exactly, by a power of two, to parts below 1; the
    # largest part reduces down the columns of the transposed parts, because
    # a reduction along a short last axis costs numpy a loop per matrix
    exp = np.frexp(np.abs(parts.T, order="C").max(axis=0))[1]
    x = np.ldexp(parts, -exp[:, None])

    def bound(root, rows):
        with np.errstate(over="ignore", invalid="ignore"):  # inf, and inf - inf
            # margin far over bound and SVD rounding (Higham ch. 6); both round once
            return np.ldexp(root * (1 + 1e-10), exp[rows]) - shift[rows]

    def norms(rows):
        return _singular_values(a[rows])[..., 0] - shift[rows]

    hi = bound(np.sqrt(np.einsum("ij,ij->i", x, x)), slice(None))  # Frobenius
    floor = min(tol, 0.0)
    out = np.full(n, -np.inf)
    first = np.argmax(hi)
    sent = not hi[first] < held
    if sent:
        out[first] = norms([first])[0]
    known = max(out[first], held)  # the largest exact value so far
    todo = (~(hi < known) | offenders & ~(hi <= tol)) & ~(hi <= floor)
    todo[first] &= not sent
    if todo.any():
        hi[todo] = bound(_gram_roots(x[todo].view(complex).reshape((-1,) + a.shape[1:])),
                         todo)
        exact = todo & ~(hi <= tol) if offenders else np.zeros(n, dtype=bool)
        k = np.argmax(np.where(todo, hi, -np.inf))
        exact[k] |= not hi[k] < known
        if exact.any():
            out[exact] = norms(exact)
        # one pass: the largest value only grows past the bounds left below it
        late = todo & ~exact & ~(hi < max(out.max(), held)) & ~(hi <= floor)
        if late.any():
            out[late] = norms(late)
    return out


def trace_norm(a):
    """Sum of singular values, per matrix of a stack as for
    :func:`spectral_norm`."""
    norms = _singular_values(as_matrix(a, stack=True)).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def commutator(a, b):
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def hermitian_part(a):
    """(a + a*) / 2, of a matrix or of each matrix of a stack."""
    a = _square(a, stack=True)
    return 0.5 * (a + dagger(a))


def is_hermitian(a, tol=DEFAULT_TOL):
    a = _square(a)
    return bool(_singular_values(a - dagger(a))[0] <= tol)


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
        raise ValueError(f"superoperator of shape {m.shape[-2:]} at {d}x{d} input")
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


def kraus_superop(kraus_ops):
    """X -> sum_i K_i X K_i*, for a list of operators K_i, or that map for
    each Kraus list of an (S, k, d, d) array, as an (S, d^2, d^2) stack.
    Every conj(K_i) (x) K_i comes from one broadcast product; they are added
    in list order, starting from zeros, so a list in a stack gives the bits
    it gives alone."""
    if isinstance(kraus_ops, np.ndarray) and kraus_ops.ndim == 4:
        ks = _square(kraus_ops, stack=True)
    else:
        ks = [np.asarray(k, dtype=complex) for k in kraus_ops]
        if not ks:
            raise InputError("a kraus channel needs at least one operator")
        for k in ks:
            if k.shape != ks[0].shape:
                raise ValueError(f"Kraus operators of shapes {ks[0].shape} "
                                 f"and {k.shape}")
        if ks[0].ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={ks[0].ndim}")
        ks = _square(np.stack(ks), stack=True)
    d = ks.shape[-1]
    m = np.zeros(ks.shape[:-3] + (d * d, d * d), dtype=complex)
    for term in _kron(np.conj(ks), ks).swapaxes(0, -3):
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

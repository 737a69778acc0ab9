"""Dense complex matrix primitives: hermitian eigensolves, the batched
top eigenpair of the compressions behind every support value, the same
top eigenpair of one direction without the stack (``support_moment``,
``jnr_support`` and the solver's oracle of a lone side or of two sides of
unequal rank), the same top eigenvalue alone for callers that use no
eigenvector (Hausdorff sweeps, separation margins), the real linear solves
of the solver's KKT systems and its exact fibers, orthonormalization,
projectors and spectral norms.

Every routine is a pure function on small dense arrays (the intended regime is
ambient dimension up to a few dozen).  Results are deterministic for a fixed
input: eigenvalues are returned in ascending order and every eigenvector is
phase-normalized so that its first nonzero component is real and positive.
The one-direction eigenpair is bitwise its row of the stacked one: the
same checks, compression, kernel and phase rule, in Python scalars where
the stack would wrap a lone direction.  Rank-one compressions are solved
in closed form, bitwise LAPACK's n = 1 result: the real part of the entry,
and the eigenvector 1.  Every other eigensolve goes through one kernel,
``_eigh`` and ``_eigvalsh``, which calls the LAPACK gufuncs of
``numpy.linalg._umath_linalg`` directly: bitwise ``np.linalg.eigh`` and
``eigvalsh``, without their per-call wrapper, which costs about as much as
the solve of a small compression itself.  Every linear solve goes through
``_lu_solve`` beside them, which calls the real LU gufuncs alike: bitwise
numpy's ``linalg.solve``.  The least-squares solves of the solver's exact
fiber, at most two per solve (its minimum-norm point, and the
pseudo-inverse of its phase I) and so outside every loop, go through
``_lstsq``, numpy's public ``linalg.lstsq``.  Array arguments pass
``_numbers`` (a lone direction the same checks in Python scalars) and
scalars ``_integer`` or ``_real``: booleans, strings, objects, complex
directions and scalars, and non-finite reals fail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

# Tolerance on max entrywise asymmetry |A - A*|, relative to the largest real
# or imaginary part of an entry, or to the smallest normal float below it.
HERMITIAN_ATOL = 1e-12
# A Gram-Schmidt residual below this fraction of the input norm drops the column.
RANK_DROP_TOL = 1e-10
# Largest max |Q*Q - I| accepted from columns claimed orthonormal.
ORTHONORMAL_TOL = 1e-10
# Components below this threshold do not qualify as the "first nonzero" entry
# when fixing eigenvector phases (unit columns always carry a larger one).
_PHASE_TOL = 1e-9
_FLOAT_MAX = float(np.finfo(np.float64).max)
# Defaults of the solver (feasibility) and of check_minimal (minimality),
# which re-export them.  They live here because the CLI parser needs them
# before a command loads its solver module.
# Diagonal-difference norm below which the sets are declared intersecting.
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 50_000
# Relative width (times ||M||) of the eigenvalue cluster taken as the
# extreme eigenspaces.
DEFAULT_EIG_TOL = 1e-8


class NonHermitianError(ValueError):
    """Raised when an input matrix is not self-adjoint within tolerance."""

    def __init__(self, asymmetry: float, atol: float):
        self.asymmetry = float(asymmetry)
        self.atol = float(atol)
        super().__init__(
            f"matrix is not hermitian: max entry asymmetry {asymmetry:.3e} "
            f"exceeds tolerance {atol:.1e}"
        )


def _numbers(x, message: str, real: bool = True, n: int | None = None,
             what: str = "vector") -> np.ndarray:
    """``x`` as a float64 array, or complex128 when not ``real``; entries
    other than integers, floats and (when not ``real``) complex numbers raise
    ``ValueError(message)``.  With ``n``, ``x`` must be a finite n-vector."""
    a = np.asarray(x)
    if a.dtype.kind not in ("iuf" if real else "iufc"):
        raise ValueError(message)
    a = a.astype(np.float64 if real else np.complex128, copy=False)
    if n is not None:
        a = a.reshape(-1)
        if a.size != n:
            raise ValueError(f"{what} has dimension {a.size}, expected {n}")
        if not np.isfinite(a).all():
            raise ValueError(f"{what} has non-finite entries")
    return a


def _integer(value, name: str, least: int | None = None) -> int:
    """An integer argument, not a boolean, as an int of at least ``least``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer (got {value!r})")
    if least is not None and value < least:
        rule = "finite and nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {rule} (got {value})")
    return int(value)


def _real(value, name: str, nonnegative: bool = False) -> float:
    """A finite real argument, not a boolean, as a float (``nonnegative``: tolerances)."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number (got {value!r})")
    x = value if isinstance(value, int) else float(value)  # ints compare exactly
    if not -_FLOAT_MAX <= x <= _FLOAT_MAX or nonnegative and x < 0:
        rule = "finite and nonnegative" if nonnegative else "finite"
        raise ValueError(f"{name} must be {rule} (got {value})")
    return float(x)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    a = _numbers(a, "matrix entries must be numbers", real=False)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def require_hermitian(a) -> np.ndarray:
    """Validate a nonempty square matrix for hermiticity (max entrywise
    |A - A*| at most HERMITIAN_ATOL * max(s, tiny), s the largest real or
    imaginary part of an entry and tiny the smallest normal float) and
    return the symmetrized (A + A*)/2."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: shape {a.shape}")
    if not a.size:
        raise ValueError("matrix is empty")
    # Halves first, so that entries up to the float limit do not overflow;
    # scaling by 0.5 and 2 is exact in the normal range, so the result is
    # bitwise (A + A*)/2 there.
    half = 0.5 * a
    defect = 2.0 * float(np.max(np.abs(half - half.conj().T), initial=0.0))
    # Roundoff of a matrix built at scale s is relative to s at every scale;
    # a part, not a modulus, so the bound cannot overflow.  Below the normal
    # range roundoff is absolute, a few subnormal steps, hence the floor.
    s = max(float(np.finfo(np.float64).smallest_normal), float(abs(a.real).max()),
            float(abs(a.imag).max()))
    atol = HERMITIAN_ATOL * s
    if defect > atol:
        raise NonHermitianError(defect, atol)
    return half + half.conj().T


def _fix_phases(rows: np.ndarray) -> np.ndarray:
    """Rotate each (unit) row of a matrix so its first component above
    _PHASE_TOL is real > 0: times conj(pivot) / |pivot|."""
    first = (np.abs(rows) > _PHASE_TOL).argmax(axis=1)
    pivot = rows[np.arange(len(rows)), first, None]
    return rows * (pivot.conj() / abs(pivot))


def _fix_phase(row: np.ndarray) -> np.ndarray:
    """A lone (unit) row rotated as ``_fix_phases`` rotates each row of a
    stack, in Python scalars and bitwise as its gather: the sizes are
    numpy's own ``np.abs`` (Python's ``abs`` of a complex can differ in the
    last bit), and the phase is formed as numpy's complex / real division
    forms it, term for term, so that its zero parts keep their signs."""
    sizes = np.abs(row).tolist()
    for j, size in enumerate(sizes):
        if size > _PHASE_TOL:
            break
    else:
        j = 0  # as argmax of no qualifying entry
    pivot = row.item(j)
    re, im, s = pivot.real, pivot.imag, 1.0 / sizes[j]
    return row * complex((re - im * 0.0) * s, (-im - re * 0.0) * s)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns) of a complex128
    hermitian matrix or stack: the LAPACK gufunc ``np.linalg.eigh`` calls,
    without its per-call wrapper, so bitwise its result (``UPLO='L'``)."""
    w, v = _umath_linalg.eigh_lo(m, signature="D->dD")
    _require_finite_top(w)
    return w, v


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex128 hermitian matrix or stack,
    bitwise ``np.linalg.eigvalsh``, as ``_eigh``."""
    w = _umath_linalg.eigvalsh_lo(m, signature="D->d")
    _require_finite_top(w)
    return w


@np.errstate(all="ignore")
def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution x of a x = b for a square float64 matrix a and a
    float64 vector or matrix b: the LAPACK gufunc numpy's ``linalg.solve``
    calls, ``solve1`` for a vector and ``solve`` for a matrix, without its
    per-call wrapper, so bitwise its result.  A zero pivot fills the output
    with NaN, read off its first entry as the ``LinAlgError`` numpy raises.
    The floating-point flags are ignored inside, as numpy ignores overflow,
    division and underflow there, so a singular solve warns of nothing."""
    x = (_umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve)(a, b, signature="dd->d")
    if math.isnan(x.item(0)):
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution x of a x = b for a float64
    matrix a and a float64 vector or matrix b (for b = I, the
    pseudo-inverse of a): ``np.linalg.lstsq(a, b, rcond=None)[0]``
    (LAPACK ``gelsd``, singular values below eps * max(m, n) of the largest
    cut off).  A rank-deficient system solves like any other; an SVD that
    does not converge raises numpy's ``LinAlgError``."""
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _require_finite_top(w: np.ndarray) -> None:
    """Raise ``LinAlgError`` unless every top eigenvalue is finite.  A failed
    LAPACK solve fills its output with NaN, and every matrix that reaches
    the kernel is finite; no ``np.errstate`` is entered, so numpy's
    floating-point flags play no part.  In Python floats: cheaper than a
    numpy reduction on a lone direction."""
    if not all(map(math.isfinite, w[..., -1:].ravel().tolist())):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral decomposition A = V diag(w) V* of a hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the matching
    orthonormal, phase-fixed eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a hermitian matrix with deterministic output.

    Rejects inputs whose max entry asymmetry exceeds HERMITIAN_ATOL times
    the scale of their entries (``require_hermitian``).
    """
    w, v = _eigh(require_hermitian(a))
    return EigenDecomposition(eigenvalues=w, eigenvectors=_fix_phases(v.T).T)


def _compressions(table: np.ndarray, directions) -> np.ndarray:
    """The (k, r, r) compressions Q* diag(c) Q of the rows c of a (k, n)
    stack of finite real directions, each one real matmul of c against its
    table; a compression that overflows raises ``ValueError``.
    ``eigh`` and ``eigvalsh`` read only the lower triangle and the real part
    of the diagonal, so the compression is not symmetrized.
    """
    n, r = table.shape[-3:-1]
    # Every table as a (tables, n, 2 r^2) real stack: a lone table is a
    # stack of one, which the matmul broadcasts over the directions.
    real_table = table.reshape(-1, n, r * r).view(np.float64)
    # The message is built only on failure: this runs once per support value.
    try:
        d = _numbers(directions, "")
    except ValueError:
        d = None
    if (d is None or d.ndim != 2 or d.shape[1] != n or len(real_table) not in (1, len(d))
            or not (peak := abs(d).max(initial=0.0)) <= _FLOAT_MAX):
        raise ValueError(f"directions must be finite real rows of dimension {n}")
    # Row by row (a stacked matmul, not one GEMM), so that a row's compression
    # does not depend on the rows stacked with it.
    if peak > _FLOAT_MAX / 2:
        # The entries are at most max |c_i| up to roundoff, so only a
        # direction this close to the float limit can overflow them.
        with np.errstate(over="ignore"):
            if not np.isfinite(d[:, None, :] @ real_table).all():
                raise ValueError("directions are too large: the compression overflows")
    m = d[:, None, :] @ real_table
    return m.view(np.complex128).reshape(-1, r, r)


def compressed_top_eigh(table: np.ndarray, directions) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and top eigenvector, phase-fixed as in
    ``hermitian_eig``, of Q* diag(c) Q for each row c of a (k, n) stack of
    real directions: (k,) values and (k, r) vectors.  The bottom eigenpair
    of Q* diag(c) Q is the top one of -c, with the value negated.

    ``table`` is ``Subspace.compression_table``, the (n, r, r) products
    conj(q_i)^T q_i of the rows q_i of Q, so each compression is one real
    matmul of c against it.  A (k, n, r, r) stack of tables pairs one table
    with each direction, and a lone table is a stack of one, shared by all
    of them; every row comes out bitwise as from its own call.

    A rank-one compression is its own eigenvalue: for r = 1 the value is the
    real part of the entry and the vector is 1, bitwise what LAPACK's n = 1
    path returns (``W(1) = DBLE(A(1,1))``, ``Z = CONE``), with no solve.
    """
    m = _compressions(table, directions)
    if m.shape[1] == 1:
        return m[:, 0, 0].real, np.ones((len(m), 1), dtype=np.complex128)
    w, v = _eigh(m)
    return w[:, -1], _fix_phases(v[:, :, -1])


def _compressed_top_eigh1(table: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """``compressed_top_eigh`` of one direction: the top eigenvalue, as a
    Python float, and the phase-fixed top eigenvector, an (r,) array, of
    Q* diag(c) Q for one (n, r, r) table and a real array c of shape (n,);
    bitwise row 0 of ``compressed_top_eigh(table, c[None])``.

    It keeps every check of ``_compressions``, with its messages, but makes
    them in Python scalars from one ``tolist`` of c, and returns no stack of
    one: on a lone direction the stack's wrapping costs as much as the
    eigensolve.  The compression is the stacked path's matmul, a (1, 1, n)
    direction against the (1, n, 2 r^2) real table, so its bits are too.
    """
    n, r = table.shape[:2]
    if c.dtype.kind not in "iuf" or c.shape != (n,):
        raise ValueError(f"directions must be finite real rows of dimension {n}")
    c = c.astype(np.float64, copy=False)
    values = c.tolist()
    # An infinite entry makes the peak infinite or NaN, and a NaN one makes
    # the sum NaN (max misses a NaN after the first entry; finite entries
    # can overflow the sum to inf, but never to NaN).
    peak, total = max(map(abs, values)), sum(values)
    if not (peak <= _FLOAT_MAX and total == total):
        raise ValueError(f"directions must be finite real rows of dimension {n}")
    real_table = table.reshape(1, n, r * r).view(np.float64)
    if peak > _FLOAT_MAX / 2:
        # As in _compressions: only a direction this close to the float
        # limit can overflow an entry.
        with np.errstate(over="ignore"):
            if not np.isfinite(c[None, None] @ real_table).all():
                raise ValueError("directions are too large: the compression overflows")
    m = (c[None, None] @ real_table).view(np.complex128).reshape(r, r)
    if r == 1:
        return m.real.item(0), np.ones(1, dtype=np.complex128)
    w, v = _eigh(m)
    return w.item(-1), _fix_phase(v[:, -1])


def compressed_top_eigvalsh(table: np.ndarray, directions) -> np.ndarray:
    """The (k,) top eigenvalues of the compressions of
    ``compressed_top_eigh``, from the same table and directions, by a
    value-only solve (``eigvalsh``).  For callers that use no eigenvector;
    the values can differ from ``compressed_top_eigh``'s in the last bits.
    Every row comes out bitwise as from its own call, and rank-one
    compressions are solved in closed form as there.
    """
    m = _compressions(table, directions)
    if m.shape[1] == 1:
        return m[:, 0, 0].real
    return _eigvalsh(m)[:, -1]


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors.

    Modified Gram-Schmidt with a second re-orthogonalization pass; a vector is
    dropped when its residual falls below RANK_DROP_TOL times the largest input
    norm, so rank-deficient input yields fewer columns.  All-zero input yields
    an ``(n, 0)`` array.  Inputs of any finite scale are accepted.
    """
    cols = [_numbers(v, "vector entries must be numbers", real=False).reshape(-1) for v in vectors]
    if not cols:
        raise ValueError("no vectors given")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("vectors have inconsistent dimensions")
    parts = np.array(cols).view(np.float64)
    if not np.all(np.isfinite(parts)):
        raise ValueError("vector has non-finite entries")
    # One exact power of two brings the largest real or imaginary part into
    # [0.5, 1), so no norm below overflows or underflows.  The basis and the
    # rank decisions (RANK_DROP_TOL is relative) do not change.
    _, exponent = np.frexp(abs(parts).max(initial=0.0))
    cols = np.ldexp(parts, -exponent).view(np.complex128)
    scale = max(float(np.linalg.norm(c)) for c in cols)
    basis: list[np.ndarray] = []
    for v in cols:
        w = v.copy()
        for _ in range(2):
            for q in basis:
                w = w - q * np.vdot(q, w)
        norm = float(np.linalg.norm(w))
        if norm <= RANK_DROP_TOL * scale:
            continue
        basis.append(w / norm)
    if not basis:
        return np.zeros((n, 0), dtype=np.complex128)
    return np.column_stack(basis)


def require_orthonormal(q) -> np.ndarray:
    """Validate orthonormal columns (max |Q*Q - I| at most ORTHONORMAL_TOL)
    and return Q as a complex matrix."""
    q = as_complex_matrix(q)
    defect = float(np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])), initial=0.0))
    if defect > ORTHONORMAL_TOL:
        raise ValueError(f"columns are not orthonormal: max |Q*Q - I| = {defect:.3e}")
    return q


def projector(q) -> np.ndarray:
    """Orthogonal projector Q Q* onto the column span of an orthonormal Q."""
    q = require_orthonormal(q)
    p = q @ q.conj().T
    return 0.5 * (p + p.conj().T)


def spectral_norm(a) -> float:
    """Largest singular value."""
    a = as_complex_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))

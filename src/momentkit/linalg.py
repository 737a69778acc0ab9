"""Dense complex matrix primitives: hermitian eigensolves, the batched
compressed eigensolve behind every support value, orthonormalization,
projectors and spectral norms.

Every routine is a pure function on small dense arrays (the intended regime is
ambient dimension up to a few dozen).  Results are deterministic for a fixed
input: eigenvalues are returned in ascending order and every eigenvector is
phase-normalized so that its first nonzero component is real and positive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute tolerance on max entrywise asymmetry |A - A*|.
HERMITIAN_ATOL = 1e-12
# A Gram-Schmidt residual below this fraction of the input norm drops the column.
RANK_DROP_TOL = 1e-10
# Largest max |Q*Q - I| accepted from columns claimed orthonormal.
ORTHONORMAL_TOL = 1e-10
# Components below this threshold do not qualify as the "first nonzero" entry
# when fixing eigenvector phases (unit columns always carry a larger one).
_PHASE_TOL = 1e-9


class NonHermitianError(ValueError):
    """Raised when an input matrix is not self-adjoint within tolerance."""

    def __init__(self, asymmetry: float, atol: float):
        self.asymmetry = float(asymmetry)
        self.atol = float(atol)
        super().__init__(
            f"matrix is not hermitian: max entry asymmetry {asymmetry:.3e} "
            f"exceeds tolerance {atol:.1e}"
        )


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def require_hermitian(a) -> np.ndarray:
    """Validate hermiticity (max entrywise |A - A*| at most HERMITIAN_ATOL)
    and return the symmetrized matrix (A + A*)/2."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: shape {a.shape}")
    defect = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if defect > HERMITIAN_ATOL:
        raise NonHermitianError(defect, HERMITIAN_ATOL)
    return 0.5 * (a + a.conj().T)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each (unit) column of a matrix or stack so its first component
    above _PHASE_TOL is real > 0."""
    first = np.argmax(np.abs(vectors) > _PHASE_TOL, axis=-2)[..., None, :]
    pivot = np.take_along_axis(vectors, first, axis=-2)
    return vectors * (np.conj(pivot) / np.abs(pivot))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = V diag(w) V* of a hermitian matrix, or of
    each matrix of a stack (leading axes).

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the matching
    orthonormal, phase-fixed eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a hermitian matrix with deterministic output.

    Rejects inputs whose max entry asymmetry exceeds HERMITIAN_ATOL.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues=w, eigenvectors=_fix_phases(v))


def compressed_eigh(q: np.ndarray, directions) -> EigenDecomposition:
    """Eigendecompositions, as in ``hermitian_eig``, of Q* diag(c) Q for each
    row c of a (k, n) stack of real directions: (k, r) values, (k, r, r)
    vectors.  The compressions are hermitian by construction and only
    symmetrized: their roundoff grows with the scale of c and is no input
    error."""
    d = np.asarray(directions, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] != q.shape[0] or not np.all(np.isfinite(d)):
        raise ValueError(f"directions must be finite real rows of dimension {q.shape[0]}")
    m = q.conj().T @ (d[:, :, None] * q)
    m = 0.5 * (m + m.conj().swapaxes(-1, -2))
    if not np.all(np.isfinite(m)):
        raise ValueError("directions are too large: the compression overflows")
    w, v = np.linalg.eigh(m)
    return EigenDecomposition(eigenvalues=w, eigenvectors=_fix_phases(v))


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors.

    Modified Gram-Schmidt with a second re-orthogonalization pass; a vector is
    dropped when its residual falls below RANK_DROP_TOL times the largest input
    norm, so rank-deficient input yields fewer columns.  All-zero input yields
    an ``(n, 0)`` array.
    """
    cols = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not cols:
        raise ValueError("no vectors given")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("vectors have inconsistent dimensions")
    if any(not np.all(np.isfinite(c)) for c in cols):
        raise ValueError("vector has non-finite entries")
    scale = max(float(np.linalg.norm(c)) for c in cols)
    if scale == 0.0:
        return np.zeros((n, 0), dtype=np.complex128)

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


def projector(q) -> np.ndarray:
    """Orthogonal projector Q Q* onto the column span of an orthonormal Q."""
    q = as_complex_matrix(q)
    n, r = q.shape
    if r == 0:
        return np.zeros((n, n), dtype=np.complex128)
    gram = q.conj().T @ q
    defect = float(np.max(np.abs(gram - np.eye(r))))
    if defect > ORTHONORMAL_TOL:
        raise ValueError(
            f"columns are not orthonormal: max |Q*Q - I| = {defect:.3e}"
        )
    p = q @ q.conj().T
    return 0.5 * (p + p.conj().T)


def spectral_norm(a) -> float:
    """Largest singular value."""
    a = as_complex_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))

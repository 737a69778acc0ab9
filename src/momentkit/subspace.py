"""Subspaces of C^n with a fixed standard basis: construction, genericity,
principal standard vectors and the centroid of the moment set.

A subspace is generic (with respect to the standard basis) when its projector
has a strictly positive diagonal; exactly then every coordinate axis admits a
principal standard vector, the unit vector of the subspace closest in angle to
that axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (_integer, _numbers, hermitian_eig, orthonormalize, projector,
                     require_orthonormal, spectral_norm)

#: Projector diagonal entries at or below this threshold are not generic.
GENERIC_TOL = 1e-10
#: Largest ||P_a P_b|| of two subspaces taken as mutually orthogonal.
ORTHOGONAL_TOL = 1e-10


class NotGenericAtCoordinate(ValueError):
    """The subspace is orthogonal to a coordinate axis, so the requested
    principal standard vector does not exist."""

    def __init__(self, index: int, diagonal: float):
        self.index = index
        self.diagonal = float(diagonal)
        super().__init__(
            f"no principal vector at coordinate {index}: projector diagonal "
            f"entry {diagonal:.3e} is below tolerance"
        )


@dataclass(frozen=True, eq=False)
class Subspace:
    """An r-dimensional subspace of C^n, r >= 1, given by an n x r ``basis``
    with orthonormal columns, stored as complex (``ValueError`` when the
    basis is empty or max |Q*Q - I| exceeds ``linalg.ORTHONORMAL_TOL``).
    Everything else is derived from it.

    Instances are treated as immutable; operations never modify the stored
    arrays.  Equality and hashing are by identity.
    """

    basis: np.ndarray

    def __post_init__(self):
        q = require_orthonormal(self.basis)
        if q.shape[1] == 0:
            raise ValueError("empty basis: the span is the zero subspace")
        object.__setattr__(self, "basis", q)

    @cached_property
    def projector(self) -> np.ndarray:
        """The n x n orthogonal projector onto the span, computed once."""
        return projector(self.basis)

    @cached_property
    def compression_table(self) -> np.ndarray:
        """The n x r x r products conj(q_i)^T q_i of the rows q_i of the
        basis, computed once: Q* diag(c) Q = sum_i c_i table[i] (see
        ``linalg.compressed_top_eigh``)."""
        q = self.basis
        return np.multiply(q.conj()[:, :, None], q[:, None, :], order="C")

    @cached_property
    def complement_vector(self) -> np.ndarray:
        """A unit vector orthogonal to the span, computed once, with no
        eigensolve: (I - Q Q*) e_j normalized, for the coordinate j of the
        smallest row norm |q_j|, where its norm^2 = 1 - |q_j|^2 is at least
        1 - r/n.  ``ValueError`` for the whole space."""
        if self.is_whole_space:
            raise ValueError("the whole space has a trivial complement")
        q = self.basis
        j = int(np.argmin((abs(q) ** 2).sum(axis=1)))
        v = -(q @ q[j].conj())
        v[j] += 1.0
        return v / np.linalg.norm(v)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def r(self) -> int:
        return self.basis.shape[1]

    @property
    def is_whole_space(self) -> bool:
        return self.r == self.n

    def membership_residual(self, x) -> float:
        """Norm of (P x - x); zero iff x lies in the subspace."""
        x = _numbers(x, "vector entries must be numbers", real=False, n=self.n)
        return float(np.linalg.norm(self.projector @ x - x))


def subspace_from_spanning(vectors) -> Subspace:
    """Build a Subspace from any spanning set (numerical rank detection).

    Raises ``ValueError`` when the span is zero.  A span equal to all of C^n is
    allowed; it is flagged by ``Subspace.is_whole_space``.
    """
    return Subspace(orthonormalize(vectors))


def whole_space(n: int) -> Subspace:
    """The full space C^n."""
    return Subspace(np.eye(_integer(n, "n", 1), dtype=np.complex128))


@dataclass(frozen=True)
class GenericityReport:
    is_generic: bool
    offending: tuple[int, ...]


def is_generic(s: Subspace) -> GenericityReport:
    """Check that every projector diagonal entry exceeds GENERIC_TOL."""
    diag = np.real(np.diagonal(s.projector))
    offending = tuple(int(j) for j in np.flatnonzero(diag <= GENERIC_TOL))
    return GenericityReport(is_generic=not offending, offending=offending)


@dataclass(frozen=True, eq=False)
class PrincipalVector:
    """Principal standard vector at coordinate ``index``.

    ``v`` is the normalized projection of the standard basis vector onto the
    subspace, phase-fixed so its own coordinate ``index`` is real positive;
    ``top`` is that coordinate, the largest attainable modulus there over all
    unit vectors of the subspace.
    """

    index: int
    v: np.ndarray
    top: float


def principal_vector(s: Subspace, j: int) -> PrincipalVector:
    """Principal standard vector v^j = P e_j / ||P e_j||, with v^j_j > 0."""
    j = _integer(j, "j")
    if not 0 <= j < s.n:
        raise IndexError(f"coordinate {j} out of range for ambient dimension {s.n}")
    col = s.projector[:, j]
    diag = float(np.real(s.projector[j, j]))
    if diag <= GENERIC_TOL:
        raise NotGenericAtCoordinate(j, diag)
    norm = float(np.linalg.norm(col))
    v = col / norm
    # P e_j has real positive j-th entry up to roundoff; pin the phase exactly.
    pivot = v[j]
    v = v * (np.conj(pivot) / np.abs(pivot))
    return PrincipalVector(index=j, v=v, top=norm)


def centroid(s: Subspace) -> np.ndarray:
    """Centroid of the moment set: diag(P)/r.

    Equals the barycentre of the moment points of any orthonormal basis of the
    subspace, hence is independent of the basis choice.
    """
    return np.real(np.diagonal(s.projector)) / s.r


# ---------------------------------------------------------------------------
# Orthogonality.

def orthogonal_complement(s: Subspace) -> Subspace:
    """Orthogonal complement; rejects the whole space (empty complement)."""
    if s.is_whole_space:
        raise ValueError("the whole space has a trivial complement")
    dec = hermitian_eig(s.projector)
    return Subspace(dec.eigenvectors[:, dec.eigenvalues < 0.5])


def mutually_orthogonal(a: Subspace, b: Subspace) -> bool:
    return spectral_norm(a.projector @ b.projector) <= ORTHOGONAL_TOL

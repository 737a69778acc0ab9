"""The joint numerical range attached to a subspace and the standard basis.

For the rank-one tuple A_i = P e_i (P e_i)* (the axis projectors compressed to
the subspace), the joint numerical range W is the set of trace pairings
(tr(A_1 rho), ..., tr(A_n rho)) over density matrices rho.  W is convex and
its slice at coordinate sum one is exactly the moment set, so W and m_S
generate the same positive cone and cone membership reduces to a projection
onto m_S.

W is never stored as a geometric object; it exists through its exact support
oracle and through boundary points.  The support at c is the top eigenvalue of
the same r x r compression Q* diag(c) Q that gives the support of m_S,
floored at zero for a proper subspace; no n x n eigensolve is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feasibility import project_onto_moment
from .linalg import compressed_eigh, require_hermitian
from .subspace import Subspace, orthogonal_complement

#: PSD slack and trace tolerance for density-matrix validation.
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
#: Largest distance to the moment set of a normalized cone member.
CONE_TOL = 1e-6


def validate_density(rho) -> np.ndarray:
    """Validate a density matrix (hermitian, PSD, unit trace); returns the
    symmetrized copy.  Raises ``ValueError`` naming the violated invariant."""
    rho = require_hermitian(rho)
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace is {trace:.12g}, not 1 within {TRACE_TOL:.1e}")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < -PSD_TOL:
        raise ValueError(f"state has negative eigenvalue {smallest:.3e}")
    return rho


@dataclass(frozen=True)
class JNRPoint:
    """A point of the joint numerical range with the state producing it."""

    x: np.ndarray
    witness: np.ndarray


def delta_map(s: Subspace, rho) -> JNRPoint:
    """The trace-pairing point of a state: the diagonal of P rho P."""
    rho = validate_density(rho)
    if rho.shape[0] != s.n:
        raise ValueError(f"state has dimension {rho.shape[0]}, expected {s.n}")
    compressed = s.projector @ rho @ s.projector
    return JNRPoint(x=np.real(np.diagonal(compressed)).copy(), witness=rho)


@dataclass(frozen=True)
class JNRSupport:
    value: float
    witness: np.ndarray


def _supporting_vectors(s: Subspace, directions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support values of W along each row, unit vectors of C^n attaining them
    (Q u, u a top eigenvector of Q* diag(c) Q), and the rows where the value
    is floored at zero and attained by a complement vector instead."""
    dec = compressed_eigh(s.basis, directions)
    top = dec.eigenvalues[:, -1]
    vectors = dec.eigenvectors[:, :, -1] @ s.basis.T
    floored = (top < 0.0) & (not s.is_whole_space)
    if floored.any():
        vectors[floored] = orthogonal_complement(s).basis[:, 0]
    return np.where(floored, 0.0, top), vectors, floored


def jnr_support(s: Subspace, c) -> JNRSupport:
    """Exact support function of W at a real direction.

    The maximum of tr(A(c) rho) over density matrices, A(c) = P diag(c) P, is
    the top eigenvalue of the compression Q* diag(c) Q, floored at zero for a
    proper subspace (A(c) annihilates the orthogonal complement, so zero
    belongs to W); the witness is the rank-one state attaining it.
    """
    values, vectors, _ = _supporting_vectors(s, np.reshape(c, (1, -1)))
    return JNRSupport(value=float(values[0]), witness=np.outer(vectors[0], vectors[0].conj()))


def jnr_boundary(s: Subspace, directions) -> list[JNRPoint]:
    """Supporting points |P x|^2 of W for each direction (boundary sweep)."""
    directions = np.asarray(directions, dtype=np.float64)
    _, vectors, floored = _supporting_vectors(s, directions)
    if not np.all(np.any(directions, axis=1)):
        raise ValueError("directions must be nonzero")
    points = np.where(floored[:, None], 0.0, np.abs(vectors) ** 2)
    witnesses = vectors[:, :, None] * vectors.conj()[:, None, :]
    return [JNRPoint(x=x, witness=w) for x, w in zip(points, witnesses)]


@dataclass(frozen=True)
class ConeMembership:
    member: bool
    scaling: float
    moment_distance: float


def cone_membership(s: Subspace, x) -> ConeMembership:
    """Membership of a nonnegative vector in the cone generated by W.

    The cone of W equals the cone of the moment set, so x belongs exactly when
    x is zero or x normalized to coordinate sum one lies in m_S (within
    CONE_TOL); the returned scaling is that coordinate sum.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != s.n:
        raise ValueError(f"vector has dimension {x.size}, expected {s.n}")
    if np.min(x) < -1e-12:
        raise ValueError(f"vector has negative coordinate {float(np.min(x)):.3e}")
    total = float(x.sum())
    if total <= 1e-15:
        return ConeMembership(member=True, scaling=0.0, moment_distance=0.0)
    distance = project_onto_moment(s, x / total).distance
    return ConeMembership(member=distance <= CONE_TOL, scaling=total, moment_distance=distance)

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

Every support is attained by a pure state |Qu><Qu|, so a support row keeps
the unit vector Qu of C^n as its ``maximizer`` and builds the n x n state
``witness`` only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _numbers, compressed_top_eigh, require_hermitian
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class JNRSupport:
    """The support ``value`` of W along a direction, the boundary point ``x``
    attaining it, and the unit vector ``maximizer`` of C^n whose pure state
    attains it: x = |maximizer|^2, or the origin when the value is floored
    at zero and ``maximizer`` is a vector of the orthogonal complement."""

    value: float
    x: np.ndarray
    maximizer: np.ndarray

    @cached_property
    def witness(self) -> np.ndarray:
        """The rank-one state |maximizer><maximizer|, built on first read."""
        return np.outer(self.maximizer, self.maximizer.conj())


def _support_rows(s: Subspace, directions) -> list[JNRSupport]:
    """The support of W along each row of directions.  The maximizer is Q u,
    u a top eigenvector of Q* diag(c) Q; where the top value is negative on
    a proper subspace, the value is floored at zero and attained by a
    complement vector instead."""
    top, vectors = compressed_top_eigh(s.compression_table, directions)
    vectors = vectors @ s.basis.T
    floored = (top < 0.0) & (not s.is_whole_space)
    if floored.any():
        vectors[floored] = orthogonal_complement(s).basis[:, 0]
    values = np.where(floored, 0.0, top).tolist()
    points = np.where(floored[:, None], 0.0, np.abs(vectors) ** 2)
    return [JNRSupport(value=v, x=x, maximizer=u) for v, x, u in zip(values, points, vectors)]


def jnr_support(s: Subspace, c) -> JNRSupport:
    """Exact support function of W at a real direction.

    The maximum of tr(A(c) rho) over density matrices, A(c) = P diag(c) P, is
    the top eigenvalue of the compression Q* diag(c) Q, floored at zero for a
    proper subspace (A(c) annihilates the orthogonal complement, so zero
    belongs to W); the maximizer is the unit vector whose pure state attains
    it.
    """
    return _support_rows(s, np.asarray(c).reshape(1, -1))[0]


def jnr_boundary(s: Subspace, directions) -> list[JNRSupport]:
    """Supporting points of W for each direction (boundary sweep): one
    ``jnr_support`` row per direction, x = |Q u|^2 or the origin where the
    support is floored.  Only the unit vectors are stored; a row's n x n
    ``witness`` is built when it is read."""
    directions = _numbers(directions, f"directions must be finite real rows of dimension {s.n}")
    if directions.ndim == 2 and not directions.any(axis=1).all():
        raise ValueError("directions must be nonzero")
    return _support_rows(s, directions)


@dataclass(frozen=True)
class ConeMembership:
    member: bool
    scaling: float
    moment_distance: float


def cone_membership(s: Subspace, x) -> ConeMembership:
    """Membership of a nonnegative vector in the cone generated by W.

    The cone of W equals the cone of the moment set, so x belongs exactly when
    x is zero or x normalized to coordinate sum one lies in m_S (within
    CONE_TOL); the returned scaling is that coordinate sum, ``inf`` when it
    exceeds the float range.  The answer does not depend on the scale of x:
    only the zero vector counts as zero, and a negative coordinate is
    tolerated, and read as 0, down to -1e-12 times the largest |x_i|.
    """
    x = _numbers(x, "vector must have real entries", n=s.n)
    # Scale by the largest coordinate first, so that the sum cannot overflow.
    top = float(abs(x).max())
    if top == 0.0:
        return ConeMembership(member=True, scaling=0.0, moment_distance=0.0)
    y = x / top
    if y.min() < -1e-12:
        raise ValueError(f"vector has negative coordinate {float(np.min(x)):.3e}")
    y = np.maximum(y, 0.0)
    total = top * float(y.sum())
    # Imported here: support and boundary sweeps never load the solver.
    from .feasibility import project_onto_moment

    distance = project_onto_moment(s, y / y.sum()).distance
    return ConeMembership(member=distance <= CONE_TOL, scaling=total, moment_distance=distance)

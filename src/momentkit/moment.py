"""The moment set of a subspace: sampling, the exact support oracle, and the
curves of extreme points attached to pairs of principal standard vectors.

The moment set m_S is the convex hull of the squared-modulus coordinate
vectors |s|^2 of unit vectors s in S.  It is never materialized as a geometric
object; it exists through samples and through its support function, which is
an extreme eigenvalue of an r x r compression and therefore exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import compressed_eigh
from .subspace import PrincipalVector, Subspace, principal_vector

#: Linear-independence margin for a pair of principal vectors: independence of
#: {v^j, v^k} is equivalent to v^j_j > |v^k_j|, tested with this slack.
INDEPENDENCE_TOL = 1e-9

#: Membership tolerance for vectors claimed to lie in the subspace.
MEMBERSHIP_TOL = 1e-10


class DegenerateCurve(ValueError):
    """The two principal vectors are linearly dependent, so the connecting
    curve collapses to a point."""


class CurveInconsistency(RuntimeError):
    """A verified coordinate relation of the curve failed numerically."""


def moment_of_vector(s: Subspace, x) -> np.ndarray:
    """Moment point |x|^2 of a unit vector x of the subspace (norm and
    membership checked within MEMBERSHIP_TOL)."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.size != s.n:
        raise ValueError(f"vector has dimension {x.size}, expected {s.n}")
    norm_defect = abs(np.linalg.norm(x) - 1.0)
    if norm_defect > MEMBERSHIP_TOL:
        raise ValueError(f"vector is not normalized: | ||x|| - 1 | = {norm_defect:.3e}")
    residual = s.membership_residual(x)
    if residual > MEMBERSHIP_TOL:
        raise ValueError(f"vector is not in the subspace: ||P x - x|| = {residual:.3e}")
    return np.abs(x) ** 2


def sample_unit_vectors(s: Subspace, count: int, seed: int) -> np.ndarray:
    """Rows are unit vectors of the subspace, uniform with respect to the
    rotation-invariant measure (normalized complex Gaussian coefficients)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, s.r)) + 1j * rng.standard_normal((count, s.r))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z @ s.basis.T


def sample_moment(s: Subspace, count: int, seed: int) -> np.ndarray:
    """Moment points of ``count`` random unit vectors; deterministic per seed."""
    return np.abs(sample_unit_vectors(s, count, seed)) ** 2


@dataclass(frozen=True)
class MomentSupport:
    """Exact support value of the moment set in a direction, with a unit
    vector of the subspace attaining it."""

    value: float
    maximizer: np.ndarray


def support_moment(s: Subspace, c) -> MomentSupport:
    """Support function of m_S at a real direction c.

    max over unit x in S of sum_i c_i |x_i|^2 is the top eigenvalue of the
    compression Q* diag(c) Q; the maximizer is Q times its top eigenvector.
    """
    dec = compressed_eigh(s.basis, np.reshape(c, (1, -1)))
    value = float(dec.eigenvalues[0, -1])
    maximizer = s.basis @ dec.eigenvectors[0, :, -1]
    return MomentSupport(value=value, maximizer=maximizer)


# ---------------------------------------------------------------------------
# Curves joining principal moment points.

@dataclass(frozen=True)
class CurveFrame:
    """Geometry shared by all points of the curve from v^j toward v^k.

    ``w_tilde`` is the unit vector orthogonal to v^j obtained from v^k by
    Gram-Schmidt and the phase that makes the k-th coordinates of v^j and
    w_tilde share their argument.  ``t_end`` = arccos(|v^j_k| / v^k_k) is the
    parameter at which the curve passes through phase * v^k.
    """

    j: int
    k: int
    vj: PrincipalVector
    vk: PrincipalVector
    phase: complex
    w_tilde: np.ndarray
    t_end: float


@dataclass(frozen=True)
class CurveSample:
    """A point of the curve: the unit vector and its moment point."""

    j: int
    k: int
    t: float
    v: np.ndarray
    m: np.ndarray


@dataclass(frozen=True)
class EllipseParams:
    """Projection of the curve moduli to the (j, k) plane: t maps to
    cos(t) a + sin(t) b, part of an ellipse centred at the origin.

    ``segment`` marks the orthogonal case (a[1] = 0), where the squared curve
    degenerates to a straight segment.
    """

    j: int
    k: int
    a: np.ndarray
    b: np.ndarray
    t_end: float

    @property
    def segment(self) -> bool:
        return bool(self.a[1] <= 1e-12)


def curve_frame(s: Subspace, j: int, k: int) -> CurveFrame:
    """Validate the pair (j, k) and precompute the curve geometry.

    Raises ``NotGenericAtCoordinate`` when a principal vector is missing and
    ``DegenerateCurve`` when v^j and v^k are linearly dependent (equivalently
    v^j_j <= |v^k_j| within the independence margin).
    """
    if j == k:
        raise ValueError("curve endpoints must be distinct coordinates")
    vj = principal_vector(s, j)
    vk = principal_vector(s, k)
    if not vj.top - abs(vk.v[j]) > INDEPENDENCE_TOL:
        raise DegenerateCurve(
            f"principal vectors at coordinates {j} and {k} are linearly dependent"
        )
    cross = complex(vj.v[k])  # v^j_k
    phase = cross / abs(cross) if cross != 0 else complex(1.0)
    w = vk.v - np.vdot(vj.v, vk.v) * vj.v
    w_norm = float(np.linalg.norm(w))
    w_tilde = phase * w / w_norm
    ratio = abs(cross) / vk.top
    t_end = math.acos(min(max(ratio, 0.0), 1.0))
    return CurveFrame(j=j, k=k, vj=vj, vk=vk, phase=phase, w_tilde=w_tilde, t_end=t_end)


def curve_point(s: Subspace, j: int, k: int, t: float, frame: CurveFrame | None = None) -> CurveSample:
    """Point cos(t) v^j + sin(t) w_tilde of the curve, with its moment point.

    At t = 0 this is v^j; at t = t_end it is phase * v^k.
    """
    if frame is None:
        frame = curve_frame(s, j, k)
    if not -1e-12 <= t <= math.pi / 2 + 1e-12:
        raise ValueError(f"curve parameter {t} outside [0, {math.pi / 2}]")
    t = min(max(t, 0.0), math.pi / 2)
    v = math.cos(t) * frame.vj.v + math.sin(t) * frame.w_tilde
    return CurveSample(j=j, k=k, t=t, v=v, m=np.abs(v) ** 2)


def ellipse_projection(s: Subspace, j: int, k: int, frame: CurveFrame | None = None) -> EllipseParams:
    """Parameters of the projected curve of moduli in the (j, k) plane."""
    if frame is None:
        frame = curve_frame(s, j, k)
    alpha = abs(frame.vj.v[k])
    beta = math.sqrt(max(frame.vk.top**2 - alpha**2, 0.0))
    return EllipseParams(
        j=j,
        k=k,
        a=np.array([frame.vj.top, alpha]),
        b=np.array([0.0, beta]),
        t_end=frame.t_end,
    )


def dominating_t(s: Subspace, j: int, k: int, x) -> float:
    """The unique t at which the curve dominates the (j, k) moduli of x.

    For a unit x in S the returned t satisfies |x_j| = |curve_j(t)| exactly and
    |x_k| <= |curve_k(t)|; both relations are re-verified before returning.
    """
    frame = curve_frame(s, j, k)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    moment_of_vector(s, x)  # validates unit norm and membership
    a = np.vdot(frame.vj.v, x)  # component of x along v^j
    t = math.acos(min(abs(a), 1.0))
    ell = ellipse_projection(s, j, k, frame=frame)
    mod_j, mod_k = math.cos(t) * ell.a + math.sin(t) * ell.b
    eq_residual = abs(abs(x[j]) - mod_j)
    slack = abs(x[k]) - mod_k
    if eq_residual > MEMBERSHIP_TOL or slack > 1e-12:
        raise CurveInconsistency(
            f"domination check failed at t={t}: j-coordinate residual "
            f"{eq_residual:.3e}, k-coordinate excess {slack:.3e}"
        )
    return t


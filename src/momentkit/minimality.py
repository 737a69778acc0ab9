"""Minimality of hermitian matrices with respect to diagonal perturbations.

A hermitian M is minimal when no real diagonal D lowers its spectral norm:
||M|| <= ||M + D|| for all D.  Minimality is equivalent to a symmetric extreme
spectrum (largest eigenvalue = -smallest) together with a nonempty
intersection of the moment sets of the two extreme eigenspaces; that
intersection is decided by the Frank-Wolfe feasibility solver and certified
exactly.  A grid-plus-descent oracle for the actual distance to the diagonal
matrices backs the equivalence on small instances.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .feasibility import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    IntersectionCertificate,
    IntersectionStatus,
    moments_intersect,
)
from .linalg import compressed_eigh, hermitian_eig, projector, require_hermitian, spectral_norm
from .subspace import Subspace, mutually_orthogonal

__all__ = [
    "Verdict",
    "MinimalityReport",
    "check_minimal",
    "MinimalMatrixParts",
    "construct_minimal",
    "brute_force_diag_distance",
    "support_coordinate_bound_check",
    "hausdorff_moments",
    "HausdorffResult",
]

#: Relative width (times ||M||) of the eigenvalue cluster taken as the
#: extreme eigenspaces.
DEFAULT_EIG_TOL = 1e-8


class Verdict(str, enum.Enum):
    MINIMAL = "MINIMAL"
    NOT_MINIMAL = "NOT_MINIMAL"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class MinimalityReport:
    """Minimality analysis of a hermitian matrix.

    ``symmetric`` records whether the extreme eigenvalues are opposite within
    tolerance; ``space_pos``/``space_neg`` are the eigenspaces at +/-||M||;
    ``certificate`` is the moment-intersection certificate for those spaces
    (None when the spectrum is not symmetric, where minimality already fails).
    ``boundary_ambiguous`` flags an eigenvalue within twice the clustering
    width of the extreme clusters, in which case a DISJOINT certificate is
    downgraded to INDETERMINATE rather than risking a wrong eigenspace.
    """

    norm: float
    symmetric: bool
    space_pos: Subspace | None
    space_neg: Subspace | None
    certificate: IntersectionCertificate | None
    verdict: Verdict
    boundary_ambiguous: bool = False


def _eigenspace(vectors: np.ndarray, mask: np.ndarray) -> Subspace:
    q = vectors[:, mask]
    return Subspace(basis=q, projector=projector(q))


def check_minimal(
    m,
    eig_tol: float = DEFAULT_EIG_TOL,
    feas_tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MinimalityReport:
    """Decide minimality of a nonzero hermitian matrix.

    The verdict follows the equivalence: minimal iff the extreme eigenvalues
    are opposite and the moment sets of their eigenspaces intersect.
    """
    a = require_hermitian(m)
    dec = hermitian_eig(a)
    norm = float(np.max(np.abs(dec.eigenvalues))) if a.size else 0.0
    if norm == 0.0:
        raise ValueError("the zero matrix has no minimality analysis")
    width = eig_tol * norm
    lam_max = float(dec.eigenvalues[-1])
    lam_min = float(dec.eigenvalues[0])
    symmetric = abs(lam_max + lam_min) <= width

    mask_pos = dec.eigenvalues >= lam_max - width
    mask_neg = dec.eigenvalues <= lam_min + width
    interior = dec.eigenvalues[~(mask_pos | mask_neg)]
    boundary_ambiguous = bool(
        interior.size
        and (
            np.any(interior >= lam_max - 2.0 * width)
            or np.any(interior <= lam_min + 2.0 * width)
        )
    )
    space_pos = _eigenspace(dec.eigenvectors, mask_pos)
    space_neg = _eigenspace(dec.eigenvectors, mask_neg)

    if not symmetric:
        return MinimalityReport(
            norm=norm,
            symmetric=False,
            space_pos=space_pos,
            space_neg=space_neg,
            certificate=None,
            verdict=Verdict.NOT_MINIMAL,
            boundary_ambiguous=boundary_ambiguous,
        )

    certificate = moments_intersect(space_pos, space_neg, tol=feas_tol, max_iter=max_iter)
    if certificate.status is IntersectionStatus.INTERSECT:
        verdict = Verdict.MINIMAL
    elif certificate.status is IntersectionStatus.DISJOINT and not boundary_ambiguous:
        verdict = Verdict.NOT_MINIMAL
    else:
        verdict = Verdict.INDETERMINATE
    return MinimalityReport(
        norm=norm,
        symmetric=True,
        space_pos=space_pos,
        space_neg=space_neg,
        certificate=certificate,
        verdict=verdict,
        boundary_ambiguous=boundary_ambiguous,
    )


@dataclass(frozen=True)
class MinimalMatrixParts:
    """Ingredients of a minimal matrix lam (P_V - P_W) + R.

    V and W must be orthogonal with intersecting moments, R hermitian with
    R P_V = R P_W = 0 and ||R|| strictly below lam.
    """

    lam: float
    v: Subspace
    w: Subspace
    r: np.ndarray


def construct_minimal(
    parts: MinimalMatrixParts,
    tol: float = 1e-10,
    feas_tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, MinimalityReport]:
    """Assemble lam (P_V - P_W) + R and certify it minimal.

    Rejects any violated ingredient constraint and DISJOINT (or unresolved)
    moment pairs.
    """
    if parts.lam <= 0.0:
        raise ValueError("the extreme eigenvalue lam must be positive")
    if parts.v.n != parts.w.n:
        raise ValueError("subspaces live in different ambient dimensions")
    if not mutually_orthogonal(parts.v, parts.w, tol):
        raise ValueError("V and W are not orthogonal")
    rmat = require_hermitian(parts.r)
    if rmat.shape != (parts.v.n, parts.v.n):
        raise ValueError("R has the wrong shape")
    norm_r = spectral_norm(rmat)
    if not norm_r < parts.lam - 1e-9:
        raise ValueError(
            f"||R|| = {norm_r:.6g} must stay strictly below lam = {parts.lam:.6g}"
        )
    for name, space in (("V", parts.v), ("W", parts.w)):
        defect = spectral_norm(rmat @ space.projector)
        if defect > tol:
            raise ValueError(f"R does not annihilate {name}: ||R P_{name}|| = {defect:.3e}")
    certificate = moments_intersect(parts.v, parts.w, tol=feas_tol, max_iter=max_iter)
    if certificate.status is not IntersectionStatus.INTERSECT:
        raise ValueError(
            f"moment sets do not certifiably intersect (status {certificate.status.value})"
        )
    m = parts.lam * (parts.v.projector - parts.w.projector) + rmat
    m = 0.5 * (m + m.conj().T)
    report = MinimalityReport(
        norm=spectral_norm(m),
        symmetric=True,
        space_pos=parts.v,
        space_neg=parts.w,
        certificate=certificate,
        verdict=Verdict.MINIMAL,
    )
    return m, report


def brute_force_diag_distance(m, grid_step: float | None = None, refine_to: float = 1e-4) -> float:
    """Distance from a hermitian matrix to the real diagonal matrices.

    Independent oracle for small instances (n <= 4): exhaustive grid over the
    diagonal offsets followed by coordinate descent with shrinking steps.  The
    search space is reduced by one dimension because the optimal multiple of
    the identity is exact: min over c of ||A + c I|| = (max eig - min eig)/2.
    ||M + D|| is 1-Lipschitz in D under the max norm, so the grid value is
    within half a step of the true minimum before refinement even starts.
    """
    a = require_hermitian(m)
    n = a.shape[0]
    if n > 4:
        raise ValueError("the brute-force oracle is limited to n <= 4")
    norm = spectral_norm(a)
    if norm == 0.0:
        return 0.0
    step = norm / 20.0 if grid_step is None else float(grid_step)

    def spread_value(offsets: np.ndarray) -> np.ndarray:
        """(max eig - min eig)/2 of M + diag(offsets, 0) for stacked offsets."""
        batch = np.broadcast_to(a, (offsets.shape[0], n, n)).copy()
        idx = np.arange(n - 1)
        batch[:, idx, idx] += offsets
        eigs = np.linalg.eigvalsh(batch)
        return 0.5 * (eigs[:, -1] - eigs[:, 0])

    # The last diagonal entry is gauged to zero, so the remaining offsets may
    # need twice the usual +-2||M|| range.
    axis = np.arange(-4.0 * norm, 4.0 * norm + 0.5 * step, step)
    grids = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1) if n > 1 else np.zeros((1, 0))
    best_val = math.inf
    best = np.zeros(n - 1)
    chunk = 65536
    for lo in range(0, pts.shape[0], chunk):
        vals = spread_value(pts[lo : lo + chunk])
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best = pts[lo + i].copy()

    h = step
    while h >= refine_to:
        improved = True
        while improved:
            improved = False
            for i in range(n - 1):
                for sign in (1.0, -1.0):
                    trial = best.copy()
                    trial[i] += sign * h
                    val = float(spread_value(trial[None, :])[0])
                    if val < best_val - 1e-15:
                        best_val, best = val, trial
                        improved = True
        h *= 0.5
    return best_val


@dataclass(frozen=True)
class CoordinateBoundCheck:
    """Whether an intersection point of orthogonal moment sets respects the
    1/2 coordinate ceiling."""

    applicable: bool
    ok: bool
    max_coordinate: float | None = None
    reason: str | None = None


def support_coordinate_bound_check(
    cert: IntersectionCertificate, tol: float = 1e-9
) -> CoordinateBoundCheck:
    """Check every coordinate of the common point is at most 1/2 (+ tol).

    Only applies to INTERSECT certificates whose subspaces are orthogonal;
    anything else is reported as not applicable.
    """
    if cert.status is not IntersectionStatus.INTERSECT:
        return CoordinateBoundCheck(
            applicable=False, ok=False, reason=f"certificate status is {cert.status.value}"
        )
    if not mutually_orthogonal(cert.space_v, cert.space_w):
        return CoordinateBoundCheck(
            applicable=False, ok=False, reason="subspaces are not orthogonal"
        )
    top = float(np.max(cert.common))
    return CoordinateBoundCheck(applicable=True, ok=top <= 0.5 + tol, max_coordinate=top)


@dataclass(frozen=True)
class HausdorffResult:
    """Support-based Hausdorff estimate between two moment sets.

    ``estimate`` is the max over the probe directions of the support-function
    difference, a lower bound on the true Hausdorff distance that converges as
    the directions densify.  The contraction bound (2 sqrt(n) + 1) times the
    spectral projector distance applies when that distance is below 1/(2n);
    the Frobenius projector distance is also reported.
    """

    estimate: float
    spectral_distance: float
    frobenius_distance: float
    hypothesis_holds: bool
    bound: float | None
    bound_ok: bool | None


def hausdorff_moments(v: Subspace, w: Subspace, directions) -> HausdorffResult:
    """Estimate the Hausdorff distance between m_V and m_W over unit
    directions, and compare against the projector-distance bound."""
    if v.n != w.n:
        raise ValueError("subspaces live in different ambient dimensions")
    top_v = compressed_eigh(v.basis, directions).eigenvalues[:, -1]
    top_w = compressed_eigh(w.basis, directions).eigenvalues[:, -1]
    # Support functions are positively homogeneous: h(c / |c|) = h(c) / |c|.
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("directions must be nonzero")
    estimate = float(np.max(np.abs(top_v - top_w) / norms, initial=0.0))
    gap = v.projector - w.projector
    spectral = spectral_norm(gap)
    frobenius = float(np.linalg.norm(gap))
    hypothesis = spectral < 1.0 / (2.0 * v.n)
    bound = (2.0 * math.sqrt(v.n) + 1.0) * spectral if hypothesis else None
    bound_ok = (estimate <= bound + 1e-9) if hypothesis else None
    return HausdorffResult(
        estimate=estimate,
        spectral_distance=spectral,
        frobenius_distance=frobenius,
        hypothesis_holds=hypothesis,
        bound=bound,
        bound_ok=bound_ok,
    )

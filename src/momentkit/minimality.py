"""Minimality of hermitian matrices with respect to diagonal perturbations.

A hermitian M is minimal when no real diagonal D lowers its spectral norm:
||M|| <= ||M + D|| for all D.  Minimality is equivalent to a symmetric extreme
spectrum (largest eigenvalue = -smallest) together with a nonempty
intersection of the moment sets of the two extreme eigenspaces; that
intersection is decided by the Frank-Wolfe feasibility solver and certified
exactly.  Support-based Hausdorff estimates between moment sets come with
the projector-distance contraction bound.
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
    check_nonnegative,
    moments_intersect,
)
from .linalg import compressed_eigh, hermitian_eig, projector, require_hermitian, spectral_norm
from .subspace import ORTHOGONAL_TOL, Subspace, mutually_orthogonal

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
    ``eig_tol``, ``feas_tol`` and ``max_iter`` must be finite and
    nonnegative, and ``eig_tol`` narrow enough that the two extreme clusters
    of a symmetric spectrum share no eigenvalue.
    """
    check_nonnegative("eig_tol", eig_tol)
    check_nonnegative("feas_tol", feas_tol)
    check_nonnegative("max_iter", max_iter)
    dec = hermitian_eig(m)
    norm = float(np.max(np.abs(dec.eigenvalues)))
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
        np.any((interior >= lam_max - 2.0 * width) | (interior <= lam_min + 2.0 * width))
    )
    space_pos = _eigenspace(dec.eigenvectors, mask_pos)
    space_neg = _eigenspace(dec.eigenvectors, mask_neg)

    certificate = None
    verdict = Verdict.NOT_MINIMAL
    if symmetric:
        if np.any(mask_pos & mask_neg):
            raise ValueError(
                f"eig_tol = {eig_tol} is too wide: the extreme eigenvalue clusters overlap"
            )
        certificate = moments_intersect(space_pos, space_neg, tol=feas_tol, max_iter=max_iter)
        if certificate.status is IntersectionStatus.INTERSECT:
            verdict = Verdict.MINIMAL
        elif certificate.status is not IntersectionStatus.DISJOINT or boundary_ambiguous:
            verdict = Verdict.INDETERMINATE
    return MinimalityReport(
        norm=norm,
        symmetric=symmetric,
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


def construct_minimal(parts: MinimalMatrixParts) -> tuple[np.ndarray, MinimalityReport]:
    """Assemble lam (P_V - P_W) + R and certify it minimal.

    Rejects any violated ingredient constraint (orthogonality and R P = 0
    within ORTHOGONAL_TOL) and DISJOINT (or unresolved) moment pairs.
    """
    if parts.lam <= 0.0:
        raise ValueError("the extreme eigenvalue lam must be positive")
    if parts.v.n != parts.w.n:
        raise ValueError("subspaces live in different ambient dimensions")
    if not mutually_orthogonal(parts.v, parts.w):
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
        if defect > ORTHOGONAL_TOL:
            raise ValueError(f"R does not annihilate {name}: ||R P_{name}|| = {defect:.3e}")
    certificate = moments_intersect(parts.v, parts.w)
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
    directions = np.asarray(directions, dtype=np.float64)
    top_v = compressed_eigh(v.basis, directions).eigenvalues[:, -1]
    top_w = compressed_eigh(w.basis, directions).eigenvalues[:, -1]
    # Support functions are positively homogeneous: h(c / |c|) = h(c) / |c|.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(directions, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("directions must be nonzero")
    huge = ~np.isfinite(norms)
    if np.any(huge):
        # |c| overflows although c is finite: take it as max|c_i| |c / max|c_i||.
        scale = np.max(np.abs(directions[huge]), axis=1)
        norms[huge] = scale * np.linalg.norm(directions[huge] / scale[:, None], axis=1)
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

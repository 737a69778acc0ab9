"""Minimality of hermitian matrices with respect to diagonal perturbations.

A hermitian M is minimal when no real diagonal D lowers its spectral norm:
||M|| <= ||M + D|| for all D.  Minimality is equivalent to a symmetric extreme
spectrum (largest eigenvalue = -smallest) together with a nonempty
intersection of the moment sets of the two extreme eigenspaces; that
intersection is decided by the Frank-Wolfe feasibility solver and certified
exactly.  Support-based Hausdorff estimates between moment sets are reported
next to the spectral and Frobenius distances of the projectors.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .feasibility import IntersectionCertificate, IntersectionStatus, moments_intersect
from .linalg import (DEFAULT_EIG_TOL, DEFAULT_MAX_ITER, DEFAULT_TOL, _integer, _numbers, _real,
                     compressed_top_eigvalsh, hermitian_eig, require_hermitian, spectral_norm)
from .subspace import ORTHOGONAL_TOL, Subspace, mutually_orthogonal


class Verdict(str, enum.Enum):
    MINIMAL = "MINIMAL"
    NOT_MINIMAL = "NOT_MINIMAL"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True, eq=False)
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


def check_minimal(
    m,
    eig_tol: float = DEFAULT_EIG_TOL,
    feas_tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MinimalityReport:
    """Decide minimality of a nonzero hermitian matrix.

    The verdict follows the equivalence: minimal iff the extreme eigenvalues
    are opposite and the moment sets of their eigenspaces intersect.
    ``eig_tol`` and ``feas_tol`` must be nonnegative reals, ``max_iter`` a
    nonnegative integer, and ``eig_tol`` narrow enough that the two extreme
    clusters of a symmetric spectrum share no eigenvalue.
    """
    eig_tol = _real(eig_tol, "eig_tol", nonnegative=True)
    feas_tol = _real(feas_tol, "feas_tol", nonnegative=True)
    _integer(max_iter, "max_iter", 0)
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
    space_pos = Subspace(dec.eigenvectors[:, mask_pos])
    space_neg = Subspace(dec.eigenvectors[:, mask_neg])

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


@dataclass(frozen=True, eq=False)
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

    Rejects any violated ingredient constraint (orthogonality within
    ORTHOGONAL_TOL, ||R|| below lam (1 - 1e-9) and ||R P|| at most
    ORTHOGONAL_TOL * lam) and DISJOINT (or unresolved) moment pairs.
    """
    if _real(parts.lam, "lam") <= 0.0:
        raise ValueError("the extreme eigenvalue lam must be positive")
    if parts.v.n != parts.w.n:
        raise ValueError("subspaces live in different ambient dimensions")
    if not mutually_orthogonal(parts.v, parts.w):
        raise ValueError("V and W are not orthogonal")
    rmat = require_hermitian(parts.r)
    if rmat.shape != (parts.v.n, parts.v.n):
        raise ValueError("R has the wrong shape")
    # Both slacks are relative to lam, so the answer does not depend on the
    # scale of the parts.
    norm_r = spectral_norm(rmat)
    if not norm_r < parts.lam * (1.0 - 1e-9):
        raise ValueError(
            f"||R|| = {norm_r:.6g} must stay strictly below lam = {parts.lam:.6g}"
        )
    for name, space in (("V", parts.v), ("W", parts.w)):
        defect = spectral_norm(rmat @ space.projector)
        if defect > ORTHOGONAL_TOL * parts.lam:
            raise ValueError(f"R does not annihilate {name}: ||R P_{name}|| = {defect:.3e}")
    certificate = moments_intersect(parts.v, parts.w)
    if certificate.status is not IntersectionStatus.INTERSECT:
        raise ValueError(
            f"moment sets do not certifiably intersect (status {certificate.status.value})"
        )
    # Halves first, so that lam up to the float limit does not overflow.
    half = 0.5 * parts.lam * (parts.v.projector - parts.w.projector) + 0.5 * rmat
    m = half + half.conj().T
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
    the directions densify.  The spectral and Frobenius distances of the two
    projectors are reported with it.
    """

    estimate: float
    spectral_distance: float
    frobenius_distance: float


def hausdorff_moments(v: Subspace, w: Subspace, directions) -> HausdorffResult:
    """Estimate the Hausdorff distance between m_V and m_W over unit
    directions, with the distances of their projectors."""
    if v.n != w.n:
        raise ValueError("subspaces live in different ambient dimensions")
    directions = _numbers(directions, f"directions must be finite real rows of dimension {v.n}")
    if directions.ndim == 2 and len(directions) == 0:
        raise ValueError("at least one direction is required")
    if directions.ndim == 2 and not directions.any(axis=1).all():
        raise ValueError("directions must be nonzero")
    top_v = compressed_top_eigvalsh(v.compression_table, directions)
    top_w = compressed_top_eigvalsh(w.compression_table, directions)
    scale = abs(directions).max(axis=1)
    # Support functions are positively homogeneous: h(c / |c|) = h(c) / |c|.
    # Dividing by max |c_i| first keeps every quantity in the float range.
    norms = np.linalg.norm(directions / scale[:, None], axis=1)
    estimate = float(np.max(np.abs(top_v / scale - top_w / scale) / norms))
    gap = v.projector - w.projector
    return HausdorffResult(
        estimate=estimate,
        spectral_distance=spectral_norm(gap),
        frobenius_distance=float(np.linalg.norm(gap)),
    )

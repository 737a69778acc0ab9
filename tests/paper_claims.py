"""The paper's claims as test computations, and the brute-force oracle.

The identities and bounds the paper proves about moment sets (centroid
composition, the curve overlap, the extremality of the curve points, the
rank-one rescaling, the 1/2 coordinate bound) are checked here against
momentkit's answers; the library itself only answers questions.  Each helper
evaluates one claim on given inputs and returns its residual or the direction
to test, or asserts the bound.

``brute_force_diag_distance`` is the reference the minimality verdicts are
checked against: the distance from a hermitian matrix to the real diagonal
matrices, for n <= 4.  It uses a coarse grid (step ||M||/20) followed by
coordinate descent with steps shrinking to 1e-4; ||M + D|| is 1-Lipschitz in
D under the max norm, which makes the grid stage sound.
"""
import math

import numpy as np

from momentkit import IntersectionStatus, Subspace, centroid, delta_map, ellipse_projection
from momentkit import principal_vector, subspace_from_spanning, whole_space
from momentkit.linalg import require_hermitian, spectral_norm
from momentkit.moment import curve_frame, curve_point, sample_unit_vectors
from momentkit.subspace import mutually_orthogonal

from conftest import random_density


def span(*parts: Subspace) -> Subspace:
    """The sum of subspaces, spanned by the union of their bases."""
    return subspace_from_spanning(np.hstack([part.basis for part in parts]).T)


def difference(outer: Subspace, inner: Subspace) -> Subspace:
    """The orthogonal complement of ``inner`` within ``outer``."""
    return subspace_from_spanning(((np.eye(outer.n) - inner.projector) @ outer.basis).T)


def centroid_residual(total: Subspace, plus, minus=()) -> float:
    """Max-norm residual, in centroid units, of the composition identity
    dim(T) c(T) = sum of dim(S) c(S) over ``plus`` minus that over ``minus``."""
    rhs = sum(s.r * centroid(s) for s in plus) - sum(s.r * centroid(s) for s in minus)
    return float(np.max(np.abs(centroid(total) - rhs / total.r)))


def overlap_residual(s: Subspace, j: int, k: int, t: float) -> float:
    """Residual of the overlap identity: on [0, t_end] the curve from v^j
    toward v^k retraces, up to the fixed phase, the curve from v^k toward v^j
    run backwards, curve_jk(t) = phase * curve_kj(t_end - t).  A t outside
    [0, t_end] puts one of the two curve parameters outside [0, pi/2], which
    ``curve_point`` rejects."""
    frame_jk = curve_frame(s, j, k)
    frame_kj = curve_frame(s, k, j)
    lhs = curve_point(s, j, k, t, frame=frame_jk).v
    rhs = frame_jk.phase * curve_point(s, k, j, frame_jk.t_end - t, frame=frame_kj).v
    return float(np.linalg.norm(lhs - rhs))


def exposing_direction(s: Subspace, j: int, k: int, t: float) -> np.ndarray:
    """The direction, supported on {j, k}, normal to the squared projected
    curve p(t)^2, p(t) = cos(t) a + sin(t) b, and oriented away from the
    projected centroid.  For t in [0, pi/2) and non-orthogonal principal
    vectors the curve point at t maximizes it over the moment set."""
    ell = ellipse_projection(s, j, k)
    p = math.cos(t) * ell.a + math.sin(t) * ell.b
    tangent = 2.0 * p * (math.cos(t) * ell.b - math.sin(t) * ell.a)
    normal = np.array([tangent[1], -tangent[0]]) / np.linalg.norm(tangent)
    if normal @ (p**2 - centroid(s)[[j, k]]) < 0.0:
        normal = -normal
    c = np.zeros(s.n)
    c[[j, k]] = normal
    return c


def scaling_residual(s: Subspace, trials: int, seed: int) -> float:
    """Max residual of the rank-one rescaling over ``trials`` random states.

    For a generic subspace the numerical-range point of any state factors
    through the principal standard vectors coordinate-wise:
    tr(P E_i P rho) = (v^i_i)^2 <v^i, rho v^i>.  A subspace missing a
    principal vector raises ``NotGenericAtCoordinate``.
    """
    principal = [principal_vector(s, i) for i in range(s.n)]
    scales = np.array([pv.top**2 for pv in principal])
    vs = np.array([pv.v for pv in principal])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rho = random_density(s.n, rng)
        rank_one = np.real(np.einsum("ij,jk,ik->i", vs.conj(), rho, vs))
        worst = max(worst, float(np.max(np.abs(delta_map(s, rho).x - scales * rank_one))))
    return worst


def classical_range(s: Subspace, count: int, seed: int) -> np.ndarray:
    """Points |P x|^2 of the classical (rank-one) joint numerical range, as
    rows, for uniformly random unit vectors x of the ambient space.  Their
    convex hull is W."""
    return np.abs(sample_unit_vectors(whole_space(s.n), count, seed) @ s.projector.T) ** 2


def assert_coordinate_bound(cert, tol: float = 1e-9) -> float:
    """Assert that ``cert`` is an INTERSECT certificate of two orthogonal
    subspaces whose common point has every coordinate at most 1/2 (+ tol);
    returns the largest coordinate."""
    assert cert.status is IntersectionStatus.INTERSECT
    assert mutually_orthogonal(cert.space_v, cert.space_w)
    top = float(np.max(cert.common))
    assert top <= 0.5 + tol, f"coordinate {top} exceeds 1/2"
    return top


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

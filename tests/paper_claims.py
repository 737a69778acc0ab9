"""The paper's claims as test computations, and the brute-force oracle.

The identities and bounds the paper proves about moment sets (centroid
composition, the curve overlap, the extremality of the curve points, the
domination of a vector's moduli by the curve, the rank-one rescaling, the 1/2
coordinate bound, the Hausdorff contraction bound) are checked here against
momentkit's answers; the library itself only answers questions.  Each helper
evaluates one claim on given inputs and returns its residual or the direction
to test, or asserts the bound.

``simplex_projection``, ``bloch_support`` and ``bloch_distance`` are exact
oracles for two families of moment sets: the standard simplex on I of a
coordinate subspace span(e_i : i in I), and the image of the Bloch ball of a
subspace of dimension 2.

``brute_force_diag_distance`` is the reference the minimality verdicts are
checked against: the distance from a hermitian matrix to the real diagonal
matrices, for n <= 4.  It uses a coarse grid (step ||M||/20) followed by
coordinate descent with steps shrinking to 1e-4; ||M + D|| is 1-Lipschitz in
D under the max norm, which makes the grid stage sound.
"""
import math

import numpy as np

from momentkit import IntersectionStatus, Subspace, centroid, curve_frame, curve_point
from momentkit import delta_map, ellipse_projection, principal_vector, subspace_from_spanning
from momentkit import whole_space
from momentkit.linalg import require_hermitian, spectral_norm
from momentkit.moment import CurveFrame, MEMBERSHIP_TOL, sample_unit_vectors
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
    lhs = curve_point(frame_jk, t).v
    rhs = frame_jk.phase * curve_point(curve_frame(s, k, j), frame_jk.t_end - t).v
    return float(np.linalg.norm(lhs - rhs))


def exposing_direction(s: Subspace, frame: CurveFrame, t: float) -> np.ndarray:
    """The direction, supported on {j, k}, normal to the squared projected
    curve p(t)^2, p(t) = cos(t) a + sin(t) b, and oriented away from the
    projected centroid.  For t in [0, pi/2) and non-orthogonal principal
    vectors the curve point at t maximizes it over the moment set."""
    ell = ellipse_projection(frame)
    p = math.cos(t) * ell.a + math.sin(t) * ell.b
    tangent = 2.0 * p * (math.cos(t) * ell.b - math.sin(t) * ell.a)
    normal = np.array([tangent[1], -tangent[0]]) / np.linalg.norm(tangent)
    jk = [frame.j, frame.k]
    if normal @ (p**2 - centroid(s)[jk]) < 0.0:
        normal = -normal
    c = np.zeros(s.n)
    c[jk] = normal
    return c


def check_domination(frame: CurveFrame, x, t: float) -> None:
    """Assert that the curve point at t dominates the (j, k) moduli of the
    unit vector x: |x_j| = |curve_j(t)| within MEMBERSHIP_TOL and
    |x_k| <= |curve_k(t)| + 1e-12."""
    ell = ellipse_projection(frame)
    mod_j, mod_k = math.cos(t) * ell.a + math.sin(t) * ell.b
    assert abs(abs(x[frame.j]) - mod_j) <= MEMBERSHIP_TOL
    assert abs(x[frame.k]) <= mod_k + 1e-12


def hausdorff_contraction_bound(v: Subspace, w: Subspace) -> float | None:
    """The contraction bound (2 sqrt(n) + 1) ||P_V - P_W|| on the Hausdorff
    distance of m_V and m_W, or None when its hypothesis
    ||P_V - P_W|| < 1/(2n) fails."""
    spectral = spectral_norm(v.projector - w.projector)
    if not spectral < 1.0 / (2.0 * v.n):
        return None
    return (2.0 * math.sqrt(v.n) + 1.0) * spectral


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


def simplex_projection(p, index) -> np.ndarray:
    """Euclidean projection of the real vector p onto the standard simplex on
    the coordinates ``index``, {y >= 0, sum_I y_i = 1, y_j = 0 off I}: the
    moment set of span(e_i : i in I).  By sorting (Held, Wolfe & Crowder
    1974): the entries of p on I, shifted down by the threshold theta that
    leaves unit sum once clipped at 0."""
    p = np.asarray(p, dtype=float)
    index = list(index)
    desc = np.sort(p[index])[::-1]
    excess = np.cumsum(desc) - 1.0
    count = np.arange(1, len(desc) + 1)
    k = count[desc - excess / count > 0.0][-1]
    y = np.zeros_like(p)
    y[index] = np.maximum(p[index] - excess[k - 1] / k, 0.0)
    return y


def _bloch_map(s: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """c = diag(Q Q*)/2 and the n x 3 matrix L, L_k = diag(Q sigma_k Q*)/2,
    of a subspace of dimension 2: the density matrix (I + x . sigma)/2,
    |x| <= 1, has the moment point c + L x (Au-Yeung & Poon 1979)."""
    q = s.basis
    assert q.shape[1] == 2
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    c = 0.5 * np.sum(np.abs(q) ** 2, axis=1)
    return c, 0.5 * np.real(np.einsum("ij,kjl,il->ik", q, paulis, q.conj()))


def bloch_support(s: Subspace, u) -> float:
    """The support value of the moment set of a subspace of dimension 2 along
    u: <u, c> + |L^T u|, the image of the Bloch ball under x -> c + L x."""
    c, lmap = _bloch_map(s)
    return float(u @ c + np.linalg.norm(lmap.T @ u))


def bloch_distance(s: Subspace, p) -> float:
    """The distance from the real vector p to the moment set of a subspace of
    dimension 2: min |c + L x - p| over |x| <= 1, a convex trust-region
    problem in R^3.  On the eigenbasis (mu, V) of L^T L, with g = V^T L^T
    (p - c), the minimizer is x(lam) = V diag(1 / (mu + lam)) g at the least
    lam >= 0 with |x(lam)| <= 1 (the least-norm least-squares point at lam =
    0, where a zero mu takes no part).  |x(lam)| decreases in lam, so
    bisection on that secular equation finds lam; L^T L is PSD, so there is
    no hard case.  The distance is taken at the feasible end of the bracket."""
    c, lmap = _bloch_map(s)
    b = np.asarray(p, dtype=float) - c
    mu, vecs = np.linalg.eigh(lmap.T @ lmap)
    mu = np.maximum(mu, 0.0)
    g = vecs.T @ (lmap.T @ b)

    def ball_point(lam: float) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return vecs @ np.where(mu + lam > 0.0, g / (mu + lam), 0.0)

    lo, hi = 0.0, float(np.linalg.norm(g))  # |x(hi)| <= |g| / hi = 1
    if np.linalg.norm(ball_point(lo)) <= 1.0:
        hi = lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.linalg.norm(ball_point(mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    return float(np.linalg.norm(lmap @ ball_point(hi) - b))


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

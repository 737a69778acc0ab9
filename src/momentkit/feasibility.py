"""First-order convex feasibility over moment sets.

Both operations here minimize a convex quadratic over products of
density-matrix sets by fully-corrective Frank-Wolfe (simplicial
decomposition; Holloway 1974, Lacoste-Julien & Jaggi 2015):

* ``project_onto_moment`` - distance from a real vector to the moment set,
* ``moments_intersect``  - feasibility of m_V and m_W sharing a point.

A density matrix M over the coefficient space C^r maps linearly to the moment
coordinates y = diag(Q M Q*) in R^n, and the linear minimization oracle over
the density set is an extreme eigenvector of the r x r gradient compression
(``linalg.compressed_eigh``, which also gives every support value), so every
step costs one small eigensolve.  Iterates are explicit convex
combinations of rank-one atoms |Q u|^2.  Each iteration adds the oracle atom
of every side and re-solves all weights exactly by nonnegative least squares;
a step is kept only when it strictly lowers the objective, and atoms left at
zero weight are dropped, so at most n + (number of sides) stay active.

The oracle's atoms also give, at every iterate, the duality gap and the
Wolfe dual bound lower = <d, sum_s sign_s z_s - target> / |d| on the optimal
residual norm (d the residual, z_s the oracle points; Jaggi 2013), at no
extra eigensolve.  Every iterate is tested against it:

* a projection stops once its distance is within ``tol`` of ``lower``, the
  exact bound <u, p> - h(u) of the direction u from the iterate to p;
* an intersection is declared DISJOINT at the first iterate whose bound
  reaches ``SEPARATION_MARGIN``: -d/|d| is then a separating direction, and
  its margin is confirmed once by ``separation_margin``.  Disjointness is
  never declared otherwise.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import compressed_eigh
from .subspace import Subspace

#: Diagonal-difference norm below which the sets are declared intersecting.
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 50_000
#: Strict support-function margin required to certify disjointness.
SEPARATION_MARGIN = 1e-9

_NNLS_PENALTY = 1e3


def check_nonnegative(name: str, value: float) -> None:
    """Reject a tolerance or iteration limit that is negative or not finite."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative (got {value})")


class _Side:
    """One moment-set factor of the product feasible set.

    Atoms are unit coefficient vectors u in C^r, stored as the columns of
    ``atoms``; atom i contributes the moment point ``points[i] = |Q u_i|^2``
    with weight ``weights[i]``.
    """

    def __init__(self, subspace: Subspace, sign: float):
        self.q = subspace.basis
        self.sign = float(sign)
        r = subspace.r
        # Principal-vertex probes: coefficient vectors of the principal
        # standard vectors, available to the reweighting step at zero weight.
        coeffs = self.q.conj().T
        norms = np.linalg.norm(coeffs, axis=0)
        keep = norms > 1e-12
        self.atoms = np.hstack(
            [np.eye(r, dtype=np.complex128), coeffs[:, keep] / norms[keep]]
        )
        self.weights = np.concatenate([np.full(r, 1.0 / r), np.zeros(int(keep.sum()))])
        self.points = np.abs(self.q @ self.atoms).T ** 2

    def y(self) -> np.ndarray:
        return self.weights @ self.points

    def lmo(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Atom minimizing <sign * d, z> over the moment set."""
        u = compressed_eigh(self.q, self.sign * d[None]).eigenvectors[0, :, 0]
        return u, np.abs(self.q @ u) ** 2

    def witness(self) -> np.ndarray:
        """The n x n density matrix Q M Q* of the current convex combination,
        M its r x r density matrix."""
        m = (self.atoms * self.weights) @ self.atoms.conj().T
        m = 0.5 * (m + m.conj().T)
        witness = self.q @ m @ self.q.conj().T
        return 0.5 * (witness + witness.conj().T)


class _FeasibilityEngine:
    """Fully-corrective Frank-Wolfe (simplicial decomposition) for
    min || sum_s sign_s y_s - target ||^2 over a product of moment sets.

    Each iteration calls the oracle of every side, stops when ``certify(d, f,
    lower)`` accepts the current iterate (residual d, objective f, dual bound
    lower), and otherwise adds one oracle atom per side and re-solves the
    weights of all collected atoms exactly (augmented NNLS), so the objective
    decreases strictly until the step no longer improves it.  ``iterations``
    counts the steps taken; the oracle also runs on the final iterate, so
    ``gap`` and ``lower`` always describe the returned point unless it is
    within ``tol`` of the target.
    """

    def __init__(self, sides: list[_Side], target: np.ndarray, tol: float, max_iter: int, certify):
        check_nonnegative("tol", tol)
        check_nonnegative("max_iter", max_iter)
        self.sides = sides
        self.target = target
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.certify = certify
        self.iterations = 0
        self.gap = math.inf
        self.lower = -math.inf

    def _residual(self) -> np.ndarray:
        d = -self.target.astype(np.float64, copy=True)
        for side in self.sides:
            d += side.sign * side.y()
        return d

    def _reweight(self) -> bool:
        """Optimal weights over all atoms of all sides (augmented NNLS, a
        penalty row per side for unit total weight), normalized per side.
        False, with the weights untouched, when the solve fails or leaves a
        side without weight."""
        from scipy.optimize import nnls  # only solver calls pay for scipy

        n = self.target.size
        blocks = []
        for s_idx, side in enumerate(self.sides):
            block = np.zeros((n + len(self.sides), len(side.weights)))
            block[:n] = side.sign * side.points.T
            block[n + s_idx] = _NNLS_PENALTY
            blocks.append(block)
        b = np.concatenate([self.target, np.full(len(self.sides), _NNLS_PENALTY)])
        try:
            x, _ = nnls(np.hstack(blocks), b)
        except RuntimeError:
            return False
        weights = np.split(x, np.cumsum([len(side.weights) for side in self.sides])[:-1])
        if any(w.sum() <= 0.0 for w in weights):
            return False
        for side, w in zip(self.sides, weights):
            side.weights = w / w.sum()
        return True

    def run(self) -> float:
        tol_sq = self.tol * self.tol
        d = self._residual()
        f = float(d @ d)
        for it in range(self.max_iter + 1):
            self.iterations = it
            if f <= tol_sq:
                break

            fw = [side.lmo(d) for side in self.sides]
            step = sum(side.sign * (z - side.y()) for side, (_, z) in zip(self.sides, fw))
            self.gap = float(-2.0 * (d @ step))
            vertex = sum(side.sign * z for side, (_, z) in zip(self.sides, fw))
            self.lower = float(d @ (vertex - self.target)) / math.sqrt(f)
            if self.certify(d, f, self.lower) or self.gap <= tol_sq or it == self.max_iter:
                break

            saved = [(side.atoms, side.points, side.weights) for side in self.sides]
            for side, (u, z) in zip(self.sides, fw):
                side.atoms = np.column_stack([side.atoms, u])
                side.points = np.vstack([side.points, z])
                side.weights = np.append(side.weights, 0.0)
            if self._reweight():
                d_new = self._residual()
                f_new = float(d_new @ d_new)
            else:
                f_new = math.inf
            if not f_new < f:
                # The corrective step no longer improves: keep the last iterate.
                for side, (atoms, points, weights) in zip(self.sides, saved):
                    side.atoms, side.points, side.weights = atoms, points, weights
                break
            d, f = d_new, f_new
            for side in self.sides:
                keep = side.weights > 0.0
                side.atoms = side.atoms[:, keep]
                side.points = side.points[keep]
                side.weights = side.weights[keep]
        return f


# ---------------------------------------------------------------------------
# Public operations.

@dataclass(frozen=True)
class ProjectionResult:
    """Distance from a point to the moment set with a witness state.

    ``witness`` is the n x n density matrix supported on the subspace whose
    moment coordinates realize the distance; ``gap`` is the final duality gap
    of the squared objective (an upper bound on how far the squared distance
    is from optimal).  ``lower`` is 0 for a member within ``tol``, and
    otherwise the exact lower bound max(0, <u, p> - h(u)) on the true
    distance, with u the unit direction from the witness to p and h the
    support function of the moment set.  ``converged`` holds when
    ``distance - lower <= tol``.
    """

    distance: float
    witness: np.ndarray
    gap: float
    iterations: int
    converged: bool
    lower: float


def project_onto_moment(
    s: Subspace,
    p,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ProjectionResult:
    """Euclidean distance from the real vector p to the moment set of s."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.size != s.n:
        raise ValueError(f"point has dimension {p.size}, expected {s.n}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite entries")
    side = _Side(s, +1.0)
    # The dual bound of the single side is <u, p> - h(u) for u = -d/|d|, the
    # unit direction from the iterate to p: every z in the set has
    # |p - z| >= <u, p - z> >= <u, p> - h(u).
    engine = _FeasibilityEngine(
        [side], p, tol=tol, max_iter=max_iter,
        certify=lambda d, f, lower: math.sqrt(f) - lower <= tol,
    )
    f = engine.run()
    distance = math.sqrt(max(f, 0.0))
    lower = 0.0 if f <= tol * tol else max(0.0, engine.lower)
    return ProjectionResult(
        distance=distance,
        witness=side.witness(),
        gap=engine.gap,
        iterations=engine.iterations,
        converged=distance - lower <= tol,
        lower=lower,
    )


class IntersectionStatus(str, enum.Enum):
    INTERSECT = "INTERSECT"
    DISJOINT = "DISJOINT"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class IntersectionCertificate:
    """Outcome of the moment-intersection feasibility problem.

    INTERSECT carries density matrices Y (supported on V) and X (supported on
    W) whose moment coordinates agree within tolerance, and their common
    point.  DISJOINT carries a unit direction u and the strict support gap
    ``margin`` by which max over m_V of <u, .> stays below min over m_W of
    <u, .>.  ``gap`` is the diagonal-difference norm reached by the solver.
    """

    status: IntersectionStatus
    space_v: Subspace
    space_w: Subspace
    witness_y: np.ndarray | None = None
    witness_x: np.ndarray | None = None
    common: np.ndarray | None = None
    direction: np.ndarray | None = None
    margin: float | None = None
    gap: float = math.nan
    iterations: int = 0


def separation_margin(v: Subspace, w: Subspace, u) -> float:
    """Support gap min over m_W of <u, .> minus max over m_V of <u, .>.

    Positive exactly when the hyperplane normal to u strictly separates the
    moment sets with m_V on the lower side.
    """
    u = np.reshape(u, (1, -1))
    top_v = float(compressed_eigh(v.basis, u).eigenvalues[0, -1])
    bottom_w = float(compressed_eigh(w.basis, u).eigenvalues[0, 0])
    return bottom_w - top_v


def moments_intersect(
    v: Subspace,
    w: Subspace,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> IntersectionCertificate:
    """Decide whether the moment sets of two subspaces share a point.

    Minimizes ||diag(Q_V M Q_V*) - diag(Q_W N Q_W*)||^2 over pairs of density
    matrices.  INTERSECT when the residual norm reaches ``tol``; DISJOINT only
    when an exact support-function separation holds with a strict margin;
    INDETERMINATE otherwise (tangent or unresolved within ``max_iter``).
    """
    if v.n != w.n:
        raise ValueError("subspaces live in different ambient dimensions")
    side_v = _Side(v, +1.0)
    side_w = _Side(w, -1.0)
    separation = []

    def certify(d: np.ndarray, f: float, lower: float) -> bool:
        # lower = (min over m_V - max over m_W of <d, .>)/|d|, the support gap
        # along -d/|d| as the oracle computed it; confirm it independently.
        if lower < SEPARATION_MARGIN:
            return False
        u = -d / float(np.linalg.norm(d))
        margin = separation_margin(v, w, u)
        if margin >= SEPARATION_MARGIN:
            separation.append((u, margin))
        return bool(separation)

    engine = _FeasibilityEngine(
        [side_v, side_w], np.zeros(v.n), tol=tol, max_iter=max_iter, certify=certify
    )
    f = engine.run()
    gap = math.sqrt(max(f, 0.0))
    if gap <= tol:
        witness_y = side_v.witness()
        witness_x = side_w.witness()
        common = 0.5 * (
            np.real(np.diagonal(witness_y)) + np.real(np.diagonal(witness_x))
        )
        return IntersectionCertificate(
            status=IntersectionStatus.INTERSECT,
            space_v=v,
            space_w=w,
            witness_y=witness_y,
            witness_x=witness_x,
            common=common,
            gap=gap,
            iterations=engine.iterations,
        )
    if separation:
        u, margin = separation[0]
        return IntersectionCertificate(
            status=IntersectionStatus.DISJOINT,
            space_v=v,
            space_w=w,
            direction=u,
            margin=margin,
            gap=gap,
            iterations=engine.iterations,
        )
    return IntersectionCertificate(
        status=IntersectionStatus.INDETERMINATE,
        space_v=v,
        space_w=w,
        gap=gap,
        iterations=engine.iterations,
    )

"""First-order convex feasibility over moment sets.

Both operations here minimize a convex quadratic over products of
density-matrix sets by fully-corrective Frank-Wolfe (simplicial
decomposition; Holloway 1974, Lacoste-Julien & Jaggi 2015):

* ``project_onto_moment`` - distance from a real vector to the moment set,
* ``moments_intersect``  - feasibility of m_V and m_W sharing a point.

Both run one master, sign +1 on side 0 and -1 on side 1 of the residual
sum_s sign_s y_s - target: y - p for a projection, y_V - y_W for an
intersection.  A density matrix M over the coefficient space C^r maps
linearly to the moment coordinates y = diag(Q M Q*) in R^n, and the linear
minimization oracle over the density set is the bottom eigenvector of the
r x r gradient compression, the top one of the negated gradient
(``linalg.compressed_top_eigh``, which also gives every support value of
``moment`` and ``jnr``), so every step costs one small eigensolve; sides of
one rank share one call on their stacked tables, a lone side as a stack of
one.  Iterates are explicit convex combinations of rank-one atoms |Q u|^2.
Each iteration adds the oracle atom of every side and re-solves all weights
exactly (``_Master``): a Lawson-Hanson active-set solve of the least-squares
master with one equality row per side for its unit sum, and no penalty row,
warm-started at the current weights.  Each of its passes is one
``np.linalg.solve`` of the KKT system of the active atoms; a step takes one
pass when no atom leaves and one more per atom that leaves or enters.  A
step is kept only when it strictly lowers the objective, and atoms left at
zero weight are dropped.  Every moment point of a side sums to +-1, so at
most n + S - 1 atoms stay active, S the number of sides.

The oracle's atoms also give, at every iterate, the Wolfe dual bound
lower = <d, sum_s sign_s z_s - target> / |d| on the optimal residual norm
(d the residual, z_s the oracle points; Jaggi 2013), at no extra eigensolve.
It is the solver's only certificate and its only stopping test:

* a projection stops once its distance is within ``tol`` of ``lower``, the
  exact bound <u, p> - h(u) of the direction u from the iterate to p;
* an intersection is declared DISJOINT at the first iterate whose bound
  reaches ``SEPARATION_MARGIN``: -d/|d| is then a separating direction, and
  its margin is confirmed once by ``separation_margin``, from two top
  eigenvalues alone (``linalg.compressed_top_eigvalsh``).  Disjointness is
  never declared otherwise.

A solve stops in exactly four cases: the residual is within ``tol``, the
dual bound is accepted, ``max_iter`` steps are taken, or the corrective
step stalls.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_MAX_ITER, DEFAULT_TOL, _integer, _numbers, _real, compressed_top_eigh,
                     compressed_top_eigvalsh)
from .subspace import Subspace

#: Strict support-function margin required to certify disjointness.
SEPARATION_MARGIN = 1e-9
#: Largest Euclidean norm of a point to project: the squared residual, at
#: most (|p| + 1)^2, stays below the float limit of about 1.8e308.
POINT_MAX = 1e154

#: Admission threshold of an entering atom's Schur complement, relative to
#: its squared norm |a|^2 (``_Master``).  The Gram matrix resolves a Schur
#: complement to about eps |a|^2, so this sits about 45 eps above roundoff:
#: atoms that approach an exposed point by chords still enter, and one that
#: would make the KKT system singular does not.
_ADMIT_RTOL = 1e-14
#: An inactive atom enters only when its KKT multiplier is below
#: -_DUAL_RTOL * (1 + max |target|), the roundoff of computing it.
_DUAL_RTOL = 1e-14


def _ratio_step(w: list[float], z: list[float]) -> list[float]:
    """Wolfe's ratio step from feasible weights w toward the solution z with
    some z_i <= 0: the longest one keeping every weight nonnegative.  The
    weight of the first atom it blocks is set to exactly 0.  An atom with
    w_i = z_i = 0 (entering, and left at zero) blocks at step 0, not 0/0."""
    alpha, first = math.inf, -1
    for i, (wi, zi) in enumerate(zip(w, z)):
        if zi <= 0.0:
            ratio = wi / (wi - zi) if wi > zi else 0.0
            if ratio < alpha:
                alpha, first = ratio, i
    w = [wi + alpha * (zi - wi) for wi, zi in zip(w, z)]
    w[first] = 0.0
    return w


class _Master:
    """The atoms of every side, their weights, and the exact reweighting.

    ``_Master(spaces, target)`` takes one subspace or two, with signs +1
    and -1.  An atom is a unit coefficient vector u of a side s, with column
    a = sign_s |Q_s u|^2 of the master problem; the iterate is A w with the
    weights of each side on its unit simplex.  It starts at the centroid of
    every side, weight 1/r on each coefficient unit vector, with the
    principal vertices beside them at zero weight.  These probes make each
    principal vertex, an extremal point of the moment set, an exact atom the
    first step reaches, where the oracle only approaches it.

    ``step`` adds one oracle atom per side and solves
    min |A w - target|^2 over w >= 0 with unit sum per side exactly, by the
    Lawson-Hanson active-set method with one equality row per side (Lawson &
    Hanson 1974; Bro & De Jong 1997), from the current weights with the
    oracle atoms entering.  Each pass solves the KKT system of the active and
    entering atoms, with G = A^T A and E the side rows,

        [ 0    E ] [nu]   [      1     ]
        [ E^T  G ] [ w] = [ A^T target ],

    by ``np.linalg.solve``; no penalty row stands in for the unit sums.  When
    a weight is not positive, Wolfe's ratio step goes back toward the last
    feasible weights until one reaches zero, and that atom leaves.  When all
    are positive, the inactive atom with the most negative multiplier
    G w - A^T target + E^T nu enters.  Between steps every live atom is
    active, so a step whose atoms all stay takes one pass.

    An entering atom is admitted only when its Schur complement in the KKT
    matrix, the squared distance from its point to the affine span of the
    active points of its side (shifted by the other sides), is above
    ``_ADMIT_RTOL`` of its squared norm.  A lone one that fails, or that
    enters and gains no weight, adds nothing the active atoms do not already
    reach and is evicted from the store; of several, those that fail wait
    for the dual check.  Start atoms that depend on each other make the
    first step start again from the oracle atom of every side alone.

    Storage is built by the first step, with fixed capacity: ``kkt`` holds
    the KKT matrix of the live atoms ``atoms``, side rows first and the
    right-hand side as its last column, and ``points`` their columns a.
    The ``q`` active atoms come first, so a pass solves a leading block.  A
    new atom borders the Gram matrix with one product; an atom leaves the
    block, or an evicted one the store, by a swap with its last atom.
    """

    def __init__(self, spaces: list[Subspace], target: np.ndarray):
        self.bases = [space.basis for space in spaces]
        self.tables = [space.compression_table for space in spaces]
        # Python floats: the per-step products stay scalar ones.
        self.signs = [1.0, -1.0][:len(spaces)]
        self.target = target
        # The oracle minimizes <sign * d, z>: the top eigenpair of -sign * d.
        self.flips = -np.array(self.signs)[:, None]
        # Sides of one rank, a lone side included, share one eigensolve call.
        self.table = np.stack(self.tables) if len({t.shape for t in self.tables}) == 1 else None
        self.kkt = None
        self.iterate = None
        self.dual_tol = -_DUAL_RTOL * (1.0 + float(abs(target).max(initial=0.0)))

    def oracle(self, d: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The oracle atom (u, z) of every side: z = |Q u|^2 minimizes
        <sign * d, z> over the side's moment set."""
        directions = self.flips * d
        if self.table is None:
            us = [compressed_top_eigh(table, c[None])[1][0]
                  for table, c in zip(self.tables, directions)]
        else:
            us = compressed_top_eigh(self.table, directions)[1]
        return [(u, abs(q @ u) ** 2) for q, u in zip(self.bases, us)]

    def residual(self) -> np.ndarray:
        """Residual of the starting iterate, the centroid of every side."""
        return sum(sign * (abs(q) ** 2).mean(axis=1)
                   for q, sign in zip(self.bases, self.signs)) - self.target

    def witness(self, s: int) -> np.ndarray:
        """The n x n density matrix Q M Q* of side s at the iterate, M the
        r x r density matrix of the convex combination of its atoms."""
        q = self.bases[s]
        if self.iterate is None:
            r = q.shape[1]
            atoms, weights = np.eye(r), np.full(r, 1.0 / r)
        else:
            weights, live = self.iterate
            mine = [i for i, (t, _) in enumerate(live) if t == s]
            atoms, weights = np.array([live[i][1] for i in mine]), weights[mine]
        m = (atoms.T * weights) @ atoms.conj()
        m = 0.5 * (m + m.conj().T)
        witness = q @ m @ q.conj().T
        return 0.5 * (witness + witness.conj().T)

    def _build(self, fw) -> list[float]:
        """Storage for every atom a solve can hold at once, filled with the
        oracle atoms fw, the unit vectors of all sides and the probes, in
        that order; return the weights of the first two groups."""
        n_sides, n = len(self.signs), self.target.size
        units = [np.eye(q.shape[1], dtype=np.complex128) for q in self.bases]
        # The probes: coefficient rows of the principal standard vectors,
        # the principal vertices of the moment set.
        norms = [np.linalg.norm(q, axis=1) for q in self.bases]
        probes = [q[k > 1e-12].conj() / k[k > 1e-12, None] for q, k in zip(self.bases, norms)]
        cap = sum(len(u) + len(p) for u, p in zip(units, probes)) + n + 2 * n_sides
        self.points = np.zeros((cap, n))
        self.kkt = np.zeros((n_sides + cap, n_sides + cap + 1))
        self.kkt[:n_sides, -1] = 1.0
        # By position: (side, coefficient vector) of each live atom.
        self.atoms = []
        groups = ([(s, u[None], z[None]) for s, (u, z) in enumerate(fw)]
                  + [(s, u, abs(q.T) ** 2) for s, (q, u) in enumerate(zip(self.bases, units))]
                  + [(s, p, abs(p @ q.T) ** 2) for s, (q, p) in enumerate(zip(self.bases, probes))])
        for s, atoms, points in groups:
            self.points[len(self.atoms):len(self.atoms) + len(atoms)] = self.signs[s] * points
            self.atoms += [(s, u) for u in atoms]
        self._border(0)
        return [0.0] * n_sides + [1.0 / len(u) for u in units for _ in u]

    def _border(self, lo: int) -> None:
        """Border the KKT matrix with the live atoms from position lo on."""
        n_sides, hi, k = len(self.signs), len(self.atoms), self.kkt
        points = self.points[:hi]
        border = points @ points[lo:].T
        rows = slice(n_sides + lo, n_sides + hi)
        k[n_sides:n_sides + hi, rows] = border
        k[rows, n_sides:n_sides + hi] = border.T
        # Side rows: a one-hot column per atom, set by scalars (cheaper
        # than building the one-hot block for the few atoms of a step).
        k[:n_sides, rows] = 0.0
        k[rows, :n_sides] = 0.0
        for i, (s, _) in enumerate(self.atoms[lo:], n_sides + lo):
            k[s, i] = k[i, s] = 1.0
        k[rows, -1] = points[lo:] @ self.target

    def _swap(self, a: int, b: int) -> None:
        """Exchange live positions a and b."""
        n_sides, k = len(self.signs), self.kkt
        i, j = n_sides + a, n_sides + b
        k[i], k[j] = k[j].copy(), k[i].copy()
        k[:, i], k[:, j] = k[:, j].copy(), k[:, i].copy()
        self.points[a], self.points[b] = self.points[b].copy(), self.points[a].copy()
        self.atoms[a], self.atoms[b] = self.atoms[b], self.atoms[a]

    def _leave(self, w: list[float], positions: list[int]) -> None:
        """Take the atoms at the given ascending positions out of the block
        of the len(w) leading ones: each swaps with the last and its weight
        is popped."""
        for i in reversed(positions):
            if i != len(w) - 1:
                self._swap(i, len(w) - 1)
                w[i] = w[-1]
            w.pop()

    def _evict(self, w: list[float]) -> None:
        """Pop the lone entering atom, the last of w, and its weight, after a
        swap with the last live atom."""
        w.pop()
        self._swap(len(w), len(self.atoms) - 1)
        self.atoms.pop()

    def step(self, fw) -> np.ndarray | None:
        """Add the oracle atoms (u, z) of every side and re-solve all weights.
        Return the residual of the new weights, which become the iterate only
        on ``accept``; None when the solve fails."""
        if self.kkt is None:
            # The oracle atoms enter beside the unit vectors at their
            # centroid weights.
            self.q = 0
            w = self._build(fw)
        else:
            lo = len(self.atoms)
            for s, (u, z) in enumerate(fw):
                self.points[lo + s] = self.signs[s] * z
                self.atoms.append((s, u))
            self._border(lo)
            w = self.x[len(self.signs):].tolist() + [0.0] * len(fw)
        if not self._solve(w):
            return None
        return self.x[len(self.signs):] @ self.points[:self.q] - self.target

    def accept(self) -> None:
        """Make the weights of the last ``step`` the iterate and free the
        atoms they leave at zero."""
        del self.atoms[self.q:]
        self.iterate = (self.x[len(self.signs):], self.atoms[:])

    def _solve(self, w: list[float]) -> bool:
        """Lawson-Hanson from the feasible weights w of the q active atoms and
        of the atoms entering after them.  On success the active atoms are
        the leading positions, with KKT solution ``x`` = [nu, weights]."""
        n_sides, k, q = len(self.signs), self.kkt, self.q
        # Every pass admits or drops an atom; the bound only ends cycling
        # in roundoff, as a failed solve.
        for _ in range(4 * len(self.points)):
            size, e = n_sides + len(w), len(w) - q
            # An entering atom needs 1 / its Schur complement delta, the
            # inverse's diagonal entry: a unit column of the solve gives it.
            if e:
                rhs = np.zeros((size, e + 1))
                rhs[:, 0] = k[:size, -1]
                rhs.reshape(-1)[(size - e) * (e + 1) + 1::e + 2] = 1.0
            else:
                rhs = k[:size, -1]
            try:
                sol = np.linalg.solve(k[:size, :size], rhs)
            except np.linalg.LinAlgError:
                if not e:
                    return False
                sol = None
            if e:
                norm = k.diagonal()[size - e:size].tolist()
                if sol is None:
                    bad = list(range(e))
                else:
                    # The inverse's entry is 0 for the only atom of a side.
                    inv = sol[size - e:, 1:].diagonal().tolist()
                    bad = [i for i in range(e) if not abs(inv[i]) * norm[i] * _ADMIT_RTOL < 1.0]
                    sol = sol[:, 0]
                if bad:
                    if any(w[q + i] > 0.0 for i in bad):
                        # Start atoms depend on each other: start again from
                        # the oracle atoms, which lead the first step.
                        w = [1.0] * n_sides
                    elif e == 1:
                        self._evict(w)
                    else:
                        self._leave(w, [q + i for i in bad])
                    continue
            z = sol[n_sides:].tolist()
            if min(z) > 0.0:
                q, w = len(w), z
                if q == len(self.atoms):
                    break
                # The dual check over the inactive atoms.
                live = slice(n_sides + q, n_sides + len(self.atoms))
                mult = (k[live, :n_sides + q] @ sol - k[live, -1]).tolist()
                j = min(range(len(mult)), key=mult.__getitem__)
                if not mult[j] < self.dual_tol:
                    break
                if j:
                    self._swap(q, q + j)
                w = w + [0.0]
                continue
            if e == 1 and z[-1] <= 0.0:
                # A lone entering atom that gains no weight adds nothing.
                self._evict(w)
                continue
            w = _ratio_step(w, z)
            self._leave(w, [i for i, wi in enumerate(w) if not wi > 0.0])
            q = len(w)
        else:
            return False
        self.q, self.x = q, sol
        return True


def _minimize(master: _Master, tol: float, max_iter: int, certify) -> tuple[float, int, float]:
    """Fully-corrective Frank-Wolfe (simplicial decomposition) for
    min || sum_s sign_s y_s - target ||^2 over a product of moment sets.

    Each iteration calls the oracle of every side and stops when
    ``certify(d, f, lower)`` accepts the current iterate (residual d,
    objective f, dual bound lower).  Otherwise it adds one oracle atom per
    side and re-solves the weights of all atoms exactly (``_Master.step``:
    the least-squares master with one equality row per side and no penalty,
    one KKT solve per pass).  The objective thus decreases strictly until a
    step no longer improves it or the solve fails.  Returns the final
    objective, the number of steps taken and the last ``lower``; the oracle
    also runs on the final iterate, so ``lower`` describes the returned
    point unless it is within ``tol``.
    """
    tol, max_iter = _real(tol, "tol", nonnegative=True), _integer(max_iter, "max_iter", 0)
    tol_sq = tol * tol
    target = master.target
    d = master.residual()
    f = float(d @ d)
    lower = -math.inf
    for it in range(max_iter + 1):
        if f <= tol_sq:
            break
        fw = master.oracle(d)
        vertex = sum(sign * z for sign, (_, z) in zip(master.signs, fw))
        lower = float(d @ (vertex - target)) / math.sqrt(f)
        if certify(d, f, lower) or it == max_iter:
            break
        d_new = master.step(fw)
        f_new = math.inf if d_new is None else float(d_new @ d_new)
        if not f_new < f:
            # The corrective step no longer improves: keep the last iterate.
            break
        master.accept()
        d, f = d_new, f_new
    return f, it, lower


# ---------------------------------------------------------------------------
# Public operations.

@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Distance from a point to the moment set with a witness state.

    ``witness`` is the n x n density matrix supported on the subspace whose
    moment coordinates realize the distance.  ``lower`` is 0 for a member
    within ``tol``, and otherwise the exact lower bound
    max(0, <u, p> - h(u)) on the true distance, with u the unit direction
    from the witness to p and h the support function of the moment set.
    ``converged`` holds when ``distance - lower <= tol``.
    """

    distance: float
    witness: np.ndarray
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
    p = _numbers(p, "point must have real entries", n=s.n, what="point")
    if not math.hypot(*p) <= POINT_MAX:
        raise ValueError(f"point norm exceeds {POINT_MAX:.0e}: the squared residual would overflow")
    master = _Master([s], p)
    # The dual bound of the single side is <u, p> - h(u) for u = -d/|d|, the
    # unit direction from the iterate to p: every z in the set has
    # |p - z| >= <u, p - z> >= <u, p> - h(u).
    f, iterations, lower = _minimize(
        master, tol, max_iter,
        certify=lambda d, f, lower: math.sqrt(f) - lower <= tol,
    )
    distance = math.sqrt(max(f, 0.0))
    lower = 0.0 if f <= tol * tol else max(0.0, lower)
    return ProjectionResult(
        distance=distance,
        witness=master.witness(0),
        iterations=iterations,
        converged=distance - lower <= tol,
        lower=lower,
    )


class IntersectionStatus(str, enum.Enum):
    INTERSECT = "INTERSECT"
    DISJOINT = "DISJOINT"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True, eq=False)
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
    moment sets with m_V on the lower side.  Both support values are top
    eigenvalues alone (``linalg.compressed_top_eigvalsh``), of u for m_V and
    of -u for m_W, one call each.
    """
    if v.n != w.n:
        raise ValueError("subspaces live in different ambient dimensions")
    u = _numbers(u, f"directions must be finite real rows of dimension {v.n}", n=v.n,
                 what="direction")
    top_v = float(compressed_top_eigvalsh(v.compression_table, u[None])[0])
    bottom_w = -float(compressed_top_eigvalsh(w.compression_table, -u[None])[0])
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
    master = _Master([v, w], np.zeros(v.n))
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

    f, iterations, _ = _minimize(master, tol, max_iter, certify)
    gap = math.sqrt(max(f, 0.0))
    if gap <= tol:
        status = IntersectionStatus.INTERSECT
        witness_y = master.witness(0)
        witness_x = master.witness(1)
        common = 0.5 * (np.real(np.diagonal(witness_y)) + np.real(np.diagonal(witness_x)))
        fields = dict(witness_y=witness_y, witness_x=witness_x, common=common)
    elif separation:
        status = IntersectionStatus.DISJOINT
        u, margin = separation[0]
        fields = dict(direction=u, margin=margin)
    else:
        status = IntersectionStatus.INDETERMINATE
        fields = {}
    return IntersectionCertificate(
        status=status, space_v=v, space_w=w, gap=gap, iterations=iterations, **fields
    )

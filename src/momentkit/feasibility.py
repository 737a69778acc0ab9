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
r x r gradient compression, the top one of the negated gradient: one call
of ``linalg._compressed_top_eigh1`` per side, so every step costs one small
eigensolve per side.  Iterates are explicit convex combinations of rank-one
atoms |Q u|^2.  Each iteration adds the oracle atom of every
side and re-solves all weights exactly (``_Master``): a Lawson-Hanson
active-set solve of the least-squares master with one equality row per
side for its unit sum, and no penalty row, warm-started at the current
weights.  Each of its passes is one LU solve
of the KKT system of the active atoms by ``linalg._lu_solve``, the LAPACK
kernel beside the eigensolves; a step takes one pass when no atom leaves
and one more per atom that leaves or enters.  A step is kept only when it
strictly lowers the objective, and atoms left at zero weight are dropped.
Every moment point of a side sums to +-1, so at most n + S - 1 atoms stay
active, S the number of sides.

Before the first step, the exact fiber is tried once (``_Master.fiber``).
The paper's m_S = {Diag(Y) : Y >= 0, tr Y = 1, P_S Y P_S = Y} makes the
preimage of a point, or of every common point of a pair, an affine slice of
hermitian r x r matrices per side (the fiber): sum_s sign_s T_s vec(Y_s) =
target and tr Y_s = 1, T_s the real n x 2 r_s^2 view of
``Subspace.compression_table``.  A point lies in m_S, and two sets meet,
exactly when the fiber holds a PSD point.  Its minimum-norm point is one
least-squares solve (``linalg._lstsq``), hermitian because every row is,
and is replayed first: its eigenvectors become the atoms of every side and
its eigenvalues, clipped at 0 and scaled to unit trace, their weights.
When the residual of those density matrices is within ``tol`` they are the
answer, exact to roundoff when nothing was clipped, at ``iterations = 0``;
a fiber of one point on the boundary is clipped at roundoff only.  Else,
when that point is not PSD, a bounded phase I looks for one: at most
``_PHASE_ONE_ROUNDS`` rounds of alternating projections (Bauschke &
Borwein, SIAM Review 38, 1996; Higham, IMA J. Numer. Anal. 22, 2002), each
clipping the eigenvalues of every side at ``_PHASE_ONE_EPS`` and projecting
back onto the fiber through its pseudo-inverse, one more least-squares
solve.  Its first point PSD on every side is replayed in turn; when no
round reaches one, the fiber declines.  A decline or a failed replay leaves
the master as it was, and Frank-Wolfe runs.  The fiber is tried only when
the first dual bound is at most ``tol`` (below, ``lower``): a larger one
already puts the distance above ``tol``, so separated pairs and exterior
points never pay for the solve.  Interior points and pairs meeting in their
relative interiors are settled; a point or pair whose only PSD preimage is
on the boundary of a fiber of positive dimension (a face point, a tangent
pair) has none for phase I to reach, so it pays the rounds and then takes
Frank-Wolfe steps.  Pataki (Math. Oper. Res. 23, 1998) bounds the rank of
the extreme points of such slices, and Ramana & Goldman (J. Global Optim.
7, 1995) treat their geometry.

The oracle's eigenvalues also give, at every iterate, the Wolfe dual bound
lower = -(sum_s h_s + <d, target>) / |d| on the optimal residual norm (d the
residual, h_s the top eigenvalue of side s at -sign_s d, its support value
there; Jaggi 2013), at no extra eigensolve.  The bound is read off the
eigenvalues themselves, not a Rayleigh quotient of the eigenvectors, which
could only overstate it.  It is the solver's only certificate of a
positive distance, and its only stopping test besides the residual:

* a projection stops once its distance is within ``tol`` of ``lower``, the
  exact bound <u, p> - h(u) of the direction u from the iterate to p;
* an intersection is declared DISJOINT at the first iterate whose bound
  reaches ``SEPARATION_MARGIN``: the bound is then the support gap of the
  two sides along the direction -d/|d|, which separates them, and it is the
  certificate's margin.  Disjointness is never declared otherwise.
  ``separation_margin`` replays such a certificate from two top eigenvalues
  alone (``linalg.compressed_top_eigvalsh``).

A solve stops in exactly five cases: the residual is within ``tol``, the
dual bound is accepted, the fiber is accepted, ``max_iter`` steps are
taken, or the corrective step stalls.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_MAX_ITER, DEFAULT_TOL, _compressed_top_eigh1, _eigh, _integer,
                     _lstsq, _lu_solve, _numbers, _real, compressed_top_eigvalsh)
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
#: Phase I of the fiber (``_Master.fiber``): the eigenvalue floor of its
#: projection onto the PSD side and its largest number of rounds.
_PHASE_ONE_EPS = 1e-2
_PHASE_ONE_ROUNDS = 64


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
    weights of each side on its unit simplex.  Its iterate 0 is the centroid
    of every side, diag(P)/r for the projector P, which holds no atom.  The
    first step adds the principal vertices |v^j|^2 of every side, v^j =
    P e_j / |P e_j| for each nonzero row of Q, as probes at zero weight.
    They contain iterate 0: diag(P)/r = sum_j (P_jj / r) |v^j|^2, and the
    centroid state P/r = sum_j (P_jj / r) v^j v^j*, so the first step ends
    no higher than the centroid.  They also make each principal vertex, an
    extremal point of the moment set, an exact atom the first step reaches,
    where the oracle only approaches it.

    ``step`` adds one oracle atom per side and solves
    min |A w - target|^2 over w >= 0 with unit sum per side exactly, by the
    Lawson-Hanson active-set method with one equality row per side (Lawson &
    Hanson 1974; Bro & De Jong 1997), from the current weights with the
    oracle atoms entering.  Each pass solves the KKT system of the active and
    entering atoms, with G = A^T A and E the side rows,

        [ 0    E ] [nu]   [      1     ]
        [ E^T  G ] [ w] = [ A^T target ],

    by ``linalg._lu_solve``, bitwise numpy's ``linalg.solve`` and raising
    ``LinAlgError`` as it does on a singular matrix; no penalty row stands
    in for the unit sums.  When a weight is not positive, Wolfe's ratio
    step goes back toward the last feasible weights until one reaches zero,
    and that atom leaves.  When all are positive, the inactive atom with
    the most negative multiplier G w - A^T target + E^T nu enters.  Between
    steps every live atom is active, so a step whose atoms all stay takes
    one pass.

    Each pass rejects entering atoms in one decision: all when the KKT
    matrix is singular, else each whose Schur complement in it (the squared
    distance from its point to the affine span of the active points of its
    side, shifted by the other sides) is not above ``_ADMIT_RTOL`` of its
    squared norm, and a lone one whose weight solves to at most 0.  A lone
    rejected atom reaches nothing new and is evicted from the store; those
    of a block leave it and wait for the dual check.  No atom enters with
    weight: in the first pass of the first step each oracle atom is the only
    atom of its side, with weight 1 and inverse entry 0, so none is rejected.

    The first step allocates the store, with fixed capacity: ``kkt`` holds
    the KKT matrix of the live atoms ``atoms``, side rows first and the
    right-hand side as its last column, and ``points`` their columns a.  The
    ``q`` active atoms come first, so a pass solves a leading block.  A step
    writes its atoms, the first its probes too, after the live ones and
    borders the Gram matrix with them in one product; an atom leaves the
    block, or an evicted one the store, by a swap with its last atom.
    """

    def __init__(self, spaces: list[Subspace], target: np.ndarray):
        self.bases = [space.basis for space in spaces]
        self.tables = [space.compression_table for space in spaces]
        # Python floats: the per-step products stay scalar ones.
        self.signs = [1.0, -1.0][:len(spaces)]
        self.target = target
        self.kkt = None
        self.iterate = None
        self.dual_tol = -_DUAL_RTOL * (1.0 + float(abs(target).max(initial=0.0)))

    def oracle(self, d: np.ndarray) -> tuple[list[float], list[tuple[np.ndarray, np.ndarray]]]:
        """The top eigenvalue h of every side at -sign * d, and its oracle
        atom (u, z): z = |Q u|^2 minimizes <sign * d, z> over the side's
        moment set, where the minimum is -h."""
        top = [_compressed_top_eigh1(t, -sign * d) for t, sign in zip(self.tables, self.signs)]
        return [h for h, _ in top], [(u, abs(q @ u) ** 2) for q, (_, u) in zip(self.bases, top)]

    def residual(self) -> np.ndarray:
        """Residual of the starting iterate, the centroid of every side."""
        return sum(sign * (abs(q) ** 2).mean(axis=1)
                   for q, sign in zip(self.bases, self.signs)) - self.target

    def witness(self, s: int) -> np.ndarray:
        """The n x n density matrix Q M Q* = sum_k w_k (Q u_k)(Q u_k)* of
        side s at the iterate, M the mixture of its atoms u_k."""
        q = self.bases[s]
        if self.iterate is None:
            r = q.shape[1]
            atoms, weights = np.eye(r), np.full(r, 1.0 / r)
        else:
            weights, live = self.iterate
            mine = [i for i, (t, _) in enumerate(live) if t == s]
            atoms, weights = np.array([live[i][1] for i in mine]), weights[mine]
        qu = q @ atoms.T
        witness = (qu * weights) @ qu.conj().T
        return 0.5 * (witness + witness.conj().T)

    def fiber(self, tol: float) -> np.ndarray | None:
        """Try a PSD point of the fiber: the hermitian Y_s of every side
        with sum_s sign_s T_s vec(Y_s) = target and tr Y_s = 1, T_s the real
        n x 2 r_s^2 view of side s's compression table.  Its minimum-norm
        point x is one least-squares solve (``linalg._lstsq``), replayed
        first (``_replay``).  When that fails and x is not PSD, a second
        solve gives the pseudo-inverse A+ of the system A y = b, and phase I
        alternates at most ``_PHASE_ONE_ROUNDS`` times between clipping the
        eigenvalues of every side at ``_PHASE_ONE_EPS`` (z) and projecting
        back onto the fiber, y = x + (I - A+ A) z, until y is PSD on every
        side, and replays that y, or declines when no round reaches one.
        Returns the replayed residual, or None with the master untouched."""
        n, sizes = self.target.size, [2 * q.shape[1] ** 2 for q in self.bases]
        a = np.zeros((n + len(sizes), sum(sizes)))
        lo = 0
        for s, (table, sign, size) in enumerate(zip(self.tables, self.signs, sizes)):
            a[:n, lo:lo + size] = sign * table.reshape(n, -1).view(np.float64)
            # The trace: the real parts of the diagonal entries.
            a[n + s, lo:lo + size:2 * table.shape[1] + 2] = 1.0
            lo += size
        b = np.concatenate([self.target, np.ones(len(sizes))])
        x = _lstsq(a, b)
        spectra = self._spectra(x)
        d = self._replay(spectra, tol)
        if d is not None or min(values[0] for values, _ in spectra) >= 0.0:
            return d
        # Phase I: alternate between {Y_s >= eps I} and the fiber x +
        # null(A), onto which I - A+ A projects.
        null = np.eye(a.shape[1]) - _lstsq(a, np.eye(len(b))) @ a
        for _ in range(_PHASE_ONE_ROUNDS):
            z = np.concatenate([
                ((vectors * np.maximum(values, _PHASE_ONE_EPS)) @ vectors.conj().T)
                .reshape(-1).view(np.float64) for values, vectors in spectra])
            spectra = self._spectra(x + null @ z)
            if min(values[0] for values, _ in spectra) >= 0.0:
                return self._replay(spectra, tol)
        return None

    def _replay(self, spectra: list, tol: float) -> np.ndarray | None:
        """Make the eigenvectors of a fiber point's sides the atoms and its
        eigenvalues, clipped at 0 and scaled to unit sum, their weights; when
        their residual is within ``tol``, they become the iterate and the
        residual is returned, else None and the master is left as it was."""
        d, weights, atoms = -self.target, [], []
        for s, (q, sign, (values, vectors)) in enumerate(zip(self.bases, self.signs, spectra)):
            w = np.maximum(values, 0.0)
            total = float(w.sum())
            if not total > 0.0:
                return None
            w /= total
            d = d + sign * (abs(q @ vectors) ** 2 @ w)
            weights.append(w)
            atoms += [(s, u) for u in vectors.T]
        if not float(d @ d) <= tol * tol:
            return None
        self.iterate = (np.concatenate(weights), atoms)
        return d

    def _spectra(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The eigenpairs of the hermitian block of every side in the real
        vector x of a fiber point."""
        spectra, lo = [], 0
        for q in self.bases:
            r = q.shape[1]
            spectra.append(_eigh(x[lo:lo + 2 * r * r].view(np.complex128).reshape(r, r)))
            lo += 2 * r * r
        return spectra

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
        n_sides, n, probes = len(self.signs), self.target.size, []
        if self.kkt is None:
            # Storage for every atom a solve can hold at once.  The probes:
            # coefficient rows of the principal standard vectors.
            norms = [np.linalg.norm(q, axis=1) for q in self.bases]
            probes = [q[k > 1e-12].conj() / k[k > 1e-12, None] for q, k in zip(self.bases, norms)]
            cap = sum(len(p) for p in probes) + n + 2 * n_sides
            self.points = np.zeros((cap, n))
            self.kkt = np.zeros((n_sides + cap, n_sides + cap + 1))
            self.kkt[:n_sides, -1] = 1.0
            # By position: (side, coefficient vector) of each live atom;
            # none is active yet, so the oracle atoms enter at weight 0.
            self.atoms, self.q, self.x = [], 0, np.zeros(n_sides)
        w = self.x[n_sides:].tolist() + [0.0] * len(fw)
        lo = len(self.atoms)
        for s, (u, z) in enumerate(fw):
            self.points[lo + s] = self.signs[s] * z
            self.atoms.append((s, u))
        for s, (q, p) in enumerate(zip(self.bases, probes)):
            i = len(self.atoms)
            self.points[i:i + len(p)] = self.signs[s] * abs(p @ q.T) ** 2
            self.atoms += [(s, u) for u in p]
        self._border(lo)
        if not self._solve(w):
            return None
        return self.x[n_sides:] @ self.points[:self.q] - self.target

    def accept(self) -> None:
        """Make the weights of the last ``step`` the iterate and free the
        atoms they leave at zero."""
        del self.atoms[self.q:]
        self.iterate = (self.x[len(self.signs):], self.atoms[:])

    def _solve(self, w: list[float]) -> bool:
        """Lawson-Hanson from the weights w of the q active atoms, feasible
        when q > 0, and 0 for each atom entering after them.  On success the
        active atoms are the leading positions, with KKT solution ``x`` =
        [nu, weights]."""
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
            bad = []
            try:
                sol = _lu_solve(k[:size, :size], rhs)
            except np.linalg.LinAlgError:
                if not e:
                    return False
                bad = list(range(e))
            else:
                if e:
                    # The inverse's entry is 0 for the only atom of a side.
                    inv = sol[size - e:, 1:].diagonal().tolist()
                    norm = k.diagonal()[size - e:size].tolist()
                    sol = sol[:, 0]
                    # Rejected: each failed Schur complement; a lone atom without weight.
                    bad = [i for i in range(e) if not abs(inv[i]) * norm[i] * _ADMIT_RTOL < 1.0
                           or e == 1 and sol[-1] <= 0.0]
            if bad:
                if e == 1:
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
            w = _ratio_step(w, z)
            self._leave(w, [i for i, wi in enumerate(w) if not wi > 0.0])
            q = len(w)
        else:
            return False
        self.q, self.x = q, sol
        return True


def _minimize(master: _Master, tol: float, max_iter: int,
              stop) -> tuple[float, int, float, np.ndarray]:
    """Fully-corrective Frank-Wolfe (simplicial decomposition) for
    min || sum_s sign_s y_s - target ||^2 over a product of moment sets.

    Each iteration calls the oracle of every side, reads the dual bound
    lower = -(sum_s h_s + <d, target>) / |d| off its top eigenvalues h_s,
    and stops when ``stop(f, lower)`` accepts the current iterate (objective
    f = |d|^2).  At iteration 0, with lower <= tol, it then tries the
    fiber (``_Master.fiber``: the minimum-norm point, then phase I) and
    stops there when that is accepted.  Otherwise it adds one oracle atom
    per side and re-solves the weights of all atoms exactly
    (``_Master.step``: the least-squares master with one equality row per
    side and no penalty, one KKT solve per pass).  The objective thus
    decreases strictly until a step no longer improves it or the solve
    fails.  Returns the final objective, the number of steps taken, the last
    ``lower`` and the final residual d; the oracle also runs on the final
    iterate, so ``lower`` describes the returned point unless it is within
    ``tol``.
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
        tops, fw = master.oracle(d)
        lower = -(sum(tops) + float(d @ target)) / math.sqrt(f)
        if stop(f, lower) or it == max_iter:
            break
        if not it and lower <= tol and (d_fiber := master.fiber(tol)) is not None:
            # The fiber: its clipped minimum-norm point, or the first PSD
            # point of its phase I, replays within tol.
            d, f = d_fiber, float(d_fiber @ d_fiber)
            break
        d_new = master.step(fw)
        f_new = math.inf if d_new is None else float(d_new @ d_new)
        if not f_new < f:
            # The corrective step no longer improves: keep the last iterate.
            break
        master.accept()
        d, f = d_new, f_new
    return f, it, lower, d


# ---------------------------------------------------------------------------
# Public operations.

@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Distance from a point to the moment set with a witness state.

    ``witness`` is the n x n density matrix supported on the subspace whose
    moment coordinates realize the distance.  ``lower`` is 0 for a member
    within ``tol``, and otherwise the exact lower bound
    max(0, <u, p> - h(u)) on the true distance, with u the unit direction
    from the witness to p and h the support function of the moment set,
    capped at ``distance``: always 0 <= lower <= distance.  ``converged``
    holds when ``distance - lower <= tol``.  A member the fiber settles
    (``iterations = 0``) has a witness from a PSD point of its fiber, whose
    moment point is p to roundoff.
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
    f, iterations, lower, _ = _minimize(
        master, tol, max_iter, stop=lambda f, lower: math.sqrt(f) - lower <= tol)
    distance = math.sqrt(max(f, 0.0))
    # Roundoff can put the bound a few ulps above the distance it bounds.
    lower = 0.0 if f <= tol * tol else min(max(0.0, lower), distance)
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
    point.  When the fiber settles the pair (``iterations = 0``), Y and X
    come from its minimum-norm point or its phase I, and agree to roundoff
    when that point is PSD.  DISJOINT carries a unit direction u and the
    strict support gap ``margin`` by which max over m_V of <u, .> stays
    below min over m_W of <u, .>.  ``gap`` is the diagonal-difference norm reached by the solver.
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
    moment sets with m_V on the lower side.  This is the replay of a
    DISJOINT certificate: at its ``direction`` it recomputes the ``margin``
    the solver read off its oracle, up to roundoff.  Both support values are
    top eigenvalues alone (``linalg.compressed_top_eigvalsh``), of u for m_V
    and of -u for m_W, one call each.
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
    matrices, after one try of the fiber (its minimum-norm point, and its
    phase I when that does not replay).  INTERSECT
    when the residual norm reaches ``tol``; DISJOINT only
    when an exact support-function separation holds with a strict margin;
    INDETERMINATE otherwise (tangent or unresolved within ``max_iter``).
    The margin of DISJOINT is the solver's dual bound, the support gap
    min over m_W - max over m_V of <u, .> at u = -d/|d|, d the residual:
    two top eigenvalues of the oracle, replayed by ``separation_margin``.
    """
    if v.n != w.n:
        raise ValueError("subspaces live in different ambient dimensions")
    master = _Master([v, w], np.zeros(v.n))
    f, iterations, lower, d = _minimize(
        master, tol, max_iter, stop=lambda f, lower: lower >= SEPARATION_MARGIN)
    gap = math.sqrt(max(f, 0.0))
    if gap <= tol:
        status = IntersectionStatus.INTERSECT
        witness_y = master.witness(0)
        witness_x = master.witness(1)
        common = 0.5 * (np.real(np.diagonal(witness_y)) + np.real(np.diagonal(witness_x)))
        fields = dict(witness_y=witness_y, witness_x=witness_x, common=common)
    elif lower >= SEPARATION_MARGIN:
        status = IntersectionStatus.DISJOINT
        fields = dict(direction=-d / float(np.linalg.norm(d)), margin=lower)
    else:
        status = IntersectionStatus.INDETERMINATE
        fields = {}
    return IntersectionCertificate(
        status=status, space_v=v, space_w=w, gap=gap, iterations=iterations, **fields
    )

"""Property tests: the solver never overclaims, its verdicts do not depend
on the coordinate frame, its master solve is exact and its store is the KKT
matrix of its atoms, its fiber certificates replay, and support values are
exact.  Where ``paper_claims``
has an exact oracle (the simplex of a coordinate subspace; the Bloch ball of
r = 2, for support values, projections and pairs with a line), answers are
checked against it.

Shapes run over n = 1..10 and r = 1..n, r = n and n = 1 included (the
master and coordinate subspaces run to n = 12, the Bloch ball to n = 24).
Every example is rebuilt from a numpy seed, so a failure replays from the
printed arguments.
"""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from momentkit import (
    IntersectionStatus,
    moments_intersect,
    project_onto_moment,
    sample_moment,
    subspace_from_spanning,
    support_moment,
)
from momentkit.feasibility import (
    DEFAULT_TOL,
    SEPARATION_MARGIN,
    _Master,
    separation_margin,
)

from momentkit.linalg import compressed_top_eigh

from conftest import assert_bitwise, assert_kkt_store, random_subspace, random_unitary
from paper_claims import bloch_distance, bloch_support, simplex_projection

#: Iteration cap of every solver call here: an unresolved run must come back
#: INDETERMINATE or unconverged, never with a wrong certificate, so a short
#: cap loses nothing.
MAX_ITER = 300

seeds = st.integers(0, 2**32 - 1)


@st.composite
def shapes(draw, sides: int = 1):
    """(n, r_1, ..., r_sides) with 1 <= r_i <= n <= 10."""
    n = draw(st.integers(1, 10))
    return (n, *(draw(st.integers(1, n)) for _ in range(sides)))


@given(shape=shapes(), seed=seeds)
@example(shape=(1, 1), seed=0)
@example(shape=(2, 1), seed=1)
@example(shape=(6, 6), seed=2)
def test_diagonal_unitary_pairs_never_disjoint(shape, seed):
    # W = span{D_k x_k}: the unit vector D_k x_k / |x_k| of W has the moment
    # point of x_k / |x_k| in V, so the moment sets share a point.
    n, r = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    phases = np.exp(2j * np.pi * rng.random((r, n)))
    v = subspace_from_spanning(x)
    w = subspace_from_spanning(x * phases)
    cert = moments_intersect(v, w, max_iter=MAX_ITER)
    assert cert.status is not IntersectionStatus.DISJOINT


@given(shape=shapes(sides=2), seed=seeds)
@example(shape=(1, 1, 1), seed=0)
@example(shape=(4, 1, 1), seed=3)
@example(shape=(5, 5, 2), seed=4)
def test_random_pairs_certificates_replay(shape, seed):
    n, r_v, r_w = shape
    rng = np.random.default_rng(seed)
    v, w = random_subspace(rng, n, r_v), random_subspace(rng, n, r_w)
    cert = moments_intersect(v, w, max_iter=MAX_ITER)
    if cert.status is IntersectionStatus.DISJOINT:
        assert separation_margin(v, w, cert.direction) >= SEPARATION_MARGIN
    elif cert.status is IntersectionStatus.INTERSECT:
        dy = np.real(np.diagonal(cert.witness_y))
        dx = np.real(np.diagonal(cert.witness_x))
        assert np.linalg.norm(dy - dx) <= DEFAULT_TOL + 1e-12


@given(shape=shapes(), seed=seeds, on_simplex=st.booleans())
@example(shape=(1, 1), seed=0, on_simplex=False)
@example(shape=(7, 7), seed=5, on_simplex=True)
def test_projection_lower_bound_below_distance(shape, seed, on_simplex):
    n, r = shape
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, n, r)
    p = rng.dirichlet(np.ones(n)) if on_simplex else rng.standard_normal(n)
    res = project_onto_moment(s, p, max_iter=MAX_ITER)
    assert 0.0 <= res.lower <= res.distance
    assert res.converged == (res.distance - res.lower <= DEFAULT_TOL)


@given(shape=shapes(), seed=seeds)
@example(shape=(1, 1), seed=0)
@example(shape=(5, 1), seed=6)
@example(shape=(8, 8), seed=7)
def test_support_bounds_moment_points_and_is_attained(shape, seed):
    n, r = shape
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, n, r)
    c = rng.standard_normal(n)
    sup = support_moment(s, c)
    assert np.max(sample_moment(s, 64, seed) @ c) <= sup.value + 1e-12
    assert sup.value == pytest.approx(c @ np.abs(sup.maximizer) ** 2, abs=1e-12)


@given(shape=shapes(), seed=seeds, real=st.booleans(), k=st.integers(1, 6))
@example(shape=(1, 1), seed=0, real=False, k=1)
@example(shape=(2, 2), seed=8, real=True, k=6)
@example(shape=(7, 6), seed=9, real=False, k=3)
def test_support_moment_is_its_row_of_a_stack(shape, seed, real, k):
    # One direction alone takes the lone-row phase fix, a stack the gather:
    # value, maximizer and eigenvector agree in bytes, signed zeros included
    # (the maximizer's sums seldom keep a zero part, the eigenvector does).
    n, r = shape
    rng = np.random.default_rng(seed)
    s = subspace_from_spanning(rng.standard_normal((r, n))) if real else random_subspace(rng, n, r)
    stack = np.vstack([rng.standard_normal((k, n)), rng.integers(-1, 2, (k, n))])
    values, vectors = compressed_top_eigh(s.compression_table, stack)
    for i, c in enumerate(stack):
        sup = support_moment(s, c)
        assert_bitwise(sup.value, float(values[i]))
        assert_bitwise(sup.maximizer, s.basis @ vectors[i])
        assert_bitwise(compressed_top_eigh(s.compression_table, c[None])[1][0], vectors[i])


@given(n=st.integers(3, 24), seed=seeds)
@example(n=3, seed=0)
@example(n=24, seed=10)
def test_support_matches_bloch_ball_for_rank_two(n, seed):
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, n, 2)
    for scale in (1e-3, 1.0, 1e3):
        u = scale * rng.standard_normal(n)
        assert abs(bloch_support(s, u) - support_moment(s, u).value) <= 1e-14 * (1.0 + np.max(np.abs(u)))


def _moment_points(rng, s, k):
    """The moment points |Q u|^2 of k random unit vectors of s."""
    u = rng.standard_normal((k, s.r)) + 1j * rng.standard_normal((k, s.r))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.abs(u @ s.basis.T) ** 2


@given(n=st.integers(2, 24), seed=seeds)
@example(n=2, seed=0)
@example(n=24, seed=14)
def test_rank_two_projection_matches_bloch_ball(n, seed):
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, n, 2)
    inside = rng.dirichlet(np.ones(2)) @ _moment_points(rng, s, 2)
    for p in (inside, 0.1 * rng.standard_normal(n), rng.standard_normal(n), 10.0 * rng.standard_normal(n)):
        exact = bloch_distance(s, p)
        res = project_onto_moment(s, p, max_iter=MAX_ITER)
        if res.converged:
            slack = 1e-12 * (1.0 + np.linalg.norm(p))
            assert res.lower <= exact + slack
            assert exact <= res.distance + slack
            assert res.distance <= exact + DEFAULT_TOL


@given(n=st.integers(2, 24), seed=seeds)
@example(n=2, seed=0)
@example(n=3, seed=15)
@example(n=24, seed=16)
def test_rank_two_pairs_match_bloch_ball(n, seed):
    # W, the line spanned by sqrt(w) times random phases, has the one moment
    # point w, so the moment sets lie bloch_distance(V, w) apart: 0 for a
    # moment point of V on its boundary (tangent) or inside it, and
    # generally not for a point of the simplex.
    rng = np.random.default_rng(seed)
    v = random_subspace(rng, n, 2)
    tangent, *pair = _moment_points(rng, v, 3)
    inside = rng.dirichlet(np.ones(2)) @ np.array(pair)
    for w, touching in ((tangent, True), (inside, True), (rng.dirichlet(np.ones(n)), False)):
        space_w = subspace_from_spanning([np.sqrt(w) * np.exp(2j * np.pi * rng.random(n))])
        exact = bloch_distance(v, w)
        cert = moments_intersect(v, space_w, max_iter=MAX_ITER)
        if touching:
            assert cert.status is not IntersectionStatus.DISJOINT
        if cert.status is IntersectionStatus.DISJOINT:
            assert cert.margin <= exact * (1.0 + 1e-12)
        elif cert.status is IntersectionStatus.INTERSECT:
            assert exact <= DEFAULT_TOL + 1e-12


def _assert_fiber_certificate(cert, v, w, agree):
    """An INTERSECT answer of the fiber replays: two density matrices, PSD,
    of unit trace and supported on V and W, whose moment points agree
    within ``agree`` and within the reported gap."""
    assert cert.status is IntersectionStatus.INTERSECT and cert.iterations == 0
    for witness, space in ((cert.witness_y, v), (cert.witness_x, w)):
        assert np.max(np.abs(witness - witness.conj().T)) <= 1e-15
        assert np.linalg.eigvalsh(witness)[0] >= -1e-14
        assert abs(np.trace(witness).real - 1.0) <= 1e-14
        p = space.projector
        assert np.max(np.abs(p @ witness @ p - witness)) <= 1e-14
    gap = np.linalg.norm(np.real(np.diagonal(cert.witness_y)) - np.real(np.diagonal(cert.witness_x)))
    assert gap <= agree and abs(gap - cert.gap) <= 1e-15


@given(shape=shapes(sides=2), seed=seeds)
@example(shape=(1, 1, 1), seed=0)
@example(shape=(8, 2, 2), seed=1)
@example(shape=(10, 10, 3), seed=2)
def test_fiber_certificates_replay(shape, seed):
    # Diagonal unitary pairs W = span{D_k x_k}, sharing the relative
    # interior points of their moment sets, and random pairs: every answer
    # the fiber settles replays, its moment points equal to roundoff.
    n, r_v, r_w = shape
    rng = np.random.default_rng(seed)
    v = random_subspace(rng, n, r_v)
    x = v.basis.T
    shared = subspace_from_spanning(x * np.exp(2j * np.pi * rng.random(x.shape)))
    spaces = (shared, random_subspace(rng, n, r_w))
    certs = [moments_intersect(v, w, max_iter=MAX_ITER) for w in spaces]
    assert certs[0].iterations == 0
    for cert, w in zip(certs, spaces):
        if cert.iterations == 0 and cert.status is IntersectionStatus.INTERSECT:
            _assert_fiber_certificate(cert, v, w, 1e-14)


@given(shape=shapes(), seed=seeds)
@example(shape=(1, 1), seed=0)
@example(shape=(8, 3), seed=1)
@example(shape=(10, 5), seed=2)
def test_fiber_projections_replay(shape, seed):
    # A member of m_S, a mixture of the moment points of four random unit
    # vectors of S with weights in [1/2, 3/2] as in the benchmark: every
    # projection the fiber settles has a witness that replays, PSD, of
    # unit trace and supported on S, with moment point p to roundoff.
    n, r = shape
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, n, r)
    weights = rng.random(4) + 0.5
    p = weights / weights.sum() @ _moment_points(rng, s, 4)
    res = project_onto_moment(s, p, max_iter=MAX_ITER)
    assert res.converged
    if res.iterations == 0:
        witness = res.witness
        assert np.max(np.abs(witness - witness.conj().T)) <= 1e-15
        assert np.linalg.eigvalsh(witness)[0] >= -1e-14
        assert abs(np.trace(witness).real - 1.0) <= 1e-14
        assert np.max(np.abs(s.projector @ witness @ s.projector - witness)) <= 1e-14
        assert np.linalg.norm(np.real(np.diagonal(witness)) - p) <= 1e-14
        assert res.lower == 0.0 and res.distance <= 1e-14


@given(n=st.integers(2, 24), seed=seeds)
@example(n=2, seed=0)
@example(n=4, seed=316)
@example(n=24, seed=17)
def test_tangent_pairs_never_disjoint(n, seed):
    # The line W through the moment point of a unit vector of V (r_V = 2),
    # a point of the Bloch sphere's image: the sets touch, at distance 0.
    # For r = 2 the fiber's minimum-norm point is the PSD point nearest
    # the centre of the Bloch ball, so the fiber settles the pair; clipping
    # its roundoff leaves the moment points up to about 1e-13 apart (5.6e-14
    # at n = 4, seed 316).
    rng = np.random.default_rng(seed)
    v = random_subspace(rng, n, 2)
    (w,) = _moment_points(rng, v, 1)
    space_w = subspace_from_spanning([np.sqrt(w) * np.exp(2j * np.pi * rng.random(n))])
    assert bloch_distance(v, w) <= 1e-12
    cert = moments_intersect(v, space_w, max_iter=MAX_ITER)
    assert cert.status is not IntersectionStatus.DISJOINT
    _assert_fiber_certificate(cert, v, space_w, 1e-12)


@given(n=st.integers(2, 24), seed=seeds, step=st.floats(-6.0, 0.0))
@example(n=2, seed=0, step=-6.0)
@example(n=12, seed=18, step=-3.0)
def test_pairs_apart_never_intersect(n, seed, step):
    # The line W through a point w between a tangent point of V (r_V = 2)
    # and a point of the simplex, 10**step of the way: whenever the exact
    # distance of the sets exceeds 10 tol, the answer is not INTERSECT.
    rng = np.random.default_rng(seed)
    v = random_subspace(rng, n, 2)
    (tangent,) = _moment_points(rng, v, 1)
    w = tangent + 10.0 ** step * (rng.dirichlet(np.ones(n)) - tangent)
    space_w = subspace_from_spanning([np.sqrt(w) * np.exp(2j * np.pi * rng.random(n))])
    cert = moments_intersect(v, space_w, max_iter=MAX_ITER)
    if bloch_distance(v, w) > 10.0 * DEFAULT_TOL:
        assert cert.status is not IntersectionStatus.INTERSECT


def _coordinate_subspace(rng, n, index):
    """span(e_i : i in index), spanned by a random unitary basis of it: its
    moment set is the standard simplex on index."""
    return subspace_from_spanning(random_unitary(rng, len(index)) @ np.eye(n)[index])


def _some_coordinates(rng, n, must=()):
    """A random nonempty sorted index set of range(n) that holds ``must``."""
    drawn = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
    return sorted({int(i) for i in drawn} | set(must))


@given(n=st.integers(1, 12), seed=seeds)
@example(n=1, seed=0)
@example(n=12, seed=11)
def test_coordinate_projection_matches_simplex(n, seed):
    rng = np.random.default_rng(seed)
    for scale in (0.1, 1.0, 10.0):
        index = _some_coordinates(rng, n)
        s = _coordinate_subspace(rng, n, index)
        p = scale * rng.standard_normal(n)
        exact = float(np.linalg.norm(p - simplex_projection(p, index)))
        res = project_onto_moment(s, p, max_iter=MAX_ITER)
        if res.converged:
            # The roundoff of the bound and of the witness grows with |p|.
            slack = 1e-12 * (1.0 + np.linalg.norm(p))
            assert res.lower <= exact + slack
            assert exact <= res.distance + slack
            assert res.distance <= exact + DEFAULT_TOL


@given(n=st.integers(1, 12), seed=seeds)
@example(n=1, seed=0)
@example(n=2, seed=12)
@example(n=12, seed=13)
def test_coordinate_pairs_match_simplices(n, seed):
    # Simplices on disjoint index sets lie sqrt(1/|I| + 1/|J|) apart, their
    # centroids' distance, which bounds any support gap; on overlapping sets
    # they share a vertex.
    rng = np.random.default_rng(seed)
    if n > 1:
        perm = rng.permutation(n)
        a = int(rng.integers(1, n))
        index, other = sorted(perm[:a]), sorted(perm[a:a + int(rng.integers(1, n - a + 1))])
        v, w = _coordinate_subspace(rng, n, index), _coordinate_subspace(rng, n, other)
        cert = moments_intersect(v, w, max_iter=MAX_ITER)
        assert cert.status is IntersectionStatus.DISJOINT
        assert cert.margin <= np.sqrt(1.0 / len(index) + 1.0 / len(other)) * (1.0 + 1e-12)
        assert separation_margin(v, w, cert.direction) >= SEPARATION_MARGIN
    shared = int(rng.integers(n))
    index, other = _some_coordinates(rng, n, [shared]), _some_coordinates(rng, n, [shared])
    cert = moments_intersect(_coordinate_subspace(rng, n, index),
                             _coordinate_subspace(rng, n, other), max_iter=MAX_ITER)
    assert cert.status is IntersectionStatus.INTERSECT


def _reframed(rng, spaces):
    """The spaces in another coordinate frame, and its permutation: one
    permutation of the coordinates for all, and an independent diagonal
    unitary for each space.  Moment sets permute with the coordinates and
    ignore the unitaries, so every verdict must carry over."""
    n = spaces[0].n
    perm = rng.permutation(n)
    moved = [subspace_from_spanning((np.exp(2j * np.pi * rng.random(n))[:, None] * s.basis)[perm].T)
             for s in spaces]
    return moved, perm


@given(shape=shapes(sides=2), seed=seeds)
@example(shape=(1, 1, 1), seed=0)
@example(shape=(6, 2, 3), seed=8)
def test_intersection_verdict_is_frame_invariant(shape, seed):
    n, r_v, r_w = shape
    rng = np.random.default_rng(seed)
    spaces = [random_subspace(rng, n, r_v), random_subspace(rng, n, r_w)]
    moved, _ = _reframed(rng, spaces)
    a, b = (moments_intersect(v, w, max_iter=MAX_ITER) for v, w in (spaces, moved))
    for one, other in ((a, b), (b, a)):
        if one.status is IntersectionStatus.INTERSECT and other.status is IntersectionStatus.DISJOINT:
            assert other.margin <= DEFAULT_TOL


@given(shape=shapes(), seed=seeds, on_simplex=st.booleans())
@example(shape=(1, 1), seed=0, on_simplex=False)
@example(shape=(7, 3), seed=9, on_simplex=True)
def test_projection_is_frame_invariant(shape, seed, on_simplex):
    n, r = shape
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, n, r)
    p = rng.dirichlet(np.ones(n)) if on_simplex else rng.standard_normal(n)
    (moved,), perm = _reframed(rng, [s])
    a = project_onto_moment(s, p, max_iter=MAX_ITER)
    b = project_onto_moment(moved, p[perm], max_iter=MAX_ITER)
    if a.converged and b.converged:
        assert abs(a.distance - b.distance) <= DEFAULT_TOL
    # Each lower bound holds for the true distance, which the other frame's
    # witness bounds from above.
    assert a.lower <= b.distance + 1e-12
    assert b.lower <= a.distance + 1e-12


@st.composite
def master_cases(draw):
    """(n, ranks, kind, seed) for the master: one or two sides with n <= 12.
    ``kind`` "duplicate" feeds the first coefficient unit vector at every
    step, an atom the store holds from the second step on, and "zero"
    gives a residual that reaches 0: a target on the moment set, or a pair
    W = span{D_k x_k} of the same rank."""
    n = draw(st.integers(1, 12))
    ranks = tuple(draw(st.integers(1, n)) for _ in range(draw(st.integers(1, 2))))
    kind = draw(st.sampled_from(["oracle", "duplicate", "zero"]))
    if kind == "zero":
        ranks = ranks[:1] * len(ranks)
    return n, ranks, kind, draw(seeds)


def _master_steps(n, ranks, kind, seed, steps=4):
    """Run a master for a few steps, as ``_minimize`` does until the residual
    is within tolerance; yield it after each step, with the residual it
    returned, before the step is accepted."""
    rng = np.random.default_rng(seed)
    v = random_subspace(rng, n, ranks[0])
    spaces = [v]
    if len(ranks) == 2:
        x = v.basis.T
        spaces.append(subspace_from_spanning(x * np.exp(2j * np.pi * rng.random(x.shape)))
                      if kind == "zero" else random_subspace(rng, n, ranks[1]))
        target = np.zeros(n)
    elif kind == "zero":
        u = rng.standard_normal(ranks[0]) + 1j * rng.standard_normal(ranks[0])
        target = np.abs(v.basis @ u) ** 2 / np.vdot(u, u).real
    else:
        target = rng.standard_normal(n)
    master = _Master(spaces, target)
    d = master.residual()
    for i in range(steps):
        if d @ d <= DEFAULT_TOL ** 2:
            return
        _, fw = master.oracle(d)
        if kind == "duplicate":
            # The first coefficient unit vector, in place of the oracle atom;
            # once active, it is fed again as an atom the store holds.
            fw = [(np.eye(len(u))[0].astype(complex), np.abs(space.basis[:, 0]) ** 2)
                  for space, (u, _) in zip(spaces, fw)]
        d_new = master.step(fw)
        assert d_new is not None
        assert_kkt_store(master)
        if not i:
            # Iterate 0, the centroid, lies in the hull of the probes.
            assert d_new @ d_new <= (1.0 + 1e-14) * (d @ d)
        yield master, d_new
        if not d_new @ d_new < d @ d:
            return
        master.accept()
        d = d_new


def _live(master):
    """Signed points, sides and weights (0 when inactive) of the live atoms."""
    points = master.points[:len(master.atoms)]
    sides = np.array([s for s, _ in master.atoms])
    weights = np.zeros(len(master.atoms))
    weights[:master.q] = master.x[len(master.signs):]
    return points, sides, weights


@given(case=master_cases())
@example(case=(1, (1,), "oracle", 0))
@example(case=(5, (2, 2), "zero", 1))
@example(case=(4, (1, 2), "duplicate", 2))
@example(case=(12, (4, 4), "zero", 3))
def test_master_weights_are_kkt_optimal(case):
    for master, d in _master_steps(*case):
        points, sides, w = _live(master)
        assert np.all(w >= 0.0)
        assert np.all(w[:master.q] > 0.0)
        for s in range(len(master.signs)):
            assert abs(w[sides == s].sum() - 1.0) <= 1e-15 * len(master.atoms)
        assert np.allclose(w @ points - master.target, d, rtol=0.0, atol=1e-14)
        # The multiplier a_j . d + nu_s of every live atom, with nu_s from
        # the active atoms of its side (where it is 0): nonnegative on the
        # atoms left at zero weight.
        slopes = points @ d
        for s in range(len(master.signs)):
            mine = sides == s
            nu = -slopes[mine & (w > 0.0)].mean()
            assert np.all(slopes[mine & (w == 0.0)] + nu >= -1e-12)


@given(case=master_cases())
@example(case=(6, (3,), "oracle", 4))
@example(case=(8, (2, 3), "oracle", 5))
def test_master_objective_matches_scipy_nnls(case):
    # scipy's nnls on the augmented system (a penalty row per side for the
    # unit sums), renormalized per side, over the same atoms: a feasible
    # point, so the exact master can only be lower.
    nnls = pytest.importorskip("scipy.optimize").nnls
    penalty = 1e5
    for master, d in _master_steps(*case):
        points, sides, _ = _live(master)
        n_sides = len(master.signs)
        a = np.vstack([points.T, penalty * (sides == np.arange(n_sides)[:, None])])
        b = np.concatenate([master.target, np.full(n_sides, penalty)])
        x, _ = nnls(a, b, maxiter=50 * a.shape[1])
        for s in range(n_sides):
            x[sides == s] /= x[sides == s].sum()
        reference = x @ points - master.target
        assert d @ d <= reference @ reference + 1e-12

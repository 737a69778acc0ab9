"""Property tests: the solver never overclaims, and support values are exact.

Shapes run over n = 1..10 and r = 1..n, r = n and n = 1 included.  Every
example is rebuilt from a numpy seed, so a failure replays from the printed
arguments.
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
from momentkit.feasibility import DEFAULT_TOL, SEPARATION_MARGIN, separation_margin

from conftest import random_subspace

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
    assert 0.0 <= res.lower <= res.distance + 1e-12
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

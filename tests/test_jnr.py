import numpy as np
import pytest

from momentkit import (
    NotGenericAtCoordinate,
    cone_membership,
    delta_map,
    jnr_boundary,
    jnr_support,
    principal_vector,
    project_onto_moment,
    subspace_from_spanning,
    support_moment,
    whole_space,
)
from momentkit.directions import fibonacci_directions
from momentkit.jnr import validate_density
from momentkit.linalg import hermitian_eig, spectral_norm
from momentkit.moment import sample_unit_vectors
from momentkit.subspace import orthogonal_complement

from conftest import V1_REFERENCE, random_density, random_subspace, random_unitary
from paper_claims import classical_range, scaling_residual


def outer(x):
    return np.outer(x, np.conj(x))


def full_space_support(s, c):
    """Independent oracle: the top eigenvalue of the n x n matrix P diag(c) P,
    with no reduction to the subspace and no floor."""
    a = s.projector @ (np.asarray(c, dtype=float)[:, None] * s.projector)
    return float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[-1])


class TestDeltaMap:
    def test_axis_state(self):
        s = subspace_from_spanning([np.eye(3)[0]])
        point = delta_map(s, outer(np.eye(3)[0]))
        assert np.allclose(point.x, [1, 0, 0], atol=1e-14)

    def test_subspace_state_gives_moment_point(self, example_v):
        rng = np.random.default_rng(1)
        for x in sample_unit_vectors(example_v, 10, seed=2):
            point = delta_map(example_v, outer(x))
            assert np.allclose(point.x, np.abs(x) ** 2, atol=1e-12)

    def test_axis_states_factor_through_principal_vectors(self, example_v):
        # The image of e_i x e_i has j-th entry (v^j_j)^2 |v^j_i|^2.
        pvs = [principal_vector(example_v, j) for j in range(3)]
        for i in range(3):
            point = delta_map(example_v, outer(np.eye(3)[i]))
            expected = [pv.top**2 * abs(pv.v[i]) ** 2 for pv in pvs]
            assert np.allclose(point.x, expected, atol=1e-12)

    def test_rejects_invalid_states(self, example_v):
        with pytest.raises(ValueError, match="trace"):
            delta_map(example_v, np.eye(3))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            delta_map(example_v, np.diag([1.5, -0.5, 0.0]))

    def test_sum_in_unit_interval(self, example_v):
        rng = np.random.default_rng(3)
        for _ in range(20):
            point = delta_map(example_v, random_density(3, rng))
            assert -1e-12 <= point.x.sum() <= 1.0 + 1e-12
            assert np.min(point.x) >= -1e-12


class TestSupport:
    def test_axis_line(self):
        s = subspace_from_spanning([np.eye(2)[0]])
        assert jnr_support(s, [1.0, 0.0]).value == pytest.approx(1.0, abs=1e-12)
        assert jnr_support(s, [-1.0, 0.0]).value == pytest.approx(0.0, abs=1e-12)
        assert jnr_support(s, [0.0, 1.0]).value == pytest.approx(0.0, abs=1e-12)

    def test_all_ones_direction(self, example_v):
        # The compressed identity has top eigenvalue one on the subspace.
        assert jnr_support(example_v, np.ones(3)).value == pytest.approx(1.0, abs=1e-12)

    def test_matches_moment_support_on_reference(self, example_v):
        assert jnr_support(example_v, [1, 0, 0]).value == pytest.approx(2 / 3, abs=1e-12)
        assert jnr_support(example_v, [1, 0, 0]).value == pytest.approx(
            support_moment(example_v, [1, 0, 0]).value, abs=1e-12
        )

    def test_reduced_path_cross_check(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            s = random_subspace(rng, n, int(rng.integers(1, n + 1)))
            c = rng.standard_normal(n)
            assert jnr_support(s, c).value == pytest.approx(
                full_space_support(s, c), abs=1e-10
            )

    @pytest.mark.parametrize("n, r", [(8, 3), (16, 5), (32, 4)])
    def test_large_direction_scales_value(self, n, r):
        rng = np.random.default_rng(n)
        s = random_subspace(rng, n, r)
        for c in rng.standard_normal((5, n)):
            assert jnr_support(s, 1e8 * c).value == pytest.approx(
                1e8 * jnr_support(s, c).value, rel=1e-12
            )

    def test_zero_in_range(self, example_v):
        assert jnr_support(example_v, -np.ones(3)).value == pytest.approx(0.0, abs=1e-12)

    def test_unitary_invariance(self, example_v):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 3)
        p_rot = u @ example_v.projector @ u.conj().T
        basis_rot = [u @ np.diag(np.eye(3)[i]) @ u.conj().T for i in range(3)]
        for _ in range(20):
            c = rng.standard_normal(3)
            a_rot = sum(ci * p_rot @ bi @ p_rot for ci, bi in zip(c, basis_rot))
            rotated = float(hermitian_eig(0.5 * (a_rot + a_rot.conj().T)).eigenvalues[-1])
            assert rotated == pytest.approx(jnr_support(example_v, c).value, abs=1e-10)

    def test_compressed_identity_spectrum(self, example_v):
        total = sum(
            example_v.projector @ np.diag(np.eye(3)[i]) @ example_v.projector
            for i in range(3)
        )
        assert spectral_norm(total - example_v.projector) < 1e-12


class TestBoundary:
    def test_axis_line_sweep(self):
        s = subspace_from_spanning([np.eye(2)[0]])
        dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        points = {tuple(np.round(p.x, 12)) for p in jnr_boundary(s, dirs)}
        assert points == {(1.0, 0.0), (0.0, 0.0)}

    def test_points_have_unit_interval_sum(self, example_v):
        rng = np.random.default_rng(6)
        dirs = rng.standard_normal((1000, 3))
        for point in jnr_boundary(example_v, dirs):
            assert -1e-10 <= point.x.sum() <= 1.0 + 1e-10

    def test_all_ones_direction_lands_on_slice(self, example_v):
        point = jnr_boundary(example_v, np.ones((1, 3)))[0]
        assert point.x.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n, r", [(8, 3), (16, 5), (32, 4)])
    def test_large_directions_keep_points(self, n, r):
        rng = np.random.default_rng(n)
        s = random_subspace(rng, n, r)
        dirs = rng.standard_normal((20, n))
        for scaled, plain in zip(jnr_boundary(s, 1e8 * dirs), jnr_boundary(s, dirs)):
            assert np.allclose(scaled.x, plain.x, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [1.0, np.nan, 0.0], [np.inf, 0.0, 1.0]])
    def test_rejects_zero_or_non_finite_direction(self, example_v, row):
        dirs = fibonacci_directions(3, 8)
        dirs[3] = row
        with pytest.raises(ValueError):
            jnr_boundary(example_v, dirs)

    def test_points_are_delta_map_of_witness(self, example_v):
        rng = np.random.default_rng(14)
        cases = [
            (example_v, np.vstack([-np.ones(3), fibonacci_directions(3, 40)])),
            (random_subspace(rng, 6, 2), rng.standard_normal((60, 6))),
            (whole_space(4), rng.standard_normal((20, 4))),
        ]
        floored = 0  # points where the zero floor is active
        for s, dirs in cases:
            for point in jnr_boundary(s, dirs):
                assert np.allclose(point.x, delta_map(s, point.witness).x, rtol=0.0, atol=1e-12)
                floored += not np.any(point.x)
        assert floored >= 2

    def test_on_slice_points_are_moment_points(self, example_v):
        dirs = fibonacci_directions(3, 60)
        for point in jnr_boundary(example_v, dirs):
            if abs(point.x.sum() - 1.0) <= 1e-9:
                x = delta_map(example_v, point.witness).x
                assert project_onto_moment(example_v, x).distance <= 1e-6


class TestSliceAndCone:
    def test_principal_state_on_slice(self, example_v):
        x = delta_map(example_v, outer(V1_REFERENCE)).x
        assert abs(x.sum() - 1.0) <= 1e-9
        assert project_onto_moment(example_v, x).distance <= 1e-6

    def test_orthogonal_state_off_slice(self, example_v):
        q = orthogonal_complement(example_v).basis[:, 0]
        x = delta_map(example_v, outer(q)).x
        assert x.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(x, 0.0, atol=1e-12)

    def test_mixed_state_half_sum(self, example_v):
        s_vec = sample_unit_vectors(example_v, 1, seed=8)[0]
        q = orthogonal_complement(example_v).basis[:, 0]
        rho = 0.5 * outer(s_vec) + 0.5 * outer(q)
        assert delta_map(example_v, rho).x.sum() == pytest.approx(0.5, abs=1e-10)

    def test_cone_zero_and_scaling(self, example_v):
        zero = cone_membership(example_v, np.zeros(3))
        assert zero.member and zero.scaling == 0.0
        scaled = cone_membership(example_v, 5.0 * np.abs(V1_REFERENCE) ** 2)
        assert scaled.member
        assert scaled.scaling == pytest.approx(5.0, abs=1e-12)

    def test_cone_non_member(self):
        s = subspace_from_spanning([np.eye(2)[0]])
        result = cone_membership(s, np.array([0.0, 1.0]))
        assert not result.member

    def test_cone_rejects_negative(self, example_v):
        with pytest.raises(ValueError, match="negative"):
            cone_membership(example_v, np.array([0.5, -0.1, 0.6]))


class TestClassicalRange:
    def test_points_inside_support_halfspaces(self, example_v):
        pts = classical_range(example_v, 2000, seed=12)
        assert pts.shape == (2000, 3)
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = rng.standard_normal(3)
            assert np.max(pts @ c) <= jnr_support(example_v, c).value + 1e-9

    def test_deterministic(self, example_v):
        a = classical_range(example_v, 64, seed=3)
        b = classical_range(example_v, 64, seed=3)
        assert np.array_equal(a, b)


class TestScalingRelation:
    def test_whole_space_identity(self):
        assert scaling_residual(whole_space(3), trials=50, seed=1) < 1e-12

    def test_reference(self, example_v):
        assert scaling_residual(example_v, trials=200, seed=2) < 1e-10

    def test_diagonal_line(self):
        s = subspace_from_spanning([(1, 1)])
        assert scaling_residual(s, trials=100, seed=3) < 1e-12

    def test_non_generic_rejected(self):
        s = subspace_from_spanning([np.eye(3)[0]])
        with pytest.raises(NotGenericAtCoordinate):
            scaling_residual(s, trials=1, seed=0)


class TestValidateDensity:
    def test_valid_random(self):
        rng = np.random.default_rng(9)
        rho = random_density(4, rng)
        validate_density(rho)

    def test_rank_deficient_ok(self):
        validate_density(np.diag([1.0, 0.0, 0.0]))

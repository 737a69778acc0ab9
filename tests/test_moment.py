import numpy as np
import pytest

from momentkit import (
    moment_of_vector,
    principal_vector,
    sample_moment,
    subspace_from_spanning,
    support_moment,
    whole_space,
)
from momentkit.linalg import compressed_eigh
from momentkit.moment import sample_unit_vectors

from conftest import V1_REFERENCE, random_generic_subspace, random_subspace


class TestMomentOfVector:
    def test_principal_vector_of_reference(self, example_v):
        m = moment_of_vector(example_v, V1_REFERENCE)
        assert np.allclose(m, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)

    def test_axis(self):
        s = subspace_from_spanning([np.eye(3)[0]])
        assert np.allclose(moment_of_vector(s, np.eye(3)[0]), [1, 0, 0], atol=1e-15)

    def test_phases_ignored(self):
        s = whole_space(2)
        m = moment_of_vector(s, np.array([1, 1j]) / np.sqrt(2))
        assert np.allclose(m, [0.5, 0.5], atol=1e-12)

    def test_rejects_outsiders(self, example_v):
        with pytest.raises(ValueError, match="not in the subspace"):
            moment_of_vector(example_v, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            moment_of_vector(example_v, 2 * V1_REFERENCE)


class TestSampling:
    def test_single_axis_constant(self):
        s = subspace_from_spanning([np.eye(3)[0]])
        pts = sample_moment(s, 50, seed=1)
        assert np.allclose(pts, np.tile([1, 0, 0], (50, 1)), atol=1e-15)

    def test_whole_plane_segment(self):
        pts = sample_moment(whole_space(2), 200, seed=2)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pts >= -1e-15)

    def test_deterministic_per_seed(self, example_v):
        a = sample_moment(example_v, 17, seed=5)
        b = sample_moment(example_v, 17, seed=5)
        c = sample_moment(example_v, 17, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_samples_inside_support_halfspaces(self, example_v):
        pts = sample_moment(example_v, 10_000, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(200):
            c = rng.standard_normal(3)
            hi = support_moment(example_v, c).value
            assert np.max(pts @ c) <= hi + 1e-9

    def test_unit_vector_rows(self, example_v):
        rows = sample_unit_vectors(example_v, 64, seed=3)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
        for row in rows:
            assert example_v.membership_residual(row) < 1e-10


class TestSupport:
    def test_axis_direction_gives_diagonal(self, example_v):
        for j in range(3):
            sup = support_moment(example_v, np.eye(3)[j])
            diag = float(np.real(example_v.projector[j, j]))
            assert sup.value == pytest.approx(diag, abs=1e-12)
            pv = principal_vector(example_v, j)
            assert sup.value == pytest.approx(pv.top**2, abs=1e-12)

    def test_whole_space_max_coordinate(self):
        sup = support_moment(whole_space(3), [3.0, 1.0, 2.0])
        assert sup.value == pytest.approx(3.0, abs=1e-12)

    def test_reference_first_axis(self, example_v):
        assert support_moment(example_v, [1, 0, 0]).value == pytest.approx(2 / 3, abs=1e-12)

    def test_maximizer_attains_value(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = random_subspace(rng, n, int(rng.integers(1, n + 1)))
            c = rng.standard_normal(n)
            sup = support_moment(s, c)
            attained = float(np.abs(sup.maximizer) ** 2 @ c)
            assert attained == pytest.approx(sup.value, abs=1e-10)
            assert s.membership_residual(sup.maximizer) < 1e-10

    @pytest.mark.parametrize("n, r", [(8, 3), (16, 5), (32, 4)])
    def test_large_direction_scales_value(self, n, r):
        # The roundoff asymmetry of the compression grows with the scale of
        # the direction; it is no input error.
        rng = np.random.default_rng(n)
        s = random_subspace(rng, n, r)
        for c in rng.standard_normal((5, n)):
            assert support_moment(s, 1e8 * c).value == pytest.approx(
                1e8 * support_moment(s, c).value, rel=1e-12
            )

    def test_exposed_principal_point(self):
        # e_j exposes v^j: the top eigenvalue of Q* E_j Q is (v^j_j)^2 and simple.
        rng = np.random.default_rng(10)
        s = random_generic_subspace(rng, 5, 3)
        values = compressed_eigh(s.basis, np.eye(5)[[2]]).eigenvalues[0]
        assert values[-1] == pytest.approx(principal_vector(s, 2).top ** 2, abs=1e-12)
        assert values[-1] - values[-2] > 1e-10

    def test_rank_one_subspace_extremality(self):
        s = subspace_from_spanning([(1, 1)])
        values = compressed_eigh(s.basis, np.eye(2)[[0]]).eigenvalues[0]
        assert values.shape == (1,)  # a single eigenvalue is simple
        assert values[-1] == pytest.approx(principal_vector(s, 0).top ** 2, abs=1e-12)

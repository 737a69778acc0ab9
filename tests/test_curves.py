import numpy as np
import pytest

from momentkit import (
    DegenerateCurve,
    NotGenericAtCoordinate,
    curve_frame,
    curve_point,
    dominating_t,
    ellipse_projection,
    principal_vector,
    subspace_from_spanning,
    whole_space,
)
from momentkit.moment import sample_moment, sample_unit_vectors

from conftest import point_to_segment, random_generic_subspace
from paper_claims import check_domination, exposing_direction, overlap_residual


@pytest.fixture
def frame(example_v):
    """The curve of the reference subspace from v^0 toward v^1."""
    return curve_frame(example_v, 0, 1)


class TestCurveEndpoints:
    def test_starts_at_first_principal_vector(self, example_v, frame):
        sample = curve_point(frame, 0.0)
        assert np.allclose(sample.v, principal_vector(example_v, 0).v, atol=1e-12)

    def test_labels_come_from_the_frame(self, example_v):
        sample = curve_point(curve_frame(example_v, 1, 2), 0.0)
        assert (sample.j, sample.k) == (1, 2)
        assert np.allclose(sample.v, principal_vector(example_v, 1).v, atol=1e-12)
        ell = ellipse_projection(curve_frame(example_v, 2, 0))
        assert (ell.j, ell.k) == (2, 0)

    def test_reference_passes_through_second(self, example_v, frame):
        assert frame.t_end == pytest.approx(np.pi / 3, abs=1e-12)
        sample = curve_point(frame, frame.t_end)
        target = frame.phase * principal_vector(example_v, 1).v
        assert np.linalg.norm(sample.v - target) < 1e-10
        assert np.allclose(sample.m, [1 / 6, 2 / 3, 1 / 6], atol=1e-12)

    def test_unit_norm_and_membership_along_curve(self, example_v, frame):
        for t in np.linspace(0, np.pi / 2, 9):
            sample = curve_point(frame, float(t))
            assert np.linalg.norm(sample.v) == pytest.approx(1.0, abs=1e-12)
            assert example_v.membership_residual(sample.v) < 1e-10
            # The j-th coordinate decays as cos(t) times the top value.
            assert abs(sample.v[0] - np.cos(t) * frame.vj.top) < 1e-10

    def test_parameter_range_enforced(self, frame):
        with pytest.raises(ValueError, match="outside"):
            curve_point(frame, -0.2)
        with pytest.raises(ValueError, match="outside"):
            curve_point(frame, 2.0)

    def test_degenerate_pair_rejected(self):
        # In a 1-dimensional subspace all principal vectors coincide.
        s = subspace_from_spanning([(1, 1, 1)])
        with pytest.raises(DegenerateCurve):
            curve_frame(s, 0, 1)

    def test_same_coordinate_rejected(self, example_v):
        with pytest.raises(ValueError, match="distinct"):
            curve_frame(example_v, 1, 1)

    def test_missing_principal_vector(self):
        s = subspace_from_spanning([(1, 0, 0), (0, 1, 0)])
        with pytest.raises(NotGenericAtCoordinate):
            curve_frame(s, 0, 2)


class TestEllipse:
    def test_reference_parameters(self, frame):
        ell = ellipse_projection(frame)
        assert np.allclose(ell.a, [2 / np.sqrt(6), 1 / np.sqrt(6)], atol=1e-12)
        assert np.allclose(ell.b, [0.0, 1 / np.sqrt(2)], atol=1e-12)
        assert not ell.segment

    def test_identity_on_grid(self, frame):
        ell = ellipse_projection(frame)
        for t in np.linspace(0, np.pi / 2, 64):
            sample = curve_point(frame, float(t))
            expected = np.cos(t) * ell.a + np.sin(t) * ell.b
            observed = np.array([abs(sample.v[0]), abs(sample.v[1])])
            assert np.max(np.abs(observed - expected)) < 1e-10

    def test_orthogonal_pair_is_segment(self):
        s = subspace_from_spanning([(1, 1, 0, 0), (0, 0, 1, 1)])
        frame = curve_frame(s, 0, 2)
        ell = ellipse_projection(frame)
        assert ell.segment
        assert ell.a[1] == pytest.approx(0.0, abs=1e-12)
        # Squared coordinates run along a straight segment.
        pts = []
        for t in np.linspace(0, np.pi / 2, 16):
            sample = curve_point(frame, float(t))
            pts.append([abs(sample.v[0]) ** 2, abs(sample.v[2]) ** 2])
        pts = np.array(pts)
        ends = np.array([pts[0], pts[-1]])
        for p in pts:
            assert point_to_segment(p, ends[0], ends[1]) < 1e-12

    def test_whole_plane_quarter_circle(self):
        ell = ellipse_projection(curve_frame(whole_space(2), 0, 1))
        assert np.allclose(ell.a, [1.0, 0.0], atol=1e-12)
        assert np.allclose(ell.b, [0.0, 1.0], atol=1e-12)


class TestDominatingParameter:
    def test_principal_vector_maps_to_zero(self, example_v):
        # arccos near 1 recovered only ~sqrt(eps) (2.1e-8 here); atan2 keeps
        # every digit.
        t = dominating_t(example_v, 0, 1, principal_vector(example_v, 0).v)
        assert t == pytest.approx(0.0, abs=1e-15)

    def test_phase_invariance_on_curve(self, example_v, frame):
        for t in (0.3, 0.9, 1.4):
            sample = curve_point(frame, t)
            x = np.exp(0.77j) * sample.v
            assert dominating_t(example_v, 0, 1, x) == pytest.approx(t, abs=1e-10)

    def test_random_vectors_dominated(self, example_v, frame):
        for x in sample_unit_vectors(example_v, 1000, seed=21):
            check_domination(frame, x, dominating_t(example_v, 0, 1, x))

    def test_projected_curve_closer_to_segment(self):
        # The squared (j, k) projection of the dominating curve point is at
        # most as far from the segment between the projected axis points as
        # the sample itself.
        rng = np.random.default_rng(13)
        e_j, e_k = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        for trial in range(5):
            s = random_generic_subspace(rng, 4, 2)
            try:
                frame = curve_frame(s, 0, 1)
            except DegenerateCurve:
                continue
            ell = ellipse_projection(frame)
            for x in sample_unit_vectors(s, 200, seed=100 + trial):
                t = dominating_t(s, 0, 1, x)
                check_domination(frame, x, t)
                mod_j, mod_k = np.cos(t) * ell.a + np.sin(t) * ell.b
                curve_pt = np.array([mod_j**2, mod_k**2])
                sample_pt = np.array([abs(x[0]) ** 2, abs(x[1]) ** 2])
                assert point_to_segment(curve_pt, e_j, e_k) <= (
                    point_to_segment(sample_pt, e_j, e_k) + 1e-9
                )


class TestOverlap:
    def test_reference_midpoint(self, example_v):
        assert overlap_residual(example_v, 0, 1, np.pi / 6) < 1e-10

    def test_reference_endpoints(self, example_v, frame):
        assert overlap_residual(example_v, 0, 1, 0.0) < 1e-10
        assert overlap_residual(example_v, 0, 1, frame.t_end) < 1e-10

    def test_grid_on_random_subspaces(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            s = random_generic_subspace(rng, 5, 3)
            frame = curve_frame(s, 0, 1)
            for t in np.linspace(0.0, frame.t_end, 33):
                assert overlap_residual(s, 0, 1, float(t)) < 1e-10

    def test_domain_enforced(self, example_v, frame):
        with pytest.raises(ValueError, match="outside"):
            overlap_residual(example_v, 0, 1, frame.t_end + 0.1)


class TestCurveExtremality:
    def test_supported_directions_beat_samples(self, example_v, frame):
        pts = sample_moment(example_v, 10_000, seed=31)
        for t in np.linspace(0.0, np.pi / 2, 33)[:-1]:
            c = exposing_direction(example_v, frame, float(t))
            sample = curve_point(frame, float(t))
            assert float(c @ sample.m) >= float(np.max(pts @ c)) - 1e-6

import numpy as np
import pytest

from momentkit import (
    IntersectionStatus,
    centroid,
    check_minimal,
    moments_intersect,
    principal_vector,
    project_onto_moment,
    subspace_from_spanning,
)
from momentkit import feasibility
from momentkit.feasibility import separation_margin
from momentkit.jnr import delta_map

from conftest import (
    CONJUGATE_X,
    CONJUGATE_XBAR,
    coordinate_half_pair,
    random_density,
    random_subspace,
)


class TestProjection:
    def test_centroid_is_member(self, example_v):
        res = project_onto_moment(example_v, centroid(example_v))
        assert res.distance <= 1e-7
        assert res.converged
        assert res.lower == 0.0

    def test_principal_point_is_member(self, example_v):
        p = np.abs(principal_vector(example_v, 0).v) ** 2
        res = project_onto_moment(example_v, p)
        assert res.distance <= 1e-7

    def test_outside_point_distance(self):
        s = subspace_from_spanning([(1, 0)])
        res = project_onto_moment(s, [0.0, 1.0])
        assert res.distance == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_witness_replays_distance(self, example_v):
        rng = np.random.default_rng(3)
        p = rng.random(3)
        res = project_onto_moment(example_v, p)
        diag = np.real(np.diagonal(res.witness))
        assert np.linalg.norm(diag - p) == pytest.approx(res.distance, abs=1e-8)
        # Witness is a density matrix supported on the subspace.
        assert np.real(np.trace(res.witness)) == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(res.witness)) >= -1e-10
        assert np.linalg.norm(
            example_v.projector @ res.witness - res.witness
        ) < 1e-9

    def test_interior_points_batch(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = random_subspace(rng, n, int(rng.integers(1, n + 1)))
            rho = random_density(n, rng)
            x = delta_map(s, rho).x
            res = project_onto_moment(s, x / x.sum())
            assert res.distance <= 1e-6

    def test_exterior_points_converge_within_bound(self):
        s = random_subspace(np.random.default_rng(0), 6, 2)
        for k in range(6):
            p = np.eye(6)[k]
            res = project_onto_moment(s, p)
            assert res.converged
            # Independent lower bound from the direction witness -> p.
            y = np.real(np.diagonal(res.witness))
            u = (p - y) / np.linalg.norm(p - y)
            top = np.linalg.eigvalsh(s.basis.conj().T @ (u[:, None] * s.basis))[-1]
            lower = max(0.0, float(u @ p) - top)
            assert lower - 1e-12 <= res.distance <= lower + 1e-7

    @pytest.mark.parametrize("max_iter", [0, 1, 1000])
    def test_exterior_bracket_replays(self, max_iter):
        # The returned lower bound is that of the witness's own direction,
        # also when the run stops at max_iter.
        s = random_subspace(np.random.default_rng(0), 6, 2)
        for k in range(6):
            p = np.eye(6)[k]
            res = project_onto_moment(s, p, max_iter=max_iter)
            assert 0.0 <= res.lower <= res.distance + 1e-12
            assert res.converged == (res.distance - res.lower <= 1e-7)
            if max_iter == 1000:
                assert res.converged
            y = np.real(np.diagonal(res.witness))
            u = (p - y) / np.linalg.norm(p - y)
            top = np.linalg.eigvalsh(s.basis.conj().T @ (u[:, None] * s.basis))[-1]
            assert res.lower == pytest.approx(max(0.0, float(u @ p) - top), abs=1e-12)

    def test_rejects_bad_input(self, example_v):
        with pytest.raises(ValueError):
            project_onto_moment(example_v, [1.0, 2.0])
        with pytest.raises(ValueError):
            project_onto_moment(example_v, [np.nan, 0.0, 0.0])


class TestIntersection:
    def test_identical_subspaces(self, example_v):
        cert = moments_intersect(example_v, example_v)
        assert cert.status is IntersectionStatus.INTERSECT
        assert cert.gap <= 1e-12
        assert np.allclose(cert.common, centroid(example_v), atol=1e-10)

    def test_conjugate_lines(self):
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        cert = moments_intersect(v, w)
        assert cert.status is IntersectionStatus.INTERSECT
        assert np.allclose(cert.common, [0.5, 0.5], atol=1e-10)

    def test_disjoint_axes(self):
        v = subspace_from_spanning([(1, 0)])
        w = subspace_from_spanning([(0, 1)])
        cert = moments_intersect(v, w)
        assert cert.status is IntersectionStatus.DISJOINT
        # Certified orientation: m_V strictly below m_W along the direction.
        assert np.allclose(np.abs(cert.direction), [1, 1] / np.sqrt(2), atol=1e-12)
        assert cert.margin == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert separation_margin(v, w, cert.direction) == pytest.approx(
            cert.margin, abs=1e-12
        )

    def test_intersect_witnesses_replay(self, example_v, example_w):
        cert = moments_intersect(example_v, example_w)
        assert cert.status is IntersectionStatus.INTERSECT
        dy = np.real(np.diagonal(cert.witness_y))
        dx = np.real(np.diagonal(cert.witness_x))
        assert np.linalg.norm(dy - dx) <= 1e-7
        for witness, space in ((cert.witness_y, example_v), (cert.witness_x, example_w)):
            assert np.real(np.trace(witness)) == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(witness)) >= -1e-10
            assert np.linalg.norm(space.projector @ witness - witness) < 1e-9
        assert cert.common.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.min(cert.common) >= -1e-12

    def test_disjoint_margin_replays(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(20):
            v = random_subspace(rng, 4, 1)
            w = random_subspace(rng, 4, 1)
            cert = moments_intersect(v, w)
            if cert.status is IntersectionStatus.DISJOINT:
                found += 1
                fresh = separation_margin(v, w, cert.direction)
                assert fresh == pytest.approx(cert.margin, abs=1e-10)
                assert fresh >= 1e-9
        assert found >= 5

    def test_disjoint_multi_atom_margin_replays(self):
        rng = np.random.default_rng(8)
        for n, r in ((6, 2), (8, 3), (10, 2), (12, 4)):
            sv, sw = coordinate_half_pair(rng, n, r)
            cert = moments_intersect(sv, sw)
            assert cert.status is IntersectionStatus.DISJOINT
            fresh = separation_margin(sv, sw, cert.direction)
            assert fresh == pytest.approx(cert.margin, abs=1e-10)
            assert fresh >= 1e-9

    def test_coordinate_half_pair_certified_at_first_iterate(self, monkeypatch):
        # The oracle's dual bound at the starting iterate already separates a
        # coordinate-half pair: two oracle eigensolves plus the two of the
        # confirming separation_margin, no corrective step.
        calls = []
        original = feasibility.compressed_eigh

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(feasibility, "compressed_eigh", counted)
        rng = np.random.default_rng(8)
        for n, r in ((6, 2), (8, 3), (10, 2), (12, 4)):
            sv, sw = coordinate_half_pair(rng, n, r)
            calls.clear()
            cert = moments_intersect(sv, sw)
            assert cert.status is IntersectionStatus.DISJOINT
            assert cert.iterations == 0
            assert len(calls) <= 4
            assert separation_margin(sv, sw, cert.direction) >= feasibility.SEPARATION_MARGIN

    def test_tangent_case_indeterminate(self):
        angle = np.pi / 4 + 1e-10
        v = subspace_from_spanning([(np.cos(angle), np.sin(angle))])
        w = subspace_from_spanning([(-np.sin(angle), np.cos(angle))])
        cert = moments_intersect(v, w, tol=1e-12)
        assert cert.status is IntersectionStatus.INDETERMINATE
        assert cert.gap < 1e-9


class TestEngineInvariants:
    def test_objective_monotone_with_exact_line_search(self):
        # A run capped at k steps returns the k-th iterate of the uncapped
        # run, so the distances over k = 0..K trace the objective history.
        rng = np.random.default_rng(6)
        for _ in range(5):
            s = random_subspace(rng, 5, 3)
            target = rng.random(5)
            target /= target.sum()
            full = project_onto_moment(s, target, tol=1e-9, max_iter=400)
            history = [
                project_onto_moment(s, target, tol=1e-9, max_iter=k).distance
                for k in range(full.iterations + 1)
            ]
            assert history[-1] == full.distance
            assert np.all(np.diff(history) <= 0.0)

    def test_gap_bounds_suboptimality(self):
        rng = np.random.default_rng(7)
        s = random_subspace(rng, 4, 2)
        target = np.array([0.7, 0.1, 0.1, 0.1])
        res = project_onto_moment(s, target, tol=1e-9)
        reference = project_onto_moment(s, target, tol=1e-12)
        assert res.distance > 0.1  # an exterior point, so the gap is in play
        # Frank-Wolfe duality: d^2 - gap is a lower bound on the optimal
        # squared distance, which the tighter run bounds from above.
        assert res.distance**2 - res.gap <= reference.distance**2 + 1e-15
        assert res.gap >= -1e-15  # roundoff only

    @pytest.mark.parametrize("tol", [-1e-7, np.nan, np.inf])
    def test_rejects_unusable_tol(self, tol):
        # With tol = inf the disjoint points (1, 0) and (0, 1) were reported
        # INTERSECT, and e_1 converged at twice its distance sqrt(1/6).
        v = subspace_from_spanning([(1, 0)])
        w = subspace_from_spanning([(0, 1)])
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            moments_intersect(v, w, tol=tol)
        s = subspace_from_spanning([(1, 1, 0), (0, 1, 1)])
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            project_onto_moment(s, [1.0, 0.0, 0.0], tol=tol)

    def test_rejects_negative_max_iter(self):
        # -4 ran no iteration, like 0, which stays valid.
        v = subspace_from_spanning([(1, 0)])
        w = subspace_from_spanning([(0, 1)])
        for call in (lambda: moments_intersect(v, w, max_iter=-4),
                     lambda: project_onto_moment(v, [0.0, 1.0], max_iter=-4),
                     lambda: check_minimal(np.diag([1.0, -0.5]), max_iter=-4)):
            with pytest.raises(ValueError, match="max_iter must be finite and nonnegative"):
                call()
        assert moments_intersect(v, w, max_iter=0).iterations == 0

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
    support_moment,
    whole_space,
)
from momentkit import feasibility, linalg
from momentkit.feasibility import separation_margin
from momentkit.jnr import delta_map, jnr_support

from conftest import (
    CONJUGATE_X,
    CONJUGATE_XBAR,
    assert_bitwise,
    assert_kkt_store,
    coordinate_half_pair,
    random_density,
    random_subspace,
)
from test_cli import nested_matrix


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
            assert 0.0 <= res.lower <= res.distance
            assert res.converged == (res.distance - res.lower <= 1e-7)
            if max_iter == 1000:
                assert res.converged
            y = np.real(np.diagonal(res.witness))
            u = (p - y) / np.linalg.norm(p - y)
            top = np.linalg.eigvalsh(s.basis.conj().T @ (u[:, None] * s.basis))[-1]
            assert res.lower == pytest.approx(max(0.0, float(u @ p) - top), abs=1e-12)

    def test_lower_bound_never_exceeds_distance(self):
        # The dual bound and the distance round apart: uncapped, the bound
        # read 0.7000000000000001 against 0.7 here, and came out above the
        # distance, by up to 8.9e-16, on 57 of the 300 seeded points.
        res = project_onto_moment(whole_space(1), [0.3])
        assert res.lower == res.distance == 0.7
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            s = random_subspace(rng, n, int(rng.integers(1, n + 1)))
            res = project_onto_moment(s, rng.standard_normal(n) + 1.0 / n)
            assert 0.0 <= res.lower <= res.distance
            assert res.converged == (res.distance - res.lower <= 1e-7)

    def test_whole_plane_exterior_point_converges(self):
        # The NNLS unit-sum penalty row once leaked 6e-7 of weight here, and
        # renormalizing left the witness 1.6e-7 above its lower bound.
        s = random_subspace(np.random.default_rng(2527), 2, 2)
        res = project_onto_moment(s, [-0.273, 0.071])
        assert res.converged
        assert res.distance - res.lower <= 1e-9

    def test_point_norm_limit(self):
        # Above about 1.34e154 the squared residual overflowed: distance inf,
        # lower 0, unconverged, and two overflow warnings.
        s = subspace_from_spanning([(1, 1, 0), (0, 1, 1j)])
        with pytest.raises(ValueError, match="norm"):
            project_onto_moment(s, [1e200, 0.0, 0.0])
        res = project_onto_moment(s, [1e150, 0.0, 0.0])
        assert res.distance == pytest.approx(1e150, rel=1e-12)
        assert res.converged

    @pytest.mark.parametrize("n", range(3, 17))
    def test_principal_points_resolve_in_one_step(self, n):
        # The principal vertices |v^j|^2, extremal points of the moment set,
        # are probe atoms of the master's first step, so a point on one, or
        # 0.05 outside it along its normal e_j, resolves in one step.  The
        # oracle alone only approaches them: without those atoms, 492 of
        # these 1,310 projections took more steps and 18 ended unconverged.
        for r in range(1, min(5, n) + 1):
            s = random_subspace(np.random.default_rng(1000 * n + r), n, r)
            for j in range(n):
                p = np.abs(principal_vector(s, j).v) ** 2
                for offset in (0.0, 0.05):
                    res = project_onto_moment(s, p + offset * np.eye(n)[j])
                    assert res.iterations <= 1 and res.converged, (r, j, offset)
                    assert abs(res.distance - offset) <= feasibility.DEFAULT_TOL, (r, j, offset)

    def test_exposed_point_converges(self, monkeypatch):
        # An exposed point other than a principal vertex, approached by
        # chords of two active atoms.  With an admission threshold of 1e-13
        # the oracle atom of step 11 failed it, the weights froze, and the
        # solve ended unconverged at distance 2.04e-7.  The fiber settles
        # the point at iteration 0, so it is disabled: this is the master's
        # path.
        monkeypatch.setattr(feasibility._Master, "fiber", lambda master, tol: None)
        rng = np.random.default_rng(500 * 3 + 2)
        s = random_subspace(rng, 3, 2)
        for _ in range(4):
            c = rng.standard_normal(3)
        y = np.abs(support_moment(s, c / np.linalg.norm(c)).maximizer) ** 2
        res = project_onto_moment(s, y)
        assert res.converged and res.lower == 0.0
        assert res.distance <= feasibility.DEFAULT_TOL
        assert res.iterations == 12

    @pytest.mark.parametrize("n", range(3, 13))
    def test_exposed_points_converge(self, n):
        # The exposed point |x|^2 of four random unit directions c (x the
        # support maximizer), and the point 0.05 beyond it along c: with the
        # 1e-13 admission threshold, 49 of these 312 projections ended
        # unconverged after 11-23 steps.
        for r in range(1, min(n, 4) + 1):
            rng = np.random.default_rng(500 * n + r)
            s = random_subspace(rng, n, r)
            for k in range(4):
                c = rng.standard_normal(n)
                c /= np.linalg.norm(c)
                y = np.abs(support_moment(s, c).maximizer) ** 2
                for offset in (0.0, 0.05):
                    res = project_onto_moment(s, y + offset * c)
                    assert res.converged, (r, k, offset)
                    assert res.distance == pytest.approx(offset, abs=2 * feasibility.DEFAULT_TOL)

    def test_rejects_bad_input(self, example_v):
        with pytest.raises(ValueError):
            project_onto_moment(example_v, [1.0, 2.0])
        with pytest.raises(ValueError):
            project_onto_moment(example_v, [np.nan, 0.0, 0.0])


class TestIntersection:
    def test_rejects_different_ambient_dimensions(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="different ambient dimensions"):
            moments_intersect(random_subspace(rng, 4, 2), random_subspace(rng, 5, 2))

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

    @pytest.mark.parametrize("shapes, seed", [
        (((6, 2, 2), (8, 3, 3), (10, 2, 2), (12, 4, 4)), 8),
        (((8, 2, 3),), 29),
    ], ids=["equal-rank", "unequal-rank"])
    def test_pair_certified_at_first_iterate(self, monkeypatch, shapes, seed):
        # The oracle's dual bound at the starting iterate already separates
        # these pairs: one one-direction eigensolve per side, whose
        # eigenvalues give the margin, and no corrective step.  No
        # value-only solve confirms it.
        calls = []
        for name in ("_compressed_top_eigh1", "compressed_top_eigvalsh"):
            def counted(*args, name=name, original=getattr(feasibility, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(feasibility, name, counted)
        rng = np.random.default_rng(seed)
        for n, r_v, r_w in shapes:
            sv, sw = coordinate_half_pair(rng, n, r_v, r_w)
            assert (sv.r, sw.r) == (r_v, r_w)
            calls.clear()
            cert = moments_intersect(sv, sw)
            assert cert.status is IntersectionStatus.DISJOINT
            assert cert.iterations == 0
            assert calls == ["_compressed_top_eigh1"] * 2
            replay = separation_margin(sv, sw, cert.direction)
            assert abs(cert.margin - replay) <= 1e-12 * (1.0 + cert.margin)
            assert replay >= feasibility.SEPARATION_MARGIN

    def test_separation_margin_checks_dimensions(self, monkeypatch):
        # Rejected before any eigensolve, with moments_intersect's message.
        def forbidden(*args):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(feasibility, "compressed_top_eigvalsh", forbidden)
        rng = np.random.default_rng(9)
        v, w = random_subspace(rng, 4, 2), random_subspace(rng, 5, 2)
        with pytest.raises(ValueError, match="different ambient dimensions"):
            separation_margin(v, w, np.ones(4))
        with pytest.raises(ValueError, match="direction has dimension 5, expected 4"):
            separation_margin(v, random_subspace(rng, 4, 1), np.ones(5))

    @pytest.mark.parametrize("r_v, r_w", [(2, 2), (1, 3), (3, 2)])
    def test_separation_margin_matches_explicit_supports(self, r_v, r_w):
        # Equal and unequal ranks, against eigenvalues of explicit compressions.
        rng = np.random.default_rng(10 * r_v + r_w)
        v, w = random_subspace(rng, 6, r_v), random_subspace(rng, 6, r_w)
        for u in rng.standard_normal((10, 6)):
            u /= np.linalg.norm(u)
            top_v = np.linalg.eigvalsh(v.basis.conj().T @ (u[:, None] * v.basis))[-1]
            bottom_w = np.linalg.eigvalsh(w.basis.conj().T @ (u[:, None] * w.basis))[0]
            assert separation_margin(v, w, u) == pytest.approx(bottom_w - top_v, abs=1e-14)

    def test_tangent_case_indeterminate(self):
        angle = np.pi / 4 + 1e-10
        v = subspace_from_spanning([(np.cos(angle), np.sin(angle))])
        w = subspace_from_spanning([(-np.sin(angle), np.cos(angle))])
        cert = moments_intersect(v, w, tol=1e-12)
        assert cert.status is IntersectionStatus.INDETERMINATE
        assert cert.gap < 1e-9


class TestEngineInvariants:
    def test_objective_monotone_with_exact_line_search(self, monkeypatch):
        # A run capped at k steps returns the k-th iterate of the uncapped
        # run, so the distances over k = 0..K trace the objective history.
        # The fiber, which settles these members at iteration 0, is
        # disabled: the history is the master's.
        monkeypatch.setattr(feasibility._Master, "fiber", lambda master, tol: None)
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
        assert res.distance > 0.1  # an exterior point, so the bound is in play
        # Wolfe duality: the looser run's lower bound on the optimal distance
        # stays below the tighter run's distance, an upper bound on it.
        assert res.lower > 0.0
        assert res.lower <= reference.distance + 1e-15

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


class TestMaster:
    """The active-set master on the degenerate instances it must survive."""

    def test_ratio_step_blocks_at_zero_without_dividing(self):
        # The entering atom has w = z = 0: its ratio is 0, not 0/0.
        assert feasibility._ratio_step([0.5, 0.5, 0.0], [1.2, -0.2, 0.0]) == [0.5, 0.5, 0.0]
        assert feasibility._ratio_step([0.5, 0.5], [1.5, -0.5]) == [1.0, 0.0]

    def test_rank_one_side_nested_pair_intersects(self, monkeypatch):
        # V = span{x} lies in W = span{conj(x), f, g}, so the moment point of
        # V is in m_W.  Every atom of the rank-1 side V has the same point, so
        # each oracle atom of V duplicates the active one and is not admitted.
        # With W = span{conj(x), f} in C^4 the fiber is one point, PSD: the
        # common point |x|^2, to roundoff, with no step.
        v, w = nested_pair(4)
        cert = moments_intersect(v, w)
        assert cert.status is IntersectionStatus.INTERSECT and cert.iterations == 0
        assert cert.gap <= 1e-15
        assert np.max(np.abs(cert.common - np.abs(v.basis[:, 0]) ** 2)) <= 1e-15
        # In C^5 the fiber's phase I settles the pair (``TestFiber``), so it
        # is disabled here and the master runs.
        monkeypatch.setattr(feasibility._Master, "fiber", lambda master, tol: None)
        v, w = nested_pair(5)
        cert = moments_intersect(v, w)
        assert cert.status is IntersectionStatus.INTERSECT
        assert cert.iterations >= 1
        gap = np.real(np.diagonal(cert.witness_y)) - np.real(np.diagonal(cert.witness_x))
        assert np.linalg.norm(gap) <= feasibility.DEFAULT_TOL

    def test_duplicate_start_atoms(self):
        # Both coefficient unit vectors of this basis have the moment point
        # (1/2, 1/2, 0, 0), the centroid, where the master starts with no
        # atom.  m_S is the segment from e_1 to e_2, its principal vertices,
        # which the probes reach.
        s = subspace_from_spanning([(1, 1, 0, 0), (1, -1, 0, 0)])
        member = project_onto_moment(s, [1.0, 0.0, 0.0, 0.0])
        assert member.distance <= 1e-7
        res = project_onto_moment(s, [0.8, 0.0, 0.2, 0.0])
        assert res.distance == pytest.approx(np.sqrt(0.06), abs=1e-9)
        assert np.real(np.diagonal(res.witness)) == pytest.approx([0.9, 0.1, 0.0, 0.0], abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_diagonal_unitary_pair_intersects(self, seed):
        # W = span{D_k x_k} with diagonal unitaries D_k, n = 5, r = 2: the
        # moment sets share every full-rank mixture of the |x_k|^2.
        rng = np.random.default_rng(seed)
        x = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))[0].T
        v = subspace_from_spanning(x)
        w = subspace_from_spanning(x * np.exp(2j * np.pi * rng.random((2, 5))))
        cert = moments_intersect(v, w)
        assert cert.status is IntersectionStatus.INTERSECT
        assert cert.gap <= feasibility.DEFAULT_TOL

    def test_one_eigensolve_per_lone_direction(self, example_v, monkeypatch):
        # A support value of m_S or of W and a projection's oracle step each
        # solve one direction: one kernel eigensolve on the one-direction
        # path, and nothing of the stacked one.
        calls = []

        def counted(m, original=linalg._eigh):
            calls.append(m.shape)
            return original(m)

        def forbidden(*args):
            raise AssertionError("stacked path called")

        monkeypatch.setattr(linalg, "_eigh", counted)
        for module, name in ((linalg, "_compressions"), (linalg, "compressed_top_eigh")):
            monkeypatch.setattr(module, name, forbidden)
        support_moment(example_v, [1.0, 0.5, -2.0])
        jnr_support(example_v, [1.0, -0.5, 2.0])
        assert calls == [(2, 2), (2, 2)]
        master = feasibility._Master([example_v], np.array([0.5, 0.3, 0.2]))
        calls.clear()
        tops, atoms = master.oracle(master.residual())
        assert calls == [(2, 2)] and len(tops) == len(atoms) == 1

    def test_lone_atom_the_store_holds_is_evicted(self, monkeypatch):
        """A lone entering atom the store already holds is evicted: the KKT
        matrix with it is singular, or its Schur complement fails admission,
        a decision read off the solve kernel's output.  The step then keeps
        the store of the step before and its weights.  No benchmark input
        reaches this path, so it is run here from a fixed seed (the
        "duplicate" master cases of ``test_properties``, n = 3, r = 2, seed 3)."""
        rng = np.random.default_rng(3)
        s = random_subspace(rng, 3, 2)
        master = feasibility._Master([s], rng.standard_normal(3))
        # The first coefficient unit vector, in place of the oracle atom.
        duplicate = [(np.eye(2, dtype=complex)[0], np.abs(s.basis[:, 0]) ** 2)]
        d = master.step(duplicate)
        master.accept()
        # It stays active, so the second step feeds an atom the store holds.
        assert any(np.array_equal(u, duplicate[0][0]) for _, u in master.atoms[:master.q])
        atoms, weights = list(master.atoms), master.x[1:].copy()
        evicted, real_evict = [], feasibility._Master._evict

        def evict(m, w):
            evicted.append(len(w))
            real_evict(m, w)

        monkeypatch.setattr(feasibility._Master, "_evict", evict)
        d_next = master.step(duplicate)
        assert evicted == [len(weights) + 1]
        assert_kkt_store(master)
        assert master.q == len(master.atoms) == len(atoms)
        assert all(s_new == s_old and u_new is u_old
                   for (s_new, u_new), (s_old, u_old) in zip(master.atoms, atoms))
        # The same block solved again: equal up to the roundoff of another
        # right-hand side.
        np.testing.assert_allclose(master.x[1:], weights, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(d_next, d, rtol=0.0, atol=1e-15)


def nested_pair(n: int):
    """V = span{x} inside W = span{conj(x), f, ...} of rank n - 2, x = (a +
    i b)/sqrt(2) and f, ... the other columns of a real orthogonal frame
    from a fixed seed: the moment point |x|^2 of V is in m_W."""
    frame, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
    x = (frame[:, 0] + 1j * frame[:, 1]) / np.sqrt(2.0)
    return subspace_from_spanning([x]), subspace_from_spanning([np.conj(x), *frame[:, 2:n - 1].T])


def boundary_pair():
    """The line of (1, 0, i, 0) and a space of rank 3 in C^4 whose moment
    sets meet only at (1/2, 0, 1/2, 0), a boundary point of m_W."""
    return (subspace_from_spanning([(1, 0, 1j, 0)]),
            subspace_from_spanning([(-1j, 1j, 1j, 1), (1j, 0, -1, -1), (-1j, 0, -1j, 0)]))


class TestFiber:
    """The exact fiber of a pair or a point, tried once after the oracle of
    iteration 0 when its dual bound is at most ``tol``: one least-squares
    solve for the minimum-norm hermitian preimage and, when that is not
    PSD, a bounded phase I of alternating projections, accepted only when
    its clipped density matrices replay within ``tol``."""

    @pytest.mark.parametrize("n, r", [(5, 2), (8, 2), (8, 3), (12, 4)])
    def test_intersecting_pairs_are_settled_exactly(self, n, r):
        # W = span{D_k x_k} for diagonal unitaries D_k, the benchmark's
        # INTERSECT pairs.  The fiber's system is rank deficient: the
        # coordinate rows of a side sum to its trace row (Q*Q = I), so they
        # sum to the difference of the two trace rows.  It is consistent,
        # and one solve gives moment points equal to roundoff.
        rng = np.random.default_rng(40 + n + r)
        x = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))[0].T
        v = subspace_from_spanning(x)
        w = subspace_from_spanning(x * np.exp(2j * np.pi * rng.random((r, n))))
        assert np.allclose(v.compression_table.sum(axis=0), np.eye(r), rtol=0.0, atol=1e-15)
        cert = moments_intersect(v, w)
        assert cert.status is IntersectionStatus.INTERSECT and cert.iterations == 0
        dy, dx = (np.real(np.diagonal(m)) for m in (cert.witness_y, cert.witness_x))
        assert np.linalg.norm(dy - dx) == pytest.approx(cert.gap, abs=1e-16)
        assert cert.gap <= 1e-14

    def test_iteration_zero_answers_never_reach_the_fiber(self, monkeypatch):
        # Answers the first oracle or the starting iterate settle, and dual
        # bounds above tol, make no least-squares solve.
        def forbidden(a, b):
            raise AssertionError("fiber solved")

        monkeypatch.setattr(feasibility, "_lstsq", forbidden)
        rng = np.random.default_rng(8)
        for n, r in ((6, 2), (8, 3), (12, 4)):
            cert = moments_intersect(*coordinate_half_pair(rng, n, r))
            assert cert.status is IntersectionStatus.DISJOINT and cert.iterations == 0
        # V and conj(V): the same moment set, so the same starting centroid.
        frame, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        x = (frame[:, :2] + 1j * frame[:, 2:4]) / np.sqrt(2.0)
        report = check_minimal(x @ x.conj().T - x.conj() @ x.T)
        assert report.verdict.value == "MINIMAL" and report.certificate.iterations == 0
        v, w = nested_pair(4)
        assert moments_intersect(v, w, max_iter=0).status is IntersectionStatus.INDETERMINATE

    def test_exterior_points_never_reach_the_fiber(self, monkeypatch):
        # A point whose first dual bound exceeds tol is at distance above
        # tol, so it makes no least-squares solve and takes Frank-Wolfe
        # steps: the vertices e_k, exterior points.  With max_iter = 0 no
        # point reaches the fiber, a member neither.
        def forbidden(a, b):
            raise AssertionError("fiber solved")

        monkeypatch.setattr(feasibility, "_lstsq", forbidden)
        s = random_subspace(np.random.default_rng(0), 6, 2)
        for k in range(6):
            res = project_onto_moment(s, np.eye(6)[k])
            assert res.converged and res.iterations >= 1 and res.lower > feasibility.DEFAULT_TOL
        member = np.abs(s.basis) ** 2 @ np.array([0.3, 0.7])
        res = project_onto_moment(s, member, max_iter=0)
        assert res.iterations == 0 and not res.converged

    def test_members_are_settled_by_the_fiber(self, monkeypatch):
        # V's point |x|^2 in m_W and a mixture of the coordinate atoms of a
        # random space, fibers of one point, settled by the minimum-norm
        # point; and a mixture of four pure states of a space of rank 5 in
        # C^16, whose fiber has dimension 9 and a minimum-norm point that
        # is not PSD, settled by phase I.  All answer at iteration 0 with a
        # witness that replays to roundoff.
        solves, real_lstsq = [], feasibility._lstsq

        def counted(a, b):
            solves.append(b.ndim)
            return real_lstsq(a, b)

        monkeypatch.setattr(feasibility, "_lstsq", counted)
        v, w = nested_pair(4)
        s = random_subspace(np.random.default_rng(0), 6, 2)
        rng = np.random.default_rng(1)
        big = random_subspace(rng, 16, 5)
        u = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cases = [(w, np.abs(v.basis[:, 0]) ** 2, [1]),
                 (s, np.abs(s.basis) ** 2 @ np.array([0.3, 0.7]), [1]),
                 (big, np.array([0.4, 0.3, 0.2, 0.1]) @ np.abs(u @ big.basis.T) ** 2, [1, 2])]
        for space, p, expected in cases:
            solves.clear()
            res = project_onto_moment(space, p)
            assert solves == expected
            assert res.iterations == 0 and res.converged and res.lower == 0.0
            assert res.distance <= 1e-15
            assert np.max(np.abs(np.real(np.diagonal(res.witness)) - p)) <= 1e-15

    def test_phase_one_settles_the_nested_pair(self, monkeypatch):
        # The nested pair in C^5: the fiber's minimum-norm point is not PSD,
        # so one more least-squares solve gives the pseudo-inverse, and the
        # alternating projections reach a PSD point of the fiber.
        solves, real_lstsq = [], feasibility._lstsq

        def counted(a, b):
            solves.append(b.shape)
            return real_lstsq(a, b)

        monkeypatch.setattr(feasibility, "_lstsq", counted)
        v, w = nested_pair(5)
        cert = moments_intersect(v, w)
        assert solves == [(7,), (7, 7)]
        assert cert.status is IntersectionStatus.INTERSECT and cert.iterations == 0
        dy, dx = (np.real(np.diagonal(m)) for m in (cert.witness_y, cert.witness_x))
        assert np.max(np.abs(dy - dx)) <= 1e-14 and cert.gap <= 1e-14
        assert np.max(np.abs(cert.common - np.abs(v.basis[:, 0]) ** 2)) <= 1e-14
        for witness in (cert.witness_y, cert.witness_x):
            assert np.linalg.eigvalsh(witness)[0] >= -1e-15

    def test_replayed_minimum_norm_point_skips_phase_one(self, monkeypatch):
        # Two fibers of dimension 0 whose one point is a pure state on the
        # boundary: the nested minimal matrix in C^4, whose eigenspaces at
        # +1 and -1 meet only at the moment point of the line, and the line
        # of (1, i, 1, i) against span{(1, -i, 1, -i), (1, 0, -1, 0)},
        # meeting only at (1/4, 1/4, 1/4, 1/4).  Their minimum-norm points
        # have eigenvalues negative at roundoff and, clipped, replay within
        # tol: one least-squares solve and one eigensolve of every side
        # settle them, with no pseudo-inverse and no round of phase I.
        solves, points = [], []
        real_lstsq, real_spectra = feasibility._lstsq, feasibility._Master._spectra

        def counted_lstsq(a, b):
            solves.append(b.shape)
            return real_lstsq(a, b)

        def counted_spectra(master, x):
            spectra = real_spectra(master, x)
            points.append(min(values[0] for values, _ in spectra))
            return spectra

        monkeypatch.setattr(feasibility, "_lstsq", counted_lstsq)
        monkeypatch.setattr(feasibility._Master, "_spectra", counted_spectra)
        report = check_minimal(nested_matrix(4))
        assert report.verdict.value == "MINIMAL" and report.certificate.iterations == 0
        # The system of two sides in C^4: 4 coordinate rows and 2 trace rows.
        assert solves == [(6,)] and len(points) == 1 and -1e-14 <= points[0] < 0.0
        solves.clear()
        points.clear()
        line = subspace_from_spanning([(1, 1j, 1, 1j)])
        plane = subspace_from_spanning([(1, -1j, 1, -1j), (1, 0, -1, 0)])
        cert = moments_intersect(line, plane)
        assert solves == [(6,)] and len(points) == 1 and -1e-14 <= points[0] < 0.0
        assert cert.status is IntersectionStatus.INTERSECT and cert.iterations == 0
        assert cert.gap <= 1e-15
        assert np.max(np.abs(cert.common - 0.25)) <= 1e-15

    def test_declined_fiber_leaves_the_master_untouched(self, monkeypatch):
        # The line of (1, 0, i, 0) meets m_W of a space of rank 3 only at
        # (1/2, 0, 1/2, 0), on its boundary, where the only preimage is a
        # pure state: the fiber has positive dimension, so the clipped
        # minimum-norm point does not replay, and no round of phase I
        # reaches a PSD point.  The master keeps no trace of the attempt, and
        # the answer is, in bytes, that of the solver without the fiber.
        v, w = boundary_pair()
        master = feasibility._Master([v, w], np.zeros(4))
        assert master.fiber(feasibility.DEFAULT_TOL) is None
        assert master.kkt is None and master.iterate is None
        calls, real_fiber = [], feasibility._Master.fiber

        def spied(master, tol):
            calls.append(tol)
            return real_fiber(master, tol)

        monkeypatch.setattr(feasibility._Master, "fiber", spied)
        answer = moments_intersect(v, w)
        assert calls == [feasibility.DEFAULT_TOL]
        monkeypatch.setattr(feasibility._Master, "fiber", lambda master, tol: None)
        cert = moments_intersect(v, w)
        assert cert.status is answer.status is IntersectionStatus.INTERSECT
        assert (cert.gap, cert.iterations) == (answer.gap, answer.iterations)
        assert cert.iterations >= 1
        assert_bitwise(cert.witness_y, answer.witness_y)
        assert_bitwise(cert.witness_x, answer.witness_x)


class FailingSolves:
    """The KKT solve kernel the master calls (``feasibility._lu_solve``)
    replaced by ``fault(solve, a, b, n_sides)`` in every master step after
    the first ``after``, with a log of each ``_Master._solve``: what it
    returned, how many solves it made, and its pass bound."""

    def __init__(self, monkeypatch, after: int, fault):
        real_solve, real_step, real_inner = (
            feasibility._lu_solve, feasibility._Master.step, feasibility._Master._solve)
        self.steps, self.solves, self.calls = 0, [], 0

        def solve(a, b):
            self.calls += 1
            if self.steps > after:
                return fault(real_solve, a, b, len(self.master.signs))
            return real_solve(a, b)

        def step(master, fw):
            self.steps += 1
            self.master = master
            return real_step(master, fw)

        def inner(master, w):
            self.calls = 0
            ok = real_inner(master, w)
            self.solves.append((ok, self.calls, 4 * len(master.points)))
            return ok

        monkeypatch.setattr(feasibility, "_lu_solve", solve)
        monkeypatch.setattr(feasibility._Master, "step", step)
        monkeypatch.setattr(feasibility._Master, "_solve", inner)

    def check_failed_exit(self, exit_):
        ok, calls, bound = self.solves[-1]
        assert not ok
        # A singular solve of the active atoms alone fails at once; a step
        # that cycles runs out of passes.
        assert calls == bound if exit_ == "pass bound" else calls < bound


def singular_active(solve, a, b, n_sides):
    """A 1-D right-hand side is the solve of the active atoms alone (an
    entering atom adds a unit column): it raises, as on a singular matrix.
    Only this failure reaches the exit with no entering atom."""
    if b.ndim == 1:
        raise np.linalg.LinAlgError("Singular matrix")
    return solve(a, b)


def first_weight_negative(solve, a, b, n_sides):
    """Whenever atoms enter, the first active atom solves to weight -1: the
    ratio step drops it, the dual check brings it back, and the step cycles
    until the pass bound.  Where the dropped atom is not needed, as when a
    projection keeps one active atom, the step ends instead."""
    x = solve(a, b)
    if b.ndim == 2:
        x[n_sides, 0] = -1.0
    return x


# (exit, fault, steps before the faulty one).
FAILURES = [("singular active atoms", singular_active, 0),
            ("singular active atoms", singular_active, 1),
            ("pass bound", first_weight_negative, 2)]
FAILURE_IDS = ["active-first-step", "active-second-step", "pass-bound"]


class TestFailedSolve:
    """A KKT solve that fails ends the run at the last accepted iterate:
    a projection reports it unconverged with its lower bound, and an
    intersection is INDETERMINATE.  No natural input is known to make the
    KKT matrix singular or the master cycle, so the master's solve kernel
    is made to raise, or to return a wrong weight."""

    @pytest.mark.parametrize("exit_, fault, after", FAILURES, ids=FAILURE_IDS)
    def test_projection_is_unconverged_at_last_iterate(self, monkeypatch, exit_, fault, after):
        s = random_subspace(np.random.default_rng(0), 6, 2)
        p = np.eye(6)[2]
        # Unfailed, this projection takes 6 steps: stopping after `after`
        # steps gives the answer a failure in the next one must keep.
        stopped = project_onto_moment(s, p, max_iter=after)
        assert not stopped.converged
        failing = FailingSolves(monkeypatch, after, fault)
        res = project_onto_moment(s, p)
        failing.check_failed_exit(exit_)
        assert failing.steps == after + 1
        assert not res.converged
        assert 0.0 < res.lower <= res.distance
        assert res.iterations == after
        assert (res.distance, res.lower) == (stopped.distance, stopped.lower)
        assert np.array_equal(res.witness, stopped.witness)

    @pytest.mark.parametrize("exit_, fault, after", FAILURES, ids=FAILURE_IDS)
    def test_intersection_is_indeterminate(self, monkeypatch, exit_, fault, after):
        # Without the fiber, which settles it at iteration 0, the pair
        # intersects after 3 steps; a failed solve before then certifies
        # neither INTERSECT nor DISJOINT.
        rng = np.random.default_rng(2)
        v, w = random_subspace(rng, 4, 2), random_subspace(rng, 4, 2)
        assert moments_intersect(v, w).status is IntersectionStatus.INTERSECT
        monkeypatch.setattr(feasibility._Master, "fiber", lambda master, tol: None)
        stopped = moments_intersect(v, w, max_iter=after)
        failing = FailingSolves(monkeypatch, after, fault)
        cert = moments_intersect(v, w)
        failing.check_failed_exit(exit_)
        assert cert.status is IntersectionStatus.INDETERMINATE
        assert cert.direction is None and cert.witness_y is None
        assert (cert.gap, cert.iterations) == (stopped.gap, after)

import numpy as np
import pytest

from momentkit import (
    IntersectionStatus,
    MinimalMatrixParts,
    Verdict,
    check_minimal,
    cone_membership,
    construct_minimal,
    hausdorff_moments,
    moments_intersect,
    spectral_norm,
    subspace_from_spanning,
)
from momentkit import minimality
from momentkit.directions import fibonacci_directions
from momentkit.linalg import orthonormalize
from momentkit.subspace import mutually_orthogonal

from conftest import (
    CONJUGATE_X,
    CONJUGATE_XBAR,
    random_hermitian,
    random_subspace,
)
from paper_claims import assert_coordinate_bound, brute_force_diag_distance
from paper_claims import hausdorff_contraction_bound

PAULI_Y = np.array([[0, -1j], [1j, 0]])


def conjugate_pair_subspaces(rng: np.random.Generator, n: int, r: int):
    """Orthogonal subspaces V and conj(V) with identical moment sets.

    Built from real orthonormal vectors a_i, b_i as x_i = (a_i + i b_i)/sqrt2,
    which forces every bilinear pairing sum_k x_i[k] x_j[k] to vanish.
    """
    frame = orthonormalize(rng.standard_normal((2 * r, n))).T
    xs = [(frame[2 * i] + 1j * frame[2 * i + 1]) / np.sqrt(2) for i in range(r)]
    v = subspace_from_spanning(xs)
    w = subspace_from_spanning([np.conj(x) for x in xs])
    return v, w


class TestCheckMinimal:
    def test_conjugate_rotation_is_minimal(self):
        report = check_minimal(PAULI_Y)
        assert report.verdict is Verdict.MINIMAL
        assert report.symmetric and report.norm == pytest.approx(1.0, abs=1e-12)
        assert report.certificate.status is IntersectionStatus.INTERSECT
        assert np.allclose(report.certificate.common, [0.5, 0.5], atol=1e-10)

    def test_diagonal_not_minimal(self):
        report = check_minimal(np.diag([1.0, -1.0]))
        assert report.verdict is Verdict.NOT_MINIMAL
        assert report.symmetric
        assert report.certificate.status is IntersectionStatus.DISJOINT

    def test_asymmetric_spectrum_not_minimal(self):
        report = check_minimal(np.diag([2.0, -1.0]))
        assert report.verdict is Verdict.NOT_MINIMAL
        assert not report.symmetric
        assert report.certificate is None

    def test_scaled_conjugate_pair(self):
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        m = 2.0 * (v.projector - w.projector)
        report = check_minimal(m)
        assert report.verdict is Verdict.MINIMAL
        assert report.norm == pytest.approx(2.0, abs=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            check_minimal(np.zeros((2, 2)))

    def test_entries_up_to_float_limit(self):
        # Symmetrizing overflowed past about 8.99e307 and warned.
        report = check_minimal(np.array([[0.0, 1.7e308], [1.7e308, 0.0]]))
        assert report.verdict is Verdict.MINIMAL
        assert report.norm == pytest.approx(1.7e308, rel=1e-15)

    @pytest.mark.parametrize(
        "m, eig_tol",
        [
            # A negative or NaN width empties the clusters of a minimal matrix.
            (PAULI_Y, -1.0),
            (PAULI_Y, np.nan),
            # A width of 2 ||M|| or more calls any spectrum symmetric.
            (np.diag([1.0, -0.5]), 2.0),
            (np.diag([1.0, -0.5]), np.inf),
        ],
    )
    def test_rejects_bad_eig_tol(self, m, eig_tol):
        with pytest.raises(ValueError, match="eig_tol"):
            check_minimal(m, eig_tol=eig_tol)

    @pytest.mark.parametrize(
        "m, feas_tol",
        [
            # With inf the disjoint moment points of diag(1, -1) passed as
            # INTERSECT (MINIMAL), and the asymmetric diag(1, -0.5) was
            # NOT_MINIMAL; a negative or NaN tol left the minimal Pauli-Y
            # INDETERMINATE.
            (np.diag([1.0, -1.0]), np.inf),
            (PAULI_Y, -1e-7),
            (PAULI_Y, np.nan),
            (np.diag([1.0, -0.5]), np.inf),
        ],
    )
    def test_rejects_bad_feas_tol(self, m, feas_tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check_minimal(m, feas_tol=feas_tol)

    def test_scalar_matrix_not_minimal(self):
        # Both extreme clusters are the whole spectrum, but the spectrum is
        # not symmetric, which already decides the verdict.
        report = check_minimal(2.0 * np.eye(3))
        assert report.verdict is Verdict.NOT_MINIMAL
        assert not report.symmetric

    @pytest.mark.parametrize("n, r", [(5, 2), (8, 2), (8, 3), (12, 4)])
    def test_nested_moment_sets_minimal(self, n, r):
        # V spanned by (a_k + i b_k)/sqrt2 and W = conj(V) + span{e} with e
        # real and orthogonal to both, so m_V lies inside m_W.  A diagonal
        # unitary conjugation keeps both facts.  Seed 147 at (8, 2) is slow:
        # Frank-Wolfe without full correction stalls above tol there.
        for seed in (*range(6), 147):
            rng = np.random.default_rng(seed)
            frame, _ = np.linalg.qr(rng.standard_normal((n, n)))
            x = (frame[:, :r] + 1j * frame[:, r : 2 * r]) / np.sqrt(2.0)
            v = subspace_from_spanning(x.T)
            w = subspace_from_spanning(np.vstack([np.conj(x).T, frame[:, 2 * r]]))
            rest = frame[:, 2 * r + 1 :]
            h = random_hermitian(rng, n - 2 * r - 1)
            if h.size:
                h *= 0.5 / spectral_norm(h)
            m = 1.5 * (v.projector - w.projector) + rest @ h @ rest.T
            d = np.exp(2j * np.pi * rng.random(n))
            report = check_minimal(d[:, None] * m * np.conj(d)[None, :])
            assert report.verdict is Verdict.MINIMAL
            assert (report.space_pos.r, report.space_neg.r) == (r, r + 1)

    def test_agrees_with_oracle_on_battery(self):
        rng = np.random.default_rng(17)
        matrices = [PAULI_Y, np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]], dtype=complex)]
        for _ in range(6):
            n = int(rng.integers(2, 4))
            a = random_hermitian(rng, n)
            matrices.append(a)
            w = np.linalg.eigvalsh(a)
            matrices.append(a - 0.5 * (w[0] + w[-1]) * np.eye(n))
        for m in matrices:
            report = check_minimal(m)
            if report.verdict is Verdict.INDETERMINATE:
                continue
            distance = brute_force_diag_distance(m)
            assert (report.verdict is Verdict.MINIMAL) == (
                distance >= report.norm - 5e-3
            )


class TestConstructMinimal:
    def test_assembles_conjugate_rotation(self):
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        parts = MinimalMatrixParts(lam=1.0, v=v, w=w, r=np.zeros((2, 2)))
        m, report = construct_minimal(parts)
        assert np.allclose(m, PAULI_Y, atol=1e-12)
        assert report.verdict is Verdict.MINIMAL
        assert report.norm == pytest.approx(1.0, abs=1e-10)

    def test_with_residual_block(self):
        rng = np.random.default_rng(23)
        v, w = conjugate_pair_subspaces(rng, 6, 1)
        outside = orthonormalize(
            [(np.eye(6) - v.projector - w.projector) @ rng.standard_normal(6)]
        )
        r = 0.25 * outside @ outside.conj().T
        parts = MinimalMatrixParts(lam=1.0, v=v, w=w, r=r)
        m, report = construct_minimal(parts)
        assert report.verdict is Verdict.MINIMAL
        assert spectral_norm(m) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_large_residual(self):
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        parts = MinimalMatrixParts(lam=1.0, v=v, w=w, r=np.eye(2) * 1.5)
        with pytest.raises(ValueError, match="strictly below"):
            construct_minimal(parts)

    def test_rejects_disjoint_moments(self):
        v = subspace_from_spanning([(1, 0)])
        w = subspace_from_spanning([(0, 1)])
        parts = MinimalMatrixParts(lam=1.0, v=v, w=w, r=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="intersect"):
            construct_minimal(parts)

    def test_lam_up_to_float_limit(self):
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        m, report = construct_minimal(MinimalMatrixParts(lam=1e308, v=v, w=w, r=np.zeros((2, 2))))
        assert np.allclose(m, 1e308 * PAULI_Y, rtol=1e-15, atol=0)
        assert report.norm == pytest.approx(1e308, rel=1e-15)

    @pytest.mark.parametrize("lam", [1e-12, 1.0, 1e300])
    def test_answer_does_not_depend_on_scale(self, lam):
        # The same parts scaled by lam get the same answer: R on the rest of
        # C^3, or none, is accepted, and R leaking 1% of lam into V is not.
        v = subspace_from_spanning([(*CONJUGATE_X, 0)])
        w = subspace_from_spanning([(*CONJUGATE_XBAR, 0)])
        rest = np.diag([0.0, 0.0, 0.5])
        for r in (np.zeros((3, 3)), lam * rest):
            m, report = construct_minimal(MinimalMatrixParts(lam=lam, v=v, w=w, r=r))
            assert report.verdict is Verdict.MINIMAL
            assert report.norm == pytest.approx(lam, rel=1e-12)
        leak = lam * (rest + 0.01 * v.projector)
        with pytest.raises(ValueError, match="does not annihilate V"):
            construct_minimal(MinimalMatrixParts(lam=lam, v=v, w=w, r=leak))
        with pytest.raises(ValueError, match="strictly below"):
            construct_minimal(MinimalMatrixParts(lam=lam, v=v, w=w, r=lam * np.diag([0, 0, 1.0])))

    @pytest.mark.parametrize("case, match", [
        ("lam", "must be positive"),
        ("dimension", "different ambient dimensions"),
        ("shape", "wrong shape"),
        ("annihilate-v", "does not annihilate V"),
        ("annihilate-w", "does not annihilate W"),
    ])
    def test_rejects_bad_parts(self, case, match):
        # V and W: conjugate lines in the first two coordinates of C^3.
        v = subspace_from_spanning([(*CONJUGATE_X, 0)])
        w = subspace_from_spanning([(*CONJUGATE_XBAR, 0)])
        fields = dict(lam=1.0, v=v, w=w, r=np.zeros((3, 3)))
        if case == "lam":
            fields["lam"] = 0.0
        elif case == "dimension":
            fields["w"] = subspace_from_spanning([CONJUGATE_XBAR])
        elif case == "shape":
            fields["r"] = np.zeros((2, 2))
        elif case == "annihilate-v":
            fields["r"] = 0.5 * v.projector
        else:
            fields["r"] = 0.5 * w.projector
        with pytest.raises(ValueError, match=match):
            construct_minimal(MinimalMatrixParts(**fields))

    def test_rejects_non_orthogonal(self):
        v = subspace_from_spanning([(1, 0)])
        w = subspace_from_spanning([(1, 1)])
        parts = MinimalMatrixParts(lam=1.0, v=v, w=w, r=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="orthogonal"):
            construct_minimal(parts)


class TestBruteForceOracle:
    def test_known_values(self):
        assert brute_force_diag_distance(PAULI_Y) == pytest.approx(1.0, abs=1e-3)
        assert brute_force_diag_distance(np.diag([1.0, -1.0])) == pytest.approx(0.0, abs=1e-9)
        assert brute_force_diag_distance(np.array([[0, 1], [1, 0]], dtype=complex)) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_never_exceeds_norm(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            a = random_hermitian(rng, 3)
            d = brute_force_diag_distance(a)
            assert d <= spectral_norm(a) + 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(31)
        a = random_hermitian(rng, 3)
        shifted = a + 0.7 * np.eye(3)
        assert brute_force_diag_distance(a) == pytest.approx(
            brute_force_diag_distance(shifted), abs=1e-6
        )

    def test_large_dimension_rejected(self):
        with pytest.raises(ValueError, match="n <= 4"):
            brute_force_diag_distance(np.eye(5))


class TestSupportCoordinateBound:
    def test_conjugate_lines_tight(self):
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        cert = moments_intersect(v, w)
        assert assert_coordinate_bound(cert) == pytest.approx(0.5, abs=1e-12)

    def test_random_conjugate_pairs(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            r = max(1, int(rng.integers(1, n // 2 + 1)))
            v, w = conjugate_pair_subspaces(rng, n, r)
            cert = moments_intersect(v, w)
            assert cert.status is IntersectionStatus.INTERSECT
            assert_coordinate_bound(cert)

    def test_not_applicable_for_overlapping_subspaces(self, example_v):
        cert = moments_intersect(example_v, example_v)
        assert not mutually_orthogonal(cert.space_v, cert.space_w)

    def test_not_applicable_for_disjoint(self):
        cert = moments_intersect(
            subspace_from_spanning([(1, 0)]), subspace_from_spanning([(0, 1)])
        )
        assert cert.status is not IntersectionStatus.INTERSECT
        assert cert.common is None


class TestHausdorff:
    def test_identical_subspaces(self, example_v):
        res = hausdorff_moments(example_v, example_v, fibonacci_directions(3, 64))
        assert res.estimate == pytest.approx(0.0, abs=1e-14)

    def test_equal_moments_different_projectors(self, example_v, example_w):
        res = hausdorff_moments(example_v, example_w, fibonacci_directions(3, 500))
        assert res.estimate <= 1e-12
        assert res.spectral_distance > 0.5

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [1.0, np.nan, 0.0], [np.inf, 0.0, 1.0]])
    def test_rejects_zero_or_non_finite_direction(self, example_v, example_w, row):
        dirs = fibonacci_directions(3, 8)
        dirs[3] = row
        with pytest.raises(ValueError):
            hausdorff_moments(example_v, example_w, dirs)

    def test_rejects_zero_direction_before_solving(self, monkeypatch, example_v, example_w):
        def forbidden(*args):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(minimality, "compressed_top_eigvalsh", forbidden)
        dirs = fibonacci_directions(3, 8)
        dirs[3] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            hausdorff_moments(example_v, example_w, dirs)

    def test_overflowing_direction_norm(self):
        # |c| overflows for c = (1e200, 0, 0); the estimate must still equal
        # the one for the unit direction e_1.
        v = subspace_from_spanning([(1, 1, 0), (0, 1, 1)])
        w = subspace_from_spanning([(1, 0, 0)])
        unit = hausdorff_moments(v, w, [[1.0, 0.0, 0.0]]).estimate
        huge = hausdorff_moments(v, w, [[1e200, 0.0, 0.0]]).estimate
        assert unit == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert huge == pytest.approx(unit, rel=1e-12)
        # Near the float limit both |c| and the support difference overflow.
        unit = hausdorff_moments(v, w, [[1.0, -1.0, 0.0]]).estimate
        huge = hausdorff_moments(v, w, [[1.7e308, -1.7e308, 0.0]]).estimate
        assert huge == pytest.approx(unit, rel=1e-12)

    def test_rejects_different_ambient_dimensions(self, example_v):
        line = subspace_from_spanning([CONJUGATE_X])
        with pytest.raises(ValueError, match="different ambient dimensions"):
            hausdorff_moments(example_v, line, [[1.0, 0.0, 0.0]])

    def test_rejects_empty_directions(self):
        # A maximum over no directions is undefined, not 0: with [[1, 0, 0]]
        # this pair's estimate is 1/3.
        v = subspace_from_spanning([(1, 1, 0), (0, 1, 1)])
        w = subspace_from_spanning([(1, 0, 0)])
        with pytest.raises(ValueError, match="at least one direction"):
            hausdorff_moments(v, w, np.empty((0, 3)))

    def test_conjugate_lines_non_reciprocal(self):
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        res = hausdorff_moments(v, w, fibonacci_directions(2, 64))
        assert res.estimate == pytest.approx(0.0, abs=1e-10)
        assert res.frobenius_distance == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert res.spectral_distance == pytest.approx(1.0, abs=1e-10)
        assert hausdorff_contraction_bound(v, w) is None

    def test_perturbation_respects_contraction_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n))
            base = random_subspace(rng, n, r)
            eps = 1e-3
            bumped = subspace_from_spanning(
                (base.basis + eps * (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))).T
            )
            bound = hausdorff_contraction_bound(base, bumped)
            if bound is None:
                continue
            res = hausdorff_moments(base, bumped, fibonacci_directions(n, 200))
            assert res.estimate <= bound + 1e-9

    def test_estimate_is_lower_bound_of_support_gap(self):
        # Distinct singleton moments: the estimate approaches the exact
        # Hausdorff distance as directions densify.
        v = subspace_from_spanning([(1, 0)])
        w = subspace_from_spanning([(0, 1)])
        res = hausdorff_moments(v, w, fibonacci_directions(2, 720))
        true = np.sqrt(2.0)
        assert res.estimate <= true + 1e-12
        assert res.estimate >= true - 1e-4


class TestEquivalenceChain:
    def test_intersection_verdicts_match_cone_memberships(self):
        # Determinate intersection verdicts agree with the numerical-range
        # level test: a common point must be in both cones, and a certified
        # separation forbids any nonzero common cone point.
        rng = np.random.default_rng(43)
        checked_intersect = checked_disjoint = 0
        for _ in range(12):
            n = int(rng.integers(2, 5))
            v = random_subspace(rng, n, int(rng.integers(1, n)))
            w = random_subspace(rng, n, int(rng.integers(1, n)))
            cert = moments_intersect(v, w)
            if cert.status is IntersectionStatus.INTERSECT:
                checked_intersect += 1
                for space in (v, w):
                    res = cone_membership(space, np.clip(cert.common, 0.0, None))
                    assert res.member
            elif cert.status is IntersectionStatus.DISJOINT:
                checked_disjoint += 1
                # Replay the strict separation on the certificate direction.
                from momentkit.feasibility import separation_margin

                assert separation_margin(v, w, cert.direction) >= 1e-9
        assert checked_intersect >= 1 and checked_disjoint >= 1

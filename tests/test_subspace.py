import numpy as np
import pytest

from momentkit import (
    NotGenericAtCoordinate,
    Subspace,
    centroid,
    is_generic,
    principal_vector,
    subspace_from_spanning,
    whole_space,
)
from momentkit import subspace
from momentkit.linalg import projector
from momentkit.moment import sample_unit_vectors
from momentkit.subspace import mutually_orthogonal, orthogonal_complement

from conftest import (
    P_V_REFERENCE,
    V1_REFERENCE,
    V2_REFERENCE,
    random_generic_subspace,
    random_subspace,
)
from paper_claims import centroid_residual, difference, span


class TestConstruction:
    def test_reference_projector(self, example_v):
        assert np.max(np.abs(example_v.projector - P_V_REFERENCE)) < 1e-12
        assert example_v.r == 2 and example_v.n == 3

    def test_single_axis(self):
        s = subspace_from_spanning([np.eye(3)[0]])
        assert s.r == 1
        assert np.allclose(s.projector, np.diag([1.0, 0, 0]), atol=1e-15)

    def test_rank_collapse(self):
        s = subspace_from_spanning([(1, 0), (1, 1e-15)])
        assert s.r == 1

    def test_zero_span_rejected(self):
        with pytest.raises(ValueError, match="zero subspace"):
            subspace_from_spanning([(0, 0)])

    def test_empty_basis_rejected(self):
        # Accepted before: centroid then divided by r = 0.
        with pytest.raises(ValueError, match="zero subspace"):
            Subspace(np.zeros((3, 0)))

    def test_identity_equality_and_hash(self, example_v):
        # The default dataclass equality compared the basis arrays, so == and
        # hash raised.
        assert example_v == example_v
        assert example_v != Subspace(example_v.basis)
        assert {example_v: 1}[example_v] == 1

    def test_whole_space_flagged(self):
        s = subspace_from_spanning(np.eye(3))
        assert s.is_whole_space

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(np.ones((3, 2)))

    def test_projector_is_derived_once(self, example_v, monkeypatch):
        calls = []
        monkeypatch.setattr(subspace, "projector", lambda q: calls.append(q) or projector(q))
        s = Subspace(example_v.basis)
        assert np.array_equal(s.projector, projector(example_v.basis))
        assert s.projector is s.projector
        assert len(calls) == 1

    def test_projector_cannot_be_passed(self, example_v):
        # A projector passed next to its basis could disagree with it.
        with pytest.raises(TypeError):
            Subspace(basis=example_v.basis, projector=np.eye(3))


class TestGenericity:
    def test_reference_is_generic(self, example_v):
        report = is_generic(example_v)
        assert report.is_generic and report.offending == ()

    def test_axis_span_not_generic(self):
        s = subspace_from_spanning([(1, 0)])
        report = is_generic(s)
        assert not report.is_generic
        assert report.offending == (1,)

    def test_diagonal_line_generic(self):
        s = subspace_from_spanning([(1, 1)])
        assert is_generic(s).is_generic


class TestPrincipalVectors:
    def test_reference_vectors(self, example_v):
        v1 = principal_vector(example_v, 0)
        assert np.allclose(v1.v, V1_REFERENCE, atol=1e-12)
        assert v1.top == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        v2 = principal_vector(example_v, 1)
        assert np.allclose(v2.v, V2_REFERENCE, atol=1e-12)

    def test_axis_case(self):
        s = subspace_from_spanning([np.eye(2)[0]])
        pv = principal_vector(s, 0)
        assert np.allclose(pv.v, [1, 0], atol=1e-15)
        assert pv.top == pytest.approx(1.0, abs=1e-15)

    def test_missing_vector_raises(self):
        s = subspace_from_spanning([np.eye(2)[0]])
        with pytest.raises(NotGenericAtCoordinate):
            principal_vector(s, 1)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_index_out_of_range(self, example_v, j):
        with pytest.raises(IndexError, match="out of range for ambient dimension 3"):
            principal_vector(example_v, j)

    def test_phase_and_membership(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n))
            s = random_generic_subspace(rng, n, r)
            for j in range(n):
                pv = principal_vector(s, j)
                assert np.linalg.norm(pv.v) == pytest.approx(1.0, abs=1e-12)
                assert s.membership_residual(pv.v) < 1e-10
                assert pv.v[j].imag == pytest.approx(0.0, abs=1e-12)
                assert pv.v[j].real > 0
                assert pv.top == pytest.approx(
                    np.sqrt(np.real(s.projector[j, j])), abs=1e-12
                )

    def test_coordinate_maximality(self):
        # No unit vector of the subspace beats the principal vector in the
        # modulus of its own coordinate.
        rng = np.random.default_rng(3)
        s = random_generic_subspace(rng, 5, 3)
        tops = np.array([principal_vector(s, j).top for j in range(5)])
        samples = sample_unit_vectors(s, 1000, seed=11)
        assert np.all(np.abs(samples) <= tops[None, :] + 1e-12)

    def test_near_maximal_samples_are_principal(self):
        # A sample whose j-coordinate modulus is nearly extremal must have
        # nearly the principal moment point.  The principal vectors and tiny
        # perturbations of them (small enough to keep the coordinate within
        # the 1e-9 trigger) are injected so the conditional actually fires.
        rng = np.random.default_rng(4)
        s = random_generic_subspace(rng, 4, 2)
        samples = list(sample_unit_vectors(s, 1000, seed=12))
        for j in range(4):
            pv = principal_vector(s, j)
            bump = 1e-12 * (s.basis @ (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            wobbled = pv.v + bump
            samples.append(wobbled / np.linalg.norm(wobbled))
            samples.append(pv.v)
        hit = 0
        for j in range(4):
            pv = principal_vector(s, j)
            for x in samples:
                if abs(x[j]) >= pv.top - 1e-9:
                    hit += 1
                    assert np.linalg.norm(np.abs(x) ** 2 - np.abs(pv.v) ** 2) <= 1e-6
        assert hit >= 8

    def test_cross_coordinate_identity(self):
        # v^j_k / v^k_k equals the conjugate of v^k_j / v^j_j.
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            s = random_generic_subspace(rng, n, max(1, n - 2) if n > 2 else 1)
            pvs = [principal_vector(s, j) for j in range(n)]
            for j in range(n):
                for k in range(n):
                    if j == k:
                        continue
                    lhs = pvs[j].v[k] / pvs[k].v[k]
                    rhs = np.conj(pvs[k].v[j]) / pvs[j].v[j]
                    assert abs(lhs - rhs) < 1e-10

    def test_zero_cross_iff_orthogonal(self):
        # v^j_k vanishes exactly when the two principal vectors are orthogonal.
        s = subspace_from_spanning([(1, 1, 0, 0), (0, 0, 1, 1)])
        pvs = [principal_vector(s, j) for j in range(4)]
        for j in range(4):
            for k in range(4):
                if j == k:
                    continue
                cross = abs(pvs[j].v[k])
                inner = abs(np.vdot(pvs[j].v, pvs[k].v))
                assert (cross < 1e-10) == (inner < 1e-10)


class TestCentroid:
    def test_whole_space(self):
        c = centroid(whole_space(4))
        assert np.array_equal(c, np.full(4, 0.25))

    def test_reference(self, example_v):
        assert np.allclose(centroid(example_v), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_axis(self):
        s = subspace_from_spanning([np.eye(3)[0]])
        assert np.allclose(centroid(s), [1, 0, 0], atol=1e-15)

    def test_sum_and_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            s = random_subspace(rng, n, r)
            c = centroid(s)
            assert c.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(c <= 1.0 / s.r + 1e-12)
            assert np.all(c >= -1e-15)

    def test_basis_independent(self):
        rng = np.random.default_rng(7)
        s = random_subspace(rng, 5, 3)
        # Re-span with shuffled, rescaled combinations of the same basis.
        mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        other = subspace_from_spanning((s.basis @ mix).T)
        assert np.allclose(centroid(s), centroid(other), atol=1e-10)

    def test_mixture_of_principal_vertices(self):
        # diag(P)/r = sum_j (P_jj / r) |v^j|^2 and P/r = sum_j (P_jj / r)
        # v^j v^j*: the centroid, the solver's iterate 0, lies in the hull
        # of the principal vertices, its probes.  A zero row has P_jj = 0
        # and no principal vector, so it adds nothing.
        rng = np.random.default_rng(19)
        leaky = np.zeros((2, 6), dtype=complex)
        leaky[:, :4] = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        spaces = [random_subspace(rng, n, r) for n, r in ((1, 1), (3, 1), (5, 2), (8, 3),
                                                           (12, 5), (16, 4))]
        spaces += [subspace_from_spanning(leaky), subspace_from_spanning(np.eye(5)[[0, 2]]),
                   whole_space(1), whole_space(4)]
        for s in spaces:
            p, zero_rows = s.projector, is_generic(s).offending
            points, state = np.zeros(s.n), np.zeros((s.n, s.n), dtype=complex)
            for j in range(s.n):
                if j in zero_rows:
                    assert p[j, j] == 0.0
                    continue
                weight, v = p[j, j].real / s.r, principal_vector(s, j).v
                points += weight * np.abs(v) ** 2
                state += weight * np.outer(v, v.conj())
            assert np.max(np.abs(points - centroid(s))) <= 1e-15
            assert np.max(np.abs(state - p / s.r)) <= 1e-15


class TestCentroidAlgebra:
    def test_orthogonal_axes(self):
        s = subspace_from_spanning([np.eye(3)[0]])
        v = subspace_from_spanning([np.eye(3)[1]])
        assert centroid_residual(span(s, v), plus=[s, v]) < 1e-12

    def test_complement_of_reference(self, example_v):
        comp = orthogonal_complement(example_v)
        assert centroid_residual(comp, plus=[whole_space(3)], minus=[example_v]) < 1e-10
        assert np.allclose(centroid(comp), [1 / 3, 1 / 3, 1 / 3], atol=1e-10)

    def test_whole_space_has_no_complement(self):
        with pytest.raises(ValueError, match="trivial complement"):
            orthogonal_complement(whole_space(3))
        with pytest.raises(ValueError, match="trivial complement"):
            whole_space(3).complement_vector

    def test_complement_vector(self, monkeypatch):
        # One unit vector of the complement, computed once and without an
        # eigensolve: (I - Q Q*) e_j for the smallest row norm |q_j|.
        monkeypatch.setattr(subspace, "hermitian_eig", None)
        rng = np.random.default_rng(21)
        for n, r in ((2, 1), (3, 2), (8, 3), (32, 4), (6, 5)):
            s = random_subspace(rng, n, r)
            v = s.complement_vector
            assert v is s.complement_vector
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(s.projector @ v) <= 1e-14
            j = int(np.argmin(np.linalg.norm(s.basis, axis=1)))
            assert abs(v[j]) ** 2 == pytest.approx(1.0 - np.linalg.norm(s.basis[j]) ** 2, abs=1e-14)

    def test_nested_difference(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            outer = random_subspace(rng, 5, 3)
            mix = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            inner = subspace_from_spanning((outer.basis @ mix.T).T)
            diff = difference(outer, inner)
            assert centroid_residual(diff, plus=[outer], minus=[inner]) < 1e-10

    def test_shared_part(self):
        from momentkit.linalg import orthonormalize

        rng = np.random.default_rng(9)
        for _ in range(10):
            # Shared line d plus mutually orthogonal extensions a and b.
            triple = orthonormalize(
                rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
            ).T
            d, a, b = triple
            s = subspace_from_spanning([d, a])
            v = subspace_from_spanning([d, b])
            shared = subspace_from_spanning([d])
            assert centroid_residual(span(s, v), plus=[s, v], minus=[shared]) < 1e-10
            assert not mutually_orthogonal(s, v)

    def test_hypothesis_failure_reported(self):
        # The direct-sum identity needs orthogonal parts; this pair is not.
        s = subspace_from_spanning([(1, 0, 0)])
        v = subspace_from_spanning([(1, 1, 0)])
        assert not mutually_orthogonal(s, v)
        assert centroid_residual(span(s, v), plus=[s, v]) > 0.1

    def test_intersection_helper(self, example_v):
        a = subspace_from_spanning([(1, 0, 0)])
        b = subspace_from_spanning([(0, 1, 0)])
        # Trivial intersection: P_a + P_b has no eigenvalue 2.
        assert np.linalg.eigvalsh(a.projector + b.projector)[-1] < 2.0 - 1e-8
        assert span(a, b).r == 2

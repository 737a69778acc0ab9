import numpy as np
import pytest

from momentkit.linalg import (
    EigenDecomposition,
    NonHermitianError,
    _fix_phases,
    compressed_eigh,
    hermitian_eig,
    orthonormalize,
    projector,
    spectral_norm,
)

from conftest import P_V_REFERENCE, SPAN_V, random_hermitian, random_subspace

PAULI_Y = np.array([[0, -1j], [1j, 0]])


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1, 1, 1], atol=1e-12)

    def test_two_by_two(self):
        # Characteristic polynomial lambda^2 - 1 by hand.
        dec = hermitian_eig(PAULI_Y)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_reference_projector_spectrum(self):
        # The displayed rank-2 projector squares to itself, so its spectrum
        # can only be zeros and ones with two ones on the trace.
        assert np.max(np.abs(P_V_REFERENCE @ P_V_REFERENCE - P_V_REFERENCE)) < 1e-15
        dec = hermitian_eig(P_V_REFERENCE)
        assert np.allclose(dec.eigenvalues, [0.0, 1.0, 1.0], atol=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError) as err:
            hermitian_eig(bad)
        assert err.value.asymmetry == pytest.approx(1.0)

    def test_reconstruction_and_shift(self):
        rng = np.random.default_rng(42)
        for n in range(2, 9):
            a = random_hermitian(rng, n)
            dec = hermitian_eig(a)
            rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
            scale = max(1.0, spectral_norm(a))
            assert spectral_norm(rebuilt - a) <= 1e-10 * scale
            assert np.max(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n))) < 1e-10
            c = float(rng.standard_normal())
            shifted = hermitian_eig(a + c * np.eye(n))
            assert np.allclose(shifted.eigenvalues, dec.eigenvalues + c, atol=1e-10 * scale)

    def test_residual_per_eigenpair(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 6)
        dec = hermitian_eig(a)
        for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert np.linalg.norm(a @ vec - lam * vec) <= 1e-10 * max(1.0, spectral_norm(a))

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 5)
        first = hermitian_eig(a)
        second = hermitian_eig(a.copy())
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        for col in first.eigenvectors.T:
            leading = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
            assert abs(leading.imag) < 1e-12 and leading.real > 0

    def test_returns_dataclass(self):
        assert isinstance(hermitian_eig(np.eye(2)), EigenDecomposition)


def loop_fix_phases(vectors):
    """Column-by-column reference for the phase convention."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        idx = np.flatnonzero(np.abs(col) > 1e-9)
        pivot = col[idx[0]]
        out[:, i] = col * (np.conj(pivot) / np.abs(pivot))
    return out


class TestCompressedEigh:
    def test_fix_phases_matches_loop(self):
        rng = np.random.default_rng(11)
        stack = [random_hermitian(rng, 5) for _ in range(20)]
        # Leading zero components move the pivot off the first row.
        stack += [np.diag(rng.standard_normal(5)).astype(complex) for _ in range(5)]
        # Components below the 1e-9 threshold do not qualify as the pivot.
        stack += [np.diag([0.0, 1, 2, 3, 4]) + 1e-12 * random_hermitian(rng, 5) for _ in range(5)]
        _, vectors = np.linalg.eigh(np.array(stack))
        expected = np.array([loop_fix_phases(v) for v in vectors])
        assert np.array_equal(_fix_phases(vectors), expected)
        for v, e in zip(vectors, expected):
            assert np.array_equal(_fix_phases(v), e)

    def test_stack_matches_rows_bitwise(self):
        rng = np.random.default_rng(12)
        for n, r in [(4, 2), (8, 3), (16, 5), (5, 5), (3, 1)]:
            q = random_subspace(rng, n, r).basis
            dirs = rng.standard_normal((40, n))
            stacked = compressed_eigh(q, dirs)
            assert stacked.eigenvalues.shape == (40, r)
            assert stacked.eigenvectors.shape == (40, r, r)
            for i, c in enumerate(dirs):
                row = compressed_eigh(q, c[None])
                assert np.array_equal(stacked.eigenvalues[i], row.eigenvalues[0])
                assert np.array_equal(stacked.eigenvectors[i], row.eigenvectors[0])

    def test_matches_hermitian_eig_of_explicit_compression(self):
        rng = np.random.default_rng(13)
        q = random_subspace(rng, 7, 3).basis
        for c in rng.standard_normal((10, 7)):
            m = q.conj().T @ (c[:, None] * q)
            dec = hermitian_eig(0.5 * (m + m.conj().T))
            batched = compressed_eigh(q, c[None])
            assert np.array_equal(batched.eigenvalues[0], dec.eigenvalues)
            assert np.array_equal(batched.eigenvectors[0], dec.eigenvectors)

    @pytest.mark.parametrize(
        "dirs", [np.ones(3), np.ones((2, 4)), [[1.0, np.nan, 0.0]], [[np.inf, 0.0, 0.0]]]
    )
    def test_rejects_bad_directions(self, dirs):
        q = random_subspace(np.random.default_rng(0), 3, 2).basis
        with pytest.raises(ValueError, match="finite real rows"):
            compressed_eigh(q, dirs)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_rejects_overflowing_compression(self):
        # Finite directions near the float limit overflow Q* diag(c) Q; the
        # result would be NaN, so the primitive raises instead.
        q = orthonormalize(SPAN_V)
        with pytest.raises(ValueError, match="overflows"):
            compressed_eigh(q, [[1e308, 1e308, 0.0]])


class TestOrthonormalize:
    def test_already_orthonormal(self):
        q = orthonormalize([(1, 0), (0, 1)])
        assert np.allclose(q, np.eye(2), atol=1e-15)

    def test_reference_span(self):
        q = orthonormalize(SPAN_V)
        assert q.shape == (3, 2)
        assert np.max(np.abs(q.conj().T @ q - np.eye(2))) < 1e-12
        assert np.max(np.abs(q @ q.conj().T - P_V_REFERENCE)) < 1e-12

    def test_dependent_input(self):
        q = orthonormalize([(1, 0), (2, 0)])
        assert q.shape == (2, 1)
        assert np.allclose(np.abs(q[:, 0]), [1, 0], atol=1e-15)

    def test_all_zero_input(self):
        q = orthonormalize([(0, 0, 0)])
        assert q.shape == (3, 0)

    def test_rank_collapse_under_tolerance(self):
        q = orthonormalize([(1, 0), (1, 1e-15)])
        assert q.shape == (2, 1)

    def test_projector_idempotent_for_random_spans(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            vecs = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            q = orthonormalize(vecs)
            p = projector(q)
            assert spectral_norm(p @ p - p) < 1e-10
            assert spectral_norm(p - p.conj().T) < 1e-10

    def test_span_preserved(self):
        rng = np.random.default_rng(9)
        vecs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        q = orthonormalize(vecs)
        p = projector(q)
        for v in vecs:
            assert np.linalg.norm(p @ v - v) < 1e-10 * np.linalg.norm(v)


class TestProjector:
    def test_single_axis(self):
        p = projector(np.array([[1.0], [0.0]]))
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-15)

    def test_full_span_is_identity(self):
        p = projector(np.eye(4))
        assert np.allclose(p, np.eye(4), atol=1e-15)

    def test_trace_counts_columns(self):
        q = orthonormalize(SPAN_V)
        assert np.real(np.trace(projector(q))) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            projector(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_pauli(self):
        assert spectral_norm(PAULI_Y) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u = orthonormalize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            assert u.shape == (n, n)
            assert spectral_norm(u @ a @ u.conj().T) == pytest.approx(
                spectral_norm(a), abs=1e-10 * max(1.0, spectral_norm(a))
            )

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import momentkit.minimality
from momentkit import (
    IntersectionStatus,
    MinimalMatrixParts,
    check_minimal,
    cone_membership,
    construct_minimal,
    curve_frame,
    curve_point,
    delta_map,
    dominating_t,
    fibonacci_directions,
    hausdorff_moments,
    jnr_boundary,
    jnr_support,
    moment_of_vector,
    moments_intersect,
    principal_vector,
    project_onto_moment,
    sample_moment,
    subspace_from_spanning,
    support_moment,
    whole_space,
)
from momentkit.feasibility import separation_margin
from momentkit.jnr import validate_density
from momentkit.linalg import (
    _PHASE_TOL,
    EigenDecomposition,
    NonHermitianError,
    _compressed_top_eigh1,
    _compressions,
    _eigh,
    _eigvalsh,
    _fix_phase,
    _fix_phases,
    _lstsq,
    _lu_solve,
    as_complex_matrix,
    compressed_top_eigh,
    compressed_top_eigvalsh,
    hermitian_eig,
    orthonormalize,
    projector,
    require_hermitian,
    require_orthonormal,
    spectral_norm,
)

from momentkit.subspace import Subspace

from conftest import (
    CONJUGATE_X,
    CONJUGATE_XBAR,
    P_V_REFERENCE,
    SPAN_V,
    assert_bitwise,
    random_hermitian,
    random_subspace,
)

PAULI_Y = np.array([[0, -1j], [1j, 0]])

#: Both compressed eigensolves, each giving a tuple of arrays with one row
#: per direction: (values, vectors) and (values,).
PRIMITIVES = [compressed_top_eigh, lambda table, dirs: (compressed_top_eigvalsh(table, dirs),)]


def assert_one_direction_is_its_row(table, dirs):
    """``_compressed_top_eigh1`` of each row of a stack of directions is
    bitwise that row of ``compressed_top_eigh``: a Python float and an
    (r,) vector."""
    values, vectors = compressed_top_eigh(table, dirs)
    for c, stacked_value, stacked_vector in zip(dirs, values, vectors):
        value, vector = _compressed_top_eigh1(table, c)
        assert type(value) is float
        assert_bitwise(value, stacked_value)
        assert_bitwise(vector, stacked_vector)


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

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="matrix is empty"):
            hermitian_eig(np.zeros((0, 0)))

    @pytest.mark.parametrize("a, match", [
        (np.ones(3), "expected a matrix"),
        ([[1.0, np.nan], [np.nan, 1.0]], "non-finite"),
        (np.ones((2, 3)), "not square"),
    ], ids=["vector", "non-finite", "not-square"])
    def test_rejects_malformed_matrix(self, a, match):
        with pytest.raises(ValueError, match=match):
            hermitian_eig(a)

    def test_entries_up_to_float_limit(self):
        # A - A* and A + A* overflowed past about 8.99e307, which raised an
        # overflow warning and then "non-finite entries".
        big = np.array([[0.0, 1.7e308], [1.7e308, 0.0]])
        assert np.array_equal(require_hermitian(big), big)
        assert np.allclose(hermitian_eig(big).eigenvalues, [-1.7e308, 1.7e308], rtol=1e-15, atol=0)
        with pytest.raises(NonHermitianError):
            require_hermitian([[0.0, 1.7e308], [-1.7e308, 0.0]])
        with pytest.raises(NonHermitianError):
            require_hermitian([[0.0, 1.7e308], [1.6e308, 0.0]])

    @pytest.mark.parametrize("scale", [1e6, 1e12])
    def test_badly_scaled_matrix_accepted(self, scale):
        # U D U* at a large scale carries a roundoff asymmetry far above
        # 1e-12 in absolute terms, about eps relative to its entries.
        rng = np.random.default_rng(6)
        u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        a = scale * (u * rng.standard_normal(6)) @ u.conj().T
        assert np.max(np.abs(a - a.conj().T)) > 1e-12
        assert np.array_equal(require_hermitian(a), 0.5 * a + 0.5 * a.conj().T)
        assert check_minimal(a).norm == pytest.approx(spectral_norm(a), rel=1e-12)
        with pytest.raises(NonHermitianError):
            require_hermitian(a + scale * 1e-6 * np.triu(np.ones((6, 6)), 1))

    def test_small_non_hermitian_matrix_rejected(self):
        # A nilpotent matrix at 1e-13 was silently symmetrized under an
        # absolute 1e-12 floor, and check_minimal answered MINIMAL.
        bad = 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError):
            require_hermitian(bad)
        with pytest.raises(NonHermitianError):
            check_minimal(bad)

    @pytest.mark.parametrize("scale", [1e-200, 1e-310])
    def test_tiny_matrix_with_roundoff_accepted(self, scale):
        # Roundoff at 1e-200 is relative to the entries; at 1e-310, below the
        # normal range, it is a few subnormal steps, within the floor.
        rng = np.random.default_rng(9)
        u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        a = scale * (u * rng.standard_normal(6)) @ u.conj().T
        assert np.max(np.abs(a - a.conj().T)) > 0
        assert_bitwise(require_hermitian(a), 0.5 * a + 0.5 * a.conj().T)
        assert_bitwise(require_hermitian(np.zeros((3, 3))), np.zeros((3, 3), dtype=np.complex128))

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


def kkt_system(rng: np.random.Generator, sides: int, size: int, entering: int):
    """A KKT matrix of the master, as a leading block of a larger store (a
    strided view, as ``_Master._solve`` passes it), with its 1-D right-hand
    side and the 2-D one of ``entering`` atoms: that side first, then a
    unit column for each of the last ``entering`` positions.  Atom i is of
    side i % sides, with a moment point of n = atoms + 1 entries that sum
    to 1, signed +1 on side 0 and -1 on side 1."""
    atoms = size - sides
    owner = np.arange(atoms) % sides
    points = rng.dirichlet(np.ones(atoms + 1), atoms) * np.where(owner == 0, 1.0, -1.0)[:, None]
    store = np.zeros((size + 2, size + 3))
    store[sides:size, sides:size] = points @ points.T
    store[owner, sides + np.arange(atoms)] = store[sides + np.arange(atoms), owner] = 1.0
    store[:sides, -1] = 1.0
    store[sides:size, -1] = points @ rng.standard_normal(atoms + 1)
    rhs = np.zeros((size, entering + 1))
    rhs[:, 0] = store[:size, -1]
    rhs[size - entering:, 1:] = np.eye(entering)
    return store[:size, :size], store[:size, -1], rhs


class TestKernel:
    """``_eigh``, ``_eigvalsh`` and ``_lu_solve``, the LAPACK gufuncs behind
    every eigensolve and every KKT solve of the solver, and ``_lstsq``, the
    least-squares solve of its exact fiber."""

    def test_numpy_provides_the_kernel_gufuncs(self):
        # The kernel calls numpy's private gufuncs with these core
        # signatures and loops; an older or newer numpy that lacks one
        # fails here, with every difference named, not inside the solver.
        wanted = {"solve": ("(m,m),(m,n)->(m,n)", "dd->d"), "solve1": ("(m,m),(m)->(m)", "dd->d"),
                  "eigh_lo": ("(m,m)->(m),(m,m)", "D->dD"), "eigvalsh_lo": ("(m,m)->(m)", "D->d")}
        found = {}
        for name in wanted:
            gufunc = getattr(_umath_linalg, name, None)
            found[name] = (getattr(gufunc, "signature", None), getattr(gufunc, "types", []))
        missing = [f"{name}: want {sig} with loop {loop}, numpy {np.__version__} has {found[name]}"
                   for name, (sig, loop) in wanted.items()
                   if found[name][0] != sig or loop not in found[name][1]]
        assert not missing, "numpy.linalg._umath_linalg differs from the kernel's use: " + "; ".join(missing)

    @pytest.mark.parametrize("sides", [1, 2])
    def test_kkt_solves_match_numpy_bitwise(self, sides):
        rng = np.random.default_rng(60 + sides)
        for size in range(max(3, 2 * sides), 41):
            for entering in range(1, min(3, size - sides) + 1):
                a, b, rhs = kkt_system(rng, sides, size, entering)
                assert_bitwise(_lu_solve(a, b), np.linalg.solve(a, b))
                assert_bitwise(_lu_solve(a, rhs), np.linalg.solve(a, rhs))

    def test_least_squares_give_the_minimum_norm_point(self):
        # Under- and overdetermined, and rank deficient but consistent: the
        # fiber of every pair has a dependent row, the sum of the coordinate
        # rows being the difference of the trace rows.  The answer is the
        # pseudo-inverse's, so a consistent system is solved and x has no
        # component in the null space of a.
        rng = np.random.default_rng(72)
        for m, n in ((7, 16), (10, 36), (14, 64), (9, 4), (5, 5)):
            a, b = rng.standard_normal((m, n)), rng.standard_normal(m)
            for _ in range(2):
                x = _lstsq(a, b)
                assert x.dtype == np.float64 and x.shape == (n,)
                np.testing.assert_allclose(x, np.linalg.pinv(a) @ b, rtol=0, atol=1e-12)
                if m < n:
                    assert np.linalg.norm(a @ x - b) <= 1e-13 * np.linalg.norm(b)
                a[-1] = a[:-1].sum(axis=0)
                b[-1] = b[:-1].sum()

    @pytest.mark.parametrize("two_d", [False, True], ids=["1-D", "2-D"])
    def test_singular_solve_raises_without_warning(self, two_d):
        # One side holding the same atom twice: two equal rows, an exactly
        # zero pivot.  LAPACK fills the output with NaN, which would set
        # the invalid flag.
        a = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        b = np.array([[1.0, 0.0], [0.5, 0.0], [0.5, 1.0]]) if two_d else np.array([1.0, 0.5, 0.5])
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(a, b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                _lu_solve(a, b)
        assert caught == []
        # Raised as LinAlgError, not FloatingPointError, whatever the caller's
        # floating-point settings.
        with np.errstate(all="raise"), pytest.raises(np.linalg.LinAlgError):
            _lu_solve(a, b)

    def test_solve_keeps_the_floating_point_settings(self):
        before = np.geterr()
        a, b, _ = kkt_system(np.random.default_rng(3), 1, 5, 1)
        _lu_solve(a, b)
        assert np.geterr() == before
        with pytest.raises(np.linalg.LinAlgError):
            _lu_solve(np.ones((3, 3)), np.ones(3))
        assert np.geterr() == before

    @pytest.mark.parametrize("r", range(2, 9))
    def test_stacks_match_numpy_bitwise(self, r):
        rng = np.random.default_rng(20 + r)
        table = random_subspace(rng, 2 * r, r).compression_table
        for k in (1, 2, 500):
            # Compressions as the sites pass them: not symmetrized.
            m = _compressions(table, rng.standard_normal((k, 2 * r)))
            w, v = _eigh(m)
            expected_w, expected_v = np.linalg.eigh(m)
            assert_bitwise(w, expected_w)
            assert_bitwise(v, expected_v)
            assert_bitwise(_eigvalsh(m), np.linalg.eigvalsh(m))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matrices_match_numpy_bitwise(self, n):
        a = require_hermitian(random_hermitian(np.random.default_rng(40 + n), n))
        w, v = _eigh(a)
        expected_w, expected_v = np.linalg.eigh(a)
        assert_bitwise(w, expected_w)
        assert_bitwise(v, expected_v)
        assert_bitwise(_eigvalsh(a), np.linalg.eigvalsh(a))

    @pytest.mark.parametrize("call", [
        lambda table, a: compressed_top_eigh(table, np.eye(3)),
        lambda table, a: compressed_top_eigvalsh(table, np.eye(3)),
        lambda table, a: hermitian_eig(a),
        lambda table, a: validate_density(a),
    ], ids=["compressed_top_eigh", "compressed_top_eigvalsh", "hermitian_eig", "validate_density"])
    def test_failed_solve_raises(self, call, monkeypatch):
        # A LAPACK solve that does not converge fills its output with NaN.
        class Failing:
            @staticmethod
            def eigh_lo(m, signature):
                w, v = np.linalg.eigh(m)
                return np.full_like(w, np.nan), np.full_like(v, np.nan)

            @staticmethod
            def eigvalsh_lo(m, signature):
                return np.full_like(np.linalg.eigvalsh(m), np.nan)

        table = Subspace(orthonormalize(SPAN_V)).compression_table
        state = np.eye(3) / 3
        monkeypatch.setattr(momentkit.linalg, "_umath_linalg", Failing)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            call(table, state)


def loop_fix_phases(vectors):
    """Row-by-row reference for the phase convention."""
    out = vectors.copy()
    for i, row in enumerate(out):
        idx = np.flatnonzero(np.abs(row) > 1e-9)
        pivot = row[idx[0]]
        out[i] = row * (np.conj(pivot) / np.abs(pivot))
    return out


class TestCompressedEigh:
    def test_fix_phases_matches_loop(self):
        rng = np.random.default_rng(11)
        stack = [random_hermitian(rng, 5) for _ in range(20)]
        # Leading zero components move the pivot off the first entry.
        stack += [np.diag(rng.standard_normal(5)).astype(complex) for _ in range(5)]
        # Components below the 1e-9 threshold do not qualify as the pivot.
        stack += [np.diag([0.0, 1, 2, 3, 4]) + 1e-12 * random_hermitian(rng, 5) for _ in range(5)]
        _, vectors = np.linalg.eigh(np.array(stack))
        rows = vectors.swapaxes(-1, -2).reshape(-1, 5)
        expected = loop_fix_phases(rows)
        assert_bitwise(_fix_phases(rows), expected)
        for i in range(0, len(rows), 7):
            assert_bitwise(_fix_phases(rows[i:i + 1]), expected[i:i + 1])
            assert_bitwise(_fix_phase(rows[i]), expected[i])

    @pytest.mark.parametrize("r", range(2, 7))
    def test_one_row_phase_fix_is_the_stacked_one_bitwise(self, r):
        # The one-direction phase fix forms the phase in Python scalars; its
        # bytes must be those of the stacked gather and of the row loop, signed
        # zeros included (a phase of exactly +1 or -1 leaves zero imaginary
        # parts whose sign the division decides).
        rng = np.random.default_rng(30 + r)
        unit = rng.standard_normal((40, r)) + 1j * rng.standard_normal((40, r))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        families = [unit]
        for pivot in (1.0, -1.0, 1j, -1j):
            # Real pivots (phase exactly +1 or -1) and purely imaginary ones.
            rows = unit.copy()
            rows[:, 0] = pivot * abs(rows[:, 0])
            families.append(rows)
        # Real rows, with real and imaginary zero parts of both signs.
        families += [unit.real + 0j, np.conj(unit.real + 0j), -unit.real + 0j, 1j * unit.imag]
        # Exact-zero leading entries move the pivot; -0.0 counts as zero too.
        for k in range(1, r):
            rows = unit.copy()
            rows[:, :k] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)][k % 4]
            families.append(rows)
        # Leading entries just below, at and just above the pivot threshold.
        for size in (np.nextafter(_PHASE_TOL, 0), _PHASE_TOL, np.nextafter(_PHASE_TOL, 1)):
            for pivot in (size, -size, 1j * size, -1j * size):
                rows = unit.copy()
                rows[:, 0] = pivot
                families.append(rows)
        # Top eigenvectors of real-symmetric compressions, as eigh gives them.
        real = rng.standard_normal((40, r, r))
        families.append(np.linalg.eigh((real + real.swapaxes(1, 2)).astype(complex))[1][:, :, -1])
        for rows in families:
            stacked = _fix_phases(rows)
            assert_bitwise(stacked, loop_fix_phases(rows))
            for i in range(len(rows)):
                assert_bitwise(_fix_phase(rows[i]), stacked[i])

    def test_stack_matches_rows_bitwise(self):
        rng = np.random.default_rng(12)
        for n, r in [(4, 2), (8, 3), (16, 5), (5, 5), (3, 1), (32, 4), (12, 6), (1, 1)]:
            # A real span gives real-symmetric compressions, whose top
            # eigenvectors have exactly zero imaginary parts; directions
            # in {-1, 0, 1} give ties and zero compressions.
            for s in (random_subspace(rng, n, r), subspace_from_spanning(rng.standard_normal((r, n)))):
                table = s.compression_table
                dirs = np.vstack([rng.standard_normal((40, n)), rng.integers(-1, 2, (10, n))])
                for solve in PRIMITIVES:
                    stacked = solve(table, dirs)
                    assert [a.shape for a in stacked] == [(50,), (50, r)][:len(stacked)]
                    for i, c in enumerate(dirs):
                        for rows, alone in zip(stacked, solve(table, c[None])):
                            assert_bitwise(rows[i], alone[0])
                assert_one_direction_is_its_row(table, dirs)
                # Integer directions are cast to float64 on both paths.
                assert_one_direction_is_its_row(table, rng.integers(-3, 4, (10, n)))

    def test_table_stack_matches_separate_calls_bitwise(self):
        # One table per direction, as the paired oracle of two equal-rank
        # sides calls it: each row is bitwise the row of its own call.
        rng = np.random.default_rng(15)
        for n, r in [(5, 2), (8, 3), (12, 4), (1, 1)]:
            tables = np.stack([random_subspace(rng, n, r).compression_table for _ in range(3)])
            dirs = rng.standard_normal((3, n))
            for solve in PRIMITIVES:
                stacked = solve(tables, dirs)
                for i, (table, c) in enumerate(zip(tables, dirs)):
                    for rows, alone in zip(stacked, solve(table, c[None])):
                        assert_bitwise(rows[i], alone[0])
        for solve in PRIMITIVES:
            with pytest.raises(ValueError, match="finite real rows"):
                solve(tables, dirs[:2])

    def test_matches_hermitian_eig_of_explicit_compression(self):
        rng = np.random.default_rng(13)
        for n, r in [(7, 3), (5, 5), (16, 4), (4, 1)]:
            s = random_subspace(rng, n, r)
            for c in rng.standard_normal((10, n)):
                dec = hermitian_eig(s.basis.conj().T @ (c[:, None] * s.basis))
                values, vectors = compressed_top_eigh(s.compression_table, c[None])
                assert abs(values[0] - dec.eigenvalues[-1]) <= 1e-14
                assert np.max(np.abs(vectors[0] - dec.eigenvectors[:, -1])) <= 1e-14

    def test_values_match_eigh(self):
        # The value-only solve agrees with the eigenpair solve to roundoff
        # on unit directions.
        rng = np.random.default_rng(16)
        for n, r in [(4, 1), (4, 2), (8, 3), (16, 3), (16, 5), (32, 4), (6, 6)]:
            table = random_subspace(rng, n, r).compression_table
            dirs = rng.standard_normal((200, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            values = compressed_top_eigvalsh(table, dirs)
            assert np.max(np.abs(values - compressed_top_eigh(table, dirs)[0])) <= 1e-14

    def test_bottom_eigenvalue_through_negated_direction(self):
        rng = np.random.default_rng(14)
        for n, r in [(6, 2), (9, 4), (3, 3)]:
            s = random_subspace(rng, n, r)
            dirs = rng.standard_normal((10, n))
            bottom, vectors = compressed_top_eigh(s.compression_table, -dirs)
            for c, value, u in zip(dirs, bottom, vectors):
                m = s.basis.conj().T @ (c[:, None] * s.basis)
                assert -value == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-14)
                assert np.linalg.norm(m @ u + value * u) <= 1e-13

    @pytest.mark.parametrize(
        "dirs", [np.ones(3), np.ones((2, 4)), [[1.0, np.nan, 0.0]], [[np.inf, 0.0, 0.0]],
                 [[1.0, 0.0, 0.0], [1.0, 0.0]]]
    )
    def test_rejects_bad_directions(self, dirs):
        table = random_subspace(np.random.default_rng(0), 3, 2).compression_table
        for solve in PRIMITIVES:
            with pytest.raises(ValueError, match="finite real rows"):
                solve(table, dirs)

    @pytest.mark.parametrize("c", [
        np.array([True, False, False]), np.array([1.0, 0.0, 0.0], dtype=complex),
        np.array(["1", "0", "0"]), np.array([1.0, np.nan, 0.0]), np.array([np.nan, np.inf, 0.0]),
        np.array([0.0, 0.0, np.inf]), np.array([-np.inf, 1.0, np.nan]), np.ones(2), np.ones(4),
        np.ones((2, 3)), np.ones((1, 3)), np.float64(1.0),
    ], ids=["bool", "complex", "str", "nan", "nan-first", "inf", "-inf", "short", "long",
            "stack", "stack-of-one", "scalar"])
    def test_one_direction_rejects_bad_directions(self, c):
        # The one-direction path takes an (n,) array; its checks, in
        # Python scalars, give the stacked path's message and no warning.
        table = random_subspace(np.random.default_rng(0), 3, 2).compression_table
        with pytest.raises(ValueError, match="directions must be finite real rows of dimension 3"):
            _compressed_top_eigh1(table, c)

    def test_rejects_overflowing_compression(self):
        # The compression of a direction near the float limit stays finite:
        # 1e308 times the support at (1, 1, 0).
        table = Subspace(orthonormalize(SPAN_V)).compression_table
        # A basis column 1e-11 above unit norm (within the orthonormality
        # tolerance) takes the largest float past the limit: rejected, with
        # no floating-point warning on the way.
        past = Subspace(np.array([[1.0 + 1e-11]])).compression_table
        for solve in PRIMITIVES:
            values = solve(table, [[1e308, 1e308, 0.0]])[0]
            assert values[0] == 9.999999999999998e307
            assert values[0] == pytest.approx(1e308 * solve(table, [[1, 1, 0]])[0][0], rel=1e-15)
            with pytest.raises(ValueError, match="overflows"):
                solve(past, [[np.finfo(np.float64).max]])
        huge = np.array([[1e308, 1e308, 0.0], [-1e308, 0.0, 1.7e308], [0.0, 0.0, -1.7e308]])
        assert_one_direction_is_its_row(table, huge)
        assert _compressed_top_eigh1(table, huge[0])[0] == 9.999999999999998e307
        with pytest.raises(ValueError, match="overflows"):
            _compressed_top_eigh1(past, np.array([np.finfo(np.float64).max]))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_rank_one_closed_form_is_lapack_bitwise(self, n):
        # For r = 1 neither primitive calls LAPACK.  Its n = 1 path returns
        # the real part of the entry and the vector 1 (W(1) = DBLE(A(1,1)),
        # Z = CONE); the closed form must give the same bits as eigh and
        # eigvalsh of the same 1 x 1 compressions, down to the sign of the
        # vector's zero imaginary part.
        rng = np.random.default_rng(17)
        table = random_subspace(rng, n, 1).compression_table
        base = rng.standard_normal((200, n))
        stacks = [base, abs(base), -abs(base), np.zeros((200, n)), np.full((200, n), -0.0),
                  base * 1e307 / abs(base).max(), base * 1e-310, abs(base) * 5e-324]
        for dirs in stacks:
            m = _compressions(table, dirs)
            w, v = np.linalg.eigh(m)
            values, vectors = compressed_top_eigh(table, dirs)
            assert_bitwise(values, w[:, -1])
            assert_bitwise(vectors, v[:, :, -1])
            assert_bitwise(vectors, _fix_phases(v[:, :, -1]))
            assert_bitwise(compressed_top_eigvalsh(table, dirs), np.linalg.eigvalsh(m)[:, -1])
            assert_one_direction_is_its_row(table, dirs)
            for c in dirs[::40]:
                w, v = np.linalg.eigh(_compressions(table, c[None]))
                values, vectors = compressed_top_eigh(table, c[None])
                assert_bitwise(values, w[:, -1])
                assert_bitwise(vectors, v[:, :, -1])
                assert_bitwise(compressed_top_eigvalsh(table, c[None]), w[:, -1])


@pytest.mark.parametrize("direction", [
    [1 + 5j, 0.0, 0.0],
    np.array([1.0, 0.0, 0.0], dtype=complex),
    ["1", "0", "0"],
    [True, False, False],
])
@pytest.mark.parametrize("call", [
    lambda v, w, c: support_moment(v, c),
    lambda v, w, c: jnr_support(v, c),
    lambda v, w, c: jnr_boundary(v, [c]),
    lambda v, w, c: hausdorff_moments(v, w, [c]),
    lambda v, w, c: separation_margin(v, w, c),
    lambda v, w, c: compressed_top_eigh(v.compression_table, [c]),
    lambda v, w, c: compressed_top_eigvalsh(v.compression_table, [c]),
], ids=["support_moment", "jnr_support", "jnr_boundary", "hausdorff_moments",
        "separation_margin", "compressed_top_eigh", "compressed_top_eigvalsh"])
def test_complex_directions_rejected(example_v, example_w, call, direction):
    # A complex direction is rejected, also with a zero imaginary part; it
    # was cast to its real part, so (1 + 5j, 0, 0) read as (1, 0, 0).  So
    # are strings and booleans, which were cast to the numbers they spell.
    with pytest.raises(ValueError, match="directions must be finite real rows of dimension 3"):
        call(example_v, example_w, direction)


#: span{e_1, e_2} of C^3, the unit vector e_1 in it, and a state on it.
PLANE = [(1, 0, 0), (0, 1, 0)]
E1 = [1, 0, 0]
STATE = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
#: A minimal 2 x 2 matrix, the identity, and a zero 2 x 2 matrix.
SWAP = [[0, 1], [1, 0]]
EYE = [[1, 0], [0, 1]]
ZERO = [[0, 0], [0, 0]]


def _parts(r):
    v, w = (subspace_from_spanning([x]) for x in (CONJUGATE_X, CONJUGATE_XBAR))
    return MinimalMatrixParts(lam=1.0, v=v, w=w, r=r)


#: (call on the plane and an argument, a valid argument of 0s and 1s, and
#: whether its entries must be real).
NUMBER_ENTRY_POINTS = {
    "project_onto_moment": (lambda s, x: project_onto_moment(s, x), E1, True),
    "cone_membership": (lambda s, x: cone_membership(s, x), E1, True),
    "moment_of_vector": (lambda s, x: moment_of_vector(s, x), E1, False),
    "dominating_t": (lambda s, x: dominating_t(s, 0, 1, x), E1, False),
    "membership_residual": (lambda s, x: s.membership_residual(x), E1, False),
    "orthonormalize": (lambda s, x: orthonormalize([x]), E1, False),
    "subspace_from_spanning": (lambda s, x: subspace_from_spanning([x]), E1, False),
    "as_complex_matrix": (lambda s, x: as_complex_matrix(x), SWAP, False),
    "require_hermitian": (lambda s, x: require_hermitian(x), SWAP, False),
    "hermitian_eig": (lambda s, x: hermitian_eig(x), SWAP, False),
    "spectral_norm": (lambda s, x: spectral_norm(x), SWAP, False),
    "check_minimal": (lambda s, x: check_minimal(x), SWAP, False),
    "require_orthonormal": (lambda s, x: require_orthonormal(x), EYE, False),
    "projector": (lambda s, x: projector(x), EYE, False),
    "Subspace": (lambda s, x: Subspace(x), EYE, False),
    "validate_density": (lambda s, x: validate_density(x), STATE, False),
    "delta_map": (lambda s, x: delta_map(s, x), STATE, False),
    "construct_minimal": (lambda s, x: construct_minimal(_parts(x)), ZERO, False),
}
#: Each form of a valid argument that is no (real) number.
FORMS = {
    "string": lambda a: np.array(a).astype(str).tolist(),
    "boolean": lambda a: np.array(a, dtype=bool).tolist(),
    "object": lambda a: np.array(a, dtype=object),
    "complex": lambda a: np.array(a, dtype=complex),
}


@pytest.mark.parametrize("name, form", [
    (name, form) for name, (_, _, real) in NUMBER_ENTRY_POINTS.items()
    for form in FORMS if real or form != "complex"
])
def test_non_numbers_rejected(name, form):
    # Each argument was cast by np.asarray(x, dtype=...): "1" and True read
    # as 1, and a complex point as its real part, so every call answered.
    call, valid, real = NUMBER_ENTRY_POINTS[name]
    plane = subspace_from_spanning(PLANE)
    call(plane, valid)
    with pytest.raises(ValueError, match="must have real entries" if real else "must be numbers"):
        call(plane, FORMS[form](valid))


@pytest.mark.parametrize("call", [
    lambda s: fibonacci_directions(4, 2.5),
    lambda s: fibonacci_directions(1, 2.5),
    lambda s: fibonacci_directions(3, True),
    lambda s: fibonacci_directions(2.0, 3),
    lambda s: fibonacci_directions(True, 3),
    lambda s: sample_moment(s, 2.5, 0),
    lambda s: sample_moment(s, "3", 0),
    lambda s: sample_moment(s, True, 0),
    lambda s: sample_moment(s, 3, 1.5),
    lambda s: sample_moment(s, 3, "0"),
    lambda s: moments_intersect(s, s, max_iter=0.5),
    lambda s: project_onto_moment(s, E1, max_iter=True),
    lambda s: check_minimal(SWAP, max_iter=2.5),
], ids=["fibonacci-count-float", "fibonacci-line-count-float", "fibonacci-count-bool",
        "fibonacci-n-float", "fibonacci-n-bool", "sample-count-float", "sample-count-str",
        "sample-count-bool", "sample-seed-float", "sample-seed-str", "intersect-max_iter-float",
        "project-max_iter-bool", "minimal-max_iter-float"])
def test_non_integers_rejected(call):
    # A count, dimension, seed or iteration limit is an integer, not a
    # boolean: int(0.5) ran 0 steps, True 1, and count=2.5 gave 3 rows.
    with pytest.raises(ValueError, match="must be an integer"):
        call(subspace_from_spanning(PLANE))


def test_numpy_integers_accepted():
    s = subspace_from_spanning(PLANE)
    assert fibonacci_directions(np.int64(3), np.uint8(4)).shape == (4, 3)
    assert sample_moment(s, np.int32(2), np.int64(7)).shape == (2, 3)
    assert project_onto_moment(s, E1, max_iter=np.int64(3)).iterations <= 3


#: Every public scalar parameter that is a real number or an integer: (its
#: name, a call on the plane and an argument, a valid argument).
SCALAR_PARAMETERS = {
    "intersect-tol": ("tol", lambda s, x: moments_intersect(s, s, tol=x), 1e-7),
    "project-tol": ("tol", lambda s, x: project_onto_moment(s, E1, tol=x), 1e-7),
    "eig_tol": ("eig_tol", lambda s, x: check_minimal(SWAP, eig_tol=x), 1e-8),
    "feas_tol": ("feas_tol", lambda s, x: check_minimal(SWAP, feas_tol=x), 1e-7),
    "lam": ("lam", lambda s, x: construct_minimal(dataclasses.replace(_parts(ZERO), lam=x)), 1.0),
    "t": ("t", lambda s, x: curve_point(curve_frame(s, 0, 1), x), 0.3),
    "j": ("j", lambda s, x: principal_vector(s, x), 1),
    "k": ("k", lambda s, x: curve_frame(s, 0, x), 1),
    "dominating-k": ("k", lambda s, x: dominating_t(s, 0, x, E1), 1),
    "n": ("n", lambda s, x: whole_space(x), 2),
}
#: Each form of a scalar that is no real number.
SCALAR_FORMS = {"bool": True, "numpy-bool": np.True_, "string": "1e-7", "complex": 1e-7 + 0j,
                "list": [1e-7], "none": None}


@pytest.mark.parametrize("case, form", [
    (case, form) for case in SCALAR_PARAMETERS for form in SCALAR_FORMS
])
def test_non_scalars_rejected(case, form):
    # Each was read by comparison alone: a real parameter took True as 1
    # (tol=True answered INTERSECT, curve_point returned t=True), and the
    # other forms raised TypeError or IndexError from Python or numpy.
    name, call, valid = SCALAR_PARAMETERS[case]
    plane = subspace_from_spanning(PLANE)
    call(plane, valid)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(plane, SCALAR_FORMS[form])


def test_boolean_tol_no_longer_intersects():
    # Lines apart by 45 degrees: tol=True ran with tol = 1 and answered
    # INTERSECT, where the default tol answers DISJOINT.
    v, w = subspace_from_spanning([(1, 0, 0)]), subspace_from_spanning([(1, 1, 0)])
    assert moments_intersect(v, w).status is IntersectionStatus.DISJOINT
    with pytest.raises(ValueError, match="^tol must be a real number"):
        moments_intersect(v, w, tol=True)


@pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan])
def test_non_finite_lam_rejected_before_solving(lam, monkeypatch):
    # lam = inf ran the whole intersection solve, warned, and only then
    # failed on "matrix has non-finite entries".
    monkeypatch.setattr(momentkit.minimality, "moments_intersect", None)
    with pytest.raises(ValueError, match="^lam must be finite"):
        construct_minimal(dataclasses.replace(_parts(ZERO), lam=lam))


@pytest.mark.parametrize("t", [np.inf, np.nan, 10**400], ids=["inf", "nan", "huge-int"])
def test_non_finite_t_rejected(t):
    frame = curve_frame(subspace_from_spanning(PLANE), 0, 1)
    with pytest.raises(ValueError, match="^t must be finite"):
        curve_point(frame, t)


def test_numpy_scalars_accepted():
    plane = subspace_from_spanning(PLANE)
    sample = curve_point(curve_frame(plane, np.int8(0), np.uint16(1)), np.float32(0.5))
    assert type(sample.t) is float and sample.t == float(np.float32(0.5))
    assert principal_vector(plane, np.int64(1)).index == 1
    assert whole_space(np.int32(2)).n == 2
    assert check_minimal(SWAP, eig_tol=np.float64(1e-8), feas_tol=0).verdict.value == "MINIMAL"
    with pytest.raises(IndexError, match="out of range for ambient dimension 3"):
        principal_vector(plane, np.int64(3))


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

    @pytest.mark.parametrize("vectors, match", [
        ([], "no vectors"),
        ([(1, 0), (1, 0, 0)], "inconsistent dimensions"),
        ([(1, 0), (np.inf, 0)], "non-finite"),
    ], ids=["empty", "ragged", "non-finite"])
    def test_rejects_malformed_input(self, vectors, match):
        with pytest.raises(ValueError, match=match):
            orthonormalize(vectors)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_span_of_any_finite_scale(self, scale):
        # The norms of the raw vectors overflowed or underflowed, which
        # dropped every column ("empty basis").
        for span, unit in [(SPAN_V, P_V_REFERENCE), ([(1, 1)], np.full((2, 2), 0.5)),
                           ([(1, 3), (1, 0)], np.eye(2))]:
            p = projector(orthonormalize(np.multiply(scale, span)))
            assert np.max(np.abs(p - unit)) < 1e-15
        # A power of two changes no bit of the basis.
        exact = 2.0 ** round(np.log2(scale))
        assert np.array_equal(orthonormalize(np.multiply(exact, SPAN_V)), orthonormalize(SPAN_V))

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
        assert spectral_norm(np.zeros((0, 0))) == 0.0

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

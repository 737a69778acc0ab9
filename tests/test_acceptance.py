"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""
import io
import json
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from momentkit import (
    IntersectionStatus,
    Verdict,
    centroid,
    check_minimal,
    curve_frame,
    curve_point,
    delta_map,
    ellipse_projection,
    hausdorff_moments,
    moments_intersect,
    principal_vector,
    project_onto_moment,
    subspace_from_spanning,
    whole_space,
)
from momentkit.cli import main as cli_main
from momentkit.directions import fibonacci_directions
from momentkit.moment import sample_moment, sample_unit_vectors
from momentkit.subspace import orthogonal_complement

from conftest import (
    CONJUGATE_X,
    CONJUGATE_XBAR,
    P_V_REFERENCE,
    SPAN_V,
    SPAN_W,
    random_density,
    random_generic_subspace,
    random_hermitian,
    random_subspace,
)
from paper_claims import assert_coordinate_bound, brute_force_diag_distance
from paper_claims import hausdorff_contraction_bound
from paper_claims import centroid_residual, difference, exposing_direction, overlap_residual, span
from test_minimality import conjugate_pair_subspaces


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def test_criterion_1_example_replication():
    with criterion(1, "reference example replication"):
        v = subspace_from_spanning(SPAN_V)
        assert np.max(np.abs(v.projector - P_V_REFERENCE)) <= 1e-12
        w = subspace_from_spanning(SPAN_W)
        result = hausdorff_moments(v, w, fibonacci_directions(3, 500))
        assert result.estimate <= 1e-6


def test_criterion_2_hyperplane_identity():
    with criterion(2, "hyperplane slice identity"):
        rng = np.random.default_rng(202)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            s = random_subspace(rng, n, r)
            on_slice = 0
            for k in range(100):
                rho = random_density(n, rng)
                if k % 2 == 0:
                    # Compress onto the subspace: these states land on the slice.
                    compressed = s.projector @ rho @ s.projector
                    rho = compressed / np.real(np.trace(compressed))
                point = delta_map(s, rho)
                if abs(point.x.sum() - 1.0) <= 1e-9:
                    on_slice += 1
                    assert project_onto_moment(s, point.x).distance <= 1e-6
            assert on_slice >= 50
            # Conversely, each sampled moment point is the image of its own
            # rank-one state.
            for x in sample_unit_vectors(s, 5, seed=7):
                stated = delta_map(s, np.outer(x, np.conj(x)))
                assert np.max(np.abs(stated.x - np.abs(x) ** 2)) <= 1e-12


def test_criterion_3_cone_equality():
    with criterion(3, "cone equality"):
        rng = np.random.default_rng(303)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 7))
            s = random_subspace(rng, n, int(rng.integers(1, n)))
            for _ in range(125):
                point = delta_map(s, random_density(n, rng)).x
                total = point.sum()
                if total <= 1e-12:
                    continue
                assert project_onto_moment(s, point / total).distance <= 1e-6
                checked += 1
        assert checked >= 1000


def _curve_pairs(s):
    """First independent pair of principal-vector coordinates, preferring a
    non-orthogonal one (needed by the extremality check)."""
    from momentkit.moment import DegenerateCurve

    fallback = None
    for j in range(s.n):
        for k in range(s.n):
            if j == k:
                continue
            try:
                frame = curve_frame(s, j, k)
            except (DegenerateCurve, ValueError):
                continue
            if abs(frame.vj.v[k]) > 1e-6:
                return j, k, frame, True
            if fallback is None:
                fallback = (j, k, frame, False)
    if fallback is None:
        raise AssertionError("no usable curve pair")
    return fallback


def test_criterion_4_curve_suite():
    with criterion(4, "curve suite"):
        rng = np.random.default_rng(404)
        subspaces = [subspace_from_spanning(SPAN_V)]
        while len(subspaces) < 11:
            n = int(rng.integers(3, 7))
            r = int(rng.integers(2, n))
            subspaces.append(random_generic_subspace(rng, n, r))
        for s in subspaces:
            j, k, frame, non_orthogonal = _curve_pairs(s)
            vj = principal_vector(s, j)
            vk = principal_vector(s, k)
            # Endpoint identities.
            start = curve_point(frame, 0.0)
            assert np.linalg.norm(start.v - vj.v) <= 1e-10
            end = curve_point(frame, frame.t_end)
            assert np.linalg.norm(end.v - frame.phase * vk.v) <= 1e-10
            # Ellipse identity on a 64-point grid.
            ell = ellipse_projection(frame)
            for t in np.linspace(0.0, np.pi / 2, 64):
                sample = curve_point(frame, float(t))
                expected = np.cos(t) * ell.a + np.sin(t) * ell.b
                observed = np.array([abs(sample.v[j]), abs(sample.v[k])])
                assert np.max(np.abs(observed - expected)) <= 1e-10
            # Overlap reparametrization on 33 values.
            for t in np.linspace(0.0, frame.t_end, 33):
                assert overlap_residual(s, j, k, float(t)) <= 1e-10
            # Extremality against a sampled hull.
            if non_orthogonal:
                pts = sample_moment(s, 10_000, seed=17)
                for t in np.linspace(0.0, np.pi / 2, 33)[:-1]:
                    c = exposing_direction(s, frame, float(t))
                    sample = curve_point(frame, float(t))
                    assert float(c @ sample.m) >= float(np.max(pts @ c)) - 1e-6


def test_criterion_5_centroid_algebra():
    with criterion(5, "centroid algebra"):
        rng = np.random.default_rng(505)
        for n in range(2, 7):
            exact = centroid(whole_space(n))
            assert np.array_equal(exact, np.full(n, 1.0 / n))
        from momentkit.linalg import orthonormalize

        for _ in range(10):
            n = int(rng.integers(3, 8))
            # Orthogonal pair from a random orthonormal frame.
            frame = orthonormalize(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ).T
            r = int(rng.integers(1, n - 1))
            k = int(rng.integers(1, n - r))
            s = subspace_from_spanning(frame[:r])
            v = subspace_from_spanning(frame[r : r + k])
            assert centroid_residual(span(s, v), plus=[s, v]) <= 1e-10
            complement = orthogonal_complement(s)
            assert centroid_residual(complement, plus=[whole_space(n)], minus=[s]) <= 1e-10
            # Nested pair: sub-span of s's basis combinations.
            if s.r >= 2:
                mix = rng.standard_normal((s.r - 1, s.r)) + 1j * rng.standard_normal(
                    (s.r - 1, s.r)
                )
                nested = subspace_from_spanning((s.basis @ mix.T).T)
                assert centroid_residual(difference(s, nested), plus=[s], minus=[nested]) <= 1e-10
            # Shared-part family: common line plus orthogonal extensions.
            if n >= 3:
                d_vec, a_vec, b_vec = frame[0], frame[1], frame[2]
                sp = subspace_from_spanning([d_vec, a_vec])
                vp = subspace_from_spanning([d_vec, b_vec])
                shared = subspace_from_spanning([d_vec])
                assert centroid_residual(span(sp, vp), plus=[sp, vp], minus=[shared]) <= 1e-10
            # Coordinate bound of the centroid.
            c = centroid(s)
            assert np.all(c <= 1.0 / s.r + 1e-12)


def test_criterion_6_minimality_equivalence():
    with criterion(6, "minimality equivalence"):
        pauli_y = np.array([[0, -1j], [1j, 0]])
        battery = [pauli_y, np.diag([1.0, -1.0])]
        rng = np.random.default_rng(606)
        while len(battery) < 22:
            n = int(rng.integers(2, 4))
            a = random_hermitian(rng, n)
            battery.append(a)
            w = np.linalg.eigvalsh(a)
            battery.append(a - 0.5 * (w[0] + w[-1]) * np.eye(n))
        assert brute_force_diag_distance(pauli_y) == pytest.approx(1.0, abs=5e-3)
        assert brute_force_diag_distance(np.diag([1.0, -1.0])) == pytest.approx(0.0, abs=5e-3)
        for m in battery:
            report = check_minimal(m)
            assert report.verdict is not Verdict.INDETERMINATE
            distance = brute_force_diag_distance(m)
            assert (report.verdict is Verdict.MINIMAL) == (distance >= report.norm - 5e-3)


def test_criterion_7_support_coordinate_bound():
    with criterion(7, "support-pair coordinate bound"):
        rng = np.random.default_rng(707)
        certificates = []
        # The tight case: conjugate lines meeting exactly at (1/2, 1/2).
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        tight = moments_intersect(v, w)
        assert tight.status is IntersectionStatus.INTERSECT
        assert np.max(tight.common) == pytest.approx(0.5, abs=1e-12)
        certificates.append(tight)
        # Constructed conjugate pairs across dimensions.
        for _ in range(8):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, max(2, n // 2 + 1)))
            pair = conjugate_pair_subspaces(rng, n, min(r, n // 2) or 1)
            certificates.append(moments_intersect(*pair))
        # Pairs found by search among random orthogonal subspaces.
        found = 0
        for _ in range(40):
            n = int(rng.integers(3, 7))
            a = random_subspace(rng, n, int(rng.integers(1, n - 1)))
            comp = orthogonal_complement(a)
            mix = rng.standard_normal((comp.r, comp.r)) + 1j * rng.standard_normal(
                (comp.r, comp.r)
            )
            b = subspace_from_spanning((comp.basis @ mix).T[: max(1, comp.r - 1)])
            cert = moments_intersect(a, b)
            if cert.status is IntersectionStatus.INTERSECT:
                certificates.append(cert)
                found += 1
        assert len(certificates) >= 9
        for cert in certificates:
            if cert.status is not IntersectionStatus.INTERSECT:
                continue
            assert_coordinate_bound(cert)


def test_criterion_8_hausdorff_bound():
    with criterion(8, "Hausdorff contraction bound"):
        rng = np.random.default_rng(808)
        done = 0
        while done < 20:
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            base = random_subspace(rng, n, r)
            eps = 10.0 ** rng.uniform(-5, -3)
            bump = eps * (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
            perturbed = subspace_from_spanning((base.basis + bump).T)
            bound = hausdorff_contraction_bound(base, perturbed)
            if bound is None:
                continue
            result = hausdorff_moments(base, perturbed, fibonacci_directions(n, 200))
            assert result.estimate <= bound + 1e-9
            done += 1
        # Non-reciprocal example: equal moments, distant projectors.
        v = subspace_from_spanning([CONJUGATE_X])
        w = subspace_from_spanning([CONJUGATE_XBAR])
        result = hausdorff_moments(v, w, fibonacci_directions(2, 128))
        assert result.estimate <= 1e-12
        assert result.frobenius_distance == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI determinism"):
        sub_path = tmp_path / "V.json"
        sub_path.write_text(
            json.dumps(
                {
                    "n": 3,
                    "vectors": [
                        [[1, 0], [1, 0], [0, 0]],
                        [[0, 0], [1, 0], [1, 0]],
                    ],
                }
            )
        )
        runs = []
        for tag in ("first", "second"):
            base = tmp_path / tag
            base.mkdir()
            sample = base / "pts.csv"
            curve = base / "curve.csv"
            boundary = base / "boundary.csv"
            cert = base / "cert.json"
            with redirect_stdout(io.StringIO()):
                assert cli_main([
                    "moment-sample", "--subspace", str(sub_path),
                    "--count", "200", "--seed", "11", "--out", str(sample),
                ]) == 0
                assert cli_main([
                    "curve", "--subspace", str(sub_path),
                    "-j", "1", "-k", "2", "--steps", "48", "--out", str(curve),
                ]) == 0
                assert cli_main([
                    "jnr-boundary", "--subspace", str(sub_path),
                    "--directions", "fibonacci:64", "--out", str(boundary),
                ]) == 0
                assert cli_main([
                    "intersect", "--subspace-v", str(sub_path),
                    "--subspace-w", str(sub_path), "--out", str(cert),
                ]) == 0
            runs.append(
                (
                    sample.read_bytes(),
                    curve.read_bytes(),
                    (base / "curve.csv.ellipse.json").read_bytes(),
                    boundary.read_bytes(),
                    cert.read_bytes(),
                )
            )
        assert runs[0] == runs[1]

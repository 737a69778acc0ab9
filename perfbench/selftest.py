"""Self-test of the answer checkers: each accepts a correct answer built here
with numpy alone and rejects the same answer corrupted.

Run directly with ``python3 perfbench/selftest.py``; the benchmark also runs
it before every measurement.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.WrongAnswer:
        return True
    return False


def _pure(q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The pure state of the unit vector q z / |z|."""
    x = q @ (z / np.linalg.norm(z))
    return np.outer(x, x.conj())


def cases():
    """(checker name, correct call, corrupted call) triples."""
    rng = np.random.default_rng(7)
    n, r = 6, 2
    out = []

    # INTERSECT: a pure state on V and its diagonal-unitary image on W.
    v, w = inputs.intersecting_pair(rng, n, r)
    qv, qw = checks.basis(v), checks.basis(w)
    y = np.outer(v[0], v[0].conj())
    x = np.outer(w[0], w[0].conj())
    bad = y.copy()
    bad[0, 0] += 1e-6
    out.append(("intersect", (checks.check_intersect, y, x, qv, qw, 1e-7),
                (checks.check_intersect, bad, x, qv, qw, 1e-7)))

    # DISJOINT: the coordinate-half direction, margin computed here.
    v, w = inputs.disjoint_pair(rng, n, r)
    qv, qw = checks.basis(v), checks.basis(w)
    u = np.r_[-np.ones(n // 2), np.ones(n - n // 2)] / np.sqrt(n)
    margin = checks.bottom_value(qw, u) - float(checks.top_values(qv, u)[0])
    out.append(("disjoint", (checks.check_disjoint, u, margin, qv, qw),
                (checks.check_disjoint, -u, margin, qv, qw)))

    # MINIMAL: a conjugate pair has equal moment sets, so the maximally mixed
    # states of the two extreme eigenspaces share their diagonal.
    m = inputs.minimal_matrix(rng, n, r)
    norm, _, q_pos, q_neg = checks.extreme_spaces(m)
    cert = {"status": "INTERSECT", "witness_y": q_pos @ q_pos.conj().T / r,
            "witness_x": q_neg @ q_neg.conj().T / r}
    out.append(("minimal", (checks.check_minimality, m, "MINIMAL", norm, cert, 1e-7),
                (checks.check_minimality, m, "MINIMAL", norm,
                 dict(cert, witness_x=_pure(q_neg, np.arange(1.0, r + 1))), 1e-7)))

    # NOT_MINIMAL: the separating direction of the two extreme eigenvectors.
    h = inputs.not_minimal_matrix(rng, n)
    norm, _, q_pos, q_neg = checks.extreme_spaces(h)
    diff = np.abs(q_neg[:, 0]) ** 2 - np.abs(q_pos[:, 0]) ** 2
    u = diff / np.linalg.norm(diff)
    margin = checks.bottom_value(q_neg, u) - float(checks.top_values(q_pos, u)[0])
    cert = {"status": "DISJOINT", "direction": u, "margin": margin}
    out.append(("not_minimal", (checks.check_minimality, h, "NOT_MINIMAL", norm, cert, 1e-7),
                (checks.check_minimality, h, "NOT_MINIMAL", norm, dict(cert, direction=-u), 1e-7)))

    # Projection onto a line: m_S is the single point |s|^2.
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s /= np.linalg.norm(s)
    q = s[:, None]
    p = np.eye(n)[0]
    witness = np.outer(s, s.conj())
    dist = float(np.linalg.norm(p - np.abs(s) ** 2))
    out.append(("projection", (checks.check_projection, p, dist, witness, q),
                (checks.check_projection, p, dist + 1e-5, witness, q)))

    # Support values and maximizers from eigh.
    span = inputs.random_span(rng, n, r)
    q = checks.basis(span)
    dirs = rng.standard_normal((20, n))
    values, maxi = [], []
    for c in dirs:
        w_, vec = np.linalg.eigh(q.conj().T @ (c[:, None] * q))
        values.append(w_[-1])
        maxi.append(q @ vec[:, -1])
    out.append(("support", (checks.check_support, values, maxi, q, dirs),
                (checks.check_support, np.add(values, 1e-9), maxi, q, dirs)))

    # JNR boundary points |Q z|^2 of top eigenvectors, or 0 when the top is negative.
    points = []
    for c in dirs:
        w_, vec = np.linalg.eigh(q.conj().T @ (c[:, None] * q))
        points.append(np.abs(q @ vec[:, -1]) ** 2 if w_[-1] > 0 else np.zeros(n))
    corrupt = np.array(points)
    corrupt[3] *= 0.999
    out.append(("jnr_boundary", (checks.check_jnr_boundary, points, q, dirs),
                (checks.check_jnr_boundary, corrupt, q, dirs)))

    # Hausdorff estimate recomputed from the two bases.
    near = span + 1e-3 * rng.standard_normal(span.shape)
    qn = checks.basis(near)
    est = checks.hausdorff_estimate(q, qn, dirs)
    spectral = float(np.linalg.norm(q @ q.conj().T - qn @ qn.conj().T, 2))
    out.append(("hausdorff", (checks.check_hausdorff, est, spectral, q, qn, dirs),
                (checks.check_hausdorff, est + 1e-9, spectral, q, qn, dirs)))

    # Sampled moment points, curve rows, centroid.
    z = rng.standard_normal((50, r)) + 1j * rng.standard_normal((50, r))
    pts = np.abs((z / np.linalg.norm(z, axis=1, keepdims=True)) @ q.T) ** 2
    outside = pts.copy()
    outside[0] = np.eye(n)[0]
    out.append(("moment_points", (checks.check_moment_points, pts, q, 50),
                (checks.check_moment_points, outside, q, 50)))

    p_ = q @ q.conj().T
    vj, vk = p_[:, 0] / np.sqrt(np.real(p_[0, 0])), p_[:, 1] / np.sqrt(np.real(p_[1, 1]))
    w_t = vk - np.vdot(vj, vk) * vj
    w_t /= np.linalg.norm(w_t)
    ts = np.linspace(0.0, np.pi / 2, 9)
    curve = np.array([np.cos(t) * vj + np.sin(t) * w_t for t in ts])
    m_rows = np.abs(curve) ** 2
    shifted = np.roll(m_rows, 1, axis=0)
    out.append(("curve", (checks.check_curve, ts, m_rows, np.abs(curve[:, 0]), np.abs(curve[:, 1]), q, 0, 1),
                (checks.check_curve, ts, shifted, np.abs(curve[:, 0]), np.abs(curve[:, 1]), q, 0, 1)))

    centre = np.real(np.diagonal(p_)) / r
    out.append(("centroid", (checks.check_centroid, centre, q),
                (checks.check_centroid, centre[::-1], q)))

    # Byte identity of CLI data outputs across passes.
    first = hashlib.sha256(b"x1,x2\n0.5,0.5\n").hexdigest()
    again = hashlib.sha256(b"x1,x2\n0.5,0.5\n").hexdigest()
    flipped = hashlib.sha256(b"x1,x2\n0.5,0.50000000000000011\n").hexdigest()
    out.append(("byte_identity", (checks.check_identical, "sample.csv", first, again),
                (checks.check_identical, "sample.csv", first, flipped)))
    return out


def main() -> int:
    failures = []
    triples = cases()
    for name, good, bad in triples:
        if _rejects(*good):
            failures.append(f"{name}: rejects a correct answer")
        if not _rejects(*bad):
            failures.append(f"{name}: accepts a corrupted answer")
    for line in failures:
        print(f"selftest: {line}", file=sys.stderr)
    if not failures:
        print(f"selftest: {len(triples)} checkers accept correct answers and reject corrupted ones")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

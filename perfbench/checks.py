"""Answer checkers that use numpy alone.

Every checker rebuilds what it needs (orthonormal bases, projectors, r x r
compressions, eigenvalues) from the spanning vectors the benchmark generated,
so no verdict is accepted on the word of the program under test.  A checker
raises ``WrongAnswer`` when an answer fails; the benchmark then stops with a
nonzero status.
"""
from __future__ import annotations

import numpy as np

#: Margin a DISJOINT certificate must replay at.
SEPARATION_MARGIN = 1e-9
#: Slack on state invariants (hermitian, PSD, unit trace, support).
STATE_TOL = 1e-9
#: Agreement of support values, boundary points and Hausdorff estimates.
VALUE_TOL = 1e-10
#: Allowed distance between a projection distance and its exact lower bound.
BRACKET_TOL = 1e-6
#: Relative eigenvalue cluster width, as in the program's minimality check.
EIG_TOL = 1e-8


class WrongAnswer(AssertionError):
    """An answer of the program failed an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def basis(span) -> np.ndarray:
    """Orthonormal n x r basis (columns) of the rows of ``span``."""
    q, _ = np.linalg.qr(np.asarray(span, dtype=np.complex128).T)
    return q


def top_values(q: np.ndarray, directions) -> np.ndarray:
    """Top eigenvalue of Q* diag(c) Q for each row c: the support function
    of the moment set, batched in one eigvalsh call."""
    c = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    comp = np.einsum("ia,ki,ib->kab", q.conj(), c, q)
    return np.linalg.eigvalsh(comp)[:, -1]


def bottom_value(q: np.ndarray, c) -> float:
    c = np.asarray(c, dtype=np.float64)
    return float(np.linalg.eigvalsh(q.conj().T @ (c[:, None] * q))[0])


def check_state(rho, q: np.ndarray, what: str) -> np.ndarray:
    """A density matrix supported on span(q); returns its real diagonal."""
    rho = np.asarray(rho, dtype=np.complex128)
    n = q.shape[0]
    require(rho.shape == (n, n), f"{what}: shape {rho.shape}, expected {(n, n)}")
    require(np.max(np.abs(rho - rho.conj().T)) <= STATE_TOL, f"{what}: not hermitian")
    trace = float(np.real(np.trace(rho)))
    require(abs(trace - 1.0) <= STATE_TOL, f"{what}: trace {trace!r}, not 1")
    smallest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    require(smallest >= -STATE_TOL, f"{what}: negative eigenvalue {smallest:.3e}")
    p = q @ q.conj().T
    leak = float(np.max(np.abs(p @ rho @ p - rho)))
    require(leak <= STATE_TOL, f"{what}: not supported on its subspace ({leak:.3e})")
    return np.real(np.diagonal(rho))


def check_intersect(witness_y, witness_x, qv, qw, tol: float) -> None:
    """INTERSECT: two states on V and W with the same diagonal within tol."""
    y = check_state(witness_y, qv, "INTERSECT witness on V")
    x = check_state(witness_x, qw, "INTERSECT witness on W")
    gap = float(np.linalg.norm(y - x))
    require(gap <= tol, f"INTERSECT witnesses differ by {gap:.3e} > {tol:.1e}")


def check_disjoint(direction, margin, qv, qw) -> None:
    """DISJOINT: min over m_W minus max over m_V of <u, .> replays >= 1e-9."""
    u = np.asarray(direction, dtype=np.float64)
    require(abs(np.linalg.norm(u) - 1.0) <= STATE_TOL, "DISJOINT direction is not a unit vector")
    replay = bottom_value(qw, u) - float(top_values(qv, u)[0])
    require(replay >= SEPARATION_MARGIN, f"DISJOINT margin replays at {replay:.3e}")
    require(abs(replay - margin) <= VALUE_TOL, f"DISJOINT margin {margin!r} but replay {replay!r}")


def extreme_spaces(m):
    """The benchmark's own spectral data of M: norm, symmetry of the extreme
    eigenvalues, and bases of the +/-||M|| eigenspaces."""
    w, vecs = np.linalg.eigh(np.asarray(m, dtype=np.complex128))
    norm = float(np.max(np.abs(w)))
    width = EIG_TOL * norm
    symmetric = abs(w[-1] + w[0]) <= width
    return norm, symmetric, vecs[:, w >= w[-1] - width], vecs[:, w <= w[0] + width]


def check_minimality(m, verdict: str, norm: float, cert, tol: float) -> None:
    """MINIMAL / NOT_MINIMAL replayed on eigenspaces computed here.

    ``cert`` is None or a mapping with ``status`` and the certificate fields
    (``witness_y``/``witness_x`` or ``direction``/``margin``).
    """
    own_norm, symmetric, q_pos, q_neg = extreme_spaces(m)
    require(abs(norm - own_norm) <= VALUE_TOL * max(1.0, own_norm), f"norm {norm!r} but {own_norm!r}")
    if verdict == "MINIMAL":
        require(symmetric, "MINIMAL but the extreme eigenvalues are not opposite")
        require(cert is not None and cert["status"] == "INTERSECT", "MINIMAL without an INTERSECT certificate")
        check_intersect(cert["witness_y"], cert["witness_x"], q_pos, q_neg, tol)
    elif verdict == "NOT_MINIMAL":
        if cert is None:
            require(not symmetric, "NOT_MINIMAL without a certificate on a symmetric spectrum")
            return
        require(cert["status"] == "DISJOINT", f"NOT_MINIMAL with a {cert['status']} certificate")
        check_disjoint(cert["direction"], cert["margin"], q_pos, q_neg)
    else:
        raise WrongAnswer(f"unexpected verdict {verdict!r}")


def check_projection(p, distance: float, witness, q) -> None:
    """The witness reproduces the distance, and the distance lies within
    1e-6 of the exact lower bound max(0, <u, p> - h_S(u)), u = (p - y)/|p - y|."""
    p = np.asarray(p, dtype=np.float64)
    y = check_state(witness, q, "projection witness")
    residual = float(np.linalg.norm(p - y))
    require(abs(residual - distance) <= STATE_TOL, f"distance {distance!r} but witness gives {residual!r}")
    lower = 0.0
    if residual > 0.0:
        u = (p - y) / residual
        lower = max(0.0, float(u @ p) - float(top_values(q, u)[0]))
    require(lower <= distance + VALUE_TOL, f"distance {distance!r} below the lower bound {lower!r}")
    require(distance - lower <= BRACKET_TOL, f"distance {distance!r} exceeds the lower bound {lower!r} by more than {BRACKET_TOL:.0e}")


def check_support(values, maximizers, q, directions) -> None:
    """Support values against eigvalsh; maximizers are unit vectors of the
    subspace attaining them."""
    c = np.asarray(directions, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    err = float(np.max(np.abs(values - top_values(q, c))))
    require(err <= VALUE_TOL, f"support values off by {err:.3e}")
    x = np.asarray(maximizers, dtype=np.complex128)
    require(float(np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0))) <= STATE_TOL, "support maximizer is not a unit vector")
    leak = x - (x @ q.conj()) @ q.T
    require(float(np.max(np.abs(leak))) <= STATE_TOL, "support maximizer is not in the subspace")
    attained = np.einsum("ki,ki->k", c, np.abs(x) ** 2)
    require(float(np.max(np.abs(attained - values))) <= VALUE_TOL, "support maximizer does not attain the value")


def check_jnr_boundary(points, q, directions) -> None:
    """Each boundary point attains the JNR support max(top, 0) of a proper
    subspace in its direction, and is a nonnegative vector of sum at most 1."""
    c = np.asarray(directions, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    require(x.shape == c.shape, f"boundary has shape {x.shape}, expected {c.shape}")
    expected = np.maximum(top_values(q, c), 0.0)
    err = float(np.max(np.abs(np.einsum("ki,ki->k", c, x) - expected)))
    require(err <= VALUE_TOL, f"JNR boundary points miss the support by {err:.3e}")
    require(float(np.min(x)) >= -VALUE_TOL, "JNR boundary point has a negative coordinate")
    require(float(np.max(x.sum(axis=1))) <= 1.0 + VALUE_TOL, "JNR boundary point has coordinate sum above 1")


def hausdorff_estimate(qv, qw, directions) -> float:
    c = np.asarray(directions, dtype=np.float64)
    c = c / np.linalg.norm(c, axis=1, keepdims=True)
    return float(np.max(np.abs(top_values(qv, c) - top_values(qw, c))))


def check_hausdorff(estimate: float, spectral: float, qv, qw, directions) -> None:
    own = hausdorff_estimate(qv, qw, directions)
    require(abs(estimate - own) <= VALUE_TOL, f"Hausdorff estimate {estimate!r} but recomputed {own!r}")
    gap = qv @ qv.conj().T - qw @ qw.conj().T
    own_spectral = float(np.linalg.norm(gap, 2))
    require(abs(spectral - own_spectral) <= VALUE_TOL, f"projector distance {spectral!r} but {own_spectral!r}")


def check_moment_points(points, q, count: int) -> None:
    """Sampled moment points: ``count`` probability vectors, none beyond the
    support function in the coordinate and a few mixed directions."""
    x = np.asarray(points, dtype=np.float64)
    n = q.shape[0]
    require(x.shape == (count, n), f"sample has shape {x.shape}, expected {(count, n)}")
    require(float(np.min(x)) >= -VALUE_TOL, "moment point has a negative coordinate")
    require(float(np.max(np.abs(x.sum(axis=1) - 1.0))) <= VALUE_TOL, "moment point does not sum to 1")
    c = np.vstack([np.eye(n), -np.eye(n), np.cos(np.arange(1, 5)[:, None] * np.arange(n)[None, :])])
    excess = float(np.max(x @ c.T - top_values(q, c)[None, :]))
    require(excess <= VALUE_TOL, f"moment point beyond the support function by {excess:.3e}")


def check_curve(t, m_rows, mod_j, mod_k, q, j: int, k: int) -> None:
    """Curve points are moment points of span(P e_j, P e_k); the first is the
    principal moment point |P e_j|^2 / P_jj, the j-modulus is
    cos(t) sqrt(P_jj), and the modulus columns square to the moments."""
    x = np.asarray(m_rows, dtype=np.float64)
    p = q @ q.conj().T
    plane = basis(np.stack([p[:, j], p[:, k]]))
    check_moment_points(x, plane, x.shape[0])
    principal = np.abs(p[:, j]) ** 2 / np.real(p[j, j])
    err = float(np.max(np.abs(x[0] - principal)))
    require(err <= VALUE_TOL, f"curve starts {err:.3e} away from the principal moment point")
    err = float(np.max(np.abs(np.asarray(mod_j) - np.cos(t) * np.sqrt(np.real(p[j, j])))))
    require(err <= VALUE_TOL, f"curve j-modulus off by {err:.3e}")
    err = max(float(np.max(np.abs(np.asarray(mod_j) ** 2 - x[:, j]))), float(np.max(np.abs(np.asarray(mod_k) ** 2 - x[:, k]))))
    require(err <= VALUE_TOL, f"curve moduli do not square to the moments ({err:.3e})")


def check_identical(what: str, first, again) -> None:
    """A rerun with identical inputs must give byte-identical data outputs."""
    require(first == again, f"{what}: data output differs from the first pass")


def check_centroid(centroid, q) -> None:
    own = np.real(np.diagonal(q @ q.conj().T)) / q.shape[1]
    err = float(np.max(np.abs(np.asarray(centroid) - own)))
    require(err <= VALUE_TOL, f"centroid off by {err:.3e}")

"""Shared builders and frozen reference data for the test suite."""
import numpy as np
import pytest
from hypothesis import settings

from momentkit import Subspace, subspace_from_spanning

# Property tests draw the same examples on every run, with no time limit per
# example: solver runs vary in length, and a rerun must reproduce a failure.
settings.register_profile("momentkit", derandomize=True, deadline=None)
settings.load_profile("momentkit")

# Reference 3-dimensional example: two subspaces with identical moment sets
# but no diagonal-unitary relation between them.
SPAN_V = [(1, 1, 0), (0, 1, 1)]
SPAN_W = [
    (-1, np.exp(1j * np.pi / 4), 0),
    (0, np.exp(1j * np.pi / 3), np.exp(1j * np.pi / 6)),
]

P_V_REFERENCE = np.array(
    [
        [2 / 3, 1 / 3, -1 / 3],
        [1 / 3, 2 / 3, 1 / 3],
        [-1 / 3, 1 / 3, 2 / 3],
    ],
    dtype=np.complex128,
)

P_W_REFERENCE = np.array(
    [
        [2 / 3, -np.exp(-1j * np.pi / 4) / 3, np.exp(-1j * np.pi / 12) / 3],
        [-np.exp(1j * np.pi / 4) / 3, 2 / 3, np.exp(1j * np.pi / 6) / 3],
        [np.exp(1j * np.pi / 12) / 3, np.exp(-1j * np.pi / 6) / 3, 2 / 3],
    ],
    dtype=np.complex128,
)

# Principal standard vectors of the V example (columns of P_V, normalized).
V1_REFERENCE = np.array([2, 1, -1], dtype=np.complex128) / np.sqrt(6)
V2_REFERENCE = np.array([1, 2, 1], dtype=np.complex128) / np.sqrt(6)

# A pair of orthogonal lines spanned by a vector and its conjugate; their
# moment sets coincide in the single point (1/2, 1/2).
CONJUGATE_X = np.array([1, 1j]) / np.sqrt(2)
CONJUGATE_XBAR = np.array([1, -1j]) / np.sqrt(2)


@pytest.fixture
def example_v() -> Subspace:
    return subspace_from_spanning(SPAN_V)


@pytest.fixture
def example_w() -> Subspace:
    return subspace_from_spanning(SPAN_W)


def random_subspace(rng: np.random.Generator, n: int, r: int) -> Subspace:
    g = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return subspace_from_spanning(g)


def random_generic_subspace(rng: np.random.Generator, n: int, r: int) -> Subspace:
    while True:
        s = random_subspace(rng, n, r)
        if np.min(np.real(np.diagonal(s.projector))) > 1e-3:
            return s


def coordinate_half_pair(rng: np.random.Generator, n: int, r: int) -> tuple[Subspace, Subspace]:
    """V mostly on the first half of the coordinates, W on the second half,
    each with a small leak into the other half: disjoint moment sets."""
    half = n // 2
    v = np.zeros((r, n), dtype=np.complex128)
    w = np.zeros((r, n), dtype=np.complex128)
    v[:, :half] = random_subspace(rng, half, r).basis.T
    w[:, half:] = random_subspace(rng, n - half, r).basis.T
    v[:, half:] = 0.1 / np.sqrt(n - half) * rng.standard_normal((r, n - half))
    w[:, :half] = 0.1 / np.sqrt(half) * rng.standard_normal((r, half))
    return subspace_from_spanning(v), subspace_from_spanning(w)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix from a complex Gaussian factor."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def point_to_segment(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance from a 2-d point to the segment [a, b]."""
    ab = b - a
    t = float(np.dot(point - a, ab) / np.dot(ab, ab))
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(point - (a + t * ab)))

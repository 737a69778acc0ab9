"""Direction schedules: the normal quantile behind ``n >= 4`` and the rows it
gives, checked against scipy's ``ndtri`` where scipy is installed."""
import math
from statistics import NormalDist

import numpy as np
import pytest

from momentkit.directions import _kronecker_sequence, fibonacci_directions

CLIP = 1e-12


def test_quantile_matches_ndtri():
    ndtri = pytest.importorskip("scipy.special").ndtri
    p = np.concatenate([
        np.linspace(CLIP, 1.0 - CLIP, 20_001),
        [0.075, 0.925, math.exp(-25.0), 0.5, CLIP, 1.0 - CLIP],
    ])
    quantile = np.array([NormalDist().inv_cdf(x) for x in p.tolist()])
    assert np.max(np.abs(quantile - ndtri(p))) <= 4e-15


@pytest.mark.parametrize("n", [4, 8, 32])
def test_rows_match_ndtri_schedule(n):
    ndtri = pytest.importorskip("scipy.special").ndtri
    rows = fibonacci_directions(n, 500)
    assert rows.shape == (500, n)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-15)
    g = ndtri(np.clip(_kronecker_sequence(n, 500), CLIP, 1.0 - CLIP))
    reference = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert np.max(np.abs(rows - reference)) <= 1e-15



@pytest.mark.parametrize("n, count, match", [
    (3, 0, "count must be at least 1"),
    (0, 5, "dimension must be at least 1"),
])
def test_rejects_empty_schedule(n, count, match):
    with pytest.raises(ValueError, match=match):
        fibonacci_directions(n, count)


def test_line_schedule_alternates():
    assert np.array_equal(fibonacci_directions(1, 5), [[1.0], [-1.0], [1.0], [-1.0], [1.0]])

"""Deterministic direction schedules on the unit sphere of R^n.

Used for boundary sweeps and Hausdorff estimates.  For n = 3 this is the
classic Fibonacci sphere; n >= 4 uses a golden-ratio Kronecker sequence
pushed through the inverse normal CDF and normalized, which is deterministic
and near-uniform.  The quantile is the standard library's
``statistics.NormalDist().inv_cdf``, Wichura's algorithm AS241 (Applied
Statistics 37, 1988), so no direction schedule needs scipy.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import _integer


def _kronecker_sequence(dim: int, count: int) -> np.ndarray:
    """Low-discrepancy points in [0, 1)^dim from the generalized golden ratio."""
    # Unique positive root of x**(dim + 1) = x + 1.
    phi = 2.0
    for _ in range(64):
        phi = (1 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([phi ** -(i + 1) for i in range(dim)])
    k = np.arange(1, count + 1)[:, None]
    return np.mod(0.5 + k * alpha[None, :], 1.0)


def fibonacci_directions(n: int, count: int) -> np.ndarray:
    """``count`` unit vectors in R^n, rows, deterministic in (n, count)."""
    count, n = _integer(count, "count", 1), _integer(n, "dimension", 1)
    if n == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    if n == 2:
        theta = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        golden_angle = math.pi * (3.0 - math.sqrt(5.0))
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        rad = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        theta = golden_angle * i
        return np.column_stack([rad * np.cos(theta), rad * np.sin(theta), z])
    from statistics import NormalDist  # imported here: only this branch needs it

    # Keep quantiles strictly inside (0, 1) before inverting the normal CDF.
    p = np.clip(_kronecker_sequence(n, count), 1e-12, 1.0 - 1e-12)
    g = np.fromiter(map(NormalDist().inv_cdf, p.ravel().tolist()), np.float64, p.size)
    g = g.reshape(p.shape)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms

"""Per-call cost of momentkit's hermitian_eig against raw and batched eigh.

    python3 perfbench/eig_compare.py

For r = 1..8, times one ``hermitian_eig`` call on an r x r compression
Q* diag(c) Q, one raw ``np.linalg.eigh`` call on the same matrix, and one
batched ``np.linalg.eigh`` over 500 such matrices divided by 500.  Each
figure is the median of 7 repeats of 500 calls, in microseconds.
"""
from __future__ import annotations

import os
import sys

os.environ["MOMENTKIT_THREADS"] = "1"
sys.dont_write_bytecode = True

import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentkit.linalg import hermitian_eig  # noqa: E402

import numpy as np  # noqa: E402

COUNT = 500
REPEATS = 7


def per_call_us(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) / COUNT * 1e6)
    return statistics.median(samples)


def main() -> int:
    rng = np.random.default_rng(0)
    print(f"{'r':>2} {'hermitian_eig':>14} {'eigh':>8} {'batched':>8}  (us per matrix)")
    for r in range(1, 9):
        n = 4 * r
        q, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
        c = rng.standard_normal((COUNT, n))
        mats = np.einsum("ia,ki,ib->kab", q.conj(), c, q)
        mats = 0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2)))
        wrapped = per_call_us(lambda: [hermitian_eig(m) for m in mats])
        raw = per_call_us(lambda: [np.linalg.eigh(m) for m in mats])
        batched = per_call_us(lambda: np.linalg.eigh(mats))
        print(f"{r:>2} {wrapped:14.2f} {raw:8.2f} {batched:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

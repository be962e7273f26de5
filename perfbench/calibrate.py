"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the same work can take 1.7 times as long for minutes at a
time, in CPU time as well as wall time, because other tenants compete for
the cores and caches. The benchmark times ``reference_loop()`` between the
program's commands and reports each command's time as a multiple of the
loop's time around it. Host slowdowns stretch both, so the ratio stays;
a change to ``trkm`` moves only the command.

The loop is the benchmark's own code and never calls ``trkm``. Its steps
follow the program's: Gaussian Gram blocks, bordered LU solves with a
residual check and a condition estimate at the sizes a grid fold fit makes
(86 and 121 rows), Python-level bookkeeping, and a cache-sized Gram and LU
for the large ``train_predict`` factorizations. Its inputs are fixed, not
drawn from the workload seed.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

_rng = np.random.default_rng(20250215)
_SMALL = [_rng.random((n, 3)) for n in (86, 120)]
_LARGE = _rng.random((400, 8))
(_GECON,) = get_lapack_funcs(("gecon",), (np.eye(2),))


def _gram(x, sigma):
    d = x[:, None, :] - x[None, :, :]
    return np.exp(-np.sum(d * d, axis=2) / (2.0 * sigma * sigma))


def _bordered_solve(k):
    """Solve [[0, 1'], [1, K + I]] z = [0, 1]' as the program's solver does."""
    n = k.shape[0]
    a = np.empty((n + 1, n + 1))
    a[0, 0] = 0.0
    a[0, 1:] = a[1:, 0] = 1.0
    a[1:, 1:] = k + np.eye(n)
    b = np.ones(n + 1)
    b[0] = 0.0
    lu, piv = lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    float(pivots.min()), float(pivots.max())
    x = lu_solve((lu, piv), b, check_finite=False)
    float(np.max(np.abs(b - a @ x)))
    _GECON(lu, float(np.max(np.abs(a).sum(axis=0))), norm="1")
    return x


def reference_loop():
    """Run the fixed reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(25):
        for x in _SMALL:
            _bordered_solve(_gram(x, 0.5))
        counts = {}
        for i in range(300):
            counts[i % 7] = counts.get(i % 7, 0) + i
    _bordered_solve(_gram(_LARGE, 1.0))
    return time.perf_counter() - start

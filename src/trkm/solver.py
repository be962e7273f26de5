"""Direct solver for bordered linear systems.

Every fit in this package reduces to an (n+1) x (n+1) system of the form

    [ core            sign * border ] [ x_top    ]   [ rhs_top    ]
    [ border^T         0            ] [ x_bottom ] = [ rhs_bottom ]

where ``core`` is a regularized kernel block and ``border`` is a ones
vector enforcing the balance constraint border . x_top = rhs_bottom. The
bordered column breaks the symmetry of the augmented matrix, so we factor
the full augmented matrix with partially pivoted LU rather than exploiting
core symmetry. One or two rounds of iterative refinement keep the residual
near machine level even for extreme regularizer choices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .arrays import as_matrix, as_vector
from .errors import DimensionMismatch, SingularSystem

# A pivot smaller than this relative to the largest pivot marks the system
# as numerically singular (degenerate eta/gamma choice upstream).
RELATIVE_PIVOT_FLOOR = 1e-12

# Guaranteed residual bound of a successful solve: 1e-8 * max(1, |b|_inf).
RESIDUAL_RTOL = 1e-8

# Balance bound of a successful solve: |border.x_top - rhs_bottom| <= 1e-6 * max(1, |rhs_bottom|).
BALANCE_RTOL = 1e-6

_REFINE_ROUNDS = 5


@dataclass(frozen=True)
class BorderedSystem:
    """One bordered system: core block, border column/row, and right-hand side."""

    core: np.ndarray
    border: np.ndarray
    border_sign: int
    rhs_top: np.ndarray
    rhs_bottom: float


@dataclass(frozen=True)
class SolveReport:
    """Solution plus diagnostics of one bordered solve.

    ``residual_norm`` is the max-abs residual of the assembled augmented
    system (never of the factored form); ``condition_estimate`` is a cheap
    LAPACK 1-norm estimate, reported but never used for gating.
    ``balance_target`` is the system's ``rhs_bottom``.
    """

    solution: np.ndarray
    residual_norm: float
    condition_estimate: float
    name: str
    balance_target: float


def _validated(system: BorderedSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    core = as_matrix(system.core, "core")
    border = as_vector(system.border, "border")
    rhs_top = as_vector(system.rhs_top, "rhs_top")
    n = core.shape[0]
    if core.shape[1] != n:
        raise DimensionMismatch(f"core must be square, got shape {core.shape}")
    if border.shape[0] != n or rhs_top.shape[0] != n:
        raise DimensionMismatch(
            f"core is {n}x{n} but border has length {border.shape[0]} "
            f"and rhs_top has length {rhs_top.shape[0]}"
        )
    if system.border_sign not in (+1, -1):
        raise ValueError(f"border_sign must be +1 or -1, got {system.border_sign}")
    rb = float(system.rhs_bottom)
    if not np.isfinite(rb):
        raise ValueError("rhs_bottom is not finite")
    return core, border, rhs_top, rb


def assemble(system: BorderedSystem) -> tuple[np.ndarray, np.ndarray]:
    """Build the dense (n+1) x (n+1) augmented matrix and right-hand side."""
    core, border, rhs_top, rhs_bottom = _validated(system)
    n = core.shape[0]
    a = np.zeros((n + 1, n + 1), dtype=float)
    a[:n, :n] = core
    a[:n, n] = system.border_sign * border
    a[n, :n] = border
    b = np.concatenate([rhs_top, [rhs_bottom]])
    return a, b


def residual(system: BorderedSystem, x) -> float:
    """Max-abs residual ``|A x - b|_inf`` of the assembled system."""
    a, b = assemble(system)
    xv = as_vector(x, "x")
    if xv.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"x has length {xv.shape[0]}, expected {b.shape[0]}")
    r = a @ xv - b
    return float(np.max(np.abs(r))) if r.size else 0.0


def solve_bordered(system: BorderedSystem, name: str) -> SolveReport:
    """Solve the bordered system named ``name`` by LU with partial pivoting.

    Raises SingularSystem, its message prefixed with ``name``, when a pivot
    falls below the relative floor, the refined residual cannot meet the
    documented bound, or the solution misses the balance row.
    """
    a, b = assemble(system)
    with warnings.catch_warnings():
        # An exactly-zero pivot makes LAPACK warn; the pivot check below
        # turns that case into a SingularSystem error.
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    largest = float(pivots.max()) if pivots.size else 0.0
    if largest == 0.0 or float(pivots.min()) < RELATIVE_PIVOT_FLOOR * largest:
        raise SingularSystem(
            f"{name}: pivot {pivots.min():.3e} below relative threshold "
            f"{RELATIVE_PIVOT_FLOOR:g} * {largest:.3e}"
        )
    x = lu_solve((lu, piv), b, check_finite=False)
    tol = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(b))))
    res = b - a @ x
    for _ in range(_REFINE_ROUNDS):
        if float(np.max(np.abs(res))) <= tol:
            break
        x = x + lu_solve((lu, piv), res, check_finite=False)
        res = b - a @ x
    res_norm = float(np.max(np.abs(res)))
    if res_norm > tol:
        raise SingularSystem(
            f"{name}: residual {res_norm:.3e} exceeds tolerance {tol:.3e}; "
            "system is effectively singular"
        )
    total, target = float(a[-1, :-1] @ x[:-1]), float(b[-1])
    if abs(total - target) > BALANCE_RTOL * max(1.0, abs(target)):
        raise SingularSystem(
            f"{name}: balance border.h = {total!r} deviates from {target!r}"
        )
    (gecon,) = get_lapack_funcs(("gecon",), (a,))
    anorm = float(np.max(np.abs(a).sum(axis=0))) if a.size else 0.0
    rcond, _ = gecon(lu, anorm, norm="1")
    cond = float("inf") if rcond == 0.0 else float(1.0 / rcond)
    return SolveReport(x, res_norm, cond, name, target)

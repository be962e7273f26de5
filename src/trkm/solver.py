"""Direct solver for bordered linear systems.

Every fit in this package reduces to an (n+1) x (n+1) system of the form

    [ K/gamma + eta*I   sign * e ] [ h ]   [ rhs_top    ]
    [ e^T               0        ] [ b ] = [ rhs_bottom ]

where K is a kernel block, (gamma, eta) its regularizers and e a ones
vector enforcing the balance constraint sum(h) = rhs_bottom. Each model
module states its systems once for every (gamma, eta), as ``BorderedFamily``
data, and their terms at query rows as ``DecisionTerm`` data; ``at`` gives the
``BorderedSystem`` of one (gamma, eta). ``solve_bordered`` alone forms the
augmented matrix, in place: K/gamma straight into its top-left block, eta
onto that block's diagonal, then the border. The border column breaks the
symmetry, so we factor the full augmented matrix with partially pivoted LU.
One or two rounds of iterative refinement keep the residual near machine
level even for extreme regularizer choices.

Systems that differ only in their border sign share one factorization.
With D = diag(1, ..., 1, -1), the augmented matrix of sign -s is the one of
sign s times D. Partial pivoting sees the same magnitudes in every column,
and every product and sum of the elimination is the same up to sign, so the
LU of sign -s is bitwise the LU of sign s with the last column of U negated
(as 0 - u, which keeps a zero +0.0, as the elimination makes it). So a
``SharedFactor`` carries one LU from one ``solve_bordered`` call to the
next, and for a system of the other sign negates that column and the
matrix's border in place, O(n). The solve then runs on bitwise the matrix
and LU the system's own factorization gives: the same solution, residual,
refinement rounds and condition estimate. (Solving on the unflipped LU and
negating b gives the same solution but not always the same estimate: LAPACK's
estimator takes the sign of an exact zero, so a -0.0 and a +0.0 part ways.)
A factor is not part of a ``SolveReport``: a fitted model keeps no (n+1)^2
array alive.

``solve_spectral`` solves one kernel block's system for many (gamma, eta)
pairs at once (``BorderedFamily.rhs_top`` stacks their right-hand sides), as
grid search needs. The core depends on (gamma, eta) only through a shift of
the kernel's spectrum: with K = Q diag(lambda) Q^T,

    K/gamma + eta*I = Q diag(d) Q^T,   d = lambda/gamma + eta,

so one ``eigh`` (``kernel_spectrum``) serves every pair, and every system
on the same block. Each pair then takes the scalar Schur step of the
border: u = C^-1 r, v = C^-1 e, b = (e^T u - c)/(sign * e^T v),
h = u - sign*b*v. Stacking the pairs as columns turns the solves, the
residuals and the balance rows into a few matrix products. Each column is
held to the gates of ``solve_bordered``: the residual of the formed system
(balance row included) within ``RESIDUAL_RTOL``, the balance within
``BALANCE_RTOL``, and every d finite and positive. A column that misses a
gate is only marked; the caller decides it with ``solve_bordered``. There is
no pivot floor here and no refinement: one round for the columns over the
residual bound let through columns that ``solve_bordered`` rejects as
singular, so the caller's table would no longer read as the LU fits write it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .arrays import as_vector
from .errors import DimensionMismatch, SingularSystem

# A pivot smaller than this relative to the largest pivot marks the system
# as numerically singular (degenerate eta/gamma choice upstream).
RELATIVE_PIVOT_FLOOR = 1e-12

# Guaranteed residual bound of a successful solve: 1e-8 * max(1, |b|_inf).
RESIDUAL_RTOL = 1e-8

# Balance bound of a successful solve: |sum(h) - rhs_bottom| <= 1e-6 * max(1, |rhs_bottom|).
BALANCE_RTOL = 1e-6

_REFINE_ROUNDS = 5


@dataclass(frozen=True)
class BorderedSystem:
    """One bordered system: kernel block, its (gamma, eta), border sign and right-hand side."""

    kernel: np.ndarray
    gamma: float
    eta: float
    border_sign: int
    rhs_top: np.ndarray
    rhs_bottom: float


@dataclass(frozen=True)
class BorderedFamily:
    """One bordered system for every (gamma, eta): rhs_top = rhs_fixed + rhs_scaled/gamma."""

    kernel: np.ndarray
    border_sign: int
    rhs_fixed: np.ndarray
    rhs_scaled: np.ndarray
    rhs_bottom: float

    def rhs_top(self, gammas) -> np.ndarray:
        """One column per gamma, each bitwise the ``rhs_top`` of ``at`` that gamma."""
        return self.rhs_fixed[:, None] + self.rhs_scaled[:, None] / np.atleast_1d(gammas)

    def at(self, gamma, eta) -> BorderedSystem:
        return BorderedSystem(self.kernel, gamma, eta, self.border_sign,
                              self.rhs_top(gamma)[:, 0], self.rhs_bottom)


@dataclass(frozen=True)
class DecisionTerm:
    """A system's term (cross @ w + offset)/gamma + b at query rows, w = h_sign*(h - h_shift);
    ``cross`` is the kernel between the query rows and the system's rows."""

    cross: np.ndarray
    offset: np.ndarray
    h_sign: int = 1
    h_shift: float = 0.0

    def weights(self, h: np.ndarray) -> np.ndarray:
        return self.h_sign * (h - self.h_shift)

    def value(self, h: np.ndarray, gamma, b) -> np.ndarray:
        """The term at each query row, one column per column of a matrix ``h``."""
        offset = self.offset if np.ndim(h) == 1 else self.offset[:, None]
        return (self.cross @ self.weights(h) + offset) / gamma + b


@dataclass(frozen=True)
class SolveReport:
    """Solution plus diagnostics of one bordered solve.

    ``residual_norm`` is the max-abs residual of the formed augmented
    system (never of the factored form); ``condition_estimate`` is a cheap
    LAPACK 1-norm estimate, reported but never used for gating.
    ``balance_target`` is the system's ``rhs_bottom``. ``solution`` is [h; b].
    """

    solution: np.ndarray
    residual_norm: float
    condition_estimate: float
    name: str
    balance_target: float

    h = property(lambda self: self.solution[:-1])
    b = property(lambda self: float(self.solution[-1]))


class SharedFactor:
    """The LU of one (kernel, gamma, eta) augmented matrix, for both border signs.

    Made empty. The first ``solve_bordered(system, name, factor=f)`` forms
    and factors its system into ``f``; each later call with ``f`` solves on
    that LU, turned to its border sign in place (see the module docstring).
    A system with another kernel, gamma or eta is a ValueError. Keep it no
    longer than the solves: it holds two (n+1)^2 arrays.
    """

    def __init__(self):
        self.kernel = None  # the factored system's kernel; None while empty
        self.gamma = self.eta = self.border_sign = None
        self.matrix = self.lu = self.piv = self.anorm = None

    def check(self, kernel: np.ndarray, gamma, eta) -> None:
        if not (gamma == self.gamma and eta == self.eta and np.array_equal(kernel, self.kernel)):
            raise ValueError("shared factor was made for another (kernel, gamma, eta)")

    def fill(self, system: BorderedSystem, kernel: np.ndarray, a: np.ndarray, name: str) -> None:
        """Factor ``system``'s augmented matrix ``a``; a pivot below the floor is SingularSystem."""
        # The 1-norm first: its |a| temporary is freed before the LU copy exists.
        anorm = float(np.max(np.abs(a).sum(axis=0)))
        with warnings.catch_warnings():
            # An exactly-zero pivot makes LAPACK warn; the pivot check below
            # turns that case into a SingularSystem error.
            warnings.simplefilter("ignore")
            lu, piv = lu_factor(a, check_finite=False)
        pivots = np.abs(np.diag(lu))
        largest = float(pivots.max())
        if largest == 0.0 or float(pivots.min()) < RELATIVE_PIVOT_FLOOR * largest:
            raise SingularSystem(
                f"{name}: pivot {pivots.min():.3e} below relative threshold "
                f"{RELATIVE_PIVOT_FLOOR:g} * {largest:.3e}"
            )
        self.kernel, self.gamma, self.eta = kernel, system.gamma, system.eta
        self.border_sign, self.matrix, self.lu, self.piv = system.border_sign, a, lu, piv
        self.anorm = anorm

    def turn(self, border_sign: int) -> None:
        """Make the matrix and LU those of ``border_sign``: negate both last columns."""
        if border_sign != self.border_sign:
            n = self.matrix.shape[0] - 1
            self.matrix[:n, n] = border_sign
            np.subtract(0.0, self.lu[:, n], out=self.lu[:, n])
            self.border_sign = border_sign


def _augmented(kernel: np.ndarray, gamma, eta, border_sign) -> np.ndarray:
    """[[K/gamma + eta*I, sign*e], [e^T, 0]], formed in one (n+1)^2 array."""
    n = kernel.shape[0]
    a = np.empty((n + 1, n + 1))
    core = a[:n, :n]
    np.divide(kernel, gamma, out=core)
    a.reshape(-1)[: n * (n + 2) : n + 2] += eta
    if not np.isfinite(core).all():
        raise ValueError("core contains non-finite entries")
    a[:n, n] = border_sign
    a[n, :n] = 1.0
    a[n, n] = 0.0
    return a


def solve_bordered(
    system: BorderedSystem, name: str, factor: SharedFactor | None = None
) -> SolveReport:
    """Form and solve the bordered system named ``name`` by LU with partial pivoting.

    The core is ``kernel / gamma + eta * I``; a non-finite entry in it is a
    ValueError. ``factor``, when given, is filled by this call if empty and
    reused if not; a factor of another (kernel, gamma, eta) is a ValueError.
    Raises SingularSystem, its message prefixed with ``name``, when a pivot
    falls below the relative floor, the refined residual cannot meet the
    documented bound, or the solution misses the balance row.
    """
    kernel = np.asarray(system.kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise DimensionMismatch(f"kernel must be square, got shape {kernel.shape}")
    n = kernel.shape[0]
    factor = SharedFactor() if factor is None else factor
    if factor.kernel is None:
        a = _augmented(kernel, system.gamma, system.eta, system.border_sign)
    else:
        factor.check(kernel, system.gamma, system.eta)
    rhs_top = as_vector(system.rhs_top, "rhs_top")
    if rhs_top.shape[0] != n:
        raise DimensionMismatch(f"kernel is {n}x{n} but rhs_top has length {rhs_top.shape[0]}")
    if system.border_sign not in (+1, -1):
        raise ValueError(f"border_sign must be +1 or -1, got {system.border_sign}")
    rhs_bottom = float(system.rhs_bottom)
    if not np.isfinite(rhs_bottom):
        raise ValueError("rhs_bottom is not finite")
    if factor.kernel is None:
        factor.fill(system, kernel, a, name)
    factor.turn(system.border_sign)
    a, lu = factor.matrix, (factor.lu, factor.piv)
    b = np.concatenate([rhs_top, [rhs_bottom]])
    x = lu_solve(lu, b, check_finite=False)
    tol = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(b))))
    res = b - a @ x
    for _ in range(_REFINE_ROUNDS):
        if float(np.max(np.abs(res))) <= tol:
            break
        x = x + lu_solve(lu, res, check_finite=False)
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
    rcond, _ = gecon(lu[0], factor.anorm, norm="1")
    cond = float("inf") if rcond == 0.0 else float(1.0 / rcond)
    return SolveReport(x, res_norm, cond, name, target)


@dataclass(frozen=True)
class SpectralSolve:
    """Solutions of one kernel block's system for many (gamma, eta) columns.

    ``h`` is n x columns and ``b`` has one border value per column.
    ``b_size`` bounds each |b| by the sizes of the terms it is computed
    from, cancellation ignored; a b far below it is mostly rounding.
    ``passed`` marks the columns that meet every gate, and
    ``residual_ratio`` is each column's residual over its bound. ``spread``
    is each column's d_max/d_min, the 2-norm condition number of its core.
    """

    h: np.ndarray
    b: np.ndarray
    b_size: np.ndarray
    passed: np.ndarray
    residual_ratio: np.ndarray
    spread: np.ndarray


def kernel_spectrum(kernel) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a symmetric kernel block as (lambda, Q); all nan when it does not converge."""
    kernel = np.asarray(kernel, dtype=float)
    try:
        return np.linalg.eigh(kernel)
    except np.linalg.LinAlgError:
        n = kernel.shape[0]
        return np.full(n, np.nan), np.full((n, n), np.nan)


def solve_spectral(
    kernel, gammas, etas, border_sign: int, rhs_top, rhs_bottom: float, spectrum=None
) -> SpectralSolve:
    """Solve the bordered system of ``kernel`` for each column (gammas[j], etas[j], rhs_top[:, j]).

    ``spectrum`` is the kernel's ``kernel_spectrum``, computed here when not
    given; see the module docstring for the method and the gates. A nan
    spectrum fails every column. The spread d_max/d_min of each column is
    reported, not gated; ``models.SPREAD_LIMIT`` holds regression cells to it.
    """
    kernel = np.asarray(kernel, dtype=float)
    gammas, etas = np.asarray(gammas, dtype=float), np.asarray(etas, dtype=float)
    rhs = np.asarray(rhs_top, dtype=float)
    lam, q = kernel_spectrum(kernel) if spectrum is None else spectrum
    # A zero or non-finite d makes inf/nan columns; the gates below reject them.
    with np.errstate(all="ignore"):
        d = lam[:, None] / gammas + etas
        u = q @ ((q.T @ rhs) / d)
        v = q @ (q.sum(axis=0)[:, None] / d)
        b = (u.sum(axis=0) - rhs_bottom) / (border_sign * v.sum(axis=0))
        b_size = (np.abs(u).sum(axis=0) + abs(rhs_bottom)) / np.abs(v.sum(axis=0))
        h = u - border_sign * b * v
        balance = h.sum(axis=0)
        top = (kernel @ h) / gammas + etas * h + border_sign * b - rhs
        residual = np.maximum(np.abs(top).max(axis=0), np.abs(balance - rhs_bottom))
        bound = RESIDUAL_RTOL * np.maximum(max(1.0, abs(rhs_bottom)), np.abs(rhs).max(axis=0))
        passed = (
            (residual <= bound)
            & (np.abs(balance - rhs_bottom) <= BALANCE_RTOL * max(1.0, abs(rhs_bottom)))
            & np.isfinite(d).all(axis=0) & (d > 0.0).all(axis=0)
        )
        spread = d.max(axis=0) / d.min(axis=0)
    return SpectralSolve(h, b, b_size, passed, residual / bound, spread)

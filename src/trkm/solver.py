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
symmetry, so we factor the full augmented matrix with partially pivoted LU,
calling LAPACK's getrf/getrs/gecon directly from ``compiled.flapack`` (scipy's
lu_solve wrapper, the same bits, costs more per call than the solve itself at
grid-fold sizes, and its package costs a cold start).
One or two rounds of iterative refinement keep the residual near machine
level even for extreme regularizer choices.

A border sign only negates b: [C, -e; e^T, 0][h; b] = [C, e; e^T, 0][h; -b],
exactly. So only the +e matrix is formed and factored, and systems on one
(kernel, gamma, eta) share it and its LU (``SharedFactor``), which no solve
changes. A -e system's condition estimate is its +e matrix's, the same in
exact arithmetic: with D = diag(1, ..., 1, -1), ||AD||_1 = ||A||_1 and
||(AD)^-1||_1 = ||A^-1||_1. Every fit and grid refit solves through
``solve_families``; a fitted model keeps no factor, so no (n+1)^2 array.

The condition estimate (the 1-norm of the augmented matrix by ``lange``,
then ``gecon``), kept on the factor so that both signs' systems share one,
is the one part of a solve that gates nothing, and at grid-fold sizes it
costs about half a ``getrf``. Fits compute it, since their ``fit_diag``
reports it; a grid refit, which reads only h and b, asks for none
(``estimate=False``) and gets a report whose estimate is None. Every gate
runs either way, and the solution, residual and any SingularSystem message
are bitwise the same.

``solve_spectral`` solves one kernel block's system for many (gamma, eta)
pairs at once (``BorderedFamily.rhs_top`` stacks their right-hand sides), as
grid search needs. The core depends on (gamma, eta) only through a shift of
the kernel's spectrum: with K = Q diag(lambda) Q^T,

    K/gamma + eta*I = Q diag(d) Q^T,   d = lambda/gamma + eta,

so one ``eigh`` (``kernel_spectrum``) serves every pair, and every system
on the same block. What depends only on that spectrum and the pairs (d,
v = C^-1 e, e^T v, the finite-and-positive mask of d and its spread) is one
``spectral_shift``, computed once per kernel block and set of pairs and
shared by every system on it, as TRKM-R's twins share their fold kernel.
Each pair then takes the scalar Schur step of the +e border: u = C^-1 r,
b = (e^T u - c)/(e^T v), h = u - b*v, and returns sign * b. Stacking the
pairs as columns turns the solves, the residuals and the balance rows into a
few matrix products. Each column is held to the gates of ``solve_bordered``,
stated once for both solvers and per column: ``residual_bound`` (the residual
of the formed system, balance row included) and ``balance_met``; nan fails
both. Every d must also be finite and positive. A column that misses a
gate is only marked; the caller decides it with ``solve_bordered``. There is
no pivot floor here and no refinement: one round for the columns over the
residual bound let through columns that ``solve_bordered`` rejects as
singular, so the caller's table would no longer read as the LU fits write it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiled import flapack
from .errors import DimensionMismatch, NonFiniteSystem, SingularSystem

# A pivot smaller than this relative to the largest pivot marks the system
# as numerically singular (degenerate eta/gamma choice upstream).
RELATIVE_PIVOT_FLOOR = 1e-12

# Guaranteed residual bound of a successful solve: 1e-8 * max(1, |b|_inf).
RESIDUAL_RTOL = 1e-8

# Balance bound of a successful solve: |sum(h) - rhs_bottom| <= 1e-6 * max(1, |rhs_bottom|).
BALANCE_RTOL = 1e-6

_REFINE_ROUNDS = 5

_getrf, _getrs, _gecon, _lange = flapack.dgetrf, flapack.dgetrs, flapack.dgecon, flapack.dlange


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
    """The system named ``name`` for every (gamma, eta): rhs_top = rhs_fixed + rhs_scaled/gamma."""

    name: str
    kernel: np.ndarray
    border_sign: int
    rhs_fixed: np.ndarray
    rhs_scaled: np.ndarray
    rhs_bottom: float

    def rhs_top(self, gammas) -> np.ndarray:
        """One column per gamma, each bitwise the ``rhs_top`` of ``at`` that gamma."""
        with np.errstate(over="ignore"):  # an inf here is NonFiniteSystem in solve_bordered
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
    LAPACK 1-norm estimate, reported but never used for gating, or None for
    a solve that asked for none.
    ``balance_target`` is the system's ``rhs_bottom``. ``solution`` is [h; b].
    """

    solution: np.ndarray
    residual_norm: float
    condition_estimate: float | None
    name: str
    balance_target: float

    h = property(lambda self: self.solution[:-1])
    b = property(lambda self: float(self.solution[-1]))


class SharedFactor:
    """The +e augmented matrix of one (kernel, gamma, eta) and its LU, for both border signs.

    Made empty. The first ``solve_bordered(system, name, factor=f)`` forms
    and factors its system's +e matrix into ``f``; each later call with ``f``
    solves on that LU, and no call changes the matrix or the LU. A system
    with another kernel, gamma or eta is a ValueError. Keep it no longer
    than the solves: it holds two (n+1)^2 arrays. ``cond``, the matrix's
    condition estimate, is None until a solve asks for one, and is computed once.
    """

    def __init__(self):
        self.kernel = None  # the factored system's kernel; None while empty
        self.gamma = self.eta = None
        self.matrix = self.lu = self.piv = self.cond = None

    def check(self, kernel: np.ndarray, gamma, eta) -> None:
        if not (gamma == self.gamma and eta == self.eta
                and (kernel is self.kernel or np.array_equal(kernel, self.kernel))):
            raise ValueError("shared factor was made for another (kernel, gamma, eta)")

    def fill(self, system: BorderedSystem, kernel: np.ndarray, a: np.ndarray, name: str,
             estimate: bool) -> None:
        """Factor ``system``'s +e augmented matrix ``a``, and estimate its condition when
        ``estimate``; a pivot below the floor is SingularSystem."""
        lu, piv, _ = _getrf(a)  # an exactly-zero pivot fails the check below
        pivots = np.abs(np.diag(lu))
        largest = float(pivots.max())
        if largest == 0.0 or float(pivots.min()) < RELATIVE_PIVOT_FLOOR * largest:
            raise SingularSystem(
                f"{name}: pivot {pivots.min():.3e} below relative threshold "
                f"{RELATIVE_PIVOT_FLOOR:g} * {largest:.3e}"
            )
        self.kernel, self.gamma, self.eta = kernel, system.gamma, system.eta
        self.matrix, self.lu, self.piv = a, lu, piv
        self.cond = _condition(lu, a) if estimate else None


def _one_norm(a: np.ndarray) -> float:
    """The largest column sum of |a|: LAPACK's infinity norm of the Fortran-ordered a.T,
    bitwise ``np.max(np.abs(a).sum(axis=0))`` without its (n+1)^2 temporary."""
    return float(_lange("I", a.T))


def _condition(lu: np.ndarray, a: np.ndarray) -> float:
    """1/rcond of LAPACK ``gecon`` on ``a``'s LU and 1-norm; inf for an rcond of 0."""
    rcond, _ = _gecon(lu, _one_norm(a), norm="1")
    return float("inf") if rcond == 0.0 else float(1.0 / rcond)


def residual_bound(rhs_top: np.ndarray, rhs_bottom: float):
    """The residual gate of each column of ``rhs_top`` (one bound for a vector): a solve passes
    when its formed system's max-abs residual is at most ``RESIDUAL_RTOL`` times max(1, |b|_inf)."""
    return RESIDUAL_RTOL * np.maximum(max(1.0, abs(rhs_bottom)),
                                      np.abs(rhs_top).max(axis=0, initial=0.0))


def balance_met(total, rhs_bottom: float):
    """The balance gate of each column, whose sum(h) is ``total``: |total - rhs_bottom| at most
    ``BALANCE_RTOL`` times max(1, |rhs_bottom|); a nan total fails."""
    return np.abs(total - rhs_bottom) <= BALANCE_RTOL * max(1.0, abs(rhs_bottom))


def _augmented(kernel: np.ndarray, gamma, eta) -> np.ndarray:
    """[[K/gamma + eta*I, e], [e^T, 0]], formed in one (n+1)^2 array."""
    n = kernel.shape[0]
    a = np.empty((n + 1, n + 1))
    core = a[:n, :n]
    with np.errstate(over="ignore"):  # an inf here is the NonFiniteSystem below
        np.divide(kernel, gamma, out=core)
        a.reshape(-1)[: n * (n + 2) : n + 2] += eta
    if not np.isfinite(core).all():
        raise NonFiniteSystem("core contains non-finite entries")
    a[:n, n] = a[n, :n] = 1.0
    a[n, n] = 0.0
    return a


def solve_bordered(
    system: BorderedSystem, name: str, factor: SharedFactor | None = None, *,
    estimate: bool = True,
) -> SolveReport:
    """Form and solve the bordered system named ``name`` by LU with partial pivoting.

    The core is ``kernel / gamma + eta * I``; a non-finite entry in it or in
    ``rhs_top`` is NonFiniteSystem, a ValueError. ``factor``, when given, is
    filled by this call if empty and reused if not; a factor of another
    (kernel, gamma, eta) is a ValueError. Raises SingularSystem, its message
    prefixed with ``name``, when a pivot falls below the relative floor, the
    refined residual exceeds ``residual_bound`` or the solution fails ``balance_met``. With
    ``estimate`` false the report's condition estimate is None and nothing
    else changes.
    """
    kernel = np.asarray(system.kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise DimensionMismatch(f"kernel must be square, got shape {kernel.shape}")
    n = kernel.shape[0]
    factor = SharedFactor() if factor is None else factor
    if factor.kernel is None:
        a = _augmented(kernel, system.gamma, system.eta)
    else:
        factor.check(kernel, system.gamma, system.eta)
    rhs_top = np.asarray(system.rhs_top, dtype=float)
    if rhs_top.shape != (n,):
        raise DimensionMismatch(f"kernel is {n}x{n} but rhs_top has shape {rhs_top.shape}")
    if not np.isfinite(rhs_top).all():
        raise NonFiniteSystem("rhs_top contains non-finite entries")
    if system.border_sign not in (+1, -1):
        raise ValueError(f"border_sign must be +1 or -1, got {system.border_sign}")
    rhs_bottom = float(system.rhs_bottom)
    if not np.isfinite(rhs_bottom):
        raise ValueError("rhs_bottom is not finite")
    if factor.kernel is None:
        factor.fill(system, kernel, a, name, estimate)
    a, lu, piv = factor.matrix, factor.lu, factor.piv
    b = np.concatenate([rhs_top, [rhs_bottom]])
    x = _getrs(lu, piv, b)[0]
    tol = residual_bound(rhs_top, rhs_bottom)
    with np.errstate(all="ignore"):  # an x that overflowed gives a nan residual: the gate fails
        res = b - a @ x
        for _ in range(_REFINE_ROUNDS):
            if float(np.max(np.abs(res))) <= tol:
                break
            x = x + _getrs(lu, piv, res)[0]
            res = b - a @ x
    x[n] *= system.border_sign  # the +e twin's b, negated for a -e system
    res_norm = float(np.max(np.abs(res)))
    if not res_norm <= tol:
        raise SingularSystem(f"{name}: residual {res_norm:.3e} exceeds tolerance {tol:.3e}; "
                             "system is effectively singular")
    total = float(a[-1, :-1] @ x[:-1])
    if not balance_met(total, rhs_bottom):
        raise SingularSystem(f"{name}: balance border.h = {total!r} deviates from {rhs_bottom!r}")
    if estimate and factor.cond is None:  # filled by a solve that asked for no estimate
        factor.cond = _condition(lu, a)
    return SolveReport(x, res_norm, factor.cond if estimate else None, name, rhs_bottom)


def solve_families(families, penalties, *, estimate: bool = True) -> tuple[SolveReport, ...]:
    """Solve each family at its (gamma, eta), in order and under its name; families on the
    same kernel object at the same (gamma, eta) share one ``SharedFactor``. ``estimate``
    goes to every ``solve_bordered``."""
    factors = {}
    return tuple(solve_bordered(f.at(g, e), f.name,
                                factors.setdefault((id(f.kernel), g, e), SharedFactor()),
                                estimate=estimate)
                 for f, (g, e) in zip(families, penalties))


@dataclass(frozen=True)
class SpectralSolve:
    """Solutions of one kernel block's system for many (gamma, eta) columns.

    ``h`` is n x columns and ``b`` has one border value per column.
    ``b_size`` bounds each |b| by the sizes of the terms it is computed
    from, cancellation ignored; a b far below it is mostly rounding.
    ``passed`` marks the columns that meet every gate.
    """

    h: np.ndarray
    b: np.ndarray
    b_size: np.ndarray
    passed: np.ndarray


def kernel_spectrum(kernel) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a symmetric kernel block as (lambda, Q); all nan when it does not converge."""
    kernel = np.asarray(kernel, dtype=float)
    try:
        return np.linalg.eigh(kernel)
    except np.linalg.LinAlgError:
        n = kernel.shape[0]
        return np.full(n, np.nan), np.full((n, n), np.nan)


@dataclass(frozen=True)
class SpectralShift:
    """The parts of ``solve_spectral`` that depend only on a kernel's spectrum and the
    (gamma, eta) columns, for every system on that kernel block at those columns.

    ``d`` holds each column's shifted spectrum lambda/gamma + eta, ``v`` = C^-1 e and
    ``ev`` = e^T v per column; ``ok`` marks the columns whose d is finite and
    positive, and ``spread`` is each column's d_max/d_min.
    """

    q: np.ndarray
    d: np.ndarray
    v: np.ndarray
    ev: np.ndarray
    ok: np.ndarray
    spread: np.ndarray


def spectral_shift(spectrum, gammas, etas) -> SpectralShift:
    """The ``SpectralShift`` of a ``kernel_spectrum`` at the columns (gammas[j], etas[j])."""
    lam, q = spectrum
    gammas, etas = np.asarray(gammas, dtype=float), np.asarray(etas, dtype=float)
    # A zero or non-finite d makes inf/nan columns; solve_spectral's gates reject them.
    with np.errstate(all="ignore"):
        d = lam[:, None] / gammas + etas
        v = q @ (q.sum(axis=0)[:, None] / d)
        return SpectralShift(q, d, v, v.sum(axis=0),
                             np.isfinite(d).all(axis=0) & (d > 0.0).all(axis=0),
                             d.max(axis=0) / d.min(axis=0))


def solve_spectral(
    kernel, gammas, etas, border_sign: int, rhs_top, rhs_bottom: float, shift: SpectralShift
) -> SpectralSolve:
    """Solve the bordered system of ``kernel`` for each column (gammas[j], etas[j], rhs_top[:, j]).

    ``shift`` is the ``spectral_shift`` of the kernel's ``kernel_spectrum`` at
    the same columns; every system on the kernel may share it. See the module
    docstring for the method and the gates. A nan spectrum fails every
    column. The shift's spread d_max/d_min is not gated here;
    ``models.SPREAD_LIMIT`` holds regression cells to it.
    """
    kernel = np.asarray(kernel, dtype=float)
    gammas, etas = np.asarray(gammas, dtype=float), np.asarray(etas, dtype=float)
    rhs = np.asarray(rhs_top, dtype=float)
    with np.errstate(all="ignore"):  # columns of a failed shift hold inf or nan
        u = shift.q @ ((shift.q.T @ rhs) / shift.d)
        b = (u.sum(axis=0) - rhs_bottom) / shift.ev  # the +e twin's b
        b_size = (np.abs(u).sum(axis=0) + abs(rhs_bottom)) / np.abs(shift.ev)
        h = u - b * shift.v
        balance = h.sum(axis=0)
        top = (kernel @ h) / gammas + etas * h + b - rhs
        residual = np.maximum(np.abs(top).max(axis=0), np.abs(balance - rhs_bottom))
        passed = ((residual <= residual_bound(rhs, rhs_bottom))
                  & balance_met(balance, rhs_bottom) & shift.ok)
    return SpectralSolve(h, border_sign * b, b_size, passed)

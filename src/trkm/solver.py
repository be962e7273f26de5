"""Direct solver for bordered linear systems.

Every fit in this package reduces to an (n+1) x (n+1) system of the form

    [ K/gamma + eta*I   sign * e ] [ h ]   [ rhs_top    ]
    [ e^T               0        ] [ b ] = [ rhs_bottom ]

where K is a kernel block, (gamma, eta) its regularizers and e a ones
vector enforcing the balance constraint sum(h) = rhs_bottom. Each model
module states its systems once for every (gamma, eta), as ``BorderedFamily``
data, and their terms at query rows as ``DecisionTerm`` data; ``at`` gives the
``BorderedSystem`` of one (gamma, eta) on a ``KernelBlock``, which alone forms
the augmented matrix (K/gamma, eta added onto its diagonal, then the border)
and decides by its order where. Every kernel block is a Gram block, bitwise
symmetric, so the +e matrix is symmetric. Below order ``LDL_MIN_ORDER`` it is
formed in a new array and factored by partially pivoted LU (getrf/getrs) on
getrf's copy. At or above it, it is factored by Bunch-Kaufman LDL^T
(sytrf/sytrs), which takes half LU's flops but pays off only on large
matrices, in the block's own (n+1)^2 array. So a fit holds one (n+1)^2 array
per kernel block.
LAPACK is called directly from ``compiled.flapack`` (scipy's wrappers, the
same bits, cost more per call than the solve itself at grid-fold sizes, and
their package costs a cold start). The pivot floor reads |U's diagonal| or
the |eigenvalues| of D's 1x1 and 2x2 blocks.
One or two rounds of iterative refinement keep the residual near machine
level even for extreme regularizer choices. Every residual, in refinement and
in the gates, is evaluated on the kernel block by ``residual``, never on a formed
or factored matrix: a formed block reads K back for it. The first residual of a
solve on a formed block takes its K h from BLAS ``dsymv`` (``compiled.fblas``) on
the triangle where the block keeps K instead, which rounds otherwise; it stands
only when the read-back residual would pass as well, whatever their rounding
(``_rounding_gap``), so the verdict, the refinement and every solution are the
read-back's, and only a passing residual's digits are dsymv's.

A border sign only negates b: [C, -e; e^T, 0][h; b] = [C, e; e^T, 0][h; -b],
exactly. So only the +e matrix is formed and factored, and a ``KernelBlock``
holds the factor of its last (gamma, eta) with those ``penalties``: a solve on
the block at the same penalties, of either sign, reuses it, one at others
forms and factors anew. A block's K never changes, and the +e matrix depends
only on (K, gamma, eta), so reuse is exact. A fitted model keeps no block.

A solve reports one conditioning figure, its factor's ``pivot_ratio``: the largest
over the smallest pivot, which the pivot floor holds below 1/``RELATIVE_PIVOT_FLOOR``.

``solve_spectral`` solves a statement's families for many (gamma, eta) pairs at
once (``BorderedFamily.rhs_top`` stacks their right-hand sides), as grid search
needs. The core depends on (gamma, eta) only through a shift of the kernel's
spectrum: with K = Q diag(lambda) Q^T,

    K/gamma + eta*I = Q diag(d) Q^T,   d = lambda/gamma + eta,

so one ``eigh`` serves every pair. The call takes one per distinct kernel
block, with what depends only on the spectrum and the pairs (d, v = C^-1 e,
e^T v, the finite-and-positive mask of d and its spread d_max/d_min), and
every family on the block shares it, as TRKM-R's twins share their fold kernel.
Each pair then takes the scalar Schur step of the +e border: u = C^-1 r,
b = (e^T u - c)/(e^T v), h = u - b*v, and returns sign * b. Stacking the
pairs as columns turns the solves, the residuals and the balance rows into a
few matrix products. Each column is held to the gates of ``solve_bordered``,
stated once for both solvers and per column: ``residual_bound`` (the max-abs
``residual`` of the system on its kernel, balance row included) and
``balance_met``, whose bound allows for the rounding of sum(h); nan fails both.
Every d must also be finite and positive. A column that misses a gate is only
marked; the caller decides it with ``solve_bordered``. There is no pivot floor
here and no refinement: one round for the columns over the residual bound let
through columns that ``solve_bordered`` rejects as singular, so the caller's
table would no longer read as the LU fits write it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_matrix
from .compiled import fblas, flapack
from .errors import DimensionMismatch, NonFiniteSystem, SingularSystem
from .kernels import KernelSpec, gram

# A pivot smaller than this relative to the largest pivot marks the system
# as numerically singular (degenerate eta/gamma choice upstream).
RELATIVE_PIVOT_FLOOR = 1e-12

# Guaranteed residual bound of a successful solve: 1e-8 * max(1, |b|_inf).
RESIDUAL_RTOL = 1e-8

# Balance bound of a successful solve: |sum(h) - rhs_bottom| <= 1e-6 * max(1, |rhs_bottom|).
BALANCE_RTOL = 1e-6

_REFINE_ROUNDS = 5

# A kernel block is built, formed and read in blocks of at least this many bytes of rows, and
# of at least 1/16 of its rows: few enough numpy calls per pass, and a small share of its
# (n+1)^2 array beside it once that array is large.
ROW_BLOCK_BYTES = 256 * 1024

# Augmented matrices of this order or more are factored by LDL^T, smaller ones by LU,
# which keeps every grid-fold solve (at most 215 rows) as it was. The crossover of one
# twin solve, LDL^T time over LU time, one thread of a 2-vCPU x86-64 VM (OpenBLAS via
# SciPy 1.17), median of 7-25 alternating rounds, measured while each solve also ran a
# LAPACK condition estimate (a 1-norm, then gecon or sycon); without it the gate stays:
#   kernel rows  120   214   256   280   300   350   400   600   1000  2000
#   ratio        1.1   1.0   1.09  1.0   0.99  0.97  0.95  0.87  0.75  0.68
LDL_MIN_ORDER = 300

_getrf, _getrs = flapack.dgetrf, flapack.dgetrs
_sytrf, _sytrf_lwork, _sytrs = flapack.dsytrf, flapack.dsytrf_lwork, flapack.dsytrs
_symv = fblas.dsymv


class KernelBlock:
    """A symmetric kernel block K of order n, held in the top-left n x n of an (n+1)^2 array
    ``store``; ``of`` builds it, ``holding`` copies an array into it.

    The block holds the factor of one (gamma, eta)'s +e augmented matrix, made by ``factor``
    and solved on by ``solve``. Its order alone decides how: at ``LDL_MIN_ORDER`` and above
    (``symmetric``) ``factors`` and ``piv`` are sytrf's of the matrix formed in ``store``, else
    getrf's own (n+1)^2 array. ``pivot_ratio`` is its largest over its smallest pivot, the
    figure the pivot floor reads. ``penalties`` is that (gamma, eta), or None while the block
    holds no factor: ``formed`` sets it to None before it writes over the factor.

    Until the first form in ``store``, ``store[:n, :n]`` is K, row n and column n are unset,
    and ``np.asarray`` of the block is that view. ``formed`` then saves K's diagonal in
    ``diagonal`` and writes the +e matrix into the C-lower triangle, the diagonal and row n:
    exactly what LAPACK's uplo='U' routines read and write through the Fortran-ordered
    ``store.T``. The strict upper triangle, which they never reference, keeps K. From then on
    ``@``, ``np.asarray`` and a later ``formed`` read K from there and ``diagonal``, one
    ``row_blocks`` block of rows at a time (``_symmetric_rows``).

    ``symv`` is one BLAS ``dsymv`` of [h; 0] on the lower triangle of the whole ``store.T`` (a
    slice of it would be copied for the call). That triangle is K's upper one plus column n,
    ``store[:n, n]``, which the first form sets to 0 once (``np.empty`` left it unset, and a
    nan there times the 0 would be nan); sytrf never references it. For the call ``diagonal``
    is put in place of the factor's diagonal, and the factor's is put back after it, so
    ``symv`` writes to the block: one thread at a time may use a block (each grid listing
    builds its own). ``largest`` is the largest |entry| of K, which bounds how far ``symv``
    and ``@`` round apart.
    """

    def __init__(self, store: np.ndarray, largest: float):
        self.store, self.largest = store, largest
        self.diagonal = None  # None while store[:n, :n] is K
        self.penalties = self.factors = self.piv = self.pivot_ratio = None
        self.symmetric = len(store) >= LDL_MIN_ORDER

    @classmethod
    def of(cls, spec: KernelSpec, x) -> KernelBlock:
        """The block of ``gram(spec, x, x)``, bitwise, built one ``row_blocks`` block of rows per
        ``gram`` call: each entry is its own pair's sum, then elementwise ``divide`` and ``exp``.
        A call evaluates only the upper trapezoid of its rows, from their first column on, and
        the rest is copied from the rows above (``_mirror``): ``gram(s, a, b)`` is
        ``gram(s, b, a).T`` bitwise."""
        xm = as_matrix(x, "left")
        n = len(xm)
        store, largest = np.empty((n + 1, n + 1)), 0.0
        for start, stop in row_blocks(n):
            store[start:stop, start:n] = gram(spec, xm[start:stop], xm[start:])
            rows = store[start:stop, start:n]  # a view: the gram temporary is freed here
            largest = max(largest, rows.max(initial=0.0), -rows.min(initial=0.0))
            _mirror(store, start, stop, store[start:stop])
        return cls(store, largest)

    @classmethod
    def holding(cls, kernel) -> KernelBlock:
        """A block holding a float copy of the square array ``kernel``, else DimensionMismatch.
        A non-symmetric one is never solved wrongly for the matrix the block reads: below
        ``LDL_MIN_ORDER`` that is ``kernel``; at and above it, from the first form on, it is the
        symmetric matrix of the upper triangle, on which refinement and the residual gate act,
        while the factor is of the lower one; so a solve is SingularSystem or meets the bound."""
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise DimensionMismatch(f"kernel must be square, got shape {kernel.shape}")
        n = len(kernel)
        store = np.empty((n + 1, n + 1))
        store[:n, :n] = kernel
        return cls(store, max(kernel.max(initial=0.0), -kernel.min(initial=0.0)))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.store) - 1,) * 2

    def __array__(self, dtype=None, copy=None):
        n = len(self.store) - 1
        if self.diagonal is None:
            return self.store[:n, :n].astype(dtype or float, copy=bool(copy))
        k = np.empty((n, n))
        for start, stop, rows in _symmetric_rows(self.store, n, self.diagonal):
            k[start:stop] = rows
        return k.astype(dtype or float, copy=False)

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        """K h for a vector h; each block of rows is bitwise what K's own rows give."""
        a, n = self.store, len(self.store) - 1
        if self.diagonal is None:
            return a[:n, :n] @ h
        out = np.empty(n)
        for start, stop, rows in _symmetric_rows(a, n, self.diagonal):
            np.matmul(rows, h, out=out[start:stop])
        return out

    def symv(self, h: np.ndarray) -> tuple[np.ndarray, float | None]:
        """(K h, size) for a vector h. Once the block is formed, K h is one ``dsymv`` on the
        triangle that keeps K (see the class docstring), a tenth of ``@``'s time at order 2000,
        and ``size`` = ``largest`` * sum|h| bounds every entry of |K| |h|, by which the two
        round apart. Until then K h is ``self @ h``, and ``size`` None."""
        a, n = self.store, len(self.store) - 1
        if self.diagonal is None:
            return self @ h, None
        diagonal = a.reshape(-1)[: n * (n + 2) : n + 2]
        held = diagonal.copy()
        diagonal[:] = self.diagonal
        try:
            kh = _symv(1.0, a.T, np.append(h, 0.0), lower=1)[:n]
        finally:
            diagonal[:] = held
        return kh, self.largest * float(np.abs(h).sum())

    def formed(self, gamma, eta) -> np.ndarray:
        """The +e matrix [[K/gamma + eta*I, e], [e^T, 0]]; NonFiniteSystem for a non-finite
        entry of the core. Unless ``symmetric``, a new array, and the held factor is kept; else
        ``store`` with the matrix in its C-lower triangle, diagonal and row n, formed there by
        the same IEEE operations as in a whole matrix, from K's rows: ``store``'s own until the
        first form, then those read from the upper triangle."""
        a, n = self.store, len(self.store) - 1
        if not self.symmetric:
            return _augmented(a[:n, :n], gamma, eta)
        self.penalties = None
        if self.diagonal is None:
            self.diagonal = a.diagonal()[:n].copy()
            a[:n, n] = 0.0
            blocks = ((start, stop, a[start:stop]) for start, stop in row_blocks(n))
        else:  # each block is read from the upper triangle before its rows are written
            blocks = _symmetric_rows(a, n)
        diagonal = a.reshape(-1)[: n * (n + 2) : n + 2]
        with np.errstate(over="ignore"):  # an inf here is the NonFiniteSystem below
            np.divide(self.diagonal, gamma, out=diagonal)
            diagonal += eta
            for start, stop, rows in blocks:
                np.divide(rows[:, :start], gamma, out=a[start:stop, :start])
                np.divide(rows[:, start:stop], gamma, out=a[start:stop, start:stop],
                          where=np.tri(stop - start, k=-1, dtype=bool))
                # nan propagates through both reductions; the block's upper entries are K's
                # own, non-finite only where their lower mirror is
                entries = a[start:stop, :stop]
                if not (np.isfinite(entries.max()) and np.isfinite(entries.min())):
                    raise NonFiniteSystem("core contains non-finite entries")
        a[n, :n] = 1.0
        a[n, n] = 0.0
        return a

    def factor(self, a: np.ndarray, gamma, eta, name: str) -> None:
        """Factor ``formed``'s +e augmented matrix ``a`` of (gamma, eta), in place when
        ``symmetric``, where only its C-lower triangle and diagonal are read. A pivot below the
        floor is SingularSystem."""
        if self.symmetric:  # f2py's default lwork = n would take sytrf's unblocked path, 5x slower
            # the Fortran-ordered a.T is a's memory, no copy; its upper triangle is a's C-lower
            factors, piv, _ = _sytrf(a.T, lwork=int(_sytrf_lwork(a.shape[0])[0]), overwrite_a=1)
            pivots = _block_pivots(factors, piv)
        else:
            factors, piv, _ = _getrf(a)  # an exactly-zero pivot fails the check below
            pivots = np.abs(np.diag(factors))
        largest, smallest = float(pivots.max()), float(pivots.min())
        if largest == 0.0 or smallest < RELATIVE_PIVOT_FLOOR * largest:
            raise SingularSystem(
                f"{name}: pivot {smallest:.3e} below relative threshold "
                f"{RELATIVE_PIVOT_FLOOR:g} * {largest:.3e}"
            )
        self.factors, self.piv = factors, piv
        self.pivot_ratio, self.penalties = largest / smallest, (gamma, eta)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The matrix's solution at ``rhs``, from its factor."""
        if self.symmetric:
            return _sytrs(self.factors, self.piv, rhs)[0]
        return _getrs(self.factors, self.piv, rhs)[0]


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of rows of an n-row square block, in order: a multiple of 8
    rows (see ``ROW_BLOCK_BYTES``), except that the last block takes a lone final row, which
    numpy would multiply by a dot product rather than by the matrix-vector product of the
    other blocks."""
    step = max(8, n // 16, ROW_BLOCK_BYTES // (8 * max(n, 1))) // 8 * 8
    edges = [*range(0, n, step), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _symmetric_rows(a: np.ndarray, n: int, diagonal=None):
    """Each (start, stop, rows) of ``row_blocks(n)``, ``rows`` the C-ordered rows start:stop of
    the symmetric n x n matrix held in the upper triangle of ``a[:n, :n]``, read from that
    triangle alone into one reused buffer; its diagonal is ``diagonal`` when given, else
    ``a``'s own."""
    blocks = row_blocks(n)
    buffer = np.empty((max(stop - start for start, stop in blocks), n))
    for start, stop in blocks:
        m = stop - start
        rows, block = buffer[:m], buffer[:m, start:stop]
        rows[:, start:] = a[start:stop, start:n]
        _mirror(a, start, stop, rows)
        np.copyto(block, block.T.copy(), where=np.tri(m, k=-1, dtype=bool))
        if diagonal is not None:
            block[np.diag_indices(m)] = diagonal[start:stop]
        yield start, stop, rows


def _mirror(a: np.ndarray, start: int, stop: int, rows: np.ndarray) -> None:
    """Write into ``rows`` columns :start of rows start:stop of the symmetric matrix whose upper
    triangle ``a`` holds, a transposed strip of ``a``, copied 256 rows at a time: numpy's copy
    of a whole one strides through memory, 3-4 times slower at order 2000."""
    for first in range(0, start, 256):
        last = min(first + 256, start)
        rows[:, first:last] = a[first:last, start:stop].T


@dataclass(frozen=True)
class BorderedSystem:
    """One bordered system: kernel block, its (gamma, eta), border sign and right-hand side."""

    kernel: KernelBlock
    gamma: float
    eta: float
    border_sign: int
    rhs_top: np.ndarray
    rhs_bottom: float


@dataclass(frozen=True)
class BorderedFamily:
    """The system named ``name`` for every (gamma, eta): rhs_top = rhs_fixed + rhs_scaled/gamma."""

    name: str
    kernel: KernelBlock
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

    ``residual_norm`` is the max-abs residual of the bordered system,
    balance row included, evaluated on its kernel (``residual``), never on
    the factored form; ``pivot_ratio`` is that of the factor it was solved on
    (``KernelBlock.factor``). ``balance_target`` is the system's ``rhs_bottom``.
    ``solution`` is [h; b].
    """

    solution: np.ndarray
    residual_norm: float
    pivot_ratio: float
    name: str
    balance_target: float

    h = property(lambda self: self.solution[:-1])
    b = property(lambda self: float(self.solution[-1]))


def _block_pivots(ldu: np.ndarray, ipiv: np.ndarray) -> np.ndarray:
    """The |eigenvalues| of D's 1x1 and 2x2 blocks in the upper ``sytrf`` factor ``ldu``, in
    D's order. A 2x2 block at (k, k+1) has negative ``ipiv`` at both; so each run of negative
    ``ipiv`` is whole blocks, and every second negative entry starts one."""
    pivots = np.abs(np.diag(ldu))
    first = np.flatnonzero(ipiv < 0)[::2]
    top, bottom, off = ldu[first, first], ldu[first + 1, first + 1], ldu[first, first + 1]
    blocks = np.array([[top, off], [off, bottom]]).transpose(2, 0, 1)
    pivots[first], pivots[first + 1] = np.abs(np.linalg.eigvalsh(blocks)).T
    return pivots


def residual_bound(rhs_top: np.ndarray, rhs_bottom: float):
    """The residual gate of each column of ``rhs_top`` (one bound for a vector): a solve passes
    when its system's max-abs ``residual`` is at most ``RESIDUAL_RTOL`` times max(1, |b|_inf)."""
    return RESIDUAL_RTOL * np.maximum(max(1.0, abs(rhs_bottom)),
                                      np.abs(rhs_top).max(axis=0, initial=0.0))


def balance_met(h: np.ndarray, total, rhs_bottom: float):
    """The balance gate of each column of ``h`` (one verdict for a vector), whose sum is
    ``total``: |total - rhs_bottom| at most ``BALANCE_RTOL`` times max(1, |rhs_bottom|) plus
    the rounding of the sum, n*eps*sum(|h|), which scales with h's unit. |h| is scaled by
    n*eps before it is summed, so the bound does not overflow; a nan total, an inf h or an
    error beyond double range fails."""
    with np.errstate(over="ignore"):
        tol = BALANCE_RTOL * max(1.0, abs(rhs_bottom)) + (
            len(h) * np.finfo(float).eps * np.abs(h)).sum(axis=0)
        return (np.abs(total - rhs_bottom) <= tol) & np.isfinite(tol)


def residual(kh: np.ndarray, gamma, eta, h: np.ndarray, b, rhs_top: np.ndarray,
             rhs_bottom: float):
    """(A x - rhs, sum(h)) of the +e bordered system at x = [h; b], evaluated from its kernel's
    product ``kh`` = K h: the rows kh/gamma + eta*h + b - rhs_top, then the balance row
    sum(h) - rhs_bottom. For a matrix ``h``, one system per column, with gamma, eta and b per
    column."""
    balance = h.sum(axis=0)
    return np.concatenate([kh / gamma + eta * h + b - rhs_top,
                           [balance - rhs_bottom]]), balance


def _rounding_gap(size: float, gamma, eta, x: np.ndarray, rhs_top: np.ndarray) -> float:
    """How far two max-abs ``residual``s at x = [h; b] may lie apart when their K h are the
    same n-term dot products summed in two orders and |K| |h| is at most ``size``: each K h
    is within (n + 1) eps/2 |K| |h| of the exact one (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1), and each of a row's 5 further roundings within eps/2
    of the magnitudes it sums; twice that for two residuals, and a factor 2 to spare."""
    n = len(x) - 1
    magnitude = (size / abs(gamma) + abs(eta) * float(np.abs(x[:n]).max()) + abs(x[n])
                 + float(np.abs(rhs_top).max()))
    return 2 * (n + 6) * np.finfo(float).eps * magnitude


def _augmented(kernel: np.ndarray, gamma, eta) -> np.ndarray:
    """[[K/gamma + eta*I, e], [e^T, 0]], formed in a new (n+1)^2 array; below the gate only."""
    n = kernel.shape[0]
    a = np.empty((n + 1, n + 1))
    core = a[:n, :n]
    with np.errstate(over="ignore"):  # an inf here is the NonFiniteSystem below
        np.divide(kernel, gamma, out=core)
        a.reshape(-1)[: n * (n + 2) : n + 2] += eta
    # nan propagates through both reductions, which need no n^2 temporary
    if not (np.isfinite(core.max(initial=0.0)) and np.isfinite(core.min(initial=0.0))):
        raise NonFiniteSystem("core contains non-finite entries")
    a[:n, n] = a[n, :n] = 1.0
    a[n, n] = 0.0
    return a


def solve_bordered(system: BorderedSystem, name: str) -> SolveReport:
    """Solve the bordered system named ``name`` by LU or LDL^T on its kernel block's factor.

    A block that holds no factor of the system's (gamma, eta) forms its +e matrix
    and factors it (``KernelBlock.formed``, ``KernelBlock.factor``); one that
    does solves on it. The core is ``K / gamma + eta * I``; a non-finite entry
    in it or in ``rhs_top`` is NonFiniteSystem, a ValueError. Raises
    SingularSystem, its message prefixed with ``name``, when a pivot falls below
    the relative floor, the refined residual exceeds ``residual_bound`` or the
    solution fails ``balance_met``. The report's ``pivot_ratio`` is the factor's.
    """
    block, gamma, eta = system.kernel, system.gamma, system.eta
    n = block.shape[0]
    fresh = block.penalties != (gamma, eta)
    if fresh:
        a = block.formed(gamma, eta)
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
    if fresh:
        block.factor(a, gamma, eta, name)
        del a  # the block's own array, or below the gate the matrix getrf copied
    x = block.solve(np.concatenate([rhs_top, [rhs_bottom]]))
    tol = residual_bound(rhs_top, rhs_bottom)
    with np.errstate(all="ignore"):  # an x that overflowed gives a nan residual: the gate fails
        kh, size = block.symv(x[:n])
        res, total = residual(kh, gamma, eta, x[:n], x[n], rhs_top, rhs_bottom)
        # dsymv's residual stands where K's rows' would pass too; else theirs decides
        if size is not None and not (float(np.max(np.abs(res)))
                                     + _rounding_gap(size, gamma, eta, x, rhs_top) <= tol):
            res, total = residual(block @ x[:n], gamma, eta, x[:n], x[n], rhs_top, rhs_bottom)
        for _ in range(_REFINE_ROUNDS):
            if float(np.max(np.abs(res))) <= tol:
                break
            x = x - block.solve(res)
            res, total = residual(block @ x[:n], gamma, eta, x[:n], x[n], rhs_top, rhs_bottom)
    x[n] *= system.border_sign  # the +e twin's b, negated for a -e system
    res_norm = float(np.max(np.abs(res)))
    if not res_norm <= tol:
        raise SingularSystem(f"{name}: residual {res_norm:.3e} exceeds tolerance {tol:.3e}; "
                             "system is effectively singular")
    total = float(total)
    if not balance_met(x[:n], total, rhs_bottom):
        raise SingularSystem(f"{name}: balance border.h = {total!r} deviates from {rhs_bottom!r}")
    return SolveReport(x, res_norm, block.pivot_ratio, name, rhs_bottom)


def solve_families(families, penalties) -> tuple[SolveReport, ...]:
    """Solve each family at its (gamma, eta), in order and under its name."""
    return tuple(solve_bordered(f.at(g, e), f.name) for f, (g, e) in zip(families, penalties))


@dataclass(frozen=True)
class SpectralSolve:
    """Solutions of one family's system for many (gamma, eta) columns.

    ``h`` is n x columns and ``b`` has one border value per column.
    ``b_size`` bounds each |b| by the sizes of the terms it is computed
    from, cancellation ignored; a b far below it is mostly rounding.
    ``passed`` marks the columns that meet every gate, and ``spread`` is
    each column's d_max/d_min, its core's condition number.
    """

    h: np.ndarray
    b: np.ndarray
    b_size: np.ndarray
    passed: np.ndarray
    spread: np.ndarray


def _spectral_shift(kernel: np.ndarray, gammas: np.ndarray, etas: np.ndarray):
    """(q, d, v, e^T v, ok, spread) of a symmetric kernel at the columns (gammas[j], etas[j]),
    from one ``eigh``: the eigenvectors q, each column's shifted spectrum d = lambda/gamma + eta,
    v = C^-1 e, the mask of the columns whose d is finite and positive, and each column's
    d_max/d_min. A spectrum that does not converge is all nan and fails every column."""
    try:
        lam, q = np.linalg.eigh(kernel)
    except np.linalg.LinAlgError:
        lam, q = np.full(len(kernel), np.nan), np.full(kernel.shape, np.nan)
    # A zero or non-finite d makes inf/nan columns; solve_spectral's gates reject them.
    with np.errstate(all="ignore"):
        d = lam[:, None] / gammas + etas
        v = q @ (q.sum(axis=0)[:, None] / d)
        return (q, d, v, v.sum(axis=0), np.isfinite(d).all(axis=0) & (d > 0.0).all(axis=0),
                d.max(axis=0) / d.min(axis=0))


def solve_spectral(families, gammas, etas) -> tuple[SpectralSolve, ...]:
    """Solve each family's system at every column (gammas[j], etas[j]), in order.

    One ``eigh`` per distinct kernel block serves every family on it. See the
    module docstring for the method and the gates. A nan spectrum fails every
    column. The spread is not gated here; ``models.SPREAD_LIMIT`` holds
    regression cells to it.
    """
    gammas, etas = np.asarray(gammas, dtype=float), np.asarray(etas, dtype=float)
    shifts, solves = {}, []
    for family in families:
        if family.kernel not in shifts:  # the block's first family: its one eigh
            kernel = np.asarray(family.kernel, dtype=float)
            shifts[family.kernel] = kernel, _spectral_shift(kernel, gammas, etas)
        kernel, (q, d, v, ev, ok, spread) = shifts[family.kernel]
        rhs, rhs_bottom = family.rhs_top(gammas), family.rhs_bottom
        with np.errstate(all="ignore"):  # columns of a failed shift hold inf or nan
            u = q @ ((q.T @ rhs) / d)
            b = (u.sum(axis=0) - rhs_bottom) / ev  # the +e twin's b
            b_size = (np.abs(u).sum(axis=0) + abs(rhs_bottom)) / np.abs(ev)
            h = u - b * v
            res, balance = residual(kernel @ h, gammas, etas, h, b, rhs, rhs_bottom)
            passed = ((np.abs(res).max(axis=0) <= residual_bound(rhs, rhs_bottom))
                      & balance_met(h, balance, rhs_bottom) & ok)
        solves.append(SpectralSolve(h, family.border_sign * b, b_size, passed, spread))
    return tuple(solves)

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm import models, regressor, rkm
from trkm.data import CLASSIFY, REGRESS, Dataset, normalize_minmax
from trkm.errors import DimensionMismatch, NonFiniteSystem, SingularSystem
from trkm.kernels import gaussian, gram, linear
import trkm.solver
from trkm.solver import (
    BorderedFamily,
    BorderedSystem,
    KernelBlock,
    row_blocks,
    solve_bordered,
    solve_spectral,
)
from trkm.selection import kfold_indices
from trkm.synthetic import blobs, sine

import oracles
from conftest import counting
from oracles import kernel_residual, residual, solve_full_pivot, system_matrix


def system(kernel, gamma, eta, sign, rhs_top, rhs_bottom):
    return BorderedSystem(
        kernel=KernelBlock.holding(kernel),
        gamma=gamma,
        eta=eta,
        border_sign=sign,
        rhs_top=np.asarray(rhs_top, dtype=float),
        rhs_bottom=rhs_bottom,
    )


def random_system(rng, n, sign=None):
    return system(
        rng.normal(size=(n, n)),
        float(rng.uniform(0.5, 2.0)),
        float(n),  # eta * I keeps the core well conditioned
        sign if sign is not None else int(rng.choice([-1, 1])),
        rng.normal(size=n),
        float(rng.normal()),
    )


def test_identity_core_symmetric_rhs():
    rep = solve_bordered(system(np.eye(2), 2.0, 0.5, +1, [1, 1], 2.0), "test system")
    assert np.allclose(rep.solution, [1.0, 1.0, 0.0], atol=1e-12)


def test_hand_eliminated_three_by_three():
    rep = solve_bordered(system(np.eye(2), 1.0, 1.0, +1, [3, 1], 2.0), "test system")
    assert np.allclose(rep.solution, [1.5, 0.5, 0.0], atol=1e-12)


def test_duplicate_rows_are_singular():
    # two identical kernel rows with eta = 0 repeat a row of the augmented matrix
    with pytest.raises(SingularSystem, match="^test system: pivot"):
        solve_bordered(system(np.ones((2, 2)), 1.0, 0.0, +1, [1, 1], 1.0), "test system")


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_bordered(system(np.eye(3), 1.0, 1.0, +1, [1, 1], 0.0), "test system")
    with pytest.raises(DimensionMismatch):
        solve_bordered(system(np.ones((2, 3)), 1.0, 1.0, +1, [1, 1], 0.0), "test system")
    with pytest.raises(DimensionMismatch):
        residual(system(np.eye(2), 1.0, 1.0, +1, [1, 1], 0.0), [1, 2])


def test_border_sign_flips_column_only():
    # the sign sits on the border column only, so flipping it negates b and keeps h,
    # bitwise; both signs solve on the one +e matrix, so residual and pivot ratio agree too
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_system(rng, int(rng.integers(1, 8)), +1)
        plus = solve_bordered(s, "test system")
        minus = solve_bordered(system(s.kernel, s.gamma, s.eta, -1, s.rhs_top, s.rhs_bottom),
                               "test system")
        assert minus.h.tobytes() == plus.h.tobytes()
        assert minus.solution[-1:].tobytes() == (-plus.solution[-1:]).tobytes()
        assert minus.residual_norm == plus.residual_norm
        assert minus.pivot_ratio == plus.pivot_ratio


def test_residual_of_exact_solution_is_zero():
    s = system(np.eye(2), 1.0, 1.0, +1, [3, 1], 2.0)
    assert residual(s, [1.5, 0.5, 0.0]) <= 1e-12


def test_residual_scales_linearly_in_perturbation():
    s = system(np.eye(2), 2.0, 0.5, +1, [1, 1], 2.0)
    exact = np.array([1.0, 1.0, 0.0])
    for eps in (1e-6, 1e-3, 1e-1):
        r = residual(s, exact + np.array([eps, 0.0, 0.0]))
        # row 1 changes by eps, the border row by eps as well
        assert r == pytest.approx(eps, rel=1e-9)


def test_residual_of_zero_vector_is_rhs_norm():
    s = system(np.eye(3), 1.0, 1.0, +1, [2, -7, 3], 4.0)
    assert residual(s, np.zeros(4)) == 7.0


def test_solve_then_residual_bound():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = random_system(rng, int(rng.integers(1, 25)))
        rep = solve_bordered(s, "test system")
        _, b = system_matrix(s)
        bound = 1e-8 * max(1.0, float(np.max(np.abs(b))))
        # the reported residual is the system's, evaluated on its kernel; the formed
        # augmented system's residual meets the same bound
        assert rep.residual_norm == kernel_residual(s, rep.solution)
        assert rep.residual_norm <= bound and residual(s, rep.solution) <= bound


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        s = random_system(rng, n)
        perm = rng.permutation(n)
        permuted = system(
            np.asarray(s.kernel)[np.ix_(perm, perm)], s.gamma, s.eta, s.border_sign,
            s.rhs_top[perm], s.rhs_bottom,
        )
        base = solve_bordered(s, "test system").solution
        other = solve_bordered(permuted, "test system").solution
        assert np.allclose(other[:n], base[perm], atol=1e-9)
        assert other[n] == pytest.approx(base[n], abs=1e-9)


def test_matches_full_pivot_oracle_small():
    rng = np.random.default_rng(21)
    for _ in range(60):
        s = random_system(rng, int(rng.integers(1, 9)))
        expected = solve_full_pivot(*system_matrix(s))
        got = solve_bordered(s, "test system").solution
        assert np.allclose(got, expected, atol=1e-9)


def test_report_carries_pivot_ratio():
    rep = solve_bordered(system(np.eye(2), 2.0, 0.5, +1, [1, 1], 2.0), "test system")
    assert np.isfinite(rep.pivot_ratio)
    assert rep.pivot_ratio >= 1.0
    assert rep.name == "test system" and rep.balance_target == 2.0


def test_balance_row_miss_within_residual_bound_is_singular(monkeypatch):
    # A 1e-5 error in h passes the residual bound 1e-8 * 1e4 of this system
    # but not the balance bound 1e-6, so only the balance gate can catch it.
    exact = trkm.solver._getrs

    def off_by_1e5(*args, **kwargs):
        x, info = exact(*args, **kwargs)
        x[0] += 1e-5
        return x, info

    monkeypatch.setattr(trkm.solver, "_getrs", off_by_1e5)
    with pytest.raises(SingularSystem, match="^test system: balance"):
        solve_bordered(system(np.eye(2), 2.0, 0.5, +1, [1e4, 1e4], 0.0), "test system")


def outcome(system):
    """The report fields of one solve as exact values, or its SingularSystem message."""
    try:
        rep = solve_bordered(system, "test system")
    except SingularSystem as exc:
        return str(exc)
    return rep.solution.tobytes(), rep.residual_norm, rep.pivot_ratio


def contents(block):
    """A block's penalties, factors, pivots and pivot ratio as bytes; None while it holds no
    factor."""
    if block.penalties is None:
        return None
    return block.penalties, block.factors.tobytes(), block.piv.tobytes(), repr(block.pivot_ratio)


def on(block, system):
    """``system`` on ``block``."""
    return dataclasses.replace(system, kernel=block)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    log_sigma=st.integers(-5, 5),
    log_gamma=st.floats(-5, 5),
    log_eta=st.one_of(st.floats(-5, 5), st.none()),
    sign=st.sampled_from([-1, 1]),
    repeats=st.booleans(),
)
def test_shared_factor_solves_the_other_sign_bitwise(
    seed, n, log_sigma, log_gamma, log_eta, sign, repeats
):
    # Gaussian Gram blocks are symmetric PSD; wide bandwidths and repeated
    # rows make them near-singular or singular, and eta = 0 (log_eta None)
    # lets that reach the core, so the pivot and residual gates get their turn.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    if repeats and n > 1:
        x[-1] = x[0]
    kernel = gram(gaussian(2.0 ** log_sigma), x, x)
    gamma, eta = 10.0 ** log_gamma, 0.0 if log_eta is None else 10.0 ** log_eta
    first = system(kernel, gamma, eta, sign, rng.normal(size=n) * 10.0, float(n))
    block = KernelBlock.holding(kernel)
    assert outcome(on(block, first)) == outcome(first)
    filled = contents(block)
    for other_sign in (-sign, sign):
        other = system(kernel, gamma, eta, other_sign, rng.normal(size=n), float(rng.normal()))
        assert outcome(on(block, other)) == outcome(other)
        # no solve of either sign changes a held factor or its pivot ratio
        assert contents(block) == filled


def test_non_finite_core_is_refused():
    with pytest.raises(ValueError, match="^core contains non-finite entries$"):
        solve_bordered(system([[1.0, np.nan], [np.nan, 1.0]], 1.0, 1.0, +1, [1, 1], 0.0),
                       "test system")
    with pytest.raises(ValueError, match="^core contains non-finite entries$"):
        solve_bordered(system(np.eye(2), 1.0, np.inf, +1, [1, 1], 0.0), "test system")


def test_a_non_finite_core_or_rhs_is_its_own_error_silently():
    # overflow in forming the system is reported by the finiteness check, not by numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSystem, match="^core contains non-finite entries$"):
            solve_bordered(system(np.eye(2), 1e-320, 1.0, +1, [1, 1], 0.0), "test system")
        with pytest.raises(NonFiniteSystem, match="^rhs_top contains non-finite entries$"):
            solve_bordered(system(np.eye(2), 1.0, 1.0, +1, [1, np.inf], 0.0), "test system")
    assert issubclass(NonFiniteSystem, ValueError)  # so the CLI exits 2, as for its flags


def test_a_solution_that_overflows_is_singular():
    # h = (r - b)/eta overflows to inf, so LU gives nan; a nan residual fails
    # the residual gate as it fails a spectral column, never passes it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="^overflow: residual nan exceeds tolerance"):
            solve_bordered(system(np.zeros((2, 2)), 1.0, 1e-5, +1, [1e305, -1e305], 0.0),
                           "overflow")


# A magnitude from 1e-300 to 1e300 of either sign, or zero.
_MAGNITUDE = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from((-1.0, 1.0)),
              st.integers(-300, 300)),
    st.floats(-1e300, 1e300),
)
# A residual or balance error as a multiple of its bound: within, at, just over, far over.
_RATIO = st.one_of(st.sampled_from((0.0, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 2.0,
                                    float("nan"), float("inf"))),
                   st.floats(0.0, 4.0))


@settings(max_examples=400)
@given(n=st.integers(1, 5), cols=st.integers(1, 4), data=st.data())
def test_gates_give_the_bounds_and_verdicts_each_solver_wrote(n, cols, data):
    # The balance bound is the oracle's, which adds the rounding of sum(h) to the bound
    # both solvers wrote; the residual bound is theirs.
    rhs, h = (np.array(data.draw(st.lists(_MAGNITUDE, min_size=n * cols, max_size=n * cols)))
              .reshape(n, cols) for _ in range(2))
    bottom = data.draw(_MAGNITUDE)
    ratios = data.draw(st.lists(st.tuples(_RATIO, _RATIO, st.sampled_from((-1.0, 1.0)),
                                          st.booleans()), min_size=cols, max_size=cols))
    res_ratio, bal_ratio, bal_sign, ok = map(np.array, zip(*ratios))
    bound = trkm.solver.residual_bound(rhs, bottom)
    residual = res_ratio * bound
    total = bottom + bal_sign * bal_ratio * np.array(
        [oracles.balance_tolerance(column, bottom) for column in h.T])
    old_bound, old_passed = oracles.spectral_gates(rhs, bottom, residual, h, total, ok)
    assert bound.tobytes() == old_bound.tobytes()
    passed = (residual <= bound) & trkm.solver.balance_met(h, total, bottom) & ok
    assert passed.tolist() == old_passed.tolist()
    for j in range(cols):
        tol, old_res_refused, old_bal_refused = oracles.bordered_gates(
            rhs[:, j], bottom, float(residual[j]), h[:, j], float(total[j]))
        assert np.float64(trkm.solver.residual_bound(rhs[:, j], bottom)).tobytes() == \
            np.float64(tol).tobytes()
        res_refused = not residual[j] <= tol
        bal_refused = not trkm.solver.balance_met(h[:, j], float(total[j]), bottom)
        # solve_bordered's old checks let a nan through; the one rule refuses it
        assert res_refused == (old_res_refused or np.isnan(residual[j]))
        assert bal_refused == (old_bal_refused or np.isnan(total[j]))


def test_the_balance_bound_never_overflows_and_a_non_finite_one_passes_nothing():
    # A naive sum of |h| overflows to inf on the first h; an inf bound passes no column.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trkm.solver.balance_met(np.array([1.7e308, -1.7e308, 1.0]), 1.0, 1.0)
        assert not trkm.solver.balance_met(np.array([np.inf, 1.0]), np.inf, 0.0)
        assert not trkm.solver.balance_met(np.array([1.0]), -1.7e308, 1.7e308)
        assert not trkm.solver.balance_met(np.array([[np.nan], [1.0]]), np.array([1.0]), 1.0)[0]


def family(block, sign, rhs_fixed, rhs_scaled, rhs_bottom, name="test system"):
    return BorderedFamily(name, block, sign, np.asarray(rhs_fixed, dtype=float),
                          np.asarray(rhs_scaled, dtype=float), rhs_bottom)


@pytest.mark.parametrize("sign", [+1, -1])
def test_spectral_columns_match_the_full_pivot_oracle(rng, sign):
    x = rng.normal(size=(7, 2))
    kernel = gram(gaussian(1.0), x, x)
    gammas, etas = np.array([0.1, 1.0, 10.0]), np.array([1.0, 0.01, 0.5])
    block = KernelBlock.holding(kernel)
    fixed, scaled = rng.normal(size=7), rng.normal(size=7)
    solved, twin = solve_spectral([family(block, sign, fixed, scaled, 1.5),
                                   family(block, -sign, fixed, scaled, 1.5)], gammas, etas)
    # the other sign negates b and keeps h, bitwise
    assert twin.h.tobytes() == solved.h.tobytes() and twin.b.tobytes() == (-solved.b).tobytes()
    assert solved.passed.all()
    assert np.allclose(solved.h.sum(axis=0), 1.5, rtol=0, atol=1e-10)
    for j in range(3):
        oracle = solve_full_pivot(*system_matrix(system(kernel, gammas[j], etas[j], sign,
                                                        fixed + scaled / gammas[j], 1.5)))
        assert np.allclose(np.append(solved.h[:, j], solved.b[j]), oracle, rtol=1e-9, atol=1e-9)
        assert abs(solved.b[j]) <= solved.b_size[j]
        d = np.linalg.eigvalsh(kernel) / gammas[j] + etas[j]
        assert np.isclose(solved.spread[j], d.max() / d.min(), rtol=1e-12)


def test_spectral_column_with_a_zero_shifted_eigenvalue_fails_its_gates():
    kernel = np.diag([-1.0, 1.0, 2.0])  # d = lambda/gamma + eta is 0 in the first column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (solved,) = solve_spectral([family(KernelBlock.holding(kernel), +1, np.ones(3),
                                           np.zeros(3), 0.0)], [1.0, 1.0], [1.0, 2.0])
    assert solved.passed.tolist() == [False, True]


def spectral_bytes(result):
    """Every array field of a SpectralSolve, as bytes."""
    return tuple(getattr(result, f.name).tobytes() for f in dataclasses.fields(result))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    penalties=st.lists(st.tuples(st.sampled_from((1e-320, 1e-5, 1e-2, 1.0, 1e5)),
                                 st.sampled_from((0.0, 1e-5, 1e-2, 1.0, 1e5))),
                       min_size=1, max_size=6),
)
def test_systems_sharing_one_spectral_shift_solve_as_with_their_own(seed, n, penalties):
    # TRKM-R's twins solve through one eigh of their fold kernel. A random
    # symmetric kernel is indefinite, so shifted spectra can be zero or negative,
    # gamma = 1e-320 overflows them, and the last column always has a zero d:
    # such columns fail their gates, on a shared block as on their own.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    kernel = (a + a.T) / 2.0
    gammas, etas = np.array([*penalties, (1.0, -float(np.linalg.eigh(kernel)[0].max()))]).T
    shared = KernelBlock.holding(kernel)
    twins = [family(shared, sign, rng.normal(size=n), rng.normal(size=n), float(rng.normal()),
                    name) for sign, name in ((+1, "lower"), (-1, "upper"))]
    real_eigh, eighs = np.linalg.eigh, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda *args: eighs.append(1) or real_eigh(*args))
        together = solve_spectral(twins, gammas, etas)
    assert len(eighs) == 1
    for twin, solved in zip(twins, together):
        alone = dataclasses.replace(twin, kernel=KernelBlock.holding(kernel))
        (own,) = solve_spectral([alone], gammas, etas)
        assert spectral_bytes(solved) == spectral_bytes(own)
        assert not own.passed[-1]
    assert np.asarray(shared).tobytes() == kernel.tobytes()  # no solve changes the block


# Augmented matrices of order LDL_MIN_ORDER and more are factored by LDL^T (sytrf);
# forcing the gate past every order puts the same system on LU for comparison.
ORDER = trkm.solver.LDL_MIN_ORDER


def gram_system(rng, n, sign=+1, sigma=1.0, gamma=1.0, eta=0.1):
    x = rng.normal(size=(n, 3))
    return system(gram(gaussian(sigma), x, x), gamma, eta, sign, rng.normal(size=n), float(n))


def verdict(system):
    """'passed', or the gate a SingularSystem names: 'pivot', 'residual' or 'balance'."""
    try:
        solve_bordered(system, "test system")
    except SingularSystem as exc:
        return str(exc).split()[2]
    return "passed"


@pytest.mark.parametrize("order, routines", [
    (ORDER - 1, ("_getrf", "_getrs")), (ORDER, ("_sytrf", "_sytrs")),
])
def test_the_order_chooses_lu_or_ldlt(monkeypatch, rng, order, routines):
    names = ("_getrf", "_getrs", "_sytrf", "_sytrs")
    counts = counting(monkeypatch, *names)
    s = gram_system(rng, order - 1)
    block = KernelBlock.holding(s.kernel)
    for sign in (+1, -1):
        solve_bordered(on(block, dataclasses.replace(s, border_sign=sign)), "test system")
    assert [counts[name] > 0 for name in names] == [name in routines for name in names]
    assert counts[routines[0]] == 1  # one factor per twin


@pytest.mark.parametrize("order", [ORDER - 1, ORDER])
def test_the_factor_follows_the_blocks_penalties(monkeypatch, rng, order):
    # A block factors once per (gamma, eta) it is solved at, for both signs. A solve at other
    # penalties that fails after forming leaves no stale factor: above the gate it formed
    # over the held one, and the block then holds none; below it, the held LU factor is
    # getrf's own array, kept and used.
    counts = counting(monkeypatch, "_getrf", "_sytrf")
    s = gram_system(rng, order - 1)
    block = KernelBlock.holding(s.kernel)
    at = lambda **changes: on(block, dataclasses.replace(s, **changes))
    for sign in (+1, -1):
        solve_bordered(at(border_sign=sign), "test system")
    assert sum(counts.values()) == 1 and block.penalties == (s.gamma, s.eta)
    other = outcome(at(gamma=3.0, eta=0.01))
    assert sum(counts.values()) == 2 and block.penalties == (3.0, 0.01)
    held = contents(block)
    inf_rhs = np.where(np.arange(order - 1) == 3, np.inf, s.rhs_top)
    for failing, error, message in (
        (at(gamma=2.0, rhs_top=inf_rhs), NonFiniteSystem, "^rhs_top contains non-finite"),
        (at(gamma=1e300, eta=1e-300), SingularSystem, "^test system: pivot"),
    ):
        assert outcome(at(gamma=3.0, eta=0.01)) == other and contents(block) == held
        with pytest.raises(error, match=message):
            solve_bordered(failing, "test system")
        assert contents(block) == (None if order >= ORDER else held)
    # the pivot failure factored; above the gate the held factor was made a second time
    assert sum(counts.values()) == (4 if order >= ORDER else 3)
    assert outcome(at()) == outcome(s)  # s's own block holds no factor yet
    assert sum(counts.values()) == (6 if order >= ORDER else 5)


@pytest.mark.parametrize("sign", [+1, -1])
def test_ldlt_solves_as_lu_does_above_the_gate(monkeypatch, rng, sign):
    # Both factor one well-conditioned Gaussian system of order ORDER + 50; they round
    # differently, so solutions agree to 1e-10 relative. Their pivots differ, and so do
    # their pivot ratios. A block takes its layout when made, so LU's is made past the gate.
    s = gram_system(rng, ORDER + 49, sign)
    ldlt = solve_bordered(s, "test system")
    monkeypatch.setattr(trkm.solver, "LDL_MIN_ORDER", 10**9)
    lu = solve_bordered(on(KernelBlock.holding(s.kernel), s), "test system")
    scale = float(np.max(np.abs(lu.solution)))
    assert np.allclose(ldlt.solution, lu.solution, rtol=0, atol=1e-10 * scale)
    assert ldlt.residual_norm <= trkm.solver.residual_bound(s.rhs_top, s.rhs_bottom)
    # a passing residual's K h on a formed block is dsymv's, which rounds otherwise than the
    # oracle's gemv
    assert abs(ldlt.residual_norm - kernel_residual(s, ldlt.solution)) <= \
        oracles.residual_drift(s, ldlt.solution)


def test_both_signs_share_one_ldlt_factor_bitwise(rng):
    s = gram_system(rng, ORDER + 9, +1)
    fresh = outcome(dataclasses.replace(s, border_sign=-1))
    block = KernelBlock.holding(s.kernel)
    plus = solve_bordered(on(block, s), "test system")
    minus = solve_bordered(on(block, dataclasses.replace(s, border_sign=-1)), "test system")
    assert block.symmetric
    assert minus.h.tobytes() == plus.h.tobytes()
    assert minus.solution[-1:].tobytes() == (-plus.solution[-1:]).tobytes()
    assert (minus.residual_norm, minus.pivot_ratio) == (plus.residual_norm, block.pivot_ratio)
    assert fresh == (minus.solution.tobytes(), minus.residual_norm, minus.pivot_ratio)


def test_a_vanishing_core_above_the_gate_is_a_pivot_failure(rng):
    # K/gamma + eta*I is near 1e-300 while the border is 1: D's smallest pivot is tiny.
    s = gram_system(rng, ORDER, gamma=1e300, eta=1e-300)
    with pytest.raises(SingularSystem, match="^test system: pivot .* below relative threshold"):
        solve_bordered(s, "test system")


def test_a_huge_core_above_the_gate_is_a_pivot_failure_silently(rng):
    # K/gamma near 1e306: the column sums of the 1-norm overflow to inf, as lange's did,
    # with no RuntimeWarning, and the pivot floor refuses the system.
    s = gram_system(rng, ORDER, sigma=50.0, gamma=1e-306, eta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="^test system: pivot .* below relative threshold"):
            solve_bordered(s, "test system")


def test_a_nearly_flat_kernel_keeps_lus_verdict_above_the_gate(monkeypatch, rng):
    # sigma = 32 and gamma = eta = 1e-5, the hardest grid cell: TRKM-R's systems on a
    # sine sample pass on both paths, and random right-hand sides fail the residual
    # gate on both. Each path states the systems on new blocks, which hold no factor.
    from trkm.regressor import systems

    x, y = sine(ORDER, seed=2)
    randoms = [gram_system(rng, ORDER, sign, sigma=32.0, gamma=1e-5, eta=1e-5)
               for sign in (+1, -1)]

    def verdicts():
        twins = [family.at(1e-5, 1e-5) for family in systems((x, y), gaussian(32.0))]
        return [verdict(s) for s in twins + [on(KernelBlock.holding(r.kernel), r)
                                             for r in randoms]]

    ldlt = verdicts()
    monkeypatch.setattr(trkm.solver, "LDL_MIN_ORDER", 10**9)
    assert ldlt == verdicts() == ["passed"] * 2 + ["residual"] * 2


def traced_peak(call):
    """The most bytes ``call()`` holds at once beyond what was allocated before it; numpy's
    arrays and the ones f2py makes for LAPACK are both traced."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_large_solve_holds_one_formed_array(rng):
    # sytrf factors the formed matrix in its own buffer and every residual is evaluated
    # on the kernel, so a solve above the gate holds one (n+1)^2 array (and O(n) ones)
    # beyond its inputs, where a kept matrix and a factor copy of it would be three. The
    # block is made in the traced call, as the one array.
    n = 600
    s = gram_system(rng, n)
    formed = (n + 1) ** 2 * 8
    assert traced_peak(lambda: solve_bordered(on(KernelBlock.holding(s.kernel), s),
                                              "test system")) <= 1.25 * formed
    block = KernelBlock.holding(s.kernel)
    solve_bordered(on(block, s), "test system")
    assert block.symmetric and np.shares_memory(block.factors, block.store)


def test_the_finiteness_check_holds_no_n_squared_temporary(rng):
    # The core is checked for non-finite entries by two reductions, not by an n^2
    # boolean mask (0.125 formed sizes, which put this solve at 1.147); what the solve
    # holds beyond one formed array, its block's, is mostly sytrf's n x nb workspace (1.108).
    n = 600
    s = gram_system(rng, n)
    assert traced_peak(lambda: solve_bordered(on(KernelBlock.holding(s.kernel), s),
                                              "test system")) <= 1.12 * (n + 1) ** 2 * 8


def two_class(n):
    """n rows of three features in two classes of n/2 rows each, alternating."""
    x = np.random.default_rng(n).normal(size=(n, 3))
    return x, np.where(np.arange(n) % 2, -1.0, 1.0)


FIT_CASES = [("rkm", CLASSIFY, {}), ("trkm", CLASSIFY, {}), ("trkm", REGRESS, {}),
             ("trkm", REGRESS, {"gamma2": 2.0, "eta2": 0.2})]
FIT_IDS = ["rkm", "trkm-classify", "trkm-regress", "trkm-regress-unequal"]


def fit_data(kind, task, order):
    """Rows and targets whose kernel blocks are all of ``order`` - 1 rows, and those sizes."""
    if task == REGRESS:
        return (*sine(order - 1, seed=1), [order - 1])
    if kind == "rkm":
        return (*two_class(order - 1), [order - 1])
    return (*two_class(2 * (order - 1)), [order - 1] * 2)


@pytest.mark.parametrize("kind, task, second", FIT_CASES, ids=FIT_IDS)
def test_a_fit_holds_one_formed_array_per_kernel_block(kind, task, second):
    # Each training Gram block is assembled in the (n+1)^2 array in which its systems are
    # formed and factored, and TRKM-C's cross block is dropped first, so a fit holds one such
    # array per kernel block, kernel included (a kernel and a formed matrix beside it made
    # about 2.15); TRKM-R at unequal penalties forms its second matrix over the first factor.
    x, y, blocks = fit_data(kind, task, 601)
    params = {"gamma": 1.0, "eta": 0.1, "sigma": 1.0, **second}
    peak = traced_peak(lambda: models.fit(kind, task, x, y, params))
    assert peak <= 1.25 * sum((m + 1) ** 2 * 8 for m in blocks)


@pytest.mark.parametrize("order", [ORDER, 601])
@pytest.mark.parametrize("kind, task, second", FIT_CASES, ids=FIT_IDS)
def test_a_fit_in_its_kernel_blocks_solves_as_a_separate_array_did(kind, task, second, order):
    # h, b and the pivot ratio bitwise; the residual within a dot product's rounding, as a
    # passing residual's K h on a formed block is dsymv's where the separate array's was a gemv.
    x, y, _ = fit_data(kind, task, order)
    params = {"gamma": 0.5, "eta": 0.25, "sigma": 1.0, **second}
    model = models.fit(kind, task, x, y, params)
    entry = models.model_type(kind, task)
    families, _ = entry.statement(x, y, x[:1], gaussian(1.0))
    for family, penalties, report in zip(families, entry.system_penalties(params),
                                         model.fit_diag):
        system = family.at(*penalties)
        solution, res_norm, ratio = oracles.separate_array_solve(system)
        assert report.solution.tobytes() == solution.tobytes()
        assert abs(report.residual_norm - res_norm) <= oracles.residual_drift(system, solution)
        assert report.pivot_ratio == ratio


def test_successive_penalties_on_one_block_solve_as_a_separate_array_did():
    # Each solve at new penalties forms its matrix over the last factor, from K in the upper
    # triangle and the saved diagonal, and takes a passing residual's K h from there by dsymv.
    x, y = sine(600, seed=4)
    family = regressor.systems((x, y), gaussian(0.5))[1]
    pairs = ((0.5, 0.25), (3.0, 1e-3), (0.5, 0.25))
    fresh = [oracles.separate_array_solve(family.at(g, e)) for g, e in pairs]
    for (g, e), (solution, res_norm, ratio) in zip(pairs, fresh):
        report = solve_bordered(family.at(g, e), "test system")
        assert (report.solution.tobytes(), report.pivot_ratio) == (solution.tobytes(), ratio)
        assert abs(report.residual_norm - res_norm) <= \
            oracles.residual_drift(family.at(g, e), solution)
    assert family.kernel.diagonal is not None  # the block was formed and factored in place


@pytest.mark.parametrize("n", [313, 600, 625])
def test_a_kernel_block_reads_k_back_from_its_upper_triangle(rng, n):
    x = rng.normal(size=(n, 3))
    k = gram(gaussian(1.3), x, x)
    block = KernelBlock.of(gaussian(1.3), x)
    h = rng.normal(size=n)
    assert (block @ h).tobytes() == (k @ h).tobytes() and len(row_blocks(n)) > 1
    assert block.symv(h)[0].tobytes() == (k @ h).tobytes() and block.symv(h)[1] is None
    for gamma, eta in ((0.5, 0.25), (2.0, 1e-5)):
        a = block.formed(gamma, eta)
        assert np.asarray(block).tobytes() == k.tobytes()
        assert (block @ h).tobytes() == (k @ h).tobytes()
        assert_symv_within_rounding(block, k, h)
        formed = trkm.solver._augmented(k, gamma, eta)
        assert np.tril(a).tobytes() == np.tril(formed).tobytes()
        a[np.tril_indices(n + 1)] = np.nan  # as a factor would: K stays in the upper triangle
    assert np.asarray(block).tobytes() == k.tobytes()
    assert (block @ h).tobytes() == (k @ h).tobytes()
    assert_symv_within_rounding(block, k, h)


@pytest.mark.parametrize("gamma, eta", [(1e-5, 0.1), (1e-4, 1e-2), (0.1, 1e-5)])
def test_a_residual_at_the_bound_is_decided_by_ks_rows(gamma, eta):
    # On 432 normalized blob rows at sigma 0.125 these RKM solves pass with K's rows' residual
    # just under the 1e-8 bound, while dsymv's, summed in another order, lies over it at most
    # of them: the rows' residual decides, so the report is bitwise the separate array's, and
    # the two residuals lie within _rounding_gap of each other.
    x, y = blobs(270, 1.0, seed=5)
    data = normalize_minmax(Dataset(X=x, target=y, task=CLASSIFY))
    rows = kfold_indices(data.n, 5, 0)[0][0]
    x, y = data.X[rows], np.asarray(data.target[rows], dtype=float)
    model = models.fit("rkm", CLASSIFY, x, y, {"gamma": gamma, "eta": eta, "sigma": 0.125})
    family, = rkm.systems((x, y), gaussian(0.125))
    system = family.at(gamma, eta)
    solution, res_norm, _ = oracles.separate_array_solve(system)
    report = model.fit_diag[0]
    assert (report.solution.tobytes(), report.residual_norm) == (solution.tobytes(), res_norm)
    assert 5e-9 < res_norm <= trkm.solver.residual_bound(system.rhs_top, system.rhs_bottom)
    # the same solution on a block formed as the fit's was
    block = family.kernel
    block.formed(gamma, eta)
    n, (kh, size) = len(x), block.symv(solution[:-1])
    args = (gamma, eta, solution[:n], solution[n], system.rhs_top, system.rhs_bottom)
    fast = float(np.abs(trkm.solver.residual(kh, *args)[0]).max())
    assert abs(fast - res_norm) <= trkm.solver._rounding_gap(size, gamma, eta, solution,
                                                             system.rhs_top)


def assert_symv_within_rounding(block, k, h):
    # dsymv on the upper triangle sums K h in another order than K's rows: within a dot
    # product's rounding of the gemv, by a size that bounds |K| |h|
    kh, size = block.symv(h)
    assert (np.abs(kh - k @ h) <= oracles.gemv_drift(k, h)).all()
    assert size >= (np.abs(k) @ np.abs(h)).max()


def test_symv_leaves_the_blocks_factor_as_it_was(rng):
    # dsymv reads K's diagonal from the block for the call and column n of the store, which
    # np.empty may leave as nan: the first form zeroes it, and the factor's diagonal comes
    # back after the call.
    n = ORDER + 13
    block = KernelBlock.of(gaussian(1.0), rng.normal(size=(n, 3)))
    block.store[:n, n] = np.nan
    block.factor(block.formed(1.0, 0.1), 1.0, 0.1, "test system")
    rhs = rng.normal(size=n + 1)
    solution, store = block.solve(rhs).tobytes(), block.store.tobytes()
    product, _ = block.symv(rng.normal(size=n))
    assert block.symmetric and np.isfinite(product).all()
    assert block.store.tobytes() == store
    assert block.solve(rhs).tobytes() == solution


@pytest.mark.parametrize("spec", [gaussian(1.3), linear()], ids=["gaussian", "linear"])
@pytest.mark.parametrize("n", [214, ORDER - 1, ORDER, ORDER + 13, 777])
def test_a_kernel_block_evaluates_the_upper_trapezoid_of_its_gram(monkeypatch, rng, spec, n):
    # Each row block's gram call starts at its first row's column, and the strict lower part
    # is copied from the rows above in 256-row strips, on either side of the gate (214 rows
    # are two row blocks; 777 are several, and more than one strip).
    x = rng.normal(size=(n, 4))
    entries = []

    def counted(spec, left, right):
        entries.append(len(left) * len(right))
        return gram(spec, left, right)

    monkeypatch.setattr(trkm.solver, "gram", counted)
    block = KernelBlock.of(spec, x)
    k = gram(spec, x, x)
    assert np.asarray(block).tobytes() == k.tobytes() and len(row_blocks(n)) > 1
    assert sum(entries) == sum((stop - start) * (n - start) for start, stop in row_blocks(n))
    assert block.largest == np.abs(k).max()


def sytrf(a):
    """The upper LDL^T factor and pivots of a symmetric matrix ``a``, as the solver takes them."""
    a = np.asarray(a, dtype=float)
    return trkm.solver._sytrf(a.T, lwork=int(trkm.solver._sytrf_lwork(len(a))[0]))[:2]


def test_block_pivots_of_bordered_matrices_with_a_zero_diagonal():
    # [[0, 1], [1, 0]] is one 2x2 block, eigenvalues +-1. [[3, 1], [1, 0]] pivots
    # on 3 after an interchange, then leaves 0 - 1/3.
    swap = sytrf([[0.0, 1.0], [1.0, 0.0]])
    assert swap[1].tolist() == [-1, -1]
    assert trkm.solver._block_pivots(*swap).tolist() == [1.0, 1.0]
    assert np.allclose(np.sort(trkm.solver._block_pivots(*sytrf([[3.0, 1.0], [1.0, 0.0]]))),
                       [1.0 / 3.0, 3.0], rtol=1e-15, atol=0)
    # A small core and a ones border take 2x2 blocks; their pivots are the |eigenvalues|
    # of the block diagonal D that scipy's ldl reads from the same sytrf, and their
    # product is |det(a)|.
    from scipy.linalg import ldl

    a = np.ones((6, 6))
    a[:5, :5] = np.diag([1e-3, 2e-3, 3.0, 4e-3, 5.0]) + 1e-4
    a[5, 5] = 0.0
    ldu, ipiv = sytrf(a)
    assert (ipiv < 0).any()
    pivots = trkm.solver._block_pivots(ldu, ipiv)
    _, d, _ = ldl(a, lower=False)
    assert np.allclose(np.sort(pivots), np.sort(np.abs(np.linalg.eigvalsh(d))), rtol=1e-13,
                       atol=0)
    assert np.prod(pivots) == pytest.approx(abs(np.linalg.det(a)), rel=1e-12)


def test_a_non_symmetric_kernel_above_the_gate_fails_the_residual_gate(rng):
    # sytrf reads the lower triangle and the residual the upper one, so the residual gate
    # refuses the result instead of returning a wrong solution.
    s = gram_system(rng, ORDER)
    k = np.asarray(s.kernel)
    lopsided = on(KernelBlock.holding(k + np.triu(np.full_like(k, 5.0), 1)), s)
    with pytest.raises(SingularSystem, match="^test system: residual .* exceeds tolerance"):
        solve_bordered(lopsided, "test system")

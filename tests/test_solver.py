import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm import models, regressor
from trkm.data import CLASSIFY, REGRESS
from trkm.errors import DimensionMismatch, NonFiniteSystem, SingularSystem
from trkm.kernels import bordered_gram, gaussian, gram, row_blocks
import trkm.solver
from trkm.solver import (
    BorderedSystem,
    KernelBlock,
    SharedFactor,
    solve_bordered,
    spectral_shift,
)
from trkm.synthetic import sine

import oracles
from conftest import counting
from oracles import kernel_residual, residual, solve_full_pivot, system_matrix


def system(kernel, gamma, eta, sign, rhs_top, rhs_bottom):
    return BorderedSystem(
        kernel=np.asarray(kernel, dtype=float),
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
    # bitwise; both signs solve on the one +e matrix, so residual and estimate agree too
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_system(rng, int(rng.integers(1, 8)), +1)
        plus = solve_bordered(s, "test system")
        minus = solve_bordered(system(s.kernel, s.gamma, s.eta, -1, s.rhs_top, s.rhs_bottom),
                               "test system")
        assert minus.h.tobytes() == plus.h.tobytes()
        assert minus.solution[-1:].tobytes() == (-plus.solution[-1:]).tobytes()
        assert minus.residual_norm == plus.residual_norm
        assert minus.condition_estimate == plus.condition_estimate


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
            s.kernel[np.ix_(perm, perm)], s.gamma, s.eta, s.border_sign,
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


def test_report_carries_condition_estimate():
    rep = solve_bordered(system(np.eye(2), 2.0, 0.5, +1, [1, 1], 2.0), "test system")
    assert np.isfinite(rep.condition_estimate)
    assert rep.condition_estimate >= 1.0
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


def outcome(system, factor=None):
    """The report fields of one solve as exact values, or its SingularSystem message."""
    try:
        rep = solve_bordered(system, "test system", factor=factor)
    except SingularSystem as exc:
        return str(exc)
    return rep.solution.tobytes(), rep.residual_norm, rep.condition_estimate


def without_estimate(fields):
    """``outcome`` of the same solve on a ``SharedFactor(estimate=False)``: only the estimate
    goes."""
    return fields if isinstance(fields, str) else (*fields[:2], None)


def contents(factor):
    """A factor's factors, pivots and estimate as bytes; None while it is empty."""
    if factor.factors is None:
        return None
    return factor.factors.tobytes(), factor.piv.tobytes(), repr(factor.cond)


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
    # ``lean`` is made with no estimate, as grid refits make theirs: its solves
    # differ from those on a factor that estimates only in the estimate.
    first = system(kernel, gamma, eta, sign, rng.normal(size=n) * 10.0, float(n))
    shared, lean = SharedFactor(), SharedFactor(estimate=False)
    fresh = outcome(first)
    assert outcome(first, shared) == fresh
    assert outcome(first, lean) == without_estimate(fresh)
    assert lean.cond is None
    filled = (contents(shared), contents(lean))
    for other_sign in (-sign, sign):
        other = system(kernel, gamma, eta, other_sign, rng.normal(size=n), float(rng.normal()))
        fresh = outcome(other)
        assert outcome(other, shared) == fresh
        assert outcome(other, lean) == without_estimate(fresh)
        # no solve of either sign changes a filled factor or its estimate
        assert (contents(shared), contents(lean)) == filled


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    log_scale=st.integers(-300, 300),
    bordered_gram=st.booleans(),
)
def test_one_norm_is_the_numpy_column_sum_bitwise(seed, n, log_scale, bordered_gram):
    # LAPACK lange on a.T against the expression it replaced, on bordered Gaussian
    # Gram matrices and on non-symmetric matrices of any scale.
    rng = np.random.default_rng(seed)
    if bordered_gram:
        x = rng.normal(size=(n, 3))
        a = trkm.solver._augmented(gram(gaussian(float(rng.uniform(0.1, 4.0))), x, x),
                                   10.0 ** rng.uniform(-5, 5), 10.0 ** rng.uniform(-5, 5))
    else:
        a = rng.normal(size=(n, n)) * 10.0 ** (log_scale / 2)
    assert trkm.solver._one_norm(a) == float(np.max(np.abs(a).sum(axis=0)))


def test_a_factor_of_another_system_never_gives_a_wrong_solution():
    # Nothing checks that a factor was made for its system; refinement and the
    # residual gate run on the system's own kernel and penalties, so a mismatch
    # converges to the system's own solution or fails.
    rng = np.random.default_rng(5)
    s = random_system(rng, 5, +1)
    shared = SharedFactor()
    solve_bordered(s, "test system", factor=shared)
    near = system(s.kernel + 1e-12, s.gamma, s.eta, -1, s.rhs_top, s.rhs_bottom)
    solved, own = solve_bordered(near, "test system", factor=shared), solve_bordered(near, "x")
    assert np.max(np.abs(solved.solution - own.solution)) <= 5e-13
    assert solved.residual_norm <= trkm.solver.residual_bound(near.rhs_top, near.rhs_bottom)
    for other in (system(s.kernel, s.gamma * 2.0, s.eta, -1, s.rhs_top, s.rhs_bottom),
                  system(s.kernel, s.gamma, s.eta + 1.0, -1, s.rhs_top, s.rhs_bottom)):
        with pytest.raises(SingularSystem, match="^test system: residual .* exceeds tolerance"):
            solve_bordered(other, "test system", factor=shared)
    # a smaller system's right-hand side does not fit the factor: f2py refuses it
    smaller = system(s.kernel[:4, :4], s.gamma, s.eta, -1, s.rhs_top[:4], s.rhs_bottom)
    with pytest.raises(ValueError, match="dimension must be fixed to 6 but got 5"):
        solve_bordered(smaller, "test system", factor=shared)
    # a copy of the same kernel is the same system
    same = system(s.kernel.copy(), s.gamma, s.eta, -1, s.rhs_top, s.rhs_bottom)
    assert outcome(same, shared) == outcome(same)


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
    rhs = np.array(data.draw(st.lists(_MAGNITUDE, min_size=n * cols, max_size=n * cols)))
    rhs = rhs.reshape(n, cols)
    bottom = data.draw(_MAGNITUDE)
    ratios = data.draw(st.lists(st.tuples(_RATIO, _RATIO, st.sampled_from((-1.0, 1.0)),
                                          st.booleans()), min_size=cols, max_size=cols))
    res_ratio, bal_ratio, bal_sign, ok = map(np.array, zip(*ratios))
    bound = trkm.solver.residual_bound(rhs, bottom)
    residual = res_ratio * bound
    total = bottom + bal_sign * bal_ratio * trkm.solver.BALANCE_RTOL * max(1.0, abs(bottom))
    old_bound, old_passed = oracles.spectral_gates(rhs, bottom, residual, total, ok)
    assert bound.tobytes() == old_bound.tobytes()
    passed = (residual <= bound) & trkm.solver.balance_met(total, bottom) & ok
    assert passed.tolist() == old_passed.tolist()
    for j in range(cols):
        tol, old_res_refused, old_bal_refused = oracles.bordered_gates(
            rhs[:, j], bottom, float(residual[j]), float(total[j]))
        assert np.float64(trkm.solver.residual_bound(rhs[:, j], bottom)).tobytes() == \
            np.float64(tol).tobytes()
        res_refused = not residual[j] <= tol
        bal_refused = not trkm.solver.balance_met(float(total[j]), bottom)
        # solve_bordered's old checks let a nan through; the one rule refuses it
        assert res_refused == (old_res_refused or np.isnan(residual[j]))
        assert bal_refused == (old_bal_refused or np.isnan(total[j]))


@pytest.mark.parametrize("sign", [+1, -1])
def test_spectral_columns_match_the_full_pivot_oracle(rng, sign):
    x = rng.normal(size=(7, 2))
    kernel = gram(gaussian(1.0), x, x)
    gammas, etas = np.array([0.1, 1.0, 10.0]), np.array([1.0, 0.01, 0.5])
    rhs = rng.normal(size=(7, 3))
    shift = spectral_shift(kernel, gammas, etas)
    solved = trkm.solver.solve_spectral(kernel, sign, rhs, 1.5, shift)
    twin = trkm.solver.solve_spectral(kernel, -sign, rhs, 1.5, shift)
    # the other sign negates b and keeps h, bitwise
    assert twin.h.tobytes() == solved.h.tobytes() and twin.b.tobytes() == (-solved.b).tobytes()
    assert solved.passed.all()
    assert np.allclose(solved.h.sum(axis=0), 1.5, rtol=0, atol=1e-10)
    for j in range(3):
        oracle = solve_full_pivot(*system_matrix(system(kernel, gammas[j], etas[j], sign,
                                                        rhs[:, j], 1.5)))
        assert np.allclose(np.append(solved.h[:, j], solved.b[j]), oracle, rtol=1e-9, atol=1e-9)
        assert abs(solved.b[j]) <= solved.b_size[j]


def test_spectral_column_with_a_zero_shifted_eigenvalue_fails_its_gates():
    kernel = np.diag([-1.0, 1.0, 2.0])  # d = lambda/gamma + eta is 0 in the first column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shift = spectral_shift(kernel, [1.0, 1.0], [1.0, 2.0])
        solved = trkm.solver.solve_spectral(kernel, +1, np.ones((3, 2)), 0.0, shift)
    assert solved.passed.tolist() == [False, True]


def spectral_bytes(result):
    """Every array field of a SpectralShift or SpectralSolve, as bytes."""
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
    # TRKM-R's twins solve through one shift of their fold kernel. A random
    # symmetric kernel is indefinite, so shifted spectra can be zero or negative,
    # gamma = 1e-320 overflows them, and the last column always has a zero d:
    # such columns fail their gates, through a shared shift as through their own.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    kernel = (a + a.T) / 2.0
    gammas, etas = np.array([*penalties, (1.0, -float(np.linalg.eigh(kernel)[0].max()))]).T
    shared = spectral_shift(kernel, gammas, etas)
    filled = spectral_bytes(shared)
    for sign in (+1, -1):
        rhs, bottom = rng.normal(size=(n, len(gammas))), float(rng.normal())
        own = trkm.solver.solve_spectral(kernel, sign, rhs, bottom,
                                         spectral_shift(kernel, gammas, etas))
        assert spectral_bytes(trkm.solver.solve_spectral(
            kernel, sign, rhs, bottom, shared)) == spectral_bytes(own)
        assert not own.passed[-1]
    assert spectral_bytes(shared) == filled  # no solve changes the shift


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
    (ORDER - 1, ("_getrf", "_getrs", "_gecon")), (ORDER, ("_sytrf", "_sytrs", "_sycon")),
])
def test_the_order_chooses_lu_or_ldlt(monkeypatch, rng, order, routines):
    names = ("_getrf", "_getrs", "_gecon", "_sytrf", "_sytrs", "_sycon")
    counts = counting(monkeypatch, *names)
    s, shared = gram_system(rng, order - 1), SharedFactor()
    for sign in (+1, -1):
        solve_bordered(dataclasses.replace(s, border_sign=sign), "test system", factor=shared)
    assert [counts[name] > 0 for name in names] == [name in routines for name in names]
    assert counts[routines[0]] == counts[routines[2]] == 1  # one factor and estimate per twin


@pytest.mark.parametrize("sign", [+1, -1])
def test_ldlt_solves_as_lu_does_above_the_gate(monkeypatch, rng, sign):
    # Both factor one well-conditioned Gaussian system of order ORDER + 50; they round
    # differently, so solutions agree to 1e-10 relative and the estimates to 1e-8.
    s = gram_system(rng, ORDER + 49, sign)
    ldlt = solve_bordered(s, "test system")
    monkeypatch.setattr(trkm.solver, "LDL_MIN_ORDER", 10**9)
    lu = solve_bordered(s, "test system")
    scale = float(np.max(np.abs(lu.solution)))
    assert np.allclose(ldlt.solution, lu.solution, rtol=0, atol=1e-10 * scale)
    assert ldlt.condition_estimate == pytest.approx(lu.condition_estimate, rel=1e-8)
    assert ldlt.residual_norm <= trkm.solver.residual_bound(s.rhs_top, s.rhs_bottom)
    assert ldlt.residual_norm == kernel_residual(s, ldlt.solution)


def test_both_signs_share_one_ldlt_factor_bitwise(rng):
    s = gram_system(rng, ORDER + 9, +1)
    fresh = outcome(dataclasses.replace(s, border_sign=-1))
    for estimate in (True, False):
        shared = SharedFactor(estimate=estimate)
        plus = solve_bordered(s, "test system", factor=shared)
        minus = solve_bordered(dataclasses.replace(s, border_sign=-1), "test system",
                               factor=shared)
        assert shared.symmetric and (shared.cond is None) == (not estimate)
        assert minus.h.tobytes() == plus.h.tobytes()
        assert minus.solution[-1:].tobytes() == (-plus.solution[-1:]).tobytes()
        assert (minus.residual_norm, minus.condition_estimate) == \
            (plus.residual_norm, shared.cond)
        assert (fresh if estimate else without_estimate(fresh)) == \
            (minus.solution.tobytes(), minus.residual_norm, minus.condition_estimate)


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
    # gate on both.
    from trkm.regressor import systems
    from trkm.synthetic import sine

    x, y = sine(ORDER, seed=2)
    cases = [family.at(1e-5, 1e-5) for family in systems((x, y), gaussian(32.0))]
    cases += [gram_system(rng, ORDER, sign, sigma=32.0, gamma=1e-5, eta=1e-5)
              for sign in (+1, -1)]
    ldlt = [verdict(s) for s in cases]
    monkeypatch.setattr(trkm.solver, "LDL_MIN_ORDER", 10**9)
    assert ldlt == [verdict(s) for s in cases] == ["passed"] * 2 + ["residual"] * 2


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
    # beyond its inputs, where a kept matrix and a factor copy of it would be three.
    n = 600
    s = gram_system(rng, n)
    formed = (n + 1) ** 2 * 8
    assert traced_peak(lambda: solve_bordered(s, "test system")) <= 1.25 * formed
    shared = SharedFactor()
    solve_bordered(s, "test system", factor=shared)
    assert shared.symmetric and not hasattr(shared, "matrix")


def test_the_finiteness_check_holds_no_n_squared_temporary(rng):
    # The core is checked for non-finite entries by two reductions, not by an n^2
    # boolean mask (0.125 formed sizes, which put this solve at 1.147); what the solve
    # holds beyond one formed array is mostly sytrf's n x nb workspace (1.108).
    n = 600
    s = gram_system(rng, n)
    assert traced_peak(lambda: solve_bordered(s, "test system")) <= 1.12 * (n + 1) ** 2 * 8


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
    # h, b and the residual bitwise; the estimate's last bit follows the alignment of sycon's
    # workspace, so it is held to 1e-14, and the 1-norm it starts from bitwise.
    x, y, _ = fit_data(kind, task, order)
    params = {"gamma": 0.5, "eta": 0.25, "sigma": 1.0, **second}
    model = models.fit(kind, task, x, y, params)
    entry = models.model_type(kind, task)
    families, _ = entry.statement(x, y, x[:1], gaussian(1.0))
    for family, penalties, report in zip(families, entry.system_penalties(params),
                                         model.fit_diag):
        system = family.at(*penalties)
        solution, res_norm, cond, norm = oracles.separate_array_solve(system)
        assert report.solution.tobytes() == solution.tobytes()
        assert report.residual_norm == res_norm
        assert report.condition_estimate == pytest.approx(cond, rel=1e-14, abs=0)
        assert trkm.solver._symmetric_one_norm(family.kernel.formed(*penalties)) == norm


def test_successive_penalties_on_one_block_solve_as_a_separate_array_did():
    # Each solve at new penalties forms its matrix over the last factor, from K in the upper
    # triangle and the saved diagonal, and reads K back from there for its residuals.
    x, y = sine(600, seed=4)
    family = regressor.systems((x, y), gaussian(0.5))[1]
    pairs = ((0.5, 0.25), (3.0, 1e-3), (0.5, 0.25))
    fresh = [oracles.separate_array_solve(family.at(g, e)) for g, e in pairs]
    for (g, e), (solution, res_norm, _, _) in zip(pairs, fresh):
        report = solve_bordered(family.at(g, e), "test system")
        assert (report.solution.tobytes(), report.residual_norm) == (solution.tobytes(), res_norm)
    assert family.kernel.diagonal is not None  # the block was formed and factored in place
    assert trkm.solver._symmetric_one_norm(family.kernel.formed(3.0, 1e-3)) == fresh[1][3]


def test_a_kernel_block_reads_k_back_from_its_upper_triangle(rng):
    n = 600
    x = rng.normal(size=(n, 3))
    k = gram(gaussian(1.3), x, x)
    block = KernelBlock(bordered_gram(gaussian(1.3), x))
    h = rng.normal(size=n)
    assert (block @ h).tobytes() == (k @ h).tobytes() and len(row_blocks(n)) > 1
    for gamma, eta in ((0.5, 0.25), (2.0, 1e-5)):
        a = block.formed(gamma, eta)
        assert np.asarray(block).tobytes() == k.tobytes()
        assert (block @ h).tobytes() == (k @ h).tobytes()
        formed = trkm.solver._augmented(k, gamma, eta)
        assert np.tril(a).tobytes() == np.tril(formed).tobytes()
        a[np.tril_indices(n + 1)] = np.nan  # as a factor would: K stays in the upper triangle
    assert np.asarray(block).tobytes() == k.tobytes()
    assert (block @ h).tobytes() == (k @ h).tobytes()


@pytest.mark.parametrize("order", [ORDER, 601, 1002])
def test_the_symmetric_one_norm_reads_only_the_lower_triangle_bitwise(rng, order):
    x = rng.normal(size=(order - 1, 3))
    a = trkm.solver._augmented(gram(gaussian(0.8), x, x), 0.3, 0.7)
    expected = trkm.solver._one_norm(a)
    a[np.triu_indices(order, 1)] = np.nan
    assert trkm.solver._symmetric_one_norm(a) == expected and len(row_blocks(order)) > 1


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
    # sytrf reads one triangle, so it factors another matrix; the residual of the
    # formed system refuses the result instead of returning a wrong solution.
    s = gram_system(rng, ORDER)
    lopsided = dataclasses.replace(s, kernel=s.kernel + np.triu(np.full_like(s.kernel, 5.0), 1))
    with pytest.raises(SingularSystem, match="^test system: residual .* exceeds tolerance"):
        solve_bordered(lopsided, "test system")

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm.errors import DimensionMismatch, NonFiniteSystem, SingularSystem
from trkm.kernels import gaussian, gram
import trkm.solver
from trkm.solver import (
    BorderedSystem,
    SharedFactor,
    kernel_spectrum,
    solve_bordered,
    spectral_shift,
)

from oracles import residual, solve_full_pivot, system_matrix


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
        assert rep.residual_norm <= bound
        # the reported residual is the residual of the formed augmented system
        assert rep.residual_norm == residual(s, rep.solution)


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


def outcome(system, factor=None, estimate=True):
    """The report fields of one solve as exact values, or its SingularSystem message."""
    try:
        rep = solve_bordered(system, "test system", factor=factor, estimate=estimate)
    except SingularSystem as exc:
        return str(exc)
    return rep.solution.tobytes(), rep.residual_norm, rep.condition_estimate


def without_estimate(fields):
    """``outcome`` of the same solve with ``estimate=False``: only the estimate goes."""
    return fields if isinstance(fields, str) else (*fields[:2], None)


def contents(factor):
    """A factor's matrix, LU and pivots as bytes; None while it is empty."""
    if factor.kernel is None:
        return None
    return factor.matrix.tobytes(), factor.lu.tobytes(), factor.piv.tobytes()


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
    # ``lean`` is filled by a solve that asks for no estimate, as grid refits
    # fill theirs; a later solve on it that asks for one still gets it bitwise.
    first = system(kernel, gamma, eta, sign, rng.normal(size=n) * 10.0, float(n))
    shared, lean = SharedFactor(), SharedFactor()
    fresh = outcome(first)
    assert outcome(first, shared) == fresh
    assert outcome(first, lean, estimate=False) == outcome(first, estimate=False)
    assert outcome(first, estimate=False) == without_estimate(fresh)
    filled = (contents(shared), contents(lean))
    for other_sign in (-sign, sign):
        other = system(kernel, gamma, eta, other_sign, rng.normal(size=n), float(rng.normal()))
        fresh = outcome(other)
        assert outcome(other, shared) == fresh
        assert outcome(other, lean, estimate=False) == without_estimate(fresh)
        # no solve of either sign changes a filled factor's matrix or LU
        assert (contents(shared), contents(lean)) == filled
    assert outcome(other, lean) == fresh
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


def test_shared_factor_refuses_another_kernel_gamma_or_eta():
    rng = np.random.default_rng(5)
    s = random_system(rng, 5, +1)
    shared = SharedFactor()
    solve_bordered(s, "test system", factor=shared)
    others = (
        system(s.kernel + 1e-12, s.gamma, s.eta, -1, s.rhs_top, s.rhs_bottom),
        system(s.kernel[:4, :4], s.gamma, s.eta, -1, s.rhs_top[:4], s.rhs_bottom),
        system(s.kernel, s.gamma * 2.0, s.eta, -1, s.rhs_top, s.rhs_bottom),
        system(s.kernel, s.gamma, s.eta + 1.0, -1, s.rhs_top, s.rhs_bottom),
    )
    for other in others:
        with pytest.raises(ValueError, match="another \\(kernel, gamma, eta\\)"):
            solve_bordered(other, "test system", factor=shared)
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


@pytest.mark.parametrize("sign", [+1, -1])
def test_spectral_columns_match_the_full_pivot_oracle(rng, sign):
    x = rng.normal(size=(7, 2))
    kernel = gram(gaussian(1.0), x, x)
    gammas, etas = np.array([0.1, 1.0, 10.0]), np.array([1.0, 0.01, 0.5])
    rhs = rng.normal(size=(7, 3))
    shift = spectral_shift(kernel_spectrum(kernel), gammas, etas)
    solved = trkm.solver.solve_spectral(kernel, gammas, etas, sign, rhs, 1.5, shift)
    twin = trkm.solver.solve_spectral(kernel, gammas, etas, -sign, rhs, 1.5, shift)
    # the other sign negates b and keeps h, bitwise
    assert twin.h.tobytes() == solved.h.tobytes() and twin.b.tobytes() == (-solved.b).tobytes()
    assert solved.passed.all() and (solved.residual_ratio <= 1.0).all()
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
        shift = spectral_shift(kernel_spectrum(kernel), [1.0, 1.0], [1.0, 2.0])
        solved = trkm.solver.solve_spectral(kernel, [1.0, 1.0], [1.0, 2.0], +1,
                                            np.ones((3, 2)), 0.0, shift)
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
    spectrum = kernel_spectrum(kernel)
    gammas, etas = np.array([*penalties, (1.0, -float(spectrum[0].max()))]).T
    shared = spectral_shift(spectrum, gammas, etas)
    filled = spectral_bytes(shared)
    for sign in (+1, -1):
        rhs, bottom = rng.normal(size=(n, len(gammas))), float(rng.normal())
        own = trkm.solver.solve_spectral(kernel, gammas, etas, sign, rhs, bottom,
                                         spectral_shift(spectrum, gammas, etas))
        assert spectral_bytes(trkm.solver.solve_spectral(
            kernel, gammas, etas, sign, rhs, bottom, shared)) == spectral_bytes(own)
        assert not own.passed[-1]
    assert spectral_bytes(shared) == filled  # no solve changes the shift

"""Orthant probabilities and the level-inflation solver.

Closed forms (independence products, arcsin identities, perfect correlation)
pin the bivariate kernel at its limits, zero and underflowing bounds
included, and the trivariate quadrature; scipy's integrator cross-checks
general inputs, dimension 2 at 1e-9 and dimension 3 at looser tolerance;
the solver is checked by round-tripping its defining equation and by
exercising every failure branch.
"""

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from duosurv.errors import InvalidCorrelation, NoSolution
from duosurv.mvnorm import (
    InflationProblem,
    OrthantQuery,
    mvn_upper_orthant,
    solve_inflation,
)


def equicorr(dim, rho):
    m = np.full((dim, dim), rho, dtype=float)
    np.fill_diagonal(m, 1.0)
    return m


def upper(bounds, corr):
    return mvn_upper_orthant(OrthantQuery(lower_z=tuple(bounds),
                                          corr=np.asarray(corr, dtype=float)))


def test_trivariate_zero_thresholds_arcsine_identity():
    # P[Z > 0 three times] = 1/8 + 3 arcsin(rho) / (4 pi)
    for rho in (-0.3, 0.0, 0.2, 0.5, 0.8):
        want = 0.125 + 3.0 * np.arcsin(rho) / (4.0 * np.pi)
        assert upper([0.0, 0.0, 0.0], equicorr(3, rho)) == pytest.approx(
            want, abs=1e-7)
    assert upper([0.0, 0.0, 0.0], equicorr(3, 0.5)) == pytest.approx(
        0.25, abs=1e-7)


def test_bivariate_independence_factorizes():
    # -0.0 flips the sign of the infinite Owen's T argument at a zero bound
    for h in (-2.0, -0.5, 0.0, -0.0, 1.3):
        for k in (-1.7, 0.0, -0.0, 0.4, 2.5):
            want = norm.sf(h) * norm.sf(k)
            assert upper([h, k], np.eye(2)) == pytest.approx(want, abs=1e-9)


def test_bivariate_zero_thresholds_arcsine_identity():
    # signed zeros, and bounds so tiny that their product underflows to 0
    tiny = 1.0986972192547339e-164
    for bounds in ([0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0], [tiny, tiny]):
        for rho in (-0.9, -0.4, 0.3, 0.7, 0.95):
            want = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
            assert upper(bounds, equicorr(2, rho)) == pytest.approx(
                want, abs=1e-9)
    # the eigenvalue floor repairs a rank-one matrix to rho = 1 - 1e-10
    want = 0.25 + np.arcsin(1.0 - 1e-10) / (2.0 * np.pi)
    for bounds, corr in (([tiny, tiny], np.ones((2, 2))),
                         ([-np.inf, tiny, tiny], np.ones((3, 3)))):
        assert upper(bounds, corr) == pytest.approx(want, abs=1e-9)


def test_bivariate_perfect_correlation():
    assert upper([-1.0, 0.5], equicorr(2, 1.0)) == pytest.approx(
        norm.sf(0.5), abs=1e-9)
    # rho = -1: P[h < Z < -k], empty when -k <= h
    assert upper([-1.0, -0.5], equicorr(2, -1.0)) == pytest.approx(
        norm.cdf(0.5) - norm.cdf(-1.0), abs=1e-9)
    assert upper([0.5, 0.0], equicorr(2, -1.0)) == pytest.approx(0.0, abs=1e-9)


def test_independence_factorizes_in_higher_dims():
    b3 = [-0.8, 0.2, 1.1]
    want3 = np.prod(norm.sf(b3))
    assert upper(b3, np.eye(3)) == pytest.approx(want3, abs=1e-7)


@pytest.mark.parametrize("dim", [2, 3])
def test_matches_scipy_integrator(dim):
    rng = np.random.default_rng(606)
    for i in range(6):
        if dim == 2:
            # half the draws near singularity, 0.925 < |rho| < 0.9999
            rho = (rng.uniform(0.925, 0.9999) * rng.choice([-1.0, 1.0])
                   if i % 2 else rng.uniform(-0.925, 0.925))
            corr, tol = equicorr(2, rho), 1e-9
        else:
            a = rng.normal(size=(dim, dim + 2))
            cov = a @ a.T
            d = 1.0 / np.sqrt(np.diag(cov))
            corr = cov * d[:, None] * d[None, :]
            np.fill_diagonal(corr, 1.0)
            tol = 5e-5
        b = rng.uniform(-1.5, 1.5, size=dim)
        # upper orthant of Z equals the cdf of -Z at -b, same correlation
        want = multivariate_normal(mean=np.zeros(dim), cov=corr).cdf(-b)
        assert upper(b, corr) == pytest.approx(want, abs=tol)


def test_permutation_invariance():
    corr = np.array([
        [1.0, 0.5, 0.3],
        [0.5, 1.0, 0.6],
        [0.3, 0.6, 1.0],
    ])
    b = np.array([-0.7, 0.1, 0.5])
    base = upper(b, corr)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        p = np.asarray(perm)
        assert upper(b[p], corr[np.ix_(p, p)]) == pytest.approx(base, abs=1e-6)


def test_monotone_in_bounds():
    corr = equicorr(3, 0.4)
    lo = upper([-0.5, 0.0, 0.3], corr)
    hi = upper([-0.5, 0.4, 0.3], corr)
    assert hi < lo


def test_infinite_bounds():
    corr = equicorr(3, 0.5)
    assert upper([0.0, 0.0, np.inf], corr) == 0.0
    dropped = upper([0.0, -np.inf, 0.0], corr)
    assert dropped == pytest.approx(upper([0.0, 0.0], equicorr(2, 0.5)),
                                    abs=1e-9)
    assert upper([-np.inf, -np.inf], np.eye(2)) == 1.0


def test_near_singular_matrix_is_repaired():
    # equicorrelation -1/2 in dim 3 is exactly singular (Z1+Z2+Z3 = 0)
    p = upper([0.0, 0.0, 0.0], equicorr(3, -0.5))
    assert 0.0 <= p < 1e-3


def test_correlation_validation_errors():
    with pytest.raises(InvalidCorrelation, match="square"):
        upper([0.0, 0.0], np.ones((2, 3)))
    with pytest.raises(InvalidCorrelation, match="symmetric"):
        upper([0.0, 0.0], np.array([[1.0, 0.3], [0.6, 1.0]]))
    with pytest.raises(InvalidCorrelation, match="unit diagonal"):
        upper([0.0, 0.0], np.array([[2.0, 0.3], [0.3, 2.0]]))
    with pytest.raises(InvalidCorrelation, match="lie in"):
        upper([0.0, 0.0], np.array([[1.0, 1.3], [1.3, 1.0]]))
    with pytest.raises(InvalidCorrelation, match="eigenvalue"):
        upper([0.0, 0.0, 0.0], np.array([[1.0, 0.9, -0.9],
                                         [0.9, 1.0, 0.9],
                                         [-0.9, 0.9, 1.0]]))
    with pytest.raises(InvalidCorrelation, match="sizes differ"):
        upper([0.0, 0.0, 0.0], np.eye(2))
    with pytest.raises(InvalidCorrelation, match=r"dimension 4 .*max 3"):
        upper([0.0, 0.0, 0.0, 0.0], np.eye(4))
    for corr in ([[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.3], [0.3, 1.0]],
                 [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(InvalidCorrelation, match="finite"):
            upper([0.0, 0.0], np.array(corr))
    for bounds in ([np.nan, 0.0], [0.0, np.nan, -np.inf]):
        with pytest.raises(InvalidCorrelation, match="nan"):
            upper(bounds, np.eye(len(bounds)))


def test_inflation_two_independent_tests_closed_form():
    # 1 - (1 - xi a)^2 = target  =>  xi = (1 - sqrt(1 - target)) / a
    a, target = 0.0125, 0.025
    problem = InflationProblem(base_levels=(a, a), corr=np.eye(2),
                               target=target)
    xi = solve_inflation(problem)
    want = (1.0 - np.sqrt(1.0 - target)) / a
    assert xi == pytest.approx(want, abs=2e-6)
    assert xi == pytest.approx(1.00633, abs=1e-4)


def test_inflation_perfectly_correlated_tests():
    problem = InflationProblem(base_levels=(0.0125, 0.0125),
                               corr=equicorr(2, 1.0), target=0.025)
    assert solve_inflation(problem) == pytest.approx(2.0, abs=1e-4)


def test_inflation_round_trip():
    corr = np.array([
        [1.0, 0.71, 0.58],
        [0.71, 1.0, 0.80],
        [0.58, 0.80, 1.0],
    ])
    # the fixed component mimics an interim continuation threshold: deep in
    # the lower tail so the event is nearly certain
    fixed = norm.ppf(0.005)
    problem = InflationProblem(base_levels=(0.0125, 0.0125),
                               fixed_thresholds=(fixed,),
                               corr=corr, target=0.04)
    xi = solve_inflation(problem)
    assert xi >= 1.0
    bounds = (norm.ppf(xi * 0.0125), norm.ppf(xi * 0.0125), fixed)
    achieved = 1.0 - mvn_upper_orthant(OrthantQuery(bounds, corr))
    assert achieved == pytest.approx(0.04, abs=2e-6)


def test_inflation_exact_one_when_nominal_exhausts():
    problem = InflationProblem(base_levels=(0.025,), corr=np.eye(1),
                               target=0.025)
    assert solve_inflation(problem) == 1.0


def test_inflation_memoization_and_determinism():
    problem = InflationProblem(base_levels=(0.01, 0.015),
                               corr=equicorr(2, 0.6), target=0.025)
    first = solve_inflation(problem)
    again = solve_inflation(InflationProblem(
        base_levels=(0.01, 0.015), corr=equicorr(2, 0.6), target=0.025))
    assert first == again


def test_inflation_failure_modes():
    with pytest.raises(NoSolution, match="negative base level"):
        solve_inflation(InflationProblem((-0.01,), np.eye(1), 0.025))
    with pytest.raises(NoSolution, match="nan"):
        solve_inflation(InflationProblem((np.nan, 0.01), np.eye(2), 0.025))
    with pytest.raises(NoSolution, match="nan"):
        solve_inflation(InflationProblem(
            (0.01,), np.eye(2), 0.025, fixed_thresholds=(np.nan,)))
    with pytest.raises(NoSolution, match="lie in"):
        solve_inflation(InflationProblem((0.01,), np.eye(1), 0.5))
    with pytest.raises(NoSolution, match="lie in"):
        solve_inflation(InflationProblem((0.01,), np.eye(1), 0.0))
    with pytest.raises(NoSolution, match="already exceeds"):
        solve_inflation(InflationProblem((0.05, 0.05), np.eye(2), 0.02))
    with pytest.raises(NoSolution, match="no active components"):
        solve_inflation(InflationProblem((0.0,), np.eye(1), 0.025))
    with pytest.raises(NoSolution, match="no scalable components"):
        solve_inflation(InflationProblem(
            (0.0,), np.eye(2), 0.4, fixed_thresholds=(0.5,)))
    with pytest.raises(NoSolution, match="bracket empty"):
        solve_inflation(InflationProblem((0.499,), np.eye(1), 0.4995))
    with pytest.raises(NoSolution, match="unreachable"):
        solve_inflation(InflationProblem((0.4,), np.eye(1), 0.4995))
    with pytest.raises(InvalidCorrelation, match="scaled plus fixed"):
        solve_inflation(InflationProblem((0.01, 0.01), np.eye(3), 0.025))


def test_inflation_certain_continuation_is_dropped():
    # a -inf continuation threshold holds with probability one, so the
    # problem reduces to the plain two-test version
    plain = solve_inflation(InflationProblem(
        (0.0125, 0.0125), equicorr(2, 0.3), 0.025))
    padded = solve_inflation(InflationProblem(
        (0.0125, 0.0125), equicorr(3, 0.3), 0.025,
        fixed_thresholds=(-np.inf,)))
    assert padded == pytest.approx(plain, abs=2e-6)

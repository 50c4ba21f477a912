"""Orthant probabilities and the level-inflation solver.

Closed forms (independence products, arcsin identities, perfect correlation)
pin the bivariate kernel at its limits, zero and underflowing bounds
included, and the trivariate quadrature; scipy's integrator cross-checks
general inputs, dimension 2 at 1e-9 and dimension 3 at looser tolerance;
the solver is checked by round-tripping its defining equation, by the
number of orthant evaluations it spends on each shape of problem the
procedures build, and by exercising every failure branch.  The package must
not pull in ``scipy.optimize``, which costs memory and start-up time in every
process.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

import duosurv
from duosurv import mvnorm
from duosurv.errors import InvalidCorrelation, NoSolution
from duosurv.mvnorm import mvn_upper_orthant, solve_inflation


def equicorr(dim, rho):
    m = np.full((dim, dim), rho, dtype=float)
    np.fill_diagonal(m, 1.0)
    return m


def upper(bounds, corr):
    return mvn_upper_orthant(tuple(bounds), np.asarray(corr, dtype=float))


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
    xi = solve_inflation(base_levels=(a, a), corr=np.eye(2), target=target)
    want = (1.0 - np.sqrt(1.0 - target)) / a
    assert xi == pytest.approx(want, abs=2e-6)
    assert xi == pytest.approx(1.00633, abs=1e-4)


def test_inflation_perfectly_correlated_tests():
    xi = solve_inflation(base_levels=(0.0125, 0.0125), corr=equicorr(2, 1.0),
                         target=0.025)
    assert xi == pytest.approx(2.0, abs=1e-4)


def test_inflation_round_trip():
    corr = np.array([
        [1.0, 0.71, 0.58],
        [0.71, 1.0, 0.80],
        [0.58, 0.80, 1.0],
    ])
    # the fixed component mimics an interim continuation threshold: deep in
    # the lower tail so the event is nearly certain
    fixed = norm.ppf(0.005)
    xi = solve_inflation(base_levels=(0.0125, 0.0125),
                         fixed_thresholds=(fixed,), corr=corr, target=0.04)
    assert xi >= 1.0
    bounds = (norm.ppf(xi * 0.0125), norm.ppf(xi * 0.0125), fixed)
    achieved = 1.0 - mvn_upper_orthant(bounds, corr)
    assert achieved == pytest.approx(0.04, abs=2e-6)


def test_inflation_exact_one_when_nominal_exhausts():
    assert solve_inflation(base_levels=(0.025,), corr=np.eye(1),
                           target=0.025) == 1.0


def test_inflation_memoization_and_determinism():
    first = solve_inflation(base_levels=(0.01, 0.015), corr=equicorr(2, 0.6),
                            target=0.025)
    again = solve_inflation(base_levels=(0.01, 0.015), corr=equicorr(2, 0.6),
                            target=0.025)
    assert first == again


def test_inflation_failure_modes():
    with pytest.raises(NoSolution, match="negative base level"):
        solve_inflation((-0.01,), np.eye(1), 0.025)
    with pytest.raises(NoSolution, match="nan"):
        solve_inflation((np.nan, 0.01), np.eye(2), 0.025)
    for level in (np.inf, -np.inf):
        with pytest.raises(NoSolution, match="infinite base level"):
            solve_inflation((level,), np.eye(1), 0.025)
    with pytest.raises(NoSolution, match="nan"):
        solve_inflation((0.01,), np.eye(2), 0.025, fixed_thresholds=(np.nan,))
    with pytest.raises(NoSolution, match="lie in"):
        solve_inflation((0.01,), np.eye(1), 0.5)
    with pytest.raises(NoSolution, match="lie in"):
        solve_inflation((0.01,), np.eye(1), 0.0)
    with pytest.raises(NoSolution, match="already exceeds"):
        solve_inflation((0.05, 0.05), np.eye(2), 0.02)
    with pytest.raises(NoSolution, match="no active components"):
        solve_inflation((0.0,), np.eye(1), 0.025)
    with pytest.raises(NoSolution, match="no scalable components"):
        solve_inflation((0.0,), np.eye(2), 0.4, fixed_thresholds=(0.5,))
    with pytest.raises(NoSolution, match="bracket empty"):
        solve_inflation((0.499,), np.eye(1), 0.4995)
    with pytest.raises(NoSolution, match="unreachable"):
        solve_inflation((0.4,), np.eye(1), 0.4995)
    with pytest.raises(InvalidCorrelation, match="scaled plus fixed"):
        solve_inflation((0.01, 0.01), np.eye(3), 0.025)


def test_inflation_step_cap_raises(monkeypatch):
    monkeypatch.setattr(mvnorm, "_MAX_STEPS", 1)
    with pytest.raises(NoSolution, match="no convergence in 1 steps"):
        solve_inflation((0.0125, 0.0125), equicorr(2, 0.5), 0.025)


# one problem per shape the procedures build, plus the extreme correlations:
# the solver's base levels, correlation, target and fixed thresholds
SOLVER_WORK_CASES = (
    # interim joint: PFS and interim OS both scaled
    ((0.0125, 0.004), equicorr(2, 0.45), 0.0165, ()),
    # final OS after one interim OS look
    ((0.02,), equicorr(2, 0.7), 0.025, (norm.ppf(0.005),)),
    # final OS after the interim PFS and OS looks
    ((0.0095,), np.array([[1.0, 0.4, 0.7],
                          [0.4, 1.0, 0.35],
                          [0.7, 0.35, 1.0]]), 0.025,
     (norm.ppf(0.0125), norm.ppf(0.003))),
    ((0.0125, 0.0125), equicorr(2, 0.9999), 0.025, ()),
    ((0.0125, 0.0125), equicorr(2, -0.9999), 0.03, ()),
    ((0.0125,), equicorr(2, 0.9999), 0.025, (norm.ppf(0.01),)),
    ((0.0125, 0.0125), np.ones((2, 2)), 0.025, ()),
    ((0.01,), np.ones((3, 3)), 0.025, (norm.ppf(0.01), norm.ppf(0.005))),
)


def test_inflation_solver_work(monkeypatch):
    # one evaluation is one row of one orthant call
    rows = []
    original = mvnorm._upper_orthant

    def counted(lower, corr):
        rows.append(len(lower))
        return original(lower, corr)

    monkeypatch.setattr(mvnorm, "_upper_orthant", counted)
    evals = []
    for levels, corr, target, fixed in SOLVER_WORK_CASES:
        rows.clear()
        xi = solve_inflation(levels, corr, target, fixed)
        evals.append(sum(rows))
        bounds = [norm.ppf(xi * a) for a in levels]
        achieved = 1.0 - mvn_upper_orthant(tuple(bounds) + fixed, corr)
        assert achieved == pytest.approx(target, abs=2e-6), (levels, corr)
    assert np.mean(evals) <= 4.5, evals


def test_cli_import_leaves_out_scipy_optimize():
    # the tests import scipy.stats, which imports scipy.optimize, so only a
    # fresh interpreter shows what the package itself pulls in
    src = os.path.dirname(duosurv.__path__[0])
    code = ("import sys, duosurv.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_inflation_certain_continuation_is_dropped():
    # a -inf continuation threshold holds with probability one, so the
    # problem reduces to the plain two-test version
    plain = solve_inflation((0.0125, 0.0125), equicorr(2, 0.3), 0.025)
    padded = solve_inflation((0.0125, 0.0125), equicorr(3, 0.3), 0.025,
                             fixed_thresholds=(-np.inf,))
    assert padded == pytest.approx(plain, abs=2e-6)


def random_correlations(rng, m, dim):
    """``m`` positive-loading factor-model correlations of dimension
    ``dim``, the kind the log-rank estimator produces."""
    loadings = rng.uniform(0.05, 0.69, size=(m, dim, 2))
    corr = loadings @ np.swapaxes(loadings, 1, 2)
    corr[:, np.arange(dim), np.arange(dim)] = 1.0
    return corr


def test_a_block_of_queries_gives_the_bits_of_its_rows():
    rng = np.random.default_rng(11)
    corr2 = np.array([equicorr(2, r) for r in (-1.0, -0.6, 0.0, 0.45, 1.0,
                                               0.3, 0.3, 0.8)])
    b2 = rng.uniform(-3.0, 1.0, size=(8, 2))
    b2[5:7] = ([0.0, 0.0], [-0.0, 0.0])  # the arcsine limit amid the block
    # dimension 3: first bounds spread over every segment layout, plus
    # rows that drop a component or cannot happen
    corr3 = random_correlations(rng, 12, 3)
    b3 = rng.uniform(-3.0, 1.0, size=(12, 3))
    b3[:, 0] = np.linspace(-9.0, 9.0, 12)
    b3[2, 1] = b3[7, 0] = -np.inf
    b3[4, 2] = np.inf
    for bounds, corr in ((b2, corr2), (b3, corr3)):
        block = mvn_upper_orthant(bounds, corr)
        alone = [mvn_upper_orthant(tuple(b), c) for b, c in zip(bounds, corr)]
        assert block.tolist() == alone
    assert mvn_upper_orthant(b3[4], corr3[4]) == 0.0
    # one matrix for every row
    shared = mvn_upper_orthant(b2, corr2[3])
    assert shared.tolist() == [upper(b, corr2[3]) for b in b2]


def test_a_block_of_problems_gives_the_factors_of_its_rows():
    rng = np.random.default_rng(12)
    m = 20
    b1 = rng.uniform(0.001, 0.01, m)
    # base levels, correlations, targets and fixed thresholds per problem
    interim = (np.column_stack((np.full(m, 0.005), b1)),
               random_correlations(rng, m, 2), 0.005 + b1, np.empty((m, 0)))
    final = (rng.uniform(0.008, 0.018, (m, 1)), random_correlations(rng, m, 3),
             0.025, rng.uniform(-3.4, -2.7, (m, 2)))
    # a zero level or a -inf threshold drops a component from some rows
    interim[0][3, 0] = 0.0
    final[3][[5, 9], 1] = -np.inf
    for levels, corr, target, fixed in (interim, final):
        block = solve_inflation(levels, corr, target, fixed)
        target = np.broadcast_to(target, (m,))
        alone = [solve_inflation(tuple(levels[i]), corr[i], target[i],
                                 tuple(fixed[i])) for i in range(m)]
        assert block.tolist() == alone
        assert (block >= 1.0).all()
    # a block of none, and thresholds shared by every row
    assert solve_inflation(np.empty((0, 1)), np.empty((0, 3, 3)), 0.025,
                           np.empty((0, 2))).shape == (0,)
    levels, corr = final[0][:4], final[1][:4]
    shared = solve_inflation(levels, corr, 0.025, (-3.0, -2.9))
    assert shared.tolist() == solve_inflation(
        levels, corr, 0.025, np.tile([-3.0, -2.9], (4, 1))).tolist()


def test_a_block_solve_raises_what_its_worst_row_raises():
    corr = np.array([equicorr(2, 0.5)] * 3)
    levels = np.array([[0.0125, 0.0125]] * 3)
    with pytest.raises(NoSolution, match="already exceeds"):
        solve_inflation(levels, corr, [0.025, 0.02, 0.025])
    with pytest.raises(NoSolution, match="lie in"):
        solve_inflation(levels, corr, [0.025, 0.5, 0.025])
    with pytest.raises(InvalidCorrelation, match="unit diagonal"):
        bad = corr.copy()
        bad[1] = [[2.0, 0.3], [0.3, 2.0]]
        solve_inflation(levels, bad, 0.025)
    with pytest.raises(InvalidCorrelation, match="eigenvalue"):
        solve_inflation(
            np.full((2, 3), 0.005),
            np.array([equicorr(3, 0.2), [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9],
                                         [-0.9, 0.9, 1.0]]]), 0.025)


def test_a_stack_repairs_each_singular_matrix_as_alone():
    stack = np.array([equicorr(3, 0.4), np.ones((3, 3)), equicorr(3, -0.5)])
    repaired = mvnorm._validated_correlation(stack)
    for matrix, alone in zip(repaired, stack):
        assert matrix.tobytes() == \
            mvnorm._validated_correlation(alone).tobytes()
    assert repaired[0].tobytes() == stack[0].tobytes()

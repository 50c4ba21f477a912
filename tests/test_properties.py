"""Closed-test properties of the nine procedures, and of the orthant layer
beneath them, on random valid inputs.

Correlations come from a two-factor model with positive loadings, which
always yields a valid 4x4 correlation matrix of the kind the log-rank
covariance estimator produces (all statistics positively related).  The
properties are the procedure nesting, the global-test gate, the elementary
OS gate of every procedure (which alone decides once the intersection fell
at the interim), consonance of every procedure but the ``_first`` ones, the
single final look of the procedures without an interim OS look, and that
the per-trial solve cache never lets one procedure's run change another's
outcome.  The first three also run on z values that straddle the
thresholds a drawn procedure's decision rule reads, where uniform draws
seldom land.  The orthant properties draw correlations of every rank in
dimensions 1 to 3, so the singular ones go through the eigenvalue repair.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from duosurv.logrank import CovarianceEstimate
from duosurv.mvnorm import (InflationProblem, OrthantQuery, mvn_upper_orthant,
                            solve_inflation)
from duosurv.testing import (PROCEDURES, AnalysisInputs, DesignSpec,
                             _ClosedTest, check_consonance, run_procedure)

DESIGNS = {p: DesignSpec(p) for p in PROCEDURES}
BONFERRONI = ("bon", "bon_gs")
NESTED = (("bon", "rec", "ex_last"), ("bon_gs", "rec_gs", "ex_gs_last"))


def property_settings(max_examples):
    # one run of the nine procedures takes about 15-20 ms
    return settings(derandomize=True, deadline=None, database=None,
                    max_examples=max_examples)


@st.composite
def analysis_inputs(draw, taus=st.floats(0.2, 0.98)):
    """``(z_pfs_interim, z_os_interim, z_os_final, corr, tau)``."""
    loadings = np.array(draw(st.lists(
        st.floats(0.05, 0.69), min_size=8, max_size=8))).reshape(4, 2)
    corr = loadings @ loadings.T
    np.fill_diagonal(corr, 1.0)
    z = draw(st.tuples(*[st.floats(-4.0, 0.5)] * 3))
    tau = draw(taus)
    return (*z, corr, tau)


def make_inputs(zp1, zo1, zo2, corr, tau):
    cov = CovarianceEstimate(matrix=corr.copy(), corr=corr, clamped=False)
    return AnalysisInputs(z_pfs_interim=zp1, z_os_interim=zo1, z_os_final=zo2,
                          covariance=cov, os_fraction_interim=tau)


@st.composite
def straddling_inputs(draw):
    """``analysis_inputs`` whose z values lie just inside or just outside
    the thresholds that a drawn procedure's decision rule reads: the
    interim PFS quantile for ``z_pfs_interim``, the interim intersection
    and elementary OS quantiles for ``z_os_interim``, the final
    intersection and elementary quantiles for ``z_os_final``.  A z whose
    thresholds are all infinite is drawn uniformly."""
    *_, corr, tau = draw(analysis_inputs())
    test = _ClosedTest(DESIGNS[draw(st.sampled_from(PROCEDURES))],
                       make_inputs(0.0, 0.0, 0.0, corr, tau))
    looks = ((test.interim[0],), (test.interim[1], ndtri(test.e1)),
             (test.final_intersection, test.elementary_final))
    z = []
    for thresholds in looks:
        finite = [t for t in thresholds if np.isfinite(t)]
        if not finite:
            z.append(draw(st.floats(-4.0, 0.5)))
            continue
        side = draw(st.sampled_from((-1.0, 1.0)))
        z.append(draw(st.sampled_from(finite))
                 + side * draw(st.floats(1e-4, 0.02)))
    return (*z, corr, tau)


def elementary_os_spend(design, tau) -> float:
    """Interim spend of the elementary OS test, from its definition: the
    PFS share as a step (at once for ``_first``, at tau >= 1 otherwise,
    never for ``bon``) plus the OS shape's spending of the rest of alpha."""
    pa, rest = design.level_pfs, design.alpha - design.level_pfs
    released = design.procedure.endswith("_first") or tau >= 1.0
    step = pa if released and design.procedure not in BONFERRONI else 0.0
    if design.is_group_sequential:
        s = min(tau, 1.0)
        return step + 2.0 * norm.sf(norm.ppf(1.0 - rest / 2.0) / np.sqrt(s))
    return step + (rest if tau >= 1.0 else 0.0)


def elementary_os_rejects(design, zo1, zo2, corr, tau, budget) -> bool:
    """The elementary OS test spending ``budget``, solved from its
    definition."""
    e1 = elementary_os_spend(design, tau)
    if e1 <= 0.0:
        return bool(zo2 <= norm.ppf(budget))
    if zo1 <= norm.ppf(e1):
        return True
    if e1 >= budget:
        return False
    r = corr[1, 3]
    xi = solve_inflation(InflationProblem(
        base_levels=(budget - e1,), corr=np.array([[1.0, r], [r, 1.0]]),
        target=budget, fixed_thresholds=(norm.ppf(e1),)))
    return bool(zo2 <= norm.ppf(xi * (budget - e1)))


def assert_closed_test_properties(case):
    zp1, zo1, zo2, corr, tau = case
    out = {p: run_procedure(d, make_inputs(*case)) for p, d in DESIGNS.items()}

    for chain in NESTED:
        for weaker, stronger in zip(chain[:-1], chain[1:]):
            assert out[weaker].rejected_pfs <= out[stronger].rejected_pfs
            assert out[weaker].rejected_os <= out[stronger].rejected_os
    for o in out.values():
        assert o.rejected_any <= o.rejected_global
    for p, d in DESIGNS.items():
        # bon recycles nothing: its elementary OS test spends the OS share
        budget = d.alpha - d.level_pfs if p in BONFERRONI else d.alpha
        # an OS rejection needs the elementary OS test; once the
        # intersection fell at the interim (case 1), that test alone decides
        if out[p].rejected_os or out[p].case_label != "2":
            assert out[p].rejected_os == elementary_os_rejects(
                d, zo1, zo2, corr, tau, budget), p


@property_settings(50)
@given(analysis_inputs())
def test_closed_test_properties(case):
    assert_closed_test_properties(case)


@property_settings(200)
@given(straddling_inputs())
def test_closed_test_properties_at_the_thresholds(case):
    assert_closed_test_properties(case)


@property_settings(40)
@given(analysis_inputs())
def test_consonance_holds_except_for_the_first_variants(case):
    # ex_first and ex_gs_first release the PFS share at the interim, which
    # can leave the elementary final OS threshold below the intersection's
    inputs = make_inputs(*case)
    for p, d in DESIGNS.items():
        if not p.endswith("_first"):
            assert check_consonance(d, inputs), p


@property_settings(100)
@given(analysis_inputs(taus=st.one_of(
    st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))))
def test_single_final_look_without_an_interim_os_look(case):
    zp1, _, zo2, _, _ = case
    inputs = make_inputs(*case)
    pa, oa, alpha = DESIGNS["bon"].level_pfs, DESIGNS["bon"].level_os, 0.025
    rej_pfs = bool(zp1 <= norm.ppf(pa))
    expected = {"bon": (rej_pfs, zo2 <= norm.ppf(oa)),
                "rec": (rej_pfs, zo2 <= norm.ppf(alpha if rej_pfs else oa)),
                "os": (False, zo2 <= norm.ppf(alpha))}
    for p, (pfs, os_) in expected.items():
        out = run_procedure(DESIGNS[p], inputs)
        assert (out.rejected_pfs, out.rejected_os) == (pfs, bool(os_)), p
        # a PFS rejection settles the intersection at the interim (case
        # 1.2, OS has no interim look); otherwise it runs to the final (2)
        assert not out.early_stop, p
        assert out.case_label == ("1.2" if pfs else "2"), p
        # one look per level: nothing is inflated
        assert set(out.inflation_factors.values()) <= {1.0}, p


@property_settings(30)
@given(analysis_inputs())
def test_outcome_does_not_depend_on_other_procedures(case):
    shared = make_inputs(*case)
    for design in DESIGNS.values():
        run_procedure(design, shared)
    for design in DESIGNS.values():
        assert run_procedure(design, shared) == \
            run_procedure(design, make_inputs(*case))


def factor_correlation(draw, dim):
    """Correlation ``L L^T`` of unit rows of a ``dim x rank`` loading
    matrix; any rank below ``dim`` makes it singular."""
    rank = draw(st.integers(1, dim))
    loadings = np.array(draw(st.lists(
        st.floats(-1.0, 1.0), min_size=dim * rank,
        max_size=dim * rank))).reshape(dim, rank)
    norms = np.sqrt((loadings ** 2).sum(axis=1))
    assume(norms.min() > 0.1)
    loadings /= norms[:, None]
    corr = loadings @ loadings.T
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


@st.composite
def orthant_cases(draw):
    """``(bounds, corr, k, step)``: a query plus a raise of bound ``k``."""
    dim = draw(st.integers(1, 3))
    corr = factor_correlation(draw, dim)
    bound = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-np.inf, np.inf]))
    bounds = draw(st.lists(bound, min_size=dim, max_size=dim))
    return bounds, corr, draw(st.integers(0, dim - 1)), draw(st.floats(0.0, 2.0))


def upper(bounds, corr):
    return mvn_upper_orthant(OrthantQuery(lower_z=tuple(bounds), corr=corr))


@property_settings(150)
@given(orthant_cases())
def test_orthant_is_a_probability_non_increasing_in_each_bound(case):
    bounds, corr, k, step = case
    p = upper(bounds, corr)
    assert 0.0 <= p <= 1.0
    raised = list(bounds)
    raised[k] += step
    assert upper(raised, corr) <= p + 1e-9


@st.composite
def inflation_cases(draw):
    """Scaled levels, fixed thresholds (some -inf, dropped by the solver)
    and a full correlation; at most three components stay active."""
    levels = draw(st.lists(st.floats(0.001, 0.02), min_size=1, max_size=2))
    fixed = draw(st.lists(st.one_of(st.floats(-4.0, -2.5),
                                    st.just(-np.inf)),
                          min_size=0, max_size=2))
    assume(len(levels) + sum(1 for f in fixed if np.isfinite(f)) <= 3)
    corr = factor_correlation(draw, len(levels) + len(fixed))
    return tuple(levels), tuple(fixed), corr, draw(st.floats(1e-4, 0.02))


@property_settings(60)
@given(inflation_cases())
def test_inflation_round_trips_its_defining_equation(case):
    levels, fixed, corr, excess = case

    def rejection(xi):
        return 1.0 - upper([norm.ppf(xi * a) for a in levels] + list(fixed),
                           corr)

    target = rejection(1.0) + excess
    xi = solve_inflation(InflationProblem(
        base_levels=levels, corr=corr, target=target,
        fixed_thresholds=fixed))
    assert xi >= 1.0
    assert rejection(xi) == pytest.approx(target, abs=2e-6)

"""Closed-test properties of the nine procedures on random valid inputs.

Correlations come from a two-factor model with positive loadings, which
always yields a valid 4x4 correlation matrix of the kind the log-rank
covariance estimator produces (all statistics positively related).  The
properties are the procedure nesting, the global-test gate, the elementary
OS gate of the exhaustive procedures, and that the per-trial solve cache
never lets one procedure's run change another's outcome.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from duosurv.logrank import CovarianceEstimate
from duosurv.mvnorm import InflationProblem, solve_inflation
from duosurv.testing import (PROCEDURES, AnalysisInputs, DesignSpec,
                             run_procedure)

DESIGNS = {p: DesignSpec(p) for p in PROCEDURES}
EXHAUSTIVE = ("ex_last", "ex_first", "ex_gs_last", "ex_gs_first")
NESTED = (("bon", "rec", "ex_last"), ("bon_gs", "rec_gs", "ex_gs_last"))


def property_settings(max_examples):
    # one run of the nine procedures takes about 15-20 ms
    return settings(derandomize=True, deadline=None, database=None,
                    max_examples=max_examples)


@st.composite
def analysis_inputs(draw):
    """``(z_pfs_interim, z_os_interim, z_os_final, corr, tau)``."""
    loadings = np.array(draw(st.lists(
        st.floats(0.05, 0.69), min_size=8, max_size=8))).reshape(4, 2)
    corr = loadings @ loadings.T
    np.fill_diagonal(corr, 1.0)
    z = draw(st.tuples(*[st.floats(-4.0, 0.5)] * 3))
    tau = draw(st.floats(0.2, 0.98))
    return (*z, corr, tau)


def make_inputs(zp1, zo1, zo2, corr, tau):
    cov = CovarianceEstimate(matrix=corr.copy(), corr=corr, clamped=False)
    return AnalysisInputs(z_pfs_interim=zp1, z_os_interim=zo1, z_os_final=zo2,
                          covariance=cov, os_fraction_interim=tau)


def elementary_os_rejects(design, zo1, zo2, corr, tau) -> bool:
    """The elementary OS test at full alpha, solved from its definition."""
    alpha = design.alpha
    e1 = design.elementary_os_spending().spend(tau, alpha)
    if e1 <= 0.0:
        return bool(zo2 <= norm.ppf(alpha))
    if zo1 <= norm.ppf(e1):
        return True
    if e1 >= alpha:
        return False
    r = corr[1, 3]
    xi = solve_inflation(InflationProblem(
        base_levels=(alpha - e1,), corr=np.array([[1.0, r], [r, 1.0]]),
        target=alpha, fixed_thresholds=(norm.ppf(e1),)))
    return bool(zo2 <= norm.ppf(xi * (alpha - e1)))


@property_settings(50)
@given(analysis_inputs())
def test_closed_test_properties(case):
    zp1, zo1, zo2, corr, tau = case
    out = {p: run_procedure(d, make_inputs(*case)) for p, d in DESIGNS.items()}

    for chain in NESTED:
        for weaker, stronger in zip(chain[:-1], chain[1:]):
            assert out[weaker].rejected_pfs <= out[stronger].rejected_pfs
            assert out[weaker].rejected_os <= out[stronger].rejected_os
    for o in out.values():
        assert o.rejected_any <= o.rejected_global
    for p in EXHAUSTIVE:
        if out[p].rejected_os:
            assert elementary_os_rejects(DESIGNS[p], zo1, zo2, corr, tau), p


@property_settings(30)
@given(analysis_inputs())
def test_outcome_does_not_depend_on_other_procedures(case):
    shared = make_inputs(*case)
    for design in DESIGNS.values():
        run_procedure(design, shared)
    for design in DESIGNS.values():
        assert run_procedure(design, shared) == \
            run_procedure(design, make_inputs(*case))

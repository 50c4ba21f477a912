"""Decision logic of the nine procedures on handcrafted statistics.

A fixed synthetic correlation structure (r_p1o1 = 0.71, r_p1o2 = 0.58,
r_o1o2 = 0.80) drives every test; thresholds quoted in comments were
computed from the defining equations with the solver checked independently
in test_mvnorm.  Interim information fraction is 0.644
throughout, giving an O'Brien-Fleming interim spend b1 of about 0.0037449.
"""

import numpy as np
import pytest
from scipy.stats import norm

from conftest import factors, trial_row
from oracles import check_consonance
from duosurv.errors import ConfigError
from duosurv.mvnorm import InflationProblem, solve_inflation
from duosurv.spending import SpendingFunction
from duosurv.testing import (
    PROCEDURES,
    AnalysisInputs,
    DesignSpec,
    Outcomes,
    run_procedure,
)

TAU = 0.644
R_P1O1, R_P1O2, R_O1O2 = 0.71, 0.58, 0.80

PPF_PA = norm.ppf(0.005)       # -2.5758
PPF_OA = norm.ppf(0.02)        # -2.0537
PPF_ALPHA = norm.ppf(0.025)    # -1.9600
B1 = 2.0 * norm.sf(norm.ppf(1.0 - 0.01) / np.sqrt(TAU))  # 0.0037449
PPF_B1 = norm.ppf(B1)          # -2.6742


def make_inputs(zp1, zo1, zo2, tau=TAU):
    return AnalysisInputs(z_pfs_interim=zp1, z_os_interim=zo1, z_os_final=zo2,
                          r_p1o1=R_P1O1, r_p1o2=R_P1O2, r_o1o2=R_O1O2,
                          os_fraction_interim=tau)


def run(procedure, zp1, zo1, zo2, tau=TAU) -> Outcomes:
    """The procedure's decisions on one trial, a block of one: each array
    has one entry, as true or false as that entry."""
    return run_procedure(DesignSpec(procedure),
                         make_inputs(zp1, zo1, zo2, tau))


def test_bonferroni_thresholds_are_exact_quantiles():
    # PFS rejects the intersection at the interim (case 1); OS, with no
    # interim look, rejects at the final one (1.2)
    out = run("bon", PPF_PA, 0.0, PPF_OA)
    assert out.rejected_pfs and out.rejected_os and out.rejected_global
    assert not out.early_stop
    assert out.case_label == "1.2"
    # OS rejected at the final analysis
    assert out.rejected_os and not out.early_stop
    # just above the quantile: no rejection
    miss = run("bon", PPF_PA + 1e-9, 0.0, PPF_OA + 1e-9)
    assert not miss.rejected_pfs and not miss.rejected_os
    assert not miss.rejected_global
    # the two tests do not talk to each other
    assert run("bon", 1.0, -5.0, PPF_OA).rejected_os
    assert not run("bon", PPF_PA, -5.0, PPF_OA + 1e-9).rejected_os


def test_recycling_moves_os_to_full_alpha_after_pfs_rejection():
    zo2 = 0.5 * (PPF_ALPHA + PPF_OA)  # between alpha and the OS share
    assert not run("bon", PPF_PA, 0.0, zo2).rejected_os
    hit = run("rec", PPF_PA, 0.0, zo2)
    assert hit.rejected_pfs and hit.rejected_os
    # no PFS rejection, no recycling: same boundary as bon
    assert not run("rec", 0.0, 0.0, zo2).rejected_os
    assert run("rec", 0.0, 0.0, PPF_OA).rejected_os


def test_os_reference_ignores_pfs():
    out = run("os", -9.0, -9.0, PPF_ALPHA)
    assert not out.rejected_pfs
    assert out.rejected_os and out.rejected_global
    assert out.rejected_os and not out.early_stop
    assert not run("os", -9.0, -9.0, PPF_ALPHA + 1e-9).rejected_os
    assert not out.early_stop


def test_ex_last_case1_gives_full_alpha_to_os():
    # PFS falls at the interim (no interim OS spend, so the PFS threshold is
    # exactly the nominal quantile); the elementary OS test then runs at the
    # full alpha at the final analysis
    out = run("ex_last", PPF_PA, 0.0, PPF_ALPHA)
    assert out.rejected_pfs
    assert out.case_label == "1.2"
    assert out.rejected_os and out.rejected_global
    assert not out.early_stop
    assert factors(out)["interim_joint"] == 1.0
    miss = run("ex_last", PPF_PA, 0.0, PPF_ALPHA + 1e-9)
    assert miss.case_label == "1.2"
    assert miss.rejected_global and not miss.rejected_os
    assert not miss.early_stop


def test_ex_last_never_stops_early():
    # without an interim OS spend the elementary interim level is zero
    for zo1 in (-9.0, -2.7, 0.0):
        assert not run("ex_last", PPF_PA, zo1, 0.0).early_stop
        assert run("ex_last", PPF_PA, zo1, 0.0).case_label != "1.1"


def test_ex_last_case2_inflates_the_final_os_level():
    # intersection survives the interim; its OS component at the final
    # analysis is inflated (threshold about -2.0199, vs -2.0537 nominal)
    zo2 = -2.04
    assert not run("bon", 0.0, 0.0, zo2).rejected_os
    out = run("ex_last", 0.0, 0.0, zo2)
    assert out.case_label == "2"
    assert not out.rejected_pfs
    assert out.rejected_os and out.rejected_global
    xi = factors(out)["final_joint"]
    assert xi > 1.0
    thr = norm.ppf(xi * 0.02)
    assert thr == pytest.approx(-2.0199, abs=2e-4)
    # the solved threshold exhausts alpha exactly given PFS continuation
    from duosurv.mvnorm import OrthantQuery, mvn_upper_orthant
    achieved = 1.0 - mvn_upper_orthant(OrthantQuery(
        (thr, PPF_PA), np.array([[1.0, R_P1O2], [R_P1O2, 1.0]])))
    assert achieved == pytest.approx(0.025, abs=2e-5)


def test_ex_first_can_stop_early_in_design_one():
    # the PFS share is handed to the elementary OS test already at the
    # interim, so an interim OS statistic at the PFS quantile stops the trial
    out = run("ex_first", PPF_PA, PPF_PA, 0.0)
    assert out.case_label == "1.1"
    assert out.early_stop
    assert out.rejected_pfs and out.rejected_os and out.rejected_global
    # OS rejected at the interim
    assert out.rejected_os and out.early_stop
    # same inputs under ex_last: no early stop
    assert not run("ex_last", PPF_PA, PPF_PA, 0.0).early_stop
    # interim OS statistic above the elementary level: continue to final
    cont = run("ex_first", PPF_PA, PPF_PA + 1e-6, 0.0)
    assert cont.case_label == "1.2"
    assert not cont.early_stop


def test_bon_gs_interim_threshold_is_the_obf_spend():
    out = run("bon_gs", 0.0, PPF_B1, 5.0)
    assert out.early_stop
    assert out.rejected_os
    assert out.case_label == "1.1"
    assert out.rejected_os and out.early_stop
    assert not run("bon_gs", 0.0, PPF_B1 + 1e-9, 5.0).early_stop


def test_bon_gs_final_threshold_solves_the_spending_equation():
    out = run("bon_gs", 0.0, 0.0, -2.08)
    assert not out.early_stop
    assert out.rejected_os  # threshold is about -2.0791
    assert not run("bon_gs", 0.0, 0.0, -2.07).rejected_os
    # the intersection's final OS look and the elementary OS test solve
    # the same equation: bon_gs recycles nothing
    assert out.case_label == "2"
    xi = factors(out)["final_joint"]
    assert factors(out)["elementary_final"] == xi
    thr = norm.ppf(xi * (0.02 - B1))
    assert thr == pytest.approx(-2.0791, abs=2e-4)
    # defining equation: interim plus final OS looks exhaust the OS share
    from duosurv.mvnorm import OrthantQuery, mvn_upper_orthant
    achieved = 1.0 - mvn_upper_orthant(OrthantQuery(
        (thr, PPF_B1), np.array([[1.0, R_O1O2], [R_O1O2, 1.0]])))
    assert achieved == pytest.approx(0.02, abs=2e-5)


def test_rec_gs_recycles_only_after_pfs_rejection():
    # recycled final threshold about -1.9771, plain about -2.0791
    zo2 = -2.0
    assert not run("bon_gs", PPF_PA, 0.0, zo2).rejected_os
    out = run("rec_gs", PPF_PA, 0.0, zo2)
    assert out.rejected_pfs and out.rejected_os
    assert out.case_label == "1.2"
    assert "elementary_final" in factors(out)
    plain = run("rec_gs", 0.0, 0.0, zo2)
    assert not plain.rejected_os
    assert plain.case_label == "2"
    assert "final_joint" in factors(plain)
    # interim OS look is untouched by recycling
    assert run("rec_gs", PPF_PA, PPF_B1, 5.0).early_stop


def test_ex_gs_interim_intersection_is_jointly_inflated():
    # joint solve of (pa, b1) at target pa + b1 with r = 0.71 gives
    # xi1 about 1.13153: PFS threshold -2.5328, OS threshold -2.6325
    out = run("ex_gs_last", -2.54, 0.0, 5.0)
    assert out.rejected_pfs  # bon would not reject at -2.54 > -2.5758
    xi1 = factors(out)["interim_joint"]
    assert xi1 == pytest.approx(1.13153, abs=2e-4)
    assert norm.ppf(xi1 * 0.005) == pytest.approx(-2.5328, abs=2e-4)
    assert not run("bon_gs", -2.54, 0.0, 5.0).rejected_pfs


def test_ex_gs_last_early_stop_boundary_matches_elementary_spend():
    # early stop needs the intersection AND the elementary interim test;
    # for the last-variant the elementary interim level equals b1 exactly
    out = run("ex_gs_last", 0.0, PPF_B1, 5.0)
    assert out.case_label == "1.1"
    assert out.early_stop and out.rejected_os
    assert not out.rejected_pfs
    # between ppf(xi1 * b1) and ppf(b1): intersection falls, but the
    # elementary test does not, so no early stop and case 1.2
    mid = run("ex_gs_last", 0.0, -2.65, 5.0)
    assert mid.case_label == "1.2"
    assert not mid.early_stop
    assert mid.rejected_global and not mid.rejected_pfs


def test_ex_gs_first_widens_the_early_stop_region():
    # elementary interim level pa + b1 = 0.0087449, threshold about -2.3762
    out = run("ex_gs_first", PPF_PA, -2.40, 5.0)
    assert out.case_label == "1.1"
    assert out.early_stop
    assert not run("bon_gs", PPF_PA, -2.40, 5.0).early_stop
    assert not run("ex_gs_last", PPF_PA, -2.40, 5.0).early_stop


def test_ex_gs_case2_threshold_and_gate():
    # intersection survives the interim; final threshold about -2.0521
    out = run("ex_gs_last", 0.0, 0.0, -2.06)
    assert out.case_label == "2"
    assert not out.rejected_pfs
    assert out.rejected_global
    xi = factors(out)["final_joint"]
    thr = norm.ppf(xi * (0.02 - B1))
    assert thr == pytest.approx(-2.0521, abs=2e-4)
    # consonance holds here, so the elementary OS test follows the
    # intersection rejection (threshold about -1.9771)
    assert out.rejected_os
    assert factors(out)["elementary_final"] > 1.0
    miss = run("ex_gs_last", 0.0, 0.0, -2.05)
    assert miss.case_label == "2"
    assert not miss.rejected_global and not miss.rejected_os


def test_case2_never_rejects_pfs():
    for proc in ("ex_last", "ex_first", "ex_gs_last", "ex_gs_first"):
        out = run(proc, 0.0, 0.0, -9.0)
        assert out.case_label == "2"
        assert not out.rejected_pfs
        assert out.rejected_global


def test_ex_first_os_rejection_requires_its_elementary_test():
    # r_p1o1 = 0.2, r_p1o2 = 0.6, r_o1o2 = 0.5 at tau = 0.3: the final
    # intersection threshold (about -2.0175) lies above the elementary final
    # threshold (about -2.0283), and the elementary interim test at ppf(pa)
    # does not reject at z_os_interim = 0; so z_os_final = -2.0273 rejects
    # the intersection but not OS
    inputs = AnalysisInputs(
        z_pfs_interim=0.0, z_os_interim=0.0, z_os_final=-2.0273,
        r_p1o1=0.2, r_p1o2=0.6, r_o1o2=0.5, os_fraction_interim=0.3)
    out = run_procedure(DesignSpec("ex_first"), inputs)
    assert out.case_label == "2" and out.rejected_global
    assert not out.rejected_os
    assert not out.early_stop
    xi = factors(out)
    assert norm.ppf(xi["final_joint"] * 0.02) == pytest.approx(-2.0175,
                                                               abs=1e-4)
    assert norm.ppf(xi["elementary_final"] * 0.02) == pytest.approx(
        -2.0283, abs=1e-4)
    assert not check_consonance(DesignSpec("ex_first"), inputs)[0]
    # ex_last has no elementary interim look: its final test at full alpha
    # follows from the intersection rejection
    assert run_procedure(DesignSpec("ex_last"), inputs).rejected_os


def test_consonance_check():
    inputs = make_inputs(0.0, 0.0, 0.0)
    for proc in PROCEDURES:
        assert check_consonance(DesignSpec(proc), inputs)[0]


def test_every_procedure_reports_a_closed_test_case():
    for zp1, zo1 in ((0.0, 0.0), (PPF_PA, 0.0), (0.0, -9.0)):
        inputs = make_inputs(zp1, zo1, 0.0)
        for proc in PROCEDURES:
            out = run_procedure(DesignSpec(proc), inputs)
            assert out.case_label[0] in ("1.1", "1.2", "2"), proc
            # uninflated procedures test the interim shares at their own
            # levels, so only the exhaustive ones report an interim factor
            assert ("interim_joint" in factors(out)) == \
                proc.startswith("ex_"), proc


def test_design_spec_validation_and_levels():
    spec = DesignSpec("bon")
    assert spec.level_pfs == pytest.approx(0.005)
    assert spec.level_os == 0.025 - spec.level_pfs
    assert spec.elementary_os_level == spec.level_os
    assert DesignSpec("rec").elementary_os_level == 0.025
    ref = DesignSpec("os")
    assert ref.level_pfs == 0.0 and ref.level_os == 0.025
    assert not spec.is_group_sequential
    assert DesignSpec("ex_gs_first").is_group_sequential


@pytest.mark.parametrize("fields, fragment", [
    (dict(procedure="holm"), "unknown procedure"),
    (dict(alpha=0.6), "alpha"),
    (dict(alpha=float("nan")), "alpha"),
    (dict(rho_pfs=0.0), "positive"),
    (dict(rho_pfs=1.0), "positive"),
    (dict(rho_pfs=float("nan")), "positive"),
], ids=["procedure", "alpha", "alpha_nan", "zero", "rho_pfs_one",
        "rho_pfs_nan"])
def test_design_spec_config_errors(fields, fragment):
    with pytest.raises(ConfigError, match=fragment):
        DesignSpec(**{"procedure": "bon", **fields})


def test_spending_streams_per_procedure():
    for proc in PROCEDURES:
        design = DesignSpec(proc)
        assert design.os_shape.kind == ("obf_lan_demets"
                                        if design.is_group_sequential
                                        else "full_at_one")
    # step at tau >= 1 for _last, at once for _first; the shape spends the
    # remaining alpha - pa on top
    assert DesignSpec("ex_last").elementary_os_spend(0.5) == 0.0
    pa = DesignSpec("ex_first").level_pfs
    assert DesignSpec("ex_first").elementary_os_spend(0.5) == pa
    obf = SpendingFunction("obf_lan_demets").spend(0.5, 0.025 - pa)
    assert DesignSpec("ex_gs_last").elementary_os_spend(0.5) == obf
    assert DesignSpec("ex_gs_first").elementary_os_spend(0.5) == pa + obf
    # bon recycles nothing, even at tau >= 1
    assert DesignSpec("bon_gs").elementary_os_spend(0.5) == obf
    assert DesignSpec("bon").elementary_os_spend(1.0) == 0.025 - pa


def test_thresholds_do_not_depend_on_observed_statistics():
    # inflation factors are functions of the design and correlations only
    a = run("ex_gs_last", 0.0, 0.0, -2.2)
    b = run("ex_gs_last", 0.1, 0.2, -1.0)
    assert factors(a)["interim_joint"] == factors(b)["interim_joint"]
    assert factors(a)["final_joint"] == factors(b)["final_joint"]


SEVEN = ("z_pfs_interim", "z_os_interim", "z_os_final", "r_p1o1", "r_p1o2",
         "r_o1o2", "os_fraction_interim")


def test_a_block_decides_each_trial_as_alone():
    # random trials: positive-loading factor-model correlations, z values
    # over every closed-test case, interim fractions from 0.2 to 0.98
    rng = np.random.default_rng(20260814)
    m = 60
    loadings = rng.uniform(0.05, 0.69, size=(m, 4, 2))
    corr = loadings @ np.swapaxes(loadings, 1, 2)
    block = AnalysisInputs(
        *rng.uniform(-4.0, 0.5, size=(3, m)), r_p1o1=corr[:, 0, 1],
        r_p1o2=corr[:, 0, 3], r_o1o2=corr[:, 1, 3],
        os_fraction_interim=rng.uniform(0.2, 0.98, m))
    assert len(block) == m
    for proc in PROCEDURES:
        outcomes = run_procedure(DesignSpec(proc), block)
        assert len(outcomes) == m
        for i in range(m):
            alone = AnalysisInputs(*(getattr(block, f)[i] for f in SEVEN))
            assert trial_row(outcomes, i) == trial_row(
                run_procedure(DesignSpec(proc), alone))


def test_analysis_inputs_are_equal_length_arrays():
    one = make_inputs(0.0, -1.0, -2.0)
    assert len(one) == 1 and one.z_os_final.tolist() == [-2.0]
    two = AnalysisInputs.concatenate([one, make_inputs(1.0, 1.0, 1.0)])
    assert two.z_pfs_interim.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="one length"):
        AnalysisInputs([0.0, 1.0], 0.0, 0.0, 0.5, 0.5, 0.5, 0.6)

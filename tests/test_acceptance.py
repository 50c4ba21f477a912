"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Criteria 1, 2, 6 and 7 are Monte Carlo reproductions of the reference
operating characteristics of the nine procedures on the model 1 scenario;
3 and 4 tie the covariance machinery to first principles; 5 pins the
multivariate-normal layer; 8 guards the parallel determinism contract.
The Monte Carlo runs (criteria 1, 2, 3, 6 and 7) are marked slow: the
rest of the suite, ``pytest -m "not slow"``, finishes in seconds.
"""

import numpy as np
import pytest
from scipy.stats import norm

import oracles
from conftest import (cohort_from_patients, micro_cutoffs, micro_patients,
                      one_trial)
from duosurv import cli
from duosurv.harness import (
    analyze_cohort,
    default_designs,
    null_scenario,
    plan_events,
    power_scenario,
    run_experiment,
)
from duosurv.multistate import FrailtySpec, simulate_cohorts
from duosurv.mvnorm import (
    InflationProblem,
    OrthantQuery,
    mvn_upper_orthant,
    solve_inflation,
)
from duosurv.trialdata import OS, PFS

SEED = 20260814
N_REPS = 10_000

# rates() vector layout: rej_pfs, rej_os, disjunctive, conjunctive, early_stop
REJ_OS, DISJ, CONJ, EARLY = 1, 2, 3, 4


@pytest.fixture(scope="module")
def full_effect_run():
    """Scenario 1 at full effect, all nine procedures on shared cohorts."""
    return run_experiment(power_scenario(1, 1.0), default_designs(),
                          N_REPS, SEED)


@pytest.fixture(scope="module")
def null_runs():
    designs = default_designs(("bon", "ex_last", "os"))
    out = {}
    for key, scenario in [
            ((1600, False), null_scenario(1, 1600)),
            ((1600, True), null_scenario(1, 1600, FrailtySpec())),
            ((128, False), null_scenario(1, 128))]:
        out[key] = run_experiment(scenario, designs, N_REPS, SEED)
    return out


@pytest.mark.slow
def test_criterion_1_rejection_rates_match_reference_values(full_effect_run):
    targets = [
        ("bon", REJ_OS, 0.8072),
        ("rec", REJ_OS, 0.8225),
        ("ex_last", REJ_OS, 0.8264),
        ("os", REJ_OS, 0.8313),
        ("bon", DISJ, 0.8960),
        ("ex_last", DISJ, 0.8999),
        ("bon", CONJ, 0.7049),
        ("ex_first", EARLY, 0.4265),
    ]
    for procedure, index, want in targets:
        got = full_effect_run.rates(procedure)[index]
        assert got == pytest.approx(want, abs=0.013), (procedure, index)


@pytest.mark.slow
def test_criterion_2_fwer_exhaustion_under_the_null(null_runs):
    def fwer(key, procedure):
        return null_runs[key].rates(procedure)[DISJ]

    exhaustive = fwer((1600, False), "ex_last")
    assert 0.020 <= exhaustive <= 0.030
    assert fwer((1600, False), "bon") < exhaustive
    assert abs(fwer((1600, True), "ex_last") - exhaustive) < 0.006
    # small samples inflate both, but the exhaustive test stays at least as
    # large as the single-endpoint OS test
    assert fwer((128, False), "ex_last") >= fwer((128, False), "os") - 0.005


@pytest.mark.slow
def test_criterion_3_covariance_estimator_is_consistent():
    sc = null_scenario(1, 1600)
    u, sigma = [], []
    for r in range(2_000):
        analysis = analyze_cohort(simulate_cohorts(sc.model, SEED, [r]),
                                  sc.targets)
        u.append([res.u[0] for res in analysis.results])
        sigma.append(analysis.covariance.matrix[0])
    mean_sigma = np.mean(sigma, axis=0)
    empirical = np.cov(np.array(u).T, ddof=1)
    relative = np.abs(mean_sigma - empirical) / np.abs(empirical)
    assert relative.max() <= 0.10


def test_criterion_4_statistics_match_brute_force_oracles():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        patients = micro_patients(rng)
        cohort = cohort_from_patients(patients)
        t1, t2 = micro_cutoffs(rng)
        results, m = one_trial(cohort, t1, t2)
        for got, (t, endpoint) in zip(results, ((t1, PFS), (t1, OS),
                                                (t2, PFS), (t2, OS))):
            u, var = oracles.logrank_score(
                oracles.observe(patients, t, endpoint), len(patients))
            assert got.u == pytest.approx(u, abs=1e-12)
            assert got.var == pytest.approx(var, abs=1e-12)
        # each (PFS time, OS time) pair: (t1, t1), (t1, t2), (t2, t1), (t2, t2)
        for (i, j), (ta, tb) in (((0, 1), (t1, t1)), ((0, 3), (t1, t2)),
                                 ((2, 1), (t2, t1)), ((2, 3), (t2, t2))):
            want = oracles.cross_covariance(patients, ta, tb)
            assert m[i, j] == pytest.approx(want, abs=1e-12)


def test_criterion_5_mvn_layer_numerics():
    equi = np.full((3, 3), 0.5)
    np.fill_diagonal(equi, 1.0)
    orthant = mvn_upper_orthant(OrthantQuery(lower_z=(0.0, 0.0, 0.0),
                                             corr=equi))
    assert orthant == pytest.approx(0.25, abs=1e-5)

    a, b = -0.7, 1.3
    got = mvn_upper_orthant(OrthantQuery(lower_z=(a, b), corr=np.eye(2)))
    want = (1.0 - norm.cdf(a)) * (1.0 - norm.cdf(b))
    assert got == pytest.approx(want, abs=1e-7)

    xi = solve_inflation(InflationProblem(base_levels=(0.0125, 0.0125),
                                          corr=np.eye(2), target=0.025))
    assert xi == pytest.approx(1.00633, abs=1e-4)

    corr = np.array([[1.0, 0.71], [0.71, 1.0]])
    problem = InflationProblem(base_levels=(0.005, 0.02), corr=corr,
                               target=0.025)
    xi = solve_inflation(problem)
    bounds = tuple(norm.ppf(xi * level) for level in problem.base_levels)
    achieved = 1.0 - mvn_upper_orthant(OrthantQuery(bounds, corr))
    assert achieved == pytest.approx(0.025, abs=1e-6)


@pytest.mark.slow
def test_criterion_6_rejection_sets_nest_and_are_consonant(full_effect_run):
    o = full_effect_run.outcomes
    chains = (("bon", "rec"), ("rec", "ex_last"),
              ("bon_gs", "rec_gs"), ("rec_gs", "ex_gs_last"))
    for weaker, stronger in chains:
        # columns 0 and 1 are the elementary PFS / OS rejections
        assert np.all(o[weaker][:, :2] <= o[stronger][:, :2]), (weaker,
                                                                stronger)
    for procedure in full_effect_run.procedures:
        # column 2 is "any elementary rejected", column 5 the global test
        assert np.all(o[procedure][:, 2] <= o[procedure][:, 5]), procedure


@pytest.mark.slow
def test_criterion_7_planned_os_events_near_reference_value():
    design = default_designs(("ex_last",))[0]
    plan = plan_events(power_scenario(1, 1.0), design, target_power=0.80,
                       n_reps=N_REPS, seed=SEED)
    assert 576 <= plan.d_os <= 612, plan.evaluations


def test_criterion_8_worker_count_never_changes_output(tmp_path, capsys):
    from importlib import resources

    config = resources.files("duosurv") / "configs" / "scenario1_smoke.yaml"
    payloads = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}.csv"
        rc = cli.main(["simulate", "--config", str(config),
                       "--out", str(out), "--workers", str(workers)])
        assert rc == 0
        payloads.append(out.read_bytes())
    capsys.readouterr()
    assert payloads[0] == payloads[1]

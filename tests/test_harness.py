"""Scenario builders, the replication pipeline and experiment aggregation."""

import math
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

import oracles
from conftest import one_trial
from duosurv import harness, mvnorm
from duosurv.errors import ConfigError, NoSolution
from duosurv.harness import (
    CSV_COLUMNS,
    DROPOUT_RATE,
    Scenario,
    analyze_cohort,
    default_designs,
    metrics_csv_text,
    null_scenario,
    plan_events,
    power_scenario,
    run_experiment,
    table_intensities,
)
from duosurv.logrank import correlation
from duosurv.multistate import (CohortModel, FrailtySpec,
                                TransitionIntensities, simulate_cohorts)
from duosurv.mvnorm import solve_inflation
from duosurv.testing import (PROCEDURES, AnalysisInputs, DesignSpec,
                             run_procedure)
from duosurv.trialdata import OS, PFS, CutoffTargets, event_cutoffs

NO_EARLY_STOP = ("bon", "rec", "ex_last", "os")
SEED = 20260814
NUMBERS = ("z_pfs_interim", "z_os_interim", "z_os_final", "r_p1o1", "r_p1o2",
           "r_o1o2", "os_fraction_interim")


def test_dropout_rate_constant():
    assert DROPOUT_RATE == pytest.approx(-math.log(0.9) / 12.0)


def test_table_intensities():
    good, bad, d_pfs, d_os = table_intensities(1)
    assert good == TransitionIntensities(0.06, 0.30, 0.30)
    assert bad == TransitionIntensities(0.10, 0.40, 0.30)
    assert (d_pfs, d_os) == (433, 630)
    assert table_intensities(4)[3] == 963
    with pytest.raises(ConfigError, match="unknown model index"):
        table_intensities(5)


def test_power_scenario_interpolates_the_inferior_arm():
    sc = power_scenario(1, weight=1.0)
    good, bad, d_pfs, d_os = table_intensities(1)
    assert sc.model.control == bad
    assert sc.model.experimental == good
    assert sc.name == "m1_power_w100"
    assert sc.model.per_arm_rate == 25.0
    assert sc.model.max_per_arm == 800
    assert sc.model.dropout_rate == DROPOUT_RATE
    assert sc.model.frailty is None
    assert (sc.targets.d_pfs, sc.targets.d_os) == (d_pfs, d_os)

    half = power_scenario(1, weight=0.8)
    assert half.model.control.lambda_01 == pytest.approx(0.092)
    assert half.model.control.lambda_02 == pytest.approx(0.38)
    assert half.model.control.lambda_12 == pytest.approx(0.30)
    assert half.model.experimental == good
    assert half.name == "m1_power_w080"

    flat = power_scenario(1, weight=0.0)
    assert flat.model.control == good

    spec = FrailtySpec(shape=2.0, rate=2.0)
    frail = power_scenario(2, 1.0, spec)
    assert frail.model.frailty == spec
    assert frail.name == "m2_power_w100_frailty"

    with pytest.raises(ConfigError, match="weight"):
        power_scenario(1, weight=1.2)


def test_null_scenario_scales_with_size():
    sc = null_scenario(1, 1600)
    good = table_intensities(1)[0]
    assert sc.model.control == good
    assert sc.model.experimental == good
    assert sc.model.per_arm_rate == pytest.approx(25.0)
    assert sc.model.max_per_arm == 800
    assert (sc.targets.d_pfs, sc.targets.d_os) == (625, 950)
    assert sc.name == "m1_null_n1600"

    assert sc.model.frailty is None
    small = null_scenario(1, 128, FrailtySpec())
    assert small.model.frailty == FrailtySpec()
    assert small.model.per_arm_rate == pytest.approx(2.0)
    assert small.model.max_per_arm == 64
    assert (small.targets.d_pfs, small.targets.d_os) == (50, 76)
    assert small.name == "m1_null_n128_frailty"

    with pytest.raises(ConfigError, match="even"):
        null_scenario(1, 127)
    with pytest.raises(ConfigError, match="even"):
        null_scenario(1, 0)


def test_default_designs_cover_all_procedures():
    designs = default_designs()
    assert tuple(d.procedure for d in designs) == PROCEDURES
    assert all(d.alpha == 0.025 and d.rho_pfs == 0.2 for d in designs)
    two = default_designs(procedures=("bon", "os"), alpha=0.05, rho_pfs=0.5)
    assert len(two) == 2 and two[0].alpha == 0.05


def test_one_replication_reduces_to_analysis_inputs():
    sc = null_scenario(1, 128)
    analysis = analyze_cohort(simulate_cohorts(sc.model, 0, [0]), sc.targets)
    inputs = analysis.inputs
    assert analysis.errors == [None] and len(inputs) == 1
    for z in (inputs.z_pfs_interim, inputs.z_os_interim, inputs.z_os_final):
        assert np.isfinite(z)
    for r in (inputs.r_p1o1, inputs.r_p1o2, inputs.r_o1o2):
        assert np.isfinite(r) and -1.0 <= r <= 1.0
    assert 0.0 < inputs.os_fraction_interim <= 1.5
    assert np.isfinite(analysis.results[2].z)
    assert analysis.covariance.matrix.shape == (1, 4, 4)


@pytest.mark.parametrize("scenario", [power_scenario(1),
                                      null_scenario(1, 128)],
                         ids=["power", "null_128"])
def test_analysis_inputs_hold_the_interim_pfs_and_os_correlations(scenario):
    for rep in range(3):
        block = simulate_cohorts(scenario.model, SEED, [rep])
        analysis = analyze_cohort(block, scenario.targets)
        inputs = analysis.inputs
        t_interim, t_final = analysis.t_interim[0], analysis.t_final[0]
        # the patients entered by the final cutoff alone, at both cutoffs;
        # rows pfs@interim, os@interim, pfs@final, os@final
        cohort = block.restricted_to(0)
        _, m = one_trial(cohort.restricted_to(cohort.entry <= t_final),
                         t_interim, t_final)
        corr = correlation(m[None])[0][0]
        read = (inputs.r_p1o1[0], inputs.r_p1o2[0], inputs.r_o1o2[0])
        assert read == (corr[0, 1], corr[0, 3], corr[1, 3])
        # the three read entries and the final-PFS ones all differ, so a
        # wrong or swapped index cannot go unseen
        assert len(set(read) | {corr[0, 2], corr[1, 2], corr[2, 3]}) == 6


def test_procedures_of_one_trial_share_inflation_solves(monkeypatch):
    # outcomes are the same without the per-block cache in
    # AnalysisInputs.solves; only the count of solved trials shows that it
    # dedupes across the nine procedures (327 trial-solves here without it)
    solved = []

    def counting(base_levels, *args):
        solved.append(len(base_levels))
        return solve_inflation(base_levels, *args)

    monkeypatch.setattr(mvnorm, "solve_inflation", counting)
    run_experiment(power_scenario(1), default_designs(), 50, SEED)
    assert sum(solved) == 202


def test_failure_labels_of_a_one_replication_experiment():
    sc = null_scenario(1, 128)
    for targets, label in ((CutoffTargets(d_pfs=50, d_os=1000),
                            "insufficient_events"),
                           (CutoffTargets(d_pfs=100, d_os=1),
                            "cutoff_order")):
        res = run_experiment(replace(sc, targets=targets),
                             default_designs(("bon",)), n_reps=1, seed=0)
        assert res.failures == Counter({label: 1})
        assert len(res.rep_ids) == 0


def test_replication_is_deterministic_in_seed_and_index():
    sc = null_scenario(1, 128)

    def inputs(seed, replication):
        return harness._reduce(simulate_cohorts(sc.model, seed, [replication]),
                               sc.targets).inputs

    a, b, c = inputs(7, 3), inputs(7, 3), inputs(7, 4)
    assert a.z_os_final == b.z_os_final
    assert a.z_os_final != c.z_os_final


def test_run_experiment_aggregation_identities():
    sc = null_scenario(1, 128)
    res = run_experiment(sc, default_designs(), n_reps=200, seed=42)
    assert res.n_reps == 200
    assert res.n_effective == 200 - res.n_failures
    assert res.n_failures < 20
    for proc in PROCEDURES:
        c = res.counts[proc]
        # inclusion-exclusion: disjunctive + conjunctive = pfs + os
        assert c[2] + c[3] == c[0] + c[1]
        assert all(0 <= v <= res.n_effective for v in c)
    for proc in NO_EARLY_STOP:
        assert res.counts[proc][4] == 0


def test_run_experiment_worker_count_is_invisible():
    sc = null_scenario(1, 128)
    designs = default_designs(procedures=("bon", "ex_gs_last", "os"))
    one = run_experiment(sc, designs, n_reps=120, seed=9, workers=1)
    three = run_experiment(sc, designs, n_reps=120, seed=9, workers=3)
    assert one.failures == three.failures
    for proc in one.procedures:
        assert np.array_equal(one.counts[proc], three.counts[proc])


FACTORS = ("interim_joint", "final_joint", "elementary_final")


@pytest.mark.parametrize("scenario", [power_scenario(1),
                                      null_scenario(1, 128, FrailtySpec())],
                         ids=["power", "null_128_frailty"])
def test_chunk_and_block_bounds_change_no_decision_and_no_factor(
        scenario, monkeypatch):
    # nor any bit of the seven numbers, however the cohorts are cut into
    # sub-blocks or the replications into chunks, blocks and workers
    designs = default_designs()
    recorded = []
    original = harness.run_procedure

    def recording(design, inputs):
        out = original(design, inputs)
        recorded.append((inputs, out))
        return out

    monkeypatch.setattr(harness, "run_procedure", recording)

    def run(bounds):
        """Rep ids, outcome bits, failures, every factor of every procedure
        (nan where not computed) and the seven numbers, over consecutive
        chunks."""
        recorded.clear()
        parts = [harness._run_chunk(scenario, designs, SEED, a, b)
                 for a, b in zip(bounds[:-1], bounds[1:])]
        factors = {(p, name): np.concatenate(
            [out.inflation_factors.get(name, np.full(len(out), np.nan))
             for _, out in recorded if out.procedure == p]).tobytes()
            for p in PROCEDURES for name in FACTORS}
        inputs = AnalysisInputs.concatenate(
            [inputs for inputs, out in recorded if out.procedure == "bon"])
        return ([r for ids, _, _ in parts for r in ids],
                np.concatenate([bits for _, bits, _ in parts]).tobytes(),
                sum((f for _, _, f in parts), Counter()), factors,
                [getattr(inputs, name).tobytes() for name in NUMBERS])

    n = 40
    whole = run([0, n])
    assert len(whole[0]) > 30
    # the trials keep different numbers of patients, so a sub-block pads
    # all but its widest
    kept = {int((cohort.entry <= analyze_cohort(
        cohort, scenario.targets).t_final[0]).sum())
        for cohort in (simulate_cohorts(scenario.model, SEED, [r])
                       for r in whole[0])}
    assert len(kept) > 5
    for k in (1, 17, 39):
        assert run([0, k, n]) == whole
    for rows in (1, 3, 7):
        monkeypatch.setattr(harness, "_CELLS",
                            rows * 2 * scenario.model.max_per_arm)
        assert run([0, n]) == whole
    assert run([0, 4, 11, 12, n]) == whole
    monkeypatch.setattr(harness, "_BLOCK", 7)
    assert run([0, n]) == whole
    # a worker runs one chunk
    one = run_experiment(scenario, designs, n, SEED, workers=1)
    two = run_experiment(scenario, designs, n, SEED, workers=2)
    assert (one.failures, one.rep_ids.tobytes()) == (two.failures,
                                                     two.rep_ids.tobytes())
    for proc in PROCEDURES:
        assert np.array_equal(one.outcomes[proc], two.outcomes[proc])


def test_block_rows_match_the_brute_force_scores():
    # each row of a sub-block of 128-patient trials, against the oracle's
    # score and variance over the patients kept by its final cutoff
    sc = null_scenario(1, 128)
    block = simulate_cohorts(sc.model, SEED, range(6))
    reduced = harness._reduce(block, sc.targets)
    inputs, t_interim, t_final = (reduced.inputs, reduced.t_interim,
                                  reduced.t_final)
    assert reduced.errors == [None] * 6
    for i in range(6):
        cohort = block.restricted_to(i)
        keep = cohort.entry <= t_final[i]
        patients = list(zip(cohort.arm[keep], cohort.entry[keep],
                            cohort.t_pfs[keep], cohort.t_os[keep],
                            cohort.dropout[keep]))
        for z, t, endpoint in ((inputs.z_pfs_interim, t_interim, PFS),
                               (inputs.z_os_interim, t_interim, OS),
                               (inputs.z_os_final, t_final, OS)):
            u, var = oracles.logrank_score(
                oracles.observe(patients, t[i], endpoint), len(patients))
            assert z[i] == pytest.approx(u / math.sqrt(var), abs=1e-12)


def test_a_mixed_block_labels_each_failure_as_the_per_trial_rule():
    # near the cohort size some trials run out of events and others reach
    # the final target first; every label and message is the per-trial
    # rule's, and every analyzable trial's numbers are its block of one's
    sc = Scenario(name="mixed", model=null_scenario(1, 128).model,
                  targets=CutoffTargets(d_pfs=124, d_os=122))
    reduced = harness._reduce(simulate_cohorts(sc.model, SEED, range(24)),
                              sc.targets)
    inputs, errors = reduced.inputs, reduced.errors

    def per_trial(rep):
        block = simulate_cohorts(sc.model, SEED, [rep])
        (t_interim,), (e_pfs,) = event_cutoffs(block, PFS, sc.targets.d_pfs)
        (t_final,), (e_os,) = event_cutoffs(block, OS, sc.targets.d_os)
        if e_pfs or e_os:
            return "insufficient_events", str(e_pfs or e_os)
        return ("cutoff_order", None) if t_interim >= t_final else (None, None)

    got = [(None, None) if e is None else (harness._LABELS[type(e)], str(e))
           for e in errors]
    want = [per_trial(rep) for rep in range(24)]
    assert [g[0] for g in got] == [w[0] for w in want]
    assert {w[0] for w in want} == {None, "insufficient_events",
                                    "cutoff_order"}
    for (_, message), (label, expected) in zip(got, want):
        if label == "insufficient_events":
            assert message == expected
    ok = [r for r, e in enumerate(errors) if e is None]
    assert len(inputs) == len(ok)
    alone = [harness._reduce(simulate_cohorts(sc.model, SEED, [rep]),
                             sc.targets) for rep in range(24)]
    for k, rep in enumerate(ok):
        assert alone[rep].errors == [None]
        assert [getattr(alone[rep].inputs, name).tobytes()
                for name in NUMBERS] == [
            getattr(inputs, name)[k:k + 1].tobytes() for name in NUMBERS]
    for rep, error in enumerate(errors):
        if error is not None:
            (alone_error,) = alone[rep].errors
            assert type(alone_error) is type(error)
            assert len(alone[rep].inputs) == 0


def test_run_experiment_validation():
    sc = null_scenario(1, 128)
    with pytest.raises(ConfigError, match="n_reps"):
        run_experiment(sc, default_designs(), n_reps=0, seed=1)
    with pytest.raises(ConfigError, match="duplicate"):
        run_experiment(sc, [DesignSpec("bon"), DesignSpec("bon")],
                       n_reps=10, seed=1)
    # a typed error, not numpy's "need at least one array to stack"
    with pytest.raises(ConfigError, match="at least one design"):
        run_experiment(sc, [], n_reps=5, seed=0)


def test_outcome_matrix():
    sc = null_scenario(1, 128)
    res = run_experiment(sc, default_designs(), n_reps=150, seed=3)
    assert len(res.rep_ids) == res.n_effective
    assert np.all(np.diff(res.rep_ids) > 0)
    for proc in PROCEDURES:
        m = res.outcomes[proc]
        assert m.shape == (res.n_effective, 6) and m.dtype == bool
        # columns: pfs, os, disjunctive, conjunctive, early, global
        assert np.array_equal(m[:, 2], m[:, 0] | m[:, 1])
        assert np.array_equal(m[:, 3], m[:, 0] & m[:, 1])
        # an elementary rejection always came through the global test
        assert not np.any(m[:, 2] & ~m[:, 5])
        assert np.array_equal(m[:, :5].sum(axis=0), res.counts[proc])
        assert res.counts[proc].dtype == np.int64


def test_outcome_bits_hold_the_disjunctive_and_conjunctive_rejections():
    # bon on a trial whose PFS alone falls, then on one where both fall;
    # columns: pfs, os, disjunctive, conjunctive, early, global
    for z_os_final, bits in ((5.0, [1, 0, 1, 0, 0, 1]),
                             (norm.ppf(0.02), [1, 1, 1, 1, 0, 1])):
        inputs = AnalysisInputs(norm.ppf(0.005), 0.0, z_os_final, 0.71, 0.58,
                                0.80, 0.644)
        out = run_procedure(DesignSpec("bon"), inputs)
        assert harness._outcome_bits(out).tolist() == [bits]


def test_worker_count_is_capped_by_replications_and_cpus(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    assert harness._worker_count(1, 100) == 1
    assert harness._worker_count(3, 100) == 3
    assert harness._worker_count(64, 100) == 4
    assert harness._worker_count(64, 2) == 2
    assert harness._worker_count(0, 100) == 1
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._worker_count(8, 100) == 1


def test_metrics_csv_format():
    sc = null_scenario(1, 128)
    res = run_experiment(sc, default_designs(procedures=("bon",)),
                         n_reps=25, seed=2)
    text = metrics_csv_text(res.rows())
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_COLUMNS)
    assert fields[0] == "m1_null_n128" and fields[1] == "bon"
    assert fields[2] == "25"
    # rates carry six decimals
    assert all("." in f and len(f.split(".")[1]) == 6 for f in fields[3:13])
    assert text.endswith("\n")
    # regenerating gives the identical text
    assert metrics_csv_text(res.rows()) == text


def steep_scenario():
    """Tiny cohort with a drastic arm-1 benefit: power climbs fast in d_os."""
    model = CohortModel(control=TransitionIntensities(0.5, 0.8, 0.8),
                        experimental=TransitionIntensities(0.05, 0.1, 0.1),
                        per_arm_rate=25.0, max_per_arm=40)
    return Scenario(name="steep", model=model,
                    targets=CutoffTargets(d_pfs=10, d_os=60))


def test_plan_events_bisection():
    plan = plan_events(steep_scenario(), DesignSpec("os"), target_power=0.6,
                       n_reps=60, seed=21, bracket=(15, 60))
    assert 15 <= plan.d_os <= 60
    assert plan.power >= 0.6
    assert plan.d_pfs == 10
    assert plan.evaluations[plan.d_os] == plan.power
    # unless the answer is the bracket floor, one event fewer was read and
    # falls short
    if plan.d_os != 15:
        assert plan.evaluations[plan.d_os - 1] < 0.6


def table_power(monkeypatch, power):
    """Make each chunk read the OS rejection rate at ``d_os = d`` from
    ``power(d)``; returns the candidates in evaluation order."""
    calls = []

    def fake(scenario, design, seed, start, stop, kept):
        d = scenario.targets.d_os
        calls.append(d)
        return round(power(d) * (stop - start)), None

    monkeypatch.setattr(harness, "_plan_chunk", fake)
    return calls


def plan_steep():
    # default bracket (42, 60); the cohort holds 80
    return plan_events(steep_scenario(), DesignSpec("os"), target_power=0.8,
                       n_reps=100, seed=1)


def test_plan_rule_doubles_the_bracket_top_then_bisects(monkeypatch):
    calls = table_power(monkeypatch, lambda d: 0.9 if d >= 73 else 0.5)
    plan = plan_steep()
    # 60 falls short, so the top doubles to the cohort size of 80
    assert calls == [60, 80, 70, 75, 72, 73]
    assert plan.d_os == 73 and plan.power == 0.9
    assert list(plan.evaluations) == sorted(calls)


def test_plan_rule_ignores_a_dip_above_the_crossing(monkeypatch):
    calls = table_power(monkeypatch,
                        lambda d: 0.9 if d >= 49 and d != 50 else 0.5)
    plan = plan_steep()
    assert calls == [60, 42, 51, 46, 48, 49]
    assert plan.d_os == 49 and plan.evaluations[48] == 0.5


def test_plan_rule_returns_a_qualifying_floor(monkeypatch):
    calls = table_power(monkeypatch, lambda d: 0.9)
    plan = plan_steep()
    assert calls == [60, 42]
    assert plan.d_os == 42 and plan.power == 0.9


def test_plan_events_zero_target_returns_bracket_floor():
    plan = plan_events(steep_scenario(), DesignSpec("os"), target_power=0.0,
                       n_reps=10, seed=1, bracket=(15, 60))
    assert plan.d_os == 15
    assert plan.power >= 0.0


def test_plan_events_unreachable_target():
    sc = null_scenario(1, 128)
    with pytest.raises(NoSolution, match="not reached"):
        plan_events(sc, DesignSpec("os"), target_power=0.9, n_reps=40, seed=3)


def test_plan_events_all_failed_candidate_is_not_reached():
    # with heavy drop-out no cohort of 120 reaches 120 OS events, so the
    # largest candidate fails in every replication and its power is 0
    good, bad, _, _ = table_intensities(1)
    sc = Scenario(name="small", targets=CutoffTargets(d_pfs=30, d_os=40),
                  model=CohortModel(control=bad, experimental=good,
                                    per_arm_rate=25.0, max_per_arm=60,
                                    dropout_rate=0.1))
    with pytest.raises(NoSolution, match="not reached by d_os=120"):
        plan_events(sc, DesignSpec("os"), target_power=0.999, n_reps=20,
                    seed=0)


def test_plan_power_counts_failed_replications_as_not_rejected():
    # near the cohort size most replications run out of OS events: of 40,
    # 6 reject OS at d_os 116 (7 fail), 5 at 118 (25 fail) and none at 120
    # (39 fail).  Over the analyzable ones alone 118 would read 5/15 and
    # reach a target of 0.3 on a handful of trials
    good, bad, _, _ = table_intensities(1)
    sc = Scenario(name="near_cap", targets=CutoffTargets(d_pfs=30, d_os=118),
                  model=CohortModel(control=bad, experimental=good,
                                    per_arm_rate=25.0, max_per_arm=60,
                                    dropout_rate=0.01))
    with pytest.raises(NoSolution, match="not reached by d_os=120"):
        plan_events(sc, DesignSpec("os"), target_power=0.3, n_reps=40,
                    seed=0, bracket=(100, 118))
    plan = plan_events(sc, DesignSpec("os"), target_power=0.1, n_reps=40,
                       seed=0, bracket=(116, 118))
    assert plan.evaluations == {116: 6 / 40, 118: 5 / 40}


def mixed_scenario():
    """Near the cohort size some trials run out of events and others reach
    the final target first."""
    return Scenario(name="mixed", model=null_scenario(1, 128).model,
                    targets=CutoffTargets(d_pfs=124, d_os=122))


def early_scenario():
    """Cutoffs during accrual, with the PFS target above the OS one: in
    some trials the interim cutoff comes after the final one, and after
    every final cutoff of its sub-block."""
    return Scenario(name="early", model=null_scenario(1, 128).model,
                    targets=CutoffTargets(d_pfs=36, d_os=34))


def record_reductions(monkeypatch):
    """Record the ``d_os`` and the result of every sub-block reduction, and
    each interim half computed, by its cohort rows."""
    reductions, interims = [], []
    reduce, interim = harness._reduce, harness._Interim

    def recording(cohort, targets, half=None):
        reduced = reduce(cohort, targets, half)
        reductions.append((targets.d_os, reduced))
        return reduced

    class Counted(interim):
        def __init__(self, cohort, d_pfs):
            interims.append(len(cohort.entry))
            super().__init__(cohort, d_pfs)

    monkeypatch.setattr(harness, "_reduce", recording)
    monkeypatch.setattr(harness, "_Interim", Counted)
    return reductions, interims


@pytest.mark.parametrize("scenario, rows, target, bracket", [
    (steep_scenario(), 1, 0.9, (11, 40)),
    (steep_scenario(), 3, 0.9, (11, 40)),
    (steep_scenario(), 7, 0.9, (11, 40)),
    (steep_scenario(), 3, 0.9, (11, 13)),
    (mixed_scenario(), 3, 0.0, (121, 123)),
    (mixed_scenario(), 7, 0.0, (121, 123)),
    (early_scenario(), 3, 0.0, (33, 34)),
], ids=["steep_rows1", "steep_rows3", "steep_rows7", "steep_doubled_rows3",
        "mixed_rows3", "mixed_rows7", "early_rows3"])
def test_a_plan_reads_each_candidate_as_a_standalone_reduction(
        scenario, rows, target, bracket, monkeypatch):
    # at every d_os the plan reads, each trial's seven numbers and failure
    # label are, bit for bit, those of its block of one reduced from
    # scratch at that d_os, though each sub-block's interim half was
    # computed once, at the first candidate, and the candidates below it
    # read the cohort columns kept there
    n = 20
    monkeypatch.setattr(harness, "_CELLS",
                        rows * 2 * scenario.model.max_per_arm)
    reductions, interims = record_reductions(monkeypatch)
    design = DesignSpec("os")
    plan = plan_events(scenario, design, target, n, SEED, bracket=bracket)
    assert interims == [len(r.errors) for _, r in
                        reductions[:len(interims)]]
    assert len(interims) == -(-n // rows)
    assert len(plan.evaluations) > 1

    labels = set()
    for d in plan.evaluations:
        got = [r for d_os, r in reductions if d_os == d]
        errors = [e for r in got for e in r.errors]
        inputs = AnalysisInputs.concatenate([r.inputs for r in got])
        sc = replace(scenario, targets=CutoffTargets(scenario.targets.d_pfs,
                                                     d))
        alone = [harness._reduce(simulate_cohorts(sc.model, SEED, [rep]),
                                 sc.targets) for rep in range(n)]
        failures = [None if a.errors[0] is None
                    else harness._LABELS[type(a.errors[0])] for a in alone]
        assert [None if e is None else harness._LABELS[type(e)]
                for e in errors] == failures
        want = AnalysisInputs.concatenate([a.inputs for a in alone])
        assert [getattr(inputs, name).tobytes() for name in NUMBERS] == [
            getattr(want, name).tobytes() for name in NUMBERS]
        labels |= set(failures)
    if scenario.name == "mixed":
        assert {"insufficient_events", "cutoff_order"} <= labels
    if scenario.name == "early":
        assert "cutoff_order" in labels


@pytest.mark.parametrize("scenario", [steep_scenario(), mixed_scenario()],
                         ids=["steep", "mixed"])
def test_a_plan_on_two_workers_evaluates_as_on_one(scenario, monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_CELLS", 3 * 2 * scenario.model.max_per_arm)
    target, bracket = ((0.9, (11, 40)) if scenario.name == "steep"
                       else (0.0, (121, 123)))
    one, two = (plan_events(scenario, DesignSpec("os"), target, 20, SEED,
                            workers=workers, bracket=bracket)
                for workers in (1, 2))
    assert one == two
    assert len(one.evaluations) > 1


@pytest.mark.parametrize("bracket, doubled", [((11, 40), False),
                                             ((11, 13), True)],
                         ids=["within", "doubled"])
def test_a_plan_draws_each_cohort_once_up_to_its_first_candidate(
        bracket, doubled, monkeypatch):
    # each sub-block is drawn at the first candidate, the bracket top, and
    # again at every candidate above it (the top doubled), never at one
    # below it
    n, rows = 20, 3
    sc = steep_scenario()
    monkeypatch.setattr(harness, "_CELLS", rows * 2 * sc.model.max_per_arm)
    candidates, draws = [], Counter()
    plan_chunk, draw = harness._plan_chunk, harness.simulate_cohorts

    def planning(scenario, *args):
        candidates.append(scenario.targets.d_os)
        return plan_chunk(scenario, *args)

    def drawing(model, seed, reps):
        draws[candidates[-1]] += 1
        return draw(model, seed, reps)

    monkeypatch.setattr(harness, "_plan_chunk", planning)
    monkeypatch.setattr(harness, "simulate_cohorts", drawing)
    plan = plan_events(sc, DesignSpec("os"), 0.9, n, SEED, bracket=bracket)
    first = candidates[0]
    assert first == bracket[1]
    assert list(plan.evaluations) == sorted(candidates)
    above = [d for d in candidates if d > first]
    assert bool(above) == doubled
    if not doubled:
        assert any(d < first for d in candidates)
    assert draws == Counter({d: -(-n // rows) for d in [first] + above})


def test_a_plan_keeps_16_bytes_per_cell_of_each_sub_blocks_interim_span():
    # what a plan keeps of a chunk holds no view of a larger block: the
    # interim residuals take 16 bytes per cell of each sub-block's interim
    # span, the columns up to the last patient some row entered by its
    # interim cutoff; the cohort columns 24 per cell of each sub-block's
    # prefix, the columns up to the last patient some row entered by its
    # final cutoff; the entry grid and the arms 9 per prefix column; and
    # the rest a few numbers per trial
    sc, n = power_scenario(1), 12
    rows = harness._CELLS // (2 * sc.model.max_per_arm)
    kept = {}
    harness._run_chunk(sc, [DesignSpec("ex_last")], SEED, 0, n, kept)
    assert sorted(kept) == list(range(0, n, rows))
    entered, reach = [], []
    for block in (simulate_cohorts(sc.model, SEED, [r]) for r in range(n)):
        t_pfs = event_cutoffs(block, PFS, sc.targets.d_pfs)[0]
        t_os = event_cutoffs(block, OS, sc.targets.d_os)[0]
        entered.append(1 + np.flatnonzero(block.entry[0] <= t_pfs[0]).max())
        reach.append(1 + np.flatnonzero(block.entry[0] <= t_os[0]).max())

    def spans(last):
        """Each sub-block's width and its cells, over all its rows."""
        widths = [max(last[low:low + rows]) for low in range(0, n, rows)]
        return widths, sum(min(rows, n - low) * w
                           for low, w in zip(range(0, n, rows), widths))

    widths, cells = spans(reach)
    assert max(widths) < len(block)
    _, interim_cells = spans(entered)
    assert interim_cells < cells

    def owner(value):
        while value.base is not None:
            value = value.base
        return value

    owners = {}
    for held in kept.values():
        curves, cohort = held.curves, held.cohort
        for value in (cohort.arm, cohort.entry, cohort.t_pfs, cohort.t_os,
                      cohort.dropout, held.t, held.rows, curves.score,
                      curves.info, curves.n_events, curves.c11, curves.resid):
            owners[id(owner(value))] = owner(value).nbytes
    resid = sum(held.curves.resid.nbytes for held in kept.values())
    columns = sum(held.cohort.t_pfs.nbytes + held.cohort.t_os.nbytes
                  + held.cohort.dropout.nbytes for held in kept.values())
    grid = sum(owner(held.cohort.entry).nbytes + owner(held.cohort.arm).nbytes
               for held in kept.values())
    assert resid == 16 * interim_cells
    assert columns == 24 * cells
    assert grid == 9 * sum(widths)
    assert sum(owners.values()) <= resid + columns + grid + 80 * n
    # and a worker pool ships it as small: no broadcast view travels whole
    assert len(pickle.dumps(kept)) <= resid + columns + grid + 400 * n


def test_array_results_compare_by_identity():
    # two reductions of the same cohorts give equal arrays in distinct
    # results; == on them reads identity, as no array has one truth value
    sc = null_scenario(1, 128)
    blocks = [simulate_cohorts(sc.model, 0, range(3)) for _ in range(2)]
    one, two = (harness._reduce(block, sc.targets) for block in blocks)
    assert len(one.inputs) == 3
    curves = [harness._Interim(block, sc.targets.d_pfs).curves
              for block in blocks]
    for a, b in ((one.results[0], two.results[0]),
                 (one.covariance, two.covariance), (one, two), curves):
        assert a == a and a != b


def test_plan_events_validation():
    sc = steep_scenario()
    with pytest.raises(ConfigError, match="target_power"):
        plan_events(sc, DesignSpec("os"), target_power=1.0, n_reps=10, seed=1)
    with pytest.raises(ConfigError, match="target_power"):
        plan_events(sc, DesignSpec("os"), target_power=-0.1, n_reps=10, seed=1)
    with pytest.raises(ConfigError, match="bracket"):
        plan_events(sc, DesignSpec("os"), target_power=0.5, n_reps=10, seed=1,
                    bracket=(60, 10))
    with pytest.raises(ConfigError, match="bracket"):
        plan_events(sc, DesignSpec("os"), target_power=0.5, n_reps=10, seed=1,
                    bracket=(10, 500))
    # without a bracket the error names the scenario's d_os, not the
    # default bracket derived from it
    for d_pfs, d_os in ((10, 100), (1, 2)):
        no_bracket = replace(sc, targets=CutoffTargets(d_pfs, d_os))
        with pytest.raises(ConfigError,
                           match=rf"^scenario d_os={d_os} .*cohort 80$"):
            plan_events(no_bracket, DesignSpec("os"), target_power=0.5,
                        n_reps=10, seed=1)

"""Scenario builders, the replication pipeline and experiment aggregation."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from duosurv import harness
from duosurv.errors import ConfigError, NoSolution
from duosurv.harness import (
    CSV_COLUMNS,
    DROPOUT_RATE,
    Scenario,
    default_designs,
    metrics_csv_text,
    null_scenario,
    plan_events,
    power_scenario,
    run_experiment,
    simulate_replication,
    table_intensities,
)
from duosurv.multistate import (CohortModel, FrailtySpec,
                                TransitionIntensities)
from duosurv.testing import PROCEDURES, DesignSpec
from duosurv.trialdata import CutoffTargets

NO_EARLY_STOP = ("bon", "rec", "ex_last", "os")


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
    assert not sc.model.frailty.enabled
    assert (sc.targets.d_pfs, sc.targets.d_os) == (d_pfs, d_os)

    half = power_scenario(1, weight=0.8)
    assert half.model.control.lambda_01 == pytest.approx(0.092)
    assert half.model.control.lambda_02 == pytest.approx(0.38)
    assert half.model.control.lambda_12 == pytest.approx(0.30)
    assert half.model.experimental == good
    assert half.name == "m1_power_w080"

    flat = power_scenario(1, weight=0.0)
    assert flat.model.control == good

    spec = FrailtySpec(enabled=True, shape=2.0, rate=2.0)
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

    small = null_scenario(1, 128, FrailtySpec(enabled=True))
    assert small.model.frailty == FrailtySpec(enabled=True)
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


def test_simulate_replication_produces_analysis_inputs():
    sc = null_scenario(1, 128)
    inputs, failure = simulate_replication(sc, seed=0, replication=0)
    assert failure is None
    for z in (inputs.z_pfs_interim, inputs.z_os_interim, inputs.z_os_final,
              inputs.z_pfs_final):
        assert np.isfinite(z)
    assert 0.0 < inputs.os_fraction_interim <= 1.5
    assert inputs.covariance.matrix.shape == (4, 4)


def test_simulate_replication_failure_labels():
    sc = null_scenario(1, 128)
    too_many = Scenario(name="x", model=sc.model,
                        targets=CutoffTargets(d_pfs=50, d_os=1000))
    _, failure = simulate_replication(too_many, 0, 0)
    assert failure == "insufficient_events"

    swapped = Scenario(name="y", model=sc.model,
                       targets=CutoffTargets(d_pfs=100, d_os=1))
    _, failure = simulate_replication(swapped, 0, 0)
    assert failure == "cutoff_order"


def test_replication_is_deterministic_in_seed_and_index():
    sc = null_scenario(1, 128)
    a = simulate_replication(sc, 7, 3)[0]
    b = simulate_replication(sc, 7, 3)[0]
    c = simulate_replication(sc, 7, 4)[0]
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


def test_run_experiment_validation():
    sc = null_scenario(1, 128)
    with pytest.raises(ConfigError, match="n_reps"):
        run_experiment(sc, default_designs(), n_reps=0, seed=1)
    with pytest.raises(ConfigError, match="duplicate"):
        run_experiment(sc, [DesignSpec("bon"), DesignSpec("bon")],
                       n_reps=10, seed=1)


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
    """Make ``run_experiment`` read the OS rejection rate at ``d_os = d``
    from ``power(d)``; returns the candidates in evaluation order."""
    calls = []

    def fake(scenario, designs, n_reps, seed, workers=1):
        d = scenario.targets.d_os
        calls.append(d)
        counts = np.zeros(5, dtype=np.int64)
        counts[1] = round(power(d) * n_reps)
        return SimpleNamespace(counts={designs[0].procedure: counts})

    monkeypatch.setattr(harness, "run_experiment", fake)
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

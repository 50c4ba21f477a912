"""Monte Carlo experiments: scenarios, replication loop, sweeps, planning.

A scenario bundles everything the data generator needs (arm intensities,
recruitment, dropout, frailty, event targets).  One replication simulates a
cohort, locates the two event-triggered analysis times, freezes the two data
snapshots, and reduces them to the statistics bundle the testing layer
consumes.  Experiments aggregate pure counts per procedure, so results are
independent of how replications are partitioned across worker processes.

Replication ``r`` of an experiment derives its random stream from
``(seed, r)`` alone; the frailty variates are drawn after the shared base
block, so runs with frailty on and off are coupled pairwise.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConfigError, CutoffOrder, DegenerateVariance,
                     InsufficientEvents, NoSolution)
from .logrank import covariance_matrix, logrank
from .multistate import (ArmModel, DropoutSpec, FrailtySpec, RecruitmentSpec,
                         TransitionIntensities, simulate_cohort)
from .testing import AnalysisInputs, DesignSpec, PROCEDURES, run_procedure
from .trialdata import (OS, PFS, CutoffTargets, event_cutoff,
                        information_fraction, snapshot)

__all__ = [
    "DROPOUT_RATE",
    "Scenario",
    "MetricsRow",
    "ExperimentResult",
    "PlanResult",
    "CSV_COLUMNS",
    "table_intensities",
    "power_scenario",
    "null_scenario",
    "default_designs",
    "analyze_cohort",
    "simulate_replication",
    "run_experiment",
    "fwer_sweep",
    "power_sweep",
    "relative_to_baseline",
    "plan_events",
    "metrics_csv_text",
    "write_metrics_csv",
]

# 10% annual dropout, time unit one month
DROPOUT_RATE = -math.log(0.9) / 12.0

# (smaller-hazard row, full-separation row, d_pfs, d_os); null scenarios put
# the smaller hazards on both arms, effect scenarios keep them on arm 1
_TABLE_MODELS = {
    1: ((0.06, 0.30, 0.30), (0.10, 0.40, 0.30), 433, 630),
    2: ((0.30, 0.28, 0.50), (0.50, 0.30, 0.60), 452, 747),
    3: ((0.140, 0.112, 0.250), (0.180, 0.150, 0.255), 644, 742),
    4: ((0.18, 0.06, 0.17), (0.23, 0.07, 0.19), 940, 963),
}

_ACCRUAL_UNITS = 32.0
_POWER_RATE_PER_ARM = 25.0
_POWER_CAP_PER_ARM = 800
_FWER_PFS_RATE = 25.0 / 64.0
_FWER_OS_RATE = 38.0 / 64.0

CSV_COLUMNS = (
    "scenario", "procedure", "n_reps", "rej_pfs", "rej_os", "disjunctive",
    "conjunctive", "early_stop", "se_rej_pfs", "se_rej_os", "se_disj",
    "se_conj", "se_early", "failures",
)


@dataclass(frozen=True)
class Scenario:
    """Complete data-generating configuration plus analysis event targets."""

    name: str
    model: ArmModel
    recruitment: RecruitmentSpec
    dropout: DropoutSpec
    frailty: FrailtySpec
    targets: CutoffTargets

    def validate(self) -> None:
        self.model.validate()
        self.recruitment.validate()
        self.dropout.validate()
        self.frailty.validate()
        self.targets.validate()


def table_intensities(index: int):
    """Good-arm and bad-arm intensities plus planned event numbers."""
    if index not in _TABLE_MODELS:
        raise ConfigError(f"unknown model index {index}; choose from 1-4")
    good, bad, d_pfs, d_os = _TABLE_MODELS[index]
    return (TransitionIntensities(*good), TransitionIntensities(*bad),
            d_pfs, d_os)


def _scenario_name(index, kind, frailty, suffix):
    tag = f"m{index}_{kind}_{suffix}"
    return tag + "_frailty" if frailty else tag


def power_scenario(index: int, weight: float = 1.0,
                   frailty: bool = False) -> Scenario:
    """Effect scenario: the inferior arm sits ``weight`` of the way out.

    The smaller-hazard table row stays fixed on arm 1 (a benefit there
    drives the standardized statistics negative, which is the rejection
    direction), while the other arm moves from equal intensities at
    ``weight`` 0 to the full-separation row at ``weight`` 1.
    """
    if not 0.0 <= weight <= 1.0:
        raise ConfigError("weight must lie in [0, 1]")
    good, bad, d_pfs, d_os = table_intensities(index)
    worse = TransitionIntensities(
        good.lambda_01 + weight * (bad.lambda_01 - good.lambda_01),
        good.lambda_02 + weight * (bad.lambda_02 - good.lambda_02),
        good.lambda_12 + weight * (bad.lambda_12 - good.lambda_12),
    )
    return Scenario(
        name=_scenario_name(index, "power", frailty,
                            f"w{int(round(100 * weight)):03d}"),
        model=ArmModel(control=worse, experimental_target=good, weight=1.0),
        recruitment=RecruitmentSpec(per_arm_rate=_POWER_RATE_PER_ARM,
                                    max_per_arm=_POWER_CAP_PER_ARM),
        dropout=DropoutSpec(rate=DROPOUT_RATE),
        frailty=FrailtySpec(enabled=frailty),
        targets=CutoffTargets(d_pfs=d_pfs, d_os=d_os),
    )


def null_scenario(index: int, n_total: int, frailty: bool = False) -> Scenario:
    """Both arms at the good-arm intensities; targets scale with size."""
    if n_total < 2 or n_total % 2:
        raise ConfigError("n_total must be a positive even number")
    good, _, _, _ = table_intensities(index)
    return Scenario(
        name=_scenario_name(index, "null", frailty, f"n{n_total}"),
        model=ArmModel(control=good, experimental_target=good, weight=0.0),
        recruitment=RecruitmentSpec(per_arm_rate=n_total / (2 * _ACCRUAL_UNITS),
                                    max_per_arm=n_total // 2),
        dropout=DropoutSpec(rate=DROPOUT_RATE),
        frailty=FrailtySpec(enabled=frailty),
        targets=CutoffTargets.from_rates(_FWER_PFS_RATE, _FWER_OS_RATE,
                                         n_total),
    )


def default_designs(procedures=PROCEDURES, alpha: float = 0.025,
                    rho_pfs: float = 0.2, rho_os: float = 0.8):
    return [DesignSpec(procedure=p, alpha=alpha, rho_pfs=rho_pfs,
                       rho_os=rho_os) for p in procedures]


def analyze_cohort(cohort, targets: CutoffTargets):
    """Event-driven cutoffs, snapshots and statistics of one cohort.

    Returns ``(inputs, interim, final)``: the testing layer's inputs plus
    the two snapshots, whose calendar times are the cutoffs.  Raises
    ``InsufficientEvents``, ``CutoffOrder`` or ``DegenerateVariance``.
    """
    t_interim = event_cutoff(cohort, PFS, targets.d_pfs)
    t_final = event_cutoff(cohort, OS, targets.d_os)
    if t_interim >= t_final:
        raise CutoffOrder(
            f"interim cutoff {t_interim:.4f} not before final {t_final:.4f}; "
            "check the event targets")
    kept = cohort.restricted_to(cohort.entry <= t_final)
    interim = snapshot(kept, t_interim)
    final = snapshot(kept, t_final)
    lr = [logrank(interim, PFS), logrank(interim, OS),
          logrank(final, PFS), logrank(final, OS)]
    cov = covariance_matrix(interim, final)
    z = [r.require_z() for r in lr]
    inputs = AnalysisInputs(
        z_pfs_interim=z[0], z_os_interim=z[1], z_os_final=z[3],
        covariance=cov,
        os_fraction_interim=information_fraction(interim, OS, targets.d_os),
        z_pfs_final=z[2])
    return inputs, interim, final


def simulate_replication(scenario: Scenario, seed: int, replication: int,
                         want_statistics: bool = False):
    """One cohort reduced to analysis statistics.

    Returns ``(inputs, failure, record)``: exactly one of ``inputs`` and
    ``failure`` is set.  Failures are replications no trial of this design
    could analyze: not enough events for a cutoff, analyses out of order,
    or a degenerate variance.
    """
    cohort = simulate_cohort(scenario.model, scenario.recruitment,
                             scenario.dropout, scenario.frailty, seed,
                             replication)
    try:
        inputs, interim, final = analyze_cohort(cohort, scenario.targets)
    except InsufficientEvents:
        return None, "insufficient_events", None
    except CutoffOrder:
        return None, "cutoff_order", None
    except DegenerateVariance:
        return None, "degenerate_variance", None
    record = None
    if want_statistics:
        u = [logrank(snap, endpoint).u for snap in (interim, final)
             for endpoint in (PFS, OS)]
        record = (np.array(u), inputs.covariance.matrix)
    return inputs, None, record


def _outcome_bits(out) -> tuple:
    return (out.rejected_pfs, out.rejected_os,
            out.rejected_pfs or out.rejected_os,
            out.rejected_pfs and out.rejected_os,
            out.early_stop, out.rejected_global)


def _run_chunk(scenario, designs, seed, start, stop, keep_outcomes,
               keep_statistics):
    counts = {d.procedure: np.zeros(5, dtype=np.int64) for d in designs}
    failures = Counter()
    outcomes = {d.procedure: [] for d in designs} if keep_outcomes else None
    rep_ids = [] if keep_outcomes else None
    stats = [] if keep_statistics else None

    for rep in range(start, stop):
        inputs, fail, record = simulate_replication(scenario, seed, rep,
                                                    keep_statistics)
        if fail is not None:
            failures[fail] += 1
            continue
        if keep_statistics:
            stats.append(record)
        if keep_outcomes:
            rep_ids.append(rep)
        for d in designs:
            bits = _outcome_bits(run_procedure(d, inputs))
            counts[d.procedure] += np.array(bits[:5], dtype=np.int64)
            if keep_outcomes:
                outcomes[d.procedure].append(bits)
    return counts, failures, outcomes, rep_ids, stats


@dataclass(frozen=True)
class MetricsRow:
    scenario: str
    procedure: str
    n_reps: int
    rej_pfs: float
    rej_os: float
    disjunctive: float
    conjunctive: float
    early_stop: float
    se_rej_pfs: float
    se_rej_os: float
    se_disj: float
    se_conj: float
    se_early: float
    failures: int

    def formatted(self) -> list:
        vals = [self.rej_pfs, self.rej_os, self.disjunctive, self.conjunctive,
                self.early_stop, self.se_rej_pfs, self.se_rej_os, self.se_disj,
                self.se_conj, self.se_early]
        return ([self.scenario, self.procedure, str(self.n_reps)]
                + [f"{v:.6f}" for v in vals] + [str(self.failures)])


@dataclass
class ExperimentResult:
    scenario: str
    n_reps: int
    procedures: tuple
    counts: dict
    failures: Counter
    rep_ids: np.ndarray | None = None
    outcomes: dict | None = None
    u_statistics: np.ndarray | None = None
    sigma_estimates: np.ndarray | None = None

    @property
    def n_failures(self) -> int:
        return sum(self.failures.values())

    @property
    def n_effective(self) -> int:
        return self.n_reps - self.n_failures

    def rates(self, procedure: str) -> np.ndarray:
        n = self.n_effective
        c = self.counts[procedure]
        return c / n if n > 0 else np.full(5, np.nan)

    def rows(self) -> list:
        rows = []
        n = self.n_effective
        for proc in self.procedures:
            p = self.rates(proc)
            se = (np.sqrt(p * (1.0 - p) / n) if n > 0
                  else np.full(5, np.nan))
            rows.append(MetricsRow(
                scenario=self.scenario, procedure=proc, n_reps=self.n_reps,
                rej_pfs=p[0], rej_os=p[1], disjunctive=p[2], conjunctive=p[3],
                early_stop=p[4], se_rej_pfs=se[0], se_rej_os=se[1],
                se_disj=se[2], se_conj=se[3], se_early=se[4],
                failures=self.n_failures))
        return rows


def run_experiment(scenario: Scenario, designs, n_reps: int, seed: int,
                   workers: int = 1, keep_outcomes: bool = False,
                   keep_statistics: bool = False) -> ExperimentResult:
    """Run ``n_reps`` replications of every design on shared cohorts.

    Results are exact counts, so any worker count yields the same numbers.
    """
    scenario.validate()
    if n_reps <= 0:
        raise ConfigError("n_reps must be positive")
    procs = tuple(d.procedure for d in designs)
    if len(set(procs)) != len(procs):
        raise ConfigError("duplicate procedures in design list")

    if workers <= 1:
        parts = [_run_chunk(scenario, designs, seed, 0, n_reps,
                            keep_outcomes, keep_statistics)]
    else:
        bounds = [i * n_reps // workers for i in range(workers + 1)]
        spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            futures = [pool.submit(_run_chunk, scenario, designs, seed, a, b,
                                   keep_outcomes, keep_statistics)
                       for a, b in spans]
            parts = [f.result() for f in futures]

    counts = {p: np.zeros(5, dtype=np.int64) for p in procs}
    failures = Counter()
    outcomes = {p: [] for p in procs} if keep_outcomes else None
    rep_ids = [] if keep_outcomes else None
    stats = [] if keep_statistics else None
    for c_part, f_part, o_part, r_part, s_part in parts:
        for p in procs:
            counts[p] += c_part[p]
        failures.update(f_part)
        if keep_outcomes:
            rep_ids.extend(r_part)
            for p in procs:
                outcomes[p].extend(o_part[p])
        if keep_statistics:
            stats.extend(s_part)

    result = ExperimentResult(
        scenario=scenario.name, n_reps=n_reps, procedures=procs,
        counts=counts, failures=failures)
    if keep_outcomes:
        result.rep_ids = np.array(rep_ids, dtype=np.int64)
        result.outcomes = {p: np.array(outcomes[p], dtype=bool).reshape(-1, 6)
                           for p in procs}
    if keep_statistics and stats:
        result.u_statistics = np.array([s[0] for s in stats])
        result.sigma_estimates = np.array([s[1] for s in stats])
    return result


def fwer_sweep(index: int, total_sizes, n_reps: int, seed: int,
               designs=None, workers: int = 1) -> list:
    """Null rejection rates over sample sizes, frailty off and on.

    The same seed drives both members of a pair; the base event-history
    draws coincide, isolating the frailty effect.
    """
    designs = default_designs() if designs is None else designs
    rows = []
    for n_total in total_sizes:
        for frailty in (False, True):
            sc = null_scenario(index, n_total, frailty=frailty)
            rows.extend(run_experiment(sc, designs, n_reps, seed,
                                       workers=workers).rows())
    return rows


def power_sweep(index: int, weights, n_reps: int, seed: int,
                designs=None, workers: int = 1,
                frailty: bool = False) -> list:
    designs = default_designs() if designs is None else designs
    rows = []
    for w in weights:
        sc = power_scenario(index, weight=w, frailty=frailty)
        rows.extend(run_experiment(sc, designs, n_reps, seed,
                                   workers=workers).rows())
    return rows


def relative_to_baseline(rows, baseline: str = "bon") -> list:
    """Per-scenario rate ratios against a baseline procedure's row."""
    by_scenario = {}
    for row in rows:
        if row.procedure == baseline:
            by_scenario[row.scenario] = row
    out = []
    for row in rows:
        base = by_scenario.get(row.scenario)
        if base is None or row.procedure == baseline:
            continue

        def ratio(a, b):
            return a / b if b > 0 else math.nan

        out.append({
            "scenario": row.scenario,
            "procedure": row.procedure,
            "baseline": baseline,
            "rel_rej_os": ratio(row.rej_os, base.rej_os),
            "rel_disjunctive": ratio(row.disjunctive, base.disjunctive),
            "rel_conjunctive": ratio(row.conjunctive, base.conjunctive),
        })
    return out


@dataclass(frozen=True)
class PlanResult:
    d_os: int
    power: float
    target_power: float
    d_pfs: int
    evaluations: dict


def plan_events(scenario: Scenario, design: DesignSpec, target_power: float,
                n_reps: int, seed: int, workers: int = 1,
                bracket: tuple | None = None) -> PlanResult:
    """Smallest OS event target whose OS rejection rate reaches the goal.

    Every candidate is evaluated with the same seed, so the power curve is
    monotone up to the treatment of replication failures and plain integer
    bisection applies; a +-3 scan around the bisection answer guards
    against local Monte Carlo wobble.
    """
    if not 0.0 <= target_power < 1.0:
        raise ConfigError("target_power must lie in [0, 1)")
    d0 = scenario.targets.d_os
    n_max = 2 * scenario.recruitment.max_per_arm
    cache: dict = {}

    def power_at(d: int) -> float:
        if d not in cache:
            sc = replace(scenario, targets=CutoffTargets(
                d_pfs=scenario.targets.d_pfs, d_os=d))
            res = run_experiment(sc, [design], n_reps, seed, workers=workers)
            cache[d] = float(res.rates(design.procedure)[1])
        return cache[d]

    lo, hi = bracket if bracket is not None else (max(2, int(0.7 * d0)), d0)
    if not 2 <= lo < hi <= n_max:
        raise ConfigError(f"bracket ({lo}, {hi}) invalid for cohort {n_max}")
    floor = lo
    while power_at(hi) < target_power:
        if hi >= n_max:
            raise NoSolution(
                f"target power {target_power} not reached by d_os={hi}")
        lo, hi = hi, min(2 * hi, n_max)
    if power_at(lo) >= target_power:
        # everything from the bracket floor on qualifies
        return PlanResult(d_os=lo, power=power_at(lo),
                          target_power=target_power,
                          d_pfs=scenario.targets.d_pfs,
                          evaluations=dict(sorted(cache.items())))

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_at(mid) >= target_power:
            hi = mid
        else:
            lo = mid

    best = hi
    for d in range(max(floor, hi - 3), min(n_max, hi + 3) + 1):
        if power_at(d) >= target_power and all(
                power_at(k) >= target_power
                for k in range(d, min(n_max, hi + 3) + 1)):
            best = d
            break
    return PlanResult(d_os=best, power=power_at(best),
                      target_power=target_power,
                      d_pfs=scenario.targets.d_pfs,
                      evaluations=dict(sorted(cache.items())))


def metrics_csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(r.formatted()) for r in rows)
    return "\n".join(lines) + "\n"


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(metrics_csv_text(rows))

"""Monte Carlo experiments: scenarios, replication loop, planning.

A scenario pairs the cohort model (arm intensities, recruitment, dropout,
frailty) with the two event targets.  One replication simulates a
cohort, locates the two event-triggered analysis times, freezes the two data
snapshots, and reduces them to the statistics bundle the testing layer
consumes.  Experiments keep one outcome row per replication and procedure,
in replication order, so results do not depend on the worker count.

Replication ``r`` of an experiment derives its random stream from
``(seed, r)`` alone; the frailty variates are drawn after the shared base
block, so runs with frailty on and off are coupled pairwise.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .errors import (ConfigError, CutoffOrder, DegenerateVariance,
                     InsufficientEvents, NoSolution, WorkerCrash)
from .logrank import covariance_matrix, logrank
from .multistate import (CohortModel, FrailtySpec, TransitionIntensities,
                         simulate_cohort)
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
    "plan_events",
    "metrics_csv_text",
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

@dataclass(frozen=True)
class Scenario:
    """Complete data-generating configuration plus analysis event targets."""

    name: str
    model: CohortModel
    targets: CutoffTargets

    def validate(self) -> None:
        self.model.validate()
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
    return tag + "_frailty" if frailty.enabled else tag


def power_scenario(index: int, weight: float = 1.0,
                   frailty: FrailtySpec = FrailtySpec()) -> Scenario:
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
        model=CohortModel(control=worse, experimental=good,
                          per_arm_rate=_POWER_RATE_PER_ARM,
                          max_per_arm=_POWER_CAP_PER_ARM,
                          dropout_rate=DROPOUT_RATE, frailty=frailty),
        targets=CutoffTargets(d_pfs=d_pfs, d_os=d_os),
    )


def null_scenario(index: int, n_total: int,
                  frailty: FrailtySpec = FrailtySpec()) -> Scenario:
    """Both arms at the good-arm intensities; targets scale with size."""
    if n_total < 2 or n_total % 2:
        raise ConfigError("n_total must be a positive even number")
    good, _, _, _ = table_intensities(index)
    return Scenario(
        name=_scenario_name(index, "null", frailty, f"n{n_total}"),
        model=CohortModel(control=good, experimental=good,
                          per_arm_rate=n_total / (2 * _ACCRUAL_UNITS),
                          max_per_arm=n_total // 2,
                          dropout_rate=DROPOUT_RATE, frailty=frailty),
        targets=CutoffTargets.from_rates(_FWER_PFS_RATE, _FWER_OS_RATE,
                                         n_total),
    )


def default_designs(procedures=PROCEDURES, alpha: float = 0.025,
                    rho_pfs: float = 0.2):
    return [DesignSpec(procedure=p, alpha=alpha, rho_pfs=rho_pfs)
            for p in procedures]


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


def simulate_replication(scenario: Scenario, seed: int, replication: int):
    """One cohort reduced to analysis statistics.

    Returns ``(inputs, failure)``: exactly one of the two is set.  Failures
    are replications no trial of this design could analyze: not enough
    events for a cutoff, analyses out of order, or a degenerate variance.
    """
    cohort = simulate_cohort(scenario.model, seed, replication)
    try:
        return analyze_cohort(cohort, scenario.targets)[0], None
    except InsufficientEvents:
        return None, "insufficient_events"
    except CutoffOrder:
        return None, "cutoff_order"
    except DegenerateVariance:
        return None, "degenerate_variance"


def _outcome_bits(out) -> tuple:
    return (out.rejected_pfs, out.rejected_os, out.rejected_any,
            out.rejected_all, out.early_stop, out.rejected_global)


def _run_chunk(scenario, designs, seed, start, stop):
    """Analyzable replication ids in ``[start, stop)``, their outcome bits
    (one row per design) and the failures by label."""
    rep_ids, bits, failures = [], [], Counter()
    for rep in range(start, stop):
        inputs, fail = simulate_replication(scenario, seed, rep)
        if fail is not None:
            failures[fail] += 1
            continue
        rep_ids.append(rep)
        bits.append([_outcome_bits(run_procedure(d, inputs)) for d in designs])
    shape = (len(rep_ids), len(designs), 6)
    return rep_ids, np.array(bits, dtype=bool).reshape(shape), failures


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
        return [f"{v:.6f}" if isinstance(v, float) else str(v)
                for v in astuple(self)]


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


@dataclass
class ExperimentResult:
    """``outcomes[p][k]`` holds the pfs, os, disjunctive, conjunctive,
    early-stop and global rejections of ``p`` in replication ``rep_ids[k]``."""

    scenario: str
    n_reps: int
    procedures: tuple
    failures: Counter
    rep_ids: np.ndarray
    outcomes: dict

    @property
    def counts(self) -> dict:
        return {p: m[:, :5].sum(axis=0, dtype=np.int64)
                for p, m in self.outcomes.items()}

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
            rows.append(MetricsRow(self.scenario, proc, self.n_reps, *p, *se,
                                   self.n_failures))
        return rows


def _worker_count(workers: int, n_reps: int) -> int:
    """Processes worth starting: at most one per replication and per CPU."""
    return max(1, min(workers, n_reps, os.cpu_count() or 1))


def run_experiment(scenario: Scenario, designs, n_reps: int, seed: int,
                   workers: int = 1) -> ExperimentResult:
    """Run ``n_reps`` replications of every design on shared cohorts.

    Rows come back in replication order, so any worker count yields the
    same result.  A worker process that dies raises ``WorkerCrash``.
    """
    scenario.validate()
    if n_reps <= 0:
        raise ConfigError("n_reps must be positive")
    procs = tuple(d.procedure for d in designs)
    if len(set(procs)) != len(procs):
        raise ConfigError("duplicate procedures in design list")

    workers = _worker_count(workers, n_reps)
    if workers == 1:
        parts = [_run_chunk(scenario, designs, seed, 0, n_reps)]
    else:
        bounds = [i * n_reps // workers for i in range(workers + 1)]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_chunk, scenario, designs, seed,
                                       a, b)
                           for a, b in zip(bounds[:-1], bounds[1:])]
                parts = [f.result() for f in futures]
        except BrokenProcessPool as exc:
            raise WorkerCrash(f"a worker process died while running "
                              f"scenario {scenario.name}") from exc

    bits = np.concatenate([b for _, b, _ in parts])
    return ExperimentResult(
        scenario=scenario.name, n_reps=n_reps, procedures=procs,
        failures=sum((f for _, _, f in parts), Counter()),
        rep_ids=np.array([r for ids, _, _ in parts for r in ids],
                         dtype=np.int64),
        outcomes={p: bits[:, i] for i, p in enumerate(procs)})


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

    The power of a candidate is its OS rejections over all ``n_reps``
    replications: a replication that cannot be analyzed (say, too few
    events for the cutoff) counts as OS not rejected.  Every candidate is
    evaluated with the same seed, so the power curve is monotone up to
    Monte Carlo wobble.

    The bracket defaults to ``(0.7 * d_os, d_os)`` of the scenario.  Its top
    doubles, up to the cohort size, until it reaches the target.  If the
    bracket floor reaches it too, the floor is the answer; otherwise
    integer bisection keeps ``power(lo) < target <= power(hi)`` and returns
    ``hi``, so ``power(d_os - 1)`` was evaluated and falls short.
    ``evaluations`` holds exactly the candidates this rule read.
    """
    if not 0.0 <= target_power < 1.0:
        raise ConfigError("target_power must lie in [0, 1)")
    d0 = scenario.targets.d_os
    n_max = 2 * scenario.model.max_per_arm
    cache: dict = {}

    def power_at(d: int) -> float:
        if d not in cache:
            sc = replace(scenario, targets=CutoffTargets(
                d_pfs=scenario.targets.d_pfs, d_os=d))
            res = run_experiment(sc, [design], n_reps, seed, workers=workers)
            cache[d] = float(res.counts[design.procedure][1]) / n_reps
        return cache[d]

    lo, hi = bracket if bracket is not None else (max(2, int(0.7 * d0)), d0)
    if not 2 <= lo < hi <= n_max:
        given = (f"bracket ({lo}, {hi})" if bracket is not None
                 else f"scenario d_os={d0} (default bracket)")
        raise ConfigError(f"{given} invalid for cohort {n_max}")
    while power_at(hi) < target_power:
        if hi >= n_max:
            raise NoSolution(
                f"target power {target_power} not reached by d_os={hi}")
        lo, hi = hi, min(2 * hi, n_max)
    if power_at(lo) >= target_power:
        hi = lo  # everything from the bracket floor on qualifies
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_at(mid) >= target_power:
            hi = mid
        else:
            lo = mid
    return PlanResult(d_os=hi, power=power_at(hi), target_power=target_power,
                      d_pfs=scenario.targets.d_pfs,
                      evaluations=dict(sorted(cache.items())))


def metrics_csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(r.formatted()) for r in rows)
    return "\n".join(lines) + "\n"

"""Monte Carlo experiments: scenarios, replication loop, planning.

A scenario pairs the cohort model (arm intensities, recruitment, dropout,
frailty) with the two event targets.  One replication simulates a
cohort, locates the two event-triggered analysis times, observes the data
at both, and reduces them to the seven numbers the testing layer
consumes.  Cohorts are drawn one by one and reduced a sub-block at a time,
one row per trial, and each procedure then decides a block of replications
at once; ``analyze_cohort`` runs the same reduction on a block of one
cohort.  Experiments keep one outcome row per replication and procedure,
in replication order, so results depend neither on the worker count nor
on how the replications are cut into sub-blocks and blocks.

The reduction has two halves.  The interim half depends on the cohorts and
``d_pfs`` only: the PFS cutoffs, the interim snapshots and their PFS and OS
log-rank curves, unscaled.  The final half reads it at one ``d_os``: the OS
cutoffs, the kept patients, whose count scales every statistic, the final
snapshots and curves, the covariances and the seven numbers.  ``simulate``
runs both per sub-block.  ``plan`` draws each sub-block's cohorts and
computes its interim half once, at its first candidate ``d_os``, and keeps
the cohort columns that the final half reads at any candidate up to that
one: every later such candidate reads them and computes the final half
alone, and only a candidate above the first draws the cohorts again.  Per
sub-block it keeps one state, the interim half: two float64 per cell of
the columns up to the last patient that some row entered by its interim
cutoff, and three per cell of the columns up to the last one that some
row entered by its final cutoff at the first candidate.

Replication ``r`` of an experiment derives its random stream from
``(seed, r)`` alone; the frailty variates are drawn after the shared base
block, so runs with frailty on and off are coupled pairwise.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, replace
from functools import partial

import numpy as np

from .errors import (ConfigError, CutoffOrder, DegenerateVariance,
                     InsufficientEvents, NoSolution, WorkerCrash)
from .logrank import (CovarianceEstimate, InterimCurves, correlation,
                      joint_covariance)
from .multistate import (Cohort, CohortModel, FrailtySpec,
                         TransitionIntensities, simulate_cohorts)
from .testing import AnalysisInputs, DesignSpec, PROCEDURES, run_procedure
from .trialdata import OS, PFS, CutoffTargets, event_cutoffs, observe

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
    "Analysis",
    "analyze_cohort",
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

# replications decided together: large enough that the procedures' numpy
# calls cover many trials each, small enough to keep a chunk's memory flat
_BLOCK = 256
# patients (trials x cohort size) whose cohorts are reduced together: many
# trials per numpy call at 128 patients, a flat memory at 1,600
_CELLS = 8192


@dataclass(frozen=True)
class Scenario:
    """Complete data-generating configuration plus analysis event targets."""

    name: str
    model: CohortModel
    targets: CutoffTargets


def table_intensities(index: int):
    """Good-arm and bad-arm intensities plus planned event numbers."""
    if index not in _TABLE_MODELS:
        raise ConfigError(f"unknown model index {index}; choose from 1-4")
    good, bad, d_pfs, d_os = _TABLE_MODELS[index]
    return (TransitionIntensities(*good), TransitionIntensities(*bad),
            d_pfs, d_os)


def _scenario_name(index, kind, frailty, suffix):
    tag = f"m{index}_{kind}_{suffix}"
    return tag if frailty is None else tag + "_frailty"


def power_scenario(index: int, weight: float = 1.0,
                   frailty: FrailtySpec | None = None) -> Scenario:
    """Effect scenario: the inferior arm sits ``weight`` of the way out.

    The smaller-hazard table row stays fixed on arm 1 (a benefit there
    drives the standardized statistics negative, which is the rejection
    direction), while the other arm moves from equal intensities at
    ``weight`` 0 to the full-separation row at ``weight`` 1.
    """
    if not 0.0 <= weight <= 1.0:
        raise ConfigError("weight must lie in [0, 1]")
    good, bad, d_pfs, d_os = table_intensities(index)
    return Scenario(
        name=_scenario_name(index, "power", frailty,
                            f"w{int(round(100 * weight)):03d}"),
        model=CohortModel(control=good.toward(bad, weight),
                          experimental=good,
                          per_arm_rate=_POWER_RATE_PER_ARM,
                          max_per_arm=_POWER_CAP_PER_ARM,
                          dropout_rate=DROPOUT_RATE, frailty=frailty),
        targets=CutoffTargets(d_pfs=d_pfs, d_os=d_os),
    )


def null_scenario(index: int, n_total: int,
                  frailty: FrailtySpec | None = None) -> Scenario:
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


# failure labels of the replications no trial could analyze
_LABELS = {InsufficientEvents: "insufficient_events",
           CutoffOrder: "cutoff_order",
           DegenerateVariance: "degenerate_variance"}


def _span(mask: np.ndarray) -> int:
    """Columns of a block up to the last one that some row marks."""
    return mask.shape[1] - np.argmax(mask[:, ::-1], axis=1).min()


class _Interim:
    """The half of a sub-block's reduction that does not depend on
    ``d_os``: each row's PFS cutoff ``t`` and its ``InsufficientEvents`` in
    ``errors``, and the interim ``curves`` of the ``rows`` with a cutoff,
    computed on the columns up to the last patient some such row entered by
    it.  A plan keeps it, with the cohort columns of :meth:`keep`.
    """

    def __init__(self, cohort: Cohort, d_pfs: int):
        self.t, self.errors = event_cutoffs(cohort, PFS, d_pfs)
        self.rows = np.flatnonzero(np.isfinite(self.t))
        self.curves = None
        if self.rows.size:
            t = self.t[self.rows]
            width = _span(cohort.entry[self.rows] <= t[:, None])
            self.curves = InterimCurves.of(observe(
                cohort.restricted_to((self.rows, slice(width))), t))

    def keep(self, cohort: Cohort, t_final: np.ndarray, d_os: int):
        """Keep the columns of ``cohort``, the block this half was computed
        from, that the final half reads at any ``d_os`` up to the given
        one, where the OS cutoffs are ``t_final``.

        A row's OS cutoff comes no later at a smaller ``d_os``, so the final
        half there reads only the patients entered by the row's final cutoff
        here; the interim half reads no columns, as its curves are kept.  A
        row with no final cutoff here keeps the whole block.  Of the columns
        up to the last such patient of the block, it keeps ``t_pfs``,
        ``t_os`` and ``dropout``, three float64 per patient of each row, and
        the entry grid and the arms, the same in every row of a drawn block,
        once, as ``grid``: :attr:`cohort` broadcasts them, as a pickled
        broadcast view would copy every row to and from a worker.
        """
        self.d_os = d_os
        width = _span(cohort.entry <= t_final[:, None])
        # copies, so that no kept column holds the whole block alive
        self.grid = [np.array(c[0, :width])
                     for c in (cohort.arm, cohort.entry)]
        self.columns = [np.array(c[:, :width])
                        for c in (cohort.t_pfs, cohort.t_os, cohort.dropout)]

    @property
    def cohort(self) -> Cohort:
        """The block of the kept columns."""
        shape = self.columns[0].shape
        return Cohort(*(np.broadcast_to(c, shape) for c in self.grid),
                      *self.columns)


@dataclass(frozen=True, eq=False)
class Analysis:
    """A block of cohorts analyzed, one row per trial.

    ``errors[i]`` is the ``InsufficientEvents``, ``CutoffOrder`` or
    ``DegenerateVariance`` row ``i`` fails with, None if it is analyzable;
    ``inputs`` holds the testing layer's inputs of the analyzable rows, in
    order.  ``t_interim`` and ``t_final`` are the calendar times of the two
    cutoffs, +inf where a cutoff never comes.  ``results`` (the log-rank
    results of PFS@t1, OS@t1, PFS@t2, OS@t2) and ``covariance`` (their
    joint covariance estimate) hold the rows with both cutoffs in order,
    None if there are none.
    """

    inputs: AnalysisInputs
    errors: list
    t_interim: np.ndarray
    t_final: np.ndarray
    results: list | None = None
    covariance: CovarianceEstimate | None = None


def _reduce(cohort: Cohort, targets: CutoffTargets,
            interim: _Interim | None = None) -> Analysis:
    """Cutoffs, snapshots and statistics of a block of cohorts, one per
    row, reduced to the seven numbers the testing layer reads.

    This is the final half, on top of ``interim``, the interim half of the
    same cohorts at ``targets.d_pfs`` (computed here when not given).
    Every number of a row depends on that row alone.
    """
    if interim is None:
        interim = _Interim(cohort, targets.d_pfs)
    t_final, errors = event_cutoffs(cohort, OS, targets.d_os)
    errors = [a or b for a, b in zip(interim.errors, errors)]
    for i in np.flatnonzero(interim.t >= t_final):
        errors[i] = errors[i] or CutoffOrder(
            f"interim cutoff {interim.t[i]:.4f} not before final "
            f"{t_final[i]:.4f}; check the event targets")
    rows = np.flatnonzero([e is None for e in errors])
    if not rows.size:
        return Analysis(AnalysisInputs(*[()] * 7), errors, interim.t,
                        t_final)
    # each trial keeps the patients entered by its final cutoff, and their
    # count scales all its statistics; the block drops the positions no
    # row keeps
    kept = cohort.entry[rows] <= t_final[rows, None]
    n_ref = kept.sum(axis=1)
    final = observe(cohort.restricted_to((rows, slice(_span(kept)))),
                    t_final[rows])
    curves = interim.curves
    if len(rows) < len(interim.rows):
        curves = curves.take(np.searchsorted(interim.rows, rows))
    lr, matrix = joint_covariance(curves, final, n_ref)
    # the testing layer reads no lr[2], but the covariance needs its curve;
    # the rows and columns of corr are pfs@interim, os@interim, pfs@final,
    # os@final
    corr, clamped, degenerate = correlation(matrix)
    for i, error in zip(rows, degenerate):
        errors[i] = error
    ok = np.array([e is None for e in degenerate])
    inputs = AnalysisInputs(
        z_pfs_interim=lr[0].z[ok], z_os_interim=lr[1].z[ok],
        z_os_final=lr[3].z[ok],
        r_p1o1=corr[ok, 0, 1], r_p1o2=corr[ok, 0, 3],
        r_o1o2=corr[ok, 1, 3],
        os_fraction_interim=lr[1].n_events[ok] / targets.d_os)
    return Analysis(inputs, errors, interim.t, t_final, lr,
                    CovarianceEstimate(matrix, corr, clamped))


def analyze_cohort(cohort: Cohort, targets: CutoffTargets) -> Analysis:
    """Event-driven cutoffs and statistics of a block of one cohort.

    Raises the ``InsufficientEvents``, ``CutoffOrder`` or
    ``DegenerateVariance`` the cohort fails with.
    """
    analysis = _reduce(cohort, targets)
    if analysis.errors[0] is not None:
        raise analysis.errors[0]
    return analysis


def _outcome_bits(out) -> np.ndarray:
    """The pfs, os, disjunctive, conjunctive, early-stop and global
    rejections of a block, one row per trial."""
    return np.column_stack((
        out.rejected_pfs, out.rejected_os, out.rejected_pfs | out.rejected_os,
        out.rejected_pfs & out.rejected_os, out.early_stop,
        out.rejected_global))


def _run_chunk(scenario, designs, seed, start, stop, kept=None):
    """Analyzable replication ids in ``[start, stop)``, their outcome bits
    (one row per design) and the failures by label.

    Each cohort is drawn from its own stream; the cohorts of up to
    ``_CELLS`` patients are simulated and reduced together, and the trials
    are decided in blocks of up to ``_BLOCK``: each design runs once per
    block.  No trial's numbers or decision depend on the others of its
    sub-block or block, so the chunk bounds change nothing.

    ``kept``, if given, maps the first replication of a sub-block to what
    a plan keeps of it, its ``_Interim``.  A sub-block not found there is
    drawn and keeps its own, for later calls at another ``d_os``; one found
    there reads its interim half, and its kept columns unless the scenario's
    ``d_os`` lies above the one they were kept at, where it is drawn again.
    """
    rep_ids, bits, failures = [], [], Counter()
    rows = max(1, _CELLS // (2 * scenario.model.max_per_arm))
    d_os = scenario.targets.d_os
    for first in range(start, stop, _BLOCK):
        block = []
        last = min(first + _BLOCK, stop)
        for low in range(first, last, rows):
            reps = range(low, min(low + rows, last))
            held = None if kept is None else kept.get(low)
            if held is None or d_os > held.d_os:
                cohort = simulate_cohorts(scenario.model, seed, reps)
            else:
                cohort = held.cohort
            interim = held or _Interim(cohort, scenario.targets.d_pfs)
            reduced = _reduce(cohort, scenario.targets, interim)
            if kept is not None and held is None:
                interim.keep(cohort, reduced.t_final, d_os)
                kept[low] = interim
            for rep, error in zip(reps, reduced.errors):
                if error is None:
                    rep_ids.append(rep)
                else:
                    failures[_LABELS[type(error)]] += 1
            block.append(reduced.inputs)
        inputs = AnalysisInputs.concatenate(block)
        if len(inputs):
            bits.append(np.stack([_outcome_bits(run_procedure(d, inputs))
                                  for d in designs], axis=1))
    if not bits:
        return rep_ids, np.zeros((0, len(designs), 6), dtype=bool), failures
    return rep_ids, np.concatenate(bits), failures


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


def _chunks(n_reps: int, workers: int):
    """The replication bounds ``(starts, stops)`` of one chunk per worker."""
    bounds = [i * n_reps // workers for i in range(workers + 1)]
    return bounds[:-1], bounds[1:]


@contextmanager
def _mapper(workers: int, scenario: Scenario):
    """The ``map`` that runs a command's chunks: the built-in one for a
    single worker, else that of one process pool, for every call the
    command makes.  A worker process that dies raises ``WorkerCrash``."""
    if workers == 1:
        yield map
        return
    # imported here, so that a single-worker command loads no process code
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield pool.map
    except BrokenProcessPool as exc:
        raise WorkerCrash(f"a worker process died while running "
                          f"scenario {scenario.name}") from exc


def run_experiment(scenario: Scenario, designs, n_reps: int, seed: int,
                   workers: int = 1) -> ExperimentResult:
    """Run ``n_reps`` replications of every design on shared cohorts.

    Rows come back in replication order, so any worker count yields the
    same result.  A worker process that dies raises ``WorkerCrash``.
    """
    if n_reps <= 0:
        raise ConfigError("n_reps must be positive")
    procs = tuple(d.procedure for d in designs)
    if not procs:
        raise ConfigError("need at least one design")
    if len(set(procs)) != len(procs):
        raise ConfigError("duplicate procedures in design list")

    workers = _worker_count(workers, n_reps)
    with _mapper(workers, scenario) as run:
        parts = list(run(partial(_run_chunk, scenario, designs, seed),
                         *_chunks(n_reps, workers)))

    bits = np.concatenate([b for _, b, _ in parts])
    return ExperimentResult(
        scenario=scenario.name, n_reps=n_reps, procedures=procs,
        failures=sum((f for _, _, f in parts), Counter()),
        rep_ids=np.array([r for ids, _, _ in parts for r in ids],
                         dtype=np.int64),
        outcomes={p: bits[:, i] for i, p in enumerate(procs)})


def _plan_chunk(scenario, design, seed, start, stop, kept):
    """OS rejections of ``design`` in replications ``[start, stop)`` at the
    scenario's ``d_os``, and what the plan keeps of the chunk's sub-blocks
    if ``kept`` is None, else None: the first candidate draws and keeps
    them, and they travel with the chunk's tasks at later candidates."""
    held = {} if kept is None else kept
    _, bits, _ = _run_chunk(scenario, [design], seed, start, stop, held)
    return int(bits[:, 0, 1].sum()), held if kept is None else None


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
    Monte Carlo wobble.  Each sub-block of cohorts is drawn, and its
    interim half computed, at the first candidate, the bracket top; every
    later candidate reads that interim half, and every one up to the first
    also reads the cohort columns kept there instead of drawing them again.

    The bracket defaults to ``(0.7 * d_os, d_os)`` of the scenario.  Its top
    doubles, up to the cohort size, until it reaches the target.  If the
    bracket floor reaches it too, the floor is the answer; otherwise
    integer bisection keeps ``power(lo) < target <= power(hi)`` and returns
    ``hi``, so ``power(d_os - 1)`` was evaluated and falls short.
    ``evaluations`` holds exactly the candidates this rule read.
    """
    if not 0.0 <= target_power < 1.0:
        raise ConfigError("target_power must lie in [0, 1)")
    if n_reps <= 0:
        raise ConfigError("n_reps must be positive")
    d0 = scenario.targets.d_os
    n_max = 2 * scenario.model.max_per_arm
    lo, hi = bracket if bracket is not None else (max(2, int(0.7 * d0)), d0)
    if not 2 <= lo < hi <= n_max:
        given = (f"bracket ({lo}, {hi})" if bracket is not None
                 else f"scenario d_os={d0} (default bracket)")
        raise ConfigError(f"{given} invalid for cohort {n_max}")

    workers = _worker_count(workers, n_reps)
    starts, stops = _chunks(n_reps, workers)
    kept = [None] * workers
    cache: dict = {}
    with _mapper(workers, scenario) as run:

        def power_at(d: int) -> float:
            if d not in cache:
                sc = replace(scenario, targets=CutoffTargets(
                    d_pfs=scenario.targets.d_pfs, d_os=d))
                parts = list(run(partial(_plan_chunk, sc, design, seed),
                                 starts, stops, kept))
                for k, (_, held) in enumerate(parts):
                    if held is not None:
                        kept[k] = held
                cache[d] = sum(count for count, _ in parts) / n_reps
            return cache[d]

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
    return PlanResult(d_os=hi, power=cache[hi], target_power=target_power,
                      d_pfs=scenario.targets.d_pfs,
                      evaluations=dict(sorted(cache.items())))


def metrics_csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(r.formatted()) for r in rows)
    return "\n".join(lines) + "\n"

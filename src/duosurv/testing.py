"""Closed testing of a PFS and an OS hypothesis across two analyses.

PFS is tested once, at the interim analysis triggered by the PFS event
target.  OS is tested by one error-spending test over the interim and the
final analysis, triggered by the OS event target, whose final threshold is
recalculated from the estimated correlation to use up the available level.
One-sided lower-tail tests throughout: a hypothesis is rejected when its
standardized log-rank statistic falls at or below the normal quantile of
the allotted level.

Levels come from splitting the one-sided alpha into a PFS share and an OS
share.  The ``_gs`` variants spend the OS share O'Brien-Fleming-type over
both analyses, the others all at the final one.  The procedures differ in
what happens to the PFS share once the PFS hypothesis is settled:

* ``bon`` / ``bon_gs``: nothing is passed on; each hypothesis keeps its
  share.
* ``rec`` / ``rec_gs``: a rejected PFS hypothesis donates its share to the
  not-yet-spent part of the OS test.
* ``ex_*``: closed testing with intersection levels inflated until the
  intersection test exhausts alpha exactly, given the estimated correlation
  between the standardized statistics.  ``_last`` releases the recycled
  PFS share to the OS test only at the final analysis, ``_first`` already
  at the interim.
* ``os``: the OS test at full alpha and no PFS test, as a reference.

Spending all at the final analysis, ``bon``, ``rec`` and ``os`` test OS
once, at the quantile of their level.  Their decisions could differ from a
single final test only at ``os_fraction_interim >= 1``, which the pipeline
never produces: the interim cutoff falls strictly before the date of the
``d_os``-th OS event, so fewer than ``d_os`` OS events are seen there.

The exhaustive procedures track the closed-test cases explicitly: case 1
means the intersection hypothesis fell at the interim (1.1 if the
elementary OS test also rejected there, 1.2 otherwise), case 2 means the
intersection survived to the final analysis.  A trial stops early exactly
when the OS hypothesis is rejected at the interim.  An OS rejection always
requires the elementary OS test to reject as well, in every case; only
when that test has no interim look (``ex_last``) does the intersection's
final threshold already imply it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError
from .logrank import CovarianceEstimate
from .mvnorm import InflationProblem, solve_inflation
from .spending import SpendingFunction

__all__ = [
    "PROCEDURES",
    "DesignSpec",
    "AnalysisInputs",
    "TrialOutcome",
    "run_procedure",
    "check_consonance",
]

PROCEDURES = (
    "bon",
    "rec",
    "ex_last",
    "ex_first",
    "bon_gs",
    "rec_gs",
    "ex_gs_last",
    "ex_gs_first",
    "os",
)

_GROUP_SEQUENTIAL = frozenset({"bon_gs", "rec_gs", "ex_gs_last", "ex_gs_first"})
_EXHAUSTIVE = frozenset({"ex_last", "ex_first", "ex_gs_last", "ex_gs_first"})
_FIRST = frozenset({"ex_first", "ex_gs_first"})
_RECYCLING = frozenset({"rec", "rec_gs"})

# covariance row order produced by logrank.covariance_matrix
_P1, _O1, _P2, _O2 = 0, 1, 2, 3


@dataclass(frozen=True)
class DesignSpec:
    """Procedure choice plus the level split.

    ``rho_pfs`` and ``rho_os`` are the fractions of ``alpha`` initially
    allotted to PFS and OS; they must sum to one.
    """

    procedure: str
    alpha: float = 0.025
    rho_pfs: float = 0.2
    rho_os: float = 0.8

    def __post_init__(self):
        if self.procedure not in PROCEDURES:
            raise ConfigError(f"unknown procedure {self.procedure!r}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError("alpha must lie in (0, 0.5)")
        # written so that a nan fraction fails the checks
        if not (self.rho_pfs > 0.0 and self.rho_os > 0.0):
            raise ConfigError("level fractions must be positive")
        if not abs(self.rho_pfs + self.rho_os - 1.0) <= 1e-9:
            raise ConfigError("rho_pfs and rho_os must sum to one")

    @property
    def level_pfs(self) -> float:
        return self.rho_pfs * self.alpha

    @property
    def level_os(self) -> float:
        return self.rho_os * self.alpha

    @property
    def is_group_sequential(self) -> bool:
        return self.procedure in _GROUP_SEQUENTIAL

    @property
    def os_shape(self) -> SpendingFunction:
        """Spending of an OS level over its information fraction:
        O'Brien-Fleming-type with an interim look, all at the end without."""
        return SpendingFunction("obf_lan_demets" if self.is_group_sequential
                                else "full_at_one")

    def elementary_os_spend(self, tau: float) -> float:
        """Full alpha spent by the elementary OS test by fraction ``tau``.

        The recycled PFS share enters as a step, at once for the ``_first``
        exhaustive variants and only at ``tau >= 1`` otherwise; the OS
        shape spends the rest.
        """
        if tau <= 0.0:
            return 0.0
        pa = self.level_pfs
        step = pa if self.procedure in _FIRST or tau >= 1.0 else 0.0
        return step + self.os_shape.spend(tau, self.alpha - pa)


@dataclass(frozen=True)
class AnalysisInputs:
    """Standardized statistics and their joint covariance for one trial."""

    z_pfs_interim: float
    z_os_interim: float
    z_os_final: float
    covariance: CovarianceEstimate
    os_fraction_interim: float
    z_pfs_final: float | None = None


@dataclass(frozen=True)
class TrialOutcome:
    procedure: str
    rejected_pfs: bool
    rejected_os: bool
    rejected_global: bool
    early_stop: bool
    case_label: str
    analysis_of_os_rejection: str | None
    inflation_factors: dict = field(default_factory=dict)
    correlations: dict = field(default_factory=dict)

    @property
    def rejected_any(self) -> bool:
        return self.rejected_pfs or self.rejected_os

    @property
    def rejected_all(self) -> bool:
        return self.rejected_pfs and self.rejected_os


def _corr2(r: float) -> np.ndarray:
    return np.array([[1.0, r], [r, 1.0]])


def _solve(inputs: AnalysisInputs, problem: InflationProblem) -> float:
    """``solve_inflation``, cached on the trial's inputs: procedures run on
    one trial share solves, and the cache goes with the trial (as log-rank
    curves go with their snapshot)."""
    cache = inputs.__dict__.setdefault("_solve_cache", {})
    key = (tuple(problem.base_levels), tuple(problem.fixed_thresholds),
           np.asarray(problem.corr, dtype=float).tobytes(), problem.target)
    if key not in cache:
        cache[key] = solve_inflation(problem)
    return cache[key]


def _final_os_threshold(inputs, scaled_level, fixed, corr, target):
    """``(xi, quantile)`` for the last OS look exhausting ``target`` overall.

    ``fixed`` holds quantiles of looks already taken (components after the
    scaled one in ``corr``).  A non-positive remaining level means the
    budget is gone: threshold -inf, nothing to solve.  The whole target
    left with no earlier look taken is a single test at its own level.
    """
    if scaled_level <= 0.0:
        return 0.0, -np.inf
    if scaled_level == target and all(np.isneginf(f) for f in fixed):
        return 1.0, ndtri(target)
    xi = _solve(inputs, InflationProblem(
        base_levels=(scaled_level,), corr=corr, target=target,
        fixed_thresholds=tuple(fixed)))
    return xi, ndtri(xi * scaled_level)


def _correlations(cov: CovarianceEstimate) -> dict:
    return {
        "pfs_interim_os_interim": cov.correlation(_P1, _O1),
        "pfs_interim_os_final": cov.correlation(_P1, _O2),
        "os_interim_os_final": cov.correlation(_O1, _O2),
    }


def run_procedure(design: DesignSpec, inputs: AnalysisInputs) -> TrialOutcome:
    if design.procedure in _EXHAUSTIVE:
        return _run_exhaustive(design, inputs)
    return _run_error_spending(design, inputs)


def _run_error_spending(design: DesignSpec, inputs: AnalysisInputs) -> TrialOutcome:
    """PFS at the interim, then the OS level spent over interim and final
    along the design's shape; only group-sequential designs report their
    final inflation factor."""
    alpha = design.alpha
    zp1, zo1, zo2 = (inputs.z_pfs_interim, inputs.z_os_interim,
                     inputs.z_os_final)
    corr = _correlations(inputs.covariance)
    if design.procedure == "os":
        rej_pfs, level = False, alpha
    else:
        rej_pfs, level = bool(zp1 <= ndtri(design.level_pfs)), design.level_os
    b1 = design.os_shape.spend(inputs.os_fraction_interim, level)
    xi = {}

    rej_os_interim = bool(zo1 <= ndtri(b1))
    rej_os = rej_os_interim
    when = "interim" if rej_os_interim else None
    if not rej_os_interim:
        recycled = design.procedure in _RECYCLING and rej_pfs
        target = alpha if recycled else level
        tag = "final_os_recycled" if recycled else "final_os"
        xi[tag], thr = _final_os_threshold(
            inputs, target - b1, (ndtri(b1),),
            _corr2(corr["os_interim_os_final"]), target)
        rej_os = bool(zo2 <= thr)
        when = "final" if rej_os else None

    return TrialOutcome(
        procedure=design.procedure, rejected_pfs=rej_pfs, rejected_os=rej_os,
        rejected_global=rej_pfs or rej_os,
        early_stop=rej_os_interim,
        case_label="interim" if rej_os_interim else "final",
        analysis_of_os_rejection=when,
        inflation_factors=xi if design.is_group_sequential else {},
        correlations=corr)


class _ExhaustiveThresholds:
    """Thresholds of one exhaustive closed test on one trial, for the
    decision rule and the consonance check.  Each is computed on first use,
    so no case solves for a look it does not take; ``xi`` collects the
    inflation factors computed so far."""

    def __init__(self, design: DesignSpec, inputs: AnalysisInputs):
        self.design, self.inputs = design, inputs
        self.corr = _correlations(inputs.covariance)
        tau = inputs.os_fraction_interim
        self.b1 = design.os_shape.spend(tau, design.level_os)
        self.e1 = design.elementary_os_spend(tau)
        self.xi = {}

    @cached_property
    def interim(self) -> tuple:
        """Interim intersection test's PFS and OS quantiles: both shares
        inflated jointly until the interim budget pa + b1 is exhausted."""
        pa, b1 = self.design.level_pfs, self.b1
        if b1 <= 0.0:
            self.xi["interim_joint"] = 1.0
            return ndtri(pa), -np.inf
        xi1 = _solve(self.inputs, InflationProblem(
            base_levels=(pa, b1),
            corr=_corr2(self.corr["pfs_interim_os_interim"]),
            target=pa + b1))
        self.xi["interim_joint"] = xi1
        return ndtri(xi1 * pa), ndtri(xi1 * b1)

    @cached_property
    def final_intersection(self) -> float:
        """Last OS component of the intersection test, inflated until the
        whole test exhausts alpha given the interim thresholds it used."""
        d, c = self.design, self.corr
        thr_p1, thr_o1 = self.interim
        if self.b1 > 0.0:
            r_p1o1, r_p1o2, r_o1o2 = (c["pfs_interim_os_interim"],
                                      c["pfs_interim_os_final"],
                                      c["os_interim_os_final"])
            corr3 = np.array([
                [1.0, r_p1o2, r_o1o2],
                [r_p1o2, 1.0, r_p1o1],
                [r_o1o2, r_p1o1, 1.0],
            ])
            self.xi["final_joint"], thr = _final_os_threshold(
                self.inputs, d.level_os - self.b1, (thr_p1, thr_o1), corr3,
                d.alpha)
        else:
            self.xi["final_joint"], thr = _final_os_threshold(
                self.inputs, d.level_os, (thr_p1,),
                _corr2(c["pfs_interim_os_final"]), d.alpha)
        return thr

    @cached_property
    def elementary_final(self) -> float:
        """Final quantile of the elementary OS test at full alpha."""
        alpha = self.design.alpha
        self.xi["elementary_final"], thr = _final_os_threshold(
            self.inputs, alpha - self.e1, (ndtri(self.e1),),
            _corr2(self.corr["os_interim_os_final"]), alpha)
        return thr

    def elementary_rejection(self, zo1: float, zo2: float) -> str | None:
        """Analysis at which the elementary OS test rejects, if any."""
        if zo1 <= ndtri(self.e1):
            return "interim"
        if zo2 <= self.elementary_final:
            return "final"
        return None


def _run_exhaustive(design: DesignSpec, inputs: AnalysisInputs) -> TrialOutcome:
    zp1, zo1, zo2 = (inputs.z_pfs_interim, inputs.z_os_interim,
                     inputs.z_os_final)
    thresholds = _ExhaustiveThresholds(design, inputs)
    thr_p1, thr_o1 = thresholds.interim
    rej_pfs = bool(zp1 <= thr_p1)
    if rej_pfs or zo1 <= thr_o1:
        # case 1: the intersection fell at the interim; the elementary OS
        # test runs on its own schedule, interim then final
        rej_global = True
        when = thresholds.elementary_rejection(zo1, zo2)
        case = "1.1" if when == "interim" else "1.2"
    else:
        # case 2: the intersection survives to the final analysis.  The
        # elementary OS test still gates the OS rejection; without an
        # interim look it is a full-alpha final test that the intersection
        # threshold already satisfies
        rej_global = bool(zo2 <= thresholds.final_intersection)
        when = None
        if rej_global and (thresholds.e1 <= 0.0 or
                           thresholds.elementary_rejection(zo1, zo2)):
            when = "final"
        case = "2"

    return TrialOutcome(
        procedure=design.procedure, rejected_pfs=rej_pfs,
        rejected_os=when is not None, rejected_global=rej_global,
        early_stop=when == "interim", case_label=case,
        analysis_of_os_rejection=when, inflation_factors=thresholds.xi,
        correlations=thresholds.corr)


def check_consonance(design: DesignSpec, inputs: AnalysisInputs) -> bool:
    """Whether rejecting the intersection lets an elementary test follow.

    Statically the level split must exhaust alpha (enforced by DesignSpec
    already).  At runtime the final intersection threshold for OS must not
    exceed what the elementary OS test grants at the final analysis.  The
    PFS side is not checked: PFS is rejected only by the intersection's
    interim component, ``z_pfs_interim <= ndtri(xi1 * pa)``, and no
    separate elementary PFS test runs.  Whether that rule is the paper's
    is ROADMAP item 4.
    """
    if design.procedure not in _EXHAUSTIVE:
        return True
    thresholds = _ExhaustiveThresholds(design, inputs)
    return bool(thresholds.final_intersection
                <= thresholds.elementary_final + 1e-9)

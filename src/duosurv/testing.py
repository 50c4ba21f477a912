"""Closed testing of a PFS and an OS hypothesis across two analyses.

PFS is tested once, at the interim analysis triggered by the PFS event
target.  OS is tested over the interim and the final analysis, triggered
by the OS event target.  One-sided lower-tail tests throughout: a
hypothesis is rejected when its standardized log-rank statistic falls at
or below the normal quantile of the allotted level.

Every procedure is one closed test of H_PFS and H_OS.  The one-sided alpha
splits into a PFS share ``pa`` and an OS share ``alpha - pa``; the ``_gs``
variants spend the OS share O'Brien-Fleming-type over both analyses, the
others all at the final one.  Two settings, both fixed by the procedure
name, tell the nine procedures apart:

* the intersection test: uninflated (Bonferroni) for ``bon``, ``rec`` and
  ``os``, each share tested at its own level; inflated for ``ex_*``, the
  shares scaled up until the intersection test exhausts alpha exactly,
  given the estimated correlation between the standardized statistics;
* the elementary OS test: its budget is the OS share for ``bon`` /
  ``bon_gs``, which recycle nothing, and all of alpha for the others, the
  PFS share entering as a step on top of the OS spending.  ``_first``
  releases that step already at the interim, all others only at the final
  analysis.

``os`` is the reference with no PFS share: the OS test at full alpha.
Without ``_gs`` the OS share is spent only at information fraction one,
which the interim never reaches in the pipeline (its cutoff falls strictly
before the ``d_os``-th OS event), so those procedures look at OS once, at
the final analysis, apart from the step ``_first`` releases at the interim.

Decisions follow the closed-test cases: case 1 means the intersection
hypothesis fell at the interim (1.1 if the elementary OS test also
rejected there, 1.2 otherwise), case 2 means the intersection survived to
the final analysis.  A trial stops early exactly when the OS hypothesis is
rejected at the interim.  An OS rejection always requires the elementary
OS test to reject as well, in every case; only when that test has no
interim look does the intersection's final threshold already imply it.
PFS is rejected by the intersection's interim component alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError
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
_BONFERRONI = frozenset({"bon", "bon_gs"})


@dataclass(frozen=True)
class DesignSpec:
    """Procedure choice plus the level split.

    ``rho_pfs`` is the fraction of ``alpha`` initially allotted to PFS; OS
    gets the rest.  The ``os`` reference allots nothing to PFS.
    """

    procedure: str
    alpha: float = 0.025
    rho_pfs: float = 0.2

    def __post_init__(self):
        if self.procedure not in PROCEDURES:
            raise ConfigError(f"unknown procedure {self.procedure!r}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError("alpha must lie in (0, 0.5)")
        # both fractions, rho_pfs and 1 - rho_pfs; a nan fails the check
        if not 0.0 < self.rho_pfs < 1.0:
            raise ConfigError("level fractions must be positive")

    @property
    def level_pfs(self) -> float:
        return 0.0 if self.procedure == "os" else self.rho_pfs * self.alpha

    @property
    def level_os(self) -> float:
        return self.alpha - self.level_pfs

    @property
    def is_group_sequential(self) -> bool:
        return self.procedure in _GROUP_SEQUENTIAL

    @property
    def os_shape(self) -> SpendingFunction:
        """Spending of an OS level over its information fraction:
        O'Brien-Fleming-type with an interim look, all at the end without."""
        return SpendingFunction("obf_lan_demets" if self.is_group_sequential
                                else "full_at_one")

    @property
    def elementary_os_level(self) -> float:
        """Budget of the elementary OS test: the OS share for ``bon`` and
        ``bon_gs``, which recycle nothing, all of alpha otherwise."""
        return self.level_os if self.procedure in _BONFERRONI else self.alpha

    def elementary_os_spend(self, tau: float) -> float:
        """Level spent by the elementary OS test by fraction ``tau``.

        A recycled PFS share enters as a step, at once for the ``_first``
        exhaustive variants and only at ``tau >= 1`` otherwise; the OS
        shape spends the OS share.
        """
        if tau <= 0.0:
            return 0.0
        recycled = (self.procedure not in _BONFERRONI
                    and (self.procedure in _FIRST or tau >= 1.0))
        step = self.level_pfs if recycled else 0.0
        return step + self.os_shape.spend(tau, self.level_os)


@dataclass(frozen=True)
class AnalysisInputs:
    """The seven numbers the closed tests of one trial read: the z values of
    PFS at the interim (P1), OS at the interim (O1) and OS at the final
    analysis (O2), their estimated correlations and the OS information
    fraction at the interim.  ``solves`` caches the inflation factors solved
    for the trial, which all procedures run on it share."""

    z_pfs_interim: float
    z_os_interim: float
    z_os_final: float
    r_p1o1: float
    r_p1o2: float
    r_o1o2: float
    os_fraction_interim: float
    solves: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)


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

    @property
    def rejected_any(self) -> bool:
        return self.rejected_pfs or self.rejected_os

    @property
    def rejected_all(self) -> bool:
        return self.rejected_pfs and self.rejected_os


def _corr2(r: float) -> np.ndarray:
    return np.array([[1.0, r], [r, 1.0]])


def _solve(inputs: AnalysisInputs, problem: InflationProblem) -> float:
    """``solve_inflation``, cached in ``inputs.solves``: procedures run on
    one trial share solves, and the cache goes with the trial (as log-rank
    curves go with their snapshot)."""
    key = (tuple(problem.base_levels), tuple(problem.fixed_thresholds),
           np.asarray(problem.corr, dtype=float).tobytes(), problem.target)
    if key not in inputs.solves:
        inputs.solves[key] = solve_inflation(problem)
    return inputs.solves[key]


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


class _ClosedTest:
    """Thresholds of one procedure's closed test on one trial, for the
    decision rule and the consonance check.  Each is computed on first use,
    so no case solves for a look it does not take; ``xi`` collects the
    inflation factors computed so far."""

    def __init__(self, design: DesignSpec, inputs: AnalysisInputs):
        self.design, self.inputs = design, inputs
        tau = inputs.os_fraction_interim
        self.b1 = design.os_shape.spend(tau, design.level_os)
        self.e1 = design.elementary_os_spend(tau)
        self.xi = {}

    @cached_property
    def interim(self) -> tuple:
        """Interim intersection test's PFS and OS quantiles: the shares pa
        and b1, in the exhaustive procedures inflated jointly until they
        exhaust the interim budget pa + b1."""
        pa, b1 = self.design.level_pfs, self.b1
        if self.design.procedure not in _EXHAUSTIVE:
            return ndtri(pa), ndtri(b1)
        xi1 = 1.0 if b1 <= 0.0 else _solve(self.inputs, InflationProblem(
            base_levels=(pa, b1), corr=_corr2(self.inputs.r_p1o1),
            target=pa + b1))
        self.xi["interim_joint"] = xi1
        return ndtri(xi1 * pa), ndtri(xi1 * b1)

    @cached_property
    def final_intersection(self) -> float:
        """Last OS component of the intersection test.  Uninflated, it
        spends the rest of the OS share after b1; inflated, it exhausts
        alpha given the interim thresholds the intersection used."""
        d, b1, x = self.design, self.b1, self.inputs
        if d.procedure not in _EXHAUSTIVE:
            fixed, corr, target = (ndtri(b1),), _corr2(x.r_o1o2), d.level_os
        elif b1 > 0.0:
            fixed, target = self.interim, d.alpha
            corr = np.array([
                [1.0, x.r_p1o2, x.r_o1o2],
                [x.r_p1o2, 1.0, x.r_p1o1],
                [x.r_o1o2, x.r_p1o1, 1.0],
            ])
        else:
            fixed = (self.interim[0],)
            corr, target = _corr2(x.r_p1o2), d.alpha
        self.xi["final_joint"], thr = _final_os_threshold(
            self.inputs, d.level_os - b1, fixed, corr, target)
        return thr

    @cached_property
    def elementary_final(self) -> float:
        """Final quantile of the elementary OS test, spending its budget."""
        level = self.design.elementary_os_level
        self.xi["elementary_final"], thr = _final_os_threshold(
            self.inputs, level - self.e1, (ndtri(self.e1),),
            _corr2(self.inputs.r_o1o2), level)
        return thr

    def elementary_rejection(self, zo1: float, zo2: float) -> str | None:
        """Analysis at which the elementary OS test rejects, if any."""
        if zo1 <= ndtri(self.e1):
            return "interim"
        if zo2 <= self.elementary_final:
            return "final"
        return None


def run_procedure(design: DesignSpec, inputs: AnalysisInputs) -> TrialOutcome:
    zp1, zo1, zo2 = (inputs.z_pfs_interim, inputs.z_os_interim,
                     inputs.z_os_final)
    test = _ClosedTest(design, inputs)
    thr_p1, thr_o1 = test.interim
    rej_pfs = bool(zp1 <= thr_p1)
    if rej_pfs or zo1 <= thr_o1:
        # case 1: the intersection fell at the interim; the elementary OS
        # test runs on its own schedule, interim then final
        rej_global = True
        when = test.elementary_rejection(zo1, zo2)
        case = "1.1" if when == "interim" else "1.2"
    else:
        # case 2: the intersection survives to the final analysis.  The
        # elementary OS test still gates the OS rejection; without an
        # interim look it is a final test that the intersection threshold
        # already satisfies
        rej_global = bool(zo2 <= test.final_intersection)
        when = None
        if rej_global and (test.e1 <= 0.0 or
                           test.elementary_rejection(zo1, zo2)):
            when = "final"
        case = "2"

    return TrialOutcome(
        procedure=design.procedure, rejected_pfs=rej_pfs,
        rejected_os=when is not None, rejected_global=rej_global,
        early_stop=when == "interim", case_label=case,
        analysis_of_os_rejection=when, inflation_factors=test.xi)


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
    test = _ClosedTest(design, inputs)
    return bool(test.final_intersection <= test.elementary_final + 1e-9)

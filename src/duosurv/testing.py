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

A procedure decides a block of trials at once: ``AnalysisInputs`` holds
the seven numbers of each trial as arrays, each threshold is computed only
for the trials whose decision reads it, and the inflation solves run over
those trials together.  A single trial is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from . import mvnorm
from .errors import ConfigError
from .mvnorm import InflationProblem
from .spending import SpendingFunction

__all__ = [
    "PROCEDURES",
    "DesignSpec",
    "AnalysisInputs",
    "Outcomes",
    "run_procedure",
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

    def elementary_os_spend(self, tau):
        """Level spent by the elementary OS test by fraction ``tau``,
        elementwise over an array of fractions.

        A recycled PFS share enters as a step, at once for the ``_first``
        exhaustive variants and only at ``tau >= 1`` otherwise; the OS
        shape spends the OS share.
        """
        tau = np.asarray(tau, dtype=float)
        recycled = (self.procedure not in _BONFERRONI
                    and (self.procedure in _FIRST or tau >= 1.0))
        step = np.where(recycled, self.level_pfs, 0.0)
        return np.where(tau <= 0.0, 0.0,
                        step + self.os_shape.spend(tau, self.level_os))[()]


_INPUTS = ("z_pfs_interim", "z_os_interim", "z_os_final", "r_p1o1", "r_p1o2",
           "r_o1o2", "os_fraction_interim")


@dataclass(frozen=True, eq=False)
class AnalysisInputs:
    """The seven numbers the closed tests read, for a block of trials: the
    z values of PFS at the interim (P1), OS at the interim (O1) and OS at
    the final analysis (O2), their estimated correlations and the OS
    information fraction at the interim.  Each field is a 1-D array with
    one entry per trial (a float is a block of one).  ``solves`` caches the
    inflation factors solved for the block's trials, per problem, which all
    procedures run on the block share."""

    z_pfs_interim: np.ndarray
    z_os_interim: np.ndarray
    z_os_final: np.ndarray
    r_p1o1: np.ndarray
    r_p1o2: np.ndarray
    r_o1o2: np.ndarray
    os_fraction_interim: np.ndarray
    solves: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in _INPUTS:
            object.__setattr__(self, name, np.atleast_1d(
                np.asarray(getattr(self, name), dtype=float)))
        if len({getattr(self, name).shape for name in _INPUTS}) != 1 or \
                self.z_pfs_interim.ndim != 1:
            raise ValueError(
                "analysis inputs must be 1-D arrays of one length")

    def __len__(self) -> int:
        return len(self.z_pfs_interim)

    @classmethod
    def concatenate(cls, blocks) -> "AnalysisInputs":
        """The trials of ``blocks``, in order, as one block."""
        return cls(*(np.concatenate([getattr(b, name) for b in blocks])
                     for name in _INPUTS))


@dataclass(frozen=True, eq=False)
class Outcomes:
    """One procedure's decisions on a block of trials, one entry per trial
    in each array.  ``inflation_factors`` maps each factor to its values,
    nan where a trial did not compute it."""

    procedure: str
    rejected_pfs: np.ndarray
    rejected_os: np.ndarray
    rejected_global: np.ndarray
    early_stop: np.ndarray
    case_label: np.ndarray
    inflation_factors: dict

    def __len__(self) -> int:
        return len(self.rejected_pfs)


def _corr2(r) -> np.ndarray:
    """2x2 correlation matrices with off-diagonal ``r``, one per trial."""
    corr = np.ones((len(r), 2, 2))
    corr[:, 0, 1] = corr[:, 1, 0] = r
    return corr


def _solve(inputs: AnalysisInputs, problem: InflationProblem,
           mask) -> np.ndarray:
    """``solve_inflation`` on the trials of ``mask``, cached in
    ``inputs.solves``.  ``problem`` holds a row for every trial of the block
    and is the cache key; the cache holds one factor per trial, nan until
    solved, and a call solves only the masked trials not solved yet.  So
    procedures run on one block share solves, and the cache goes with the
    block (as log-rank curves go with their snapshot)."""
    key = tuple(np.ascontiguousarray(a).tobytes() for a in (
        problem.base_levels, problem.fixed_thresholds, problem.corr,
        problem.target))
    xi = inputs.solves.setdefault(key, np.full(len(inputs), np.nan))
    todo = mask & np.isnan(xi)
    if todo.any():
        xi[todo] = mvnorm.solve_inflation(InflationProblem(
            base_levels=problem.base_levels[todo], corr=problem.corr[todo],
            target=problem.target[todo],
            fixed_thresholds=problem.fixed_thresholds[todo]))
    return xi


def _final_os_threshold(inputs, mask, scaled_level, fixed, corr, target):
    """``(xi, quantile)`` per trial for the last OS look exhausting
    ``target`` overall, on the trials of ``mask`` (nan elsewhere).

    ``fixed`` holds one row per trial of quantiles of looks already taken
    (components after the scaled one in ``corr``).  A non-positive
    remaining level means the budget is gone: threshold -inf, nothing to
    solve.  The whole target left with no earlier look taken is a single
    test at its own level.
    """
    target = np.full(scaled_level.shape, target)
    gone = scaled_level <= 0.0
    single = (scaled_level == target) & np.isneginf(fixed).all(axis=1)
    xi = np.where(gone, 0.0, np.where(single, 1.0, np.nan))
    todo = mask & np.isnan(xi)
    xi = np.where(todo, _solve(inputs, InflationProblem(
        base_levels=scaled_level[:, None], corr=corr, target=target,
        fixed_thresholds=fixed), todo), np.where(mask, xi, np.nan))
    return xi, np.where(gone, -np.inf, ndtri(xi * scaled_level))


class _ClosedTest:
    """Thresholds of one procedure's closed test on a block of trials, for
    the decision rule and the consonance check.  The interim thresholds
    hold for every trial; a final one is computed on a mask of trials, so
    no trial solves for a look it does not take.  ``xi`` collects the
    inflation factors computed so far, nan for the trials left out."""

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
            return np.full(b1.shape, ndtri(pa)), ndtri(b1)
        spent = b1 > 0.0
        xi1 = np.where(spent, _solve(self.inputs, InflationProblem(
            base_levels=np.column_stack((np.full_like(b1, pa), b1)),
            corr=_corr2(self.inputs.r_p1o1), target=pa + b1,
            fixed_thresholds=np.empty((len(b1), 0))), spent), 1.0)
        self.xi["interim_joint"] = xi1
        return ndtri(xi1 * pa), ndtri(xi1 * b1)

    def final_intersection(self, mask=None) -> np.ndarray:
        """Last OS component of the intersection test, on the trials of
        ``mask`` (all by default).  Uninflated, it spends the rest of the
        OS share after b1; inflated, it exhausts alpha given the interim
        thresholds the intersection used."""
        d, b1, x = self.design, self.b1, self.inputs
        mask = np.ones(len(x), dtype=bool) if mask is None else mask
        scaled = d.level_os - b1
        if d.procedure not in _EXHAUSTIVE:
            xi, thr = _final_os_threshold(x, mask, scaled, ndtri(b1)[:, None],
                                          _corr2(x.r_o1o2), d.level_os)
        else:
            one = np.ones(len(x))
            corr = np.moveaxis(np.array([
                [one, x.r_p1o2, x.r_o1o2],
                [x.r_p1o2, one, x.r_p1o1],
                [x.r_o1o2, x.r_p1o1, one],
            ]), -1, 0)
            three = b1 > 0.0
            xi, thr = _final_os_threshold(x, mask & three, scaled,
                                          np.column_stack(self.interim), corr,
                                          d.alpha)
            xi2, thr2 = _final_os_threshold(x, mask & ~three, scaled,
                                            self.interim[0][:, None],
                                            _corr2(x.r_p1o2), d.alpha)
            xi, thr = np.where(three, xi, xi2), np.where(three, thr, thr2)
        self.xi["final_joint"] = xi
        return thr

    def elementary_final(self, mask=None) -> np.ndarray:
        """Final quantile of the elementary OS test, spending its budget, on
        the trials of ``mask`` (all by default)."""
        level, x = self.design.elementary_os_level, self.inputs
        mask = np.ones(len(x), dtype=bool) if mask is None else mask
        self.xi["elementary_final"], thr = _final_os_threshold(
            x, mask, level - self.e1, ndtri(self.e1)[:, None],
            _corr2(x.r_o1o2), level)
        return thr


def run_procedure(design: DesignSpec, inputs: AnalysisInputs) -> Outcomes:
    """Decide every trial of the block by one procedure's closed test."""
    zp1, zo1, zo2 = (inputs.z_pfs_interim, inputs.z_os_interim,
                     inputs.z_os_final)
    test = _ClosedTest(design, inputs)
    thr_p1, thr_o1 = test.interim
    rej_pfs = zp1 <= thr_p1
    # case 1: the intersection fell at the interim; the elementary OS test
    # runs on its own schedule, interim then final
    case1 = rej_pfs | (zo1 <= thr_o1)
    # case 2: the intersection survives to the final analysis.  The
    # elementary OS test still gates the OS rejection; without an interim
    # look it is a final test that the intersection threshold already
    # satisfies
    rej_final = ~case1 & (zo2 <= test.final_intersection(~case1))
    at_interim = zo1 <= ndtri(test.e1)
    final_look = ~at_interim & (case1 | rej_final & (test.e1 > 0.0))
    at_final = final_look & (zo2 <= test.elementary_final(final_look))
    early = case1 & at_interim
    rej_os = np.where(case1, at_interim | at_final,
                      rej_final & ((test.e1 <= 0.0) | at_interim | at_final))
    return Outcomes(
        procedure=design.procedure, rejected_pfs=rej_pfs,
        rejected_os=rej_os, rejected_global=case1 | rej_final,
        early_stop=early,
        case_label=np.where(case1, np.where(early, "1.1", "1.2"), "2"),
        inflation_factors=test.xi)


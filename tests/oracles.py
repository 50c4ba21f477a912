"""Brute-force reference implementations for the estimator tests.

Everything here is written with plain Python loops straight from the
defining formulas, sharing no code with the package internals.  The only
inputs are patient tuples ``(arm, entry, t_pfs, t_os, dropout)`` with
latent times, and a calendar time per snapshot; observation, risk sets,
hazard integrals and the covariance products are all rederived locally.
O(events * patients) per statistic is fine at the micro-dataset sizes
these oracles are used at.

``bisect_root`` is the reference root finder for the inflation solver:
plain bisection on an increasing function, with no derivative.

``ExactLaw`` gives the exact outcome probabilities of one procedure's
decision rule under a normal law of the three statistics it reads, without
Monte Carlo; ``check_consonance`` tells, per trial, whether rejecting the
intersection lets the elementary OS test follow.
"""

import math

import numpy as np
from scipy.special import ndtri

from duosurv.mvnorm import OrthantQuery, mvn_upper_orthant
from duosurv.testing import AnalysisInputs, _ClosedTest, run_procedure


def observe(patients, calendar_time, endpoint):
    """Observable (arm, x, d) triples of the entered patients.

    A patient's endpoint event is observed when it happened under
    observation: the event beats drop-out and its calendar date
    ``entry + t`` lies at or before the cutoff.  Otherwise the time on
    study is censored at drop-out or at current exposure.
    """
    out = []
    for arm, entry, t_pfs, t_os, dropout in patients:
        if entry > calendar_time:
            continue
        t_event = t_pfs if endpoint == "pfs" else t_os
        if t_event <= dropout and entry + t_event <= calendar_time:
            out.append((arm, t_event, 1))
        else:
            out.append((arm, min(dropout, calendar_time - entry), 0))
    return out


def _risk(records, s, arm=None):
    return sum(1 for a, x, _ in records if x >= s and (arm is None or a == arm))


def logrank_score(records, n_ref):
    """(u, var) of the two-sample log-rank statistic, 1/sqrt(n) scaled."""
    u = 0.0
    var = 0.0
    for arm_i, x_i, d_i in records:
        if not d_i:
            continue
        y = _risk(records, x_i)
        y1 = _risk(records, x_i, arm=1)
        if y == 0:
            continue
        u += arm_i - y1 / y
        var += (y1 / y) * ((y - y1) / y)
    return u / math.sqrt(n_ref), var / n_ref


def opposite_share(records, arm, s):
    """mu of the given arm at time s: 1 - Y_arm(s) / Y(s)."""
    y = _risk(records, s)
    if y == 0:
        return 0.0
    return 1.0 - _risk(records, s, arm=arm) / y


def hazard_integral(records, arm, s):
    """psi of the given arm at s: integral of mu against the pooled hazard."""
    total = 0.0
    for u in sorted({x for _, x, d in records if d}):
        if u > s:
            break
        events_at_u = sum(1 for _, x, d in records if d and x == u)
        total += opposite_share(records, arm, u) * events_at_u / _risk(records, u)
    return total


def residual(records, i):
    """Martingale-style residual of patient ``i`` within ``records``."""
    arm, x, d = records[i]
    return opposite_share(records, arm, x) * d - hazard_integral(records, arm, x)


def cross_covariance(patients, t_pfs_cut, t_os_cut):
    """Covariance of the PFS score at one cutoff and the OS score at another.

    Implements the per-patient product-of-residuals estimator directly;
    patients not yet entered at a cutoff contribute a zero factor there.
    """
    n = len(patients)
    recs_pfs = observe(patients, t_pfs_cut, "pfs")
    recs_os = observe(patients, t_os_cut, "os")
    # map cohort position -> record position (entered patients, input order)
    pos_pfs = [i for i, p in enumerate(patients) if p[1] <= t_pfs_cut]
    pos_os = [i for i, p in enumerate(patients) if p[1] <= t_os_cut]
    r_pfs = {c: residual(recs_pfs, k) for k, c in enumerate(pos_pfs)}
    r_os = {c: residual(recs_os, k) for k, c in enumerate(pos_os)}
    total = 0.0
    for i in range(n):
        total += r_pfs.get(i, 0.0) * r_os.get(i, 0.0)
    return total / n


def bisect_root(func, target, lo, hi, tol=1e-10):
    """Root of the increasing ``func(x) = target`` in ``[lo, hi]``, by
    halving the bracket until it is narrower than ``tol``."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if func(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_consonance(design, inputs):
    """Per trial, whether rejecting the intersection lets an elementary
    test follow.

    Statically the level split must exhaust alpha (enforced by DesignSpec
    already).  At runtime the final intersection threshold for OS must not
    exceed what the elementary OS test grants at the final analysis.  The
    PFS side is not checked: PFS is rejected only by the intersection's
    interim component, ``z_pfs_interim <= ndtri(xi1 * pa)``, and no
    separate elementary PFS test runs.  Whether that rule is the paper's
    is an open question of the roadmap.
    """
    test = _ClosedTest(design, inputs)
    return test.final_intersection() <= test.elementary_final() + 1e-9


def _interior(grid):
    """One point inside each interval ``(grid[i], grid[i + 1]]``."""
    lo, hi = grid[:-1], grid[1:]
    with np.errstate(invalid="ignore"):
        mid = 0.5 * (lo + hi)
    return np.where(np.isinf(lo) & np.isinf(hi), 0.0,
                    np.where(np.isinf(lo), hi - 1.0,
                             np.where(np.isinf(hi), lo + 1.0, mid)))


class ExactLaw:
    """Exact outcome probabilities of one procedure's decision rule at one
    correlation and interim fraction, when (Z_P1, Z_O1, Z_O2) is normal
    with unit variances, the three correlations and a given mean.

    Every decision compares one z value with a threshold that depends on
    the design, the correlations and the fraction only.  So the finite
    thresholds cut each axis into at most three intervals, and the outcome
    is constant on each box of intervals.  The law takes the thresholds
    from ``_ClosedTest``, reads each box's outcome from ``run_procedure`` at
    a point inside it, and weighs each box by its normal mass, eight signed
    upper orthants from ``mvn_upper_orthant``.  It runs the pipeline's own
    rule, not a copy of it.
    """

    def __init__(self, design, r_p1o1, r_p1o2, r_o1o2, tau):
        test = _ClosedTest(design, AnalysisInputs(
            0.0, 0.0, 0.0, r_p1o1, r_p1o2, r_o1o2, tau))
        cuts = ((test.interim[0][0],),
                (test.interim[1][0], ndtri(test.e1[0])),
                (test.final_intersection()[0], test.elementary_final()[0]))
        self.grids = [np.concatenate(
            ([-np.inf], np.unique([c for c in axis if np.isfinite(c)]),
             [np.inf])) for axis in cuts]
        mesh = np.meshgrid(*map(_interior, self.grids), indexing="ij")
        n = mesh[0].size
        boxes = run_procedure(design, AnalysisInputs(
            *(m.ravel() for m in mesh), np.full(n, r_p1o1),
            np.full(n, r_p1o2), np.full(n, r_o1o2), np.full(n, tau)))
        shape = mesh[0].shape
        pfs = boxes.rejected_pfs.reshape(shape)
        os_ = boxes.rejected_os.reshape(shape)
        self.events = {"pfs": pfs, "os": os_, "any": pfs | os_,
                       "all": pfs & os_,
                       "early_stop": boxes.early_stop.reshape(shape),
                       "global": boxes.rejected_global.reshape(shape)}
        self.corr = np.array([[1.0, r_p1o1, r_p1o2],
                              [r_p1o1, 1.0, r_o1o2],
                              [r_p1o2, r_o1o2, 1.0]])

    def box_masses(self, mean) -> np.ndarray:
        """Probability of each box under N(``mean``, correlation)."""
        mesh = np.meshgrid(*(g - m for g, m in zip(self.grids, mean)),
                           indexing="ij")
        upper = mvn_upper_orthant(OrthantQuery(
            np.stack([m.ravel() for m in mesh], axis=1), self.corr))
        mass = upper.reshape(mesh[0].shape)
        # P[a < Z <= b] along an axis is P[Z > a] - P[Z > b]
        for axis in range(3):
            mass = -np.diff(mass, axis=axis)
        return mass

    def rates(self, mean=(0.0, 0.0, 0.0)) -> dict:
        """Probability of each outcome: PFS, OS, either or both rejected,
        an early stop, the intersection rejected."""
        mass = self.box_masses(mean)
        return {name: float(mass[event].sum())
                for name, event in self.events.items()}

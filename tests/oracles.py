"""Brute-force reference implementations for the estimator tests.

Everything here is written with plain Python loops straight from the
defining formulas, sharing no code with the package internals.  The only
inputs are patient tuples ``(arm, entry, t_pfs, t_os, dropout)`` with
latent times, and a calendar time per snapshot; observation, risk sets,
hazard integrals and the covariance products are all rederived locally.
O(events * patients) per statistic is fine at the micro-dataset sizes
these oracles are used at.
"""

import math


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

"""Calendar-time log-rank statistics and their joint covariance estimator.

Both endpoints are compared between arms with the unweighted log-rank score

    u = n^{-1/2} * sum_i d_i * (z_i - Y1(x_i) / Y(x_i)),

where Y and Y1 are the pooled and the arm-1 at-risk counts at the patient's
own time on study.  The score is positive when arm 1 accumulates more
events than its at-risk share predicts; an arm-1 benefit therefore pushes
the standardized statistic negative, which is the rejection direction
everywhere in this package.  The marginal variance estimator sums the
at-risk-share products over events.  Covariances between endpoints and
between analysis times come from per-patient martingale residuals built
out of the pooled Nelson-Aalen estimator and the arm-wise at-risk shares;
same-endpoint covariances across analysis times reduce to the variance at
the earlier time (independent increments).  Score, variance and residuals
of one endpoint come from a single pass over the tie groups of each row's
sorted times, for a whole block of trials at once: one row per trial,
absent patients masked.  Every row sum adds left to right, so a row's
numbers do not depend on the block it sits in; one trial is a block of
one.

The interim curves do not depend on the final cutoff except through the
reference size n, which scales every entry: :class:`InterimCurves` keeps
them unscaled, and :func:`joint_covariance` scales them with the final
half, so one interim serves any number of final cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance
from .trialdata import OS, PFS, SnapshotBlock

__all__ = [
    "LogrankResult",
    "InterimCurves",
    "CovarianceEstimate",
    "joint_covariance",
    "correlation",
]

CORRELATION_CLAMP = 0.9999


@dataclass(frozen=True, eq=False)
class LogrankResult:
    """Scaled log-rank score, variance estimate and event count, arrays
    over the rows of a block."""

    u: np.ndarray
    var: np.ndarray
    n_events: np.ndarray

    @property
    def z(self) -> np.ndarray:
        """Standardized statistic; nan where the variance is 0."""
        return np.divide(self.u, np.sqrt(self.var),
                         out=np.full(self.u.shape, np.nan),
                         where=self.var > 0.0)


def _sorted_rows(snaps: SnapshotBlock, endpoint: str):
    """Each row of a block sorted by time on study.

    Returns the flat block position of each sorted patient, the flags of
    the first patient of each tie group, of each event and of each present
    arm-1 patient in sorted order, and each row's count of present
    patients.  Absent patients sort behind every present one, whose times
    are finite.
    """
    present = snaps.present
    rows, width = present.shape
    key = np.where(present, snaps.times(endpoint), np.inf)
    flat = np.argsort(key, axis=1)
    flat += width * np.arange(rows)[:, None]
    flat = flat.ravel()
    xs = key.ravel()[flat].reshape(rows, width)
    first = np.empty((rows, width), dtype=bool)
    first[:, 0] = True
    np.greater(xs[:, 1:], xs[:, :-1], out=first[:, 1:])
    n_present = present.sum(axis=1)
    zs = (snaps.arm == 1).ravel()[flat]
    zs &= (np.arange(width) < n_present[:, None]).ravel()
    return (flat, first.ravel(), snaps.events(endpoint).ravel()[flat], zs,
            n_present)


class _EndpointCurves:
    """Everything the estimators need for one endpoint at each row's
    snapshot of a block: the log-rank results and the per-patient
    residuals, in cohort positions.

    Every quantity is a function of the tie groups of each row's sorted
    times, so the order of tied patients changes no bit and the sort need
    not be stable.  Absent patients are left out of every count and sum.
    """

    def __init__(self, snaps: SnapshotBlock, endpoint: str):
        rows, width = snaps.present.shape
        flat, first, ds, zs, n_present = _sorted_rows(snaps, endpoint)
        # tie groups, numbered over the whole block; every per-patient
        # quantity is read at the patient's group
        starts = np.flatnonzero(first)
        group = np.cumsum(first)
        group -= 1
        ev = np.flatnonzero(ds)
        event_group, event_arm1 = group[ev], zs[ev]

        # at-risk counts at each group's time, the present patients and
        # those of arm 1 from the group to the end of its row; a group of
        # absent patients only has none, and nothing reads it
        row = starts // width
        at_risk = n_present[row] - (starts - row * width)
        arm1 = np.bincount(group[zs], minlength=len(starts))
        up_to = np.cumsum(arm1)
        at_risk1 = up_to[group[width - 1::width]][row] - up_to + arm1
        y = np.maximum(at_risk, 1)
        share1 = at_risk1 / y
        share0 = (at_risk - at_risk1) / y
        # the block's peak memory is in the sums below
        del group, row, at_risk, arm1, up_to, at_risk1

        # per group: the score and variance terms of its events, and the
        # pooled hazard jump times each arm's opposite-arm share mu = 1 -
        # Y_arm / Y.  Each sits at its group's start and zeros fill the
        # rest of the row, so the running row sums, added left to right,
        # end in the score and variance and read at a patient give the
        # compensators at the patient's group
        events = np.bincount(event_group, minlength=len(starts))
        events1 = np.bincount(event_group[event_arm1], minlength=len(starts))
        steps = np.zeros((4, rows, width))
        u, var, psi0, psi1 = steps
        u.ravel()[starts] = events1 - events * share1
        var.ravel()[starts] = events * (share0 * share1)
        d_lambda = events / y
        psi0.ravel()[starts] = (1.0 - share0) * d_lambda
        psi1.ravel()[starts] = (1.0 - share1) * d_lambda
        np.cumsum(steps, axis=2, out=steps)
        # unscaled row sums, copied so that the steps can go
        self.score, self.info = u[:, -1].copy(), var[:, -1].copy()
        self.n_events = ds.reshape(rows, width).sum(axis=1)

        # per-patient residuals mu^{(z_i)}(x_i) * d_i - psi^{(z_i)}(x_i),
        # in cohort positions, 0 for absent patients: 0 - psi for everyone,
        # then mu added at the events
        resid = np.where(zs.reshape(rows, width), psi1, psi0)
        np.subtract(0.0, resid, out=resid)
        resid[np.arange(width) >= n_present[:, None]] = 0.0
        resid = resid.ravel()
        resid[ev] += 1.0 - np.where(event_arm1, share1[event_group],
                                    share0[event_group])
        self.resid = np.empty(rows * width)
        self.resid[flat] = resid
        self.resid = self.resid.reshape(rows, width)

    def result(self, n_ref) -> LogrankResult:
        """The log-rank results of the rows with reference sizes ``n_ref``."""
        return LogrankResult(self.score / np.sqrt(n_ref), self.info / n_ref,
                             self.n_events)


def _cross(pfs: np.ndarray, os_: np.ndarray) -> np.ndarray:
    """Per row, the sum of the per-patient products of the PFS and OS
    residuals, over the positions both blocks cover; a patient absent from
    either snapshot adds 0.

    The products are added left to right: trailing zeros change no bit of
    such a sum, so a row's value does not depend on how far its blocks pad
    it, where a pairwise ``sum`` would group the terms by the row length.
    Past the narrower block, the residuals of a row of the other one are 0,
    as that row's patients there enter after both snapshots' times.
    """
    width = min(pfs.shape[1], os_.shape[1])
    return np.cumsum(pfs[:, :width] * os_[:, :width], axis=1)[:, -1]


@dataclass(frozen=True, eq=False)
class InterimCurves:
    """PFS (P1) and OS (O1) at the interim snapshot of each row of a block,
    unscaled: what the joint covariance reads of them at any later cutoff.

    ``score``, ``info`` and ``n_events`` hold the score sums, variance sums
    and event counts of P1 (row 0) and O1 (row 1), one column per trial;
    ``c11`` the sums of the P1 x O1 residual products; ``resid`` the P1 and
    O1 residuals, shape (2, trials, positions).
    """

    score: np.ndarray
    info: np.ndarray
    n_events: np.ndarray
    c11: np.ndarray
    resid: np.ndarray

    @classmethod
    def of(cls, snaps: SnapshotBlock) -> "InterimCurves":
        p1, o1 = _EndpointCurves(snaps, PFS), _EndpointCurves(snaps, OS)
        # c11 is copied out of the running sums, so that they can go
        return cls(score=np.array([p1.score, o1.score]),
                   info=np.array([p1.info, o1.info]),
                   n_events=np.array([p1.n_events, o1.n_events]),
                   c11=_cross(p1.resid, o1.resid).copy(),
                   resid=np.array([p1.resid, o1.resid]))

    def take(self, rows) -> "InterimCurves":
        """The curves of the trials at ``rows``."""
        return InterimCurves(self.score[:, rows], self.info[:, rows],
                             self.n_events[:, rows], self.c11[rows],
                             self.resid[:, rows])


def joint_covariance(interim: InterimCurves, final: SnapshotBlock, n_ref):
    """Log-rank results and joint covariance of both endpoints at both
    cutoffs, for each trial of a block; row ``i`` of ``final`` is the later
    snapshot of the cohort of the trial ``i`` of ``interim``, and ``n_ref[i]``
    its reference size, which scales every entry.

    Returns ``(results, matrix)``: the results of (PFS@t1, OS@t1, PFS@t2,
    OS@t2) and an (R, 4, 4) stack in that order.  Same-endpoint entries
    across the two times equal the earlier-time variance.
    """
    p2, o2 = _EndpointCurves(final, PFS), _EndpointCurves(final, OS)
    results = [LogrankResult(interim.score[k] / np.sqrt(n_ref),
                             interim.info[k] / n_ref, interim.n_events[k])
               for k in (0, 1)] + [p2.result(n_ref), o2.result(n_ref)]
    v_p1, v_o1, v_p2, v_o2 = (r.var for r in results)
    # the cross covariance of each (PFS time, OS time) pair
    p1, o1 = interim.resid
    c11, c12, c21, c22 = (
        total / n_ref for total in (interim.c11, _cross(p1, o2.resid),
                                    _cross(p2.resid, o1),
                                    _cross(p2.resid, o2.resid)))
    matrix = np.moveaxis(np.array([
        [v_p1, c11, v_p1, c12],
        [c11, v_o1, c21, v_o1],
        [v_p1, c21, v_p2, c22],
        [c12, v_o1, c22, v_o2],
    ]), -1, 0)
    return results, matrix


def correlation(matrix: np.ndarray):
    """Correlations of a stack of 4x4 covariance estimates.

    Off-diagonal entries are clamped to +/-0.9999 and, where the raw
    estimate is indefinite (possible in small samples because the entries
    come from two different estimators), the row is projected onto the
    nearest positive-semidefinite correlation matrix.  Returns ``(corr,
    clamped, errors)``: ``clamped`` per row whether either adjustment
    fired; ``errors[i]`` a ``DegenerateVariance`` when some variance of row
    ``i`` is 0, so no correlation exists (its entries are nan), else None.
    """
    diag = np.diagonal(matrix, axis1=1, axis2=2)
    valid = (diag > 0.0).all(axis=1)
    errors = [None] * len(matrix)
    for i in np.flatnonzero(~valid):
        errors[i] = DegenerateVariance(
            f"zero variance on the diagonal: {diag[i].tolist()}")
    corr = np.full(matrix.shape, np.nan)
    clamped = np.zeros(len(matrix), dtype=bool)
    if not valid.any():
        return corr, clamped, errors

    scale = 1.0 / np.sqrt(diag[valid])
    c = matrix[valid] * scale[:, :, None] * scale[:, None, :]
    off = ~np.eye(4, dtype=bool)
    clipped = (np.abs(c[:, off]) > CORRELATION_CLAMP).any(axis=1)
    c[:, off] = np.clip(c[:, off], -CORRELATION_CLAMP, CORRELATION_CLAMP)
    c[:, ~off] = 1.0
    vals, vecs = np.linalg.eigh(c)
    indefinite = vals.min(axis=1) < 0.0
    if indefinite.any():
        # clip the spectrum and restore unit diagonal; principal submatrices
        # of the result stay valid for the orthant code
        vecs = vecs[indefinite]
        p = (vecs * np.maximum(vals[indefinite], 0.0)[:, None, :]) \
            @ np.swapaxes(vecs, 1, 2)
        d = 1.0 / np.sqrt(np.diagonal(p, axis1=1, axis2=2))
        p = p * d[:, :, None] * d[:, None, :]
        p = 0.5 * (p + np.swapaxes(p, 1, 2))
        p[:, ~off] = 1.0
        c[indefinite] = p
    corr[valid] = c
    clamped[valid] = clipped | indefinite
    return corr, clamped, errors


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Joint 4x4 covariance of (PFS@t1, OS@t1, PFS@t2, OS@t2), stacked
    over the rows of a block.

    Same-endpoint off-diagonal entries equal the earlier-time variance.
    ``corr`` is the derived correlation matrix of :func:`correlation`, and
    ``clamped`` records whether its clamp or its projection fired.
    """

    matrix: np.ndarray
    corr: np.ndarray
    clamped: np.ndarray

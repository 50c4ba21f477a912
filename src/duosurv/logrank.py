"""Calendar-time log-rank statistics and their joint covariance estimator.

Both endpoints are compared between arms with the unweighted log-rank score

    u = n^{-1/2} * sum_i d_i * (z_i - Y1(x_i) / Y(x_i)),

where Y and Y1 are the pooled and the arm-1 at-risk counts at the patient's
own time on study.  The marginal variance estimator sums the at-risk-share
products over events.  Covariances between endpoints and between analysis
times come from per-patient martingale residuals built out of the pooled
Nelson-Aalen estimator and the arm-wise at-risk shares; same-endpoint
covariances across analysis times reduce to the variance at the earlier time
(independent increments).  Score, variance and residuals of one endpoint at
one snapshot come from a single pass over the tie groups of its sorted times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, InconsistentSnapshots
from .trialdata import OS, PFS, Snapshot

__all__ = [
    "LogrankResult",
    "CovarianceEstimate",
    "logrank",
    "cross_covariance",
    "covariance_matrix",
]

CORRELATION_CLAMP = 0.9999


@dataclass(frozen=True)
class LogrankResult:
    """Scaled log-rank score, variance estimate and event count."""

    u: float
    var: float
    n_events: int

    @property
    def z(self) -> float:
        """Standardized statistic; nan when the variance is 0."""
        if self.var <= 0.0:
            return float("nan")
        return self.u / np.sqrt(self.var)


class _EndpointCurves:
    """Everything the estimators need for one (snapshot, endpoint) pair."""

    def __init__(self, snap: Snapshot, endpoint: str):
        n_ref = snap.n_ref
        order = np.argsort(snap.times(endpoint), kind="stable")
        xs = snap.times(endpoint)[order]
        ds = snap.events(endpoint)[order]
        zs = snap.arm[order] == 1

        # tie groups of the sorted times; every per-patient quantity is read
        # at the patient's group
        first = np.empty(len(xs), dtype=bool)
        first[:1] = True
        first[1:] = xs[1:] > xs[:-1]
        group = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        # at-risk counts at each group's time; never 0, as the group is at risk
        at_risk = len(xs) - starts
        at_risk1 = np.cumsum(zs[::-1])[::-1][starts]
        share1 = at_risk1 / at_risk
        share0 = (at_risk - at_risk1) / at_risk

        u = float(np.where(ds, zs - share1[group], 0.0).sum())
        var = float(np.where(ds, (share0 * share1)[group], 0.0).sum())
        self.result = LogrankResult(u / np.sqrt(n_ref) if n_ref else 0.0,
                                    var / n_ref if n_ref else 0.0, int(ds.sum()))

        # pooled hazard jumps and each arm's compensator, the opposite-arm
        # share mu = 1 - Y_arm / Y integrated against them; groups without
        # events add exact zeros
        d_lambda = np.bincount(group[ds], minlength=len(starts)) / at_risk
        mu0, mu1 = 1.0 - share0, 1.0 - share1
        psi0, psi1 = np.cumsum(mu0 * d_lambda), np.cumsum(mu1 * d_lambda)

        # per-patient residuals mu^{(z_i)}(x_i) * d_i - psi^{(z_i)}(x_i),
        # in cohort positions, 0 for absent patients
        self.resid = np.zeros(n_ref)
        self.resid[snap.index[order]] = (
            np.where(zs, mu1[group], mu0[group]) * ds
            - np.where(zs, psi1[group], psi0[group]))


def _curves(snap: Snapshot, endpoint: str) -> _EndpointCurves:
    if endpoint not in snap.curves:
        snap.curves[endpoint] = _EndpointCurves(snap, endpoint)
    return snap.curves[endpoint]


def logrank(snap: Snapshot, endpoint: str) -> LogrankResult:
    """Calendar-time log-rank score and variance at this snapshot.

    The score is positive when arm 1 accumulates more events than its at-risk
    share predicts; an arm-1 benefit therefore pushes the standardized
    statistic negative, which is the rejection direction everywhere in this
    package.
    """
    return _curves(snap, endpoint).result


def _check_compatible(a: Snapshot, b: Snapshot) -> None:
    if a.n_ref != b.n_ref:
        raise InconsistentSnapshots(
            f"snapshots reference different cohort sizes ({a.n_ref} vs {b.n_ref})")
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    pos = np.searchsorted(large.index, small.index)
    if pos.size and (pos >= len(large.index)).any():
        raise InconsistentSnapshots("snapshot patient sets are not nested")
    if not (np.array_equal(large.index[pos], small.index)
            and np.array_equal(large.arm[pos], small.arm)
            and np.array_equal(large.entry[pos], small.entry)):
        raise InconsistentSnapshots("snapshots do not come from the same cohort")


def _cross(snap_pfs: Snapshot, snap_os: Snapshot) -> float:
    """Mean per-patient product of the PFS and OS residuals, unchecked."""
    r_pfs, r_os = _curves(snap_pfs, PFS).resid, _curves(snap_os, OS).resid
    return float(r_pfs @ r_os) / snap_pfs.n_ref


def cross_covariance(snap_pfs: Snapshot, snap_os: Snapshot) -> float:
    """Covariance estimate between the PFS score at ``snap_pfs``'s time and
    the OS score at ``snap_os``'s time.

    Per-patient products of the two endpoint residuals are averaged over the
    reference cohort; patients absent from one snapshot contribute zero, so
    the value is 0 whenever either side has no events yet.
    """
    _check_compatible(snap_pfs, snap_os)
    return _cross(snap_pfs, snap_os)


@dataclass(frozen=True)
class CovarianceEstimate:
    """Joint 4x4 covariance of (PFS@t1, OS@t1, PFS@t2, OS@t2).

    Same-endpoint off-diagonal entries equal the earlier-time variance.
    ``corr`` is the derived correlation matrix with off-diagonal entries
    clamped to +/-0.9999 and, if the raw estimate is indefinite (possible in
    small samples because the entries come from two different estimators),
    projected onto the nearest positive-semidefinite correlation matrix.
    ``clamped`` records whether either adjustment fired.
    """

    matrix: np.ndarray
    corr: np.ndarray
    clamped: bool


def covariance_matrix(snap_interim: Snapshot, snap_final: Snapshot) -> CovarianceEstimate:
    """Assemble the joint covariance of both endpoints at both analysis times.

    Args:
        snap_interim: snapshot at the earlier cutoff.
        snap_final: snapshot at the later cutoff, same cohort.

    Raises:
        InconsistentSnapshots: different cohorts or wrong time order.
        DegenerateVariance: some diagonal entry is 0, so no correlation exists.
    """
    if snap_interim.calendar_time > snap_final.calendar_time:
        raise InconsistentSnapshots("interim snapshot must not be later than final")
    _check_compatible(snap_interim, snap_final)

    snaps = (snap_interim, snap_final)
    v_p1, v_o1, v_p2, v_o2 = (logrank(s, e).var for s in snaps for e in (PFS, OS))
    # cross_covariance for each (PFS time, OS time) pair, checked once above
    c11, c12, c21, c22 = (_cross(s_pfs, s_os) for s_pfs in snaps for s_os in snaps)

    m = np.array([
        [v_p1, c11, v_p1, c12],
        [c11, v_o1, c21, v_o1],
        [v_p1, c21, v_p2, c22],
        [c12, v_o1, c22, v_o2],
    ])

    diag = np.diag(m)
    if np.any(diag <= 0.0):
        raise DegenerateVariance(
            f"zero variance on the diagonal: {diag.tolist()}")
    scale = 1.0 / np.sqrt(diag)
    corr = m * scale[:, None] * scale[None, :]
    off = ~np.eye(4, dtype=bool)
    clamped = bool(np.any(np.abs(corr[off]) > CORRELATION_CLAMP))
    corr[off] = np.clip(corr[off], -CORRELATION_CLAMP, CORRELATION_CLAMP)
    np.fill_diagonal(corr, 1.0)
    vals, vecs = np.linalg.eigh(corr)
    if vals.min() < 0.0:
        # indefinite estimate: clip the spectrum and restore unit diagonal;
        # principal submatrices of the result stay valid for the orthant code
        clamped = True
        vals = np.maximum(vals, 0.0)
        corr = (vecs * vals) @ vecs.T
        d = 1.0 / np.sqrt(np.diag(corr))
        corr = corr * d[:, None] * d[None, :]
        corr = 0.5 * (corr + corr.T)
        np.fill_diagonal(corr, 1.0)
    return CovarianceEstimate(matrix=m, corr=corr, clamped=clamped)

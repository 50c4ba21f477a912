"""Calendar-time log-rank statistics and their joint covariance estimator.

Both endpoints are compared between arms with the unweighted log-rank score

    u = n^{-1/2} * sum_i d_i * (z_i - Y1(x_i) / Y(x_i)),

where Y and Y1 are the pooled and the arm-1 at-risk counts at the patient's
own time on study.  The marginal variance estimator sums the at-risk-share
products over events.  Covariances between endpoints and between analysis
times come from per-patient martingale residuals built out of the pooled
Nelson-Aalen estimator and the arm-wise at-risk shares; same-endpoint
covariances across analysis times reduce to the variance at the earlier time
(independent increments).
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
    n_ref: int

    @property
    def z(self) -> float:
        """Standardized statistic; nan when the variance is 0."""
        if self.var <= 0.0:
            return float("nan")
        return self.u / np.sqrt(self.var)

    def require_z(self) -> float:
        if self.var <= 0.0:
            raise DegenerateVariance(
                f"variance estimate is 0 with {self.n_events} events")
        return self.z


class _EndpointCurves:
    """Everything the estimators need for one (snapshot, endpoint) pair."""

    def __init__(self, snap: Snapshot, endpoint: str):
        x = snap.times(endpoint)
        d = snap.events(endpoint)
        arm = snap.arm
        m = len(x)
        n_ref = snap.n_ref

        order = np.argsort(x, kind="stable")
        xs = x[order]
        ds = d[order]
        zs = (arm[order] == 1)

        if m:
            new_value = np.empty(m, dtype=bool)
            new_value[0] = True
            new_value[1:] = xs[1:] > xs[:-1]
            group_first = np.maximum.accumulate(
                np.where(new_value, np.arange(m), 0))
            # at-risk counts at each sorted position's own time
            suffix_total = m - group_first
            ones_rev = np.cumsum(zs[::-1])[::-1]
            suffix_arm1 = ones_rev[group_first]
        else:
            new_value = np.zeros(0, dtype=bool)
            group_first = np.zeros(0, dtype=int)
            suffix_total = np.zeros(0, dtype=int)
            suffix_arm1 = np.zeros(0, dtype=int)

        share1 = np.divide(suffix_arm1, suffix_total,
                           out=np.zeros(m), where=suffix_total > 0)
        share0 = np.divide(suffix_total - suffix_arm1, suffix_total,
                           out=np.zeros(m), where=suffix_total > 0)

        score_terms = np.where(ds, zs.astype(float) - share1, 0.0)
        var_terms = np.where(ds, share0 * share1, 0.0)
        self.result = LogrankResult(
            u=float(score_terms.sum()) / np.sqrt(n_ref) if n_ref else 0.0,
            var=float(var_terms.sum()) / n_ref if n_ref else 0.0,
            n_events=int(ds.sum()),
            n_ref=n_ref,
        )

        # pooled hazard jumps on the distinct event-time grid
        counts = np.bincount(group_first[np.flatnonzero(ds)], minlength=m)
        grid_first = np.flatnonzero(counts)
        grid_times = xs[grid_first]
        d_lambda = counts[grid_first] / suffix_total[grid_first]
        # opposite-arm share per group at the grid: mu_g = 1 - Y_g / Y
        mu1 = 1.0 - share1[grid_first]
        mu0 = 1.0 - share0[grid_first]
        psi0 = np.cumsum(mu0 * d_lambda)
        psi1 = np.cumsum(mu1 * d_lambda)

        # per-patient residuals mu^{(z_i)}(x_i) * d_i - psi^{(z_i)}(x_i),
        # back in record order
        mu_own_sorted = np.where(zs, 1.0 - share1, 1.0 - share0)
        # both psi curves jump on the same grid: one lookup serves both
        at = np.searchsorted(grid_times, xs, side="right")
        psi_own_sorted = np.where(zs, np.append(0.0, psi1)[at],
                                  np.append(0.0, psi0)[at])
        resid_sorted = mu_own_sorted * ds - psi_own_sorted
        resid = np.empty(m)
        resid[order] = resid_sorted
        self.resid = resid


def _curves(snap: Snapshot, endpoint: str) -> _EndpointCurves:
    cache = snap.__dict__.setdefault("_curves_cache", {})
    if endpoint not in cache:
        cache[endpoint] = _EndpointCurves(snap, endpoint)
    return cache[endpoint]


def logrank(snap: Snapshot, endpoint: str) -> LogrankResult:
    """Calendar-time log-rank score and variance at this snapshot.

    The score is positive when arm 1 accumulates more events than its at-risk
    share predicts; an arm-1 benefit therefore pushes the standardized
    statistic negative, which is the rejection direction everywhere in this
    package.  Events with an empty at-risk group contribute zero (0/0 := 0).
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


def _residuals(snap: Snapshot, endpoint: str) -> np.ndarray:
    """Endpoint residuals in cohort positions, 0 for absent patients."""
    out = np.zeros(snap.n_ref)
    out[snap.index] = _curves(snap, endpoint).resid
    return out


def cross_covariance(snap_pfs: Snapshot, snap_os: Snapshot) -> float:
    """Covariance estimate between the PFS score at ``snap_pfs``'s time and
    the OS score at ``snap_os``'s time.

    Per-patient products of the two endpoint residuals are averaged over the
    reference cohort; patients absent from one snapshot contribute zero, so
    the value is 0 whenever either side has no events yet.
    """
    _check_compatible(snap_pfs, snap_os)
    r_pfs, r_os = _residuals(snap_pfs, PFS), _residuals(snap_os, OS)
    return float(r_pfs @ r_os) / snap_pfs.n_ref


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

    def correlation(self, i: int, j: int) -> float:
        return float(self.corr[i, j])


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

    v_p1 = logrank(snap_interim, PFS).var
    v_o1 = logrank(snap_interim, OS).var
    v_p2 = logrank(snap_final, PFS).var
    v_o2 = logrank(snap_final, OS).var
    # cross_covariance for each (PFS time, OS time) pair, checked once
    r_p1, r_o1 = _residuals(snap_interim, PFS), _residuals(snap_interim, OS)
    r_p2, r_o2 = _residuals(snap_final, PFS), _residuals(snap_final, OS)
    c11 = float(r_p1 @ r_o1) / snap_interim.n_ref
    c12 = float(r_p1 @ r_o2) / snap_interim.n_ref
    c21 = float(r_p2 @ r_o1) / snap_interim.n_ref
    c22 = float(r_p2 @ r_o2) / snap_interim.n_ref

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
    corr = corr.copy()
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

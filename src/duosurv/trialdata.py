"""Observable trial data at a calendar time and event-driven cutoffs.

Observed data freeze what is visible at calendar time t: each entered
patient contributes the censored time on study for both endpoints.
Analyses are triggered when a prescribed number of endpoint events has
accumulated, so the calendar dates of the interim and final analysis are
themselves random.  Both work on blocks of cohorts, one trial per row: the
cutoffs of one endpoint come from one partition, and the data observed at
one time per row mask the patients not entered yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientEvents, InvalidModel
from .multistate import Cohort, _check_finite

__all__ = [
    "PFS",
    "OS",
    "SnapshotBlock",
    "CutoffTargets",
    "observe",
    "event_cutoffs",
]

PFS = "pfs"
OS = "os"
_ENDPOINTS = (PFS, OS)


@dataclass(frozen=True, eq=False)
class SnapshotBlock:
    """Observable data of a block of trials, one row per trial at its own
    calendar time, over the positions of its cohort.

    ``present`` marks the patients entered by the row's time; the other
    columns mean something only where it is set, the times of present
    patients are finite and the event indicators are False wherever it is
    not.  The reference cohort size of the statistics' 1/sqrt(n) scalings
    is not part of it: it comes with the final cutoff.
    """

    present: np.ndarray
    arm: np.ndarray
    x_pfs: np.ndarray
    d_pfs: np.ndarray
    x_os: np.ndarray
    d_os: np.ndarray

    def times(self, endpoint: str) -> np.ndarray:
        _check_endpoint(endpoint)
        return self.x_pfs if endpoint == PFS else self.x_os

    def events(self, endpoint: str) -> np.ndarray:
        _check_endpoint(endpoint)
        return self.d_pfs if endpoint == PFS else self.d_os


@dataclass(frozen=True)
class CutoffTargets:
    """Event counts that trigger the interim and the final analysis; both
    must be at least 1, checked when the targets are built."""

    d_pfs: int
    d_os: int

    def __post_init__(self):
        _check_finite("event targets", self.d_pfs, self.d_os)
        if self.d_pfs < 1 or self.d_os < 1:
            raise InvalidModel("event targets must be at least 1")

    @classmethod
    def from_rates(cls, r_pfs: float, r_os: float, n_total: int) -> "CutoffTargets":
        """Targets as ceil(rate * n) of the planned total sample size."""
        if not (0.0 < r_pfs <= 1.0 and 0.0 < r_os <= 1.0):
            raise InvalidModel("event rates must lie in (0, 1]")
        return cls(d_pfs=math.ceil(r_pfs * n_total), d_os=math.ceil(r_os * n_total))


def _check_endpoint(endpoint: str) -> None:
    if endpoint not in _ENDPOINTS:
        raise ValueError(f"endpoint must be one of {_ENDPOINTS}, got {endpoint!r}")


def _event_dates(cohort: Cohort, endpoint: str) -> np.ndarray:
    """Calendar date of each patient's endpoint event; +inf if drop-out wins
    or if the date overflows, as the event is then never observed."""
    _check_endpoint(endpoint)
    t = cohort.t_pfs if endpoint == PFS else cohort.t_os
    with np.errstate(over="ignore"):
        return np.where(t <= cohort.dropout, cohort.entry + t, np.inf)


def observe(cohort: Cohort, calendar_time) -> SnapshotBlock:
    """Observable data of a block of cohorts, row ``i`` at
    ``calendar_time[i]``.

    A patient is present once entered.  For a present patient the endpoint
    time on study is the event time if the event happened under
    observation (before drop-out and before the cutoff), otherwise the
    censoring time ``min(dropout, calendar_time - entry)``.  Event
    indicators compare calendar event dates with the cutoff so that a
    snapshot taken at an event-driven cutoff contains that event exactly;
    an absent patient's event date lies beyond the cutoff.
    """
    t = np.asarray(calendar_time, dtype=float)[:, None]
    columns = {}
    for endpoint, t_event in ((PFS, cohort.t_pfs), (OS, cohort.t_os)):
        d = _event_dates(cohort, endpoint) <= t
        columns[endpoint] = (
            np.where(d, t_event, np.minimum(cohort.dropout, t - cohort.entry)),
            d)
    return SnapshotBlock(
        present=cohort.entry <= t, arm=cohort.arm,
        x_pfs=columns[PFS][0], d_pfs=columns[PFS][1],
        x_os=columns[OS][0], d_os=columns[OS][1])


def _shortfall(dates: np.ndarray, endpoint: str, d_target: int):
    """The ``InsufficientEvents`` of a trial whose ``d_target``-th event
    never comes, given its event dates; None if it comes."""
    if d_target > len(dates):
        return InsufficientEvents(
            f"{endpoint}: target {d_target} exceeds cohort size {len(dates)}")
    observed = int(np.isfinite(dates).sum())
    if observed < d_target:
        return InsufficientEvents(
            f"{endpoint}: only {observed} events ever observed, "
            f"target {d_target}")
    return None


def event_cutoffs(cohort: Cohort, endpoint: str, d_target: int):
    """Calendar date at which the d-th endpoint event is observed, for each
    trial of a cohort block, from one partition of its event dates.

    Ties share a date, in which case the snapshot taken at the cutoff holds
    every tied event and can exceed ``d_target``.  Returns ``(t, errors)``:
    ``errors[i]`` is the ``InsufficientEvents`` of a row whose d-th event
    never comes (its cutoff is then +inf), None for the others.
    """
    n = len(cohort)
    dates = _event_dates(cohort, endpoint)
    # a target beyond the cohort size is never reached
    k = min(d_target, n) - 1
    t = np.where(d_target <= n, np.partition(dates, k, axis=-1)[:, k],
                 np.inf)
    errors = [None] * len(t)
    for i in np.flatnonzero(~np.isfinite(t)):
        errors[i] = _shortfall(dates[i], endpoint, d_target)
    return t, errors

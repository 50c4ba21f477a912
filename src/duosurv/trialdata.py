"""Observable trial data at a calendar time and event-driven cutoffs.

A snapshot freezes what is visible at calendar time t: each entered patient
contributes the censored time on study for both endpoints.  Analyses are
triggered when a prescribed number of endpoint events has accumulated, so the
calendar dates of the interim and final analysis are themselves random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientEvents, InvalidModel
from .multistate import Cohort

__all__ = [
    "PFS",
    "OS",
    "ObservedRecord",
    "Snapshot",
    "CutoffTargets",
    "snapshot",
    "event_cutoff",
    "information_fraction",
]

PFS = "pfs"
OS = "os"
_ENDPOINTS = (PFS, OS)


@dataclass(frozen=True)
class ObservedRecord:
    """One patient's observable data at a fixed calendar time."""

    arm: int
    entry: float
    x_pfs: float
    d_pfs: int
    x_os: float
    d_os: int


@dataclass
class Snapshot:
    """Observable data of all entered patients at one calendar time.

    ``n_ref`` is the reference cohort size used for the 1/sqrt(n) scalings of
    the statistics; it defaults to the number of records but is set to the
    cohort size by :func:`snapshot` so that statistics computed at different
    calendar times of the same trial share one normalization.
    ``index`` holds each record's position in that cohort.
    """

    calendar_time: float
    arm: np.ndarray
    entry: np.ndarray
    x_pfs: np.ndarray
    d_pfs: np.ndarray
    x_os: np.ndarray
    d_os: np.ndarray
    index: np.ndarray
    n_ref: int = field(default=0)

    def __post_init__(self):
        if self.n_ref == 0:
            self.n_ref = len(self.arm)

    def __len__(self) -> int:
        return len(self.arm)

    def times(self, endpoint: str) -> np.ndarray:
        _check_endpoint(endpoint)
        return self.x_pfs if endpoint == PFS else self.x_os

    def events(self, endpoint: str) -> np.ndarray:
        _check_endpoint(endpoint)
        return self.d_pfs if endpoint == PFS else self.d_os

    def n_events(self, endpoint: str) -> int:
        return int(self.events(endpoint).sum())

    def records(self) -> list[ObservedRecord]:
        return [
            ObservedRecord(int(self.arm[i]), float(self.entry[i]),
                           float(self.x_pfs[i]), int(self.d_pfs[i]),
                           float(self.x_os[i]), int(self.d_os[i]))
            for i in range(len(self))
        ]

    @classmethod
    def from_records(cls, records, calendar_time: float,
                     n_ref: int | None = None) -> "Snapshot":
        recs = list(records)
        return cls(
            calendar_time=calendar_time,
            arm=np.array([r.arm for r in recs], dtype=np.int8),
            entry=np.array([r.entry for r in recs], dtype=float),
            x_pfs=np.array([r.x_pfs for r in recs], dtype=float),
            d_pfs=np.array([r.d_pfs for r in recs], dtype=bool),
            x_os=np.array([r.x_os for r in recs], dtype=float),
            d_os=np.array([r.d_os for r in recs], dtype=bool),
            index=np.arange(len(recs)),
            n_ref=n_ref if n_ref is not None else len(recs),
        )


@dataclass(frozen=True)
class CutoffTargets:
    """Event counts that trigger the interim and the final analysis."""

    d_pfs: int
    d_os: int

    def validate(self) -> None:
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
    """Calendar date of each patient's endpoint event; +inf if drop-out wins."""
    t = cohort.t_pfs if endpoint == PFS else cohort.t_os
    return np.where(t <= cohort.dropout, cohort.entry + t, np.inf)


def snapshot(cohort: Cohort, calendar_time: float) -> Snapshot:
    """Observable data at a calendar time.

    Patients who have not entered yet are excluded.  For an included patient
    the endpoint time on study is the event time if the event happened under
    observation (before drop-out and before the cutoff), otherwise the
    censoring time ``min(dropout, calendar_time - entry)``.  Event indicators
    compare calendar event dates with the cutoff so that a snapshot taken at
    an event-driven cutoff contains that event exactly.
    """
    entered = cohort.entry <= calendar_time
    sub = cohort.restricted_to(entered)
    exposure = calendar_time - sub.entry

    columns = {}
    for endpoint, t_event in ((PFS, sub.t_pfs), (OS, sub.t_os)):
        d = _event_dates(sub, endpoint) <= calendar_time
        x = np.where(d, t_event, np.minimum(sub.dropout, exposure))
        columns[endpoint] = (x, d)

    return Snapshot(
        calendar_time=calendar_time,
        arm=sub.arm,
        entry=sub.entry,
        x_pfs=columns[PFS][0],
        d_pfs=columns[PFS][1],
        x_os=columns[OS][0],
        d_os=columns[OS][1],
        index=np.flatnonzero(entered),
        n_ref=len(cohort),
    )


def event_cutoff(cohort: Cohort, endpoint: str, d_target: int) -> float:
    """Calendar date at which the d-th endpoint event is observed.

    Ties share a date, in which case the snapshot taken at the cutoff holds
    every tied event and can exceed ``d_target``.

    Raises:
        InsufficientEvents: fewer than ``d_target`` events ever occur.
    """
    _check_endpoint(endpoint)
    if d_target < 1:
        raise InvalidModel("event target must be at least 1")
    dates = _event_dates(cohort, endpoint)
    if d_target > len(dates):
        raise InsufficientEvents(
            f"{endpoint}: target {d_target} exceeds cohort size {len(dates)}")
    cut = np.partition(dates, d_target - 1)[d_target - 1]
    if not np.isfinite(cut):
        observed = int(np.isfinite(dates).sum())
        raise InsufficientEvents(
            f"{endpoint}: only {observed} events ever observed, target {d_target}")
    return float(cut)


def information_fraction(snap: Snapshot, endpoint: str, d_target: int) -> float:
    """Observed events divided by the target; deliberately not capped at 1."""
    if d_target < 1:
        raise InvalidModel("event target must be at least 1")
    return snap.n_events(endpoint) / d_target

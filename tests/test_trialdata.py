"""Snapshot construction and event-driven cutoffs against brute-force rules."""

import numpy as np
import pytest

from duosurv.errors import InsufficientEvents, InvalidModel
from duosurv.trialdata import (
    OS,
    PFS,
    CutoffTargets,
    event_cutoff,
    information_fraction,
    snapshot,
)

from conftest import cohort_from_patients, micro_cutoffs, micro_patients
from oracles import observe

HAND_PATIENTS = [
    # (arm, entry, t_pfs, t_os, dropout)
    (0, 0.0, 1.0, 2.0, 64.0),   # PFS event lands exactly on the t=1 cutoff
    (1, 0.5, 1.0, 1.0, 0.75),   # drop-out wins before any event
    (0, 0.5, 0.25, 0.5, 64.0),  # both events early
    (1, 1.5, 0.5, 1.0, 64.0),   # enters after t=1
]


def test_snapshot_matches_oracle_on_micro_datasets():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(300):
        patients = micro_patients(rng)
        cohort = cohort_from_patients(patients)
        t1, _ = micro_cutoffs(rng)
        snap = snapshot(cohort, t1)
        for endpoint in (PFS, OS):
            expected = observe(patients, t1, endpoint)
            x = snap.times(endpoint)
            d = snap.events(endpoint)
            assert len(expected) == len(snap)
            for i, (arm, xv, dv) in enumerate(expected):
                assert arm == snap.arm[i]
                assert xv == x[i]
                assert dv == d[i]
        checked += 1
    assert checked == 300


def test_event_on_cutoff_date_is_included():
    snap = snapshot(cohort_from_patients(HAND_PATIENTS), 1.0)
    assert len(snap) == 3  # patient entering at 1.5 is excluded
    assert snap.n_ref == 4
    assert list(snap.index) == [0, 1, 2]
    # patient 0: PFS event date is exactly 1.0
    assert snap.d_pfs[0]
    assert snap.x_pfs[0] == 1.0
    # its OS event (date 2.0) is still pending, censored at exposure 1.0
    assert not snap.d_os[0]
    assert snap.x_os[0] == 1.0


def test_dropout_before_event_censors_at_dropout():
    snap = snapshot(cohort_from_patients(HAND_PATIENTS), 10.0)
    # patient 1: dropout 0.75 < t_pfs 1.0, so both endpoints censor at 0.75
    assert not snap.d_pfs[1] and not snap.d_os[1]
    assert snap.x_pfs[1] == 0.75
    assert snap.x_os[1] == 0.75


def test_event_tied_with_dropout_counts_as_event():
    patients = [(0, 0.0, 0.5, 1.0, 0.5), (1, 0.0, 0.25, 0.5, 64.0)]
    snap = snapshot(cohort_from_patients(patients), 5.0)
    assert snap.d_pfs[0]
    assert snap.x_pfs[0] == 0.5
    # the later OS event of patient 0 is lost to the drop-out
    assert not snap.d_os[0]
    assert snap.x_os[0] == 0.5


def test_event_cutoff_equals_sorted_event_date():
    rng = np.random.default_rng(77)
    for _ in range(200):
        patients = micro_patients(rng)
        cohort = cohort_from_patients(patients)
        for endpoint in (PFS, OS):
            dates = sorted(
                (entry + (t_pfs if endpoint == PFS else t_os))
                if (t_pfs if endpoint == PFS else t_os) <= drop else np.inf
                for (_, entry, t_pfs, t_os, drop) in patients
            )
            n_obs = sum(np.isfinite(d) for d in dates)
            if n_obs == 0:
                continue
            target = int(rng.integers(1, n_obs + 1))
            cut = event_cutoff(cohort, endpoint, target)
            assert cut == dates[target - 1]
            assert snapshot(cohort, cut).n_events(endpoint) >= target


def test_event_cutoff_failures():
    cohort = cohort_from_patients([(0, 0.0, 1.0, 2.0, 0.5),
                                   (1, 0.0, 1.0, 2.0, 0.5)])
    with pytest.raises(InsufficientEvents, match="exceeds cohort size"):
        event_cutoff(cohort, PFS, 3)
    with pytest.raises(InsufficientEvents, match="only 0 events"):
        event_cutoff(cohort, OS, 1)
    with pytest.raises(InvalidModel):
        event_cutoff(cohort, PFS, 0)
    with pytest.raises(ValueError):
        event_cutoff(cohort, "ttp", 1)


def test_cutoff_targets():
    CutoffTargets(1, 1)
    for d_pfs, d_os in ((0, 5), (5, 0)):
        with pytest.raises(InvalidModel, match="event targets must be at least 1"):
            CutoffTargets(d_pfs, d_os)
    for d_pfs, d_os in ((np.nan, 5), (5, np.nan), (np.inf, 5), (5, np.inf)):
        with pytest.raises(InvalidModel, match="event targets must be finite"):
            CutoffTargets(d_pfs, d_os)
    t = CutoffTargets.from_rates(25.0 / 64.0, 38.0 / 64.0, 128)
    assert (t.d_pfs, t.d_os) == (50, 76)
    # ceil rounds partial events up
    assert CutoffTargets.from_rates(0.41, 0.5, 101).d_pfs == 42
    with pytest.raises(InvalidModel):
        CutoffTargets.from_rates(0.0, 0.5, 100)
    with pytest.raises(InvalidModel):
        CutoffTargets.from_rates(0.5, 1.2, 100)


def test_information_fraction_not_capped():
    snap = snapshot(cohort_from_patients(HAND_PATIENTS), 10.0)
    assert snap.n_events(PFS) == 3
    assert information_fraction(snap, PFS, 2) == pytest.approx(1.5)
    assert information_fraction(snap, PFS, 6) == pytest.approx(0.5)
    with pytest.raises(InvalidModel):
        information_fraction(snap, PFS, 0)

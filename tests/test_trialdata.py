"""Observed data and event-driven cutoffs against brute-force rules, each
cohort a block of one."""

import numpy as np
import pytest

import oracles
from duosurv.errors import InsufficientEvents, InvalidModel
from duosurv.multistate import Cohort
from duosurv.trialdata import OS, PFS, CutoffTargets, event_cutoffs, observe

from conftest import cohort_from_patients, micro_cutoffs, micro_patients

HAND_PATIENTS = [
    # (arm, entry, t_pfs, t_os, dropout)
    (0, 0.0, 1.0, 2.0, 64.0),   # PFS event lands exactly on the t=1 cutoff
    (1, 0.5, 1.0, 1.0, 0.75),   # drop-out wins before any event
    (0, 0.5, 0.25, 0.5, 64.0),  # both events early
    (1, 1.5, 0.5, 1.0, 64.0),   # enters after t=1
]


def observed(patients, t):
    """The data of the cohort of ``patients`` at calendar time ``t``."""
    return observe(Cohort.stack([cohort_from_patients(patients)]), [t])


def test_snapshot_matches_oracle_on_micro_datasets():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(300):
        patients = micro_patients(rng)
        t1, _ = micro_cutoffs(rng)
        snap = observed(patients, t1)
        entered = snap.present[0]
        for endpoint in (PFS, OS):
            expected = oracles.observe(patients, t1, endpoint)
            arm = snap.arm[0, entered]
            x = snap.times(endpoint)[0, entered]
            d = snap.events(endpoint)[0, entered]
            assert len(expected) == entered.sum()
            for i, (arm_i, xv, dv) in enumerate(expected):
                assert arm_i == arm[i]
                assert xv == x[i]
                assert dv == d[i]
            # an absent patient has no event
            assert not snap.events(endpoint)[0, ~entered].any()
        checked += 1
    assert checked == 300


def test_event_on_cutoff_date_is_included():
    snap = observed(HAND_PATIENTS, 1.0)
    # the patient entering at 1.5 is absent
    assert snap.present.tolist() == [[True, True, True, False]]
    # patient 0: PFS event date is exactly 1.0
    assert snap.d_pfs[0, 0]
    assert snap.x_pfs[0, 0] == 1.0
    # its OS event (date 2.0) is still pending, censored at exposure 1.0
    assert not snap.d_os[0, 0]
    assert snap.x_os[0, 0] == 1.0


def test_dropout_before_event_censors_at_dropout():
    snap = observed(HAND_PATIENTS, 10.0)
    # patient 1: dropout 0.75 < t_pfs 1.0, so both endpoints censor at 0.75
    assert not snap.d_pfs[0, 1] and not snap.d_os[0, 1]
    assert snap.x_pfs[0, 1] == 0.75
    assert snap.x_os[0, 1] == 0.75


def test_event_tied_with_dropout_counts_as_event():
    patients = [(0, 0.0, 0.5, 1.0, 0.5), (1, 0.0, 0.25, 0.5, 64.0)]
    snap = observed(patients, 5.0)
    assert snap.d_pfs[0, 0]
    assert snap.x_pfs[0, 0] == 0.5
    # the later OS event of patient 0 is lost to the drop-out
    assert not snap.d_os[0, 0]
    assert snap.x_os[0, 0] == 0.5


def test_event_cutoff_equals_sorted_event_date():
    rng = np.random.default_rng(77)
    for _ in range(200):
        patients = micro_patients(rng)
        block = Cohort.stack([cohort_from_patients(patients)])
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
            cut, errors = event_cutoffs(block, endpoint, target)
            assert errors == [None]
            assert cut[0] == dates[target - 1]
            assert observe(block, cut).events(endpoint).sum() >= target


def test_event_cutoff_failures():
    block = Cohort.stack([cohort_from_patients([(0, 0.0, 1.0, 2.0, 0.5),
                                                (1, 0.0, 1.0, 2.0, 0.5)])])
    for endpoint, target, message in (
            (PFS, 3, "pfs: target 3 exceeds cohort size 2"),
            (OS, 1, "os: only 0 events ever observed, target 1")):
        cut, (error,) = event_cutoffs(block, endpoint, target)
        assert cut[0] == np.inf
        assert isinstance(error, InsufficientEvents)
        assert str(error) == message


def test_event_cutoffs_reject_an_unknown_endpoint():
    # any endpoint but PFS would otherwise be read as OS
    block = Cohort.stack([cohort_from_patients(HAND_PATIENTS)])
    with pytest.raises(ValueError, match="got 'ttp'"):
        event_cutoffs(block, "ttp", 1)


def test_cutoff_targets():
    CutoffTargets(1, 1)
    assert CutoffTargets(np.int64(40), np.int32(60)) == CutoffTargets(40, 60)
    # a float target fails later as a partition index, and True reads as 1
    for d_pfs, d_os in ((10.5, 60), (40, 60.0), (True, 60), (40, False)):
        with pytest.raises(InvalidModel, match="event targets must be integers"):
            CutoffTargets(d_pfs, d_os)
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

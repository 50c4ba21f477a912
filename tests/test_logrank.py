"""Log-rank scores, residual covariances and the joint 4x4 estimator.

The heavy lifting is equivalence with the brute-force double-loop oracles in
``oracles.py`` on hundreds of tiny datasets full of ties; everything else is
hand-checkable examples and structural identities.
"""

import numpy as np
import pytest

import oracles
from conftest import cohort_from_patients, micro_cutoffs, micro_patients
from duosurv.errors import DegenerateVariance, InconsistentSnapshots
from duosurv.logrank import (
    CORRELATION_CLAMP,
    covariance_matrix,
    cross_covariance,
    logrank,
)
from duosurv.trialdata import OS, PFS, Snapshot, snapshot

TOL = 1e-12


def two_arm_records(items, n_ref=None):
    """Snapshot from (arm, x_pfs, d_pfs, x_os, d_os) rows at a fixed time."""
    from duosurv.trialdata import ObservedRecord
    recs = [ObservedRecord(arm=a, entry=0.0, x_pfs=xp, d_pfs=dp,
                           x_os=xo, d_os=do) for a, xp, dp, xo, do in items]
    return Snapshot.from_records(recs, calendar_time=100.0, n_ref=n_ref)


def test_scores_match_oracle_on_micro_datasets():
    rng = np.random.default_rng(4242)
    for _ in range(250):
        patients = micro_patients(rng)
        cohort = cohort_from_patients(patients)
        t1, t2 = micro_cutoffs(rng)
        for t in (t1, t2):
            snap = snapshot(cohort, t)
            for endpoint in (PFS, OS):
                got = logrank(snap, endpoint)
                u, var = oracles.logrank_score(
                    oracles.observe(patients, t, endpoint), len(patients))
                assert got.u == pytest.approx(u, abs=TOL)
                assert got.var == pytest.approx(var, abs=TOL)


def test_cross_covariance_matches_oracle_all_time_pairs():
    rng = np.random.default_rng(999)
    for _ in range(200):
        patients = micro_patients(rng)
        cohort = cohort_from_patients(patients)
        t1, t2 = micro_cutoffs(rng)
        snaps = {t: snapshot(cohort, t) for t in (t1, t2)}
        for ta in (t1, t2):
            for tb in (t1, t2):
                got = cross_covariance(snaps[ta], snaps[tb])
                want = oracles.cross_covariance(patients, ta, tb)
                assert got == pytest.approx(want, abs=TOL)


def test_two_patient_hand_example():
    snap = two_arm_records([(0, 1.0, 1, 1.0, 1), (1, 2.0, 1, 2.0, 1)])
    res = logrank(snap, PFS)
    # event at t=1: Y=2, Y1=1, arm-0 term 0 - 1/2; event at t=2: Y=Y1=1, term 0
    assert res.u == pytest.approx(-0.5 / np.sqrt(2.0), abs=TOL)
    assert res.var == pytest.approx(0.25 / 2.0, abs=TOL)
    assert res.n_events == 2
    assert res.z == pytest.approx(res.u / np.sqrt(res.var))

    swapped = two_arm_records([(1, 1.0, 1, 1.0, 1), (0, 2.0, 1, 2.0, 1)])
    res_sw = logrank(swapped, PFS)
    assert res_sw.u == pytest.approx(-res.u, abs=TOL)
    assert res_sw.var == pytest.approx(res.var, abs=TOL)


def test_tied_events_share_one_jump():
    snap = two_arm_records([
        (0, 1.0, 1, 1.0, 1),
        (1, 1.0, 1, 1.0, 1),
        (0, 2.0, 0, 2.0, 0),
    ])
    # both tied events see the full risk set: Y=3, Y1=1
    res = logrank(snap, PFS)
    assert res.u == pytest.approx((1.0 / 3.0) / np.sqrt(3.0), abs=TOL)
    assert res.var == pytest.approx(2.0 * (2.0 / 9.0) / 3.0, abs=TOL)
    # one hazard jump of 2/3 at t=1 gives residuals 1/9, 2/9 and -2/9
    assert cross_covariance(snap, snap) == pytest.approx(1.0 / 27.0, abs=TOL)


def test_no_events_gives_degenerate_statistic():
    snap = two_arm_records([(0, 1.0, 0, 1.0, 0), (1, 2.0, 0, 2.0, 0)])
    res = logrank(snap, PFS)
    assert res.u == 0.0
    assert res.var == 0.0
    assert np.isnan(res.z)
    with pytest.raises(DegenerateVariance):
        res.require_z()
    assert cross_covariance(snap, snap) == 0.0


def test_arm_swap_negates_score_many():
    rng = np.random.default_rng(55)
    for _ in range(80):
        patients = micro_patients(rng)
        flipped = [(1 - a, e, tp, to, dr) for a, e, tp, to, dr in patients]
        t, _ = micro_cutoffs(rng)
        a = logrank(snapshot(cohort_from_patients(patients), t), OS)
        b = logrank(snapshot(cohort_from_patients(flipped), t), OS)
        assert b.u == pytest.approx(-a.u, abs=TOL)
        assert b.var == pytest.approx(a.var, abs=TOL)


def test_zero_exposure_patient_changes_nothing():
    base = [(0, 1.0, 1, 2.0, 1), (1, 2.0, 1, 3.0, 0), (0, 1.5, 0, 1.5, 0),
            (1, 1.0, 1, 2.5, 1)]
    with_extra = base + [(1, 0.0, 0, 0.0, 0)]
    snap_a = two_arm_records(base, n_ref=5)
    snap_b = two_arm_records(with_extra, n_ref=5)
    for endpoint in (PFS, OS):
        ra, rb = logrank(snap_a, endpoint), logrank(snap_b, endpoint)
        assert rb.u == pytest.approx(ra.u, abs=TOL)
        assert rb.var == pytest.approx(ra.var, abs=TOL)
    assert cross_covariance(snap_b, snap_b) == pytest.approx(
        cross_covariance(snap_a, snap_a), abs=TOL)


def test_record_order_invariance():
    rng = np.random.default_rng(7)
    patients = micro_patients(rng, n=10)
    t, _ = micro_cutoffs(rng)
    perm = rng.permutation(len(patients))
    shuffled = [patients[i] for i in perm]
    a = logrank(snapshot(cohort_from_patients(patients), t), PFS)
    b = logrank(snapshot(cohort_from_patients(shuffled), t), PFS)
    assert b.u == pytest.approx(a.u, abs=TOL)
    assert b.var == pytest.approx(a.var, abs=TOL)


def test_covariance_matrix_layout_and_symmetry():
    rng = np.random.default_rng(101)
    patients = micro_patients(rng, n=12)
    cohort = cohort_from_patients(patients)
    t1, t2 = 1.25, 3.25
    s1, s2 = snapshot(cohort, t1), snapshot(cohort, t2)
    est = covariance_matrix(s1, s2)
    m = est.matrix
    assert m.shape == (4, 4)
    assert np.array_equal(m, m.T)
    # same-endpoint cross-time entries equal the earlier variance exactly
    assert m[0, 2] == logrank(s1, PFS).var
    assert m[1, 3] == logrank(s1, OS).var
    assert m[0, 0] == logrank(s1, PFS).var
    assert m[2, 2] == logrank(s2, PFS).var
    assert m[3, 3] == logrank(s2, OS).var
    assert m[0, 1] == pytest.approx(
        oracles.cross_covariance(patients, t1, t1), abs=TOL)
    assert m[0, 3] == pytest.approx(
        oracles.cross_covariance(patients, t1, t2), abs=TOL)
    assert m[1, 2] == pytest.approx(
        oracles.cross_covariance(patients, t2, t1), abs=TOL)
    assert m[2, 3] == pytest.approx(
        oracles.cross_covariance(patients, t2, t2), abs=TOL)
    assert np.all(np.diag(est.corr) == 1.0)
    assert np.all(np.abs(est.corr) <= 1.0)
    scale = 1.0 / np.sqrt(np.diag(m))
    assert est.correlation(0, 1) == pytest.approx(
        m[0, 1] * scale[0] * scale[1], abs=TOL)
    assert not est.clamped


def test_equal_analysis_times_hit_correlation_clamp():
    # interim == final: same-endpoint cross-time correlation is exactly 1
    # (cov = earlier variance = both variances) and gets clamped
    items = [(0, 1.0, 1, 1.0, 1), (1, 2.0, 1, 2.0, 1),
             (0, 3.0, 1, 3.0, 1), (1, 4.0, 0, 4.0, 0)]
    snap = two_arm_records(items)
    est = covariance_matrix(snap, snap)
    assert est.clamped
    assert est.correlation(0, 2) == CORRELATION_CLAMP
    assert est.correlation(1, 3) == CORRELATION_CLAMP
    assert est.matrix[0, 2] == est.matrix[0, 0]
    # the two endpoints stay distinct estimators even on identical data: the
    # residual product form need not equal the hypergeometric variance
    assert est.correlation(0, 1) < 1.0


def test_indefinite_estimate_is_projected_to_psd():
    # tiny sample found by search: the raw correlation assembly has a
    # -4.4e-2 eigenvalue because cross terms and the independent-increments
    # shortcut come from different estimators
    patients = [(1, 0.0, 3.0, 4.0, 0.5), (0, 2.0, 1.5, 1.5, 1.0),
                (0, 2.0, 0.5, 2.5, 0.5), (0, 2.0, 1.5, 2.0, 1.75),
                (0, 0.5, 1.0, 1.0, 64.0), (1, 0.0, 1.0, 1.25, 0.5),
                (1, 0.5, 1.5, 2.0, 0.5), (0, 0.5, 1.0, 3.0, 64.0),
                (0, 0.5, 0.5, 0.5, 0.5)]
    cohort = cohort_from_patients(patients)
    est = covariance_matrix(snapshot(cohort, 2.0), snapshot(cohort, 102.0))
    m = est.matrix
    d = 1.0 / np.sqrt(np.diag(m))
    raw = m * d[:, None] * d[None, :]
    assert np.linalg.eigvalsh(raw).min() < -1e-3
    assert est.clamped
    assert np.linalg.eigvalsh(est.corr).min() >= -1e-10
    assert np.all(np.diag(est.corr) == 1.0)
    assert np.all(np.abs(est.corr) <= 1.0 + 1e-12)
    # the raw covariance itself is reported unadjusted
    assert m[0, 2] == logrank(snapshot(cohort, 2.0), PFS).var


def test_covariance_matrix_errors():
    patients = [(0, 0.0, 1.0, 2.0, 64.0), (1, 0.0, 1.5, 2.5, 64.0),
                (0, 0.5, 0.5, 1.0, 64.0), (1, 0.5, 2.0, 3.0, 64.0)]
    cohort = cohort_from_patients(patients)
    s1, s2 = snapshot(cohort, 2.0), snapshot(cohort, 5.0)
    with pytest.raises(InconsistentSnapshots, match="later than final"):
        covariance_matrix(s2, s1)

    other = cohort_from_patients([(1, 0.0, 1.0, 2.0, 64.0),
                                  (0, 0.0, 1.5, 2.5, 64.0),
                                  (1, 0.5, 0.5, 1.0, 64.0),
                                  (0, 0.5, 2.0, 3.0, 64.0)])
    with pytest.raises(InconsistentSnapshots):
        covariance_matrix(s1, snapshot(other, 5.0))

    # interim with zero OS events: degenerate diagonal
    early = cohort_from_patients([(0, 0.0, 0.5, 9.0, 64.0),
                                  (1, 0.0, 0.5, 9.0, 64.0)])
    with pytest.raises(DegenerateVariance):
        covariance_matrix(snapshot(early, 1.0), snapshot(early, 10.0))


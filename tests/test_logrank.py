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
    InterimCurves,
    covariance_matrix,
    cross_covariance,
    joint_covariance,
    logrank,
)
from duosurv.multistate import Cohort
from duosurv.trialdata import OS, PFS, Snapshot, observe, snapshot

TOL = 1e-12


def two_arm_records(items, n_ref=None):
    """Snapshot from (arm, x_pfs, d_pfs, x_os, d_os) rows at a fixed time."""
    arm, x_pfs, d_pfs, x_os, d_os = (np.array(col) for col in zip(*items))
    n = len(items)
    return Snapshot(calendar_time=100.0, arm=arm.astype(np.int8),
                    entry=np.zeros(n), x_pfs=x_pfs.astype(float),
                    d_pfs=d_pfs.astype(bool), x_os=x_os.astype(float),
                    d_os=d_os.astype(bool), index=np.arange(n),
                    n_ref=n if n_ref is None else n_ref)


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


def test_block_rows_match_the_oracles_whatever_their_padding():
    # blocks of micro cohorts of 2 to 12 patients, padded to one width by
    # arm-1 patients who never enter, each row at its own pair of cutoffs:
    # every row's scores, variances and cross covariances are the oracles',
    # and, ties and all, bit for bit those of its snapshots alone
    rng = np.random.default_rng(515)
    never = (1, np.inf, 1.0, 1.0, 64.0)
    for _ in range(20):
        cohorts = [micro_patients(rng) for _ in range(6)]
        cuts = [micro_cutoffs(rng) for _ in cohorts]
        width = max(map(len, cohorts)) + int(rng.integers(0, 3))
        block = Cohort.stack(
            cohort_from_patients(p + [never] * (width - len(p)))
            for p in cohorts)
        n_ref = np.array([len(p) for p in cohorts])
        results, matrix = joint_covariance(
            InterimCurves.of(observe(block, [c[0] for c in cuts])),
            observe(block, [c[1] for c in cuts]), n_ref)
        for i, (patients, (t1, t2)) in enumerate(zip(cohorts, cuts)):
            for res, (t, endpoint) in zip(results, ((t1, PFS), (t1, OS),
                                                    (t2, PFS), (t2, OS))):
                u, var = oracles.logrank_score(
                    oracles.observe(patients, t, endpoint), len(patients))
                assert res.u[i] == pytest.approx(u, abs=TOL)
                assert res.var[i] == pytest.approx(var, abs=TOL)
            for (a, b), (ta, tb) in (((0, 1), (t1, t1)), ((0, 3), (t1, t2)),
                                     ((1, 2), (t2, t1)), ((2, 3), (t2, t2))):
                assert matrix[i, a, b] == pytest.approx(
                    oracles.cross_covariance(patients, ta, tb), abs=TOL)
            cohort = cohort_from_patients(patients)
            _, alone = joint_covariance(
                InterimCurves.of(snapshot(cohort, t1).block()),
                snapshot(cohort, t2).block(), len(patients))
            assert alone[0].tobytes() == matrix[i].tobytes()


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
    assert est.corr[0, 1] == pytest.approx(
        m[0, 1] * scale[0] * scale[1], abs=TOL)
    assert not est.clamped

    # every cross entry is the oracle's, on all micro datasets whose four
    # variances are positive
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(200):
        patients = micro_patients(rng)
        cohort = cohort_from_patients(patients)
        t1, t2 = micro_cutoffs(rng)
        s1, s2 = snapshot(cohort, t1), snapshot(cohort, t2)
        if min(logrank(s, e).var for s in (s1, s2) for e in (PFS, OS)) == 0.0:
            continue
        m = covariance_matrix(s1, s2).matrix
        for (i, j), (ta, tb) in (((0, 1), (t1, t1)), ((0, 3), (t1, t2)),
                                 ((1, 2), (t2, t1)), ((2, 3), (t2, t2))):
            assert m[i, j] == pytest.approx(
                oracles.cross_covariance(patients, ta, tb), abs=TOL)
        checked += 1
    assert checked >= 50


def test_empty_snapshot_has_zero_statistics():
    # nobody has entered at the first snapshot: every curve is empty
    patients = [(0, 1.0, 0.5, 1.0, 64.0), (1, 1.0, 0.25, 0.75, 64.0),
                (0, 2.0, 0.5, 0.5, 64.0), (1, 2.0, 1.0, 2.0, 64.0)]
    cohort = cohort_from_patients(patients)
    empty, later = snapshot(cohort, 0.5), snapshot(cohort, 4.0)
    assert len(empty) == 0
    for endpoint in (PFS, OS):
        res = logrank(empty, endpoint)
        assert (res.u, res.var, res.n_events) == (0.0, 0.0, 0)
        assert logrank(later, endpoint).n_events > 0
    assert cross_covariance(empty, empty) == 0.0
    assert cross_covariance(empty, later) == 0.0
    assert cross_covariance(later, empty) == 0.0


def test_equal_analysis_times_hit_correlation_clamp():
    # interim == final: same-endpoint cross-time correlation is exactly 1
    # (cov = earlier variance = both variances) and gets clamped
    items = [(0, 1.0, 1, 1.0, 1), (1, 2.0, 1, 2.0, 1),
             (0, 3.0, 1, 3.0, 1), (1, 4.0, 0, 4.0, 0)]
    snap = two_arm_records(items)
    est = covariance_matrix(snap, snap)
    assert est.clamped
    assert est.corr[0, 2] == CORRELATION_CLAMP
    assert est.corr[1, 3] == CORRELATION_CLAMP
    assert est.matrix[0, 2] == est.matrix[0, 0]
    # the two endpoints stay distinct estimators even on identical data: the
    # residual product form need not equal the hypergeometric variance
    assert est.corr[0, 1] < 1.0


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


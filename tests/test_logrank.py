"""Log-rank scores, residual covariances and the joint 4x4 estimator.

The heavy lifting is equivalence with the brute-force double-loop oracles in
``oracles.py`` on hundreds of tiny datasets full of ties; everything else is
hand-checkable examples and structural identities.  Every check runs the
block functions, a single trial as a block of one.
"""

import numpy as np
import pytest

import oracles
from conftest import (cohort_from_patients, micro_cutoffs, micro_patients,
                      one_trial)
from duosurv.errors import DegenerateVariance
from duosurv.logrank import (
    CORRELATION_CLAMP,
    InterimCurves,
    correlation,
    joint_covariance,
)
from duosurv.multistate import Cohort
from duosurv.trialdata import OS, PFS, observe

TOL = 1e-12


def two_arm_records(items, n_ref=None):
    """Results and covariance of (arm, x_pfs, d_pfs, x_os, d_os) rows, both
    cutoffs at calendar time 100.  The rows are patients entered at 0 whose
    censored endpoints are censored by drop-out, so a row with an OS event
    has a PFS event and a row censored on both has one time."""
    patients = []
    for arm, x_pfs, d_pfs, x_os, d_os in items:
        assert d_pfs >= d_os and (d_pfs or x_pfs == x_os)
        dropout = 64.0 if d_os else x_os
        patients.append((arm, 0.0, x_pfs if d_pfs else dropout + 1.0,
                         x_os if d_os else dropout + 1.0, dropout))
    return one_trial(cohort_from_patients(patients), 100.0, 100.0, n_ref)


def cross_pairs(t1, t2):
    """Each cross-endpoint entry of the 4x4 matrix of cutoffs ``t1`` and
    ``t2``, with its (PFS time, OS time)."""
    return (((0, 1), (t1, t1)), ((0, 3), (t1, t2)), ((2, 1), (t2, t1)),
            ((2, 3), (t2, t2)))


def test_scores_match_oracle_on_micro_datasets():
    rng = np.random.default_rng(4242)
    for _ in range(250):
        patients = micro_patients(rng)
        cohort = cohort_from_patients(patients)
        t1, t2 = micro_cutoffs(rng)
        results, _ = one_trial(cohort, t1, t2)
        for got, (t, endpoint) in zip(results, ((t1, PFS), (t1, OS),
                                                (t2, PFS), (t2, OS))):
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
        _, m = one_trial(cohort, t1, t2)
        for (i, j), (ta, tb) in cross_pairs(t1, t2):
            want = oracles.cross_covariance(patients, ta, tb)
            assert m[i, j] == pytest.approx(want, abs=TOL)


def test_block_rows_match_the_oracles_whatever_their_padding():
    # blocks of micro cohorts of 2 to 12 patients, padded to one width by
    # arm-1 patients who never enter, each row at its own pair of cutoffs:
    # every row's scores, variances and cross covariances are the oracles',
    # and, ties and all, bit for bit those of its cohort alone
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
            for (a, b), (ta, tb) in cross_pairs(t1, t2):
                assert matrix[i, a, b] == pytest.approx(
                    oracles.cross_covariance(patients, ta, tb), abs=TOL)
            _, alone = one_trial(cohort_from_patients(patients), t1, t2)
            assert alone.tobytes() == matrix[i].tobytes()


def test_two_patient_hand_example():
    (res, *_), _ = two_arm_records([(0, 1.0, 1, 1.0, 1), (1, 2.0, 1, 2.0, 1)])
    # event at t=1: Y=2, Y1=1, arm-0 term 0 - 1/2; event at t=2: Y=Y1=1, term 0
    assert res.u == pytest.approx(-0.5 / np.sqrt(2.0), abs=TOL)
    assert res.var == pytest.approx(0.25 / 2.0, abs=TOL)
    assert res.n_events == 2
    assert res.z == pytest.approx(res.u / np.sqrt(res.var))

    (res_sw, *_), _ = two_arm_records([(1, 1.0, 1, 1.0, 1),
                                       (0, 2.0, 1, 2.0, 1)])
    assert res_sw.u == pytest.approx(-res.u, abs=TOL)
    assert res_sw.var == pytest.approx(res.var, abs=TOL)


def test_tied_events_share_one_jump():
    (res, *_), m = two_arm_records([
        (0, 1.0, 1, 1.0, 1),
        (1, 1.0, 1, 1.0, 1),
        (0, 2.0, 0, 2.0, 0),
    ])
    # both tied events see the full risk set: Y=3, Y1=1
    assert res.u == pytest.approx((1.0 / 3.0) / np.sqrt(3.0), abs=TOL)
    assert res.var == pytest.approx(2.0 * (2.0 / 9.0) / 3.0, abs=TOL)
    # one hazard jump of 2/3 at t=1 gives residuals 1/9, 2/9 and -2/9
    assert m[0, 1] == pytest.approx(1.0 / 27.0, abs=TOL)


def test_no_events_gives_degenerate_statistic():
    (res, *_), m = two_arm_records([(0, 1.0, 0, 1.0, 0),
                                    (1, 2.0, 0, 2.0, 0)])
    assert res.u == 0.0
    assert res.var == 0.0
    assert np.isnan(res.z)
    assert m[0, 1] == 0.0


def test_arm_swap_negates_score_many():
    rng = np.random.default_rng(55)
    for _ in range(80):
        patients = micro_patients(rng)
        flipped = [(1 - a, e, tp, to, dr) for a, e, tp, to, dr in patients]
        t, _ = micro_cutoffs(rng)
        # OS at t
        a = one_trial(cohort_from_patients(patients), t, t)[0][1]
        b = one_trial(cohort_from_patients(flipped), t, t)[0][1]
        assert b.u == pytest.approx(-a.u, abs=TOL)
        assert b.var == pytest.approx(a.var, abs=TOL)


def test_zero_exposure_patient_changes_nothing():
    base = [(0, 1.0, 1, 2.0, 1), (1, 2.0, 1, 3.0, 0), (0, 1.5, 0, 1.5, 0),
            (1, 1.0, 1, 2.5, 1)]
    with_extra = base + [(1, 0.0, 0, 0.0, 0)]
    results_a, m_a = two_arm_records(base, n_ref=5)
    results_b, m_b = two_arm_records(with_extra, n_ref=5)
    for ra, rb in zip(results_a[:2], results_b[:2]):
        assert rb.u == pytest.approx(ra.u, abs=TOL)
        assert rb.var == pytest.approx(ra.var, abs=TOL)
    assert m_b[0, 1] == pytest.approx(m_a[0, 1], abs=TOL)


def test_record_order_invariance():
    rng = np.random.default_rng(7)
    patients = micro_patients(rng, n=10)
    t, _ = micro_cutoffs(rng)
    perm = rng.permutation(len(patients))
    shuffled = [patients[i] for i in perm]
    a = one_trial(cohort_from_patients(patients), t, t)[0][0]
    b = one_trial(cohort_from_patients(shuffled), t, t)[0][0]
    assert b.u == pytest.approx(a.u, abs=TOL)
    assert b.var == pytest.approx(a.var, abs=TOL)


def test_covariance_matrix_layout_and_symmetry():
    rng = np.random.default_rng(101)
    patients = micro_patients(rng, n=12)
    cohort = cohort_from_patients(patients)
    t1, t2 = 1.25, 3.25
    _, m = one_trial(cohort, t1, t2)
    corr, clamped, _ = correlation(m[None])
    # PFS and OS at each cutoff alone, through the final-cutoff curves
    (_, _, p1, o1), _ = one_trial(cohort, t1, t1)
    (_, _, p2, o2), _ = one_trial(cohort, t2, t2)
    assert m.shape == (4, 4)
    assert np.array_equal(m, m.T)
    # same-endpoint cross-time entries equal the earlier variance exactly
    assert m[0, 2] == p1.var
    assert m[1, 3] == o1.var
    assert m[0, 0] == p1.var
    assert m[2, 2] == p2.var
    assert m[3, 3] == o2.var
    for (i, j), (ta, tb) in cross_pairs(t1, t2):
        assert m[i, j] == pytest.approx(
            oracles.cross_covariance(patients, ta, tb), abs=TOL)
    assert np.all(np.diag(corr[0]) == 1.0)
    assert np.all(np.abs(corr[0]) <= 1.0)
    scale = 1.0 / np.sqrt(np.diag(m))
    assert corr[0, 0, 1] == pytest.approx(
        m[0, 1] * scale[0] * scale[1], abs=TOL)
    assert not clamped[0]

    # every cross entry is the oracle's, on all micro datasets whose four
    # variances are positive
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(200):
        patients = micro_patients(rng)
        cohort = cohort_from_patients(patients)
        t1, t2 = micro_cutoffs(rng)
        results, m = one_trial(cohort, t1, t2)
        if min(r.var for r in results) == 0.0:
            continue
        for (i, j), (ta, tb) in cross_pairs(t1, t2):
            assert m[i, j] == pytest.approx(
                oracles.cross_covariance(patients, ta, tb), abs=TOL)
        checked += 1
    assert checked >= 50


def test_empty_snapshot_has_zero_statistics():
    # nobody has entered at the first cutoff: every curve there is empty
    patients = [(0, 1.0, 0.5, 1.0, 64.0), (1, 1.0, 0.25, 0.75, 64.0),
                (0, 2.0, 0.5, 0.5, 64.0), (1, 2.0, 1.0, 2.0, 64.0)]
    cohort = cohort_from_patients(patients)
    assert not observe(Cohort.stack([cohort]), [0.5]).present.any()
    results, m = one_trial(cohort, 0.5, 4.0)
    for empty, later in zip(results[:2], results[2:]):
        assert (empty.u, empty.var, empty.n_events) == (0.0, 0.0, 0)
        assert later.n_events > 0
    # (empty, empty), (empty, later) and (later, empty)
    assert (m[0, 1], m[0, 3], m[2, 1]) == (0.0, 0.0, 0.0)


def test_equal_analysis_times_hit_correlation_clamp():
    # interim == final: same-endpoint cross-time correlation is exactly 1
    # (cov = earlier variance = both variances) and gets clamped
    items = [(0, 1.0, 1, 1.0, 1), (1, 2.0, 1, 2.0, 1),
             (0, 3.0, 1, 3.0, 1), (1, 4.0, 0, 4.0, 0)]
    _, m = two_arm_records(items)
    corr, clamped, _ = correlation(m[None])
    assert clamped[0]
    assert corr[0, 0, 2] == CORRELATION_CLAMP
    assert corr[0, 1, 3] == CORRELATION_CLAMP
    assert m[0, 2] == m[0, 0]
    # the two endpoints stay distinct estimators even on identical data: the
    # residual product form need not equal the hypergeometric variance
    assert corr[0, 0, 1] < 1.0


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
    _, m = one_trial(cohort, 2.0, 102.0)
    (corr,), (clamped,), _ = correlation(m[None])
    d = 1.0 / np.sqrt(np.diag(m))
    raw = m * d[:, None] * d[None, :]
    assert np.linalg.eigvalsh(raw).min() < -1e-3
    assert clamped
    assert np.linalg.eigvalsh(corr).min() >= -1e-10
    assert np.all(np.diag(corr) == 1.0)
    assert np.all(np.abs(corr) <= 1.0 + 1e-12)
    # the raw covariance itself is reported unadjusted: PFS at 2.0 alone
    assert m[0, 2] == one_trial(cohort, 2.0, 2.0)[0][2].var


def test_covariance_matrix_errors():
    # interim with zero OS events: a degenerate diagonal, no correlation
    early = cohort_from_patients([(0, 0.0, 0.5, 9.0, 64.0),
                                  (1, 0.0, 0.5, 9.0, 64.0)])
    _, m = one_trial(early, 1.0, 10.0)
    corr, clamped, errors = correlation(m[None])
    assert isinstance(errors[0], DegenerateVariance)
    assert np.isnan(corr).all() and not clamped[0]

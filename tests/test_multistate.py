"""Simulator behaviour: entry grid, path laws, frailty coupling, validation."""

import numpy as np
import pytest

from duosurv.errors import InvalidModel
from duosurv.multistate import (
    ArmModel,
    DropoutSpec,
    FrailtySpec,
    RecruitmentSpec,
    TransitionIntensities,
    effective_intensities,
    simulate_cohort,
)

GOOD = TransitionIntensities(0.06, 0.30, 0.30)
BAD = TransitionIntensities(0.10, 0.40, 0.30)


def same_both_arms(lam: TransitionIntensities) -> ArmModel:
    return ArmModel(control=lam, experimental_target=lam, weight=1.0)


def test_entry_grid_is_interleaved_and_deterministic():
    rec = RecruitmentSpec(per_arm_rate=25.0, max_per_arm=64)
    cohort = simulate_cohort(same_both_arms(GOOD), rec, DropoutSpec(0.0),
                             FrailtySpec(), seed=3)
    assert len(cohort) == 128
    assert list(cohort.arm[:4]) == [0, 1, 0, 1]
    grid = np.repeat(np.arange(64) / 25.0, 2)
    assert np.array_equal(cohort.entry, grid)
    # last pair enters at 63/25
    assert cohort.entry[-1] == pytest.approx(2.52)


def test_branch_probability_and_mean_sojourn():
    # With identical intensities on both arms every patient leaves state 0 at
    # rate 0.36 and progresses with probability 0.06 / 0.36.
    rec = RecruitmentSpec(per_arm_rate=1.0, max_per_arm=60_000)
    cohort = simulate_cohort(same_both_arms(GOOD), rec, DropoutSpec(0.0),
                             FrailtySpec(), seed=11)
    n = len(cohort)
    p = 0.06 / 0.36
    phat = cohort.progressed.mean()
    assert abs(phat - p) < 4.0 * np.sqrt(p * (1 - p) / n)
    mean = 1.0 / 0.36
    assert abs(cohort.t_pfs.mean() - mean) < 4.0 * mean / np.sqrt(n)


def test_os_equals_pfs_exactly_when_not_progressed():
    rec = RecruitmentSpec(per_arm_rate=5.0, max_per_arm=2000)
    cohort = simulate_cohort(ArmModel(BAD, GOOD, weight=1.0), rec,
                             DropoutSpec(0.1), FrailtySpec(), seed=5)
    assert np.all(cohort.t_os >= cohort.t_pfs)
    strict = cohort.t_os > cohort.t_pfs
    assert np.array_equal(strict, cohort.progressed)
    assert 0 < cohort.progressed.sum() < len(cohort)


def test_frailty_divides_event_times_and_nothing_else():
    rec = RecruitmentSpec(per_arm_rate=25.0, max_per_arm=400)
    base = simulate_cohort(ArmModel(BAD, GOOD), rec, DropoutSpec(0.05),
                           FrailtySpec(enabled=False), seed=17, replication=9)
    frail = simulate_cohort(ArmModel(BAD, GOOD), rec, DropoutSpec(0.05),
                            FrailtySpec(enabled=True), seed=17, replication=9)
    # The base path consumes a fixed block of uniforms, so enabling the
    # frailty leaves everything except the event times untouched.
    assert np.array_equal(base.arm, frail.arm)
    assert np.array_equal(base.entry, frail.entry)
    assert np.array_equal(base.dropout, frail.dropout)
    assert np.array_equal(base.progressed, frail.progressed)
    assert np.all(base.frailty == 1.0)
    assert np.all(frail.frailty > 0.0)
    assert np.array_equal(frail.t_pfs, base.t_pfs / frail.frailty)
    assert np.array_equal(frail.t_os, base.t_os / frail.frailty)
    # Gamma(10, 1/10): mean 1, variance 0.1.
    n = len(frail)
    assert abs(frail.frailty.mean() - 1.0) < 4.0 * np.sqrt(0.1 / n)


def test_replication_is_addressable_not_sequential():
    rec = RecruitmentSpec(per_arm_rate=25.0, max_per_arm=50)
    kwargs = dict(model=same_both_arms(GOOD), recruitment=rec,
                  dropout=DropoutSpec(0.01), frailty=FrailtySpec(), seed=123)
    a = simulate_cohort(replication=5, **kwargs)
    b = simulate_cohort(replication=5, **kwargs)
    c = simulate_cohort(replication=6, **kwargs)
    assert np.array_equal(a.t_os, b.t_os)
    assert np.array_equal(a.dropout, b.dropout)
    assert not np.array_equal(a.t_os, c.t_os)


def test_effective_intensities_interpolation():
    model = ArmModel(control=BAD, experimental_target=GOOD, weight=1.0)
    assert effective_intensities(model, 0) == BAD
    assert effective_intensities(model, 1) == GOOD

    half = ArmModel(control=BAD, experimental_target=GOOD, weight=0.5)
    lam = effective_intensities(half, 1)
    assert lam.lambda_01 == pytest.approx(0.08)
    assert lam.lambda_02 == pytest.approx(0.35)
    assert lam.lambda_12 == pytest.approx(0.30)

    none = ArmModel(control=BAD, experimental_target=GOOD, weight=0.0)
    assert effective_intensities(none, 1) == BAD

    with pytest.raises(InvalidModel):
        effective_intensities(model, 2)


def test_zero_dropout_rate_means_no_censoring():
    rec = RecruitmentSpec(per_arm_rate=10.0, max_per_arm=20)
    cohort = simulate_cohort(same_both_arms(GOOD), rec, DropoutSpec(0.0),
                             FrailtySpec(), seed=1)
    assert np.all(np.isinf(cohort.dropout))


@pytest.mark.parametrize("bad_spec", [
    TransitionIntensities(-0.1, 0.3, 0.3),
    TransitionIntensities(0.0, 0.0, 0.3),
])
def test_intensity_validation(bad_spec):
    with pytest.raises(InvalidModel):
        bad_spec.validate()


def test_model_and_spec_validation():
    with pytest.raises(InvalidModel):
        ArmModel(GOOD, BAD, weight=1.5).validate()
    with pytest.raises(InvalidModel):
        RecruitmentSpec(per_arm_rate=0.0, max_per_arm=10).validate()
    with pytest.raises(InvalidModel):
        RecruitmentSpec(per_arm_rate=1.0, max_per_arm=0).validate()
    with pytest.raises(InvalidModel):
        DropoutSpec(rate=-0.1).validate()
    with pytest.raises(InvalidModel):
        FrailtySpec(enabled=True, shape=0.0).validate()
    # disabled frailty never looks at its parameters
    FrailtySpec(enabled=False, shape=0.0).validate()


def test_cohort_indexing_and_restriction():
    rec = RecruitmentSpec(per_arm_rate=2.0, max_per_arm=6)
    cohort = simulate_cohort(same_both_arms(GOOD), rec, DropoutSpec(0.2),
                             FrailtySpec(), seed=2)
    sub = cohort.restricted_to(cohort.arm == 1)
    assert len(sub) == 6
    assert np.all(sub.arm == 1)

"""Simulator behaviour: entry grid, path laws, frailty coupling, validation."""

from dataclasses import replace

import numpy as np
import pytest

from duosurv.errors import InvalidModel
from duosurv.multistate import (
    CohortModel,
    FrailtySpec,
    TransitionIntensities,
    _rng_for_replication,
    simulate_cohorts,
)

GOOD = TransitionIntensities(0.06, 0.30, 0.30)
BAD = TransitionIntensities(0.10, 0.40, 0.30)


def model(**overrides) -> CohortModel:
    """GOOD on both arms, 25 patients per arm and time unit, no drop-out."""
    base = CohortModel(control=GOOD, experimental=GOOD, per_arm_rate=25.0,
                       max_per_arm=64)
    return replace(base, **overrides)


def simulate(m, seed, replication=0):
    """The cohort of one replication: the row of its block of one."""
    return simulate_cohorts(m, seed, [replication]).restricted_to(0)


def test_entry_grid_is_interleaved_and_deterministic():
    cohort = simulate(model(), seed=3)
    assert len(cohort) == 128
    assert list(cohort.arm[:4]) == [0, 1, 0, 1]
    grid = np.repeat(np.arange(64) / 25.0, 2)
    assert np.array_equal(cohort.entry, grid)
    # last pair enters at 63/25
    assert cohort.entry[-1] == pytest.approx(2.52)


def test_branch_probability_and_mean_sojourn():
    # With identical intensities on both arms every patient leaves state 0 at
    # rate 0.36 and progresses with probability 0.06 / 0.36.
    cohort = simulate(model(per_arm_rate=1.0, max_per_arm=60_000), seed=11)
    n = len(cohort)
    p = 0.06 / 0.36
    phat = (cohort.t_os > cohort.t_pfs).mean()
    assert abs(phat - p) < 4.0 * np.sqrt(p * (1 - p) / n)
    mean = 1.0 / 0.36
    assert abs(cohort.t_pfs.mean() - mean) < 4.0 * mean / np.sqrt(n)


def test_os_equals_pfs_exactly_when_not_progressed():
    cohort = simulate(model(control=BAD, per_arm_rate=5.0, max_per_arm=2000,
                            dropout_rate=0.1), seed=5)
    assert np.all(cohort.t_os >= cohort.t_pfs)
    # the branch uniform (column 1) decides progression against the share
    # lambda_01 / (lambda_01 + lambda_02) of the patient's arm
    u = _rng_for_replication(5, 0).random((len(cohort), 4))
    share = np.where(cohort.arm == 0,
                     BAD.lambda_01 / (BAD.lambda_01 + BAD.lambda_02),
                     GOOD.lambda_01 / (GOOD.lambda_01 + GOOD.lambda_02))
    progressed = u[:, 1] < share
    assert np.array_equal(cohort.t_os > cohort.t_pfs, progressed)
    assert 0 < progressed.sum() < len(cohort)


def test_frailty_divides_event_times_and_nothing_else():
    common = dict(control=BAD, max_per_arm=400, dropout_rate=0.05)
    base = simulate(model(**common), seed=17, replication=9)
    frail = simulate(model(frailty=FrailtySpec(), **common), seed=17,
                     replication=9)
    # The base path consumes a fixed block of uniforms, so enabling the
    # frailty leaves everything except the event times untouched.
    assert np.array_equal(base.arm, frail.arm)
    assert np.array_equal(base.entry, frail.entry)
    assert np.array_equal(base.dropout, frail.dropout)
    assert np.array_equal(base.t_os > base.t_pfs, frail.t_os > frail.t_pfs)
    # the gamma variates follow the (n, 4) block of uniforms in the stream
    n = len(frail)
    rng = _rng_for_replication(17, 9)
    rng.random((n, 4))
    gamma = rng.gamma(shape=10.0, scale=0.1, size=n)
    assert np.all(gamma > 0.0)
    assert np.array_equal(frail.t_pfs, base.t_pfs / gamma)
    assert np.array_equal(frail.t_os, base.t_os / gamma)
    # Gamma(10, 1/10): mean 1, variance 0.1.
    assert abs(gamma.mean() - 1.0) < 4.0 * np.sqrt(0.1 / n)


def test_replication_is_addressable_not_sequential():
    m = model(max_per_arm=50, dropout_rate=0.01)
    a = simulate(m, seed=123, replication=5)
    b = simulate(m, seed=123, replication=5)
    c = simulate(m, seed=123, replication=6)
    assert np.array_equal(a.t_os, b.t_os)
    assert np.array_equal(a.dropout, b.dropout)
    assert not np.array_equal(a.t_os, c.t_os)


def test_zero_dropout_rate_means_no_censoring():
    cohort = simulate(model(per_arm_rate=10.0, max_per_arm=20), seed=1)
    assert np.all(np.isinf(cohort.dropout))


@pytest.mark.parametrize("bad_spec", [
    (-0.1, 0.3, 0.3),
    (0.0, 0.0, 0.3),
    (np.nan, 0.1, 0.1),
    (0.1, np.nan, 0.1),
    (0.1, 0.1, np.nan),
    (np.inf, 0.1, 0.1),
    (0.1, 0.1, np.inf),
    (1e308, 1e308, 0.1),
])
def test_intensity_validation(bad_spec):
    with pytest.raises(InvalidModel):
        TransitionIntensities(*bad_spec)


def test_model_and_spec_validation():
    # every check runs when the value is built, so no invalid model exists
    for build, message in [
            (lambda: TransitionIntensities(-0.1, 0.3, 0.3), "non-negative"),
            (lambda: TransitionIntensities(0.0, 0.0, 0.3),
             "positive exit intensity"),
            (lambda: model(per_arm_rate=0.0),
             "recruitment rate must be positive"),
            (lambda: model(max_per_arm=0), "need at least one patient per arm"),
            (lambda: model(dropout_rate=-0.1),
             "drop-out rate must be non-negative"),
            (lambda: FrailtySpec(shape=0.0),
             "frailty shape and rate must be positive"),
            (lambda: FrailtySpec(rate=-1.0),
             "frailty shape and rate must be positive"),
            # a nan passes every comparison-based range check
            (lambda: TransitionIntensities(np.nan, 0.1, 0.1),
             "transition intensities must be finite"),
            # finite rates whose sum, the exit intensity of state 0, is not
            (lambda: TransitionIntensities(1e308, 1e308, 0.1),
             "state 0 exit intensity must be finite"),
            (lambda: model(per_arm_rate=np.nan), "recruitment rate must be finite"),
            (lambda: model(per_arm_rate=np.inf), "recruitment rate must be finite"),
            (lambda: model(max_per_arm=np.nan), "patients per arm must be finite"),
            (lambda: model(dropout_rate=np.nan), "drop-out rate must be finite"),
            (lambda: model(dropout_rate=np.inf), "drop-out rate must be finite"),
            (lambda: FrailtySpec(shape=np.nan),
             "frailty shape and rate must be finite"),
            (lambda: FrailtySpec(rate=np.inf),
             "frailty shape and rate must be finite")]:
        with pytest.raises(InvalidModel, match=message):
            build()
    # no frailty is None, the default
    assert model().frailty is None
    assert model(frailty=None).frailty is None


def test_vanishing_rates_mean_never_without_warnings():
    # times that overflow are +inf, "never"; the suite turns a numpy
    # RuntimeWarning into an error
    slow = model(control=TransitionIntensities(0.06, 0.30, 1.0e-310),
                 dropout_rate=1.0e-310)
    cohort = simulate(slow, seed=4)
    assert np.all(cohort.dropout > 1.0e300)
    assert np.isinf(cohort.dropout).any()
    progressed = (cohort.arm == 0) & (cohort.t_os > cohort.t_pfs)
    assert np.all(cohort.t_os[progressed] > 1.0e300)
    assert np.isinf(cohort.t_os[progressed]).any()


def test_huge_progression_rate_progresses_at_once_without_warnings():
    # the exit intensity 1e308 + 0 is finite: every patient progresses
    fast = TransitionIntensities(1e308, 0.0, 0.1)
    cohort = simulate(model(control=fast, experimental=fast), seed=4)
    assert np.all(cohort.t_os > cohort.t_pfs)


def test_vanishing_recruitment_rate_means_never_entered():
    cohort = simulate(model(per_arm_rate=1.0e-310, max_per_arm=4), seed=4)
    assert np.array_equal(cohort.entry[:2], [0.0, 0.0])
    assert np.all(np.isinf(cohort.entry[2:]))


def test_zero_frailty_draws_mean_never():
    frail = model(frailty=FrailtySpec(shape=1.0e-300, rate=1.0), max_per_arm=8)
    cohort = simulate(frail, seed=4)
    assert np.all(np.isinf(cohort.t_pfs))
    assert np.all(np.isinf(cohort.t_os))


def test_distinct_seeds_draw_distinct_cohorts():
    # the key goes to Philox as uint64: seeds at or above 2**63 and negative
    # seeds (taken mod 2**64) keep their low bits
    m = model(max_per_arm=8)
    for a, b in ((-5, -6), (2**63, 2**63 + 1)):
        assert not np.array_equal(simulate(m, a).t_pfs, simulate(m, b).t_pfs)
    assert np.array_equal(simulate(m, -1).t_pfs, simulate(m, 2**64 - 1).t_pfs)


def test_cohort_indexing_and_restriction():
    cohort = simulate(model(per_arm_rate=2.0, max_per_arm=6,
                            dropout_rate=0.2), seed=2)
    sub = cohort.restricted_to(cohort.arm == 1)
    assert len(sub) == 6
    assert np.all(sub.arm == 1)

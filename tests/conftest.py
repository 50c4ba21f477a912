"""Shared builders for the test suite.

Micro datasets use dyadic time grids (multiples of 0.25) so that calendar
sums like ``entry + t`` are exact in binary and boundary comparisons at
cutoffs behave identically in the package and in the brute-force oracles.
The grids carry heavy tie mass on purpose.
"""

from dataclasses import fields

import numpy as np

from duosurv.logrank import InterimCurves, joint_covariance
from duosurv.multistate import Cohort
from duosurv.trialdata import observe

MICRO_ENTRY_GRID = (0.0, 0.5, 1.0, 2.0)
MICRO_TIME_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
MICRO_GAP_GRID = (0.0, 0.0, 0.25, 0.5, 1.0, 2.0)
MICRO_DROPOUT_GRID = (0.5, 1.0, 1.75, 64.0, 64.0, 64.0)


def micro_patients(rng, n=None):
    """Small random patient list ``(arm, entry, t_pfs, t_os, dropout)``.

    Both arms are always present; progression-free deaths (t_pfs == t_os)
    occur with positive probability via the zero gap entries.
    """
    n = int(rng.integers(2, 13)) if n is None else n
    while True:
        arm = rng.integers(0, 2, size=n)
        if n == 1 or arm.min() != arm.max():
            break
    entry = rng.choice(MICRO_ENTRY_GRID, size=n)
    t_pfs = rng.choice(MICRO_TIME_GRID, size=n)
    t_os = t_pfs + rng.choice(MICRO_GAP_GRID, size=n)
    dropout = rng.choice(MICRO_DROPOUT_GRID, size=n)
    return [(int(arm[i]), float(entry[i]), float(t_pfs[i]), float(t_os[i]),
             float(dropout[i])) for i in range(n)]


def micro_cutoffs(rng):
    """A pair of calendar times with assorted spreads, on the dyadic grid."""
    t1 = float(rng.choice((0.75, 1.25, 2.0, 3.0)))
    t2 = t1 + float(rng.choice((0.5, 1.0, 4.0, 100.0)))
    return t1, t2


def cohort_from_patients(patients) -> Cohort:
    data = np.asarray([p[:5] for p in patients], dtype=float)
    return Cohort(arm=data[:, 0].astype(int), entry=data[:, 1],
                  t_pfs=data[:, 2], t_os=data[:, 3], dropout=data[:, 4])


def one_trial(cohort, t1, t2, n_ref=None):
    """Log-rank results of (PFS@t1, OS@t1, PFS@t2, OS@t2), each field an
    array of one entry, and their 4x4 joint covariance, of one cohort
    observed at ``t1`` and ``t2`` as a block of one; ``n_ref`` defaults to
    the cohort size."""
    block = Cohort.stack([cohort])
    results, matrix = joint_covariance(
        InterimCurves.of(observe(block, [t1])), observe(block, [t2]),
        len(cohort) if n_ref is None else n_ref)
    return results, matrix[0]


def factors(outcomes, i=0):
    """The inflation factors trial ``i`` of a procedure's ``Outcomes``
    computed; the others are nan there and left out."""
    return {k: v[i] for k, v in outcomes.inflation_factors.items()
            if not np.isnan(v[i])}


def trial_row(outcomes, i=0):
    """Trial ``i`` of a procedure's ``Outcomes``: the procedure, its entry
    of every decision array and the factors it computed, to compare
    trials of different blocks."""
    return (outcomes.procedure,
            *(getattr(outcomes, f.name)[i] for f in fields(outcomes)
              if isinstance(getattr(outcomes, f.name), np.ndarray)),
            factors(outcomes, i))

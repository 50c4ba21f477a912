"""Illness-death model simulation for two-endpoint survival trials.

Patients move through three states: stable disease (0), progression (1) and
death (2).  Transitions 0->1, 0->2 and 1->2 carry constant intensities, so
sojourn times are exponential.  Progression-free survival is the waiting time
in state 0, overall survival the waiting time until state 2.

One :class:`CohortModel` fixes everything a cohort is drawn from: the
intensities of the control arm (0) and the experimental arm (1), a
deterministic staggered entry grid, an exponential drop-out hazard and an
optional gamma frailty.  Each value checks itself when it is built and
raises :class:`InvalidModel`, so an invalid model cannot exist.  The
frailty multiplies all three intensities of a patient, which is equivalent
to dividing that patient's event times by the frailty draw; entry and
drop-out are not affected by it.  :func:`simulate_cohorts` draws a block
of cohorts, one row per replication, each from its own random stream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel

__all__ = [
    "TransitionIntensities",
    "FrailtySpec",
    "CohortModel",
    "Cohort",
    "simulate_cohorts",
]

# Number of uniforms consumed per patient for the base path, in draw order:
# state-0 sojourn, progression-vs-death branch, state-1 sojourn, drop-out.
_DRAWS_PER_PATIENT = 4


def _check_finite(what: str, *values) -> None:
    """Raise :class:`InvalidModel` unless every value is finite: a nan fails
    every comparison, so a range check alone would let it through."""
    if not all(-math.inf < v < math.inf for v in values):
        raise InvalidModel(f"{what} must be finite")


def _check_integer(what: str, *values) -> None:
    """Raise :class:`InvalidModel` unless every value is an integer (numpy
    integers count, bools do not), as the counts size and index arrays."""
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
               for v in values):
        raise InvalidModel(f"{what} must be integers")


@dataclass(frozen=True)
class TransitionIntensities:
    """Constant intensities of the three illness-death transitions."""

    lambda_01: float
    lambda_02: float
    lambda_12: float

    def __post_init__(self):
        _check_finite("transition intensities",
                      self.lambda_01, self.lambda_02, self.lambda_12)
        if min(self.lambda_01, self.lambda_02, self.lambda_12) < 0.0:
            raise InvalidModel("transition intensities must be non-negative")
        _check_finite("state 0 exit intensity", self.lambda_01 + self.lambda_02)
        if self.lambda_01 + self.lambda_02 <= 0.0:
            raise InvalidModel("state 0 must have a positive exit intensity")

    def toward(self, target: "TransitionIntensities",
               weight: float) -> "TransitionIntensities":
        """Intensities ``weight`` of the way from these to ``target``."""
        return TransitionIntensities(
            self.lambda_01 + weight * (target.lambda_01 - self.lambda_01),
            self.lambda_02 + weight * (target.lambda_02 - self.lambda_02),
            self.lambda_12 + weight * (target.lambda_12 - self.lambda_12))


@dataclass(frozen=True)
class FrailtySpec:
    """Gamma frailty shared by all transitions of a patient.

    The frailty is Gamma(shape, scale=1/rate); with the default shape and
    rate of 10 the mean is 1 and the variance 0.1.  A model without frailty
    has ``frailty=None`` and consumes no draws for it.
    """

    shape: float = 10.0
    rate: float = 10.0

    def __post_init__(self):
        _check_finite("frailty shape and rate", self.shape, self.rate)
        if self.shape <= 0.0 or self.rate <= 0.0:
            raise InvalidModel("frailty shape and rate must be positive")


@dataclass(frozen=True)
class CohortModel:
    """Everything one cohort is drawn from.

    Arm 0 follows ``control`` and arm 1 ``experimental``.  Patient k of an
    arm (k = 0, 1, ...) enters at ``k / per_arm_rate``; the two arms are
    interleaved so cohort positions alternate between arms.  A
    ``dropout_rate`` of zero disables drop-out, and ``frailty=None`` means
    no frailty.
    """

    control: TransitionIntensities
    experimental: TransitionIntensities
    per_arm_rate: float
    max_per_arm: int
    dropout_rate: float = 0.0
    frailty: FrailtySpec | None = None

    def __post_init__(self):
        _check_finite("recruitment rate", self.per_arm_rate)
        _check_finite("patients per arm", self.max_per_arm)
        _check_integer("patients per arm", self.max_per_arm)
        _check_finite("drop-out rate", self.dropout_rate)
        if self.per_arm_rate <= 0.0:
            raise InvalidModel("recruitment rate must be positive")
        if self.max_per_arm < 1:
            raise InvalidModel("need at least one patient per arm")
        if self.dropout_rate < 0.0:
            raise InvalidModel("drop-out rate must be non-negative")


class Cohort:
    """Latent (uncensored) patient paths as contiguous numpy arrays, one
    entry per cohort position.  A block of trials stacks one cohort per
    row, so its arrays have shape (trials, patients)."""

    def __init__(self, arm, entry, t_pfs, t_os, dropout):
        self.arm = np.asarray(arm, dtype=np.int8)
        self.entry = np.asarray(entry, dtype=float)
        self.t_pfs = np.asarray(t_pfs, dtype=float)
        self.t_os = np.asarray(t_os, dtype=float)
        self.dropout = np.asarray(dropout, dtype=float)

    def __len__(self) -> int:
        """Patients per trial."""
        return self.arm.shape[-1]

    @classmethod
    def stack(cls, cohorts) -> "Cohort":
        """Cohorts of one size as a block, one row per cohort."""
        cohorts = list(cohorts)
        return cls(*(np.stack([getattr(c, name) for c in cohorts])
                     for name in _COLUMNS))

    def restricted_to(self, index) -> "Cohort":
        """Sub-cohort at a numpy index: a mask of patients, or rows and
        columns of a block."""
        return Cohort(*(getattr(self, name)[index] for name in _COLUMNS))


_COLUMNS = ("arm", "entry", "t_pfs", "t_os", "dropout")


def _rng_for_replication(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream: same (seed, replication) always gives the same
    draws, independent of how replications are batched across workers.

    The seed is taken mod 2**64: seeds that differ mod 2**64, negative ones
    included, draw different streams, and -1 is the same seed as 2**64 - 1.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0x64756F73], dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=[0, 0, replication, 0])
    return np.random.Generator(bitgen)


def _exponential_from_uniform(u: np.ndarray, rate: np.ndarray | float) -> np.ndarray:
    """Inverse-CDF exponential; rate 0 maps to +inf, and so does a rate so
    small that the time overflows: the event is never observed."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(np.asarray(rate) > 0.0, -np.log1p(-u) / rate, np.inf)


def simulate_cohorts(model: CohortModel, seed: int, replications) -> Cohort:
    """Simulate a block of trial cohorts, one row per replication.

    Each replication draws from its own stream, ``(seed, replication)``,
    so a row does not depend on the others.  A stream first yields ``4 *
    n`` uniforms in one block of shape (n, 4), one row per cohort position,
    and only then the frailty draws, so that enabling the frailty does not
    disturb the base paths.  The block turns all rows' draws into times at
    once.
    """
    k = model.max_per_arm
    n = 2 * k
    replications = list(replications)
    u = np.empty((len(replications), n, _DRAWS_PER_PATIENT))
    frailty = model.frailty
    gamma = np.empty((len(replications), n)) if frailty is not None else None
    for row, replication in enumerate(replications):
        rng = _rng_for_replication(seed, replication)
        rng.random(out=u[row])
        if frailty is not None:
            gamma[row] = rng.gamma(shape=frailty.shape,
                                   scale=1.0 / frailty.rate, size=n)

    # an entry time that overflows is +inf: that patient never enters
    with np.errstate(over="ignore"):
        grid = np.arange(k, dtype=float) / model.per_arm_rate
    # one row of the shared entry grid and arms, and of the intensities of
    # each position's arm, for every row of the block
    entry = np.repeat(grid, 2)
    arm = np.tile(np.array([0, 1], dtype=np.int8), k)
    lam0, lam1 = model.control, model.experimental
    lam01 = np.where(arm == 0, lam0.lambda_01, lam1.lambda_01)
    lam02 = np.where(arm == 0, lam0.lambda_02, lam1.lambda_02)
    lam12 = np.where(arm == 0, lam0.lambda_12, lam1.lambda_12)

    sojourn0 = _exponential_from_uniform(u[..., 0], lam01 + lam02)
    progressed = u[..., 1] < lam01 / (lam01 + lam02)
    sojourn1 = _exponential_from_uniform(u[..., 2], lam12)
    drop = _exponential_from_uniform(u[..., 3], model.dropout_rate)
    rows = (len(replications), 1)
    cohort = Cohort(np.tile(arm, rows), np.tile(entry, rows), sojourn0,
                    np.where(progressed, sojourn0 + sojourn1, sojourn0), drop)
    if frailty is not None:
        # a draw of 0 (or one so small that the time overflows) gives +inf:
        # that patient's events are never observed
        with np.errstate(divide="ignore", over="ignore"):
            cohort = Cohort(cohort.arm, cohort.entry, cohort.t_pfs / gamma,
                            cohort.t_os / gamma, cohort.dropout)
    return cohort

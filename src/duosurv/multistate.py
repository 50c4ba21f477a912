"""Illness-death model simulation for two-endpoint survival trials.

Patients move through three states: stable disease (0), progression (1) and
death (2).  Transitions 0->1, 0->2 and 1->2 carry constant intensities, so
sojourn times are exponential.  Progression-free survival is the waiting time
in state 0, overall survival the waiting time until state 2.  An optional
gamma frailty multiplies all three intensities of a patient, which is
equivalent to dividing that patient's event times by the frailty draw.
Recruitment is staggered on a deterministic grid and drop-out is an
independent exponential censoring time that is not affected by the frailty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel

__all__ = [
    "TransitionIntensities",
    "ArmModel",
    "FrailtySpec",
    "RecruitmentSpec",
    "DropoutSpec",
    "Cohort",
    "effective_intensities",
    "simulate_cohort",
]

# Number of uniforms consumed per patient for the base path, in draw order:
# state-0 sojourn, progression-vs-death branch, state-1 sojourn, drop-out.
_DRAWS_PER_PATIENT = 4


@dataclass(frozen=True)
class TransitionIntensities:
    """Constant intensities of the three illness-death transitions."""

    lambda_01: float
    lambda_02: float
    lambda_12: float

    def validate(self) -> None:
        if min(self.lambda_01, self.lambda_02, self.lambda_12) < 0.0:
            raise InvalidModel("transition intensities must be non-negative")
        if self.lambda_01 + self.lambda_02 <= 0.0:
            raise InvalidModel("state 0 must have a positive exit intensity")


@dataclass(frozen=True)
class ArmModel:
    """Per-arm intensities with a treatment-effect weight.

    Arm 0 follows ``control``.  Arm 1 follows the interpolation
    ``control - weight * (control - experimental_target)``, i.e. it moves from
    the control intensities (weight 0) to the target intensities (weight 1).
    """

    control: TransitionIntensities
    experimental_target: TransitionIntensities
    weight: float = 1.0

    def validate(self) -> None:
        self.control.validate()
        self.experimental_target.validate()
        if not 0.0 <= self.weight <= 1.0:
            raise InvalidModel("effect weight must lie in [0, 1]")
        effective_intensities(self, 1).validate()


@dataclass(frozen=True)
class FrailtySpec:
    """Gamma frailty shared by all transitions of a patient.

    The frailty is Gamma(shape, scale=1/rate); with the default shape and
    rate of 10 the mean is 1 and the variance 0.1.  Disabled means the
    frailty is identically 1 and no draws are consumed.
    """

    enabled: bool = False
    shape: float = 10.0
    rate: float = 10.0

    def validate(self) -> None:
        if self.enabled and (self.shape <= 0.0 or self.rate <= 0.0):
            raise InvalidModel("frailty shape and rate must be positive")


@dataclass(frozen=True)
class RecruitmentSpec:
    """Deterministic staggered entry.

    Patient k of an arm (k = 0, 1, ...) enters at ``k / per_arm_rate``; the
    two arms are interleaved so cohort positions alternate between arms.
    """

    per_arm_rate: float
    max_per_arm: int

    def validate(self) -> None:
        if self.per_arm_rate <= 0.0:
            raise InvalidModel("recruitment rate must be positive")
        if self.max_per_arm < 1:
            raise InvalidModel("need at least one patient per arm")


@dataclass(frozen=True)
class DropoutSpec:
    """Exponential drop-out hazard; zero disables drop-out."""

    rate: float = 0.0

    def validate(self) -> None:
        if self.rate < 0.0:
            raise InvalidModel("drop-out rate must be non-negative")


class Cohort:
    """Latent (uncensored) patient paths as contiguous numpy arrays, one
    entry per cohort position."""

    def __init__(self, arm, entry, t_pfs, t_os, dropout, frailty, progressed):
        self.arm = np.asarray(arm, dtype=np.int8)
        self.entry = np.asarray(entry, dtype=float)
        self.t_pfs = np.asarray(t_pfs, dtype=float)
        self.t_os = np.asarray(t_os, dtype=float)
        self.dropout = np.asarray(dropout, dtype=float)
        self.frailty = np.asarray(frailty, dtype=float)
        self.progressed = np.asarray(progressed, dtype=bool)

    def __len__(self) -> int:
        return self.arm.shape[0]

    def restricted_to(self, mask: np.ndarray) -> "Cohort":
        """Sub-cohort of the patients selected by a boolean mask."""
        return Cohort(
            self.arm[mask],
            self.entry[mask],
            self.t_pfs[mask],
            self.t_os[mask],
            self.dropout[mask],
            self.frailty[mask],
            self.progressed[mask],
        )


def effective_intensities(model: ArmModel, arm: int) -> TransitionIntensities:
    """Intensities actually used for one arm.

    Args:
        model: arm model with control, target and effect weight.
        arm: 0 for control, 1 for the experimental arm.

    Returns:
        ``control`` for arm 0; for arm 1 the componentwise interpolation
        ``control - weight * (control - experimental_target)``.
    """
    if arm not in (0, 1):
        raise InvalidModel(f"arm must be 0 or 1, got {arm!r}")
    if arm == 0:
        return model.control
    c, e, w = model.control, model.experimental_target, model.weight
    return TransitionIntensities(
        lambda_01=c.lambda_01 - w * (c.lambda_01 - e.lambda_01),
        lambda_02=c.lambda_02 - w * (c.lambda_02 - e.lambda_02),
        lambda_12=c.lambda_12 - w * (c.lambda_12 - e.lambda_12),
    )


def _rng_for_replication(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream: same (seed, replication) always gives the same
    draws, independent of how replications are batched across workers."""
    bitgen = np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, 0x64756F73],
                              counter=[0, 0, replication, 0])
    return np.random.Generator(bitgen)


def _exponential_from_uniform(u: np.ndarray, rate: np.ndarray | float) -> np.ndarray:
    """Inverse-CDF exponential; rate 0 maps to +inf."""
    with np.errstate(divide="ignore"):
        return np.where(np.asarray(rate) > 0.0, -np.log1p(-u) / rate, np.inf)


def _sample_base_cohort(model: ArmModel, recruitment: RecruitmentSpec,
                        dropout: DropoutSpec, rng: np.random.Generator) -> Cohort:
    """Frailty-free cohort from a fixed block of uniforms.

    Exactly ``4 * n`` uniforms are consumed in one block of shape (n, 4), one
    row per cohort position, so that enabling the frailty afterwards does not
    disturb the base paths.
    """
    k = recruitment.max_per_arm
    n = 2 * k
    grid = np.arange(k, dtype=float) / recruitment.per_arm_rate
    entry = np.repeat(grid, 2)
    arm = np.tile(np.array([0, 1], dtype=np.int8), k)

    lam0 = effective_intensities(model, 0)
    lam1 = effective_intensities(model, 1)
    lam01 = np.where(arm == 0, lam0.lambda_01, lam1.lambda_01)
    lam02 = np.where(arm == 0, lam0.lambda_02, lam1.lambda_02)
    lam12 = np.where(arm == 0, lam0.lambda_12, lam1.lambda_12)

    u = rng.random((n, _DRAWS_PER_PATIENT))
    sojourn0 = _exponential_from_uniform(u[:, 0], lam01 + lam02)
    with np.errstate(invalid="ignore"):
        progress_share = np.where(lam01 + lam02 > 0.0, lam01 / (lam01 + lam02), 0.0)
    progressed = u[:, 1] < progress_share
    sojourn1 = _exponential_from_uniform(u[:, 2], lam12)
    drop = _exponential_from_uniform(u[:, 3], dropout.rate)

    t_pfs = sojourn0
    t_os = np.where(progressed, sojourn0 + sojourn1, sojourn0)
    return Cohort(arm, entry, t_pfs, t_os, drop,
                  np.ones(n), progressed)


def _draw_frailty(frailty: FrailtySpec, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.gamma(shape=frailty.shape, scale=1.0 / frailty.rate, size=n)


def simulate_cohort(model: ArmModel, recruitment: RecruitmentSpec,
                    dropout: DropoutSpec, frailty: FrailtySpec,
                    seed: int, replication: int = 0) -> Cohort:
    """Simulate one trial cohort.

    Args:
        model: per-arm transition intensities.
        recruitment: entry grid and per-arm cap.
        dropout: exponential censoring hazard.
        frailty: gamma frailty settings.
        seed: experiment seed.
        replication: replication index; (seed, replication) fully determines
            the cohort regardless of execution order or worker count.

    Returns:
        A :class:`Cohort` of ``2 * max_per_arm`` patients, arms interleaved
        on the entry grid.  Frailty divides the event times only; entry and
        drop-out are untouched.
    """
    model.validate()
    recruitment.validate()
    dropout.validate()
    frailty.validate()

    rng = _rng_for_replication(seed, replication)
    cohort = _sample_base_cohort(model, recruitment, dropout, rng)
    if frailty.enabled:
        gamma = _draw_frailty(frailty, len(cohort), rng)
        cohort = Cohort(cohort.arm, cohort.entry,
                        cohort.t_pfs / gamma, cohort.t_os / gamma,
                        cohort.dropout, gamma, cohort.progressed)
    return cohort

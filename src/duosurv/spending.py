"""One-sided error spending over event-count information fractions.

Two base shapes cover every procedure here: ``full_at_one`` releases the
whole level only at (or beyond) information fraction one, which turns a
group-sequential skeleton back into a single final test; ``obf_lan_demets``
is the Lan-DeMets approximation to the O'Brien-Fleming boundary,

    g(s, l) = 2 * (1 - Phi(Phi^{-1}(1 - l/2) / sqrt(s))),  0 < s <= 1.

Each shape also exists in a ``_plus_step`` variant that releases an extra
fixed chunk from a given fraction onward; the base shape then spends the
remaining ``level - step_level``.  That is how a level recycled from an
already-rejected hypothesis enters an ongoing spending schedule without
touching the part already spent.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.special import ndtr, ndtri

from .errors import ConfigError

__all__ = ["SpendingFunction", "SPENDING_KINDS"]

SPENDING_KINDS = (
    "full_at_one",
    "obf_lan_demets",
    "full_at_one_plus_step",
    "obf_plus_step",
)

_MIN_FRACTION = 1e-9


def _obf(s: float, level: float) -> float:
    if level <= 0.0:
        return 0.0
    return 2.0 * ndtr(-(ndtri(1.0 - 0.5 * level) / (s ** 0.5)))


@dataclass(frozen=True)
class SpendingFunction:
    """Cumulative one-sided error spent by information fraction tau.

    ``step_time`` and ``step_level`` are only meaningful for the
    ``*_plus_step`` kinds and must be left at None otherwise.
    """

    kind: str
    step_time: float | None = None
    step_level: float | None = None

    def __post_init__(self):
        if self.kind not in SPENDING_KINDS:
            raise ConfigError(f"unknown spending kind {self.kind!r}")
        stepped = self.kind.endswith("_plus_step")
        if stepped:
            if self.step_time is None or self.step_level is None:
                raise ConfigError(
                    f"{self.kind} requires step_time and step_level")
            if not 0.0 <= self.step_time:
                raise ConfigError("step_time must be non-negative")
            if self.step_level < 0.0:
                raise ConfigError("step_level must be non-negative")
        elif self.step_time is not None or self.step_level is not None:
            raise ConfigError(f"{self.kind} takes no step parameters")

    def spend(self, tau: float, level: float) -> float:
        """Cumulative level spent by fraction ``tau`` of a total ``level``."""
        if level < 0.0:
            raise ConfigError("spending level must be non-negative")
        if tau <= 0.0:
            return 0.0
        s = min(max(tau, _MIN_FRACTION), 1.0)

        if self.kind == "full_at_one":
            return level if s >= 1.0 else 0.0
        if self.kind == "obf_lan_demets":
            return _obf(s, level)

        remaining = level - self.step_level
        if remaining < 0.0:
            raise ConfigError(
                f"step_level {self.step_level} exceeds total level {level}")
        step = self.step_level if tau >= self.step_time else 0.0
        if self.kind == "full_at_one_plus_step":
            return step + (remaining if s >= 1.0 else 0.0)
        return step + _obf(s, remaining)

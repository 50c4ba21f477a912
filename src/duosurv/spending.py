"""One-sided error spending over event-count information fractions.

Two shapes cover every procedure here: ``full_at_one`` releases the whole
level only at (or beyond) information fraction one, which turns a
group-sequential skeleton back into a single final test; ``obf_lan_demets``
is the Lan-DeMets approximation to the O'Brien-Fleming boundary,

    g(s, l) = 2 * (1 - Phi(Phi^{-1}(1 - l/2) / sqrt(s))),  0 < s <= 1.

A level recycled from a rejected hypothesis enters as a fixed step on top
of the shape's spending of the rest (``DesignSpec.elementary_os_spend``).
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.special import ndtr, ndtri

from .errors import ConfigError

__all__ = ["SpendingFunction", "SPENDING_KINDS"]

SPENDING_KINDS = ("full_at_one", "obf_lan_demets")

_MIN_FRACTION = 1e-9


@dataclass(frozen=True)
class SpendingFunction:
    """Cumulative one-sided error spent by information fraction tau."""

    kind: str

    def __post_init__(self):
        if self.kind not in SPENDING_KINDS:
            raise ConfigError(f"unknown spending kind {self.kind!r}")

    def spend(self, tau: float, level: float) -> float:
        """Cumulative level spent by fraction ``tau`` of a total ``level``."""
        if level < 0.0:
            raise ConfigError("spending level must be non-negative")
        if tau <= 0.0:
            return 0.0
        s = min(max(tau, _MIN_FRACTION), 1.0)
        if self.kind == "full_at_one":
            return level if s >= 1.0 else 0.0
        return 2.0 * ndtr(-(ndtri(1.0 - 0.5 * level) / (s ** 0.5)))

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

import numpy as np
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

    def spend(self, tau, level: float):
        """Cumulative level spent by fraction ``tau`` of a total ``level``,
        elementwise over an array of fractions."""
        if level < 0.0:
            raise ConfigError("spending level must be non-negative")
        tau = np.asarray(tau, dtype=float)
        s = np.clip(tau, _MIN_FRACTION, 1.0)
        if self.kind == "full_at_one":
            spent = np.where(s >= 1.0, level, 0.0)
        else:
            spent = 2.0 * ndtr(-(ndtri(1.0 - 0.5 * level) / np.sqrt(s)))
        return np.where(tau <= 0.0, 0.0, spent)[()]

"""Deterministic multivariate-normal orthant probabilities and the
inflation-factor solver.

Upper-orthant probabilities P[Z_k > c_k for all k] are needed for up to three
jointly normal standardized statistics: no procedure tests more than PFS at
the interim and OS at the interim and at the final analysis.  Dimension two
is Owen's (1956) closed form through his T function; dimension three
conditions on the first component and integrates that bivariate form with a
composite Gauss-Legendre rule.  Everything is deterministic and accurate to
well below 1e-7 absolutely, so level computations never jitter between
runs.  Nan bounds, levels or thresholds raise a typed error before any
solve.

The inflation solver finds the factor xi >= 1 by which a set of nominal
levels can be blown up until the probability of rejecting at least one of
the corresponding lower-tail tests (optionally intersected with fixed
continuation events) exhausts a target level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, owens_t

from .errors import InvalidCorrelation, NoSolution

__all__ = [
    "OrthantQuery",
    "InflationProblem",
    "mvn_upper_orthant",
    "solve_inflation",
]

_TAIL_CUT = 8.5          # beyond this many sds the integrand mass is < 1e-16
_EIGEN_TOL = 1e-8        # matrices below -tol are rejected as not PSD
_EIGEN_FLOOR = 1e-10     # smaller eigenvalues are floored (repair)
XI_TOL = 1e-6            # absolute bisection tolerance on xi

# 16-node Gauss-Legendre rule on [-1, 1], per segment of the trivariate
# conditioning integral
_GL16 = np.polynomial.legendre.leggauss(16)


def _segments(lo: float, hi: float, cuts=(-6.0, -4.5, -3.5, -2.5, -2.0, -1.5,
                                          -1.0, -0.5, 0.0, 0.5, 1.0, 1.5,
                                          2.0, 2.5, 3.5, 4.5, 6.0)):
    pts = [lo] + [c for c in cuts if lo < c < hi] + [hi]
    return list(zip(pts[:-1], pts[1:]))


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _bvn_upper(h, k, rho: float):
    """P[X > h, Y > k] for standard bivariate normal, vectorized in h, k.

    Owen's (1956) closed form Phi(-h)/2 + Phi(-k)/2 - T(h, a_h) - T(k, a_k)
    - beta, with Owen's T, a_h = (k - rho h) / (h sqrt(1 - rho^2)) and beta
    = 1/2 when h and k lie on opposite sides of zero.  A zero bound makes
    its a infinite, signed like the zero, so beta reads sign bits; at
    h = k = 0 a is 0/0 and the limit is the arcsine identity.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if rho >= 1.0:
        return ndtr(-np.maximum(h, k))
    if rho <= -1.0:
        return ndtr(-h) - ndtr(-np.maximum(h, -k))
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a_h = (k - rho * h) / (h * s)
        a_k = (h - rho * k) / (k * s)
    beta = np.where(np.signbit(h) != np.signbit(k), 0.5, 0.0)
    p = 0.5 * (ndtr(-h) + ndtr(-k)) - owens_t(h, a_h) - owens_t(k, a_k) - beta
    return np.where((h == 0.0) & (k == 0.0),
                    0.25 + np.arcsin(rho) / (2.0 * np.pi), p)


def _trivariate_upper(b, corr) -> float:
    """P[Z > b] in dimension 3 by conditioning on the first component."""
    b = np.asarray(b, dtype=float)
    r01, r02, r12 = corr[0, 1], corr[0, 2], corr[1, 2]
    s1 = np.sqrt(max(1.0 - r01 * r01, 1e-14))
    s2 = np.sqrt(max(1.0 - r02 * r02, 1e-14))
    r_cond = np.clip((r12 - r01 * r02) / (s1 * s2), -1.0, 1.0)

    lo = max(b[0], -_TAIL_CUT)
    if lo >= _TAIL_CUT:
        return 0.0
    nodes, weights = _GL16
    xs, ws = [], []
    for a, c in _segments(lo, _TAIL_CUT):
        mid, half = 0.5 * (a + c), 0.5 * (c - a)
        xs.append(mid + half * nodes)
        ws.append(half * weights)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    inner = _bvn_upper((b[1] - r01 * x) / s1, (b[2] - r02 * x) / s2, r_cond)
    return float(np.sum(w * _phi(x) * inner))


def _validated_correlation(corr) -> np.ndarray:
    m = np.asarray(corr, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidCorrelation("correlation matrix must be square")
    if not np.all(np.isfinite(m)):
        raise InvalidCorrelation("correlation entries must be finite")
    if not np.allclose(m, m.T, atol=1e-8):
        raise InvalidCorrelation("correlation matrix must be symmetric")
    if not np.allclose(np.diag(m), 1.0, atol=1e-8):
        raise InvalidCorrelation("correlation matrix must have unit diagonal")
    if np.any(np.abs(m) > 1.0 + 1e-8):
        raise InvalidCorrelation("correlation entries must lie in [-1, 1]")
    m = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < -_EIGEN_TOL:
        raise InvalidCorrelation(
            f"correlation matrix has eigenvalue {vals.min():.3e}")
    if vals.min() < _EIGEN_FLOOR:
        vals = np.maximum(vals, _EIGEN_FLOOR)
        m = (vecs * vals) @ vecs.T
        d = 1.0 / np.sqrt(np.diag(m))
        m = m * d[:, None] * d[None, :]
        np.fill_diagonal(m, 1.0)
    return np.clip(m, -1.0, 1.0)


@dataclass(frozen=True)
class OrthantQuery:
    """Lower bounds and correlation for P[Z_k > lower_z_k for all k]."""

    lower_z: tuple
    corr: np.ndarray


class _ValidatedQuery(OrthantQuery):
    """Query whose ``corr`` is validated already (by ``solve_inflation``)."""


def mvn_upper_orthant(query: OrthantQuery) -> float:
    """Probability that every component exceeds its bound.

    Components with bound -inf are certain and dropped; any +inf bound makes
    the orthant empty.  Supported dimensions after dropping: 0 to 3.
    """
    lower = np.asarray(query.lower_z, dtype=float)
    corr = (query.corr if isinstance(query, _ValidatedQuery)
            else _validated_correlation(query.corr))
    if corr.shape[0] != lower.shape[0]:
        raise InvalidCorrelation("bounds and correlation sizes differ")
    if np.isnan(lower).any():
        raise InvalidCorrelation("orthant bounds must not be nan")
    if np.any(np.isposinf(lower)):
        return 0.0
    keep = ~np.isneginf(lower)
    lower = lower[keep]
    corr = corr[np.ix_(keep, keep)]
    dim = lower.shape[0]
    if dim == 0:
        return 1.0
    if dim == 1:
        p = ndtr(-lower[0])
    elif dim == 2:
        p = _bvn_upper(lower[0], lower[1], float(corr[0, 1]))
    elif dim == 3:
        p = _trivariate_upper(lower, corr)
    else:
        raise InvalidCorrelation(
            f"orthant dimension {dim} not supported (max 3)")
    # round-off in the closed form's differences and the quadrature's sums
    # can leave [0, 1] by ~1e-16 where the orthant is nearly empty or full
    return min(max(float(p), 0.0), 1.0)


@dataclass(frozen=True)
class InflationProblem:
    """Exhaust a target level by inflating nominal lower-tail levels.

    ``base_levels`` are the per-test one-sided levels to be scaled by a
    common factor xi; ``fixed_thresholds`` are z-scale bounds of additional
    continuation events that are intersected in as-is.  ``corr`` covers the
    scaled components first, then the fixed ones, in order.  The solved
    equation is

        1 - P[ Z_k > ppf(xi * level_k) for all k,  Z_f > fixed_f for all f ]
            = target.
    """

    base_levels: tuple
    corr: np.ndarray
    target: float
    fixed_thresholds: tuple = field(default=())


def _rejection_probability(xi: float, levels, fixed, corr) -> float:
    bounds = tuple(ndtri(xi * a) for a in levels) + tuple(fixed)
    return 1.0 - mvn_upper_orthant(_ValidatedQuery(lower_z=bounds, corr=corr))


def solve_inflation(problem: InflationProblem) -> float:
    """Smallest-level inflation factor that exhausts the target.

    The rejection probability is strictly increasing in xi, so plain
    bisection on [1, 0.499 / max(level)] converges; the bracket cap keeps
    every inflated level below one half.  Returns 1.0 exactly when the
    nominal levels already exhaust the target (degenerate problems such as a
    single test at the full level).

    Raises:
        NoSolution: the target is out of reach inside the bracket.
    """
    levels = tuple(float(a) for a in problem.base_levels)
    if np.isnan(levels + tuple(problem.fixed_thresholds)).any():
        raise NoSolution("nan base level or fixed threshold")
    if any(a < 0.0 for a in levels):
        raise NoSolution("negative base level")
    target = float(problem.target)
    if not 0.0 < target < 0.5:
        raise NoSolution(f"target {target} must lie in (0, 0.5)")
    # validated once: any principal submatrix of the result is valid too
    corr = _validated_correlation(problem.corr)
    n_total = len(levels) + len(problem.fixed_thresholds)
    if corr.shape[0] != n_total:
        raise InvalidCorrelation(
            "correlation size does not match scaled plus fixed components")

    # zero levels and certain continuation events do not constrain anything
    keep = [i for i, a in enumerate(levels) if a > 0.0]
    keep += [len(levels) + j for j, f in enumerate(problem.fixed_thresholds)
             if not np.isneginf(f)]
    if not keep:
        raise NoSolution("no active components")
    corr = corr[np.ix_(keep, keep)]
    fixed = tuple(f for f in problem.fixed_thresholds if not np.isneginf(f))
    levels = tuple(a for a in levels if a > 0.0)
    if not levels:
        raise NoSolution("no scalable components")

    def f(xi: float) -> float:
        return _rejection_probability(xi, levels, fixed, corr)

    xi_max = 0.499 / max(levels)
    f_lo = f(1.0)
    if f_lo > target + 1e-12:
        raise NoSolution(
            f"rejection probability {f_lo:.6g} at xi=1 already exceeds "
            f"target {target:.6g}")
    if abs(f_lo - target) <= 1e-12:
        return 1.0
    if xi_max <= 1.0:
        raise NoSolution("bracket empty: max level too close to 0.5")
    lo, hi = 1.0, 1.0
    step = 0.25
    f_hi = f_lo
    while f_hi < target and hi < xi_max:
        lo = hi
        hi = min(hi + step, xi_max)
        f_hi = f(hi)
        step *= 2.0
    if f_hi < target - 1e-12:
        raise NoSolution(
            f"target {target:.6g} unreachable: rejection probability at "
            f"xi={hi:.6g} is {f_hi:.6g}")
    if f_hi < target:
        return hi
    return float(brentq(lambda x: f(x) - target, lo, hi, xtol=XI_TOL))

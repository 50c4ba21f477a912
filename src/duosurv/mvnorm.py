"""Deterministic multivariate-normal orthant probabilities and the
inflation-factor solver, both over blocks of problems.

Upper-orthant probabilities P[Z_k > c_k for all k] are needed for up to three
jointly normal standardized statistics: no procedure tests more than PFS at
the interim and OS at the interim and at the final analysis.  Dimension two
is Owen's (1956) closed form through his T function; dimension three
conditions on the first component and integrates that bivariate form with a
composite Gauss-Legendre rule.  Everything is deterministic and accurate to
well below 1e-7 absolutely, so level computations never jitter between
runs.  Nan bounds or thresholds and non-finite levels raise a typed error
before any solve.

The inflation solver finds the factor xi >= 1 by which a set of nominal
levels can be blown up until the probability of rejecting at least one of
the corresponding lower-tail tests (optionally intersected with fixed
continuation events) exhausts a target level.  It runs a safeguarded Newton
iteration on xi: the slope of the rejection probability is closed-form, one
normal cdf in dimension two and one bivariate orthant in dimension three,
so a solve costs three or four orthant evaluations.

Both take a block: bounds, levels and thresholds with one row per problem
and a stack of correlation matrices, validated together by one ``eigh``
call.  A lone problem is a block of one.  The solver keeps its bracket per
row and stops each row at ``XI_TOL`` on its own.  No row's arithmetic reads
another row, so a row gives the same bits in any block: the trivariate
integral sums each row over its own nodes, integrating together only rows
whose segments start between the same two cuts.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .errors import InvalidCorrelation, NoSolution

__all__ = ["mvn_upper_orthant", "solve_inflation"]

_TAIL_CUT = 8.5          # beyond this many sds the integrand mass is < 1e-16
_EIGEN_TOL = 1e-8        # matrices below -tol are rejected as not PSD
_EIGEN_FLOOR = 1e-10     # smaller eigenvalues are floored (repair)
XI_TOL = 1e-6            # absolute tolerance on xi
_MAX_STEPS = 100         # Newton or bisection steps per solve

# 16-node Gauss-Legendre rule on [-1, 1], per segment of the trivariate
# conditioning integral, whose segments run from the lower bound through
# every cut above it to the tail cut
_GL16 = np.polynomial.legendre.leggauss(16)
_CUTS = np.array([-6.0, -4.5, -3.5, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5,
                  1.0, 1.5, 2.0, 2.5, 3.5, 4.5, 6.0])


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _bvn_upper(h, k, rho):
    """P[X > h, Y > k] for standard bivariate normal, elementwise over the
    broadcast ``h``, ``k`` and ``rho``.

    Owen's (1956) closed form Phi(-h)/2 + Phi(-k)/2 - T(h, a_h) - T(k, a_k)
    - beta, with Owen's T, a_h = (k - rho h) / (h sqrt(1 - rho^2)) and beta
    = 1/2 when h and k lie on opposite sides of zero.  A zero bound makes
    its a infinite, signed like the zero, so beta reads sign bits; at
    h = k = 0 a is 0/0 and the limit is the arcsine identity.  At rho = +-1
    the limits of perfect correlation replace the form.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.sqrt((1.0 - rho) * (1.0 + rho))
        a_h = (k - rho * h) / (h * s)
        a_k = (h - rho * k) / (k * s)
        beta = np.where(np.signbit(h) != np.signbit(k), 0.5, 0.0)
        p = (0.5 * (ndtr(-h) + ndtr(-k)) - owens_t(h, a_h) - owens_t(k, a_k)
             - beta)
    if ((h == 0.0) & (k == 0.0)).any() or (np.abs(rho) >= 1.0).any():
        p = np.where((h == 0.0) & (k == 0.0),
                     0.25 + np.arcsin(rho) / (2.0 * np.pi), p)
        p = np.where(rho >= 1.0, ndtr(-np.maximum(h, k)), p)
        p = np.where(rho <= -1.0, ndtr(-h) - ndtr(-np.maximum(h, -k)), p)
    return p


def _trivariate_upper(b, corr) -> np.ndarray:
    """P[Z > b] in dimension 3 by conditioning on the first component, per
    row of the bounds ``b`` (m, 3) and correlations ``corr`` (m, 3, 3)."""
    r01, r02, r12 = corr[:, 0, 1], corr[:, 0, 2], corr[:, 1, 2]
    s1 = np.sqrt(np.maximum(1.0 - r01 * r01, 1e-14))
    s2 = np.sqrt(np.maximum(1.0 - r02 * r02, 1e-14))
    r_cond = np.clip((r12 - r01 * r02) / (s1 * s2), -1.0, 1.0)

    lo = np.maximum(b[:, 0], -_TAIL_CUT)
    p = np.zeros(len(b))
    # rows whose integral starts between the same two cuts share the number
    # of segments, hence of nodes
    n_cuts = np.where(lo < _TAIL_CUT, (_CUTS > lo[:, None]).sum(axis=1), -1)
    nodes, weights = _GL16
    for n in np.unique(n_cuts[n_cuts >= 0]):
        rows = np.flatnonzero(n_cuts == n)
        upper = np.append(_CUTS[len(_CUTS) - n:], _TAIL_CUT)
        pts = np.column_stack(
            (lo[rows], np.broadcast_to(upper, (len(rows), n + 1))))
        a, c = pts[:, :-1, None], pts[:, 1:, None]
        mid, half = 0.5 * (a + c), 0.5 * (c - a)
        x = (mid + half * nodes).reshape(len(rows), -1)
        w = (half * weights).reshape(len(rows), -1)
        inner = _bvn_upper(
            (b[rows, 1:2] - r01[rows, None] * x) / s1[rows, None],
            (b[rows, 2:3] - r02[rows, None] * x) / s2[rows, None],
            r_cond[rows, None])
        p[rows] = np.sum(w * _phi(x) * inner, axis=1)
    return p


def _validated_correlation(corr) -> np.ndarray:
    """A correlation matrix, or a stack of them, checked and repaired: every
    matrix must pass, and each one with an eigenvalue below the floor is
    rebuilt from its floored eigenvalues."""
    m = np.asarray(corr, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise InvalidCorrelation("correlation matrix must be square")
    if not np.all(np.isfinite(m)):
        raise InvalidCorrelation("correlation entries must be finite")
    mt = np.swapaxes(m, -1, -2)
    # np.allclose's test |x - y| <= atol + rtol |y|, atol 1e-8, rtol 1e-5
    if not (np.abs(m - mt) <= 1e-8 + 1e-5 * np.abs(mt)).all():
        raise InvalidCorrelation("correlation matrix must be symmetric")
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    if not (np.abs(diag - 1.0) <= 1e-8 + 1e-5).all():
        raise InvalidCorrelation("correlation matrix must have unit diagonal")
    if np.any(np.abs(m) > 1.0 + 1e-8):
        raise InvalidCorrelation("correlation entries must lie in [-1, 1]")
    m = 0.5 * (m + mt)
    vals, vecs = np.linalg.eigh(m)
    if vals.min(initial=0.0) < -_EIGEN_TOL:
        raise InvalidCorrelation(
            f"correlation matrix has eigenvalue {vals.min():.3e}")
    low = vals.min(axis=-1) < _EIGEN_FLOOR
    if low.any():
        stack = m.reshape(-1, *m.shape[-2:])
        vals = np.maximum(vals[low], _EIGEN_FLOOR)
        vecs = vecs[low]
        r = (vecs * vals[:, None, :]) @ np.swapaxes(vecs, -1, -2)
        d = 1.0 / np.sqrt(np.diagonal(r, axis1=-2, axis2=-1))
        r = r * d[:, :, None] * d[:, None, :]
        idx = np.arange(r.shape[-1])
        r[:, idx, idx] = 1.0
        stack[low.reshape(-1)] = r
    return np.clip(m, -1.0, 1.0)


def _upper_orthant(lower, corr) -> np.ndarray:
    """Per row, the probability that every component exceeds its bound:
    ``lower`` (m, d), validated ``corr`` (m, d, d).

    Components with bound -inf are certain and dropped; any +inf bound makes
    the orthant empty.  Supported dimensions after dropping: 0 to 3.  Rows
    that drop the same components are computed together.
    """
    if np.isfinite(lower).all():
        return _finite_upper_orthant(lower, corr)
    if np.isnan(lower).any():
        raise InvalidCorrelation("orthant bounds must not be nan")
    p = np.zeros(len(lower))
    keep = ~np.isneginf(lower)
    code = np.where(np.isposinf(lower).any(axis=1), -1,
                    (keep << np.arange(lower.shape[1])).sum(axis=1))
    for c in np.unique(code[code >= 0]):
        rows = np.flatnonzero(code == c)
        cols = np.flatnonzero(keep[rows[0]])
        p[rows] = _finite_upper_orthant(lower[np.ix_(rows, cols)],
                                        corr[rows][:, cols][:, :, cols])
    return p


def _finite_upper_orthant(b, corr) -> np.ndarray:
    """``_upper_orthant`` of finite bounds."""
    dim = b.shape[1]
    if dim == 0:
        return np.ones(len(b))
    if dim == 1:
        p = ndtr(-b[:, 0])
    elif dim == 2:
        p = _bvn_upper(b[:, 0], b[:, 1], corr[:, 0, 1])
    elif dim == 3:
        p = _trivariate_upper(b, corr)
    else:
        raise InvalidCorrelation(
            f"orthant dimension {dim} not supported (max 3)")
    # round-off in the closed form's differences and the quadrature's sums
    # can leave [0, 1] by ~1e-16 where the orthant is nearly empty or full
    return np.minimum(np.maximum(p, 0.0), 1.0)


def mvn_upper_orthant(lower_z, corr):
    """Probability that every component exceeds its bound: a float for one
    query, bounds ``lower_z`` (d,), an array with one entry per row for a
    block, bounds (m, d), with one correlation ``corr`` (d, d) for all rows
    or one per row (m, d, d).

    Components with bound -inf are certain and dropped; any +inf bound makes
    the orthant empty.  Supported dimensions after dropping: 0 to 3.
    """
    lower = np.asarray(lower_z, dtype=float)
    corr = _validated_correlation(corr)
    if corr.shape[-1] != lower.shape[-1]:
        raise InvalidCorrelation("bounds and correlation sizes differ")
    rows = lower.reshape(-1, lower.shape[-1])
    p = _upper_orthant(rows, np.broadcast_to(
        corr, (len(rows),) + corr.shape[-2:]))
    return p if lower.ndim == 2 else float(p[0])


def _conditional_upper(b, corr, k: int) -> np.ndarray:
    """P[Z_j > b_j for all j != k | Z_k = b_k] per row, in dimension 1 to 3."""
    others = [j for j in range(b.shape[1]) if j != k]
    if not others:
        return np.ones(len(b))
    r = corr[:, others, k]
    s = np.sqrt(np.maximum(1.0 - r * r, 1e-14))
    h = (b[:, others] - r * b[:, k:k + 1]) / s
    if len(others) == 1:
        return ndtr(-h[:, 0])
    r_cond = (corr[:, others[0], others[1]] - r[:, 0] * r[:, 1]) / (
        s[:, 0] * s[:, 1])
    return _bvn_upper(h[:, 0], h[:, 1], np.clip(r_cond, -1.0, 1.0))


def solve_inflation(base_levels, corr, target, fixed_thresholds=()):
    """Smallest-level inflation factor that exhausts the target: a float for
    one problem, an array with one factor per row for a block.

    ``base_levels`` are the per-test one-sided levels to be scaled by a
    common factor xi; ``fixed_thresholds`` are z-scale bounds of additional
    continuation events that are intersected in as-is.  ``corr`` covers the
    scaled components first, then the fixed ones, in order.  The solved
    equation is

        1 - P[ Z_k > ppf(xi * level_k) for all k,  Z_f > fixed_f for all f ]
            = target.

    One problem has levels (k,), thresholds (j,), ``corr`` (k + j, k + j)
    and a scalar target.  A block of m problems has levels (m, k); its
    thresholds (m, j), correlations (m, k + j, k + j) and targets (m,) may
    each also be one for all rows.

    The rejection probability f(xi) is strictly increasing in xi; the root
    lies in the bracket [1, 0.499 / max(level)], whose cap keeps every
    inflated level below one half.  A Newton iteration starts at xi = 1 on
    the closed-form slope

        f'(xi) = sum_k level_k P[Z_j > b_j for all j != k | Z_k = b_k],

    with b_k = ppf(xi * level_k) for the scaled and the fixed bounds for
    the others: one normal cdf per scaled component in dimension two, one
    bivariate orthant in dimension three.  Each evaluated point narrows the
    bracket; a step that leaves it (or a slope that vanishes) bisects it
    instead, and the first step past the bracket top evaluates f there to
    tell an unreachable target.  A row stops once its step, or its bracket,
    is below ``XI_TOL``.  The factor is 1.0 exactly when the nominal levels
    already exhaust the target (degenerate problems such as a single test
    at the full level).  Zero levels and -inf thresholds constrain nothing
    and are dropped; rows that drop the same components are solved
    together.

    Raises:
        NoSolution: some row's target is out of reach inside its bracket,
            or did not converge in ``_MAX_STEPS`` steps.
    """
    levels = np.asarray(base_levels, dtype=float)
    block = levels.ndim == 2
    levels = np.atleast_2d(levels)
    m, k = levels.shape
    fixed = np.asarray(fixed_thresholds, dtype=float)
    fixed = np.broadcast_to(fixed, (m, fixed.shape[-1]))
    if np.isnan(levels).any() or np.isnan(fixed).any():
        raise NoSolution("nan base level or fixed threshold")
    if not np.isfinite(levels).all():
        raise NoSolution("infinite base level")
    if (levels < 0.0).any():
        raise NoSolution("negative base level")
    target = np.asarray(target, dtype=float)
    target = target if target.ndim else np.full(m, target)
    outside = ~((0.0 < target) & (target < 0.5))
    if outside.any():
        raise NoSolution(f"target {target[outside][0]} must lie in (0, 0.5)")
    # validated once: any principal submatrix of the result is valid too
    corr = _validated_correlation(corr)
    n = k + fixed.shape[1]
    if corr.shape[-1] != n:
        raise InvalidCorrelation(
            "correlation size does not match scaled plus fixed components")
    if corr.ndim == 2:
        corr = np.broadcast_to(corr, (m, n, n))

    active = np.concatenate((levels > 0.0, ~np.isneginf(fixed)), axis=1)
    if active.all():
        xi = _newton(levels, fixed, corr, target)
        return xi if block else float(xi[0])
    code = (active << np.arange(n)).sum(axis=1)
    xi = np.empty(m)
    for c in np.unique(code):
        rows = np.flatnonzero(code == c)
        keep = active[rows[0]]
        if not keep.any():
            raise NoSolution("no active components")
        if not keep[:k].any():
            raise NoSolution("no scalable components")
        xi[rows] = _newton(levels[np.ix_(rows, np.flatnonzero(keep[:k]))],
                           fixed[np.ix_(rows, np.flatnonzero(keep[k:]))],
                           corr[rows][:, keep][:, :, keep], target[rows])
    return xi if block else float(xi[0])


def _newton(levels, fixed, corr, target) -> np.ndarray:
    """``solve_inflation``'s iteration on rows whose every component is
    active: levels (g, k) > 0, finite or +inf thresholds (g, j).  The
    iteration's arrays hold only the rows still iterating, whose positions
    are ``rows``; a row leaves them once its factor is in ``out``."""

    def bounds(xi, levels, fixed):
        return np.concatenate((ndtri(xi[:, None] * levels), fixed), axis=1)

    def f(b, corr):
        return 1.0 - _upper_orthant(b, corr)

    def slope(b, levels, corr):
        total = 0.0
        for k in range(levels.shape[1]):
            total = total + levels[:, k] * _conditional_upper(b, corr, k)
        return total

    xi_max = 0.499 / levels.max(axis=1)
    xi = np.ones(len(target))
    b = bounds(xi, levels, fixed)
    f_xi = f(b, corr)
    over = np.flatnonzero(f_xi > target + 1e-12)
    if over.size:
        i = over[0]
        raise NoSolution(
            f"rejection probability {f_xi[i]:.6g} at xi=1 already exceeds "
            f"target {target[i]:.6g}")
    out = np.where(np.abs(f_xi - target) <= 1e-12, 1.0, np.nan)
    rows = np.flatnonzero(np.isnan(out))
    if (xi_max[rows] <= 1.0).any():
        raise NoSolution("bracket empty: max level too close to 0.5")
    # f(lo) < target throughout; f(hi) >= target once known
    xi, lo, hi, known = xi[rows], xi[rows], xi_max[rows], np.zeros(
        len(rows), dtype=bool)
    b, f_xi, levels, fixed, corr, target = (
        a[rows] for a in (b, f_xi, levels, fixed, corr, target))
    for _ in range(_MAX_STEPS):
        if not rows.size:
            return out
        step = (target - f_xi) / np.maximum(slope(b, levels, corr), 1e-300)
        new = xi + step
        done = (np.abs(step) <= XI_TOL) & (lo <= new) & (new <= hi)
        out[rows[done]] = new[done]
        xi = new
        stray = ~done & ~((lo < xi) & (xi < hi))
        probe = stray & ~known
        if probe.any():
            at = np.flatnonzero(probe)
            f_hi = f(bounds(hi[at], levels[at], fixed[at]), corr[at])
            short = np.flatnonzero(f_hi < target[at] - 1e-12)
            if short.size:
                j = at[short[0]]
                raise NoSolution(
                    f"target {target[j]:.6g} unreachable: rejection "
                    f"probability at xi={hi[j]:.6g} is {f_hi[short[0]]:.6g}")
            top = at[f_hi < target[at]]
            out[rows[top]] = hi[top]
            done[top] = True
            known |= probe
        xi = np.where(stray, 0.5 * (lo + hi), xi)
        if done.any():
            rows, xi, lo, hi, known, levels, fixed, corr, target = (
                a[~done] for a in (rows, xi, lo, hi, known, levels, fixed,
                                   corr, target))
        b = bounds(xi, levels, fixed)
        f_xi = f(b, corr)
        below = f_xi < target
        lo = np.where(below, xi, lo)
        hi = np.where(below, hi, xi)
        known |= ~below
        narrow = known & (hi - lo <= XI_TOL)
        if narrow.any():
            out[rows[narrow]] = 0.5 * (lo[narrow] + hi[narrow])
            rows, xi, lo, hi, known, b, f_xi, levels, fixed, corr, target = (
                a[~narrow] for a in (rows, xi, lo, hi, known, b, f_xi, levels,
                                     fixed, corr, target))
    if rows.size:
        raise NoSolution(f"no convergence in {_MAX_STEPS} steps; xi in "
                         f"[{lo[0]:.9g}, {hi[0]:.9g}]")
    return out

"""Dyadic-grid quadrature on the unit interval.

All quantile-space integrals share one grid policy: 2^k cells with midpoint
evaluation (so probe points stay inside [2^-(k+1), 1 - 2^-(k+1)]), k refined
adaptively, and a doubling-truncation rule to decide divergence of improper
integrals.
"""

from __future__ import annotations

import math

import numpy as np

K_MIN = 10
K_MAX = 22
RTOL = 1e-8  # relative change between successive grids that stops the refinement
DIVERGENCE_Y0 = 1e12
DIVERGENCE_ATOL = 1e-6
DIVERGENCE_DOUBLINGS = 8


def cell_edges(k):
    return np.linspace(0.0, 1.0, (1 << k) + 1)


def cell_midpoints(k):
    n = 1 << k
    return (np.arange(n) + 0.5) / n


def _truncated_sum(values, weights, cap):
    return float(np.sum(np.minimum(values, cap) * weights))


def diverges(values, weights):
    """Doubling-truncation divergence test.

    The truncated integral at cap Y equals the exact integral of the payoff
    capped at Y.  If it keeps growing by more than DIVERGENCE_ATOL while Y
    doubles past DIVERGENCE_Y0 the integral is declared infinite.
    """
    cap = DIVERGENCE_Y0
    prev = _truncated_sum(values, weights, cap)
    for _ in range(DIVERGENCE_DOUBLINGS):
        cap *= 2.0
        cur = _truncated_sum(values, weights, cap)
        if cur - prev <= DIVERGENCE_ATOL:
            return False
        prev = cur
    return True


def stieltjes_integral(value_fn, weight_fn):
    """Adaptive value of integral value_fn(s) d(weight_fn)(s) over (0, 1).

    ``value_fn`` is evaluated at cell midpoints, ``weight_fn`` at cell edges
    (so the weight increments always sum to weight_fn(1) - weight_fn(0)).
    Returns math.inf when the doubling-truncation rule fires.
    """
    prev = None
    vals = weights = None
    for k in range(K_MIN, K_MAX + 1):
        edges = cell_edges(k)
        weights = np.diff(weight_fn(edges))
        vals = np.asarray(value_fn(cell_midpoints(k)), dtype=float)
        mask = weights != 0.0
        finite = np.isfinite(vals[mask])
        if not np.all(finite):
            if diverges(vals[mask], weights[mask]):
                return math.inf
            # capped contribution of the non-finite cells is negligible
            est = _truncated_sum(vals[mask], weights[mask], DIVERGENCE_Y0 * 2**DIVERGENCE_DOUBLINGS)
            return est
        est = float(np.sum(vals[mask] * weights[mask]))
        if prev is not None and abs(est - prev) <= RTOL * max(abs(est), 1e-12):
            return est
        prev = est
    if diverges(vals[mask], weights[mask]):
        return math.inf
    return prev


def _endpoint_power_fit(g_left, widths):
    """Integral of the first cell from a local power fit g ~ c*eps^b.

    ``g_left`` are |g| probes at distances ``widths`` from the endpoint
    (nearest first).  Returns None when the probes do not look like a clean
    one-signed power profile or the fitted exponent is not integrable.
    """
    g = np.asarray(g_left, dtype=float)
    if np.any(g <= 0.0) or not np.all(np.isfinite(g)):
        return None
    lw = np.log(widths)
    lg = np.log(g)
    b, logc = np.polyfit(lw, lg, 1)
    resid = lg - (b * lw + logc)
    if np.max(np.abs(resid)) > 0.1 or b <= -1.0 + 1e-9:
        return None
    cell = widths[0] * 2.0  # first cell width (probes sit at midpoints)
    return math.exp(logc) * cell ** (b + 1.0) / (b + 1.0)


def unit_integral(g_fn):
    """Adaptive integral of g over (0, 1) by midpoint sums on dyadic grids.

    First and last cells may be replaced by a local power-law fit of |g|,
    which removes most of the bias from integrable endpoint singularities.
    Returns (value, converged).
    """
    prev = None
    est = None
    for k in range(K_MIN, K_MAX + 1):
        mids = cell_midpoints(k)
        vals = np.asarray(g_fn(mids), dtype=float)
        if not np.all(np.isfinite(vals)):
            return math.inf, False
        est = float(np.mean(vals))
        n = vals.size
        for side in ("lo", "hi"):
            probes = vals[:4] if side == "lo" else vals[::-1][:4]
            sign = np.sign(probes[0])
            if sign == 0 or np.any(np.sign(probes) != sign):
                continue
            widths = (np.arange(4) + 0.5) / n
            corr = _endpoint_power_fit(sign * probes, widths)
            if corr is not None:
                est += sign * corr - probes[0] / n
        if prev is not None and abs(est - prev) <= RTOL * max(abs(est), 1e-12):
            return est, True
        prev = est
    return est, False

"""Dyadic-grid quadrature on the unit interval, for kernel moments.

``unit_integral`` takes midpoint sums on 2^k cells (so probe points stay
inside [2^-(k+1), 1 - 2^-(k+1)]) and doubles the cell count from 2^K_MIN
until two successive sums agree to RTOL.

A uniform grid cannot see a tail whose mass sits at 1 - x ~ 1e-22, so the
integrand of a kernel moment arrives already mapped: ``market`` writes
E[rho^p] over the normal score z = c log(t / (1 - t)) of t in (0, 1), which
puts every tail level within a few cells of the ends (the idea behind
Takahasi & Mori's double-exponential rules, 1974).  c is fixed by
K_MIN, not tuned: the outermost midpoint of the coarsest grid,
t = 2^-(K_MIN+1), lands at |z| = 38.6, where phi(z) underflows, which gives
c = 38.6 / (11 log 2), about 5.  Each finer grid reaches 3.5 further in z.
"""

from __future__ import annotations

import math

import numpy as np

K_MIN = 10
K_MAX = 22
RTOL = 1e-8  # relative change between successive grids that stops the refinement


def cell_midpoints(k):
    n = 1 << k
    return (np.arange(n) + 0.5) / n


def unit_integral(g_fn):
    """Adaptive integral of g over (0, 1) by midpoint sums on dyadic grids.

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
        if prev is not None and abs(est - prev) <= RTOL * max(abs(est), 1e-12):
            return est, True
        prev = est
    return est, False


# No cptq caller below here: bench/tracing.layer_map wraps stieltjes_integral by name.
DIVERGENCE_Y0 = 1e12
DIVERGENCE_ATOL = 1e-6
DIVERGENCE_DOUBLINGS = 8


def cell_edges(k):
    return np.linspace(0.0, 1.0, (1 << k) + 1)


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

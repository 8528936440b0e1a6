"""Quantile-profile solver for the discretized portfolio problem.

In a complete market the choice of terminal wealth reduces to the choice of
a non-decreasing quantile profile q on (0, 1), held anti-comonotone with the
pricing kernel: X = q(1 - U) with U = F_rho(rho).  On an N-cell grid the
value is the separable rank-weighted sum of f_i(q_i) = gain_weights[i]
u+(q_i+) - loss_weights[i] u-(q_i-) and the cost is sum_i state_prices[i] q_i,
both exact, with no quadrature error.

The solver is the Lagrangian method of the quantile formulation (He & Zhou,
"Portfolio choice via quantiles", Math. Finance 2011) on a fixed lattice of
levels: for a multiplier lam, the forward pass V_0 = g_0, V_i = g_i +
prefix-max(V_{i-1}) with g_i(l) = f_i(l) - lam state_prices[i] l gives the
best non-decreasing lattice profile exactly.  lam is doubled until that
profile fits the budget; the dual (the sweep's best sum + lam x0) is convex
and piecewise linear, so Kelley's cutting-plane step ("The cutting-plane
method for solving convex programs", SIAM J. 1960) then finds its minimiser
exactly.  The objective is not concave, so the best
profile within budget may sit below the dual bound by a duality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .attainability import check_growth_condition
from .choquet import CPTValue, DiscreteLaw
from .errors import InfeasibleError, ParameterError
from .functions import AssociatedDistortion, write_table_csv

FEAS_TOL = 1e-6
GAP_RTOL = 1e-6
# lattice: 0 and LATTICE_SIDE geometric levels on each side, spanning
# LATTICE_SPAN in units of max(|x0|, 1)
LATTICE_SPAN = (1e-3, 1e4)
LATTICE_SIDE = 1000
CUT_RTOL = 1e-12  # a cut rising no higher above the bracket's lines ends the search
MAX_CUTS = 50  # safety cap


@dataclass
class SolveOptions:
    """The admissible box of quantile levels and the bookkeeping settings."""

    q_min: float = -math.inf
    q_max: float = math.inf
    eta_moment: float = 1.2
    delta: float | None = None  # existence-regime bookkeeping when provided


@dataclass
class SolveDiagnostics:
    """Sweep trace and the certificate of the returned profile.

    ``iterates`` counts the sweeps.  Each sweep within budget adds the running
    best value and its E[(X^-)^eta] to the traces and its profile to
    ``snapshots``; the traces' last entry is the returned profile.  ``gap`` is
    ``bound - value`` (see ``solve``), negative when spending the budget slack
    beat the bound.  ``box_binds``: the profile reaches the lowest or highest
    lattice level.  ``restarts`` is always 0.
    """

    iterates: int = 0
    value_trace: list = field(default_factory=list)
    neg_moment_trace: list = field(default_factory=list)
    restarts: int = 0
    converged: bool = False
    existence: dict | None = None
    snapshots: list = field(default_factory=list)
    bound: float = math.inf
    gap: float = math.inf
    box_binds: bool = False


class QuantilePortfolio:
    """Non-decreasing step quantile profile with its valuation context."""

    def __init__(self, q, kernel, u_plus, u_minus, w_plus, w_minus):
        q = np.asarray(q, dtype=float)
        if np.any(np.diff(q) < 0):
            raise ParameterError("quantile profile must be non-decreasing")
        self.q = q
        self.kernel = kernel
        self.u_plus = u_plus
        self.u_minus = u_minus
        self.w_plus = w_plus
        self.w_minus = w_minus
        grid = _Grid(kernel, u_plus, u_minus, w_plus, w_minus, q.size)
        self.grid = grid.p_mid
        self.cost = grid.cost(q)
        self.cpt = grid.cpt(q)

    @property
    def law(self):
        n = self.q.size
        return DiscreteLaw(self.q, np.full(n, 1.0 / n))

    def neg_moment(self, eta):
        return _neg_moment(self.q, eta)

    def to_csv(self, path, header_lines=()):
        write_table_csv(path, ("p", "q"), zip(self.grid, self.q), header_lines)


class _Grid:
    """Precomputed cell weights shared by all evaluations at one size N."""

    def __init__(self, kernel, u_plus, u_minus, w_plus, w_minus, n_cells):
        self.u_plus = u_plus
        self.u_minus = u_minus
        edges = np.arange(n_cells + 1) / n_cells
        self.p_mid = (np.arange(n_cells) + 0.5) / n_cells
        # cell i of the profile occupies kernel states (1 - i/N, 1 - (i-1)/N)
        tails = np.asarray(kernel.tail_expectation(edges), dtype=float)
        self.state_prices = np.diff(tails)
        self.total_price = float(tails[-1])
        # rank-dependent weights: gains ranked from the top cell down,
        # losses from the bottom cell up
        w_plus_edges = np.asarray(w_plus(edges), dtype=float)
        self.gain_weights = np.diff(w_plus_edges)[::-1].copy()
        w_minus_edges = np.asarray(w_minus(edges), dtype=float)
        self.loss_weights = np.diff(w_minus_edges)

    def cost(self, q):
        return float(np.dot(q, self.state_prices))

    def value(self, q):
        return self.cpt(q).total

    def cpt(self, q):
        gains = np.maximum(q, 0.0)
        losses = np.maximum(-q, 0.0)
        return CPTValue(
            v_plus=float(np.dot(self.gain_weights, self.u_plus(gains))),
            v_minus=float(np.dot(self.loss_weights, self.u_minus(losses))),
        )


def solve(kernel, u_plus, u_minus, w_plus, w_minus, x0, n_cells=512, opts=None):
    """Best non-decreasing quantile profile within budget, by Lagrangian sweeps.

    Returns ``(portfolio, diagnostics)``.  ``diagnostics.bound`` is the dual
    minimum over lattice profiles (see ``_multiplier_search``): it bounds
    every non-decreasing profile on the level lattice that costs at most
    ``x0``; profiles off the lattice are not covered by it.  When
    ``opts.delta`` is given the existence-regime conditions (loss distortion
    dominating the associated threshold family, growth regularity of the
    loss utility) are evaluated and recorded in the diagnostics; runs
    outside the regime proceed, since watching the loss moments blow up is
    exactly how non-existence shows.
    """
    opts = opts or SolveOptions()
    if opts.q_min > opts.q_max:
        raise ParameterError("empty box: q_min above q_max")
    grid = _Grid(kernel, u_plus, u_minus, w_plus, w_minus, n_cells)
    if opts.q_min * grid.total_price > x0 + FEAS_TOL:
        raise InfeasibleError("cheapest admissible profile already exceeds the budget")
    diag = SolveDiagnostics()
    if opts.delta is not None:
        diag.existence = _existence_record(u_minus, w_minus, opts.delta)

    levels = _lattice(x0, opts.q_min, opts.q_max)
    gains = np.asarray(u_plus(np.maximum(levels, 0.0)), dtype=float)
    losses = np.asarray(u_minus(np.maximum(-levels, 0.0)), dtype=float)
    payoff = np.outer(grid.gain_weights, gains) - np.outer(grid.loss_weights, losses)
    best = (-math.inf, None)

    def sweep(lam):
        nonlocal best
        g = np.outer(grid.state_prices, -lam * levels)
        g += payoff  # in place: one cell-by-level array per sweep
        top, idx = _sweep(g)
        diag.iterates += 1
        diag.bound = min(diag.bound, top + lam * x0)
        q = levels[idx]
        cost = grid.cost(q)
        within = cost <= x0 + FEAS_TOL
        if within:
            value = grid.value(q)
            if value > best[0]:
                best = (value, q)
            diag.value_trace.append(best[0])
            diag.neg_moment_trace.append(_neg_moment(best[1], opts.eta_moment))
            diag.snapshots.append((diag.iterates, q))
        return _Swept(lam, q, cost, top + lam * cost, within)

    lo, hi = _multiplier_search(sweep)

    # spend the budget slack: raise the best profile from the top, or mix
    # the bracketing profiles so that the mix costs exactly x0
    candidates = [_raise_from_top(best[1], grid.state_prices,
                                  x0 - grid.cost(best[1]), opts.q_max)]
    if lo is not None:
        t = min((lo.cost - x0) / (lo.cost - hi.cost), 1.0)
        candidates.append((1.0 - t) * lo.q + t * hi.q)
    q = max(candidates, key=grid.value)
    value = grid.value(q)
    diag.value_trace.append(value)
    diag.neg_moment_trace.append(_neg_moment(q, opts.eta_moment))
    diag.gap = diag.bound - value
    diag.converged = diag.gap <= GAP_RTOL * max(1.0, abs(value))
    diag.box_binds = bool(q[0] <= levels[0] or q[-1] >= levels[-1])
    portfolio = QuantilePortfolio(q, kernel, u_plus, u_minus, w_plus, w_minus)
    if portfolio.cost > x0 + FEAS_TOL:
        raise InfeasibleError("returned profile violates the budget")  # pragma: no cover
    return portfolio, diag


class _Swept(NamedTuple):
    """A multiplier and its sweep's profile, with that profile's cost and value."""

    lam: float
    q: np.ndarray
    cost: float
    value: float
    within: bool


def _multiplier_search(sweep):
    """The bracketing sweeps ``(lo, hi)`` at the dual minimiser.

    ``hi`` fits the budget and ``lo`` does not (None when lam = 0 fits).
    After the doubling, each step sweeps where the Lagrangian lines value -
    lam cost of ``lo`` and ``hi`` cross: a sweep that does not rise above
    them shows both maximise the Lagrangian there, the dual minimiser.
    """
    lo, hi = None, sweep(0.0)
    while not hi.within:
        lo, hi = hi, sweep(max(2.0 * hi.lam, 1.0))
    for _ in range(MAX_CUTS if lo is not None else 0):
        lam = (lo.value - hi.value) / (lo.cost - hi.cost)
        if not lo.lam < lam < hi.lam:  # a floating-point tie at an end
            break
        line = hi.value - lam * hi.cost
        cut = sweep(lam)
        if cut.value - lam * cut.cost <= line + CUT_RTOL * max(1.0, abs(line)):
            break
        if cut.within:
            hi = cut
        else:
            lo = cut
    return lo, hi


def _lattice(x0, q_min, q_max):
    """Sorted sweep levels: 0 and the geometric levels of each side, clipped
    to the box, plus the box's finite ends."""
    s = max(abs(x0), 1.0)
    side = np.geomspace(LATTICE_SPAN[0] * s, LATTICE_SPAN[1] * s, LATTICE_SIDE)
    ends = [v for v in (q_min, q_max) if math.isfinite(v)]
    return np.unique(np.clip(np.concatenate((-side, [0.0], side, ends)), q_min, q_max))


def _sweep(g):
    """Best non-decreasing path through ``g[cell, level]``: (its sum, level indices).

    Overwrites row i of ``g`` with V_i, the best sum of a path ending at each
    level of cell i; the path is traced back through those rows.
    """
    n = g.shape[0]
    run = np.empty(g.shape[1])
    for i in range(1, n):
        np.maximum.accumulate(g[i - 1], out=run)
        g[i] += run
    idx = np.empty(n, dtype=np.intp)
    idx[-1] = np.argmax(g[-1])
    for i in range(n - 1, 0, -1):
        idx[i - 1] = np.argmax(g[i - 1, : idx[i] + 1])
    return float(g[-1, idx[-1]]), idx


def _raise_from_top(q, prices, slack, q_max):
    """``q`` with ``slack`` spent raising cells from the top, each up to the
    cell above it (the top cell up to ``q_max``)."""
    q = q.copy()
    ceiling = q_max
    for i in range(q.size - 1, -1, -1):
        if slack <= 0.0:
            break
        step = min(ceiling - q[i], slack / prices[i])
        q[i] += step
        slack -= step * prices[i]
        ceiling = q[i]
    return q


def _neg_moment(q, eta):
    return float(np.mean(np.maximum(-q, 0.0) ** eta))


def _existence_record(u_minus, w_minus, delta):
    """Grid check of the existence-regime hypotheses for bookkeeping."""
    record = {"delta": delta}
    if not math.isinf(u_minus.saturation):
        record["dominates_threshold_family"] = False
        record["growth_condition"] = "no"
        record["in_regime"] = False
        return record
    w_delta = AssociatedDistortion(u_minus, delta)
    ps = np.linspace(1e-9, 1.0, 513)
    dominates = bool(np.all(np.asarray(w_minus(ps)) >= np.asarray(w_delta(ps)) - 1e-12))
    record["dominates_threshold_family"] = dominates
    if 0 < delta < 1:
        growth = check_growth_condition(u_minus, delta)
        record["growth_condition"] = growth.holds
        record["in_regime"] = dominates and growth.holds == "yes"
    else:
        record["growth_condition"] = "not evaluated (delta outside (0,1))"
        record["in_regime"] = False
    return record


def lattice_oracle(kernel, u_plus, u_minus, w_plus, w_minus, x0, levels, n_cells):
    """Exhaustive search over monotone profiles drawn from a level set.

    Brute-force reference for small problems: enumerates all non-decreasing
    ``n_cells``-tuples of ``levels``, discards the budget-infeasible ones,
    and returns (best_value, best_profile).
    """
    from itertools import combinations_with_replacement

    grid = _Grid(kernel, u_plus, u_minus, w_plus, w_minus, n_cells)
    best_v, best_q = -math.inf, None
    for combo in combinations_with_replacement(sorted(levels), n_cells):
        q = np.asarray(combo, dtype=float)
        if grid.cost(q) > x0 + FEAS_TOL:
            continue
        v = grid.value(q)
        if v > best_v:
            best_v, best_q = v, q
    if best_q is None:
        raise InfeasibleError("no lattice profile satisfies the budget")
    return best_v, best_q


def tightness_report(diag, u_minus, delta, eta, zeta, threshold_fn):
    """Check every recorded iterate against the loss-moment control bound.

    Returns a dict with the per-snapshot margins and the worst case; zero
    violations is the numerical signature that the minimizing sequence keeps
    its loss mass uniformly tight.
    """
    from .attainability import loss_moment_bound

    rows = []
    violations = 0
    max_moment = 0.0
    for it, q in diag.snapshots:
        losses = np.maximum(-np.asarray(q, dtype=float), 0.0)
        n = losses.size
        law = DiscreteLaw(losses, np.full(n, 1.0 / n))
        lhs, rhs = loss_moment_bound(law, u_minus, delta, eta, zeta, threshold_fn)
        rows.append({"iterate": it, "moment": lhs, "bound": rhs, "margin": rhs - lhs})
        violations += lhs > rhs + 1e-9
        max_moment = max(max_moment, lhs)
    return {
        "eta": eta,
        "snapshots": rows,
        "violations": int(violations),
        "max_neg_moment": max_moment,
    }

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
best non-decreasing lattice profile exactly, and its traceback returns the
least of the tied best profiles.  lam is doubled until that profile fits the
budget; the dual (the sweep's best sum + lam x0) is convex and piecewise
linear, so Kelley's cutting-plane step ("The cutting-plane method for
solving convex programs", SIAM J. 1960) then finds its minimiser exactly.
The Lagrangian has increasing differences in (l, -lam) and the
non-decreasing profiles form a sublattice, so the least best profile is
non-increasing in lam (Topkis, "Minimizing a submodular function on a
lattice", Oper. Res. 1978): each sweep searches only the band between the
profiles of the nearest swept multipliers on either side.  Before the
forward pass, one vectorized pass gathers each band once, laid out flat,
and finds each cell's own best level in it; where those are non-decreasing
they are the least best profile (barring a tie in the rounded sums, which
the pass detects), and the running sum of the band maxima, the sweep's
best sum bit for bit (a zero as +0.0), answers the sweep.  Otherwise the
forward pass runs over the band, at a cost that scales with its area.  The
objective is not concave, so the best profile within budget may sit below
the dual bound by a duality gap.

The dual minimiser barely moves with N, so a solve on many cells first
finds it alone on COARSE_CELLS cells, sharing the lattice and its level
utilities, and brackets lam by steps around it instead of doubling up
from 0.  Since u(0) = 0, the payoff table is built from its halves: the
gain term on the levels >= 0, minus the loss term below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .choquet import CPTValue, DiscreteLaw
from .errors import InfeasibleError, ParameterError
from .functions import write_table_csv

FEAS_TOL = 1e-6
GAP_RTOL = 1e-6
# lattice: 0 and LATTICE_SIDE geometric levels on each side, spanning
# LATTICE_SPAN in units of max(|x0|, 1)
LATTICE_SPAN = (1e-3, 1e4)
LATTICE_SIDE = 1000
CUT_RTOL = 1e-12  # a cut rising no higher above the bracket's lines ends the search
MAX_CUTS = 50  # safety cap
COARSE_CELLS = 32  # solves on at least 4x as many cells start from this size's multiplier
WARM_STEP = 0.02  # first relative step from the coarse multiplier, then x4 per step
RECT_BLOCK = 1 << 16  # entries of g per block of rows when a band is searched whole


@dataclass
class SolveOptions:
    """The admissible box of quantile levels and the bookkeeping settings."""

    q_min: float = -math.inf
    q_max: float = math.inf
    eta_moment: float = 1.2


@dataclass
class SolveDiagnostics:
    """Sweep trace and the certificate of the returned profile.

    ``iterates`` counts the sweeps on the requested cells, not the coarse
    sweeps that warm-start the multiplier.  Each of them within budget
    adds the running best value and its E[(X^-)^eta] to the traces; the
    traces' last entry is the returned profile.
    ``gap`` is ``bound - value`` (see ``solve``), negative when spending the
    budget slack beat the bound; ``multiplier`` is the dual minimiser.
    ``bound``, ``gap`` and ``converged`` cover only profiles on the level
    lattice with the N uniform cells: a feasible profile off that class, such
    as one that splits a cell at the gain-loss jump, may beat a ``converged``
    value.
    ``box_binds``: the profile reaches the lowest or highest lattice level.
    ``restarts`` is always 0.
    """

    iterates: int = 0
    value_trace: list = field(default_factory=list)
    neg_moment_trace: list = field(default_factory=list)
    restarts: int = 0
    converged: bool = False
    bound: float = math.inf
    gap: float = math.inf
    multiplier: float = 0.0
    box_binds: bool = False


class QuantilePortfolio:
    """Non-decreasing step quantile profile with its cost and CPT value."""

    def __init__(self, q, kernel, u_plus, u_minus, w_plus, w_minus):
        q = np.asarray(q, dtype=float)
        if np.any(np.diff(q) < 0):
            raise ParameterError("quantile profile must be non-decreasing")
        self._on(_Grid(kernel, u_plus, u_minus, w_plus, w_minus, q.size), q)

    def _on(self, grid, q):
        """Take the profile ``q``, valued on ``grid``, a ``_Grid`` of its size."""
        self.q, self.grid, self.cost, self.cpt = q, grid.p_mid, grid.cost(q), grid.cpt(q)
        return self

    @property
    def law(self):
        n = self.q.size
        return DiscreteLaw(self.q, np.full(n, 1.0 / n))

    def to_csv(self, path, header_lines=()):
        write_table_csv(path, ("p", "q"), zip(self.grid.tolist(), self.q.tolist()), header_lines)


class _Grid:
    """Precomputed cell weights shared by all evaluations at one size N."""

    def __init__(self, kernel, u_plus, u_minus, w_plus, w_minus, n_cells):
        self.u_plus, self.u_minus = u_plus, u_minus
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

    def payoff(self, gain_u, loss_u):
        """f_i(l) on levels whose u+ is ``gain_u`` from 0 up, after levels
        below 0 whose u-(-l) is ``loss_u``."""
        zero = loss_u.size
        payoff = np.empty((self.p_mid.size, zero + gain_u.size))
        np.multiply.outer(self.gain_weights, gain_u, out=payoff[:, zero:])
        losses = np.multiply.outer(self.loss_weights, loss_u, out=payoff[:, :zero])
        np.subtract(0.0, losses, out=losses)
        return payoff

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
    ``x0``; profiles off the lattice are not covered by it.  The solver does
    not ask whether an optimum exists (``attainability.regime`` does): runs
    outside the existence regime proceed, since watching the loss moments
    blow up is exactly how non-existence shows.
    """
    opts = opts or SolveOptions()
    if opts.q_min > opts.q_max:
        raise ParameterError("empty box: q_min above q_max")
    grid = _Grid(kernel, u_plus, u_minus, w_plus, w_minus, n_cells)
    if opts.q_min * grid.total_price > x0 + FEAS_TOL:
        raise InfeasibleError("cheapest admissible profile already exceeds the budget")
    diag = SolveDiagnostics()
    levels = _lattice(x0, opts.q_min, opts.q_max)
    utilities = (u_plus(levels[levels >= 0.0]), u_minus(-levels[levels < 0.0]))

    start = 0.0
    if n_cells >= 4 * COARSE_CELLS:
        coarse = _Grid(kernel, u_plus, u_minus, w_plus, w_minus, COARSE_CELLS)
        start = _warm_multiplier(coarse, levels, coarse.payoff(*utilities), x0)
    payoff = grid.payoff(*utilities)
    best = (-math.inf, None)
    profiles = {}  # level indices of the profile of each swept multiplier

    def sweep(lam):
        nonlocal best
        top, swept = _lagrangian_sweep(grid, levels, payoff, profiles, lam, x0)
        diag.iterates += 1
        diag.bound = min(diag.bound, top + lam * x0)
        if swept.within:
            value = grid.value(swept.q)
            if value > best[0]:
                best = (value, swept.q)
            diag.value_trace.append(best[0])
            diag.neg_moment_trace.append(_neg_moment(best[1], opts.eta_moment))
        return swept

    lo, hi = _multiplier_search(sweep, start)

    # spend the budget slack: raise the best profile from the top, or mix
    # the bracketing profiles so that the mix costs exactly x0
    candidates = [_raise_from_top(best[1], grid.state_prices,
                                  x0 - grid.cost(best[1]), opts.q_max)]
    if lo is not None:
        t = min((lo.cost - x0) / (lo.cost - hi.cost), 1.0)
        candidates.append((1.0 - t) * lo.q + t * hi.q)
    diag.multiplier = _dual_minimiser(lo, hi)
    value, q = max(((grid.value(c), c) for c in candidates), key=lambda vc: vc[0])
    diag.value_trace.append(value)
    diag.neg_moment_trace.append(_neg_moment(q, opts.eta_moment))
    diag.gap = diag.bound - value
    diag.converged = diag.gap <= GAP_RTOL * max(1.0, abs(value))
    diag.box_binds = bool(q[0] <= levels[0] or q[-1] >= levels[-1])
    portfolio = QuantilePortfolio.__new__(QuantilePortfolio)._on(grid, q)
    if portfolio.cost > x0 + FEAS_TOL:
        raise InfeasibleError("returned profile violates the budget")  # pragma: no cover
    return portfolio, diag


def _warm_multiplier(grid, levels, payoff, x0):
    """The dual minimiser ``solve`` would report on ``grid``'s cells, found
    by the same sweeps without valuing, tracing or returning a profile."""
    profiles = {}
    return _dual_minimiser(*_multiplier_search(
        lambda lam: _lagrangian_sweep(grid, levels, payoff, profiles, lam, x0)[1]))


def _lagrangian_sweep(grid, levels, payoff, profiles, lam, x0):
    """The sweep at ``lam``, (best sum, ``_Swept``), its level indices added
    to ``profiles``.  The nearest larger swept multiplier's profile bounds
    it from below, the nearest smaller one's from above.  Each profile lies
    in its own band, so the swept profiles stay ordered and every band is
    whole, rounding or not, whatever order the multipliers come in."""
    above = min((m for m in profiles if m >= lam), default=None)
    below = max((m for m in profiles if m <= lam), default=None)
    n, size = payoff.shape
    lower = np.zeros(n, dtype=np.intp) if above is None else profiles[above]
    upper = np.full(n, size - 1, dtype=np.intp) if below is None else profiles[below]
    neg_levels = -lam * levels
    top, idx = (_own_best(payoff, grid.state_prices, neg_levels, lower, upper)
                or _sweep(payoff, grid.state_prices, neg_levels, lower, upper))
    profiles[lam] = idx
    q = levels[idx]
    cost = grid.cost(q)
    return top, _Swept(lam, q, cost, top + lam * cost, cost <= x0 + FEAS_TOL)


def _dual_minimiser(lo, hi):
    """Where the Lagrangian lines of the bracketing sweeps cross, clipped
    into their multipliers; 0 when lam = 0 fits (``lo`` None)."""
    return 0.0 if lo is None else min(max((lo.value - hi.value) / (lo.cost - hi.cost),
                                          lo.lam), hi.lam)


class _Swept(NamedTuple):
    """A multiplier and its sweep's profile, with that profile's cost and value."""

    lam: float
    q: np.ndarray
    cost: float
    value: float
    within: bool


def _multiplier_search(sweep, start=0.0):
    """The bracketing sweeps ``(lo, hi)`` at the dual minimiser.

    ``hi`` fits the budget and ``lo`` does not (None when lam = 0 fits).  The
    bracket comes from doubling up from lam = 0, or from steps start (1 -+ s)
    away from a positive ``start``, s growing fourfold from WARM_STEP.  Then
    each step sweeps where the Lagrangian lines value - lam cost of ``lo`` and
    ``hi`` cross: a sweep that does not rise above them shows both maximise
    the Lagrangian there, the dual minimiser.
    """
    lo, hi, step = None, sweep(start), WARM_STEP
    while start and hi.within and lo is None and hi.lam > 0.0:
        cut = sweep(max(start * (1.0 - step), 0.0))
        step *= 4.0
        lo, hi = (lo, cut) if cut.within else (cut, hi)
    while not hi.within:
        lo, hi = hi, sweep(start * (1.0 + step) if start else max(2.0 * hi.lam, 1.0))
        step *= 4.0
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


def _sweep(payoff, prices, neg_levels, lo, hi):
    """Best non-decreasing path through g[i, l] = prices[i] neg_levels[l] +
    payoff[i, l] with cell i's level index in ``[lo[i], hi[i]]``: (its sum,
    +0.0 if zero, level indices).

    ``lo`` and ``hi`` are non-decreasing with ``lo <= hi``.  Row i is built
    over its band only and holds the running prefix max of V_i, the best sum
    of a path ending at each level; a running max keeps the first argmax of
    every prefix, so the traceback, taking the first argmax, returns the
    least maximiser (the cellwise minimum of all best paths).
    """
    lo, hi = lo.tolist(), (hi + 1).tolist()
    rows = []
    for i, (a, b, price) in enumerate(zip(lo, hi, prices.tolist())):
        row = price * neg_levels[a:b]
        row += payoff[i, a:b]
        if i:
            # the levels up to the previous band's top add its running max
            # there, the levels above add its overall max
            prev, k = rows[-1], min(b, hi[i - 1]) - a
            if k > 0:
                row[:k] += prev[a - lo[i - 1]: a - lo[i - 1] + k]
            if k < b - a:
                row[max(k, 0):] += prev[-1]
        np.maximum.accumulate(row, out=row)
        rows.append(row)
    idx, n = lo.copy(), len(rows)
    for i in range(n - 1, -1, -1):
        k = (hi[i] if i == n - 1 else min(idx[i + 1] + 1, hi[i])) - lo[i]
        idx[i] += int(rows[i][:k].argmax()) if k > 1 else 0
    return float(rows[-1][-1]) + 0.0, np.array(idx, dtype=np.intp)


def _own_best(payoff, prices, neg_levels, lo, hi):
    """``_sweep``'s answer (best sum, level indices), found without its
    forward pass, when the indices are each cell's own first argmax l* of
    g[i, l] = prices[i] neg_levels[l] + payoff[i, l] over its band
    ``[lo[i], hi[i]]``; None otherwise.

    If l* is non-decreasing, no monotone path takes a larger g in any cell,
    and rounded addition is monotone in each term, so the running sums S of
    the band maxima g(l*) are the sweep's row maxima, the last its best sum
    by the very operations ``_sweep`` uses on one-level bands.  The
    traceback moves cell i below l*[i] only where a lower level's row value
    reaches S[i] too.  That value is at most S[i - 1] plus the cell's best g
    from l*[i - 1] up, or the previous cell's such bound plus its best g
    below l*[i - 1]: l* is returned when every bound stays below S.  A band
    with one side at the lattice's end is searched in blocks of rows, each
    over its own bounding rectangle of levels in one reused buffer, any
    other band laid out flat, cell after cell, in one gather.  Each g is the
    product and sum ``_sweep`` forms, so the roundings agree; a zero is +0.0.
    """
    n = lo.size
    at = np.empty(n + 1, dtype=np.intp)  # at[i + 1] is cell i's argmax
    at[0] = lo[0]
    if lo[-1] == 0 or hi[0] == payoff.shape[1] - 1:
        width = int(hi[-1] - lo[0]) + 1
        rows = max(1, RECT_BLOCK // width)
        buffer = np.empty(min(rows, n) * width)
        top, lower, upper = np.empty((3, n))  # g(l*); best g below, above l*[i - 1]
        for s in range(0, n, rows):
            e = min(s + rows, n)
            a, b = int(lo[s]), int(hi[e - 1]) + 1  # the block's bounding rectangle
            g = buffer[:(e - s) * (b - a)].reshape(e - s, b - a)
            g[:] = neg_levels[a:b]
            g *= prices[s:e, None]
            g += payoff[s:e, a:b]
            origin = np.arange(-a, g.size - a, b - a)  # where each row's level 0 would sit
            at[s + 1:e + 1] = a + g.argmax(axis=1)
            end, g = origin + at[s + 1:e + 1], g.ravel()
            top[s:e] = g[end]
            lower[s:e], upper[s:e] = _below_best(g, origin + lo[s:e],
                                                 origin + np.maximum(at[s:e], lo[s:e]), end)
        if not ((lo <= at[1:]).all() and (at[1:] <= hi).all()):
            return None
    else:
        width = hi - lo + 1
        start = width.cumsum() - width  # where each cell's band starts in flat g
        shift = lo - start
        level = shift.repeat(width) + np.arange(start[-1] + width[-1])
        g = prices.repeat(width) * neg_levels.take(level)
        g += payoff.take(level + np.arange(0, payoff.size, payoff.shape[1]).repeat(width))
        top = np.maximum.reduceat(g, start)
        if np.isnan(top).any():
            return None
        hits = (g == top.repeat(width)).nonzero()[0]
        end = hits[hits.searchsorted(start)]
        at[1:] = end + shift
        lower, upper = _below_best(g, start, np.maximum(at[:-1] - shift, start), end)
    idx = at[1:]
    if not (idx[:-1] <= idx[1:]).all():
        return None
    sums = np.add.accumulate(top)
    before = np.concatenate(([0.0], sums[:-1]))
    if not (before + np.maximum(lower, upper) < sums).all():  # some lower V may reach S
        bound = -math.inf  # the best V below l*, cell by cell
        for s0, s1, low, up in zip(before.tolist(), sums.tolist(), lower.tolist(), upper.tolist()):
            bound = max(s0 + up, bound + low)
            if not bound < s1:
                return None
    return float(sums[-1]) + 0.0, idx


def _below_best(g, first, mid, end):
    """The best of flat ``g`` over each cell's positions ``[first[i],
    mid[i])`` and ``[mid[i], end[i])``, -inf where a range is empty."""
    ends = np.empty(3 * first.size, dtype=np.intp)
    ends[0::3], ends[1::3], ends[2::3] = first, mid, end
    best = np.maximum.reduceat(g, ends)
    return np.where(first < mid, best[0::3], -np.inf), np.where(mid < end, best[1::3], -np.inf)


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

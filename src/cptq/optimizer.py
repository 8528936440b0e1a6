"""Quantile-profile solver for the discretized portfolio problem.

In a complete market the choice of terminal wealth reduces to the choice of
a non-decreasing quantile profile q on (0, 1), held anti-comonotone with the
pricing kernel: X = q(1 - U) with U = F_rho(rho).  On an N-cell grid the
profile is a step function, its CPT value is an exact rank-weighted sum, and
its cost is a dot product with exact kernel cell masses, so value and cost
share one grid with no quadrature error.

The optimizer is projected coordinate ascent on the parameterization
q = base + cumsum(increments >= 0) (monotone by construction), with
multiplicative rescaling of the increments as the projection that keeps the
budget constraint active.  The objective is not concave, so the search is
restarted from several seeded profiles and only the best local maximum is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attainability import check_growth_condition
from .choquet import CPTValue, DiscreteLaw
from .errors import InfeasibleError, ParameterError
from .functions import AssociatedDistortion

FEAS_TOL = 1e-6


@dataclass
class SolveOptions:
    """Knobs of the coordinate-ascent search."""

    n_starts: int = 16
    max_iter: int = 10_000
    seed: int = 0
    step_init: float = 0.25
    q_min: float = -math.inf
    q_max: float = math.inf
    eta_moment: float = 1.2
    delta: float | None = None  # existence-regime bookkeeping when provided
    snapshot_cap: int = 200


@dataclass
class SolveDiagnostics:
    """Search trace: accepted values, loss-moment path, and iterate snapshots.

    ``value_trace`` follows the winning restart (non-decreasing by
    construction); ``neg_moment_trace`` collects E[(X^-)^eta] over the
    accepted iterates of every restart, in acceptance order, and the winning
    restart's entries start at ``value_trace_start``, so
    ``neg_moment_trace[value_trace_start + i]`` belongs to ``value_trace[i]``.
    """

    iterates: int = 0
    value_trace: list = field(default_factory=list)
    neg_moment_trace: list = field(default_factory=list)
    value_trace_start: int = 0
    restarts: int = 0
    converged: bool = False
    eta_moment: float = 1.2
    existence: dict | None = None
    snapshots: list = field(default_factory=list)


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
        return float(np.mean(np.maximum(-self.q, 0.0) ** eta))

    def to_csv(self, path, header_lines=()):
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("p,q\n")
            for p, v in zip(self.grid, self.q):
                fh.write(f"{repr(float(p))},{repr(float(v))}\n")


def value_and_cost(portfolio):
    """Valuation pair of a portfolio, both sides on the same cell grid."""
    return portfolio.cpt, portfolio.cost


class _Grid:
    """Precomputed cell weights shared by all evaluations at one size N."""

    def __init__(self, kernel, u_plus, u_minus, w_plus, w_minus, n_cells):
        self.n = n_cells
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
        gains = np.maximum(q, 0.0)
        losses = np.maximum(-q, 0.0)
        v_plus = float(np.dot(self.gain_weights, self.u_plus(gains)))
        v_minus = float(np.dot(self.loss_weights, self.u_minus(losses)))
        return v_plus - v_minus

    def cpt(self, q):
        gains = np.maximum(q, 0.0)
        losses = np.maximum(-q, 0.0)
        return CPTValue(
            v_plus=float(np.dot(self.gain_weights, self.u_plus(gains))),
            v_minus=float(np.dot(self.loss_weights, self.u_minus(losses))),
        )


class _State:
    """Ascent state: q = base + cumsum(d) with the base level funding the
    increments, so the budget stays active and every increment move is a
    pure reallocation."""

    def __init__(self, grid, x0, opts):
        self.grid = grid
        self.x0 = x0
        self.opts = opts
        # price of raising every cell from j on by one unit
        self.tail_prices = np.cumsum(grid.state_prices[::-1])[::-1]

    def project(self, d):
        """Budget-determined base for the increment shape d, box-respecting.

        Returns (base, d) with cost exactly x0 whenever the box allows;
        increments are rescaled multiplicatively when the floor or ceiling
        binds, which only releases budget.
        """
        opts = self.opts
        total = self.grid.total_price
        d = np.maximum(d, 0.0)
        lever = float(np.dot(d, self.tail_prices))
        base = (self.x0 - lever) / total
        if base < opts.q_min:
            if lever > 0.0:
                t = max((self.x0 - opts.q_min * total) / lever, 0.0)
                d = d * t
            base = opts.q_min
        if base > opts.q_max:
            base = opts.q_max
        spread = float(np.sum(d))
        if base + spread > opts.q_max:
            d = d * max((opts.q_max - base) / spread, 0.0)
        return base, d


def solve(kernel, u_plus, u_minus, w_plus, w_minus, x0, n_cells=512, opts=None):
    """Search for a value-maximal feasible quantile profile.

    Returns ``(portfolio, diagnostics)``.  When ``opts.delta`` is given the
    existence-regime conditions (loss distortion dominating the associated
    threshold family, growth regularity of the loss utility) are evaluated
    and recorded in the diagnostics; runs outside the regime proceed, since
    watching the loss moments blow up is exactly how non-existence shows.
    """
    opts = opts or SolveOptions()
    if opts.q_min > opts.q_max:
        raise ParameterError("empty box: q_min above q_max")
    grid = _Grid(kernel, u_plus, u_minus, w_plus, w_minus, n_cells)
    if opts.q_min * grid.total_price > x0 + FEAS_TOL:
        raise InfeasibleError(
            "cheapest admissible profile already exceeds the budget"
        )
    diag = SolveDiagnostics(eta_moment=opts.eta_moment)
    if opts.delta is not None:
        diag.existence = _existence_record(u_minus, w_minus, opts.delta)

    state = _State(grid, x0, opts)
    rng = np.random.default_rng(opts.seed)
    best = None  # (value, q, trace, converged, trace_start)
    eta = opts.eta_moment
    snap_stride = max(1, (opts.n_starts * opts.max_iter) // (50 * opts.snapshot_cap))

    for start in range(opts.n_starts):
        d = _initial_increments(start, rng, grid.n, x0, opts)
        base, d = state.project(d)
        q = _assemble(base, d)
        value = grid.value(q)
        trace = [value]
        trace_start = len(diag.neg_moment_trace)
        diag.neg_moment_trace.append(float(np.mean(np.maximum(-q, 0.0) ** eta)))
        if len(diag.snapshots) < opts.snapshot_cap:
            diag.snapshots.append((diag.iterates, q.copy()))
        scale = max(abs(x0), 1.0)
        mesh = opts.step_init * scale
        mesh_floor = 1e-9 * scale
        converged = False
        it = 0

        def propose(coord, step):
            nd = d.copy()
            nd[coord] = max(0.0, nd[coord] + step)
            nb, nd = state.project(nd)
            nq = _assemble(nb, nd)
            return nd, nq, grid.value(nq)

        # mesh-adaptive sweeps: within a visit the step doubles while the
        # move keeps improving (long monotone walks stay cheap); the mesh
        # itself halves only after a full sweep finds nothing, so fine
        # polishing happens on every coordinate at once
        while it < opts.max_iter and not converged:
            improved_round = False
            for coord in rng.permutation(grid.n):
                if it >= opts.max_iter:
                    break
                for direction in (1.0, -1.0):
                    step = mesh
                    while it < opts.max_iter:
                        it += 1
                        diag.iterates += 1
                        nd, nq, nv = propose(int(coord), direction * step)
                        if nv > value:
                            d, q, value = nd, nq, nv
                            trace.append(value)
                            diag.neg_moment_trace.append(
                                float(np.mean(np.maximum(-q, 0.0) ** eta))
                            )
                            if (len(diag.snapshots) < opts.snapshot_cap
                                    and diag.iterates % snap_stride == 0):
                                diag.snapshots.append((diag.iterates, q.copy()))
                            step *= 2.0
                            improved_round = True
                        else:
                            break
            if not improved_round:
                mesh *= 0.5
                if mesh <= mesh_floor:
                    converged = True
            else:
                mesh = min(mesh * 2.0, opts.step_init * scale)
        if best is None or value > best[0] or (
            value == best[0]
            and float(np.mean(np.maximum(-q, 0.0) ** eta))
            < float(np.mean(np.maximum(-best[1], 0.0) ** eta))
        ):
            best = (value, q, trace, converged, trace_start)
        diag.restarts += 1

    value, q, trace, converged, diag.value_trace_start = best
    diag.value_trace = trace
    diag.converged = converged
    portfolio = QuantilePortfolio(q, kernel, u_plus, u_minus, w_plus, w_minus)
    if portfolio.cost > x0 + FEAS_TOL:
        raise InfeasibleError("returned profile violates the budget")  # pragma: no cover
    return portfolio, diag


def _assemble(base, d):
    return base + np.cumsum(np.concatenate(([0.0], d)))[1:] if d.size else np.asarray([base])


def _initial_increments(start, rng, n, x0, opts):
    """Seeded monotone starting shapes: flat, ramp, then randomized.

    Only the increment shape matters; the projection funds it through the
    base level.
    """
    scale = max(abs(x0), 1.0)
    span = (opts.q_max - opts.q_min) if (
        math.isfinite(opts.q_min) and math.isfinite(opts.q_max)
    ) else 6.0 * scale
    if start == 0:
        return np.zeros(n)
    if start == 1:
        return np.full(n, span / n)
    return rng.exponential(1.0, n) * rng.random() * span / n


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

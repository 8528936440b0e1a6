"""Pricing-kernel models, regularity checks, and the budget functional.

The market enters only through the law of the pricing kernel rho (the
state-price density): the cost of a terminal payoff X is E_P[rho X].  For a
payoff arranged anti-comonotonically with rho, X = q_nu(1 - U) with
U = F_rho(rho), this cost becomes

    budget = integral_0^1 q_rho(x) q_nu(1 - x) dx,

the cheapest arrangement of the law nu (Hardy-Littlewood).  Kernels expose
exact partial expectations of q_rho so that step-quantile payoffs are priced
without quadrature error.  Table and discrete kernels share one tail
integral, ``_piecewise_tail``: a reverse cumsum of exact cell integrals, one
searchsorted per level and its partial cell (a discrete kernel is the step case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import _quad
from .choquet import DiscreteLaw, QuantileLaw
from .errors import DivergenceError, DomainError
from .functions import read_table_csv


class PricingKernel:
    """Base class for models of the law of rho.

    Each model declares ``continuous``: True when the law of rho has no
    atoms, i.e. its quantile function is strictly increasing.
    """

    model = "abstract"

    def quantile(self, p):
        raise NotImplementedError

    def quantile_upper(self, eps):
        """q_rho(1 - eps); overridden where tiny eps needs a stable form."""
        return self.quantile(1.0 - np.asarray(eps, dtype=float))

    def cdf(self, x):
        raise NotImplementedError

    def survival(self, x):
        """P{rho > x}; overridden where the complement loses precision."""
        return 1.0 - self.cdf(x)

    def tail_expectation(self, eps):
        """integral_{1-eps}^1 q_rho(x) dx, exact per model, stable for tiny eps."""
        raise NotImplementedError

    def continuity_evidence(self):
        """[p, q_rho(p)] points behind ``continuous``: a coarse quantile probe."""
        grid = np.linspace(1e-6, 1.0 - 1e-6, 257)[::32]
        return [[float(p), float(q)] for p, q in zip(grid, self.quantile(grid))]

    @property
    def mean(self):
        """E_P[rho] = total mass of the state-price density."""
        return self.tail_expectation(1.0)

    def moment(self, order):
        """(estimate, finite) for E[rho^order]; order may be negative."""
        def g(x):
            with np.errstate(over="ignore"):
                return self.quantile(x) ** order
        value, _ = _quad.unit_integral(g)
        if math.isinf(value):
            return math.inf, False
        return value, True


class LognormalKernel(PricingKernel):
    """Black-Scholes style kernel: log rho ~ N(-sigma^2/2, sigma^2).

    The location is pinned so that E_P[rho] = 1 (a change-of-measure density
    has unit mean).
    """

    model = "lognormal"
    continuous = True

    def __init__(self, sigma):
        if sigma <= 0:
            raise DomainError("lognormal kernel needs sigma > 0")
        self.sigma = float(sigma)
        self.mu = -0.5 * self.sigma ** 2

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainError("quantile level must lie in (0, 1)")
        out = np.exp(self.mu + self.sigma * ndtri(p))
        return float(out) if p.ndim == 0 else out

    def quantile_upper(self, eps):
        eps = np.asarray(eps, dtype=float)
        if np.any(eps <= 0.0) or np.any(eps >= 1.0):
            raise DomainError("tail level must lie in (0, 1)")
        out = np.exp(self.mu - self.sigma * ndtri(eps))
        return float(out) if eps.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = ndtr((np.log(x) - self.mu) / self.sigma)
        out = np.where(x <= 0.0, 0.0, out)
        return float(out) if x.ndim == 0 else out

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = ndtr(-(np.log(x) - self.mu) / self.sigma)
        out = np.where(x <= 0.0, 1.0, out)
        return float(out) if x.ndim == 0 else out

    def tail_expectation(self, eps):
        eps = np.asarray(eps, dtype=float)
        if np.any(eps < 0.0) or np.any(eps > 1.0):
            raise DomainError("tail mass must lie in [0, 1]")
        # integral over the top eps of the distribution: Phi-bar(z(eps) - sigma)
        with np.errstate(divide="ignore"):
            z = -ndtri(np.clip(eps, 0.0, 1.0))
        out = np.where(eps == 0.0, 0.0, np.where(eps == 1.0, 1.0, ndtr(-(z - self.sigma))))
        return float(out) if eps.ndim == 0 else out

    def continuity_evidence(self):
        return super().continuity_evidence()[::8]  # the probe's two ends

    def __repr__(self):
        return f"LognormalKernel(sigma={self.sigma})"


def _cell_edges(probs):
    """[0, cumulative probabilities], ending at 1.  Probabilities sum to 1 only
    within PROB_TOL: clipping keeps every cell's width non-negative."""
    edges = np.concatenate(([0.0], np.minimum(np.cumsum(probs), 1.0)))
    edges[-1] = 1.0
    return edges


def _piecewise_tail(edges, left, right, eps):
    """integral_{1-eps}^1 of a piecewise-linear quantile, for an array of eps.

    Cell i spans [edges[i], edges[i+1]] and runs linearly from left[i] to
    right[i]; a step quantile has left == right.  Cells may have zero width.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 0.0) or np.any(eps > 1.0):
        raise DomainError("tail mass must lie in [0, 1]")
    widths = np.diff(edges)
    # above[i]: integral over cells i, i+1, ...; above[-1] = 0
    above = np.append(np.cumsum((0.5 * (left + right) * widths)[::-1])[::-1], 0.0)
    lo = 1.0 - eps
    # the cell holding lo; side="right" never picks a zero-width cell below 1
    i = np.clip(np.searchsorted(edges, lo, side="right") - 1, 0, widths.size - 1)
    frac = np.divide(lo - edges[i], widths[i], out=np.zeros(np.shape(lo)), where=widths[i] > 0.0)
    q_lo = left[i] + (right[i] - left[i]) * frac
    out = above[i + 1] + 0.5 * (q_lo + right[i]) * (edges[i + 1] - lo)
    return float(out) if eps.ndim == 0 else out


class TableKernel(PricingKernel):
    """Kernel from a tabulated quantile function, piecewise linear between knots.

    Tables loaded from CSV must be strictly increasing; programmatic
    construction tolerates flat stretches (a kernel with atoms), which the
    regularity checks will then report.
    """

    model = "custom_quantile"

    def __init__(self, ps, qs, strict=False):
        ps = np.asarray(ps, dtype=float)
        qs = np.asarray(qs, dtype=float)
        if ps.ndim != 1 or ps.shape != qs.shape or ps.size < 2:
            raise DomainError("kernel table needs two equal-length columns")
        if ps[0] != 0.0 or ps[-1] != 1.0:
            raise DomainError("kernel table must cover probability range [0, 1]")
        if not np.all(np.diff(ps) > 0):
            raise DomainError("probability knots must be strictly increasing")
        if not np.all(qs > 0.0):
            raise DomainError("kernel quantile values must be positive")
        dq = np.diff(qs)
        if strict and np.any(dq <= 0):
            raise DomainError("kernel quantile table must be strictly increasing")
        if np.any(dq < 0):
            raise DomainError("kernel quantile table must be non-decreasing")
        self.ps = ps
        self.qs = qs

    @classmethod
    def from_csv(cls, path):
        ps, qs, _ = read_table_csv(path, "p")
        return cls(ps, qs, strict=True)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise DomainError("quantile level must lie in [0, 1]")
        out = np.interp(p, self.ps, self.qs)
        return float(out) if p.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        # flat quantile stretches are atoms: keep the right-most knot of each
        # repeated value so the cdf jumps across the atom's full mass
        last = np.concatenate((self.qs[1:] != self.qs[:-1], [True]))
        out = np.interp(x, self.qs[last], self.ps[last], left=0.0, right=1.0)
        return float(out) if x.ndim == 0 else out

    def tail_expectation(self, eps):
        return _piecewise_tail(self.ps, self.qs[:-1], self.qs[1:], eps)

    @property
    def continuous(self):
        return bool(np.all(np.diff(self.qs) > 0.0))

    def continuity_evidence(self):
        """The knots bounding flat stretches (atoms), if there are any."""
        flat = np.flatnonzero(np.diff(self.qs) <= 0.0)
        knots = np.union1d(flat, flat + 1)[:8]
        evidence = [[float(self.ps[i]), float(self.qs[i])] for i in knots]
        return evidence or super().continuity_evidence()

    def __repr__(self):
        return f"TableKernel({self.ps.size} knots)"


class DiscreteKernel(PricingKernel):
    """Kernel taking finitely many values; for unit tests and toy markets.

    Violates the continuous-distribution regularity check by design.
    """

    model = "custom_quantile"
    continuous = False

    def __init__(self, values, probs):
        law = DiscreteLaw(values, probs)  # validates
        order = np.argsort(law.values, kind="stable")
        self.values = law.values[order]
        self.probs = law.probs[order]
        if np.any(self.values <= 0.0):
            raise DomainError("kernel values must be positive")
        self.edges = _cell_edges(self.probs)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise DomainError("quantile level must lie in [0, 1]")
        idx = np.clip(np.searchsorted(self.edges[1:], p, side="left"), 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if p.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = self.edges[np.searchsorted(self.values, x, side="right")]
        return float(out) if x.ndim == 0 else out

    def tail_expectation(self, eps):
        return _piecewise_tail(self.edges, self.values, self.values, eps)

    def __repr__(self):
        return f"DiscreteKernel({self.values.size} states)"


# ---------------------------------------------------------------------------
# regularity checks


@dataclass
class MomentProbe:
    order: float
    positive: float
    positive_finite: bool
    negative: float
    negative_finite: bool

    def as_dict(self):
        return {
            "order": self.order,
            "E[rho^p]": self.positive,
            "E[rho^p]_finite": self.positive_finite,
            "E[rho^-p]": self.negative,
            "E[rho^-p]_finite": self.negative_finite,
        }


@dataclass
class AssumptionReport:
    """Numeric evidence for the market regularity conditions."""

    continuous_cdf: str
    continuous_evidence: list = field(default_factory=list)
    unbounded_above: str = "inconclusive"
    unbounded_evidence: list = field(default_factory=list)
    moments: list = field(default_factory=list)
    mean: float = math.nan

    @property
    def all_satisfied(self):
        return (
            self.continuous_cdf == "yes"
            and self.unbounded_above == "yes"
            and all(m.positive_finite and m.negative_finite for m in self.moments)
        )

    def as_dict(self):
        return {
            "continuous_cdf": self.continuous_cdf,
            "continuous_evidence": self.continuous_evidence,
            "unbounded_above": self.unbounded_above,
            "unbounded_evidence": self.unbounded_evidence,
            "moments": [m.as_dict() for m in self.moments],
            "mean": self.mean,
            "all_satisfied": self.all_satisfied,
        }


TAIL_LEVELS = 14  # the unboundedness probe reads q_rho(1 - 10^-j) for j = 1..TAIL_LEVELS


def check_assumptions(kernel, moment_orders=(1, 2, 4, 8, 16)):
    """Probe the kernel's regularity: continuity, unbounded top, all moments.

    The verdicts are numeric evidence on finite ladders, not proofs; every
    probe is recorded in the report.
    """
    report = AssumptionReport(continuous_cdf="yes" if kernel.continuous else "no",
                              continuous_evidence=kernel.continuity_evidence())

    levels = [10.0 ** -j for j in range(1, TAIL_LEVELS + 1)]
    top = [float(kernel.quantile_upper(e)) for e in levels]
    report.unbounded_evidence = [[e, q] for e, q in zip(levels, top)]
    growing = all(b > a for a, b in zip(top, top[1:]))
    if growing and top[-1] > 1.2 * top[len(top) // 2]:
        report.unbounded_above = "yes"
    elif top[-1] <= top[0] * (1.0 + 1e-12):
        report.unbounded_above = "no"
    else:
        report.unbounded_above = "no" if top[-1] < 1.0001 * top[len(top) // 2] else "inconclusive"

    for p in moment_orders:
        pos, pos_fin = kernel.moment(p)
        neg, neg_fin = kernel.moment(-p)
        report.moments.append(
            MomentProbe(order=float(p), positive=pos, positive_finite=pos_fin,
                        negative=neg, negative_finite=neg_fin)
        )
    report.mean = kernel.mean
    return report


# ---------------------------------------------------------------------------
# cost functional


def budget(kernel, law):
    """Cost of the payoff with law ``law`` arranged anti-comonotonically
    with the kernel: integral_0^1 q_rho(x) q_nu(1 - x) dx.

    Discrete laws are priced exactly through the kernel's partial
    expectations; quantile laws by adaptive quadrature.  A divergent
    negative part means the arrangement is inadmissible and raises.
    """
    return _cost(kernel, law, True)


def _cost(kernel, law, anti):
    """Anti-comonotone (``anti``) or comonotone cost of a law, a quantile
    law or a bare quantile function."""
    if isinstance(law, DiscreteLaw):
        return _budget_steps(kernel, law, anti)
    q_fn = law.quantile_fn if isinstance(law, QuantileLaw) else law
    if not callable(q_fn):
        raise DomainError(f"cannot price object of type {type(law).__name__}")
    return _budget_smooth(kernel, q_fn, anti)


def _budget_steps(kernel, law, anti):
    order = np.argsort(law.values, kind="stable")
    vals = law.values[order]
    edges = _cell_edges(law.probs[order])
    if anti:
        # payoff cell (c_{j-1}, c_j) occupies kernel states (1-c_j, 1-c_{j-1});
        # accumulate in tail space so tiny cells keep full precision
        masses = np.diff(kernel.tail_expectation(edges))
    else:
        masses = -np.diff(kernel.tail_expectation(1.0 - edges))
    return float(np.sum(vals * masses))


def _budget_smooth(kernel, q_fn, anti):
    def g(x):
        q_arg = 1.0 - x if anti else x
        with np.errstate(over="ignore"):  # infinities feed the divergence rule
            return np.asarray(kernel.quantile(x), dtype=float) * np.asarray(
                q_fn(q_arg), dtype=float
            )

    def g_pos(x):
        return np.maximum(g(x), 0.0)

    def g_neg(x):
        return np.maximum(-g(x), 0.0)

    neg, _ = _quad.unit_integral(g_neg)
    if math.isinf(neg):
        raise DivergenceError("negative part of the cost diverges; payoff inadmissible")
    pos, _ = _quad.unit_integral(g_pos)
    if math.isinf(pos):
        return math.inf
    return pos - neg


def hardy_littlewood_check(kernel, law):
    """Extreme costs of a payoff law over all couplings with the kernel.

    Returns (lower, upper): anti-comonotone and comonotone arrangements.
    Any joint arrangement with these marginals costs within the bracket.
    """
    return _cost(kernel, law, True), _cost(kernel, law, False)

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
The normal cdf Phi and its inverse come from the standard library
(``math.erfc`` and ``statistics.NormalDist.inv_cdf``, Wichura's AS241).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import _quad
from .choquet import DiscreteLaw
from .errors import DomainError
from .functions import read_table_csv

_SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_LO = -4.833646656726457e-17  # 1/sqrt 2 - _SQRT_HALF
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_CDF = NormalDist().inv_cdf
# Above s = -x / sqrt 2 = 5 a relative error u in s costs Phi(x) about
# 2 s^2 u, over 1e-14 at s = 7: there the rounding of s is put back
_TAIL_FIX_FROM = 5.0


def _split(a):
    """Dekker's split of a double into two halves of 26 bits: a = hi + lo."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


_C_HI, _C_LO = _split(_SQRT_HALF)


def _lost(x, s):
    """-x / sqrt 2 - s for s = fl(-x * _SQRT_HALF): the product's rounding,
    exact by Dekker's product, and the rounding of 1/sqrt 2 itself."""
    hi, lo = _split(x)
    return -((((hi * _C_HI + s) + hi * _C_LO) + lo * _C_HI) + lo * _C_LO) - x * _SQRT_HALF_LO


def _ndtr(x):
    """Phi(x) = erfc(-x / sqrt 2) / 2 elementwise; a float for a 0-d input.

    In the far lower tail the first-order term of what rounding -x / sqrt 2
    lost is added back, so Phi keeps its relative accuracy down to 1e-300.
    """
    if np.ndim(x) == 0:
        x = float(x)
        s = -_SQRT_HALF * x
        out = 0.5 * math.erfc(s)
        if _TAIL_FIX_FROM < s < math.inf:
            out -= _INV_SQRT_PI * math.exp(-s * s) * _lost(x, s)
        return out
    x = np.asarray(x, dtype=float)
    s = -_SQRT_HALF * x
    t = s.ravel().tolist()
    out = 0.5 * np.fromiter(map(math.erfc, t), float, len(t)).reshape(x.shape)
    far = (s > _TAIL_FIX_FROM) & (s < math.inf)
    if np.any(far):
        s, x = s[far], x[far]
        out[far] -= _INV_SQRT_PI * np.exp(-s * s) * _lost(x, s)
    return out


def _ndtri(p):
    """Phi^-1 elementwise on [0, 1], -inf at 0 and inf at 1; a float for a
    0-d input.  Only the interior levels reach ``inv_cdf``."""
    if np.ndim(p) == 0:
        p = float(p)
        return _INV_CDF(p) if 0.0 < p < 1.0 else -math.inf if p < 0.5 else math.inf
    p = np.asarray(p, dtype=float)
    out = np.where(p < 0.5, -math.inf, math.inf)
    inner = (p > 0.0) & (p < 1.0)
    t = p[inner].tolist()
    out[inner] = np.fromiter(map(_INV_CDF, t), float, len(t))
    return out


def _states(x):
    """The kernel states ``x`` as an array; a NaN state raises."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise DomainError("kernel state must be a number, not NaN")
    return x


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
        """(value, converged) for E[rho^order]; order may be negative.

        Integrates q_rho(Phi(z))^p phi(z) over the normal score z, mapped
        from t in (0, 1) by z = c log(t / (1 - t)) so that far tails get
        cells of their own (see ``_quad``).  The integrand is formed in logs
        from ``score_log_quantile``, so no moment a double holds overflows.
        """
        def g(t):
            z = _Z_SCALE * np.log(t / (1.0 - t))
            with np.errstate(over="ignore"):
                return (np.exp(order * self.score_log_quantile(z) - 0.5 * z * z)
                        * _DZ_DT / (t * (1.0 - t)))
        return _quad.unit_integral(g)

    def score_log_quantile(self, z):
        """log q_rho(Phi(z)) for an array of normal scores z.

        Above the median q_rho is read through ``quantile_upper``, so
        1 - Phi(z) is never rounded away.
        """
        upper = z > 0.0
        q = np.empty_like(z)
        q[~upper] = self.quantile(np.maximum(_ndtr(z[~upper]), TAIL_FLOOR))
        q[upper] = self.quantile_upper(np.maximum(_ndtr(-z[upper]), TAIL_FLOOR))
        return np.log(q)


TAIL_FLOOR = 1e-300  # tail probabilities below this reach the quantile as this
# Scale c of the score map z = c log(t / (1 - t)), derived from the coarsest
# grid: its outermost midpoint t = 2^-(K_MIN+1) lands at |z| = 38.6, where
# phi(z) underflows, so c = 38.6 / ((K_MIN + 1) log 2), about 5.
_Z_SCALE = math.sqrt(-2.0 * math.log(np.finfo(float).smallest_subnormal)) / (
    (_quad.K_MIN + 1) * math.log(2.0))
_DZ_DT = _Z_SCALE / math.sqrt(2.0 * math.pi)  # phi's constant times dz/dt * t(1 - t)


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
        if not np.all((p > 0.0) & (p < 1.0)):
            raise DomainError("quantile level must lie in (0, 1)")
        out = np.exp(self.mu + self.sigma * _ndtri(p))
        return float(out) if p.ndim == 0 else out

    def quantile_upper(self, eps):
        eps = np.asarray(eps, dtype=float)
        if not np.all((eps > 0.0) & (eps < 1.0)):
            raise DomainError("tail level must lie in (0, 1)")
        out = np.exp(self.mu - self.sigma * _ndtri(eps))
        return float(out) if eps.ndim == 0 else out

    def score_log_quantile(self, z):
        """log q_rho(Phi(z)) = mu + sigma z, exactly."""
        return self.mu + self.sigma * z

    def cdf(self, x):
        # log 0 = -inf sends every state x <= 0 to Phi(-inf) = 0
        with np.errstate(divide="ignore"):
            return _ndtr((np.log(np.maximum(_states(x), 0.0)) - self.mu) / self.sigma)

    def survival(self, x):
        with np.errstate(divide="ignore"):
            return _ndtr(-(np.log(np.maximum(_states(x), 0.0)) - self.mu) / self.sigma)

    def tail_expectation(self, eps):
        eps = np.asarray(eps, dtype=float)
        if not np.all((eps >= 0.0) & (eps <= 1.0)):
            raise DomainError("tail mass must lie in [0, 1]")
        # integral over the top eps of the distribution: Phi-bar(z(eps) - sigma)
        # with z(eps) = -Phi^-1(eps); Phi^-1 is -inf at 0 and inf at 1
        return _ndtr(_ndtri(eps) + self.sigma)

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
    if not np.all((eps >= 0.0) & (eps <= 1.0)):
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


def _ratio(num, den):
    """num / den, taking the limit 1 where den == 0 (where num == 0 too)."""
    return np.divide(num, den, out=np.ones_like(num), where=den != 0.0)


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
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise DomainError("quantile level must lie in [0, 1]")
        out = np.interp(p, self.ps, self.qs)
        return float(out) if p.ndim == 0 else out

    def cdf(self, x):
        x = _states(x)
        # flat quantile stretches are atoms: keep the right-most knot of each
        # repeated value so the cdf jumps across the atom's full mass
        last = np.concatenate((self.qs[1:] != self.qs[:-1], [True]))
        out = np.interp(x, self.qs[last], self.ps[last], left=0.0, right=1.0)
        return float(out) if x.ndim == 0 else out

    def tail_expectation(self, eps):
        return _piecewise_tail(self.ps, self.qs[:-1], self.qs[1:], eps)

    def moment(self, order):
        """(E[rho^order], True), exact per cell.

        A cell rising linearly from a to b over width dp holds
        dp (b^(p+1) - a^(p+1)) / ((p+1)(b - a)), evaluated about the larger
        term's endpoint m as dp m^p [expm1(s)/s] [h/expm1(h)], with
        h = log(other/m) and s = (p+1) h <= 0.  Flat cells (dp a^p) and
        p = -1 (dp log(b/a) / (b - a)) are the brackets' removable zeros, and
        near-flat cells lose no digits.
        """
        log_a, log_b = np.log(self.qs[:-1]), np.log(self.qs[1:])
        log_m, log_o = (log_b, log_a) if order + 1.0 >= 0.0 else (log_a, log_b)
        h = log_o - log_m
        s = (order + 1.0) * h
        with np.errstate(over="ignore"):
            cells = np.exp(order * log_m) * _ratio(np.expm1(s), s) * _ratio(h, np.expm1(h))
        return float(np.sum(np.diff(self.ps) * cells)), True

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
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise DomainError("quantile level must lie in [0, 1]")
        idx = np.clip(np.searchsorted(self.edges[1:], p, side="left"), 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if p.ndim == 0 else out

    def cdf(self, x):
        x = _states(x)
        out = self.edges[np.searchsorted(self.values, x, side="right")]
        return float(out) if x.ndim == 0 else out

    def tail_expectation(self, eps):
        return _piecewise_tail(self.edges, self.values, self.values, eps)

    def moment(self, order):
        """(sum_i p_i v_i^order, True): exact."""
        with np.errstate(over="ignore"):
            return float(np.sum(self.probs * self.values ** order)), True

    def __repr__(self):
        return f"DiscreteKernel({self.values.size} states)"


# ---------------------------------------------------------------------------
# regularity checks


@dataclass
class MomentProbe:
    order: float
    positive: float
    positive_converged: bool
    negative: float
    negative_converged: bool

    @property
    def satisfied(self):
        """Both moments finite, and both integrals reached their tolerance."""
        return (self.positive_converged and self.negative_converged
                and math.isfinite(self.positive) and math.isfinite(self.negative))

    def as_dict(self):
        return {
            "order": self.order,
            "E[rho^p]": self.positive,
            "E[rho^p]_finite": math.isfinite(self.positive),
            "E[rho^p]_converged": self.positive_converged,
            "E[rho^-p]": self.negative,
            "E[rho^-p]_finite": math.isfinite(self.negative),
            "E[rho^-p]_converged": self.negative_converged,
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
            and all(m.satisfied for m in self.moments)
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
        report.moments.append(MomentProbe(float(p), *kernel.moment(p), *kernel.moment(-p)))
    report.mean = kernel.mean
    return report


# ---------------------------------------------------------------------------
# cost functional


def budget(kernel, law):
    """Cost of the payoff with law ``law`` arranged anti-comonotonically
    with the kernel: integral_0^1 q_rho(x) q_nu(1 - x) dx.

    The law must be a ``DiscreteLaw``; it is priced exactly through the
    kernel's partial expectations.
    """
    return _cost(kernel, *_law_cells(law), True)


def _law_cells(law):
    """Values of a discrete law in increasing order, and their cell edges."""
    if not isinstance(law, DiscreteLaw):
        raise DomainError(f"cannot price object of type {type(law).__name__}")
    order = np.argsort(law.values, kind="stable")
    return law.values[order], _cell_edges(law.probs[order])


def _cost(kernel, vals, edges, anti):
    """Anti-comonotone (``anti``) or comonotone cost of sorted law cells."""
    if anti:
        # payoff cell (c_{j-1}, c_j) occupies kernel states (1-c_j, 1-c_{j-1});
        # accumulate in tail space so tiny cells keep full precision
        masses = np.diff(kernel.tail_expectation(edges))
    else:
        masses = -np.diff(kernel.tail_expectation(1.0 - edges))
    return float(np.sum(vals * masses))


def hardy_littlewood_check(kernel, law):
    """Extreme costs of a payoff law over all couplings with the kernel.

    Returns (lower, upper): anti-comonotone and comonotone arrangements.
    Any joint arrangement with these marginals costs within the bracket.
    """
    cells = _law_cells(law)
    return _cost(kernel, *cells, True), _cost(kernel, *cells, False)

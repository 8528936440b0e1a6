"""Numeric checkers for the existence conditions of the portfolio problem.

With gains bounded above, whether the supremum of the CPT value is attained
hinges on how fast the loss distortion w_minus vanishes at 0 relative to the
growth of the loss utility u_minus:

* necessary:  liminf_{x -> 0+} w_minus(x) * u_minus(1/x) > 0,
* for the associated family w_delta the threshold is delta <= 1, and
* delta < 1 is sufficient when u_minus satisfies a growth-regularity
  condition tied to asymptotic elasticity, and so is any w_minus >= w_delta;
  ``regime`` combines these into the one verdict the commands print.

A limit cannot be decided by finitely many probes, so every checker returns
a ConditionVerdict carrying the decision rule's evidence; `yes`/`no`
verdicts always cite at least eight probe points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .choquet import DiscreteLaw, choquet_positive
from .errors import DomainError, EvaluationError, ParameterError
from .functions import AssociatedDistortion

GRID_CAP = 1e12
SLOPE_TOL = 0.05
PRODUCT_FLOOR = 1e-8
GROWTH_THRESHOLD = 1e3
SIGMA_LADDER = (1.1, 1.25, 1.5, 2.0, 4.0)
LIMINF_PROBES = 12  # the liminf check probes x = 10^-1, ..., 10^-LIMINF_PROBES
AE_REL_STEP = 1e-4  # relative step of the elasticity's central differences
AE_TAIL = 8  # the elasticity estimate is the maximum over this many last probes

# catalog kinds whose loss utility is capped by a sub-linear power for large
# wealth, where the boundary case delta = 1 is still not attainable
_SUBLINEAR_KINDS = {"logarithmic", "loglog", "log_power"}


@dataclass
class ConditionVerdict:
    """Outcome of a numeric condition check with its probe evidence."""

    name: str
    holds: str  # 'yes' | 'no' | 'inconclusive'
    evidence: list = field(default_factory=list)
    parameters_found: dict | None = None
    detail: str = ""
    parts: dict = field(default_factory=dict)  # verdicts this one rests on; not in as_dict

    def __post_init__(self):
        if self.holds not in ("yes", "no", "inconclusive"):
            raise ParameterError(f"unknown verdict {self.holds!r}")
        if self.holds in ("yes", "no") and len(self.evidence) < 8:
            raise ParameterError("decisive verdicts need at least 8 probe points")

    def as_dict(self):
        return {
            "name": self.name,
            "holds": self.holds,
            "evidence": [[float(a), float(b)] for a, b in self.evidence],
            "parameters_found": self.parameters_found,
            "detail": self.detail,
        }


def _geometric_grid(max_points=41, cap=GRID_CAP):
    xs = 2.0 ** np.arange(max_points)
    return xs[xs <= cap]


def _pointwise(fn, xs):
    """``fn`` at each point of ``xs``, in one call when it takes them all;
    otherwise point by point, nan where it raises DomainError (a utility may
    refuse arguments it cannot evaluate without declaring a range)."""
    try:
        return np.array(fn(np.asarray(xs, dtype=float)), dtype=float)
    except DomainError:
        pass
    out = np.full(len(xs), np.nan)
    for i, x in enumerate(xs):
        try:
            out[i] = fn(x)
        except DomainError:
            continue
    return out


DECLINE_TOL = 0.5  # total log-decline across the probes that counts as decay


def liminf_condition(w_minus, u_minus):
    """Check whether w_minus(x) * u_minus(1/x) stays away from 0 as x -> 0+.

    Probes x = 10^-j and classifies the trend of the product in log-log
    coordinates.  The product is declared to decay to 0 ('no') when either
    its log-log slope over the last six probes exceeds SLOPE_TOL (power-like
    decay) or it falls monotonically by more than DECLINE_TOL in log terms
    across the grid (slower-than-power decay, e.g. logarithmic).  A flat or
    growing product bounded away from zero gives 'yes'; anything else,
    including a product that cannot be evaluated at the probes (a table
    utility refuses arguments beyond its range), is inconclusive.  Verdicts
    are probe evidence, never proofs, except for the associated distortion
    of u_minus itself: there the product is u(1)^delta * u(1/x)^(1 - delta)
    with u unbounded, so the liminf is positive exactly when delta <= 1.
    """
    xs = 10.0 ** -np.arange(1, LIMINF_PROBES + 1, dtype=float)
    try:
        log_prod = np.asarray(w_minus.log_eval(xs), dtype=float) + np.asarray(
            u_minus.log_eval(1.0 / xs), dtype=float
        )
    except DomainError as exc:
        return ConditionVerdict(
            name="loss_liminf", holds="inconclusive",
            detail=f"product not evaluable at the probes: {exc}",
        )
    with np.errstate(over="ignore"):
        products = np.exp(log_prod)
    evidence = [[float(x), float(p)] for x, p in zip(xs, products)]

    tail = slice(LIMINF_PROBES - 6, LIMINF_PROBES)
    slope = float(np.polyfit(np.log(xs[tail]), log_prod[tail], 1)[0])
    total_change = float(log_prod[-1] - log_prod[0])
    noise = 1e-9 * np.maximum(np.abs(log_prod[:-1]), 1.0)
    nonincreasing = bool(np.all(np.diff(log_prod) <= noise))
    bounded_away = bool(np.min(log_prod[tail]) > math.log(PRODUCT_FLOOR))
    params = {
        "loglog_slope": slope,
        "total_log_change": total_change,
        "last_product": float(products[-1]),
    }

    if isinstance(w_minus, AssociatedDistortion) and w_minus.utility is u_minus:
        holds = "yes" if w_minus.delta <= 1.0 else "no"
        detail = ("associated distortion of the loss utility: closed-form verdict, "
                  "the product is u(1)^delta * u(1/x)^(1 - delta)")
    elif slope > SLOPE_TOL or (nonincreasing and total_change < -DECLINE_TOL):
        holds = "no"
        detail = "product decays towards 0 along the probe grid"
    elif bounded_away and slope <= SLOPE_TOL:  # False here only for a NaN slope
        holds = "yes"
        detail = (
            "product stays level and bounded away from 0"
            if abs(slope) <= SLOPE_TOL
            else "product grows along the probe grid"
        )
    else:
        holds = "inconclusive"
        detail = "trend not decisive at the probe horizon"
    return ConditionVerdict(
        name="loss_liminf", holds=holds, evidence=evidence,
        parameters_found=params, detail=detail,
    )


def check_growth_condition(u_minus, delta):
    """Search for a stretch factor under which the loss growth transform
    dominates its own delta-discounted stretch.

    For z(t) = log(u_minus(e^t)) the condition is the divergence of
    z(t) - delta * z(sigma t) for some sigma > 1; it is what makes the loss
    moments of near-optimal payoffs uniformly controllable when delta < 1.
    """
    if not math.isinf(u_minus.saturation):
        raise ParameterError("growth condition applies to unbounded loss utilities")
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")
    best_evidence = None
    decisive_fail = []
    for sigma in SIGMA_LADDER:
        xs = _geometric_grid(cap=GRID_CAP / sigma)
        g = _z_difference(u_minus, delta, sigma, xs)
        finite = np.isfinite(g)
        if np.count_nonzero(finite) < 8:
            # domain-limited utility (tables): densify inside the evaluable range
            cap = _domain_cap(u_minus.log_at_exp, GRID_CAP) / sigma
            if cap <= 1.0:
                continue
            xs = np.geomspace(min(1.0, cap / 16.0), cap, 12)
            g = _z_difference(u_minus, delta, sigma, xs)
            finite = np.isfinite(g)
        xs, g = xs[finite], g[finite]
        if xs.size < 8:
            continue
        half = xs.size // 2
        tail = g[half:]
        nondecreasing = bool(np.all(np.diff(tail) >= -1e-9 * np.maximum(np.abs(tail[:-1]), 1.0)))
        evidence = [[float(a), float(b)] for a, b in zip(xs, g)]
        if g[-1] > GROWTH_THRESHOLD and nondecreasing:
            return ConditionVerdict(
                name="loss_growth_condition", holds="yes", evidence=evidence,
                parameters_found={"sigma": sigma, "delta": delta, "last_value": float(g[-1])},
                detail="difference grows past the decision threshold",
            )
        nonincreasing = bool(np.all(np.diff(tail) <= 1e-9 * np.maximum(np.abs(tail[:-1]), 1.0)))
        decisive_fail.append(nonincreasing and (g[-1] < g[half] or g[-1] < 0.0))
        if best_evidence is None:
            best_evidence = evidence
    if best_evidence is None:
        holds, detail = "inconclusive", "transform not evaluable on enough of the probe grid"
    elif all(decisive_fail):
        holds, detail = "no", "difference decays for every stretch factor on the ladder"
    else:
        holds, detail = "inconclusive", "growth too slow to certify at the probe horizon"
    return ConditionVerdict(name="loss_growth_condition", holds=holds,
                            evidence=best_evidence or [], parameters_found={"delta": delta},
                            detail=detail)


def _z_difference(utility, delta, sigma, xs):
    """z(x) - delta*z(sigma x) evaluated pointwise; nan where not evaluable."""
    return _pointwise(lambda x: utility.log_at_exp(x) - delta * utility.log_at_exp(sigma * x), xs)


def _domain_cap(fn, hi):
    """Largest argument up to ``hi`` that ``fn`` evaluates, by bisection."""
    def ok(x):
        return not np.isnan(_pointwise(fn, [x])[0])

    if ok(hi):
        return hi
    lo = hi
    while lo > 1e-6:
        lo /= 10.0
        if ok(lo):
            break
    else:
        return 0.0
    # geometric bisection inside the bracketing decade
    hi = lo * 10.0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


RATIO_DECLINE_TOL = 0.1  # visible monotone fall of the log-ratio counts


def growth_ratio_probe(u_minus, delta, xi):
    """Direct form of the growth condition: does u(x^xi)^delta / u(x) -> 0?

    Evaluates the log-ratio through the utility's own argument, which caps
    the horizon near the float range, so the decision is trend-based: a
    monotone fall of the log-ratio by more than RATIO_DECLINE_TOL certifies
    the direction of travel towards 0 ('yes'); a monotone rise certifies
    'no'.  Intended to agree in verdict with check_growth_condition on the
    catalog utilities.
    """
    cap = min(10.0 ** (280.0 / xi), _domain_cap(u_minus.log_eval, 1e280) ** (1.0 / xi))
    xs = np.geomspace(1.0 + 1e-9, cap, 61)
    log_ratio = _pointwise(lambda x: delta * u_minus.log_eval(x ** xi) - u_minus.log_eval(x), xs)
    finite = np.isfinite(log_ratio)
    xs, log_ratio = xs[finite], log_ratio[finite]
    evidence = [[float(a), float(b)] for a, b in zip(xs, log_ratio)]
    params = {"xi": xi, "delta": delta}
    if xs.size < 8:
        return ConditionVerdict(
            name="loss_growth_ratio", holds="inconclusive", evidence=evidence,
            parameters_found=params,
        )
    half = xs.size // 2
    tail = log_ratio[half:]
    noise = 1e-9 * np.maximum(np.abs(tail[:-1]), 1.0)
    nonincreasing = bool(np.all(np.diff(tail) <= noise))
    nondecreasing = bool(np.all(np.diff(tail) >= -noise))
    total = float(log_ratio[-1] - log_ratio[0])
    params["total_log_change"] = total
    if nonincreasing and total < -RATIO_DECLINE_TOL:
        holds = "yes"
    elif nondecreasing and total > RATIO_DECLINE_TOL:
        holds = "no"
    else:
        holds = "inconclusive"
    return ConditionVerdict(
        name="loss_growth_ratio", holds=holds, evidence=evidence,
        parameters_found=params,
    )


def check_delta_threshold(u_minus, delta, probe=None):
    """Classify the association strength delta against the attainability
    threshold: above 1 the problem has no optimum, below 1 it does whenever
    the growth-regularity condition holds.

    `holds` answers "is attainability still possible at this delta"; below
    1, ``parts`` holds the growth verdict it rests on.  ``probe`` is the
    liminf verdict of u_minus's associated distortion at delta, when the
    caller has one.
    """
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if not math.isinf(u_minus.saturation):
        xs = _geometric_grid(max_points=16, cap=1e4)
        evidence = [[float(x), float(u_minus(x))] for x in xs]
        return ConditionVerdict(
            name="delta_threshold", holds="no", evidence=evidence,
            parameters_found={"delta": delta, "saturation": u_minus.saturation},
            detail="loss utility bounded above: supremum cannot be attained",
        )
    # probe the associated product u(1/x)^(1-delta) like the liminf check
    if probe is None:
        probe = liminf_condition(AssociatedDistortion(u_minus, delta), u_minus)
    sublinear = u_minus.kind in _SUBLINEAR_KINDS or (
        u_minus.kind == "power" and getattr(u_minus, "alpha", 1.0) < 1.0)
    params, parts = {"delta": delta}, {}
    if not probe.evidence:  # not evaluable at the probes: no verdict can cite them
        holds, detail = "inconclusive", probe.detail
    elif delta > 1.0:
        holds, detail = "no", "delta above 1: associated distortion vanishes too fast"
    elif delta == 1.0 and sublinear:
        holds, detail = "no", "boundary delta = 1 with sub-linear loss growth: no optimum"
    elif delta == 1.0:
        holds, detail = "inconclusive", "boundary delta = 1: decision depends on finer structure"
    else:
        growth = parts["loss_growth_condition"] = check_growth_condition(u_minus, delta)
        holds = params["growth_condition"] = growth.holds
        params.update({k: v for k, v in growth.parameters_found.items() if k != "delta"})
        detail = ("delta below 1 and growth condition verified: optimum exists"
                  if holds == "yes" else f"delta below 1 but growth condition verdict is '{holds}'")
    return ConditionVerdict(name="delta_threshold", holds=holds, evidence=probe.evidence,
                            parameters_found=params, detail=detail, parts=parts)


DOMINANCE_TOL = 1e-9  # log-margin by which w_minus may fall short of w_delta


def regime(u_minus, w_minus, delta=None):
    """The paper's attainability verdict for the loss side.

    'no' when the necessary loss liminf condition fails; 'yes' when the
    sufficient pair holds: check_delta_threshold says 'yes' (delta < 1 and
    the growth condition) and w_minus >= w_delta at log-spaced probes down
    to the liminf grid's 10^-LIMINF_PROBES; 'inconclusive' otherwise.
    ``delta`` defaults to w_minus's own when it is u_minus's associated
    distortion.  ``parts`` holds every verdict evaluated, by name.
    """
    parts = {"loss_liminf": liminf_condition(w_minus, u_minus)}
    own = isinstance(w_minus, AssociatedDistortion) and w_minus.utility is u_minus
    if delta is None and own:
        delta = w_minus.delta
    if delta is not None:
        # when w_minus is w_delta itself, its liminf verdict is the threshold's probe
        probe = parts["loss_liminf"] if own and w_minus.delta == delta else None
        threshold = parts["delta_threshold"] = check_delta_threshold(u_minus, delta, probe)
        parts.update(threshold.parts)
        if threshold.holds == "yes":  # so u_minus is unbounded and delta < 1
            parts["loss_dominance"] = _dominance(w_minus, AssociatedDistortion(u_minus, delta))
    found = {name: part.holds for name, part in parts.items()}
    holds = ("no" if found["loss_liminf"] == "no" else
             "yes" if found.get("loss_dominance") == "yes" else "inconclusive")
    detail = ", ".join(f"{name} {verdict}" for name, verdict in found.items())
    return ConditionVerdict(
        name="attainability", holds=holds,
        evidence=parts["loss_dominance" if holds == "yes" else "loss_liminf"].evidence,
        parameters_found={"delta": delta, **found}, parts=parts,
        detail=detail if delta is not None else f"{detail}, no delta to compare w_minus with",
    )


def _dominance(w_minus, w_delta):
    """w_minus >= w_delta at log-spaced probes down to the liminf grid's
    smallest x; the evidence is the log-margin at each probe."""
    ps = np.geomspace(10.0 ** -LIMINF_PROBES, 1.0, 2 * LIMINF_PROBES + 1)
    margin = np.asarray(w_minus.log_eval(ps)) - np.asarray(w_delta.log_eval(ps))
    low = int(np.argmin(margin))
    holds = "yes" if margin[low] >= -DOMINANCE_TOL else "no"
    return ConditionVerdict(
        name="loss_dominance", holds=holds,
        evidence=[[float(p), float(m)] for p, m in zip(ps, margin)],
        detail=f"least log-margin of w_minus over w_delta: {margin[low]:.3g} at p = {ps[low]:.3g}",
    )


def asymptotic_elasticity(fn):
    """Upper tail estimate of the elasticity x f'(x) / f(x).

    Central differences of log f against log x on a geometric grid; the
    maximum over the last AE_TAIL probes estimates the limsup.  ``fn`` is a
    utility or a growth transform: anything whose ``log_eval`` is finite on
    the tail works.
    """
    xs = _geometric_grid()
    up = np.asarray(fn.log_eval(xs * (1.0 + AE_REL_STEP)), dtype=float)
    down = np.asarray(fn.log_eval(xs * (1.0 - AE_REL_STEP)), dtype=float)
    vals = np.asarray(fn.log_eval(xs), dtype=float)
    if not np.all(np.isfinite(vals[-AE_TAIL:])):
        raise DomainError("function not evaluable on the probe tail")
    # d log f / d log x by central difference with multiplicative steps
    dlogx = math.log1p(AE_REL_STEP) - math.log1p(-AE_REL_STEP)
    slope = (up - down) / dlogx
    return float(np.max(slope[-AE_TAIL:]))


def check_elasticity_growth(z, gamma, x_low):
    """Verify z(lam * x) <= lam^gamma * z(x) on a grid of stretches and
    base points; the inequality transfers elasticity control into the
    growth condition."""
    if x_low <= 0:
        raise ParameterError("x_low must be positive")
    lams = np.geomspace(1.0, 1e4, 17)
    xs = np.geomspace(x_low, 1e6 * x_low, 25)
    z_x = np.asarray(z(xs), dtype=float)
    if np.any(z_x <= 0.0):
        raise DomainError("transform must be positive from x_low on")
    worst = []
    ok = True
    for lam in lams:
        lhs = np.asarray(z(lam * xs), dtype=float)
        rhs = lam ** gamma * z_x
        margin = rhs * (1.0 + 1e-12) + 1e-12 - lhs
        worst_idx = int(np.argmin(margin))
        worst.append([float(lam), float(margin[worst_idx])])
        if margin[worst_idx] < 0.0:
            ok = False
    return ConditionVerdict(
        name="elasticity_growth", holds="yes" if ok else "no", evidence=worst,
        parameters_found={"gamma": gamma, "x_low": x_low},
        detail="stretch inequality holds at every grid point" if ok
        else "stretch inequality violated on the grid",
    )


# ---------------------------------------------------------------------------
# threshold function and appendix bounds


@dataclass
class ThresholdFunction:
    """lambda -> smallest L >= 1 with u(x^zeta) < [lambda u(x)]^(1/delta)
    for all probes x >= L.

    Non-increasing in lambda; feeds the loss moment bound.  The utility is
    expected to be unit-normalized (u(1) = 1).
    """

    utility: object
    delta: float
    zeta: float

    def __call__(self, lam):
        return self.eval(lam)

    def eval(self, lam):
        if lam <= 0:
            raise ParameterError("lambda must be positive")
        xs = np.geomspace(1.0, 1e9, 61)
        h = self._margin(xs, lam)
        # inclusive boundary: G is the infimum, equality at the edge is fine;
        # probes outside the utility's range (nan) count as failures
        with np.errstate(invalid="ignore"):
            pos = h >= -1e-12
        if not pos.any() or not pos[-1]:
            raise EvaluationError(
                "domination inequality fails at every probe up to 1e9"
            )
        # smallest grid index from which the inequality holds at all probes
        idx = len(pos) - 1
        while idx > 0 and pos[idx - 1]:
            idx -= 1
        if idx == 0:
            return 1.0
        tail = h[idx - 1:]
        if np.any(np.diff(tail) < -1e-12 * np.maximum(np.abs(tail[:-1]), 1.0)):
            # not monotone across the bracket: trust the grid bound
            return float(xs[idx])
        lo, hi = xs[idx - 1], xs[idx]
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if self._margin([mid], lam)[0] >= -1e-12:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-6 * hi:
                break
        return max(hi, 1.0)

    def _margin(self, xs, lam):
        """Pointwise log-margin; nan (counts as failure) where not evaluable."""
        def margin(x):
            return ((math.log(lam) + self.utility.log_eval(x)) / self.delta
                    - self.utility.log_eval(x ** self.zeta))
        return _pointwise(margin, xs)


def g_function(u_minus, delta, zeta):
    """Threshold function of the growth condition for a normalized utility."""
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")
    if zeta <= 1:
        raise ParameterError("zeta must exceed 1")
    if abs(u_minus(1.0) - 1.0) > 1e-9:
        raise ParameterError("utility must be normalized to u(1) = 1")
    return ThresholdFunction(utility=u_minus, delta=delta, zeta=zeta)


def distorted_tail_bound(law, u_minus, w_minus, f, t):
    """Both sides of the distorted tail inequality

        w(P{f(X) > t}) <= [integral of w(P{u(X) > y}) dy] / u(f^-1(t)).

    ``f`` is any continuous strictly increasing map with f(0) = 0 carrying
    an ``inverse`` method.  Returns (lhs, rhs).
    """
    if t <= 0:
        raise DomainError("threshold t must be positive")
    x_t = f.inverse(t)
    lhs = float(w_minus(law.survival(x_t)))
    u_at = float(u_minus(x_t))
    total = choquet_positive(law, u_minus, w_minus)
    rhs = math.inf if u_at == 0.0 else total / u_at
    return lhs, rhs


def power_tail_bound(law, u_minus, delta, s, t):
    """Both sides of the power-map tail estimate implied by the associated
    distortion:

        P{X^s > t} <= 1 / u^-1( [u(t^(1/s)) / V_delta]^(1/delta) ).

    Returns (lhs, rhs); with no loss mass lhs = rhs = 0.
    """
    if t <= 0 or s <= 0:
        raise DomainError("s and t must be positive")
    lhs = law.survival(t ** (1.0 / s))
    v_delta = choquet_positive(law, u_minus, AssociatedDistortion(u_minus, delta))
    if v_delta == 0.0:
        return float(lhs), 0.0
    target = (float(u_minus(t ** (1.0 / s))) / v_delta) ** (1.0 / delta)
    inv = u_minus.inverse(target) if target < u_minus.saturation else math.inf
    rhs = 0.0 if math.isinf(inv) else (math.inf if inv == 0.0 else 1.0 / inv)
    return float(lhs), float(rhs)


def loss_moment_bound(law, u_minus, delta, eta, zeta, threshold_fn):
    """Both sides of the loss-moment control

        E[X^eta] <= C + G(1/V_delta)^eta / u^-1(V_delta^(-1/delta)),

    with C = 1 + eta/(zeta - eta).  This is the uniform-integrability engine
    behind the existence proof; ``threshold_fn`` must come from g_function
    with matching delta and zeta.
    """
    if not 1.0 < eta < zeta:
        raise ParameterError("eta must lie strictly between 1 and zeta")
    if not isinstance(law, DiscreteLaw):
        raise DomainError("moment bound is evaluated on discrete laws")
    if np.any(law.values < 0.0):
        raise DomainError("law must be non-negative")
    lhs = law.moment(eta)
    c_const = 1.0 + eta / (zeta - eta)
    v_delta = choquet_positive(law, u_minus, AssociatedDistortion(u_minus, delta))
    if v_delta == 0.0:
        return float(lhs), float(c_const)
    g_val = threshold_fn.eval(1.0 / v_delta)
    denom = u_minus.inverse(v_delta ** (-1.0 / delta))
    rhs = c_const + g_val ** eta / denom
    return float(lhs), float(rhs)

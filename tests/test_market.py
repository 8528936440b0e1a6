import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, tanhsinh

from cptq import _quad
from cptq import functions as F
from cptq import market
from cptq.choquet import DiscreteLaw
from cptq.errors import DomainError
from cptq.market import (
    DiscreteKernel,
    LognormalKernel,
    PricingKernel,
    TableKernel,
    budget,
    check_assumptions,
    hardy_littlewood_check,
)
from conftest import random_discrete_law, signed_laws

SIGMA = 0.2


@pytest.fixture(scope="module")
def lognormal():
    return LognormalKernel(SIGMA)


def lognormal_moment(p, sigma=SIGMA):
    return math.exp(0.5 * sigma ** 2 * p * (p - 1.0))


def test_median(lognormal):
    assert abs(lognormal.quantile(0.5) - math.exp(-0.5 * SIGMA ** 2)) < 1e-14


def test_degenerate_kernel_quantile():
    k = DiscreteKernel([1.0], [1.0])
    for p in (0.01, 0.5, 0.99):
        assert k.quantile(p) == 1.0


def test_quantile_grows_unbounded(lognormal):
    probes = [lognormal.quantile(1.0 - 10.0 ** -j) for j in range(1, 13)]
    assert all(b > a for a, b in zip(probes, probes[1:]))


def test_quantile_monotone_all_kernels(rng):
    kernels = [
        LognormalKernel(0.3),
        TableKernel([0.0, 0.3, 1.0], [0.5, 0.9, 2.0]),
        DiscreteKernel([0.5, 1.0, 1.5], [0.3, 0.4, 0.3]),
    ]
    grid = np.linspace(1e-6, 1.0 - 1e-6, 513)
    for k in kernels:
        qs = np.asarray(k.quantile(grid))
        assert np.all(np.diff(qs) >= 0.0)


def test_quantile_domain_error(lognormal):
    with pytest.raises(DomainError):
        lognormal.quantile(0.0)
    with pytest.raises(DomainError):
        lognormal.quantile(1.5)


def test_tail_expectation_closed_form(lognormal, rng):
    # MC oracle: E[rho; rho > q(1-eps)] at a few levels
    z = rng.standard_normal(1_000_000)
    rho = np.exp(lognormal.mu + SIGMA * z)
    for eps in (0.5, 0.1, 0.01):
        level = lognormal.quantile(1.0 - eps)
        samples = rho * (rho > level)
        mc = float(np.mean(samples))
        se = float(np.std(samples)) / 1000.0
        assert abs(lognormal.tail_expectation(eps) - mc) < 4.0 * se


def test_tail_expectation_tiny_eps_stable(lognormal):
    eps = 1e-25
    val = lognormal.tail_expectation(eps)
    assert 0.0 < val < 1e-20
    # lower bound from the derivation: E[rho; rho > b] >= b * eps
    assert val >= lognormal.quantile_upper(eps) * eps


def test_moments_lognormal():
    # |p| = 40 at sigma = 0.6 is e^280.8 and e^295.2: a double holds both
    for sigma in (0.15, 0.3, 0.6):
        k = LognormalKernel(sigma)
        for p in (1, 2, 4, 8, 16, 40, -1, -2, -4, -8, -16, -40):
            est, converged = k.moment(p)
            cf = lognormal_moment(p, sigma)
            assert converged, (sigma, p)
            assert abs(est - cf) <= 1e-12 * cf, (sigma, p, est, cf)


def test_moment_two_sided_read_matches_closed_form():
    # a kernel without its own score map reads q_rho(Phi(z)) through
    # quantile below the median and quantile_upper above it
    class TwoSided(LognormalKernel):
        score_log_quantile = PricingKernel.score_log_quantile

    for sigma in (0.15, 0.6):
        k = TwoSided(sigma)
        for p in (1, 4, 16, 40, -1, -4, -16, -40):
            est, converged = k.moment(p)
            cf = lognormal_moment(p, sigma)
            assert converged, (sigma, p)
            assert abs(est - cf) <= 1e-12 * cf, (sigma, p, est, cf)


def _mp_ndtri(p):
    """Phi^-1(p) at 40 digits: the root of log Phi(t) = log p, found by
    mpmath; the upper half through 1 - p, which mpmath forms exactly."""
    with mpmath.workdps(40):
        p = mpmath.mpf(float(p))
        if p == 0.5:
            return 0.0
        if p > 0.5:
            return -_mp_ndtri(1 - p)
        log_p = mpmath.log(p)
        guess = -mpmath.sqrt(-2 * log_p)
        return float(mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(t)) - log_p, guess))


@pytest.mark.parametrize("levels", [np.logspace(-300, -1, 300),
                                    np.linspace(0.0, 1.0, 401)[1:-1],
                                    1.0 - np.logspace(-16, -1, 200)],
                         ids=["lower-tail", "interior", "upper-tail"])
def test_normal_quantile_matches_mpmath(levels):
    ref = np.array([_mp_ndtri(p) for p in levels])
    got = market._ndtri(levels)
    assert np.all(np.abs(got - ref) <= 2e-14 * np.abs(ref))
    assert [market._ndtri(p) for p in levels[::37]] == got[::37].tolist()


def test_normal_cdf_matches_mpmath():
    z = np.concatenate((np.linspace(-37.5, 8.5, 1201), -np.logspace(-6, 1.5, 100)))
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.ncdf(mpmath.mpf(float(t)))) for t in z])
    keep = ref >= 1e-300
    assert keep.sum() > 1200
    got = market._ndtr(z)
    assert np.all(np.abs(got - ref)[keep] <= 1e-13 * ref[keep])
    assert [market._ndtr(t) for t in z[::37]] == got[::37].tolist()


def test_normal_cdf_and_quantile_ends_and_scalars():
    assert market._ndtri(0.0) == -math.inf and market._ndtri(1.0) == math.inf
    assert market._ndtri(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]
    assert market._ndtr(-math.inf) == 0.0 and market._ndtr(math.inf) == 1.0
    assert market._ndtr(np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]
    for value in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(market._ndtri(value)) is float
        assert type(market._ndtr(value)) is float
    assert market._ndtri(np.array([[0.25, 0.5]])).shape == (1, 2)
    assert market._ndtr(np.array([[0.25, 0.5]])).shape == (1, 2)


@pytest.mark.parametrize("kernel", [LognormalKernel(0.3),
                                    TableKernel([0.0, 0.5, 1.0], [0.5, 1.0, 3.0]),
                                    DiscreteKernel([0.5, 1.5], [0.5, 0.5])], ids=repr)
def test_kernel_rejects_nan_levels_and_states(kernel):
    methods = (kernel.quantile, kernel.quantile_upper, kernel.tail_expectation,
               kernel.cdf, kernel.survival)
    for method in methods:
        for arg in (math.nan, np.array([0.25, math.nan])):
            with pytest.raises(DomainError):
                method(arg)


def test_lognormal_moment_cost(monkeypatch):
    # the score map resolves the tails on the first grids: k <= 12 always
    sizes = []
    midpoints = _quad.cell_midpoints

    def counted(k):
        mids = midpoints(k)
        sizes.append(mids.size)
        return mids

    monkeypatch.setattr(_quad, "cell_midpoints", counted)
    for sigma in (0.15, 0.3, 0.6):
        for p in (16, -16, 40, -40):
            sizes.clear()
            _, converged = LognormalKernel(sigma).moment(p)
            assert converged
            assert max(sizes) <= 1 << 12, (sigma, p, sizes)


def _tanhsinh_table_moment(ps, qs, p):
    # independent per-cell integral of the piecewise-linear quantile's power
    total = 0.0
    for x0, x1, a, b in zip(ps[:-1], ps[1:], qs[:-1], qs[1:]):
        res = tanhsinh(lambda x: (a + (b - a) * (x - x0) / (x1 - x0)) ** p, x0, x1,
                       rtol=1e-14)
        assert res.success
        total += float(res.integral)
    return total


def test_table_kernel_moment_matches_tanhsinh():
    # rising, flat and near-flat cells, and one cell spanning two decades
    ps = [0.0, 0.1, 0.35, 0.5, 0.7, 0.9, 1.0]
    qs = [0.004, 0.4, 0.4, 0.4 * (1 + 1e-9), 1.1, 2.5, 9.0]
    k = TableKernel(ps, qs)
    for p in (1, 2, 3.5, 8, -1, -2, -0.5, -8, 0):
        est, converged = k.moment(p)
        ref = _tanhsinh_table_moment(ps, qs, p)
        assert converged
        assert abs(est - ref) <= 1e-12 * ref, (p, est, ref)


def test_discrete_kernel_moment_exact():
    values, probs = [0.3, 0.9, 1.2, 2.0], [0.1, 0.4, 0.3, 0.2]
    k = DiscreteKernel(values, probs)
    for p in (1, 2, 8, 16, -1, -8, -16):
        est, converged = k.moment(p)
        exact = sum(w * v ** p for v, w in zip(values, probs))
        assert converged
        assert abs(est - exact) <= 1e-14 * exact, (p, est, exact)


def test_check_assumptions_lognormal(lognormal):
    rep = check_assumptions(lognormal, moment_orders=(1, 2, 4, 8))
    assert rep.continuous_cdf == "yes"
    assert rep.unbounded_above == "yes"
    assert rep.all_satisfied
    assert len(rep.unbounded_evidence) >= 8


def test_check_assumptions_reports_unconverged_moments(lognormal, monkeypatch):
    # one grid and no refinement: every quadrature moment stops unconverged
    monkeypatch.setattr(_quad, "K_MAX", _quad.K_MIN)
    rep = check_assumptions(lognormal, moment_orders=(1, 2))
    assert not rep.all_satisfied
    for probe in rep.as_dict()["moments"]:
        assert probe["E[rho^p]_converged"] is False
        assert probe["E[rho^-p]_converged"] is False
        assert probe["E[rho^p]_finite"] and probe["E[rho^-p]_finite"]
    # exact kernel moments do not depend on the grid
    k = TableKernel([0.0, 0.5, 1.0], [0.5, 1.0, 3.0])
    assert all(m.positive_converged and m.negative_converged
               for m in check_assumptions(k, moment_orders=(1, 2)).moments)


def test_check_assumptions_bounded_table():
    k = TableKernel([0.0, 0.5, 1.0], [0.5, 1.0, 1.5])
    rep = check_assumptions(k, moment_orders=(1, 2))
    assert rep.unbounded_above == "no"
    assert not rep.all_satisfied


def test_check_assumptions_discrete_kernel():
    k = DiscreteKernel([0.5, 1.5], [0.5, 0.5])
    rep = check_assumptions(k, moment_orders=(1,))
    assert rep.continuous_cdf == "no"


def test_flat_table_kernel_reported():
    # the second atom is narrower than a 257-point probe grid's spacing
    for ps, atom in (([0.0, 0.3, 0.6, 1.0], 0.6), ([0.0, 0.5, 0.501, 1.0], 0.501)):
        k = TableKernel(ps, [0.5, 1.0, 1.0, 2.0])
        rep = check_assumptions(k, moment_orders=(1,))
        assert rep.continuous_cdf == "no"
        # the evidence is the flat stretch's own knots
        assert [atom, 1.0] in rep.continuous_evidence
        # atom mass visible through the cdf
        assert abs(k.cdf(1.0) - atom) < 1e-12


def test_budget_degenerate_kernel_is_expectation():
    k = DiscreteKernel([1.0], [1.0])
    law = DiscreteLaw([2.0, -1.0, 5.0], [0.3, 0.2, 0.5])
    expected = float(np.sum(law.values * law.probs))
    assert abs(budget(k, law) - expected) < 1e-14


def test_budget_law_summing_past_one(lognormal):
    # probabilities that sum to 1 only within PROB_TOL are priced, not refused
    law = DiscreteLaw([1.0, 2.0, 3.0], [0.7, 0.3 + 5e-13, 1e-13])
    lo, up = hardy_littlewood_check(lognormal, law)
    assert budget(lognormal, law) == lo < up
    assert abs(budget(DiscreteKernel([1.0], [1.0]), law) - 1.3) < 1e-12


def test_budget_constant_payoff(lognormal):
    assert abs(budget(lognormal, DiscreteLaw([3.0], [1.0])) - 3.0) < 1e-12


def test_budget_anticomonotone_copy():
    # the payoff with the kernel's own law, held anti-comonotone, costs
    # integral_0^1 q(x) q(1 - x) dx: a step function between the union of
    # the cumulative edges c_i and their mirrors 1 - c_i
    values, probs = [0.3, 0.9, 1.2, 2.0], [0.1, 0.4, 0.3, 0.2]
    k = DiscreteKernel(values, probs)
    edges = np.union1d(k.edges, 1.0 - k.edges)
    mids = 0.5 * (edges[1:] + edges[:-1])
    exact = float(np.sum(np.diff(edges) * k.quantile(mids) * k.quantile(1.0 - mids)))
    lo = budget(k, DiscreteLaw(values, probs))
    assert abs(lo - exact) <= 1e-15 * exact
    assert lo < k.mean * float(np.dot(values, probs))  # below independent pricing


def test_budget_linear(lognormal, rng):
    # a q1 + b q2 of two non-decreasing value vectors on shared probabilities
    # (a comonotone sum, so it keeps their order) costs a budget(q1) + b budget(q2)
    probs = rng.dirichlet(np.ones(12))
    q1 = np.sort(rng.normal(0.0, 2.0, 12))
    q2 = np.sort(rng.exponential(1.0, 12))
    b1 = budget(lognormal, DiscreteLaw(q1, probs))
    b2 = budget(lognormal, DiscreteLaw(q2, probs))
    for a, b in ((2.0, 3.0), (0.5, 0.0), (1.0, 1.0)):
        combo = budget(lognormal, DiscreteLaw(a * q1 + b * q2, probs))
        assert abs(combo - (a * b1 + b * b2)) < 1e-12 * max(1.0, abs(combo))


def test_cost_rejects_non_discrete_laws(lognormal):
    for cost in (budget, hardy_littlewood_check):
        with pytest.raises(DomainError, match="function"):
            cost(lognormal, lambda p: p)


@settings(max_examples=40, deadline=None)
@given(law=signed_laws(), kernel=st.sampled_from([
    TableKernel([0.0, 0.5, 1.0], [0.5, 1.0, 2.0]),
    DiscreteKernel([0.5, 1.0, 1.5], [0.3, 0.4, 0.3]),
    LognormalKernel(SIGMA),
]))
def test_budget_is_lower_end_of_bracket(law, kernel):
    lo, up = hardy_littlewood_check(kernel, law)
    assert budget(kernel, law) == lo
    assert lo <= up + 1e-12 * max(1.0, abs(up))


def test_bracket_ends_exact_on_large_laws(lognormal, rng):
    # the lower end is budget bit for bit; the upper end is the mirror
    # law's budget, negated, to rounding
    kernels = (lognormal, TableKernel([0.0, 0.3, 0.8, 1.0], [0.2, 0.7, 1.3, 3.0]),
               DiscreteKernel([0.5, 1.0, 1.5], [0.3, 0.4, 0.3]))
    for n in (1, 40, 3000):
        values = np.round(rng.normal(0.5, 3.0, n), 1)  # ties among the atoms
        law = DiscreteLaw(values, rng.dirichlet(np.ones(n)))
        mirror = DiscreteLaw(-values, law.probs)
        for kernel in kernels:
            lo, up = hardy_littlewood_check(kernel, law)
            assert lo == budget(kernel, law)
            assert abs(up + budget(kernel, mirror)) <= 1e-12 * max(1.0, abs(up))


def test_hardy_littlewood_degenerate():
    k = DiscreteKernel([1.0], [1.0])
    law = DiscreteLaw([2.0, 5.0], [0.4, 0.6])
    lo, up = hardy_littlewood_check(k, law)
    expected = 2.0 * 0.4 + 5.0 * 0.6
    assert abs(lo - expected) < 1e-14 and abs(up - expected) < 1e-14


def test_hardy_littlewood_two_state_enumeration():
    # two equally likely kernel states and a two-atom law: only two
    # monotone couplings exist, and they bracket every mixture
    k = DiscreteKernel([0.5, 1.5], [0.5, 0.5])
    law = DiscreteLaw([1.0, 3.0], [0.5, 0.5])
    lo, up = hardy_littlewood_check(k, law)
    anti = 0.5 * (3.0 * 0.5 + 1.0 * 1.5)
    co = 0.5 * (1.0 * 0.5 + 3.0 * 1.5)
    assert abs(lo - anti) < 1e-14
    assert abs(up - co) < 1e-14


def test_hardy_littlewood_brackets_random_couplings(lognormal, rng):
    # X, sampled through its quantile, coupled to the kernel through random
    # copulas: no coupling escapes [lower, upper]
    m = 64
    law = DiscreteLaw(2.0 * ((np.arange(m) + 0.5) / m) ** 1.5 + 0.1, np.full(m, 1.0 / m))
    q_fn = law.quantile
    lo, up = hardy_littlewood_check(lognormal, law)
    n = 400_000
    u = rng.random(n)
    couplings = {
        "comonotone": u,
        "anti": 1.0 - u,
        "independent": rng.random(n),
        "mixture": np.where(rng.random(n) < 0.5, u, rng.random(n)),
    }
    rho = lognormal.quantile(np.clip(u, 1e-12, 1 - 1e-12))
    for name, v in couplings.items():
        cost = float(np.mean(rho * q_fn(np.clip(v, 1e-12, 1 - 1e-12))))
        se = float(np.std(rho * q_fn(v))) / math.sqrt(n)
        assert cost > lo - 4 * se, (name, cost, lo)
        assert cost < up + 4 * se, (name, cost, up)


def test_budget_minimal_over_couplings(lognormal, rng):
    # anti-comonotone arrangement is the cheapest coupling
    law = DiscreteLaw(rng.random(50) ** 2 + 0.5, rng.dirichlet(np.ones(50)))
    q_fn = law.quantile
    lo = budget(lognormal, law)
    n = 300_000
    u = rng.random(n)
    rho = lognormal.quantile(np.clip(u, 1e-12, 1 - 1e-12))
    for _ in range(5):
        v = rng.random(n)
        cost = float(np.mean(rho * q_fn(v)))
        se = float(np.std(rho * q_fn(v))) / math.sqrt(n)
        assert lo <= cost + 4 * se


def test_table_kernel_exact_partial_integrals():
    k = TableKernel([0.0, 0.25, 1.0], [0.2, 0.7, 2.0])
    num = quad(lambda x: k.quantile(x), 0.6, 1.0)[0]
    assert abs(k.tail_expectation(0.4) - num) < 1e-10
    partial = k.tail_expectation(0.9) - k.tail_expectation(0.1)  # integral over [0.1, 0.9]
    assert abs(partial - quad(k.quantile, 0.1, 0.9)[0]) < 1e-10


def test_table_kernel_csv(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("p,q\n0.0,0.5\n0.5,1.0\n1.0,2.0\n")
    k = TableKernel.from_csv(path)
    assert k.quantile(0.25) == 0.75
    flat = tmp_path / "flat.csv"
    flat.write_text("p,q\n0.0,0.5\n0.5,1.0\n1.0,1.0\n")
    with pytest.raises(DomainError):
        TableKernel.from_csv(flat)  # CSV tables must be strictly increasing


def test_discrete_kernel_tail_expectation():
    k = DiscreteKernel([0.5, 1.5], [0.5, 0.5])
    assert abs(k.tail_expectation(0.5) - 0.75) < 1e-15
    assert abs(k.tail_expectation(1.0) - 1.0) < 1e-15
    assert abs(k.tail_expectation(0.25) - 1.5 * 0.25) < 1e-15


# ---------------------------------------------------------------------------
# tail integral of table and discrete kernels against the loop formulas


def reference_tail(kernel, eps):
    """Per-level loops that the vectorised tail integral replaced."""
    out = []
    for e in np.atleast_1d(eps):
        lo = 1.0 - e
        if isinstance(kernel, TableKernel):
            idx = np.searchsorted(kernel.ps, lo, side="right")
            knots = np.concatenate(([lo], kernel.ps[idx:]))
            vals = np.concatenate(([np.interp(lo, kernel.ps, kernel.qs)], kernel.qs[idx:]))
            out.append(float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(knots))))
        else:
            acc = 0.0
            prev = 0.0
            for v, c in zip(kernel.values, kernel.edges[1:]):
                seg_lo = max(prev, lo)
                if c > seg_lo:
                    acc += v * (c - seg_lo)
                prev = c
            out.append(acc)
    return np.asarray(out)


def cell_sum_mean(kernel):
    if isinstance(kernel, TableKernel):
        cells = 0.5 * (kernel.qs[1:] + kernel.qs[:-1]) * np.diff(kernel.ps)
    else:
        cells = kernel.values * np.diff(kernel.edges)
    return math.fsum(cells)


@st.composite
def table_kernels(draw):
    inner = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=12, unique=True))
    ps = np.unique(np.concatenate(([0.0, 1.0], inner)))
    # zero steps make flat stretches (atoms): non-strict tables are covered
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                          min_size=ps.size - 1, max_size=ps.size - 1))
    base = draw(st.floats(1e-2, 10.0))
    return TableKernel(ps, base + np.concatenate(([0.0], np.cumsum(steps))))


@st.composite
def discrete_kernels(draw):
    n = draw(st.integers(1, 12))
    values = draw(st.lists(st.floats(1e-2, 100.0), min_size=n, max_size=n))
    weights = np.asarray(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return DiscreteKernel(values, weights / weights.sum())


def knot_levels(kernel):
    """Tail levels that sit exactly on the kernel's cell edges."""
    return 1.0 - (kernel.ps if isinstance(kernel, TableKernel) else kernel.edges)


ATOM_NARROW = TableKernel([0.0, 0.5, 0.501, 1.0], [0.5, 1.0, 1.0, 2.0])
# 0.7 + 0.3 rounds onto 1.0, so the last state's cell has zero width; in the
# second, the cumulative sum passes 1 within the probability tolerance
ZERO_WIDTH = DiscreteKernel([0.5, 1.5, 3.0], [0.7, 0.3, 1e-13])
OVER_ONE = DiscreteKernel([0.5, 1.5, 3.0], [0.7, 0.3 + 5e-13, 1e-13])
kernels = st.one_of(table_kernels(), discrete_kernels())
levels = st.lists(st.floats(0.0, 1.0), max_size=20)
TAIL_SETTINGS = settings(max_examples=60, deadline=None)


@TAIL_SETTINGS
@given(kernel=kernels, eps=levels)
@example(kernel=ATOM_NARROW, eps=[0.499, 0.5, 0.4995, 1e-15])
@example(kernel=ZERO_WIDTH, eps=[1e-15, 1e-14, 1e-13, 0.3])
def test_tail_matches_reference(kernel, eps):
    eps = np.concatenate((eps, knot_levels(kernel), [0.0, 1.0, 1e-15]))
    got = kernel.tail_expectation(eps)
    ref = reference_tail(kernel, eps)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), (got, ref)


@TAIL_SETTINGS
@given(kernel=kernels)
@example(kernel=ZERO_WIDTH)
@example(kernel=OVER_ONE)
def test_tail_ends(kernel):
    assert kernel.tail_expectation(0.0) == 0.0
    assert kernel.tail_expectation(1.0) == kernel.mean
    assert abs(kernel.mean - cell_sum_mean(kernel)) <= 1e-13 * kernel.mean


@TAIL_SETTINGS
@given(kernel=kernels, eps=levels)
@example(kernel=ATOM_NARROW, eps=[0.499, 0.4995, 0.5])
@example(kernel=OVER_ONE, eps=[1e-14, 5e-13])
def test_tail_monotone_and_partition_masses(kernel, eps):
    # any partition of [0, 1] in tail space: its cell masses are
    # non-negative and sum to the mean
    edges = np.unique(np.concatenate(([0.0, 1.0], eps, knot_levels(kernel))))
    tails = kernel.tail_expectation(edges)
    masses = np.diff(tails)
    assert np.all(masses >= 0.0)
    assert abs(math.fsum(masses) - kernel.mean) <= 1e-13 * kernel.mean


@TAIL_SETTINGS
@given(kernel=kernels, eps=st.floats(0.0, 1.0))
def test_tail_scalar_and_array(kernel, eps):
    scalar = kernel.tail_expectation(eps)
    assert type(scalar) is float
    arr = kernel.tail_expectation(np.array([eps, eps]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)
    assert arr[0] == scalar


@pytest.mark.parametrize("kernel", [ZERO_WIDTH, OVER_ONE])
def test_zero_width_cells_clean(kernel):
    eps = np.array([0.0, 1e-15, 1e-14, 1e-13, 5e-13, 1e-12, 0.3, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tails = kernel.tail_expectation(eps)
        masses = np.diff(tails)
    assert np.all(np.isfinite(tails))
    assert tails[0] == 0.0
    assert np.all(masses >= 0.0)
    assert abs(tails[-1] - 0.8) < 1e-12

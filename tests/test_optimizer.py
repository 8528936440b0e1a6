import math
import pathlib
from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from hypothesis import given, settings
from hypothesis import strategies as st

from cptq import attainability as attn
from cptq import cli
from cptq import functions as F
from cptq import optimizer
from cptq.choquet import DiscreteLaw, cpt_value
from cptq.errors import InfeasibleError, ParameterError
from cptq.market import DiscreteKernel, LognormalKernel
from cptq.optimizer import (
    FEAS_TOL,
    GAP_RTOL,
    QuantilePortfolio,
    SolveOptions,
    _Grid,
    _lattice,
    _multiplier_search,
    _sweep,
    solve,
)
from conftest import registry_member

IDENT = F.IdentityDistortion()
ID_U = F.PowerUtility(1.0)
U_EXP = F.ExponentialUtility(1.0)
U_POW2 = F.PowerUtility(2.0)
# the preferences of configs/optimize.cfg
OPT_PREFS = (U_EXP, U_POW2, IDENT, F.AssociatedDistortion(U_POW2, 0.5))


def lattice_solve(kernel, u_plus, u_minus, w_plus, w_minus, x0, n_cells=512, opts=None):
    """``solve`` by the lattice sweeps alone, whatever the preferences."""
    opts = opts or SolveOptions()
    grid = optimizer._checked_grid(kernel, u_plus, u_minus, w_plus, w_minus, x0, n_cells, opts)
    return optimizer._sweep_solve(grid, kernel, w_plus, w_minus, x0, opts)


@pytest.fixture(scope="module")
def lognormal():
    return LognormalKernel(0.2)


def test_constant_profile(lognormal):
    port = QuantilePortfolio(np.full(16, 1.0), lognormal, U_EXP, ID_U, IDENT, IDENT)
    assert abs(port.cost - 1.0) < 1e-12
    assert abs(port.cpt.total - U_EXP(1.0)) < 1e-12


def test_zero_profile(lognormal):
    port = QuantilePortfolio(np.zeros(16), lognormal, U_EXP, ID_U, IDENT, IDENT)
    assert port.cost == 0.0
    assert port.cpt.total == 0.0


def test_two_level_hand_computation(lognormal):
    port = QuantilePortfolio(np.array([-1.0, 3.0]), lognormal, ID_U, ID_U, IDENT, IDENT)
    assert abs(port.cpt.total - 1.0) < 1e-12  # E[X] = (-1+3)/2
    top_price = lognormal.tail_expectation(0.5)
    assert abs(port.cost - (-1.0 * top_price + 3.0 * (1.0 - top_price))) < 1e-12


def test_grid_valuation_matches_choquet(lognormal, rng):
    q = np.sort(rng.normal(0.5, 2.0, 64))
    w_p = F.PrelecDistortion(1.0, 0.65)
    w_m = F.PowerDistortion(1.3)
    u_m = F.PowerUtility(2.0)
    port = QuantilePortfolio(q, lognormal, U_EXP, u_m, w_p, w_m)
    ref = cpt_value(port.law, U_EXP, u_m, w_p, w_m)
    assert abs(port.cpt.v_plus - ref.v_plus) < 1e-12
    assert abs(port.cpt.v_minus - ref.v_minus) < 1e-12


@st.composite
def preferences(draw):
    """Registry kinds on every side; either distortion may instead be the
    associated family of an unbounded loss utility."""
    u_plus = draw(registry_member(F.UTILITY_KINDS))
    u_minus = draw(registry_member(F.UTILITY_KINDS))
    w = []
    for _ in range(2):
        if math.isinf(u_minus.saturation) and draw(st.booleans()):
            w.append(F.AssociatedDistortion(u_minus, draw(st.floats(0.2, 2.0))))
        else:
            w.append(draw(registry_member(F.DISTORTION_KINDS)))
    return u_plus, u_minus, *w


@settings(max_examples=60, deadline=None)
@given(prefs=preferences(), q=st.lists(
    st.sampled_from([-4.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=40))
def test_grid_value_matches_cpt_value(lognormal, prefs, q):
    # the separable sum the sweep maximizes is the CPT value of the step law
    q = np.sort(q)
    want = cpt_value(DiscreteLaw(q, np.full(q.size, 1.0 / q.size)), *prefs).total
    got = _Grid(lognormal, *prefs, q.size).value(q)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def full_band(n_cells, n_levels):
    return np.zeros(n_cells, dtype=np.intp), np.full(n_cells, n_levels - 1, dtype=np.intp)


def test_sweep_matches_enumeration(rng):
    unpriced = (np.zeros(4), np.zeros(6), *full_band(4, 6))
    for _ in range(20):
        g = rng.normal(size=(4, 6))
        best = max(combinations_with_replacement(range(6), 4),
                   key=lambda idx: sum(g[i, l] for i, l in enumerate(idx)))
        top, idx = _sweep(g, *unpriced)
        assert list(idx) == list(best)
        assert abs(top - sum(g[i, l] for i, l in enumerate(best))) < 1e-12
    # integer payoffs tie: the path is the cellwise minimum of all maximisers,
    # the least maximiser the band relies on
    for _ in range(40):
        g = rng.integers(-2, 3, size=(4, 6)).astype(float)
        paths = list(combinations_with_replacement(range(6), 4))
        sums = [sum(g[i, l] for i, l in enumerate(idx)) for idx in paths]
        least = np.min([idx for idx, v in zip(paths, sums) if v == max(sums)], axis=0)
        top, idx = _sweep(g, *unpriced)
        assert list(idx) == list(least)
        assert top == max(sums)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_cells=st.integers(1, 6), n_levels=st.integers(1, 8))
def test_band_sweep_matches_full_band(data, n_cells, n_levels):
    # integer payoffs, prices, levels and multipliers: every sum is exact,
    # and ties are common.  The least maximiser is non-increasing in lam
    # (Topkis), so the band between the profiles at lam3 and lam1 holds the
    # profile at lam2.
    ints = st.integers(-3, 3)
    payoff = np.array(data.draw(st.lists(st.lists(ints, min_size=n_levels, max_size=n_levels),
                                         min_size=n_cells, max_size=n_cells)), dtype=float)
    prices = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_cells,
                                         max_size=n_cells)), dtype=float)
    levels = np.array(sorted(data.draw(st.sets(st.integers(-6, 6), min_size=n_levels,
                                               max_size=n_levels))), dtype=float)
    lam1, lam2, lam3 = sorted(data.draw(st.sets(st.integers(0, 4), min_size=3, max_size=3)))
    band = full_band(n_cells, n_levels)
    _, upper = _sweep(payoff, prices, -lam1 * levels, *band)
    _, lower = _sweep(payoff, prices, -lam3 * levels, *band)
    assert np.all(lower <= upper)
    want_top, want = _sweep(payoff, prices, -lam2 * levels, *band)
    top, idx = _sweep(payoff, prices, -lam2 * levels, lower, upper)
    np.testing.assert_array_equal(idx, want)
    assert top == want_top


def reference_sweep(payoff, prices, neg_levels, lo, hi):
    """Row-by-row band sweep written out independently of ``_sweep``, with
    its traceback kept as a running level; like ``_sweep`` it returns its
    sum as +0.0 when that sum is zero."""
    lo, hi = lo.tolist(), (hi + 1).tolist()
    rows = []
    for i, (a, b, price) in enumerate(zip(lo, hi, prices.tolist())):
        row = price * neg_levels[a:b]
        row += payoff[i, a:b]
        if i:
            prev, a0 = rows[-1], lo[i - 1]
            k = min(b, hi[i - 1]) - a
            if k > 0:
                row[:k] += prev[a - a0: a - a0 + k]
            if k < b - a:
                row[max(k, 0):] += prev[-1]
        np.maximum.accumulate(row, out=row)
        rows.append(row)
    idx = np.empty(len(rows), dtype=np.intp)
    j = lo[-1] + int(rows[-1].argmax())
    idx[-1] = j
    for i in range(len(rows) - 1, 0, -1):
        k = min(j + 1, hi[i - 1]) - lo[i - 1]
        j = lo[i - 1] + (int(rows[i - 1][:k].argmax()) if k > 1 else 0)
        idx[i - 1] = j
    return float(rows[-1][-1]) + 0.0, idx


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_cells=st.integers(1, 12), n_levels=st.integers(1, 6))
def test_folded_sweep_matches_row_sweep(data, n_cells, n_levels):
    # monotone bands where most cells have one level, in runs: each row's
    # sums keep every rounding, and the traceback picks the same levels.
    # Payoffs mix small integers (ties) with arbitrary floats
    lo = np.sort(data.draw(st.lists(st.integers(0, n_levels - 1),
                                    min_size=n_cells, max_size=n_cells)))
    widths = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, n_levels]),
                                min_size=n_cells, max_size=n_cells))
    hi = np.minimum(np.maximum.accumulate(lo + widths), n_levels - 1)
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-5.0, 5.0))
    payoff = np.array(data.draw(st.lists(value, min_size=n_cells * n_levels,
                                         max_size=n_cells * n_levels))).reshape(n_cells, n_levels)
    prices = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n_cells,
                                         max_size=n_cells)))
    neg_levels = -np.sort(data.draw(st.lists(value, min_size=n_levels, max_size=n_levels)))
    top, idx = _sweep(payoff, prices, neg_levels, lo, hi)
    want_top, want = reference_sweep(payoff, prices, neg_levels, lo, hi)
    np.testing.assert_array_equal(idx, want)
    assert np.float64(top).tobytes() == np.float64(want_top).tobytes()


def test_folded_sweep_zero_sum_is_positive_zero():
    # one cell, one level: g = 0.0 * -0.0 + -0.0 = -0.0, returned as +0.0
    args = (np.array([[-0.0]]), np.array([0.0]), np.array([-0.0]),
            np.array([0], dtype=np.intp), np.array([0], dtype=np.intp))
    top, idx = _sweep(*args)
    want_top, want = reference_sweep(*args)
    np.testing.assert_array_equal(idx, want)
    assert np.float64(top).tobytes() == np.float64(want_top).tobytes() == np.float64(0.0).tobytes()


def test_zero_best_sum_is_positive_zero():
    # g is [0, 0, 0, -0.0]: the running max ends on the -0.0 of a tie, and
    # the sum comes back as +0.0
    args = (np.array([[0.0, 0.0, 0.0, -0.0]]), np.zeros(1),
            np.array([-0.0, -0.0, 0.0, -0.0]), np.array([0]), np.array([3]))
    top, idx = _sweep(*args)
    assert (np.float64(top).tobytes(), list(idx)) == (np.float64(0.0).tobytes(), [0])


def test_sweep_keeps_least_maximiser_under_rounding_tie():
    # cell 1's own best level adds 1e-20 to a sum of 1, which rounds it
    # away: the least maximiser keeps cell 1 at level 0
    zeros, band = np.zeros(2), full_band(2, 2)
    payoff = np.array([[1.0, 1.0], [0.0, 1e-20]])
    assert list(payoff.argmax(axis=1)) == [0, 1]
    assert list(_sweep(payoff, zeros, zeros, *band)[1]) == [0, 0]
    # here the tie runs through a level below cell 0's own best: 1 + (2 - 2^-52)
    # and (1 + 2^-52) + 2 both round to 3
    payoff = np.array([[1.0, 1.0 + 2.0 ** -52], [2.0 - 2.0 ** -52, 2.0]])
    assert list(payoff.argmax(axis=1)) == [1, 1]
    top, idx = _sweep(payoff, zeros, zeros, *band)
    assert (top, list(idx)) == (3.0, [0, 0])


def test_sweep_takes_first_of_tied_levels():
    # exact ties within a cell collapse to the first level, over the whole
    # lattice or over a band
    payoff = np.array([[0.0, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    args = (payoff, np.zeros(3), np.zeros(4))
    for lo, hi in (full_band(3, 4), (np.array([1, 1, 1]), np.array([2, 2, 2]))):
        top, idx = _sweep(*args, lo, hi)
        assert (top, list(idx)) == (4.0, [1, 1, 2])


def test_sweep_stays_in_band():
    # cell 1's best level over the whole lattice, 0, lies below its band
    # [1, 2]: the sweep answers within the bands, [0, 2]
    args = (np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 1.0]]), np.zeros(2), np.zeros(3))
    top, idx = _sweep(*args, np.array([0, 1]), np.array([2, 2]))
    assert (top, list(idx)) == (2.0, [0, 2])
    top, idx = _sweep(*args, np.array([0, 0]), np.array([2, 2]))
    assert (top, list(idx)) == (4.0, [0, 0])


def test_monotone_profile_required(lognormal):
    with pytest.raises(ParameterError):
        QuantilePortfolio(np.array([1.0, 0.5]), lognormal, U_EXP, ID_U, IDENT, IDENT)


def lattice_oracle(kernel, u_plus, u_minus, w_plus, w_minus, x0, levels, n_cells):
    """Exhaustive search over monotone profiles drawn from a level set.

    Brute-force reference for small problems: enumerates all non-decreasing
    ``n_cells``-tuples of ``levels``, discards the budget-infeasible ones,
    and returns (best_value, best_profile).
    """
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


def test_solve_risk_neutral_matches_oracle():
    kern = DiscreteKernel([0.4, 0.8, 1.2, 1.6], [0.25, 0.25, 0.25, 0.25])
    opts = SolveOptions(q_min=0.0, q_max=4.0)
    port, diag = solve(kern, ID_U, ID_U, IDENT, IDENT, 1.0, n_cells=4, opts=opts)
    best, _ = lattice_oracle(kern, ID_U, ID_U, IDENT, IDENT, 1.0,
                             np.linspace(0.0, 4.0, 17), 4)
    assert port.cpt.total >= best - 1e-6
    assert port.cost <= 1.0 + 1e-6


def test_solve_pushes_mass_to_cheap_states():
    kern = DiscreteKernel([0.4, 0.8, 1.2, 1.6], [0.25, 0.25, 0.25, 0.25])
    opts = SolveOptions(q_min=0.0, q_max=4.0)
    port, _ = solve(kern, ID_U, ID_U, IDENT, IDENT, 1.0, n_cells=4, opts=opts)
    # anti-comonotone arrangement: wealth against the kernel quantile
    rho = kern.quantile(port.grid)
    cov = float(np.cov(port.q[::-1], rho)[0, 1])
    assert cov < 0.0


def test_solve_value_trace_monotone(lognormal):
    port, diag = lattice_solve(lognormal, U_EXP, F.PowerUtility(2.0), IDENT,
                               F.PowerDistortion(1.0), 1.0, n_cells=32)
    vt = diag.value_trace
    assert len(vt) > 1
    assert all(b >= a for a, b in zip(vt, vt[1:]))
    assert port.cpt.total == vt[-1]


def test_solve_feasible_and_below_ceiling(lognormal):
    port, diag = solve(lognormal, U_EXP, F.PowerUtility(2.0), IDENT,
                       F.PowerDistortion(1.0), 1.0, n_cells=32)
    assert port.cost <= 1.0 + 1e-6
    assert port.cpt.total <= U_EXP.saturation


def test_solve_infeasible_box(lognormal):
    opts = SolveOptions(q_min=5.0, q_max=6.0)
    with pytest.raises(InfeasibleError):
        solve(lognormal, U_EXP, ID_U, IDENT, IDENT, 1.0, n_cells=8, opts=opts)


@pytest.mark.parametrize("box", [dict(q_max=-math.inf), dict(q_min=math.inf),
                                 dict(q_min=2.0, q_max=1.0), dict(q_min=math.nan)])
def test_solve_refuses_box_without_finite_level(lognormal, box):
    with pytest.raises(ParameterError, match="q_min <= q_max"):
        solve(lognormal, *OPT_PREFS, 1.0, n_cells=8, opts=SolveOptions(**box))


def oracle_instances():
    """Ten five-state problems: (kernel, preferences, x0)."""
    rng = np.random.default_rng(2024)
    for trial in range(10):
        vals = np.sort(rng.uniform(0.2, 2.5, 5))
        probs = rng.dirichlet(np.ones(5))
        kern = DiscreteKernel(vals, probs)
        u_p = U_EXP if trial % 2 else F.PowerUtility(-1.0)
        w_p = F.PrelecDistortion(1.0, 0.65) if trial % 3 else IDENT
        w_m = F.PowerDistortion(1.2)
        yield kern, (u_p, U_POW2, w_p, w_m), float(rng.uniform(0.5, 1.5))


def test_oracle_agreement_ten_instances():
    for trial, (kern, prefs, x0) in enumerate(oracle_instances()):
        best, _ = lattice_oracle(kern, *prefs, x0, np.linspace(-1.0, 3.0, 15), 5)
        opts = SolveOptions(q_min=-1.0, q_max=3.0)
        port, _ = solve(kern, *prefs, x0, n_cells=5, opts=opts)
        assert port.cpt.total >= best - 1e-6, (trial, port.cpt.total, best)


def bisection_search(sweep, start=0.0):
    """Reference multiplier search: doubling, then 50 bisection steps;
    ``start`` is ignored."""
    lo, hi = None, sweep(0.0)
    while not hi.within:
        lo, hi = hi, sweep(max(2.0 * hi.lam, 1.0))
    for _ in range(50 if lo is not None else 0):
        cut = sweep(0.5 * (lo.lam + hi.lam))
        if cut.within:
            hi = cut
        else:
            lo = cut
    return lo, hi


def dense_sweep(payoff, prices, neg_levels, lo, hi):
    """Reference sweep: the whole cell-by-level array, whatever the band."""
    g = np.outer(prices, neg_levels) + payoff
    n = g.shape[0]
    for i in range(1, n):
        g[i] += np.maximum.accumulate(g[i - 1])
    idx = np.empty(n, dtype=np.intp)
    idx[-1] = np.argmax(g[-1])
    for i in range(n - 1, 0, -1):
        idx[i - 1] = np.argmax(g[i - 1, : idx[i] + 1])
    return float(g[-1, idx[-1]]), idx


def test_band_sweeps_match_dense_sweeps(lognormal, monkeypatch):
    # the band between the neighbouring multipliers' profiles loses nothing:
    # the dense sweep gives the same answer and the same certificate
    cases = [(lognormal, OPT_PREFS, 1.0, 256, SolveOptions())]
    cases += [(kern, prefs, x0, 5, SolveOptions(q_min=-1.0, q_max=3.0))
              for kern, prefs, x0 in oracle_instances()]
    for kern, prefs, x0, n_cells, opts in cases:
        port, diag = lattice_solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_sweep", dense_sweep)
            ref, ref_diag = lattice_solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        np.testing.assert_array_equal(port.q, ref.q)
        assert diag.bound == ref_diag.bound
        assert diag.iterates == ref_diag.iterates
        assert diag.converged == ref_diag.converged


def test_crossing_search_matches_bisection(lognormal, monkeypatch):
    # the cutting-plane search returns the profile the bisection returned
    cases = [(lognormal, OPT_PREFS, 1.0, 256, SolveOptions())]
    cases += [(kern, prefs, x0, 5, SolveOptions(q_min=-1.0, q_max=3.0))
              for kern, prefs, x0 in oracle_instances()]
    for kern, prefs, x0, n_cells, opts in cases:
        port, diag = lattice_solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_multiplier_search", bisection_search)
            ref, ref_diag = lattice_solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        np.testing.assert_array_equal(port.q, ref.q)
        assert diag.converged == ref_diag.converged
        assert diag.bound <= ref_diag.bound + 1e-12
        assert diag.iterates <= ref_diag.iterates


def test_bound_is_dual_minimum(lognormal):
    # D(lam) = top(lam) + lam x0 is convex: the bound is its minimum, so no
    # multiplier goes below it and a scalar minimisation reaches it
    x0, n_cells = 1.0, 32
    _, diag = lattice_solve(lognormal, *OPT_PREFS, x0, n_cells=n_cells)
    grid = _Grid(lognormal, *OPT_PREFS, n_cells)
    levels = _lattice(x0, -math.inf, math.inf)
    payoff = (np.outer(grid.gain_weights, U_EXP(np.maximum(levels, 0.0)))
              - np.outer(grid.loss_weights, U_POW2(np.maximum(-levels, 0.0))))

    band = full_band(n_cells, levels.size)

    def dual(lam):
        return _sweep(payoff, grid.state_prices, -lam * levels, *band)[0] + lam * x0

    lams = np.geomspace(1e-4, 1e3, 200)
    duals = np.array([dual(lam) for lam in lams])
    assert np.all(duals >= diag.bound - 1e-12)
    i = int(np.argmin(duals))
    found = minimize_scalar(dual, bounds=(lams[i - 1], lams[i + 1]), method="bounded",
                            options={"xatol": 1e-12})
    assert diag.bound - 1e-12 <= found.fun <= diag.bound + 1e-9


def test_warm_start_matches_cold_search(lognormal, monkeypatch):
    # starting the bracket from the coarse solve's multiplier changes which
    # multipliers are swept, not the profile, the verdict or the bound
    cases = [(kern, prefs, x0, 5, SolveOptions(q_min=-1.0, q_max=3.0))
             for kern, prefs, x0 in oracle_instances()]
    cases += [(lognormal, OPT_PREFS, 1.0, n_cells, SolveOptions()) for n_cells in (64, 256, 1024)]
    for kern, prefs, x0, n_cells, opts in cases:
        port, diag = lattice_solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "COARSE_CELLS", math.inf)  # no coarse stage
            ref, ref_diag = lattice_solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        np.testing.assert_array_equal(port.q, ref.q)
        assert diag.converged == ref_diag.converged
        assert abs(diag.bound - ref_diag.bound) <= 1e-12 * max(1.0, abs(ref_diag.bound))


def test_crossing_search_sweep_count(lognormal, monkeypatch):
    # the coarse multiplier brackets lam in a few sweeps, then a few exact
    # cuts; every sweep the diagnostics count is one call of the dynamic
    # programme.  The cold doubling took 19 sweeps at N = 256, the bisection 52
    calls = []
    original = optimizer._sweep

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(optimizer, "_sweep", counted)
    for n_cells in (64, 256, 2048):
        calls.clear()
        _, diag = lattice_solve(lognormal, *OPT_PREFS, 1.0, n_cells=n_cells)
        assert diag.converged
        # the coarse stage's sweeps come on top from 4 * COARSE_CELLS cells on
        assert len(calls) >= diag.iterates
        assert (len(calls) == diag.iterates) == (n_cells < 4 * optimizer.COARSE_CELLS)
        if n_cells == 256:
            assert diag.iterates <= 14


def test_solve_enters_solve_once(lognormal, monkeypatch):
    # the warm start finds its multiplier without re-entering solve or the
    # lattice path, so a caller that wraps them sees one call and one
    # (portfolio, diagnostics)
    calls = []
    for name in ("solve", "_sweep_solve"):
        original = getattr(optimizer, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)
    lattice_solve(lognormal, *OPT_PREFS, 1.0, n_cells=256)
    assert len(calls) == 1


def test_crossing_search_stops_on_tie():
    # two sweeps whose lines cross at an end of the bracket: no cut is made
    calls = []

    def sweep(lam):
        calls.append(lam)
        cost = 2.0 if lam < 1.0 else 0.5
        return optimizer._Swept(lam, None, cost, 1.0 + lam * cost, cost <= 1.0)

    lo, hi = _multiplier_search(sweep)
    assert (lo.lam, hi.lam) == (0.0, 1.0)
    assert calls == [0.0, 1.0]


def test_bound_covers_lattice_profiles():
    # the dual bound holds for every monotone profile on the solver's own
    # lattice within budget, here a subset of it searched exhaustively
    kern = DiscreteKernel([0.5, 0.9, 1.4, 2.0], [0.3, 0.3, 0.2, 0.2])
    u_m, w_p, w_m = F.PowerUtility(2.0), F.PrelecDistortion(1.0, 0.65), F.PowerDistortion(1.2)
    for x0 in (0.6, 1.3):
        levels = _lattice(x0, -1.0, 3.0)[::75]
        best, _ = lattice_oracle(kern, U_EXP, u_m, w_p, w_m, x0, levels, 5)
        port, diag = lattice_solve(kern, U_EXP, u_m, w_p, w_m, x0, n_cells=5,
                                   opts=SolveOptions(q_min=-1.0, q_max=3.0))
        assert diag.bound >= best - 1e-12
        assert port.cpt.total >= best - 1e-12
        assert math.isclose(diag.gap, diag.bound - port.cpt.total)


def test_loss_moment_bound_holds_on_solved_profile(lognormal):
    # in the existence regime the returned profile's loss moment sits
    # under the appendix bound, and it is the moment the diagnostics report
    u_minus = F.PowerUtility(2.0)
    delta, zeta, eta = 0.5, 1.5, 1.2
    w_minus = F.AssociatedDistortion(u_minus, delta)
    port, diag = solve(lognormal, U_EXP, u_minus, IDENT, w_minus, 1.0,
                       n_cells=64, opts=SolveOptions(eta_moment=eta))
    G = attn.g_function(u_minus, delta, zeta)
    lhs, rhs = attn.loss_moment_bound(port.law.negative_part(), u_minus, delta, eta, zeta, G)
    assert lhs <= rhs
    assert lhs == diag.neg_moment_trace[-1]


def test_threshold_contrast_across_resolution(lognormal):
    # matched runs differing only in the association strength: in the
    # existence regime loss moments stay put, outside they grow with the
    # grid resolution
    u_minus = F.PowerUtility(2.0)
    maxima = {}
    for delta in (0.5, 1.5):
        w_minus = F.AssociatedDistortion(u_minus, delta)
        out = []
        for n_cells in (256, 512, 1024):
            opts = SolveOptions(eta_moment=1.2)
            port, _ = solve(lognormal, U_EXP, u_minus, IDENT, w_minus, 1.0,
                            n_cells=n_cells, opts=opts)
            out.append(optimizer._neg_moment(port.q, 1.2))
        maxima[delta] = out
    lo = maxima[0.5]
    hi = maxima[1.5]
    assert max(lo) <= 3.0 * min(lo)               # bounded across resolutions
    assert hi[0] < hi[1] < hi[2]                  # strictly increasing
    assert min(hi) > 10.0 * max(lo)               # and on another scale entirely


def test_box_width_dichotomy(lognormal):
    # where no optimum is attained, widening the box deepens the loss and
    # raises the value; where one exists, the value stops moving once the box
    # clears the optimal profile
    u_minus = F.PowerUtility(2.0)
    for delta in (0.5, 0.9, 1.1, 1.5):
        w_minus = F.AssociatedDistortion(u_minus, delta)
        runs = [solve(lognormal, U_EXP, u_minus, IDENT, w_minus, 1.0, n_cells=256,
                      opts=SolveOptions(q_min=q_min)) for q_min in (-10.0, -40.0, -160.0)]
        values = [port.cpt.total for port, _ in runs]
        floors = [port.q[0] for port, _ in runs]
        holds = attn.regime(u_minus, w_minus).holds
        if holds == "no":
            assert values[0] < values[1] < values[2]
            assert floors[:2] == [-10.0, -40.0]
        else:
            assert holds == "yes"
            assert not runs[-1][1].box_binds
            assert abs(values[2] - values[1]) < 1e-9
        if delta == 1.5:
            assert all(diag.box_binds for _, diag in runs)
            assert floors == [-10.0, -40.0, -160.0]
        if delta == 0.5:
            assert not any(diag.box_binds for _, diag in runs)
            assert max(floors) - min(floors) < 1e-12 and floors[0] > -1.0
            assert max(values) - min(values) < 1e-9


@st.composite
def split_instances(draw):
    """Exponential gain, power loss above 1, any distortions: (kernel,
    preferences, x0) of the class the split solve covers."""
    if draw(st.booleans()):
        kernel = LognormalKernel(draw(st.floats(0.05, 0.6)))
    else:
        n = draw(st.integers(2, 6))
        values = np.cumsum(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        probs = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        kernel = DiscreteKernel(values / np.dot(values, probs / probs.sum()), probs / probs.sum())
    u_minus = F.PowerUtility(draw(st.floats(1.05, 3.0)))
    w = [draw(st.one_of(registry_member(F.DISTORTION_KINDS),
                        st.floats(0.2, 2.0).map(lambda d: F.AssociatedDistortion(u_minus, d))))
         for _ in range(2)]
    prefs = (F.ExponentialUtility(draw(st.floats(0.2, 3.0))), u_minus, *w)
    return kernel, prefs, draw(st.floats(-1.0, 2.0))


def exact_solve(kernel, prefs, x0, n_cells, opts=None):
    """``solve``, checked to have answered by the split solve."""
    port, diag = solve(kernel, *prefs, x0, n_cells=n_cells, opts=opts)
    assert diag.converged and diag.gap == 0.0 and len(diag.value_trace) == 1
    assert diag.bound == port.cpt.total == diag.value_trace[-1]
    assert np.all(np.diff(port.q) >= 0.0) and port.cost <= x0 + FEAS_TOL
    return port, diag


@settings(max_examples=40, deadline=None)
@given(case=split_instances(), n_cells=st.integers(1, 40))
def test_split_solve_never_falls_as_cells_halve(case, n_cells):
    # uniform grids nest: every profile on N cells is one on 2N cells with
    # the same value and cost, so the exact optimum cannot fall
    kernel, prefs, x0 = case
    if x0 == 0.0 and n_cells == 1:
        n_cells = 2  # one cell and no budget: no split has both sides
    coarse, _ = exact_solve(kernel, prefs, x0, n_cells)
    fine, _ = exact_solve(kernel, prefs, x0, 2 * n_cells)
    assert fine.cpt.total >= coarse.cpt.total - 1e-12


@settings(max_examples=25, deadline=None)
@given(case=split_instances(), n_cells=st.integers(2, 48))
def test_split_solve_beats_the_lattice(case, n_cells):
    # the lattice profiles are some of the profiles on the same cells
    kernel, prefs, x0 = case
    port, _ = exact_solve(kernel, prefs, x0, n_cells)
    lattice, _ = lattice_solve(kernel, *prefs, x0, n_cells=n_cells)
    assert port.cpt.total >= lattice.cpt.total - 1e-12


def slsqp_best(grid, x0, starts, rng):
    """The best of SLSQP runs from random starts, each result made feasible
    (sorted up, then lowered evenly to cost at most x0) before it is valued."""
    n = grid.p_mid.size
    constraints = [{"type": "ineq", "fun": lambda q: x0 - grid.cost(q)},
                   {"type": "ineq", "fun": lambda q: np.diff(q)}]
    best = -math.inf
    for _ in range(starts):
        start = np.sort(rng.normal(x0, 2.0, n))
        found = minimize(lambda q: -grid.value(q), start, method="SLSQP",
                         constraints=constraints, options={"maxiter": 500, "ftol": 1e-15})
        q = np.maximum.accumulate(found.x)
        q -= max(grid.cost(q) - x0, 0.0) / grid.total_price
        best = max(best, grid.value(q))
    return best


def test_split_solve_against_slsqp():
    # on 6-cell grids, local searches from many starts never beat it
    rng = np.random.default_rng(6)
    for trial in range(12):
        kernel = LognormalKernel(rng.uniform(0.1, 0.5))
        u_minus = F.PowerUtility(rng.uniform(1.2, 3.0))
        w_minus = (F.AssociatedDistortion(u_minus, rng.uniform(0.3, 1.8)) if trial % 2
                   else F.PowerDistortion(rng.uniform(0.5, 2.0)))
        prefs = (F.ExponentialUtility(rng.uniform(0.5, 2.0)), u_minus,
                 F.PrelecDistortion(1.0, rng.uniform(0.5, 0.9)) if trial % 3 else IDENT, w_minus)
        x0 = (-0.5, 0.0, 1.0)[trial % 3] if trial < 6 else rng.uniform(0.2, 2.0)
        port, _ = exact_solve(kernel, prefs, x0, 6)
        assert slsqp_best(_Grid(kernel, *prefs, 6), x0, 20, rng) <= port.cpt.total + 1e-10


def test_split_solve_without_budget(lognormal):
    # x0 <= 0 leaves split 0 (no loss) infeasible: a loss pays for any gain.
    # One cell must then hold the whole debt, at no gain
    u_minus, w_minus = F.PowerUtility(2.0), F.PowerDistortion(1.3)
    prefs = (U_EXP, u_minus, IDENT, w_minus)
    port, diag = exact_solve(lognormal, prefs, -0.5, 1)
    assert diag.iterates == 1
    assert port.q.tolist() == [-0.5]
    assert math.isclose(port.cpt.total, -0.25, rel_tol=1e-14)
    for x0 in (0.0, -0.5):
        port, diag = exact_solve(lognormal, prefs, x0, 64)
        assert diag.iterates == (63 if x0 == 0.0 else 64)
        assert port.q[0] < 0.0 and abs(port.cost - x0) < 1e-12
        if x0 == 0.0:
            assert port.cpt.total >= 0.0  # the zero profile fits
        lattice, _ = lattice_solve(lognormal, *prefs, x0, n_cells=64)
        assert port.cpt.total >= lattice.cpt.total - 1e-12
    # with one cell and no budget no split has both sides: the lattice answers
    port, diag = solve(lognormal, *prefs, 0.0, n_cells=1)
    assert len(diag.value_trace) > 1 and port.q.tolist() == [0.0]


def test_split_solve_leaves_a_binding_box_to_the_lattice(lognormal):
    # the unboxed optimum lies inside q_min = -1, so it answers there; with
    # q_min = -0.1 it does not fit, and the lattice searches the box
    prefs = OPT_PREFS
    free, _ = exact_solve(lognormal, prefs, 1.0, 256)
    boxed, _ = exact_solve(lognormal, prefs, 1.0, 256, SolveOptions(q_min=-1.0))
    assert boxed.q.tobytes() == free.q.tobytes() and free.q[0] < -0.1
    port, diag = solve(lognormal, *prefs, 1.0, n_cells=256, opts=SolveOptions(q_min=-0.1))
    ref, ref_diag = lattice_solve(lognormal, *prefs, 1.0, n_cells=256,
                                   opts=SolveOptions(q_min=-0.1))
    assert port.q.tobytes() == ref.q.tobytes() and diag.bound == ref_diag.bound
    assert port.q[0] >= -0.1 and port.cpt.total <= free.cpt.total


def test_split_bound_covers_lattice_profiles():
    # the split solve's bound covers every monotone profile on the cells,
    # those of test_bound_covers_lattice_profiles' boxed lattice among them
    kern = DiscreteKernel([0.5, 0.9, 1.4, 2.0], [0.3, 0.3, 0.2, 0.2])
    prefs = (U_EXP, F.PowerUtility(2.0), F.PrelecDistortion(1.0, 0.65), F.PowerDistortion(1.2))
    for x0 in (0.6, 1.3):
        best, _ = lattice_oracle(kern, *prefs, x0, _lattice(x0, -1.0, 3.0)[::75], 5)
        port, diag = exact_solve(kern, prefs, x0, 5)
        assert diag.bound >= best - 1e-12


def test_shipped_optimize_config_rises_with_cells():
    # configs/optimize.cfg on finer and finer grids: the value never falls
    # and every solve converges (the lattice stalled at N = 1024)
    cfg = cli.load_config(str(pathlib.Path(__file__).parent.parent / "configs" / "optimize.cfg"))
    kernel, prefs = cli.build_kernel(cfg), cli.build_preferences(cfg)
    previous = -math.inf
    for n_cells in (64, 256, 512, 1024, 2048):
        port, diag = solve(kernel, *prefs, float(cfg["x0"]), n_cells=n_cells)
        assert port.cpt.total >= previous - 1e-12, n_cells
        assert diag.gap <= GAP_RTOL, n_cells
        previous = port.cpt.total


def test_portfolio_csv(tmp_path, lognormal):
    port = QuantilePortfolio(np.array([0.5, 1.0, 1.5, 2.0]), lognormal,
                             U_EXP, ID_U, IDENT, IDENT)
    path = tmp_path / "portfolio.csv"
    port.to_csv(path, header_lines=["fixture"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# fixture"
    assert lines[1] == "p,q"
    assert len(lines) == 6

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from hypothesis import given, settings
from hypothesis import strategies as st

from cptq import attainability as attn
from cptq import functions as F
from cptq import optimizer
from cptq.choquet import DiscreteLaw, cpt_value
from cptq.errors import InfeasibleError, ParameterError
from cptq.market import DiscreteKernel, LognormalKernel
from cptq.optimizer import (
    FEAS_TOL,
    QuantilePortfolio,
    SolveOptions,
    _Grid,
    _lattice,
    _multiplier_search,
    _own_best,
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


def band_argmax(payoff, prices, neg_levels, lo, hi):
    """Each cell's first argmax of g over its band, one cell at a time."""
    return np.array([a + int(np.argmax(prices[i] * neg_levels[a:b + 1] + payoff[i, a:b + 1]))
                     for i, (a, b) in enumerate(zip(lo, hi))], dtype=np.intp)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), n_cells=st.integers(1, 12), n_levels=st.integers(1, 7),
       side=st.sampled_from(["floor", "ceiling", "both", "whole", "runs"]),
       rect_block=st.sampled_from([optimizer.RECT_BLOCK, 1, 7, 16]))
def test_own_best_matches_sweep(data, n_cells, n_levels, side, rect_block):
    # when the helper answers, it returns the band sweep's levels and its
    # top bit for bit; where each cell's own best levels are not monotone it
    # declines.  Payoffs mix small integers (exact sums, many ties) with
    # floats, signed zeros and terms too small to move a sum of order 1
    # (rounding ties); float prices and levels give products that round.
    # "runs" draws the cut phase's bands: runs of one-level cells beside a
    # few wide ones.  A small RECT_BLOCK splits an open band into blocks of
    # one to a few rows, each searched over its own bounding rectangle
    def profile():
        return np.sort(data.draw(st.lists(st.integers(0, n_levels - 1),
                                          min_size=n_cells, max_size=n_cells)))
    lo, hi = np.sort(np.stack([profile(), profile()]), axis=0)
    if side in ("floor", "whole"):  # bands of a sweep with a swept multiplier on one side
        lo = np.zeros(n_cells)
    if side in ("ceiling", "whole"):
        hi = np.full(n_cells, n_levels - 1)
    if side == "runs":
        widths = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, n_levels]),
                                    min_size=n_cells, max_size=n_cells))
        hi = np.minimum(np.maximum.accumulate(lo + widths), n_levels - 1)
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-5.0, 5.0),
                      st.sampled_from([1.0, 1e-17, -1e-17, 2.0 ** -53, -0.0]))
    payoff = np.array(data.draw(st.lists(value, min_size=n_cells * n_levels,
                                         max_size=n_cells * n_levels))).reshape(n_cells, n_levels)
    prices = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                                                   st.floats(0.0, 2.0)),
                                         min_size=n_cells, max_size=n_cells)))
    level = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0), st.just(-0.0))
    neg_levels = -np.sort(data.draw(st.lists(level, min_size=n_levels, max_size=n_levels)))
    top, idx = _sweep(payoff, prices, neg_levels, lo, hi)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimizer, "RECT_BLOCK", rect_block)
        own = _own_best(payoff, prices, neg_levels, lo, hi)
    best = band_argmax(payoff, prices, neg_levels, lo, hi)
    if np.any(np.diff(best) < 0):
        assert own is None
    if own is not None:
        own_top, own_idx = own
        np.testing.assert_array_equal(own_idx, best)
        np.testing.assert_array_equal(own_idx, idx)
        assert np.float64(own_top).tobytes() == np.float64(top).tobytes()


def test_zero_best_sum_is_positive_zero():
    # g is [0, 0, 0, -0.0]: the sweep's running max ends on the -0.0 of a
    # tie, the own-best pass on the +0.0 of level 0; both return +0.0
    args = (np.array([[0.0, 0.0, 0.0, -0.0]]), np.zeros(1),
            np.array([-0.0, -0.0, 0.0, -0.0]), np.array([0]), np.array([3]))
    for fn in (_sweep, _own_best):
        top, idx = fn(*args)
        assert (np.float64(top).tobytes(), list(idx)) == (np.float64(0.0).tobytes(), [0])


def test_own_best_declines_rounding_tie():
    # cell 1's best level adds 1e-20 to a sum of 1, which rounds it away: the
    # sweep's least maximiser keeps cell 1 at level 0
    zeros, band = np.zeros(2), full_band(2, 2)
    payoff = np.array([[1.0, 1.0], [0.0, 1e-20]])
    assert list(band_argmax(payoff, zeros, zeros, *band)) == [0, 1]
    assert _own_best(payoff, zeros, zeros, *band) is None
    assert list(_sweep(payoff, zeros, zeros, *band)[1]) == [0, 0]
    # here the tie runs through a level below cell 0's best: 1 + (2 - 2^-52)
    # and (1 + 2^-52) + 2 both round to 3
    payoff = np.array([[1.0, 1.0 + 2.0 ** -52], [2.0 - 2.0 ** -52, 2.0]])
    assert list(band_argmax(payoff, zeros, zeros, *band)) == [1, 1]
    assert _own_best(payoff, zeros, zeros, *band) is None
    top, idx = _sweep(payoff, zeros, zeros, *band)
    assert (top, list(idx)) == (3.0, [0, 0])


def test_own_best_takes_first_of_tied_levels():
    # exact ties within a cell collapse to the first level, the sweep's
    # choice, whether the band is searched whole or cell by cell
    payoff = np.array([[0.0, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    args = (payoff, np.zeros(3), np.zeros(4))
    for lo, hi in (full_band(3, 4), (np.array([1, 1, 1]), np.array([2, 2, 2]))):
        top, idx = _own_best(*args, lo, hi)
        assert list(idx) == [1, 1, 2] == list(_sweep(*args, lo, hi)[1])
        assert top == 4.0 == _sweep(*args, lo, hi)[0]


def test_own_best_declines_outside_band(monkeypatch):
    # a band whose top is the lattice's is searched over its block's
    # bounding rectangle, where cell 1's best level, 0, lies below its band
    # [1, 2]: the helper declines although the best levels within the
    # bands, [0, 2], are monotone
    payoff = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 1.0]])
    args = (payoff, np.zeros(2), np.zeros(3))
    lo, hi = np.array([0, 1]), np.array([2, 2])
    assert list(band_argmax(*args, lo, hi)) == [0, 2]
    assert _own_best(*args, lo, hi) is None
    assert list(_sweep(*args, lo, hi)[1]) == [0, 2]
    top, idx = _own_best(*args, np.array([0, 0]), hi)
    assert (top, list(idx)) == (4.0, [0, 0])
    # in blocks of one row, cell 1's rectangle is its band: the helper
    # answers with the sweep's levels and top
    monkeypatch.setattr(optimizer, "RECT_BLOCK", 1)
    top, idx = _own_best(*args, lo, hi)
    assert (top, list(idx)) == (2.0, [0, 2]) == (_sweep(*args, lo, hi)[0], [0, 2])


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
    port, diag = solve(lognormal, U_EXP, F.PowerUtility(2.0), IDENT,
                       F.PowerDistortion(1.0), 1.0, n_cells=32)
    vt = diag.value_trace
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
        port, diag = solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_sweep", dense_sweep)
            ref, ref_diag = solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
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
        port, diag = solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_multiplier_search", bisection_search)
            ref, ref_diag = solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        np.testing.assert_array_equal(port.q, ref.q)
        assert diag.converged == ref_diag.converged
        assert diag.bound <= ref_diag.bound + 1e-12
        assert diag.iterates <= ref_diag.iterates


def test_bound_is_dual_minimum(lognormal):
    # D(lam) = top(lam) + lam x0 is convex: the bound is its minimum, so no
    # multiplier goes below it and a scalar minimisation reaches it
    x0, n_cells = 1.0, 32
    _, diag = solve(lognormal, *OPT_PREFS, x0, n_cells=n_cells)
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
        port, diag = solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "COARSE_CELLS", math.inf)  # no coarse stage
            ref, ref_diag = solve(kern, *prefs, x0, n_cells=n_cells, opts=opts)
        np.testing.assert_array_equal(port.q, ref.q)
        assert diag.converged == ref_diag.converged
        assert abs(diag.bound - ref_diag.bound) <= 1e-12 * max(1.0, abs(ref_diag.bound))


def test_crossing_search_sweep_count(lognormal, monkeypatch):
    # the coarse multiplier brackets lam in a few sweeps, then a few exact
    # cuts, and on configs/optimize.cfg every cell of every sweep, the warm
    # start's included, already sits at its own best level: the own-best pass
    # answers each sweep and the dynamic programme never runs.  The cold
    # doubling took 19 sweeps at N = 256, five of them over 40% of the
    # lattice, and the bisection 52
    calls = {"_own_best": 0, "_sweep": 0}

    def counted(name):
        original = getattr(optimizer, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(optimizer, name, counted(name))
    for n_cells in (64, 256, 2048):
        calls.update(_own_best=0, _sweep=0)
        _, diag = solve(lognormal, *OPT_PREFS, 1.0, n_cells=n_cells)
        assert diag.converged
        assert calls["_sweep"] == 0, (n_cells, calls)
        assert calls["_own_best"] >= diag.iterates
        if n_cells == 256:
            assert diag.iterates <= 14


def test_own_best_shortcut_never_changes_solve(lognormal, monkeypatch):
    # with the own-best pass declining every sweep, each goes through the
    # dynamic programme: the same multipliers are swept and every output
    # agrees bit for bit, in and out of the existence regime
    u_minus = F.PowerUtility(2.0)
    cases = [(OPT_PREFS, SolveOptions()),
             ((U_EXP, u_minus, IDENT, F.AssociatedDistortion(u_minus, 1.5)),
              SolveOptions(q_min=-40.0))]
    for prefs, opts in cases:
        port, diag = solve(lognormal, *prefs, 1.0, n_cells=256, opts=opts)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_own_best", lambda *args: None)
            ref, ref_diag = solve(lognormal, *prefs, 1.0, n_cells=256, opts=opts)
        assert port.q.tobytes() == ref.q.tobytes()
        for name in ("bound", "gap", "multiplier", "value_trace", "neg_moment_trace"):
            assert getattr(diag, name) == getattr(ref_diag, name), name


def test_solve_enters_solve_once(lognormal, monkeypatch):
    # the warm start finds its multiplier without re-entering solve, so a
    # caller that wraps solve sees one call and one (portfolio, diagnostics)
    calls = []
    original = optimizer.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "solve", counted)
    optimizer.solve(lognormal, *OPT_PREFS, 1.0, n_cells=256)
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
        port, diag = solve(kern, U_EXP, u_m, w_p, w_m, x0, n_cells=5,
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


def test_portfolio_csv(tmp_path, lognormal):
    port = QuantilePortfolio(np.array([0.5, 1.0, 1.5, 2.0]), lognormal,
                             U_EXP, ID_U, IDENT, IDENT)
    path = tmp_path / "portfolio.csv"
    port.to_csv(path, header_lines=["fixture"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# fixture"
    assert lines[1] == "p,q"
    assert len(lines) == 6

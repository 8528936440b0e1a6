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
    QuantilePortfolio,
    SolveDiagnostics,
    SolveOptions,
    _Grid,
    _lattice,
    _multiplier_search,
    _sweep,
    lattice_oracle,
    solve,
    tightness_report,
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


def test_sweep_matches_enumeration(rng):
    for _ in range(20):
        g = rng.normal(size=(4, 6))
        best = max(combinations_with_replacement(range(6), 4),
                   key=lambda idx: sum(g[i, l] for i, l in enumerate(idx)))
        top, idx = _sweep(g.copy())
        assert list(idx) == list(best)
        assert abs(top - sum(g[i, l] for i, l in enumerate(best))) < 1e-12


def test_monotone_profile_required(lognormal):
    with pytest.raises(ParameterError):
        QuantilePortfolio(np.array([1.0, 0.5]), lognormal, U_EXP, ID_U, IDENT, IDENT)


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


def test_solve_records_existence_regime(lognormal):
    u_minus = F.PowerUtility(2.0)
    w_minus = F.AssociatedDistortion(u_minus, 0.5)
    opts = SolveOptions(delta=0.5)
    _, diag = solve(lognormal, U_EXP, u_minus, IDENT, w_minus, 1.0,
                    n_cells=16, opts=opts)
    assert diag.existence["in_regime"] is True
    w_bad = F.AssociatedDistortion(u_minus, 1.5)
    opts = SolveOptions(delta=1.5)
    _, diag = solve(lognormal, U_EXP, u_minus, IDENT, w_bad, 1.0,
                    n_cells=16, opts=opts)
    assert diag.existence["in_regime"] is False


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


def bisection_search(sweep):
    """Reference multiplier search: doubling, then 50 bisection steps."""
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

    def dual(lam):
        return _sweep(payoff - np.outer(grid.state_prices, lam * levels))[0] + lam * x0

    lams = np.geomspace(1e-4, 1e3, 200)
    duals = np.array([dual(lam) for lam in lams])
    assert np.all(duals >= diag.bound - 1e-12)
    i = int(np.argmin(duals))
    found = minimize_scalar(dual, bounds=(lams[i - 1], lams[i + 1]), method="bounded",
                            options={"xatol": 1e-12})
    assert diag.bound - 1e-12 <= found.fun <= diag.bound + 1e-9


def test_crossing_search_sweep_count(lognormal):
    # doubling plus a few exact cuts; the bisection took 52 sweeps
    _, diag = solve(lognormal, *OPT_PREFS, 1.0, n_cells=256)
    assert diag.converged
    assert diag.iterates <= 25


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


def test_tightness_report_in_regime(lognormal):
    u_minus = F.PowerUtility(2.0)
    delta, zeta, eta = 0.5, 1.5, 1.2
    w_minus = F.AssociatedDistortion(u_minus, delta)
    opts = SolveOptions(delta=delta, eta_moment=eta)
    _, diag = solve(lognormal, U_EXP, u_minus, IDENT, w_minus, 1.0,
                    n_cells=64, opts=opts)
    G = attn.g_function(u_minus, delta, zeta)
    report = tightness_report(diag, u_minus, delta, eta, zeta, G)
    assert report["violations"] == 0
    assert len(report["snapshots"]) >= 1
    assert report["max_neg_moment"] < math.inf


def test_tightness_report_flags_nothing_for_constant():
    u_minus = F.PowerUtility(2.0)
    delta, zeta, eta = 0.5, 1.5, 1.2
    diag = SolveDiagnostics(snapshots=[(0, np.full(8, 1.0))])
    G = attn.g_function(u_minus, delta, zeta)
    report = tightness_report(diag, u_minus, delta, eta, zeta, G)
    assert report["violations"] == 0


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
            opts = SolveOptions(eta_moment=1.2, delta=delta)
            port, _ = solve(lognormal, U_EXP, u_minus, IDENT, w_minus, 1.0,
                            n_cells=n_cells, opts=opts)
            out.append(port.neg_moment(1.2))
        maxima[delta] = out
    lo = maxima[0.5]
    hi = maxima[1.5]
    assert max(lo) <= 3.0 * min(lo)               # bounded across resolutions
    assert hi[0] < hi[1] < hi[2]                  # strictly increasing
    assert min(hi) > 10.0 * max(lo)               # and on another scale entirely


def test_box_width_dichotomy(lognormal):
    # above the threshold the profile sits on the box floor and widening the
    # box deepens the loss and raises the value; below it the box never binds
    u_minus = F.PowerUtility(2.0)
    for delta in (0.5, 1.5):
        w_minus = F.AssociatedDistortion(u_minus, delta)
        runs = [solve(lognormal, U_EXP, u_minus, IDENT, w_minus, 1.0, n_cells=256,
                      opts=SolveOptions(q_min=q_min)) for q_min in (-10.0, -40.0, -160.0)]
        values = [port.cpt.total for port, _ in runs]
        floors = [port.q[0] for port, _ in runs]
        if delta > 1.0:
            assert all(diag.box_binds for _, diag in runs)
            assert floors == [-10.0, -40.0, -160.0]
            assert values[0] < values[1] < values[2]
        else:
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

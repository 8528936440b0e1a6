import math
import pathlib
import re

import numpy as np
import pytest

from cptq import cli
from cptq import constructions
from cptq import functions as F
from cptq.choquet import choquet_oracle, cpt_value
from cptq.constructions import (
    COST_TOL,
    LEVEL_FLOOR,
    LEVEL_MARGIN,
    LEVEL_TOL,
    build_element,
    demonstrate_nonattainability,
    find_level,
)
from cptq.errors import ConstructionError, LevelTooLowError
from cptq.market import LognormalKernel, TableKernel, budget


@pytest.fixture(scope="module")
def kernel():
    return LognormalKernel(0.2)


@pytest.fixture(scope="module")
def prefs():
    w = F.PrelecDistortion(1.0, 0.5)
    return F.ExponentialUtility(1.0), F.LogUtility(), w, w


@pytest.fixture(scope="module")
def demo_report(kernel, prefs):
    u_plus, u_minus, w_plus, w_minus = prefs
    return demonstrate_nonattainability(
        kernel, u_plus, u_minus, w_plus, w_minus, x0=1.0, n_max=32
    )


def test_find_level_satisfies_defining_inequality(kernel, prefs):
    _, u_minus, _, w_minus = prefs
    a_prev = None
    for n in (1, 2, 4, 8):
        a, b = find_level(n, kernel, w_minus, u_minus, a_prev=a_prev)
        assert float(w_minus(a)) * float(u_minus(1.0 / a)) < 1.0 / n
        if a_prev is not None:
            assert a < a_prev
        a_prev = a


def test_find_level_sequences_monotone(kernel, prefs):
    _, u_minus, _, w_minus = prefs
    levels = []
    a_prev = None
    for n in range(1, 12):
        a, b = find_level(n, kernel, w_minus, u_minus, a_prev=a_prev)
        levels.append((a, b))
        a_prev = a
    a_seq = [a for a, _ in levels]
    b_seq = [b for _, b in levels]
    assert all(x > y for x, y in zip(a_seq, a_seq[1:]))
    assert all(x < y for x, y in zip(b_seq, b_seq[1:]))


def test_find_level_pins_kernel_probability(kernel, prefs):
    _, u_minus, _, w_minus = prefs
    a, b = find_level(5, kernel, w_minus, u_minus)
    assert abs(kernel.cdf(b) - (1.0 - a)) < 1e-9


def reference_find_level(n, kernel, w_minus, u_minus, a_prev=None):
    """``find_level`` with all 80 bisection steps, the reference for its
    early stop: a halving scan, then 80 geometric bisection steps."""
    target = -math.log(n) - 1e-12

    def log_product(a):
        return float(w_minus.log_eval(a)) + float(u_minus.log_eval(1.0 / a))

    good, bad, a = None, None, 0.5 if a_prev is None else a_prev * 0.999
    while a > LEVEL_FLOOR:
        if log_product(a) < target:
            good = a
            break
        bad = a
        a *= 0.5
    if bad is not None:
        for _ in range(80):
            mid = math.sqrt(good) * math.sqrt(bad)
            if log_product(mid) < target:
                good = mid
            else:
                bad = mid
    level = good * LEVEL_MARGIN
    while log_product(level) >= target:
        level *= 0.5
    return level, float(kernel.quantile_upper(level))


def _demo_config_market():
    cfg = cli.load_config(pathlib.Path(__file__).parent.parent / "configs" / "demo_nonattain.cfg",
                          environ={})
    _, u_minus, _, w_minus = cli.build_preferences(cfg)
    return cli.build_kernel(cfg), u_minus, w_minus


def _log_associated_market():
    # bench seed 13, instance 21: the bisection runs at every n >= 11
    u_minus = F.LogUtility()
    return LognormalKernel(0.1875), u_minus, F.AssociatedDistortion(u_minus, 1.574532)


@pytest.mark.parametrize("market", [_demo_config_market, _log_associated_market])
def test_find_level_early_stop_matches_full_bisection(market):
    kernel, u_minus, w_minus = market()
    calls = {"ref": 0, "fast": 0}

    def counted(side):
        def log_eval(a):
            calls[side] += 1
            return type(w_minus).log_eval(w_minus, a)
        return log_eval

    a_prev = None
    for n in range(1, 33):
        w_minus.log_eval = counted("fast")
        got = find_level(n, kernel, w_minus, u_minus, a_prev=a_prev)
        w_minus.log_eval = counted("ref")
        want = reference_find_level(n, kernel, w_minus, u_minus, a_prev=a_prev)
        assert [x.hex() for x in got] == [x.hex() for x in want], n
        a_prev = got[0]
    assert calls["fast"] <= calls["ref"]
    if market is _log_associated_market:
        assert calls["fast"] < calls["ref"] - 22 * 20  # >= 20 steps saved per bisection


def test_find_level_balanced_power_fails(kernel):
    # product pinned at 1: never below 1/n
    with pytest.raises(ConstructionError):
        find_level(1, kernel, F.PowerDistortion(1.0), F.PowerUtility(1.0))


def test_build_element_cost_identity(kernel, prefs, demo_report):
    for el in demo_report.elements:
        assert abs(el.cost - 1.0) < 1e-8


def test_build_element_probabilities_exact(demo_report):
    for el in demo_report.elements:
        probs = sorted(el.law.probs)
        assert probs[0] == el.a_n
        assert probs[1] == 1.0 - el.a_n or probs[1] == 1.0  # tiny a rounds in the sum


def test_build_element_loss_value_below_one_over_n(demo_report):
    for el in demo_report.elements:
        assert el.cpt.v_minus < 1.0 / el.n


def test_build_element_level_too_low(kernel, prefs):
    u_plus, u_minus, w_plus, w_minus = prefs
    # n = 1 produces a kernel level below twice the capital
    level = find_level(1, kernel, w_minus, u_minus)
    assert level[1] <= 2.0
    with pytest.raises(LevelTooLowError):
        build_element(1, kernel, u_plus, u_minus, w_plus, w_minus, 1.0, level=level)


def test_build_element_zero_capital(kernel, prefs):
    u_plus, u_minus, w_plus, w_minus = prefs
    rep = demonstrate_nonattainability(kernel, u_plus, u_minus, w_plus, w_minus,
                                       x0=0.0, n_max=6)
    for el in rep.elements:
        assert abs(el.cost) < 1e-8


def test_values_climb_monotonically(demo_report):
    vals = [el.cpt.total for el in demo_report.elements]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_values_below_ceiling(demo_report):
    for el in demo_report.elements:
        assert el.cpt.total <= demo_report.ceiling + 1e-12
        assert el.cpt.v_plus <= demo_report.ceiling + 1e-12


def test_final_gap_below_tolerance(demo_report):
    assert demo_report.final_gap < 0.05
    assert demo_report.nonattainability_demonstrated


def test_gain_event_mass_matches_monte_carlo(kernel, prefs, rng):
    u_plus, u_minus, w_plus, w_minus = prefs
    el = build_element(4, kernel, u_plus, u_minus, w_plus, w_minus, 1.0,
                       level=find_level(4, kernel, w_minus, u_minus))
    n = 1_000_000
    z = rng.standard_normal(n)
    rho = np.exp(kernel.mu + kernel.sigma * z)
    inside = rho * (rho <= el.b_n)
    mc = float(np.mean(inside))
    se = float(np.std(inside)) / math.sqrt(n)
    assert abs(el.q_event - mc) < 3.0 * se


def test_refuses_when_liminf_holds(kernel):
    # gains bounded, but loss pair keeps the product away from zero
    with pytest.raises(ConstructionError, match="verdict"):
        demonstrate_nonattainability(
            kernel, F.ExponentialUtility(1.0), F.PowerUtility(2.0),
            F.IdentityDistortion(), F.PowerDistortion(1.0), x0=1.0, n_max=4,
        )


def test_refuses_unbounded_gains(kernel, prefs):
    _, u_minus, w_plus, w_minus = prefs
    with pytest.raises(ConstructionError, match="bounded"):
        demonstrate_nonattainability(
            kernel, F.LogUtility(), u_minus, w_plus, w_minus, x0=1.0, n_max=4,
        )


def test_flat_kernel_level_flagged():
    # a kernel with an atom cannot realize every level exactly; the nearest
    # achievable one is used and the mismatch reported
    k = _flat_kernel()
    w = F.PrelecDistortion(1.0, 0.5)
    rep = demonstrate_nonattainability(
        k, F.ExponentialUtility(1.0), F.LogUtility(), w, w, x0=1.0,
        n_max=3, gap_tol=1.0,
    )
    assert any(el.level_gap > 1e-9 for el in rep.elements) == bool(rep.notes)
    # the atom at 2.5 is hit, so the mismatch must actually be reported ...
    assert rep.notes
    # ... and each note names an element whose level moved
    by_n = {el.n: el for el in rep.elements}
    for note in rep.notes:
        n = int(re.match(r"n=(\d+):", note).group(1))
        assert by_n[n].level_gap > LEVEL_TOL
    # the kernel's mean is about 1.90, not 1: every element still costs x0
    for el in rep.elements:
        assert abs(el.cost - 1.0) <= COST_TOL
        assert abs(budget(k, el.law) - 1.0) <= COST_TOL


def _flat_kernel():
    # the atom kernel of test_flat_kernel_level_flagged, mean about 1.90
    return TableKernel([0.0, 0.6, 0.999, 0.9999, 1.0], [0.5, 2.5, 2.5, 6.0, 8.0])


def _closed_form_market(kind):
    """(kernel, u_plus, u_minus, w_plus, w_minus, n_max, gap_tol) of one
    construction the closed-form element values are checked on."""
    u_plus, prelec = F.ExponentialUtility(1.0), F.PrelecDistortion(1.0, 0.5)
    if kind == "demo_config":
        cfg = cli.load_config(pathlib.Path(__file__).parent.parent / "configs"
                              / "demo_nonattain.cfg", environ={})
        return (cli.build_kernel(cfg), *cli.build_preferences(cfg), 32, 0.05)
    if kind == "flat_kernel":
        return _flat_kernel(), u_plus, F.LogUtility(), prelec, prelec, 3, 1.0
    if kind == "gain_weight_above_one":
        # a table distortion may end within 1e-12 above 1: w_plus(1 - a_n) > 1 is clamped
        w_plus = F.TableDistortion([0.0, 0.5, 1.0], [0.0, 0.5, 1.0 + 5e-13])
        return LognormalKernel(0.2), u_plus, F.LogUtility(), w_plus, prelec, 32, 0.05
    u_minus, delta = {
        # u_minus(y_n) overflows from n = 9 on; at n = 2 numpy's strided loop
        # rounds u_minus(y_n) one ulp off its contiguous one, and cpt_value
        # hands y_n over as a reversed view
        "power": (F.PowerUtility(2.5), 1.003),
        "logarithmic": (F.LogUtility(), 1.574532),
        "log_power": (F.LogPowerUtility(1.2, 0.6), 1.6),
    }[kind]
    return (LognormalKernel(0.3), u_plus, u_minus, F.IdentityDistortion(),
            F.AssociatedDistortion(u_minus, delta), 32, 0.05)


@pytest.mark.parametrize("kind", ["demo_config", "power", "logarithmic", "log_power",
                                  "flat_kernel", "gain_weight_above_one"])
def test_closed_form_elements_match_valuation_and_pricing(kind):
    # each element's closed forms against the library's one valuation path,
    # the oracle and the one pricing path
    kernel, *prefs, n_max, gap_tol = _closed_form_market(kind)
    u_plus, u_minus, w_plus, w_minus = prefs
    rep = demonstrate_nonattainability(kernel, *prefs, x0=1.0, n_max=n_max, gap_tol=gap_tol)
    assert rep.elements
    overflowed = 0
    for el in rep.elements:
        law = el.law
        ref = cpt_value(law, *prefs)
        assert el.cpt.v_plus.hex() == ref.v_plus.hex(), el.n
        assert el.cpt.v_minus.hex() == ref.v_minus.hex(), el.n
        assert el.cost.hex() == budget(kernel, law).hex(), el.n
        if math.isinf(u_minus(el.y_atom)):  # the oracle multiplies u itself
            overflowed += 1
            continue
        oracle = (choquet_oracle(law.positive_part(), u_plus, w_plus)
                  - choquet_oracle(law.negative_part(), u_minus, w_minus))
        assert abs(el.cpt.total - oracle) <= 1e-12, el.n
    assert (overflowed > 0) == (kind == "power")
    clamped = any(w_plus(1.0 - el.a_n) > 1.0 for el in rep.elements)
    assert clamped == (kind == "gain_weight_above_one")


def test_demo_config_golden_rows(tmp_path):
    # rows of nonattainability.csv for configs/demo_nonattain.cfg; n = 1 is
    # skipped (its kernel level is below twice the capital), n = 2 is the first
    cfg = pathlib.Path(__file__).parent.parent / "configs" / "demo_nonattain.cfg"
    assert cli.main(["demo-nonattain", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = [ln for ln in (tmp_path / "nonattainability.csv").read_text().splitlines()
             if not ln.startswith("#")]
    rows = {int(ln.split(",")[0]): [float(v) for v in ln.split(",")[1:]] for ln in lines[1:]}
    assert min(rows) == 2 and max(rows) == 32
    golden = {  # n: a_n, b_n, V_plus, V_minus, V
        2: (0.00010524571945120782, 2.0569331178765085, 0.6359706587627518,
            0.23458103577130995, 0.4013896229914419),
        16: (8.603735338159217e-23, 6.899242226211219, 0.9682423333374397,
             0.03991988460791787, 0.9283224487295219),
        32: (8.467103218518749e-39, 13.131619095879085, 0.9985923160980965,
             0.007450773426868764, 0.9911415426712278),
    }
    for n, (a_n, b_n, *values) in golden.items():
        assert rows[n][:2] == [a_n, b_n], n
        for got, want in zip(rows[n][2:5], values):
            assert abs(got - want) <= 1e-15 * abs(want), n


def test_report_csv_and_svg(tmp_path, demo_report):
    csv_path = tmp_path / "demo.csv"
    demo_report.to_csv(csv_path, header_lines=["cfg"])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# cfg"
    assert lines[1] == "n,a_n,b_n,V_plus,V_minus,V,gap"
    assert len(lines) == 2 + len(demo_report.elements)
    gaps = [float(line.split(",")[-1]) for line in lines[2:]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))  # gap column decreasing

    svg_path = tmp_path / "demo.svg"
    demo_report.to_svg(svg_path)
    text = svg_path.read_text()
    assert text.startswith("<svg") and "ceiling" in text


# --- the batched level chain and the one array pass against the per-n loop


def _sequential(kernel, u_plus, u_minus, w_plus, w_minus, x0, n_max):
    """The element-by-element loop: ``find_level`` then ``build_element`` per n,
    an element whose kernel level is below the capital bar skipped."""
    elements, skipped, a_prev = [], [], None
    for n in range(1, n_max + 1):
        level = find_level(n, kernel, w_minus, u_minus, a_prev=a_prev)
        a_prev = level[0]
        try:
            elements.append(build_element(n, kernel, u_plus, u_minus, w_plus, w_minus, x0,
                                          level=level))
        except LevelTooLowError:
            skipped.append((n, *level))
    return elements, skipped


def _chain_market(kind):
    if kind == "log_associated":
        kernel, u_minus, w_minus = _log_associated_market()
        return kernel, F.ExponentialUtility(2.0), u_minus, F.IdentityDistortion(), w_minus, 32
    kernel, *prefs, n_max, _ = _closed_form_market(kind)
    return kernel, *prefs, n_max


CHAIN_KINDS = ["demo_config", "power", "logarithmic", "log_power", "flat_kernel",
               "gain_weight_above_one", "log_associated"]


@pytest.mark.parametrize("kind", CHAIN_KINDS)
def test_level_chain_matches_sequential_find_level(kind, monkeypatch):
    kernel, _, u_minus, _, w_minus, n_max = _chain_market(kind)
    want, a_prev = [], None
    for n in range(1, n_max + 1):
        a_prev = find_level(n, kernel, w_minus, u_minus, a_prev=a_prev)[0]
        want.append(a_prev)
    searched = []

    def counted(n, *args, **kwargs):
        searched.append(n)
        return find_level(n, *args, **kwargs)

    monkeypatch.setattr(constructions, "find_level", counted)
    got, refusal = constructions._level_chain(n_max, kernel, w_minus, u_minus)
    assert refusal is None
    assert [a.hex() for a in got] == [a.hex() for a in want]
    assert searched[0] == 1
    if kind == "log_power":  # the cap step holds all the way: one search in all
        assert searched == [1]
    if kind == "log_associated":  # the cap step fails mid-chain: find_level runs from n = 11
        assert searched[1] == 11


@pytest.mark.parametrize("kind", CHAIN_KINDS)
def test_array_pass_matches_build_element(kind):
    kernel, *prefs, n_max = _chain_market(kind)
    rep = demonstrate_nonattainability(kernel, *prefs, x0=1.0, n_max=n_max)
    elements, skipped = _sequential(kernel, *prefs, 1.0, n_max)
    assert rep.skipped == skipped
    assert [tuple(map(type, s)) for s in rep.skipped] == [(int, float, float)] * len(skipped)
    assert len(rep.elements) == len(elements)
    for got, want in zip(rep.elements, elements):
        assert type(got.n) is int and got.n == want.n
        for name in ("a_n", "b_n", "q_event", "x_atom", "y_atom", "cost", "level_gap"):
            assert type(getattr(got, name)) is float, name
            assert getattr(got, name).hex() == getattr(want, name).hex(), (got.n, name)
        assert got.cpt.v_plus.hex() == want.cpt.v_plus.hex(), got.n
        assert got.cpt.v_minus.hex() == want.cpt.v_minus.hex(), got.n


def test_floor_refusal_keeps_its_message():
    # the chain steps down a decade per n, so the demo config reaches the
    # underflow floor before n = 300; the refusal comes after the elements before it
    kernel, *prefs, _, _ = _closed_form_market("demo_config")
    with pytest.raises(ConstructionError) as want:
        _sequential(kernel, *prefs, 1.0, 300)
    with pytest.raises(ConstructionError) as got:
        demonstrate_nonattainability(kernel, *prefs, x0=1.0, n_max=300)
    assert str(got.value) == str(want.value) == "previous level already at the underflow floor"
    levels, refusal = constructions._level_chain(300, kernel, prefs[3], prefs[1])
    assert str(refusal) == str(want.value) and 32 < len(levels) < 300


class _OverstatedTails(LognormalKernel):
    """A lognormal kernel whose survival overstates every tail 1000-fold, so
    each requested level moves to a larger achievable one."""

    def _survival(self, x):
        return np.minimum(1000.0 * super()._survival(x), 1.0)


def test_nearest_level_refusal_keeps_its_message():
    _, *prefs, _, _ = _closed_form_market("demo_config")
    kernel = _OverstatedTails(0.2)
    with pytest.raises(ConstructionError) as want:
        _sequential(kernel, *prefs, 1.0, 8)
    with pytest.raises(ConstructionError) as got:
        demonstrate_nonattainability(kernel, *prefs, x0=1.0, n_max=8)
    assert type(got.value) is type(want.value) is ConstructionError
    assert str(got.value) == str(want.value)
    assert re.fullmatch(r"nearest achievable level \S+ violates the defining inequality at n=2",
                        str(got.value))


def test_bounded_kernel_refuses_level_zero():
    # above its top quantile a bounded table kernel has survival 0: the
    # nearest achievable level 0 is refused, with no division by it
    kernel = TableKernel([0.0, 0.3, 0.7, 0.99, 0.9999, 0.9999999, 1.0],
                         [0.05, 0.6, 1.1, 3.0, 9.0, 40.0, 200.0], strict=True)
    _, *prefs, _, _ = _closed_form_market("demo_config")
    with pytest.raises(ConstructionError, match="nearest achievable level 0 violates the "
                                                "defining inequality at n=11"):
        demonstrate_nonattainability(kernel, *prefs, x0=1.0, n_max=32, gap_tol=1.0)


class _TwoFaults(_OverstatedTails):
    """Tail masses above level 1e-10 halved, and tails overstated above state
    5 only: an early n fails the tail-mass guard and later ones the
    nearest-level check, which an array pass runs first."""

    def _tail(self, eps):
        return np.where(eps > 1e-10, 0.5, 1.0) * super()._tail(eps)

    def _survival(self, x):
        return np.where(x > 5.0, super()._survival(x), LognormalKernel._survival(self, x))


def test_first_failing_n_raises_across_guards():
    _, *prefs, _, _ = _closed_form_market("demo_config")
    kernel = _TwoFaults(0.2)
    with pytest.raises(ConstructionError) as want:
        _sequential(kernel, *prefs, 1.0, 32)
    with pytest.raises(ConstructionError) as got:
        demonstrate_nonattainability(kernel, *prefs, x0=1.0, n_max=32)
    assert str(got.value) == str(want.value) == "kernel tail mass inconsistent with its level"
    ns, a = np.arange(1, 33), np.array(constructions._level_chain(32, kernel, prefs[3], prefs[1])[0])
    with pytest.raises(ConstructionError, match="nearest achievable level"):  # the one-pass order
        constructions._elements(ns, a, kernel.quantile_upper(a), kernel, *prefs, 1.0)

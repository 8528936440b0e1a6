import math
import pathlib

import numpy as np
import pytest

from cptq import attainability as attn
from cptq import cli
from cptq import functions as F
from cptq.choquet import DiscreteLaw
from cptq.errors import DomainError, EvaluationError, ParameterError
from conftest import random_discrete_law


class ExpGrowthUtility(F.UtilityFunction):
    """u(x) = e^x - 1: the growth transform stretches without bound, so the
    growth-regularity condition must fail.  Refuses arguments it cannot
    evaluate instead of saturating silently."""

    kind = "custom"

    def _raw(self, a):
        if np.any(a > 700.0):
            raise DomainError("overflow")
        return np.expm1(a)

    def inverse(self, y):
        return math.log1p(y)

    def _log(self, a):
        if np.any(a > 700.0):
            raise DomainError("overflow")
        return np.log(np.expm1(np.maximum(a, 1e-300)))

    def _log_exp(self, a):
        if np.any(a > 700.0):
            raise DomainError("overflow")
        e = np.exp(a)
        return np.where(e > 40.0, e, np.log(np.expm1(np.maximum(e, 1e-300))))


# ---------------------------------------------------------------------------
# liminf condition


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_liminf_power_grid(alpha, beta):
    verdict = attn.liminf_condition(F.PowerDistortion(beta), F.PowerUtility(alpha))
    assert verdict.holds == ("yes" if alpha >= beta else "no")
    assert len(verdict.evidence) >= 8
    if alpha == beta:
        assert all(abs(product - 1.0) < 1e-9 for _, product in verdict.evidence)


def test_liminf_associated_at_one_is_boundary_yes():
    u, _ = F.normalize_utility(F.PowerUtility(2.0))
    w = F.AssociatedDistortion(u, 1.0)
    verdict = attn.liminf_condition(w, u)
    assert verdict.holds == "yes"
    assert all(abs(product - 1.0) < 1e-9 for _, product in verdict.evidence)


def test_liminf_log_prelec_fails():
    verdict = attn.liminf_condition(F.PrelecDistortion(1.0, 0.5), F.LogUtility())
    assert verdict.holds == "no"


def test_liminf_associated_tracks_delta():
    for u in (F.PowerUtility(2.0), F.LogUtility(), F.LogPowerUtility(1.5, 0.6)):
        un, _ = F.normalize_utility(u)
        for delta in (0.5, 1.0, 1.5):
            w = F.AssociatedDistortion(un, delta)
            verdict = attn.liminf_condition(w, un)
            assert verdict.holds == ("yes" if delta <= 1.0 else "no"), (u.kind, delta)


@pytest.mark.parametrize("u", [F.LogUtility(), F.PowerUtility(0.5), F.LogPowerUtility(1.0, 0.5)])
@pytest.mark.parametrize("delta", [0.5, 1.0, 1.02, 1.1, 1.3])
def test_liminf_closed_form_for_own_associated_distortion(u, delta):
    # w(x) u(1/x) = u(1)^delta u(1/x)^(1 - delta) -> 0 for every delta > 1,
    # however slowly: at delta = 1.02 the probes alone still read it as level
    verdict = attn.liminf_condition(F.AssociatedDistortion(u, delta), u)
    assert verdict.holds == ("yes" if delta <= 1.0 else "no")
    assert len(verdict.evidence) == attn.LIMINF_PROBES
    if delta > 1.0:
        assert attn.check_delta_threshold(u, delta).holds == "no"


def test_liminf_probes_associated_distortion_of_another_utility():
    # the closed form needs w_minus built on u_minus itself; a twin is probed
    for delta in (0.5, 1.5):
        w = F.AssociatedDistortion(F.PowerUtility(2.0), delta)
        verdict = attn.liminf_condition(w, F.PowerUtility(2.0))
        assert verdict.holds == ("yes" if delta <= 1.0 else "no")
        assert "closed-form" not in verdict.detail


@pytest.mark.parametrize("alpha, holds, slope", [(1.0, "yes", -0.3), (0.5, "no", 0.2)])
def test_liminf_reads_products_beyond_a_double(alpha, holds, slope):
    # u(1e300 / x) passes the largest double at the deep probes, its log does
    # not: the product is 1e300^alpha * x^(0.7 - alpha), growing or decaying
    u = F.ScaledUtility(F.PowerUtility(alpha), 1e300)
    verdict = attn.liminf_condition(F.PowerDistortion(0.7), u)
    assert verdict.holds == holds
    assert verdict.parameters_found["loglog_slope"] == pytest.approx(slope, abs=1e-9)
    xs = 10.0 ** -np.arange(1, attn.LIMINF_PROBES + 1)
    want = alpha * 300 * math.log(10.0) + (0.7 - alpha) * np.log(xs)
    assert [p for _, p in verdict.evidence] == pytest.approx(np.exp(want), rel=1e-12)


# ---------------------------------------------------------------------------
# delta threshold


def test_delta_above_one_not_attainable():
    assert attn.check_delta_threshold(F.PowerUtility(2.0), 1.5).holds == "no"


def test_delta_below_one_power_attainable():
    verdict = attn.check_delta_threshold(F.PowerUtility(2.0), 0.5)
    assert verdict.holds == "yes"
    assert verdict.parameters_found["growth_condition"] == "yes"


def test_delta_bounded_loss_invalid():
    verdict = attn.check_delta_threshold(F.ExponentialUtility(1.0), 0.5)
    assert verdict.holds == "no"
    assert "bounded" in verdict.detail


def test_delta_boundary_sublinear_is_no():
    for u in (F.LogUtility(), F.LogLogUtility(), F.LogPowerUtility(1.0, 0.5),
              F.PowerUtility(0.5)):
        assert attn.check_delta_threshold(u, 1.0).holds == "no", u.kind


def test_delta_boundary_superlinear_inconclusive():
    assert attn.check_delta_threshold(F.PowerUtility(2.0), 1.0).holds == "inconclusive"


# ---------------------------------------------------------------------------
# attainability regime

REGIME_LOSSES = [F.PowerUtility(2.0), F.PowerUtility(0.5), F.LogUtility(),
                 F.LogPowerUtility(1.0, 0.6)]


@pytest.mark.parametrize("u", REGIME_LOSSES, ids=["power2", "power0.5", "log", "log_power"])
@pytest.mark.parametrize("delta", [0.5, 0.9, 1.1, 1.5])
def test_regime_of_associated_distortion(u, delta):
    # the liminf decides above 1; below it the growth condition does, which
    # the logarithmic loss grows too slowly to certify
    verdict = attn.regime(u, F.AssociatedDistortion(u, delta))
    parts = {name: part.holds for name, part in verdict.parts.items()}
    if delta > 1.0:
        expected = {"loss_liminf": "no", "delta_threshold": "no"}
        assert verdict.holds == "no"
    elif isinstance(u, F.LogUtility):
        expected = {"loss_liminf": "yes", "delta_threshold": "inconclusive",
                    "loss_growth_condition": "inconclusive"}
        assert verdict.holds == "inconclusive"
    else:
        expected = dict.fromkeys(("loss_liminf", "delta_threshold", "loss_growth_condition",
                                  "loss_dominance"), "yes")
        assert verdict.holds == "yes"
    assert parts == expected
    assert verdict.parameters_found == {"delta": delta, **expected}


def test_regime_needs_dominance():
    # w_0.8 lies below w_0.5 near 0, so delta = 0.5 does not carry over to it
    u = F.PowerUtility(2.0)
    verdict = attn.regime(u, F.AssociatedDistortion(u, 0.8), delta=0.5)
    assert verdict.holds == "inconclusive"
    assert verdict.parts["delta_threshold"].holds == "yes"
    assert verdict.parts["loss_dominance"].holds == "no"
    assert verdict.detail.endswith("loss_dominance no")


def test_regime_existence_instances():
    u = F.PowerUtility(2.0)
    assert attn.regime(u, F.AssociatedDistortion(u, 0.5), delta=0.5).holds == "yes"
    assert attn.regime(u, F.AssociatedDistortion(u, 1.5), delta=1.5).holds == "no"


def test_regime_without_delta_rests_on_the_liminf():
    assert attn.regime(F.LogUtility(), F.PrelecDistortion(1.0, 0.5)).holds == "no"
    verdict = attn.regime(F.PowerUtility(2.0), F.PowerDistortion(1.0))
    assert verdict.holds == "inconclusive" and "no delta" in verdict.detail
    assert set(verdict.parts) == {"loss_liminf"}


@pytest.fixture
def liminf_calls(monkeypatch):
    """The distortions ``liminf_condition`` is called with, in order."""
    calls = []
    liminf = attn.liminf_condition
    monkeypatch.setattr(attn, "liminf_condition", lambda w, v: calls.append(w) or liminf(w, v))
    return calls


@pytest.mark.parametrize("u", REGIME_LOSSES, ids=["power2", "power0.5", "log", "log_power"])
@pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
def test_regime_probes_own_associated_product_once(liminf_calls, u, delta):
    # w_minus is w_delta itself: the threshold check takes the liminf verdict
    # of the same product instead of probing it again, and says the same
    verdict = attn.regime(u, F.AssociatedDistortion(u, delta), delta)
    assert len(liminf_calls) == 1
    alone = attn.check_delta_threshold(u, delta)
    assert verdict.parts["delta_threshold"].as_dict() == alone.as_dict()


def test_optimize_config_probes_liminf_once(liminf_calls, tmp_path):
    config = pathlib.Path(__file__).parent.parent / "configs" / "optimize.cfg"
    assert cli.main(["optimize", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(liminf_calls) == 1


# ---------------------------------------------------------------------------
# growth condition


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("delta", [0.25, 0.5, 0.9])
def test_growth_condition_powers(alpha, delta):
    verdict = attn.check_growth_condition(F.PowerUtility(alpha), delta)
    assert verdict.holds == "yes"
    assert verdict.parameters_found["sigma"] > 1.0


def test_growth_condition_log_power():
    verdict = attn.check_growth_condition(F.LogPowerUtility(1.0, 0.5), 0.5)
    assert verdict.holds == "yes"


def test_growth_condition_exponential_type_fails():
    verdict = attn.check_growth_condition(ExpGrowthUtility(), 0.5)
    assert verdict.holds == "no"
    assert len(verdict.evidence) >= 8


def test_growth_condition_rejects_bounded():
    with pytest.raises(ParameterError):
        attn.check_growth_condition(F.ExponentialUtility(1.0), 0.5)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("delta", [0.25, 0.5, 0.9])
def test_growth_ratio_form_agrees(alpha, delta):
    u = F.PowerUtility(alpha)
    sigma_form = attn.check_growth_condition(u, delta)
    ratio_form = attn.growth_ratio_probe(u, delta, sigma_form.parameters_found["sigma"])
    assert sigma_form.holds == ratio_form.holds == "yes"


def test_growth_ratio_form_agrees_on_failure():
    u = ExpGrowthUtility()
    sigma_form = attn.check_growth_condition(u, 0.5)
    ratio_form = attn.growth_ratio_probe(u, 0.5, 2.0)
    assert sigma_form.holds == ratio_form.holds == "no"


# ---------------------------------------------------------------------------
# asymptotic elasticity


def test_elasticity_of_power_transform_is_shape():
    for shape in (0.3, 0.7, 0.95):
        z = F.z_transform(F.LogPowerUtility(2.0, shape))
        assert abs(attn.asymptotic_elasticity(z) - shape) < 2e-3


def test_elasticity_of_linear_transform_is_one():
    z = F.z_transform(F.PowerUtility(3.0))
    assert abs(attn.asymptotic_elasticity(z) - 1.0) < 2e-3


@pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
def test_elasticity_of_power_utility_is_alpha(alpha):
    assert abs(attn.asymptotic_elasticity(F.PowerUtility(alpha)) - alpha) < 2e-3


def test_elasticity_growth_check():
    z = F.z_transform(F.LogPowerUtility(2.0, 0.6))
    assert attn.check_elasticity_growth(z, 0.6, 1.0).holds == "yes"
    z_lin = F.z_transform(F.PowerUtility(3.0))
    assert attn.check_elasticity_growth(z_lin, 1.0, 1.0).holds == "yes"
    assert attn.check_elasticity_growth(z_lin, 0.5, 1.0).holds == "no"


# ---------------------------------------------------------------------------
# threshold function


def test_threshold_function_power_closed_form():
    delta, zeta = 0.5, 1.5
    for alpha in (0.5, 2.0):
        G = attn.g_function(F.PowerUtility(alpha), delta, zeta)
        assert G.eval(1.0) == 1.0
        assert G.eval(4.0) == 1.0
        exponent = 1.0 / (delta * alpha * (zeta - 1.0 / delta))
        for lam in (0.9, 0.5, 0.1):
            closed = lam ** exponent
            assert abs(G.eval(lam) - closed) < 2e-6 * closed


def test_threshold_function_monotone(rng):
    G = attn.g_function(F.PowerUtility(2.0), 0.5, 1.5)
    lams = np.sort(rng.uniform(0.05, 5.0, 20))
    vals = [G.eval(float(lam)) for lam in lams]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_threshold_function_requires_normalized():
    u, _ = F.normalize_utility(F.LogUtility())
    attn.g_function(u, 0.5, 1.5)  # fine
    with pytest.raises(ParameterError):
        attn.g_function(F.LogUtility(), 0.5, 1.5)


# a table utility known only up to x = 4 but declared unbounded
TABLE_U = F.TableUtility([0.0, 1.0, 2.0, 4.0], [0.0, 1.0, 1.5, 2.0])


def test_liminf_table_beyond_range_inconclusive():
    verdict = attn.liminf_condition(F.PowerDistortion(1.0), TABLE_U)
    assert verdict.holds == "inconclusive"
    assert verdict.evidence == []
    assert "beyond the tabulated range" in verdict.detail
    for delta in (0.5, 1.5):  # the threshold check probes the same product
        assert attn.check_delta_threshold(TABLE_U, delta).holds == "inconclusive"


def test_liminf_associated_table_utility_inconclusive():
    # the probe is evaluated before the closed form, so a table still refuses
    verdict = attn.liminf_condition(F.AssociatedDistortion(TABLE_U, 1.5), TABLE_U)
    assert verdict.holds == "inconclusive" and verdict.evidence == []


def test_regime_table_loss_utility_inconclusive():
    verdict = attn.regime(TABLE_U, F.PowerDistortion(1.0), delta=0.5)
    assert verdict.holds == "inconclusive"
    assert verdict.parts["delta_threshold"].holds == "inconclusive"


def test_pointwise_marks_refused_points_nan():
    vals = attn._pointwise(TABLE_U.log_eval, np.array([1.0, 2.0, 8.0]))
    assert vals[0] == 0.0 and vals[1] == math.log(1.5) and np.isnan(vals[2])


@pytest.mark.parametrize("u", [F.PowerUtility(2.0), F.PowerUtility(0.5), F.LogUtility(),
                               F.LogLogUtility(), F.LogPowerUtility(1.0, 0.6)],
                         ids=lambda u: repr(u))
def test_growth_check_evaluates_each_grid_in_one_call(u, monkeypatch):
    # the growth check takes each probe grid in one array call, and the
    # differences are those of the point-by-point evaluation, bit for bit
    calls = []
    log_at_exp = type(u).log_at_exp

    def counted(self, t):
        calls.append(np.ndim(t))
        return log_at_exp(self, t)

    monkeypatch.setattr(type(u), "log_at_exp", counted)
    attn.check_growth_condition(u, 0.5)
    assert 0 < len(calls) <= 2 * len(attn.SIGMA_LADDER) and all(calls)
    for sigma in attn.SIGMA_LADDER:
        xs = attn._geometric_grid(cap=attn.GRID_CAP / sigma)
        want = [log_at_exp(u, x) - 0.5 * log_at_exp(u, sigma * x) for x in xs]
        got = attn._z_difference(u, 0.5, sigma, xs)
        assert np.array(want).tobytes() == got.tobytes()


def test_pointwise_falls_back_per_point_on_refusal():
    calls = []

    def fn(x):
        calls.append(np.ndim(x))
        return TABLE_U.log_eval(x)

    vals = attn._pointwise(fn, np.array([1.0, 2.0]))
    assert calls == [1] and vals.tolist() == [0.0, math.log(1.5)]
    calls.clear()
    vals = attn._pointwise(fn, np.array([1.0, 8.0]))
    assert calls == [1, 0, 0] and vals[0] == 0.0 and np.isnan(vals[1])


def test_growth_ratio_probe_stays_in_table():
    verdict = attn.growth_ratio_probe(TABLE_U, 0.5, 1.5)
    assert len(verdict.evidence) >= 8
    assert max(x for x, _ in verdict.evidence) ** 1.5 <= 4.0 * (1.0 + 1e-9)


def test_threshold_function_table_refuses():
    with pytest.raises(EvaluationError):
        attn.ThresholdFunction(TABLE_U, 0.5, 1.5)(1.0)


def test_threshold_function_failure_raises():
    # exponential-type growth: the domination inequality never settles
    u, _ = F.normalize_utility(ExpGrowthUtility())
    with pytest.raises(EvaluationError):
        attn.g_function(u, 0.5, 1.5).eval(0.01)


# ---------------------------------------------------------------------------
# distorted tail bound and moment bound


def test_tail_bound_trivial_point():
    u = F.PowerUtility(2.0)
    w = F.PrelecDistortion(1.0, 0.5)
    law = DiscreteLaw([1.0], [1.0])
    lhs, rhs = attn.distorted_tail_bound(law, u, w, u, u(1.0))
    assert lhs == 0.0
    assert rhs >= lhs


def test_tail_bound_random_trials(rng):
    u = F.PowerUtility(2.0)
    w = F.PrelecDistortion(1.0, 0.5)
    f = F.PowerUtility(1.0)
    violations = 0
    for _ in range(200):
        law = random_discrete_law(rng, max_atoms=30, scale=3.0)
        t = float(rng.exponential(2.0) + 0.01)
        lhs, rhs = attn.distorted_tail_bound(law, u, w, f, t)
        violations += lhs > rhs + 1e-12
    assert violations == 0


def test_tail_bound_rejects_nonpositive_threshold():
    law = DiscreteLaw([1.0], [1.0])
    with pytest.raises(DomainError):
        attn.distorted_tail_bound(law, F.PowerUtility(2.0),
                                  F.IdentityDistortion(), F.PowerUtility(1.0), 0.0)


def test_power_tail_bound_trials(rng):
    u = F.PowerUtility(2.0)
    violations = 0
    for _ in range(200):
        law = random_discrete_law(rng, max_atoms=30, scale=3.0)
        t = float(rng.exponential(2.0) + 0.01)
        s = float(rng.uniform(0.5, 2.0))
        lhs, rhs = attn.power_tail_bound(law, u, 0.5, s, t)
        violations += lhs > rhs + 1e-12
    assert violations == 0


def test_moment_bound_zero_law_trivial():
    u = F.PowerUtility(2.0)
    G = attn.g_function(u, 0.5, 1.5)
    lhs, rhs = attn.loss_moment_bound(DiscreteLaw([0.0], [1.0]), u, 0.5, 1.2, 1.5, G)
    assert lhs == 0.0
    assert rhs > 0.0


def test_moment_bound_two_atom_hand_value():
    u = F.PowerUtility(2.0)
    delta, zeta, eta = 0.5, 1.5, 1.2
    G = attn.g_function(u, delta, zeta)
    law = DiscreteLaw([2.0, 10.0], [0.5, 0.5])
    lhs, rhs = attn.loss_moment_bound(law, u, delta, eta, zeta, G)
    assert abs(lhs - (0.5 * 2.0 ** eta + 0.5 * 10.0 ** eta)) < 1e-12
    assert lhs <= rhs


def test_moment_bound_random_trials(rng):
    u = F.PowerUtility(2.0)
    delta, zeta, eta = 0.5, 1.5, 1.2
    G = attn.g_function(u, delta, zeta)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(1, 40))
        law = DiscreteLaw(rng.uniform(0.0, 50.0, n), rng.dirichlet(np.ones(n)))
        lhs, rhs = attn.loss_moment_bound(law, u, delta, eta, zeta, G)
        violations += lhs > rhs + 1e-9
    assert violations == 0


def test_moment_bound_eta_range_enforced():
    u = F.PowerUtility(2.0)
    G = attn.g_function(u, 0.5, 1.5)
    law = DiscreteLaw([1.0], [1.0])
    with pytest.raises(ParameterError):
        attn.loss_moment_bound(law, u, 0.5, 1.7, 1.5, G)
    with pytest.raises(ParameterError):
        attn.loss_moment_bound(law, u, 0.5, 0.9, 1.5, G)


def test_verdict_requires_evidence():
    with pytest.raises(ParameterError):
        attn.ConditionVerdict(name="x", holds="yes", evidence=[[1.0, 1.0]])
    attn.ConditionVerdict(name="x", holds="inconclusive", evidence=[])

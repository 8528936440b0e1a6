import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptq import functions as F
from cptq.choquet import (
    CPTValue,
    DiscreteLaw,
    choquet_oracle,
    choquet_positive,
    cpt_value,
)
from cptq.errors import DivergenceError, DomainError
from conftest import random_discrete_law, registry_member, signed_laws

IDENT = F.IdentityDistortion()
ID_U = F.PowerUtility(1.0)


def test_survival_discrete():
    law = DiscreteLaw([2.0, 0.0], [0.25, 0.75])
    assert law.survival(1.0) == 0.25
    assert law.survival(-10.0) == 1.0
    assert law.survival(2.0) == 0.0


def test_single_atom_value():
    u = F.ExponentialUtility(1.0)
    w = F.PowerDistortion(2.0)
    law = DiscreteLaw([3.0], [1.0])
    assert abs(choquet_positive(law, u, w) - u(3.0)) < 1e-14
    assert abs(choquet_oracle(law, u, w) - u(3.0)) < 1e-14


def test_two_atom_hand_value():
    law = DiscreteLaw([2.0, 0.0], [0.25, 0.75])
    assert abs(choquet_positive(law, ID_U, F.PowerDistortion(2.0)) - 0.125) < 1e-15
    assert abs(choquet_oracle(law, ID_U, F.PowerDistortion(2.0)) - 0.125) < 1e-15


def test_identity_reduces_to_expectation(rng):
    u = F.LogUtility()
    for _ in range(200):
        law = random_discrete_law(rng)
        expected = float(np.sum(law.probs * u(law.values)))
        assert abs(choquet_positive(law, u, IDENT) - expected) <= 1e-10


def test_oracle_equivalence(rng):
    distortions = [IDENT, F.PowerDistortion(0.7), F.PrelecDistortion(1.0, 0.5)]
    utilities = [ID_U, F.ExponentialUtility(0.5), F.PowerUtility(2.0)]
    for i in range(300):
        law = random_discrete_law(rng)
        u = utilities[i % len(utilities)]
        w = distortions[i % len(distortions)]
        a = choquet_positive(law, u, w)
        b = choquet_oracle(law, u, w)
        assert abs(a - b) <= 1e-10


def test_oracle_equivalence_with_ties(rng):
    for _ in range(100):
        n = int(rng.integers(2, 30))
        vals = np.round(rng.exponential(3.0, n), 1)  # many exact ties
        law = DiscreteLaw(vals, rng.dirichlet(np.ones(n)))
        w = F.PrelecDistortion(0.8, 0.6)
        assert abs(choquet_positive(law, ID_U, w) - choquet_oracle(law, ID_U, w)) <= 1e-10


def test_monotone_in_distortion(rng):
    w_small = F.PowerDistortion(2.0)   # below identity on (0,1)
    w_big = F.PowerDistortion(0.5)     # above identity on (0,1)
    u = F.LogUtility()
    for _ in range(100):
        law = random_discrete_law(rng)
        v1 = choquet_positive(law, u, w_small)
        v2 = choquet_positive(law, u, w_big)
        assert v1 <= v2 + 1e-12


def test_identity_utility_positive_homogeneity(rng):
    w = F.PrelecDistortion(1.0, 0.5)
    for _ in range(100):
        law = random_discrete_law(rng, max_atoms=20)
        c = float(rng.uniform(0.1, 5.0))
        scaled = DiscreteLaw(c * law.values, law.probs)
        v = choquet_positive(law, ID_U, w)
        vc = choquet_positive(scaled, ID_U, w)
        assert abs(vc - c * v) <= 1e-10 * max(1.0, abs(vc))


def test_gain_value_below_saturation(rng):
    u = F.ExponentialUtility(1.0)
    w = F.PrelecDistortion(1.0, 0.5)
    for _ in range(100):
        law = random_discrete_law(rng, scale=50.0)
        assert choquet_positive(law, u, w) <= u.saturation


def test_negative_support_rejected():
    law = DiscreteLaw([-1.0, 2.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        choquet_positive(law, ID_U, IDENT)


def test_cpt_value_zero_payoff():
    law = DiscreteLaw([0.0], [1.0])
    v = cpt_value(law, F.ExponentialUtility(1.0), F.LogUtility(), IDENT, IDENT)
    assert v.v_plus == 0.0 and v.v_minus == 0.0 and v.total == 0.0


def test_cpt_value_symmetric_cancels():
    law = DiscreteLaw([1.0, -1.0], [0.5, 0.5])
    v = cpt_value(law, ID_U, ID_U, IDENT, IDENT)
    assert abs(v.total) < 1e-15


def test_cpt_value_loss_divergence_is_minus_inf():
    # u_minus(1e200) = 1e400 overflows: the loss side is infinite
    heavy = DiscreteLaw([-1e200, 1.0], [0.5, 0.5])
    v = cpt_value(heavy, F.ExponentialUtility(1.0), F.PowerUtility(2.0), IDENT, IDENT)
    assert v.v_minus == math.inf
    assert v.total == -math.inf


def test_cpt_value_several_overflowing_atoms():
    # two atoms past the overflow: inf, not inf - inf (a RuntimeWarning here)
    heavy = DiscreteLaw([-1e200, -2e200, 1.0], [0.25, 0.25, 0.5])
    v = cpt_value(heavy, F.ExponentialUtility(1.0), F.PowerUtility(2.0), IDENT, IDENT)
    assert v.v_minus == math.inf
    assert v.total == -math.inf
    mirrored = DiscreteLaw([1e200, 2e200, -1.0], [0.25, 0.25, 0.5])
    with pytest.raises(DivergenceError):
        cpt_value(mirrored, F.PowerUtility(2.0), F.PowerUtility(2.0), IDENT, IDENT)


def test_valuation_rejects_non_discrete_laws():
    with pytest.raises(DomainError, match="function"):
        choquet_positive(lambda p: p, ID_U, IDENT)


def test_sure_payoff_keeps_full_mass():
    # the probabilities sum to 1 - 1 ulp: the positive part gains no zero
    # atom, and a distortion steep at 1 still sees the lowest level as sure
    law = DiscreteLaw([1.0, 1.0, 1.0], [0.7, 0.2, 0.1])
    log, prelec = F.LogUtility(), F.PrelecDistortion(1.0, 0.5)
    assert law.positive_part().values.tolist() == [1.0, 1.0, 1.0]
    assert cpt_value(law, log, log, prelec, prelec).v_plus == math.log(2.0)
    assert abs(choquet_oracle(law.positive_part(), log, prelec) - math.log(2.0)) <= 2e-16
    # folded atoms merge into one zero atom carrying their summed mass
    folded = DiscreteLaw([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5]).positive_part()
    assert folded.values.tolist() == [2.0, 0.0]
    assert folded.probs.tolist() == [0.5, 0.2 + 0.3]


def test_cpt_value_serialization_tokens():
    v = CPTValue(v_plus=0.5, v_minus=math.inf)
    d = v.as_dict()
    assert d["v_minus"] == "inf" and d["total"] == "-inf"
    assert "inf" in str(v)


def test_law_csv_line_ends_are_lf(tmp_path):
    path = tmp_path / "law.csv"
    DiscreteLaw([1.5, -2.0], [0.25, 0.75]).to_csv(path, header_lines=["fixture"])
    assert path.read_bytes() == b"# fixture\nvalue,prob\n1.5,0.25\n-2.0,0.75\n"


def test_law_csv_round_trip(tmp_path):
    law = DiscreteLaw([1.5, -2.0, 0.25], [0.2, 0.3, 0.5])
    path = tmp_path / "law.csv"
    law.to_csv(path, header_lines=["fixture"])
    back = DiscreteLaw.from_csv(path)
    assert np.array_equal(back.values, law.values)
    assert np.array_equal(back.probs, law.probs)
    # the header is optional; a malformed row is named by file and line
    path.write_text("# fixture\n0.5,0.5\n1.0,0.5\n")
    assert np.array_equal(DiscreteLaw.from_csv(path).values, [0.5, 1.0])
    for bad in ("value,prob\n0.5,0.5\n1.0,half\n", "value,prob\n0.5,0.5\n1.0\n"):
        path.write_text(bad)
        with pytest.raises(DomainError, match=re.escape(f"{path}, line 3")):
            DiscreteLaw.from_csv(path)


def test_law_validation():
    with pytest.raises(DomainError):
        DiscreteLaw([1.0], [0.5])  # probabilities must sum to 1
    with pytest.raises(DomainError):
        DiscreteLaw([math.inf], [1.0])
    with pytest.raises(DomainError):
        DiscreteLaw([1.0, 2.0], [1.0, -0.0])
    with pytest.raises(DomainError):
        DiscreteLaw([1.0, 2.0], [math.nan, 1.0])  # a "nan" cell in a law CSV


@settings(max_examples=60, deadline=None)
# tied atoms whose tail sums to 1 in one order and to 1 - 1e-16 in the other
@example(law=DiscreteLaw([1.0] * 4, [2 / 7, 2 / 7, 2 / 7, 1 / 7]), u_plus=F.LogUtility(),
         u_minus=F.LogUtility(), w_plus=F.PrelecDistortion(1.0, 0.5), w_minus=IDENT)
@given(law=signed_laws(),
       u_plus=registry_member(F.UTILITY_KINDS), u_minus=registry_member(F.UTILITY_KINDS),
       w_plus=registry_member(F.DISTORTION_KINDS), w_minus=registry_member(F.DISTORTION_KINDS))
def test_cpt_value_matches_oracle_for_registry_kinds(law, u_plus, u_minus, w_plus, w_minus):
    value = cpt_value(law, u_plus, u_minus, w_plus, w_minus)
    for got, side, u, w in ((value.v_plus, law.positive_part(), u_plus, w_plus),
                            (value.v_minus, law.negative_part(), u_minus, w_minus)):
        want = choquet_oracle(side, u, w)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

import math

import numpy as np
import pytest

from cptq import functions as F
from cptq.errors import (
    AssociationError,
    DomainError,
    NormalizationError,
    SaturationError,
)

CATALOG = [
    F.PowerUtility(0.5),
    F.PowerUtility(2.0),
    F.PowerUtility(-1.0),
    F.ExponentialUtility(1.0),
    F.LogUtility(),
    F.LogLogUtility(),
    F.LogPowerUtility(2.0, 0.5),
]


def test_zero_at_zero_and_monotone(rng):
    # stay where float resolution can still see the increments of the
    # bounded utilities (1 - e^-x flattens to 1.0 past ~36)
    xs = np.sort(rng.uniform(0.0, 20.0, 200))
    xs = np.unique(xs)
    for u in CATALOG:
        assert u(0.0) == 0.0
        vals = u(xs)
        assert np.all(np.diff(vals) > 0.0), f"{u!r} not strictly increasing"


def test_exponential_basics():
    u = F.ExponentialUtility(1.0)
    assert u(0.0) == 0.0
    assert u.saturation == 1.0
    with pytest.raises(SaturationError):
        u.inverse(1.0)


def test_negative_power_saturates_at_one():
    u = F.PowerUtility(-1.0)
    # u(x) = 1 - (1+x)^-1
    assert abs(u(1e12) - 1.0) < 1e-9
    assert abs(u(3.0) - 0.75) < 1e-15
    assert u.saturation == 1.0


def test_log_utility_value():
    u = F.LogUtility()
    assert abs(u(math.e - 1.0) - 1.0) < 1e-14


def test_inverse_round_trip(rng):
    for u in CATALOG:
        hi = 50.0 if u.saturation == math.inf else 12.0
        xs = rng.uniform(0.01, hi, 100)
        ys = u(xs)
        back = u.inverse(ys)
        assert np.max(np.abs(back - xs) / xs) < 1e-10, repr(u)


def test_inverse_power_square_root():
    assert F.PowerUtility(2.0).inverse(4.0) == 2.0


def test_loglog_inverse_analytic_vs_bisection():
    u = F.LogLogUtility()
    x = u.inverse(1.0)
    assert abs(x - (math.exp(math.e - 1.0) - 1.0)) < 1e-12
    assert abs(F.bracketed_inverse(u, 1.0) - x) < 1e-8 * x


def test_bracketed_inverse_matches_closed_forms(rng):
    for u in CATALOG:
        for y in rng.uniform(0.05, 0.9 * min(u.saturation, 5.0), 5):
            closed = u.inverse(float(y))
            got = F.bracketed_inverse(u, float(y))
            assert abs(got - closed) < 1e-8 * max(1.0, closed)


def test_inverse_domain_errors():
    with pytest.raises(DomainError):
        F.LogUtility().inverse(-0.5)
    with pytest.raises(DomainError):
        F.LogUtility()(-1.0)


def test_normalize_power_unchanged():
    u = F.PowerUtility(2.0)
    scaled, scale = F.normalize_utility(u)
    assert scale == 1.0 and scaled is u


def test_normalize_log_scale():
    scaled, scale = F.normalize_utility(F.LogUtility())
    assert abs(scale - (math.e - 1.0)) < 1e-12
    assert abs(scaled(1.0) - 1.0) < 1e-14
    # the rescaled utility still inverts correctly
    assert abs(scaled.inverse(scaled(2.5)) - 2.5) < 1e-10


def test_normalize_table_scale(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("# saturation=inf\nx,value\n0.0,0.0\n2.0,1.0\n10.0,6.0\n")
    u = F.TableUtility.from_csv(path)
    scaled, scale = F.normalize_utility(u)
    assert scale == 2.0
    assert scaled(1.0) == 1.0


def test_normalize_impossible_for_bounded_below_one():
    bounded = F.ExponentialUtility(1.0)  # saturation exactly 1, never reached
    with pytest.raises(NormalizationError):
        F.normalize_utility(bounded)


def test_write_table_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    rows = [("a", 0.1), (3, np.float64(2.5)), ("b", -math.inf)]
    F.write_table_csv(path, ("key", "value"), rows, header_lines=["one", "two"])
    assert path.read_bytes() == b"# one\n# two\nkey,value\na,0.1\n3,2.5\nb,-inf\n"


def test_associated_power_is_power(rng):
    for alpha in (0.5, 1.0, 2.0):
        for delta in (0.25, 0.5, 1.0, 1.5):
            w = F.AssociatedDistortion(F.PowerUtility(alpha), delta)
            grid = np.linspace(1e-9, 1.0, 2001)
            assert np.max(np.abs(w(grid) - grid ** (alpha * delta))) < 1e-12


def test_associated_log_power_is_prelec():
    u = F.LogPowerUtility(2.0, 0.5)
    for delta in (0.5, 1.0, 2.0):
        w = F.AssociatedDistortion(u, delta)
        prelec = F.PrelecDistortion(delta * 2.0, 0.5)
        grid = np.linspace(1e-9, 1.0, 2001)
        assert np.max(np.abs(w(grid) - prelec(grid))) < 1e-9


def test_associated_endpoints():
    w = F.AssociatedDistortion(F.LogUtility(), 0.7)
    assert w(0.0) == 0.0
    assert abs(w(1.0) - 1.0) < 1e-14


def test_associated_requires_unbounded():
    with pytest.raises(AssociationError):
        F.AssociatedDistortion(F.ExponentialUtility(1.0), 0.5)


def test_associated_normalized_identity(rng):
    # w_delta(x) * u(1/x)^delta == u(1)^delta == 1 for a normalized utility
    u, _ = F.normalize_utility(F.LogUtility())
    for delta in (0.3, 1.0, 2.0):
        w = F.AssociatedDistortion(u, delta)
        xs = rng.uniform(1e-6, 1.0, 200)
        lhs = np.asarray(w.log_eval(xs)) + delta * np.asarray(u.log_eval(1.0 / xs))
        assert np.max(np.abs(lhs)) < 1e-10


def test_distortion_boundary_values():
    for w in (F.IdentityDistortion(), F.PowerDistortion(2.0),
              F.PrelecDistortion(1.0, 0.5)):
        assert w(0.0) == 0.0
        assert abs(w(1.0) - 1.0) < 1e-15
        grid = np.linspace(0.0, 1.0, 101)
        assert np.all(np.diff(w(grid)) > 0.0)
        with pytest.raises(DomainError):
            w(1.5)


def test_z_transform_log_power():
    z = F.z_transform(F.LogPowerUtility(3.0, 0.7))
    t = np.array([0.0, 1.0, 5.0, 1e3, 1e12])
    assert np.max(np.abs(z(t) - 3.0 * t ** 0.7)) < 1e-12 * np.maximum(3.0 * t ** 0.7, 1.0).max()


def test_z_transform_log_matches_formula():
    z = F.z_transform(F.LogUtility())
    for t in (0.0, 1.0, 10.0, 50.0):
        assert abs(z(t) - math.log(math.log(1.0 + math.exp(t)))) < 1e-12
    # far beyond exp overflow the stable form keeps working
    assert abs(z(1e6) - math.log(1e6)) < 1e-9


def test_z_transform_power_is_linear():
    z = F.z_transform(F.PowerUtility(2.0))
    t = np.array([0.5, 1.0, 7.0, 1e9])
    assert np.allclose(z(t), 2.0 * t, rtol=1e-14)


def test_table_round_trip(tmp_path):
    path = tmp_path / "tab.csv"
    path.write_text("# saturation=12.5\nx,value\n0.0,0.0\n1.0,2.0\n3.0,9.0\n")
    u = F.TableUtility.from_csv(path)
    assert u.saturation == 12.5
    assert u(2.0) == 5.5  # linear interpolation
    assert u.inverse(2.0) == 1.0
    with pytest.raises(DomainError):
        u(4.0)
    with pytest.raises(SaturationError):
        u.inverse(13.0)


def test_table_refuses_beyond_range_in_every_evaluator():
    # the range check lives in _raw, so no evaluator clamps past the last row
    u = F.TableUtility([0.0, 1.0, 2.0, 4.0], [0.0, 1.0, 1.5, 2.0])
    scaled, _ = F.normalize_utility(F.TableUtility([0.0, 2.0, 4.0], [0.0, 1.0, 2.0]))
    assert u.log_eval(4.0) == math.log(2.0)
    assert scaled.log_eval(2.0) == math.log(2.0)
    for evaluate in (u, u.log_eval, scaled, scaled.log_eval):
        with pytest.raises(DomainError, match="beyond the tabulated range"):
            evaluate(10.0)
    with pytest.raises(DomainError, match="beyond the tabulated range"):
        u.log_at_exp(math.log(10.0))


def test_table_validation():
    with pytest.raises(DomainError):
        F.TableUtility([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        F.TableUtility([0.5, 1.0], [0.1, 0.2])  # must start at (0, 0)
    with pytest.raises(DomainError):
        F.TableDistortion([0.0, 0.4], [0.0, 0.4])  # must cover [0, 1]


def test_table_distortion(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x,value\n0.0,0.0\n0.5,0.25\n1.0,1.0\n")
    w = F.TableDistortion.from_csv(path)
    assert w(0.25) == 0.125
    assert w(1.0) == 1.0
    path.write_text("0.0,0.0\n0.5,0.25\n1.0,1.0\n")
    with pytest.raises(DomainError, match="must start with the header"):
        F.TableDistortion.from_csv(path)  # tabulated functions need the header

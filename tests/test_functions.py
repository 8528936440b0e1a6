import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cptq import functions as F
from cptq.choquet import DiscreteLaw
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


def bracketed_inverse(utility, y):
    """Invert a utility by doubling bracket search plus bisection.

    Independent of the closed-form ``inverse`` methods, which it
    cross-checks.  The bracket grows from x = 1 by doubling (or shrinks by
    halving) until it straddles the target, then bisects to relative width
    1e-10.
    """
    if y < 0:
        raise DomainError("inversion target must be non-negative")
    if y >= utility.saturation:
        raise SaturationError(f"target {y} at or beyond the upper limit")
    if y == 0.0:
        return 0.0
    lo, hi = 1.0, 1.0
    while utility(hi) < y:
        hi *= 2.0
    while utility(lo) > y:
        lo /= 2.0
    while hi - lo > 1e-10 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if utility(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_loglog_inverse_analytic_vs_bisection():
    u = F.LogLogUtility()
    x = u.inverse(1.0)
    assert abs(x - (math.exp(math.e - 1.0) - 1.0)) < 1e-12
    assert abs(bracketed_inverse(u, 1.0) - x) < 1e-8 * x


def test_bracketed_inverse_matches_closed_forms(rng):
    for u in CATALOG:
        for y in rng.uniform(0.05, 0.9 * min(u.saturation, 5.0), 5):
            closed = u.inverse(float(y))
            got = bracketed_inverse(u, float(y))
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


@pytest.mark.parametrize("base", [F.PowerUtility(1.0), F.PowerUtility(0.5), F.LogUtility(),
                                  F.LogPowerUtility(1.2, 0.6), F.ExponentialUtility(1.5)])
def test_scaled_log_eval_past_the_largest_double(base):
    # 1e300 * x overflows for x = 1e9, log u(1e300 * x) does not
    u = F.ScaledUtility(base, 1e300)
    xs = np.array([1e-3, 1.0, 1e7, 1e9, 1e300])
    want = [base.log_eval(1e300 * x) if x < 1e8 else u.log_at_exp(math.log(x)) for x in xs]
    assert u.log_eval(xs).tolist() == want
    assert [u.log_eval(x) for x in xs] == want
    assert np.isfinite(want).all() and u.log_eval(math.inf) == base.log_eval(math.inf)


@pytest.mark.parametrize("base", [F.PowerUtility(1.0), F.PowerUtility(0.5), F.LogUtility(),
                                  F.LogPowerUtility(1.2, 0.6), F.ExponentialUtility(1.5)])
def test_scaled_value_past_the_largest_double(base):
    # where 1e300 * x overflows the value is exp of the log form, finite
    # wherever u is a finite double; below that it is the base's own value
    u = F.ScaledUtility(base, 1e300)
    xs = np.array([1e-3, 1.0, 1e7, 1e9, 1e300])
    with np.errstate(over="ignore"):
        want = [base(1e300 * x) if x < 1e8 else float(np.exp(u.log_eval(x))) for x in xs]
    assert u(xs).tolist() == want
    assert [u(x) for x in xs] == want
    assert u(math.inf) == base(math.inf)
    assert math.isclose(F.ScaledUtility(F.PowerUtility(0.5), 1e300)(1e9), 10.0 ** 154.5,
                        rel_tol=1e-13)


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


# cells as a writer might print them: repr, other precisions, infinities
CELL_FORMATS = (repr, "{:.17g}".format, "{:.3e}".format, "{:+.6f}".format,
                lambda x: "Infinity" if x == math.inf else repr(x))
PADS = st.sampled_from(["", " ", "  ", "\t"])
CELLS = st.builds(lambda pad, x, fmt, end: pad + fmt(x) + end,
                  PADS, st.floats(allow_infinity=True), st.sampled_from(CELL_FORMATS), PADS)
# (kind, text) of a line that is not a row; comments hold no quote, so any
# CSV reader takes each as one line
FILLER = st.one_of(
    st.just(("blank", "")),
    st.builds(lambda pad, text: ("comment", pad + "#" + text), PADS,
              st.text(alphabet="abc ,=.#0123456789", max_size=12)),
    st.builds(lambda pad, x, fmt: ("saturation", f"{pad}# saturation={fmt(x)}"),
              PADS, st.floats(0.0, allow_infinity=True), st.sampled_from(CELL_FORMATS)),
)


@st.composite
def table_texts(draw):
    """(lines, rows, saturation): a table with blanks, comments and an
    optional header, the (first, second) cell texts of its rows, and the
    saturation its comments set."""
    lines = [text for _, text in draw(st.lists(FILLER, max_size=3))]
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["value,prob", " value , prob", "value"])))
    rows, saturation = [], math.inf
    for item in draw(st.lists(st.one_of(st.tuples(st.just("row"), CELLS, CELLS), FILLER),
                              max_size=25)):
        if item[0] == "row":
            rows.append((len(lines) + 1, item[1], item[2]))
            lines.append(f"{item[1]},{item[2]}")
        else:
            lines.append(item[1])
    for line in lines:
        if line.lstrip().startswith("# saturation="):
            saturation = float(line.split("=", 1)[1])
    return lines, rows, saturation


def _write_lines(path, lines, newline, final):
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode())


@settings(max_examples=150, deadline=None)
@given(table=table_texts(), newline=st.sampled_from(["\n", "\r\n"]), final=st.booleans())
def test_read_table_csv_matches_float_per_cell(tmp_path_factory, table, newline, final):
    lines, rows, saturation = table
    path = tmp_path_factory.mktemp("tables") / "t.csv"
    _write_lines(path, lines, newline, final)
    first, second, sat = F.read_table_csv(path, "value")
    assert first.tobytes() == np.array([float(a) for _, a, _ in rows]).tobytes()
    assert second.tobytes() == np.array([float(b) for _, _, b in rows]).tobytes()
    assert sat == saturation


@settings(max_examples=100, deadline=None)
@given(table=table_texts(), newline=st.sampled_from(["\n", "\r\n"]), data=st.data())
def test_read_table_csv_names_the_corrupted_line(tmp_path_factory, table, newline, data):
    lines, rows, _ = table
    assume(rows)
    number, a, b = data.draw(st.sampled_from(rows))
    lines = list(lines)
    lines[number - 1] = data.draw(st.sampled_from([f"{a},half", a, f",{b}", f"{a};{b}"]))
    path = tmp_path_factory.mktemp("tables") / "t.csv"
    _write_lines(path, lines, newline, True)
    with pytest.raises(DomainError, match=re.escape(f"{path}, line {number}:")):
        F.read_table_csv(path, "value")


def test_read_table_csv_two_cells_no_quotes(tmp_path):
    path = tmp_path / "t.csv"
    # a third cell and a quoted cell are rejected, each naming its line
    for bad in ("value,prob\n# saturation=2\n0.5,0.5,extra\n", 'value,prob\n\n"0.5",0.5\n'):
        path.write_text(bad)
        with pytest.raises(DomainError, match=re.escape(f"{path}, line 3: not two numbers")):
            F.read_table_csv(path, "value")
    # a bad saturation after a bad row: the row is named
    path.write_text("0.5,x\n# saturation=high\n")
    with pytest.raises(DomainError, match=re.escape(f"{path}, line 1:")):
        F.read_table_csv(path, "value")
    path.write_text("0.5,0.5\n# saturation=high\n")
    with pytest.raises(DomainError, match=re.escape(f"{path}, line 2:")):
        F.read_table_csv(path, "value")


def test_read_table_csv_header_only_and_missing_header(tmp_path):
    path = tmp_path / "t.csv"
    # an empty body is no parse error: the law itself refuses it
    path.write_text("# fixture\nvalue,prob\n")
    with pytest.raises(DomainError, match="non-empty"):
        DiscreteLaw.from_csv(path)
    path.write_text("# saturation=3\n0.0,0.0\n1.0,2.0\n")
    with pytest.raises(DomainError, match="must start with the header"):
        F.TableUtility.from_csv(path)


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


@pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])], ids=["scalar", "array"])
def test_nan_rejected_by_every_evaluator(x):
    sample = {"alpha": 2.0, "beta": 0.7, "shape": 0.5}
    utilities = CATALOG + [F.normalize_utility(F.LogUtility())[0]]
    assert {u.kind for u in utilities} == set(F.UTILITY_KINDS)
    distortions = [cls(*(sample[name] for name in cls.params))
                   for cls in F.DISTORTION_KINDS.values()]
    distortions += [F.AssociatedDistortion(F.LogUtility(), 1.5),
                    F.AssociatedDistortion(F.PowerUtility(2.0), 0.5)]
    evaluators = [f for u in utilities for f in (u, u.log_eval, u.log_at_exp)]
    evaluators += [f for w in distortions for f in (w, w.log_eval)]
    for evaluate in evaluators:
        with pytest.raises(DomainError, match="NaN"):
            evaluate(x)


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


def test_scaled_growth_transform_accepts_its_domain():
    # the view checks t >= 0 itself; its base then reads t + log(scale),
    # which a scale below 1 takes below 0
    scaled, scale = F.normalize_utility(F.TableUtility([0.0, 0.5, 4.0], [0.0, 1.0, 2.0]))
    assert scale == 0.5
    want = math.log(1.0 + (0.5 * math.exp(0.1) - 0.5) / 3.5)
    assert scaled.log_at_exp(0.1) == pytest.approx(want, rel=1e-14)
    assert scaled.log_at_exp(np.array([0.0, 0.1]))[1] == scaled.log_at_exp(0.1)


def test_scaled_growth_transform_refuses_negative_t():
    scaled, scale = F.normalize_utility(F.LogUtility())
    assert scale > 1.0  # so t + log(scale) >= 0 even at t = -0.1
    for t in (-0.1, np.array([0.0, -0.1])):
        with pytest.raises(DomainError, match="transform argument"):
            scaled.log_at_exp(t)


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

"""Every evaluator of the preference catalogue, pinned bit for bit.

Each value below was recorded from the evaluators as they stood before
their formulas moved into ``_raw``/``_log``/``_log_exp``/``_inverse``; a
refactor of ``functions`` keeps every bit, the 0-d path included (a numpy
scalar's ``**`` rounds differently from an array's).  A string is the
exception the point raises, a ``RuntimeWarning`` included, since warnings
are errors here.  An overflowing preimage is inf, as every other overflow
is, and every evaluator refuses NaN.
"""

import math
import warnings

import numpy as np
import pytest

from cptq import functions as F

INF = math.inf
# utility points: zero, the least subnormal, tiny, ordinary, past e^t's
# overflow (750) and past the power utilities' (1e300, inf)
X = (0.0, 5e-324, 1e-300, 0.3, 1.0, 2.0, 750.0, 1e300, INF, math.nan)
# probabilities: 1/p overflows at 5e-324; 2.0 lies outside [0, 1]
P = (0.0, 5e-324, 1e-300, 1e-12, 0.3, 0.5, 1.0, 2.0, math.nan)

UTILITIES = {
    "power(2)": F.PowerUtility(2.0),
    "power(0.5)": F.PowerUtility(0.5),
    "power(-1)": F.PowerUtility(-1.0),
    "exponential(1.5)": F.ExponentialUtility(1.5),
    "logarithmic": F.LogUtility(),
    "loglog": F.LogLogUtility(),
    "log_power(1.2, 0.6)": F.LogPowerUtility(1.2, 0.6),
    "table": F.TableUtility([0.0, 0.5, 4.0, 1e6], [0.0, 1.0, 2.0, 3.0]),
    "normalized logarithmic": F.normalize_utility(F.LogUtility())[0],
}
DISTORTIONS = {
    "identity": F.IdentityDistortion(),
    "power(0.7)": F.PowerDistortion(0.7),
    "prelec(0.8, 0.5)": F.PrelecDistortion(0.8, 0.5),
    "associated power(2), 0.5": F.AssociatedDistortion(F.PowerUtility(2.0), 0.5),
    "associated logarithmic, 1.5": F.AssociatedDistortion(F.LogUtility(), 1.5),
    "associated log_power(1.2, 0.6), 0.8":
        F.AssociatedDistortion(F.LogPowerUtility(1.2, 0.6), 0.8),
}
UTILITY_EVALUATORS = ("__call__", "log_eval", "log_at_exp", "inverse")
DISTORTION_EVALUATORS = ("__call__", "log_eval")

GOLDEN = {
    ('power(2)', '__call__'): [0.0, 0.0, 0.0, 0.09, 1.0, 4.0, 562500.0, INF, INF, 'DomainError'],
    ('power(2)', 'log_eval'): [
        -INF, -1488.8801438427624, -1381.5510557964274, -2.4079456086518722, 0.0,
        1.3862943611198906, 13.240146413060712, 1381.5510557964274, INF, 'DomainError'
    ],
    ('power(2)', 'log_at_exp'): [
        0.0, 1e-323, 2e-300, 0.6, 2.0, 4.0, 1500.0, 2e+300, INF, 'DomainError'
    ],
    ('power(2)', 'inverse'): [
        0.0, 2.2227587494850775e-162, 1e-150, 0.5477225575051661, 1.0, 1.4142135623730951,
        27.386127875258307, 1e+150, 'SaturationError', 'DomainError'
    ],
    ('power(0.5)', '__call__'): [
        0.0, 2.2227587494850775e-162, 1e-150, 0.5477225575051661, 1.0, 1.4142135623730951,
        27.386127875258307, 1e+150, INF, 'DomainError'
    ],
    ('power(0.5)', 'log_eval'): [
        -INF, -372.2200359606906, -345.38776394910684, -0.6019864021629681, 0.0,
        0.34657359027997264, 3.310036603265178, 345.38776394910684, INF, 'DomainError'
    ],
    ('power(0.5)', 'log_at_exp'): [
        0.0, 0.0, 5e-301, 0.15, 0.5, 1.0, 375.0, 5e+299, INF, 'DomainError'
    ],
    ('power(0.5)', 'inverse'): [
        0.0, 0.0, 0.0, 0.09, 1.0, 4.0, 562500.0, INF, 'SaturationError', 'DomainError'
    ],
    ('power(-1)', '__call__'): [
        0.0, 5e-324, 1e-300, 0.23076923076923078, 0.5, 0.6666666666666667, 0.9986684420772304,
        1.0, 1.0, 'DomainError'
    ],
    ('power(-1)', 'log_eval'): [
        -INF, -744.4400719213812, -690.7755278982137, -1.466337068793427, -0.6931471805599453,
        -0.4054651081081643, -0.0013324452337786009, 0.0, 0.0, 'DomainError'
    ],
    ('power(-1)', 'log_at_exp'): [
        -0.6931471805599453, -0.6931471805599453, -0.6931471805599453, -0.554355244468527,
        -0.3132616875182228, -0.12692801104297252, 0.0, 0.0, 0.0, 'DomainError'
    ],
    ('power(-1)', 'inverse'): [
        0.0, 5e-324, 1e-300, 0.4285714285714285, 'SaturationError', 'SaturationError',
        'SaturationError', 'SaturationError', 'SaturationError', 'DomainError'
    ],
    ('exponential(1.5)', '__call__'): [
        0.0, 1e-323, 1.5e-300, 0.36237184837822667, 0.7768698398515702, 0.950212931632136, 1.0,
        1.0, 1.0, 'DomainError'
    ],
    ('exponential(1.5)', 'log_eval'): [
        -INF, -743.7469247408213, -690.3700627901055, -1.0150843889061774, -0.25248245892545396,
        -0.051069180942701596, 0.0, 0.0, 0.0, 'DomainError'
    ],
    ('exponential(1.5)', 'log_at_exp'): [
        -0.25248245892545396, -0.25248245892545396, -0.25248245892545396, -0.14158868093248492,
        -0.017096411081869402, -1.5362570912695082e-05, 0.0, 0.0, 0.0, 'DomainError'
    ],
    ('exponential(1.5)', 'inverse'): [
        0.0, 5e-324, 6.666666666666667e-301, 0.2377832959591549, 'SaturationError',
        'SaturationError', 'SaturationError', 'SaturationError', 'SaturationError', 'DomainError'
    ],
    ('logarithmic', '__call__'): [
        0.0, 5e-324, 1e-300, 0.26236426446749106, 0.6931471805599453, 1.0986122886681098,
        6.621405651764134, 690.7755278982137, INF, 'DomainError'
    ],
    ('logarithmic', 'log_eval'): [
        -INF, -744.4400719213812, -690.7755278982137, -1.3380214184293209, -0.36651292058166435,
        0.0940478276166991, 1.8903076815125652, 6.537814919904156, INF, 'DomainError'
    ],
    ('logarithmic', 'log_at_exp'): [
        -0.36651292058166435, -0.36651292058166435, -0.36651292058166435, -0.15740819455864472,
        0.2725138805025834, 0.7546786903434886, 6.620073206530356, 690.7755278982137, INF,
        'DomainError'
    ],
    ('logarithmic', 'inverse'): [
        0.0, 5e-324, 1e-300, 0.3498588075760031, 1.7182818284590453, 6.38905609893065,
        INF, INF, 'SaturationError', 'DomainError'
    ],
    ('loglog', '__call__'): [
        0.0, 5e-324, 1e-300, 0.23298636309433307, 0.5265890341390445, 0.7412763113750153,
        2.0309608214217407, 6.5392615213445815, INF, 'DomainError'
    ],
    ('loglog', 'log_eval'): [
        -INF, -744.4400719213812, -690.7755278982137, -1.4567753546213698, -0.6413348560276627,
        -0.29938183334736523, 0.7085089921225474, 1.8778242418678783, INF, 'DomainError'
    ],
    ('loglog', 'log_at_exp'): [
        -0.6413348560276627, -0.6413348560276627, -0.6413348560276627, -0.4820161984596118,
        -0.17595167019804506, 0.13107304778805035, 1.8903076815125652, 6.537814919904156, INF,
        'DomainError'
    ],
    ('loglog', 'inverse'): [
        0.0, 5e-324, 1e-300, 0.41886720115035936, 4.574941524760881, 594.2944153807538,
        INF, INF, 'SaturationError', 'DomainError'
    ],
    ('log_power(1.2, 0.6)', '__call__'): [
        0.0, 2.8424430074996714e-28, 4.601653434826704e-27, 0.2614850346976452, 1.0,
        2.6198351559607476, 41.67556070429442, 2.1731319278233726e+26, INF, 'DomainError'
    ],
    ('log_power(1.2, 0.6)', 'log_eval'): [
        -INF, -63.42771870752377, -60.64338182957448, -1.3413782258044766, 0.0,
        0.9631113982213783, 3.729914882758574, 60.64338182957448, INF, 'DomainError'
    ],
    ('log_power(1.2, 0.6)', 'log_at_exp'): [
        0.0, 1.2458106528466732e-194, 1.2000000000000185e-180, 0.5827120497962446, 1.2,
        1.8188598798124775, 63.71152552769606, 1.1999999999999815e+180, INF, 'DomainError'
    ],
    ('log_power(1.2, 0.6)', 'inverse'): [
        0.0, 0.0, 0.0, 0.36585292495169164, 1.0, 1.4927605624770963, 30221830.36171184,
        INF, 'SaturationError', 'DomainError'
    ],
    ('table', '__call__'): [
        0.0, 1e-323, 2e-300, 0.6, 1.1428571428571428, 1.4285714285714286, 2.000746002984012,
        'DomainError', 'DomainError', 'DomainError'
    ],
    ('table', 'log_eval'): [
        -INF, -743.7469247408213, -690.0823807176538, -0.5108256237659907, 0.13353139262452257,
        0.3566749439387324, 0.6935201125041885, 'DomainError', 'DomainError', 'DomainError'
    ],
    ('table', 'log_at_exp'): [
        0.13353139262452257, 0.13353139262452257, 0.13353139262452257, 0.21738041804994643,
        0.4909054121333111, 0.6931488750933371, 'DomainError', 'DomainError', 'DomainError',
        'DomainError'
    ],
    ('table', 'inverse'): [
        0.0, 0.0, 5e-301, 0.15, 0.5, 4.0, 'DomainError', 'DomainError', 'SaturationError',
        'DomainError'
    ],
    ('normalized logarithmic', '__call__'): [
        0.0, 1e-323, 1.7182818284590452e-300, 0.41573522184362866, 1.0, 1.48988012564475,
        7.16217372917752, 691.3168527528267, INF, 'DomainError'
    ],
    ('normalized logarithmic', 'log_eval'): [
        -INF, -743.7469247408213, -690.2342030436008, -0.8777067073168645, 0.0,
        0.3986956641334687, 1.9688135283579322, 6.538598261003308, INF, 'DomainError'
    ],
    ('normalized logarithmic', 'log_at_exp'): [
        0.0, 0.0, 0.0, 0.18215108337100996, 0.5511950984105483, 0.9620817079985544,
        6.620794712655019, 690.7755278982137, INF, 'DomainError'
    ],
    ('normalized logarithmic', 'inverse'): [
        0.0, 5e-324, 5.819767068693264e-301, 0.20360967670231161, 1.0, 3.718281828459045,
        INF, INF, 'SaturationError', 'DomainError'
    ],
    ('identity', '__call__'): [
        0.0, 5e-324, 1e-300, 1e-12, 0.3, 0.5, 1.0, 'DomainError', 'DomainError'
    ],
    ('identity', 'log_eval'): [
        -INF, -744.4400719213812, -690.7755278982137, -27.631021115928547, -1.2039728043259361,
        -0.6931471805599453, 0.0, 'DomainError', 'DomainError'
    ],
    ('power(0.7)', '__call__'): [
        0.0, 4.848967349651144e-227, 1.0000000000000306e-210, 3.981071705534977e-09,
        0.4305116202499342, 0.6155722066724582, 1.0, 'DomainError', 'DomainError'
    ],
    ('power(0.7)', 'log_eval'): [
        -INF, -521.1080503449668, -483.5428695287495, -19.34171478114998, -0.8427809630281552,
        -0.48520302639196167, 0.0, 'DomainError', 'DomainError'
    ],
    ('prelec(0.8, 0.5)', '__call__'): [
        0.0, 3.3145028449060957e-10, 7.387311386091366e-10, 0.014917542406969742,
        0.41569412884765505, 0.5137370661189542, 1.0, 'DomainError', 'DomainError'
    ],
    ('prelec(0.8, 0.5)', 'log_eval'): [
        -INF, -21.82754328892017, -21.02608707902773, -4.205217415805546, -0.877805556355506,
        -0.6660436889261582, -0.0, 'DomainError', 'DomainError'
    ],
    ('associated power(2), 0.5', '__call__'): [
        0.0, 0.0, 1.0000000000000237e-300, 1.000000000000001e-12, 0.3, 0.5, 1.0, 'DomainError',
        'DomainError'
    ],
    ('associated power(2), 0.5', 'log_eval'): [
        -INF, -INF, -690.7755278982137, -27.631021115928547, -1.2039728043259361,
        -0.6931471805599453, 0.0, 'DomainError', 'DomainError'
    ],
    ('associated logarithmic, 1.5', '__call__'): [
        0.0, 0.0, 3.178577292038477e-05, 0.003973221615047878, 0.32500307581835286,
        0.5011543596299167, 1.0, 'DomainError', 'DomainError'
    ],
    ('associated logarithmic, 1.5', 'log_eval'): [
        -INF, -INF, -10.356491760728732, -5.528178023426485, -1.1239206326407132,
        -0.6908411222975452, 0.0, 'DomainError', 'DomainError'
    ],
    ('associated log_power(1.2, 0.6), 0.8', '__call__'): [
        0.0, 0.0, 8.51787232217101e-22, 0.0008827271735109771, 0.3419459550270868,
        0.46278665539397157, 1.0, 'DomainError', 'DomainError'
    ],
    ('associated log_power(1.2, 0.6), 0.8', 'log_eval'): [
        -INF, -INF, -48.51470546365959, -7.032494381874732, -1.0731025806435814,
        -0.7704891185771027, 0.0, 'DomainError', 'DomainError'
    ],
}

# where an array's element differs from the scalar result: (point, value)
ARRAY_GOLDEN = {
    # -0.8 * (-log 1) ** 0.5: the scalar power keeps -0.0's sign apart
    ("prelec(0.8, 0.5)", "log_eval"): {1.0: 0.0},
}


def outcome(fn, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(x)
        except Exception as exc:  # the outcome pinned is the exception's type
            return type(exc).__name__


def pinned(v):
    """A value's type and bits, or the name of the exception it stands for."""
    return v if isinstance(v, str) else (type(v).__name__, np.float64(v).tobytes())


def test_golden_covers_the_catalogue():
    assert {u.kind for u in UTILITIES.values()} >= set(F.UTILITY_KINDS)
    assert {w.kind for w in DISTORTIONS.values()} >= set(F.DISTORTION_KINDS)
    assert set(GOLDEN) == ({(n, m) for n in UTILITIES for m in UTILITY_EVALUATORS}
                           | {(n, m) for n in DISTORTIONS for m in DISTORTION_EVALUATORS})


@pytest.mark.parametrize("name, method", list(GOLDEN), ids=lambda v: v)
def test_evaluator_bits(name, method):
    fn = getattr(UTILITIES.get(name) or DISTORTIONS[name], method)
    points = X if name in UTILITIES else P
    want = GOLDEN[name, method]
    assert [pinned(outcome(fn, x)) for x in points] == [pinned(v) for v in want]
    ok = [(x, v) for x, v in zip(points, want) if not isinstance(v, str)]
    override = ARRAY_GOLDEN.get((name, method), {})
    got = outcome(fn, np.array([x for x, _ in ok]))
    assert not isinstance(got, str) and got.dtype == np.float64
    assert got.tobytes() == np.array([override.get(x, v) for x, v in ok]).tobytes()


@pytest.mark.parametrize("name, method", list(GOLDEN), ids=lambda v: v)
def test_each_evaluation_validates_once(name, method, monkeypatch):
    calls = []
    validate = F._eval

    def counted(*args, **kwargs):
        calls.append(args[0])
        return validate(*args, **kwargs)

    monkeypatch.setattr(F, "_eval", counted)
    fn = getattr(UTILITIES.get(name) or DISTORTIONS[name], method)
    fn(0.5)
    fn(np.array([0.25, 0.5]))
    assert len(calls) == 2

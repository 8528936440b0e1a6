"""Catalog of utility and probability-distortion functions.

Utilities are strictly increasing maps on [0, inf) with u(0) = 0 and an
explicit (possibly infinite) upper limit ``saturation``.  Distortions are
strictly increasing maps of [0, 1] onto itself.  All objects are immutable
after construction and vectorized over numpy arrays.

Every utility has three public evaluators, a distortion the first two:
``__call__`` (the value), ``log_eval`` (its log, computed without forming
huge intermediates) and ``log_at_exp(t)`` = log(u(e^t)), the growth
transform, stable for t far beyond the overflow range of e^t.

Only the base classes validate: each evaluator checks its argument once, in
``_eval``, and hands the checked array to a formula.  A subclass declares
``_raw`` (the value) and, where a stabler form exists, ``_log``,
``_log_exp`` and ``_inverse`` (``inverse`` first refuses targets at or
above the saturation); the defaults derive the log forms from ``_raw``.  A
formula calls formulas, never a public evaluator, so nothing is validated
twice.  Each parametric class declares its constructor arguments once, in
``params``; ``UTILITY_KINDS`` and ``DISTORTION_KINDS`` map every parametric
``kind`` to its class, and the CLI builds preferences from them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AssociationError,
    DomainError,
    NormalizationError,
    SaturationError,
)

_LOG_MAX = 700.0  # exp() overflows shortly above this


def _checked(fn, x, lo, hi, what, named=None):
    """Check that every point lies in [lo, hi] (a NaN lies in none; a
    refusal names the interval as ``named``, else as [lo, hi]) and apply
    ``fn``, preserving scalar-ness.  The one argument gate of the package:
    the preference evaluators reach it through ``_eval``, the pricing
    kernels' directly."""
    arr = np.asarray(x, dtype=float)
    inside = (arr >= lo) & (arr <= hi)  # a numpy bool, not an array, when arr is 0-d
    if not (inside.all() if arr.ndim else inside):
        raise DomainError(f"{what} must lie in {named or f'[{lo}, {hi}]'} and not be NaN")
    out = fn(arr)
    return float(out) if arr.ndim == 0 else out


def _eval(fn, x, lo=0.0, hi=math.inf, what="argument"):
    """``_checked`` with floating-point warnings silenced: a preference
    formula's overflow or log(0) is its value, inf or -inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _checked(fn, x, lo, hi, what)


def _log1p_exp(t):
    # log(1+e^t) = t + log1p(e^-t) for large t, log1p(e^t) otherwise
    t = np.asarray(t, dtype=float)
    small = np.minimum(t, 35.0)
    out = np.log1p(np.exp(small))
    big = t > 35.0
    if np.any(big):
        out = np.where(big, t + np.log1p(np.exp(-np.where(big, t, 35.0))), out)
    return out


class UtilityFunction:
    """Base class: strictly increasing on [0, inf) with u(0) = 0."""

    kind = "abstract"
    params = ()
    saturation = math.inf

    def __call__(self, x):
        return _eval(self._raw, x)

    def log_eval(self, x):
        """log(u(x)); -inf where u(x) = 0."""
        return _eval(self._log, x, what="utility argument")

    def log_at_exp(self, t):
        """log(u(e^t)) for t >= 0, the growth transform of the utility."""
        return _eval(self._log_exp, t, what="transform argument")

    def inverse(self, y):
        """The x >= 0 with u(x) = y, for 0 <= y < saturation."""
        arr = np.asarray(y, dtype=float)
        if np.any(arr >= self.saturation):
            raise SaturationError(
                f"target {np.max(arr)} not attained; upper limit is {self.saturation}"
            )
        return _eval(self._inverse, arr, what="inversion target")

    def _raw(self, arr):
        """The utility's one formula, on an array ``_eval`` has validated."""
        raise NotImplementedError

    def _log(self, arr):
        return np.log(self._raw(arr))

    def _log_exp(self, arr):
        if np.any(arr > _LOG_MAX):
            raise DomainError("e^t overflows and no stable form is available")
        return np.log(self._raw(np.exp(arr)))

    def _inverse(self, arr):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self._params()})"

    def _params(self):
        return ", ".join(f"{name}={getattr(self, name)}" for name in self.params)


class PowerUtility(UtilityFunction):
    """u(x) = x^alpha for alpha > 0, u(x) = 1 - (1+x)^alpha for alpha < 0.

    Unbounded for positive exponents, saturates at 1 for negative ones.
    """

    kind = "power"
    params = ("alpha",)

    def __init__(self, alpha):
        if alpha == 0:
            raise DomainError("power utility needs a nonzero exponent")
        self.alpha = float(alpha)
        self.saturation = math.inf if alpha > 0 else 1.0

    def _raw(self, arr):
        if self.alpha > 0:
            return arr ** self.alpha
        return -np.expm1(self.alpha * np.log1p(arr))

    def _log(self, arr):
        if self.alpha > 0:
            return self.alpha * np.log(arr)
        return np.log(-np.expm1(self.alpha * np.log1p(arr)))

    def _log_exp(self, arr):
        if self.alpha > 0:
            return self.alpha * arr
        return np.log(-np.expm1(self.alpha * _log1p_exp(arr)))

    def _inverse(self, arr):
        if self.alpha > 0:
            return arr ** (1.0 / self.alpha)
        return np.expm1(np.log1p(-arr) / self.alpha)


class ExponentialUtility(UtilityFunction):
    """u(x) = 1 - e^(-alpha x), bounded above by 1."""

    kind = "exponential"
    params = ("alpha",)
    saturation = 1.0

    def __init__(self, alpha):
        if alpha <= 0:
            raise DomainError("exponential utility needs alpha > 0")
        self.alpha = float(alpha)

    def _raw(self, arr):
        return -np.expm1(-self.alpha * arr)

    def _log_exp(self, arr):
        z = self.alpha * np.exp(np.minimum(arr, _LOG_MAX))
        # u(e^t) -> 1 once alpha*e^t is huge, so log u -> 0
        return np.where(
            (arr > _LOG_MAX) | (z > 700.0),
            0.0,
            np.log(-np.expm1(-np.minimum(z, 700.0))),
        )

    def _inverse(self, arr):
        return -np.log1p(-arr) / self.alpha


class LogUtility(UtilityFunction):
    """u(x) = log(1 + x)."""

    kind = "logarithmic"

    def _raw(self, arr):
        return np.log1p(arr)

    def _log_exp(self, arr):
        return np.log(_log1p_exp(arr))

    def _inverse(self, arr):
        return np.expm1(arr)


class LogLogUtility(UtilityFunction):
    """u(x) = log(1 + log(1 + x))."""

    kind = "loglog"

    def _raw(self, arr):
        return np.log1p(np.log1p(arr))

    def _log_exp(self, arr):
        return np.log(np.log1p(_log1p_exp(arr)))

    def _inverse(self, arr):
        return np.expm1(np.expm1(arr))


class LogPowerUtility(UtilityFunction):
    """u(x) = exp(alpha * sign(x - 1) * |log x|^shape), u(0) = 0.

    Grows slower than any power; its associated distortion is the Prelec
    distortion with scale delta*alpha and the same shape.  We take u(1) = 1
    (the sign vanishes at x = 1), which matches the unit normalization used
    by the loss-side machinery.
    """

    kind = "log_power"
    params = ("alpha", "shape")

    def __init__(self, alpha, shape):
        if alpha <= 0:
            raise DomainError("log-power utility needs alpha > 0")
        if not 0 < shape < 1:
            raise DomainError("log-power utility needs shape in (0, 1)")
        self.alpha = float(alpha)
        self.shape = float(shape)

    def _raw(self, arr):
        return np.exp(self._log(arr))

    def _log(self, arr):
        lx = np.log(arr)
        return self.alpha * np.sign(lx) * np.abs(lx) ** self.shape

    def _log_exp(self, arr):
        return self.alpha * arr ** self.shape

    def _inverse(self, arr):
        ly = np.log(arr)
        return np.where(
            arr == 0.0,
            0.0,
            np.exp(np.sign(ly) * np.abs(ly / self.alpha) ** (1.0 / self.shape)),
        )


class TableUtility(UtilityFunction):
    """Monotone piecewise-linear utility from a tabulated (x, value) grid.

    The table must start at (0, 0) and be strictly increasing in both
    columns.  The upper limit is declared, never inferred from the data;
    evaluation beyond the tabulated range is refused.
    """

    kind = "custom"

    def __init__(self, xs, values, saturation=math.inf):
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise DomainError("table needs two equal-length columns with >= 2 rows")
        if xs[0] != 0.0 or values[0] != 0.0:
            raise DomainError("utility table must start at (0, 0)")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(values) <= 0):
            raise DomainError("utility table must be strictly increasing in both columns")
        if saturation < values[-1]:
            raise DomainError("declared saturation below the last tabulated value")
        self.xs = xs
        self.values = values
        self.saturation = float(saturation)

    @classmethod
    def from_csv(cls, path):
        xs, values, saturation = read_table_csv(path, "x", header_required=True)
        return cls(xs, values, saturation=saturation)

    def _raw(self, arr):
        """Interpolated values; the range check lives here, so every
        evaluator (``__call__``, ``log_eval``, a scaled view) refuses
        arguments beyond the table instead of clamping them."""
        if np.any(arr > self.xs[-1]):
            raise DomainError("argument beyond the tabulated range")
        return np.interp(arr, self.xs, self.values)

    def _log_exp(self, arr):
        hi = math.log(self.xs[-1]) if self.xs[-1] > 0 else -math.inf
        if np.any(arr > hi):
            raise DomainError("argument beyond the tabulated range")
        return np.log(np.interp(np.exp(arr), self.xs, self.values))

    def _inverse(self, arr):
        if np.any(arr > self.values[-1]):
            raise DomainError("target beyond the tabulated range")
        return np.interp(arr, self.values, self.xs)

    def _params(self):
        return f"{self.xs.size} rows, saturation={self.saturation}"


class ScaledUtility(UtilityFunction):
    """u(scale * x): the unit-normalized view of another utility."""

    kind = "scaled"

    def __init__(self, base, scale):
        self.base = base
        self.scale = float(scale)
        self.saturation = base.saturation
        self.kind = base.kind

    # each formula hands the base an array, 0-d for a scalar, as ``_eval``
    # would: a numpy scalar's ``**`` rounds differently from an array's
    def _raw(self, arr):
        return self.base._raw(np.asarray(arr * self.scale))

    def _log(self, arr):
        scaled = np.asarray(arr * self.scale)
        out = self.base._log(scaled)
        over = np.isinf(scaled) & np.isfinite(arr)  # scale * x passes the largest double
        if np.any(over):  # there log u(scale * x) is the growth transform at log x + log scale
            t = np.log(np.where(over, arr, 1.0)) + math.log(self.scale)
            out = np.where(over, self.base._log_exp(np.asarray(t)), out)
        return out

    def _log_exp(self, arr):
        return self.base._log_exp(np.asarray(arr + math.log(self.scale)))

    def _inverse(self, arr):
        return self.base._inverse(arr) / self.scale

    def _params(self):
        return f"base={self.base!r}, scale={self.scale}"


# ---------------------------------------------------------------------------
# distortions


class DistortionFunction:
    """Base class: strictly increasing [0,1] -> [0,1], w(0)=0, w(1)=1."""

    kind = "abstract"
    params = ()

    def __call__(self, p):
        return _eval(self._raw, p, hi=1.0, what="probability")

    def log_eval(self, p):
        """log(w(p)); -inf at p = 0."""
        return _eval(self._log, p, hi=1.0, what="probability")

    def _raw(self, arr):
        """The distortion's one formula, on an array ``_eval`` has validated."""
        raise NotImplementedError

    _log = UtilityFunction._log
    __repr__ = UtilityFunction.__repr__
    _params = UtilityFunction._params


class IdentityDistortion(DistortionFunction):
    """w(p) = p: no probability weighting."""

    kind = "identity"

    def _raw(self, arr):
        return arr


class PowerDistortion(DistortionFunction):
    """w(p) = p^beta."""

    kind = "power"
    params = ("beta",)

    def __init__(self, beta):
        if beta <= 0:
            raise DomainError("power distortion needs beta > 0")
        self.beta = float(beta)

    def _raw(self, arr):
        return arr ** self.beta

    def _log(self, arr):
        return self.beta * np.log(arr)


class PrelecDistortion(DistortionFunction):
    """w(p) = exp(-beta * (-log p)^shape) on (0, 1], w(0) = 0."""

    kind = "prelec"
    params = ("beta", "shape")

    def __init__(self, beta, shape):
        if beta <= 0:
            raise DomainError("Prelec distortion needs beta > 0")
        if not 0 < shape < 1:
            raise DomainError("Prelec distortion needs shape in (0, 1)")
        self.beta = float(beta)
        self.shape = float(shape)

    def _raw(self, arr):
        return np.exp(self._log(arr))

    def _log(self, arr):
        return -self.beta * (-np.log(arr)) ** self.shape


class AssociatedDistortion(DistortionFunction):
    """The distortion induced by a loss utility at a given strength.

    w(p) = u(1)^delta * u(1/p)^(-delta) on (0, 1], with w(0) = 0.  Only an
    unbounded utility yields a genuine distortion (otherwise w(0+) > 0).
    This family is the attainability threshold: loss distortions above it
    (pointwise) keep the portfolio problem solvable for delta < 1.
    """

    kind = "associated"

    def __init__(self, utility, delta):
        if delta <= 0:
            raise DomainError("association strength delta must be positive")
        if not math.isinf(utility.saturation):
            raise AssociationError(
                "associated distortion needs an unbounded utility "
                f"(saturation {utility.saturation})"
            )
        self.utility = utility
        self.delta = float(delta)
        self._log_u1 = utility.log_eval(1.0)

    def _raw(self, arr):
        return np.exp(self._log(arr))

    def _log(self, arr):
        # under _eval's errstate 1/0 = inf, and log u(inf) = inf gives
        # log w(0) = -inf and w(0) = exp(-inf) = 0; the utility gets an
        # array, 0-d for a scalar, as its own ``_eval`` would give it
        return self.delta * (self._log_u1 - self.utility._log(np.asarray(1.0 / arr)))

    def _params(self):
        return f"utility={self.utility!r}, delta={self.delta}"


class TableDistortion(DistortionFunction):
    """Monotone piecewise-linear distortion from a tabulated (x, value) grid."""

    kind = "custom"

    def __init__(self, xs, values):
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise DomainError("table needs two equal-length columns with >= 2 rows")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise DomainError("distortion table must cover [0, 1]")
        if abs(values[0]) > 1e-12 or abs(values[-1] - 1.0) > 1e-12:
            raise DomainError("distortion table must map 0 -> 0 and 1 -> 1")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(values) <= 0):
            raise DomainError("distortion table must be strictly increasing")
        self.xs = xs
        self.values = values

    @classmethod
    def from_csv(cls, path):
        xs, values, _ = read_table_csv(path, "x", header_required=True)
        return cls(xs, values)

    def _raw(self, arr):
        return np.interp(arr, self.xs, self.values)


# ---------------------------------------------------------------------------
# operations


class ZTransform:
    """The growth transform z(t) = log(u(e^t)) of a utility, for t >= 0.

    z diverges exactly when the utility is unbounded; its asymptotic
    elasticity governs the growth regularity checks on the loss side.
    """

    def __init__(self, base):
        self.base = base

    def __call__(self, t):
        return self.base.log_at_exp(t)

    def log_eval(self, t):
        """log(z(t)); domain error where z <= 0."""
        z = np.asarray(self(t), dtype=float)
        if np.any(z <= 0.0):
            raise DomainError("transform is non-positive on part of the grid")
        out = np.log(z)
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"ZTransform({self.base!r})"


def z_transform(utility):
    """Growth transform of a utility; see ZTransform."""
    if utility(1.0) <= 0.0:
        raise DomainError("utility must be positive at 1")
    return ZTransform(utility)


def normalize_utility(utility):
    """Rescale the argument so the utility equals 1 at 1.

    Returns ``(scaled, scale)`` with ``scaled(x) = utility(x * scale)`` and
    ``scaled(1) = 1``.  The original object is returned unchanged when it is
    already normalized.
    """
    if utility.saturation <= 1.0:
        raise NormalizationError(
            "utility never reaches 1; upper limit is "
            f"{utility.saturation}"
        )
    scale = utility.inverse(1.0)
    if scale <= 0.0:
        raise NormalizationError("utility reaches 1 only at 0; table invalid")
    if scale == 1.0:
        return utility, 1.0
    return ScaledUtility(utility, scale), scale


_NOT_SEPARATOR = bytes(set(range(256)) - set(b",\n"))


def read_table_csv(path, header, header_required=False):
    """(first column, second column, saturation) of a two-column numeric CSV.

    Every line is blank, a ``#`` comment, the header or a row.  A row is
    exactly two cells separated by a comma, each read by ``float`` (no
    quotes; surrounding spaces allowed).  ``# saturation=<value>`` sets the
    saturation (inf if absent) wherever it appears.  The header is the first
    line that is neither blank nor a comment, if its first cell is
    ``header``; it is mandatory if ``header_required``.  A malformed row
    raises ``DomainError`` naming the file and the line.
    """
    saturation, header_seen, failure = math.inf, False, None
    rows, skipped = [], []  # the rows; the numbers of all other lines
    with open(path) as fh:
        for number, line in enumerate(fh.read().split("\n"), 1):
            if not line or "#" in line and line.lstrip().startswith("#"):
                skipped.append(number)
                text = line.strip().lstrip("#").strip()
                if text.startswith("saturation="):
                    try:
                        saturation = float(text[len("saturation="):])
                    except ValueError as exc:  # raised unless an earlier row is bad
                        failure = DomainError(f"{path}, line {number}: {exc}")
                        break
            elif rows or header_seen or line.split(",", 1)[0].strip() != header:
                rows.append(line)
            else:
                skipped.append(number)
                header_seen = True
    n_rows, body = len(rows), "\n".join(rows)
    del rows  # from here the text is held once: as the body, then as its cells
    try:
        # one comma per row: the separators alternate, comma first
        if body.encode().translate(None, _NOT_SEPARATOR) != (b",\n" * n_rows)[:-1]:
            raise ValueError("a row is not two cells")
        cells = body.replace("\n", ",").split(",") if n_rows else []
        first, second = np.array(cells, dtype=float).reshape(-1, 2).T.copy()
    except ValueError:
        rows, skipped = body.split("\n"), set(skipped)
        numbers = (n for n in range(1, len(rows) + len(skipped) + 1) if n not in skipped)
        for number, row in zip(numbers, rows):
            try:
                np.array(row.split(","), dtype=float).reshape(2)
            except ValueError:
                raise DomainError(f"{path}, line {number}: not two numbers: {row!r}") from None
        raise
    if failure:
        raise failure
    if header_required and not header_seen:
        raise DomainError(f"{path}: table must start with the header '{header},value'")
    return first, second, saturation


def write_table_csv(path, columns, rows, header_lines=()):
    """Write a ``#`` comment block, the ``columns`` header and the ``rows``.

    A ``str`` or ``int`` cell is written as is, any other cell as
    ``repr(float(cell))`` (so infinities read back as ``inf``); every line
    ends in a bare line feed.
    """
    lines = [f"# {line}" for line in header_lines] + [",".join(columns)]
    lines += (",".join(str(v) if isinstance(v, (str, int)) else repr(float(v)) for v in row)
              for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


UTILITY_KINDS = {
    cls.kind: cls
    for cls in (PowerUtility, ExponentialUtility, LogUtility, LogLogUtility, LogPowerUtility)
}

DISTORTION_KINDS = {
    cls.kind: cls for cls in (IdentityDistortion, PowerDistortion, PrelecDistortion)
}

"""Laws of scalar payoffs and their distorted (Choquet) valuations.

The CPT value of a payoff X splits into a gain part and a loss part, each a
Choquet integral of distorted survival probabilities:

    V_plus  = integral_0^inf w_plus(P{u_plus(X+) > y}) dy
    V_minus = integral_0^inf w_minus(P{u_minus(X-) > y}) dy
    V       = V_plus - V_minus   (may be -inf when the loss side diverges)

Every law here is finitely supported (``DiscreteLaw``), so each integral is
an exact step sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError
from .functions import read_table_csv, write_table_csv

PROB_TOL = 1e-12
ORACLE_MAX_ATOMS = 10_000


class DiscreteLaw:
    """Finitely supported law given by atoms (value, probability)."""

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise DomainError("need equal-length non-empty value/probability arrays")
        if not np.all(np.isfinite(values)):
            raise DomainError("atom values must be finite")
        if not np.all(probs > 0.0):  # NaN is not positive either
            raise DomainError("atom probabilities must be positive")
        if abs(float(np.sum(probs)) - 1.0) > PROB_TOL:
            raise DomainError(f"probabilities sum to {np.sum(probs)}, not 1")
        self.values = values
        self.probs = probs

    def survival(self, t):
        """P{X > t}."""
        return float(np.clip(np.sum(self.probs[self.values > t]), 0.0, 1.0))

    def positive_part(self):
        """Law of max(X, 0)."""
        return self._folded(self.values)

    def negative_part(self):
        """Law of max(-X, 0)."""
        return self._folded(-self.values)

    def _folded(self, signed):
        """Law of max(signed, 0): the atoms at or below 0 merge into one zero
        atom carrying their summed mass."""
        mask = signed > 0.0
        vals = signed[mask]
        probs = self.probs[mask]
        if not np.all(mask):
            vals = np.append(vals, 0.0)
            probs = np.append(probs, float(np.sum(self.probs[~mask])))
        return DiscreteLaw(vals, probs)

    def moment(self, order):
        """E[X^order] for a non-negative law."""
        if np.any(self.values < 0.0):
            raise DomainError("moments are defined here for non-negative laws")
        return float(np.sum(self.probs * self.values ** order))

    def quantile(self, p):
        """Left-continuous generalized inverse of the CDF."""
        order = np.argsort(self.values, kind="stable")
        vals = self.values[order]
        cum = np.cumsum(self.probs[order])
        p = np.asarray(p, dtype=float)
        idx = np.searchsorted(cum, p, side="left")
        idx = np.clip(idx, 0, vals.size - 1)
        out = vals[idx]
        return float(out) if p.ndim == 0 else out

    def to_csv(self, path, header_lines=()):
        write_table_csv(path, ("value", "prob"), zip(self.values, self.probs), header_lines)

    @classmethod
    def from_csv(cls, path):
        values, probs, _ = read_table_csv(path, "value")
        return cls(values, probs)

    def __repr__(self):
        return f"DiscreteLaw({self.values.size} atoms)"


@dataclass(frozen=True)
class CPTValue:
    """Gain/loss split of a distorted valuation; total may be -inf."""

    v_plus: float
    v_minus: float

    @property
    def total(self):
        if math.isinf(self.v_minus):
            return -math.inf
        return self.v_plus - self.v_minus

    def as_dict(self):
        return {
            "v_plus": _token(self.v_plus),
            "v_minus": _token(self.v_minus),
            "total": _token(self.total),
        }

    def __str__(self):
        return (
            f"v_plus={_token(self.v_plus)} v_minus={_token(self.v_minus)} "
            f"total={_token(self.total)}"
        )


def _token(x):
    """Serialize a float with explicit infinity tokens."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def choquet_positive(law, utility, distortion):
    """Distorted valuation of a non-negative discrete payoff: an exact step sum."""
    if not isinstance(law, DiscreteLaw):
        raise DomainError(f"cannot value object of type {type(law).__name__}")
    if np.any(law.values < 0.0):
        raise DomainError("law has negative support")
    return _choquet_discrete(law, utility, distortion)


def _choquet_discrete(law, utility, distortion):
    mask = law.values > 0.0
    if not np.any(mask):
        return 0.0
    order = np.argsort(-law.values[mask], kind="stable")
    vals = law.values[mask][order]
    # tail probability at (and above) each distinct level, summed from the top
    # in the oracle's order: a distortion steep at 1 (Prelec) turns one ulp of
    # a tail near 1 into ~1e-8 of value, so tied atoms must not be reordered
    last = np.append(vals[1:] != vals[:-1], True)  # last atom of each tie group
    levels = vals[last][::-1]
    tails = np.cumsum(law.probs[mask][order])[last][::-1]
    if np.all(mask):
        tails[0] = 1.0  # the lowest level is sure: no rounding below 1
    u_levels = np.asarray(utility(levels), dtype=float)
    w_tails = np.minimum(np.asarray(distortion(np.minimum(tails, 1.0)), dtype=float), 1.0)
    if math.isinf(u_levels[-1]):  # the utility overflows at the top levels
        bounded = u_levels < math.inf
        if np.any(w_tails[~bounded] > 0.0):
            return math.inf
        u_levels, w_tails = u_levels[bounded], w_tails[bounded]  # no weight: 0 * inf = 0
    du = np.diff(np.concatenate(([0.0], u_levels)))
    return float(np.sum(du * w_tails))


def choquet_oracle(law, utility, distortion):
    """Independent valuation path for discrete laws, used to cross-check.

    Sorts atoms by decreasing value and attaches rank-dependent weights
    (increments of the distorted tail probability) to each atom's utility.
    """
    if not isinstance(law, DiscreteLaw):
        raise DomainError("oracle supports discrete laws only")
    if law.values.size > ORACLE_MAX_ATOMS:
        raise DomainError(f"oracle limited to {ORACLE_MAX_ATOMS} atoms")
    if np.any(law.values < 0.0):
        raise DomainError("law has negative support")
    order = np.argsort(-law.values, kind="stable")
    vals = law.values[order]
    cum = np.minimum(np.cumsum(law.probs[order]), 1.0)
    cum[-1] = 1.0  # the full tail is sure
    w = np.asarray(distortion(cum), dtype=float)
    weights = np.diff(np.concatenate(([0.0], w)))
    return float(np.sum(weights * np.asarray(utility(vals), dtype=float)))


def cpt_value(law, u_plus, u_minus, w_plus, w_minus):
    """CPT value of a signed payoff law.

    The gain side must be finite (it always is when the gain utility is
    bounded); a loss side whose utility overflows yields total -inf.
    """
    v_plus = choquet_positive(law.positive_part(), u_plus, w_plus)
    if math.isinf(v_plus):
        raise DivergenceError(
            "gain-side valuation diverged; bounded gain utilities cannot produce this"
        )
    v_minus = choquet_positive(law.negative_part(), u_minus, w_minus)
    return CPTValue(v_plus=v_plus, v_minus=v_minus)

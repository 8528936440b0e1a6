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
        if not np.isfinite(values).all():
            raise DomainError("atom values must be finite")
        if not (probs > 0.0).all():  # NaN is not positive either
            raise DomainError("atom probabilities must be positive")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise DomainError(f"probabilities sum to {probs.sum()}, not 1")
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

    def __str__(self):
        # a float's repr is its shortest round-trip text: inf, -inf included
        return (f"v_plus={float(self.v_plus)!r} v_minus={float(self.v_minus)!r} "
                f"total={float(self.total)!r}")


def choquet_positive(law, utility, distortion):
    """Distorted valuation of a non-negative discrete payoff: an exact step sum."""
    if not isinstance(law, DiscreteLaw):
        raise DomainError(f"cannot value object of type {type(law).__name__}")
    if (law.values < 0.0).any():
        raise DomainError("law has negative support")
    return _choquet_discrete(law.values, law.probs, utility, distortion)


def _choquet_discrete(values, probs, utility, distortion):
    """Distorted valuation of max(X, 0) for atoms ``values`` with ``probs``:
    the atoms at or below 0 add nothing, so no folded law is formed."""
    mask = values > 0.0
    if not mask.any():
        return 0.0
    vals, probs = values[mask], probs[mask]
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    # tail probability at (and above) each distinct level, summed from the top
    # in the oracle's order: a distortion steep at 1 (Prelec) turns one ulp of
    # a tail near 1 into ~1e-8 of value, so tied atoms must not be reordered
    last = np.concatenate((vals[1:] != vals[:-1], [True]))  # last atom of each tie group
    levels = vals[last][::-1]
    tails = np.cumsum(probs[order])[last][::-1]
    if mask.all():
        tails[0] = 1.0  # the lowest level is sure: no rounding below 1
    u_levels = np.asarray(utility(levels), dtype=float)
    w_tails = np.minimum(np.asarray(distortion(np.minimum(tails, 1.0)), dtype=float), 1.0)
    overflowed = 0.0
    if math.isinf(u_levels[-1]):  # the utility overflows at the top levels
        # each overflowing increment u_i - u_(i-1) times its weight, formed in
        # logs: a weight that is tiny, or underflows to 0, may leave it finite
        top = u_levels == math.inf
        lu = np.asarray(utility.log_eval(levels), dtype=float)
        lw = np.asarray(distortion.log_eval(np.minimum(tails, 1.0)), dtype=float)
        lu_below = np.concatenate(([-math.inf], lu[:-1]))
        with np.errstate(all="ignore"):  # levels below the overflow are not read
            log_terms = lu + np.log1p(-np.exp(lu_below - lu)) + np.minimum(lw, 0.0)
            overflowed = float(np.exp(log_terms[top]).sum())
        u_levels, w_tails = u_levels[~top], w_tails[~top]
    du = u_levels - np.concatenate(([0.0], u_levels[:-1]))
    return float((du * w_tails).sum()) + overflowed


def atom_value(z, p, utility, distortion):
    """min(w(p), 1) u(z) for an atom z > 0 of probability p < 1, exp(log u + min(log w, 0))
    where u overflows: ``_choquet_discrete``'s value, bit for bit (z and p are the
    one-element arrays it passes, z a reversed view, so numpy runs the same loops)."""
    z, p = np.array([z])[::-1], np.array([p])
    u = float(utility(z)[0])
    if math.isinf(u):  # in logs: a tiny weight may leave the product finite
        return float(np.exp(utility.log_eval(z) + np.minimum(distortion.log_eval(p), 0.0))[0])
    return u * min(float(distortion(p)[0]), 1.0) + 0.0


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
    """CPT value of a signed payoff law, in one pass per side.

    Each side is valued in place on the atoms of ``law`` (``law.values`` for
    gains, ``-law.values`` for losses), with no folded law built per side.
    The gain side must be finite (it always is when the gain utility is
    bounded); a loss side that overflows yields total -inf.  Where the
    utility overflows, each increment times its weight is formed in logs,
    so a weight that underflows no longer hides the atom.
    """
    if not isinstance(law, DiscreteLaw):
        raise DomainError(f"cannot value object of type {type(law).__name__}")
    v_plus = _choquet_discrete(law.values, law.probs, u_plus, w_plus)
    if math.isinf(v_plus):
        raise DivergenceError(
            "gain-side valuation diverged; bounded gain utilities cannot produce this"
        )
    v_minus = _choquet_discrete(-law.values, law.probs, u_minus, w_minus)
    return CPTValue(v_plus=v_plus, v_minus=v_minus)

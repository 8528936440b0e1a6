"""Explicit two-atom payoffs that push the CPT value to its ceiling.

When the loss distortion vanishes faster than 1/u_minus(1/x) near 0, one can
finance an ever-larger gain atom with an ever-thinner loss atom whose
distorted penalty is below 1/n, all at the same initial capital.  The CPT
values of these payoffs climb to the gain ceiling M = u_plus(+inf), so no
single portfolio can attain the supremum.

Each element Z_n pays

    x_n = b_n / (2 Q(A_n))            on  A_n = {rho <= b_n}   (gain)
   -y_n = -(b_n - 2 x0) / (2 Q(A_n^c)) off A_n                  (loss)

with P(A_n) = 1 - a_n pinned through the kernel quantile b_n = q_rho(1-a_n)
and the level a_n chosen so that w_minus(a_n) u_minus(1/a_n) < 1/n.  Here
Q(A) = E[rho; A] is the state-price mass of A and Q(A_n) = E[rho] - Q(A_n^c),
so Z_n costs b_n/2 - (b_n - 2 x0)/2 = x0; the kernel need not have unit mean.
Z_n is valued and priced in closed form: V_plus = w_plus(1 - a_n) u_plus(x_n) and V_minus =
w_minus(a_n) u_minus(y_n) by ``choquet.atom_value``, cost -y_n Q(A_n^c) + x_n Q(A_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .attainability import ConditionVerdict, regime
from .choquet import CPTValue, DiscreteLaw, atom_value
from .errors import ConstructionError, LevelTooLowError
from .functions import write_table_csv
from .market import budget

LEVEL_FLOOR = 1e-300
COST_TOL = 1e-8
LEVEL_TOL = 1e-9
DEFAULT_GAP_TOL = 0.05


LEVEL_MARGIN = 0.1  # returned level sits a decade below the admissible boundary


def find_level(n, kernel, w_minus, u_minus, a_prev=None):
    """Loss probability a with w_minus(a) * u_minus(1/a) < 1/n, strictly
    below the previous level.

    Locates the admissible boundary (largest a below the cap satisfying the
    strict inequality) by a halving scan plus at most 80 geometric
    bisection steps, which stop early once the midpoint rounds to either
    end (each later step would repeat it, so the level is unchanged); then
    steps one decade further down so the defining inequality holds with
    margin rather than by a hair; the product need not be monotone, so the
    stepped-down candidate is re-verified and pushed deeper if required.
    The kernel level b = q_rho(1 - a) then satisfies P{rho <= b} = 1 - a by
    construction.
    """
    if n < 1:
        raise ConstructionError("index n must be at least 1")
    target = -math.log(n) - 1e-12  # strict inequality with float headroom

    def log_product(a):
        return float(w_minus.log_eval(a)) + float(u_minus.log_eval(1.0 / a))

    cap = 0.5 if a_prev is None else a_prev * 0.999
    if cap <= LEVEL_FLOOR:
        raise ConstructionError("previous level already at the underflow floor")

    good = None
    bad = None
    a = cap
    while a > LEVEL_FLOOR:
        if log_product(a) < target:
            good = a
            break
        bad = a
        a *= 0.5
    if good is None:
        raise ConstructionError(
            f"no level with distorted product below 1/{n} found above {LEVEL_FLOOR}"
        )
    if bad is not None:
        for _ in range(80):
            mid = math.sqrt(good) * math.sqrt(bad)  # the product underflows below 1e-154
            if mid == good or mid == bad:  # a fixed point: every later step repeats it
                break
            if log_product(mid) < target:
                good = mid
            else:
                bad = mid
    level = good * LEVEL_MARGIN
    while log_product(level) >= target:
        level *= 0.5
        if level <= LEVEL_FLOOR:
            raise ConstructionError("level search hit the underflow floor")
    b = float(kernel.quantile_upper(level))
    return level, b


@dataclass
class SequenceElement:
    """One payoff of the value-climbing sequence; ``law`` is built on read."""

    n: int
    a_n: float
    b_n: float
    q_event: float  # state-price mass E[rho; A_n] of the gain event (not normalized)
    x_atom: float
    y_atom: float
    cpt: CPTValue
    cost: float
    level_gap: float  # distance from the requested level; nonzero only for kernels with atoms
    law = property(lambda el: DiscreteLaw([el.x_atom, -el.y_atom], [1.0 - el.a_n, el.a_n]))


def build_element(n, kernel, u_plus, u_minus, w_plus, w_minus, x0, level):
    """Assemble the n-th two-atom payoff at ``level`` = (a, b) from
    ``find_level`` and verify its defining identities.

    Kernels with atoms cannot realize every level; the nearest achievable
    one (the survival probability of the kernel level b) is used instead and
    the adjustment size recorded in ``level_gap``.  The gain event is priced
    with the kernel's own mean, Q(A_n) = E[rho] - Q(A_n^c), which need not be 1.
    Value and cost take the module docstring's closed forms; no law is built.
    """
    a, b = level
    if b <= 2.0 * x0:
        raise LevelTooLowError(
            f"kernel level b={b:.6g} does not exceed twice the capital {x0}; "
            "increase n"
        )
    achieved = float(kernel.survival(b))
    level_gap = abs(achieved - a)
    if level_gap > 1e-6 * max(achieved, a):
        a = achieved
        log_product = float(w_minus.log_eval(a)) + float(u_minus.log_eval(1.0 / a))
        if log_product >= -math.log(n):
            raise ConstructionError(
                f"nearest achievable level {a:.6g} violates the defining "
                f"inequality at n={n}"
            )
    tail = float(kernel.tail_expectation(a))  # Q(A_n^c), exact in the tiny tail
    mean = float(kernel.mean)
    q_event = mean - tail  # Q(A_n) = E[rho] - Q(A_n^c)
    if tail <= 0.0:
        raise ConstructionError("degenerate event mass; kernel tail too thin")
    if q_event <= 0.0:
        raise ConstructionError(f"gain event carries no price: tail {tail:.6g} >= mean {mean:.6g}")
    # cheap sanity guard from the derivation: Q(A^c) >= b * P(A^c)
    if tail < b * a * (1.0 - 1e-9):
        raise ConstructionError("kernel tail mass inconsistent with its level")

    x_atom = b / (2.0 * q_event)
    y_atom = (b - 2.0 * x0) / (2.0 * tail)
    cpt = CPTValue(atom_value(x_atom, 1.0 - a, u_plus, w_plus),
                   atom_value(y_atom, a, u_minus, w_minus))
    cost = -y_atom * tail + x_atom * q_event  # budget's cells: (0, a) and (a, 1)
    if not abs(cost - x0) <= COST_TOL:  # a NaN cost (no law checks the atoms) fails too
        raise ConstructionError(f"cost {cost} deviates from capital {x0}")
    return SequenceElement(n=n, a_n=a, b_n=b, q_event=q_event, x_atom=x_atom, y_atom=y_atom,
                           cpt=cpt, cost=cost, level_gap=level_gap)


@dataclass
class NonattainabilityReport:
    """Value-climb table: the supremum is approached but never attained."""

    ceiling: float
    gap_tol: float
    verdict: ConditionVerdict  # attainability 'no', the construction's premise
    elements: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (n, a_n, b_n) below the capital bar
    notes: list = field(default_factory=list)

    @property
    def final_gap(self):
        if not self.elements:
            return math.inf
        return self.ceiling - self.elements[-1].cpt.total

    @property
    def nonattainability_demonstrated(self):
        return bool(self.elements) and self.final_gap < self.gap_tol

    def rows(self):
        for el in self.elements:
            yield (el.n, el.a_n, el.b_n, el.cpt.v_plus, el.cpt.v_minus, el.cpt.total,
                   self.ceiling - el.cpt.total)

    def to_csv(self, path, header_lines=()):
        write_table_csv(path, ("n", "a_n", "b_n", "V_plus", "V_minus", "V", "gap"),
                        self.rows(), header_lines)

    def to_svg(self, path):
        """Plot of V(Z_n) against n under the dashed ceiling line."""
        width, height, margin = 640, 400, 56
        ns = [el.n for el in self.elements]
        vs = [el.cpt.total for el in self.elements]
        m_line = self.ceiling
        x_lo, x_hi = min(ns), max(ns)
        y_lo = min(min(vs), 0.0)
        y_hi = max(m_line, max(vs))
        pad = 0.05 * (y_hi - y_lo or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(x):
            if x_hi == x_lo:
                return margin
            return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

        def sy(y):
            return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

        pts = " ".join(f"{sx(n):.2f},{sy(v):.2f}" for n, v in zip(ns, vs))
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
            f'y2="{height-margin}" stroke="black"/>',
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height-margin}" stroke="black"/>',
            f'<line x1="{margin}" y1="{sy(m_line):.2f}" x2="{width-margin}" '
            f'y2="{sy(m_line):.2f}" stroke="crimson" stroke-dasharray="6,4"/>',
            f'<text x="{width-margin}" y="{sy(m_line)-6:.2f}" text-anchor="end" '
            f'fill="crimson" font-size="12">ceiling M = {m_line:g}</text>',
            f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        ]
        for n, v in zip(ns, vs):
            parts.append(f'<circle cx="{sx(n):.2f}" cy="{sy(v):.2f}" r="2.5" fill="steelblue"/>')
        parts.append(
            f'<text x="{width/2}" y="{height-16}" text-anchor="middle" font-size="12">n</text>'
        )
        parts.append(
            f'<text x="16" y="{height/2}" font-size="12" '
            f'transform="rotate(-90 16 {height/2})" text-anchor="middle">V(Z_n)</text>'
        )
        parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(parts) + "\n")


def demonstrate_nonattainability(kernel, u_plus, u_minus, w_plus, w_minus, x0,
                                 n_max=32, gap_tol=DEFAULT_GAP_TOL):
    """Run the construction up to ``n_max`` and report the climb to the ceiling.

    Refuses configurations that ``attainability.regime`` does not find
    unattainable: there the vanishing levels need not exist and the
    construction proves nothing.
    """
    if math.isinf(u_plus.saturation):
        raise ConstructionError("demonstration needs a gain utility bounded above")
    verdict = regime(u_minus, w_minus)
    if verdict.holds != "no":
        raise ConstructionError(
            f"attainability verdict is '{verdict.holds}' (need 'no'): "
            "the construction does not apply"
        )

    report = NonattainabilityReport(ceiling=u_plus.saturation, gap_tol=gap_tol, verdict=verdict)
    a_prev = None
    for n in range(1, n_max + 1):
        level = find_level(n, kernel, w_minus, u_minus, a_prev=a_prev)
        a_prev = level[0]
        try:
            el = build_element(n, kernel, u_plus, u_minus, w_plus, w_minus, x0,
                               level=level)
        except LevelTooLowError:
            report.skipped.append((n, level[0], level[1]))
            continue
        if el.level_gap > LEVEL_TOL:
            report.notes.append(
                f"n={n}: kernel level off by {el.level_gap:.3e} "
                "(kernel has atoms; nearest achievable level used)"
            )
        report.elements.append(el)
    if not report.elements:
        raise ConstructionError(
            f"no element was feasible up to n_max={n_max}; capital too large "
            "for the kernel levels reached"
        )
    if abs(budget(kernel, report.elements[-1].law) - x0) > COST_TOL:  # the one final_gap reads
        raise ConstructionError(f"the last element does not cost the capital {x0}")
    return report

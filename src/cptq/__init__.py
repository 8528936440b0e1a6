"""Cumulative prospect theory portfolio selection in a complete market.

Distorted (Choquet) valuation of payoff laws, pricing-kernel models with a
rearrangement-based cost functional, numeric attainability checkers, an
explicit value-climbing construction for the non-attainable regime, and a
quantile-profile optimizer for the existence regime.
"""

__version__ = "0.1.0"

from .choquet import (
    CPTValue,
    DiscreteLaw,
    QuantileLaw,
    choquet_oracle,
    choquet_positive,
    cpt_value,
)
from .functions import (
    AssociatedDistortion,
    DistortionFunction,
    ExponentialUtility,
    IdentityDistortion,
    LogLogUtility,
    LogPowerUtility,
    LogUtility,
    PowerDistortion,
    PowerUtility,
    PrelecDistortion,
    TableDistortion,
    TableUtility,
    UtilityFunction,
    ZTransform,
    normalize_utility,
    z_transform,
)
from .market import (
    AssumptionReport,
    DiscreteKernel,
    LognormalKernel,
    PricingKernel,
    TableKernel,
    budget,
    check_assumptions,
    hardy_littlewood_check,
)
from .attainability import (
    ConditionVerdict,
    ThresholdFunction,
    asymptotic_elasticity,
    check_delta_threshold,
    check_elasticity_growth,
    check_growth_condition,
    distorted_tail_bound,
    g_function,
    growth_ratio_probe,
    liminf_condition,
    loss_moment_bound,
    power_tail_bound,
)
from .constructions import (
    NonattainabilityReport,
    SequenceElement,
    build_element,
    demonstrate_nonattainability,
    find_level,
)
from .optimizer import (
    QuantilePortfolio,
    SolveDiagnostics,
    SolveOptions,
    lattice_oracle,
    solve,
    tightness_report,
)

"""Regime-switching entropic risk for commodity claims.

A finite-state economy chain modulates linear spot claims, futures with
convenience yield, and commodity swaps on a mean-reverting spot price;
per-regime entropic risk comes in closed form for spot and future claims
and by deterministic Monte Carlo for everything, including swaps.
"""

from .entropic_risk import (
    MCEstimate,
    RiskQuery,
    RiskVector,
    claim_risk_mc,
    entropic_mc,
    future_risk_closed,
    spot_risk_closed,
    swap_risk_mc,
)
from .errors import (
    BadDistribution,
    ConfigError,
    DimensionError,
    EmptySamples,
    LengthMismatch,
    NonFinite,
    NonPositiveGamma,
    NotAGenerator,
    NotMeanReverting,
    NotStochastic,
    NotSupported,
    RiskModelError,
    StateOutOfRange,
    TimeOrder,
    TooFewPoints,
)
from .instruments import (
    ConstantYield,
    FutureClaim,
    GibsonSchwartzParams,
    LinearSpotClaim,
    SwapClaim,
    future_payoff,
    linear_payoff,
    simulate_spot_and_yield,
    simulate_yield_path,
    swap_value,
)
from .ou_model import (
    CalibrationResult,
    ConditionalLaw,
    OUParams,
    PriceSeries,
    calibrate,
    conditional_law,
    load_price_csv,
    sample_exact,
    simulate_path,
)
from .regime_chain import (
    Generator,
    StatePath,
    TransitionMatrix,
    distribution_at,
    from_transition,
    matrix_exp,
    sample_path,
    validate_generator,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chain
    "Generator",
    "TransitionMatrix",
    "StatePath",
    "validate_generator",
    "from_transition",
    "matrix_exp",
    "distribution_at",
    "sample_path",
    # spot model
    "OUParams",
    "ConditionalLaw",
    "PriceSeries",
    "CalibrationResult",
    "conditional_law",
    "sample_exact",
    "simulate_path",
    "calibrate",
    "load_price_csv",
    # instruments
    "LinearSpotClaim",
    "FutureClaim",
    "SwapClaim",
    "ConstantYield",
    "GibsonSchwartzParams",
    "linear_payoff",
    "future_payoff",
    "swap_value",
    "simulate_yield_path",
    "simulate_spot_and_yield",
    # risk
    "RiskQuery",
    "RiskVector",
    "MCEstimate",
    "entropic_mc",
    "spot_risk_closed",
    "future_risk_closed",
    "claim_risk_mc",
    "swap_risk_mc",
    # errors
    "RiskModelError",
    "DimensionError",
    "NotAGenerator",
    "NotStochastic",
    "BadDistribution",
    "TimeOrder",
    "NotMeanReverting",
    "TooFewPoints",
    "StateOutOfRange",
    "LengthMismatch",
    "EmptySamples",
    "NonPositiveGamma",
    "NonFinite",
    "NotSupported",
    "ConfigError",
]

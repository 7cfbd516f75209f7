"""Regime-switching entropic risk for commodity claims.

A finite-state economy chain modulates linear spot claims, futures with
convenience yield, and commodity swaps on a mean-reverting spot price;
per-regime entropic risk comes in closed form for spot and future claims
and by deterministic Monte Carlo for everything, including swaps.
:func:`sample_paths` draws one joint (spot, regime, yield) path.
"""

from .entropic_risk import (
    MCEstimate,
    RiskQuery,
    claim_risk_closed,
    claim_risk_mc,
    entropic_mc,
    future_risk_closed,
    sample_paths,
    spot_risk_closed,
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
)
from .regime_chain import (
    Generator,
    distribution_at,
    from_transition,
    matrix_exp,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chain
    "Generator",
    "from_transition",
    "matrix_exp",
    "distribution_at",
    # spot model
    "OUParams",
    "ConditionalLaw",
    "PriceSeries",
    "CalibrationResult",
    "conditional_law",
    "calibrate",
    "load_price_csv",
    # instruments
    "LinearSpotClaim",
    "FutureClaim",
    "SwapClaim",
    "ConstantYield",
    "GibsonSchwartzParams",
    "swap_value",
    # risk
    "RiskQuery",
    "MCEstimate",
    "entropic_mc",
    "spot_risk_closed",
    "future_risk_closed",
    "claim_risk_closed",
    "claim_risk_mc",
    "sample_paths",
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
    "ConfigError",
]

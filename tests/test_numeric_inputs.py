"""One rule for every number the library takes (``errors.real_array``).

Every public numeric argument, given a bool, a numeric string, a complex
number or a NaN, raises its named ``RiskModelError`` subclass before any
work is done: never a bare ``TypeError``, never a cast, no ``matrix_exp``
call and no Monte-Carlo draw.  So does a bool among the numbers of a list or
tuple, a ragged nested list and an int beyond the float range.
"""

import warnings

import numpy as np
import pytest

from regime_risk import entropic_risk
from regime_risk.entropic_risk import (
    RiskQuery,
    claim_risk_closed,
    claim_risk_mc,
    entropic_mc,
    future_risk_closed,
    sample_paths,
    spot_risk_closed,
)
from regime_risk.errors import DimensionError, NonFinite, NotAGenerator, NotStochastic
from regime_risk.instruments import (
    ConstantYield,
    FutureClaim,
    GibsonSchwartzParams,
    LinearSpotClaim,
    SwapClaim,
    swap_value,
)
from regime_risk.ou_model import OUParams, PriceSeries, conditional_law
from regime_risk.regime_chain import Generator, distribution_at, from_transition, matrix_exp

OU = {"alpha": 1.2, "mu": 60.0, "sigma": 8.0, "x0": 60.0}
GS = {"kappa": 1.5, "y_bar": 0.03, "sigma_y": 0.02, "rho": 0.3, "lambda_y": 0.0, "y0": 0.03}
CRUDE = OUParams(**OU)
TWO = Generator([[-0.5, 0.5], [0.5, -0.5]])
P = [[0.9, 0.1], [0.2, 0.8]]
Q = RiskQuery(s=0.0, T=0.5, x_s=60.0)
GS_SWAP = SwapClaim(rates=[0.05, 0.1], delta=[1.0, 0.8], yield_spec=GibsonSchwartzParams(**GS))
PRICES = [50.0, 51.0, 49.5, 50.5]


def bad(kind: str, good):
    """``good`` (a number or a nested list) made defective as ``kind``: every
    entry a bool or a numeric string, or its first entry complex or NaN."""
    arr = np.asarray(good, dtype=float)
    if kind == "bool":
        return (arr != 0).tolist()
    if kind == "string":
        return arr.astype(str).tolist()
    arr = arr.astype(complex) if kind == "complex" else arr.copy()
    arr.reshape(-1)[0] = 1 + 1j if kind == "complex" else np.nan
    return arr.tolist()


# (argument, call taking the defective value, error for a value that is not a real number)
ROWS = [
    ("Generator.q", lambda b: Generator(b(TWO.q)), NotAGenerator),
    ("from_transition.p", lambda b: from_transition(b(P), dt=1 / 252), NotStochastic),
    ("from_transition.dt", lambda b: from_transition(P, dt=b(1 / 252)), NonFinite),
    ("matrix_exp.t", lambda b: matrix_exp(TWO, b(0.5)), NonFinite),
    ("matrix_exp.t_stack", lambda b: matrix_exp(TWO, b([0.5, 1.0])), NonFinite),
    ("distribution_at.p0", lambda b: distribution_at(TWO, b([0.5, 0.5]), 1.0), NonFinite),
    ("distribution_at.t", lambda b: distribution_at(TWO, [0.5, 0.5], b(1.0)), NonFinite),
    *[
        (f"OUParams.{k}", lambda b, k=k: OUParams(**{**OU, k: b(OU[k])}), NonFinite)
        for k in OU
    ],
    ("conditional_law.x_s", lambda b: conditional_law(CRUDE, b(60.0), 0.0, 1.0), NonFinite),
    ("conditional_law.s", lambda b: conditional_law(CRUDE, 60.0, b(0.5), 1.0), NonFinite),
    ("conditional_law.t", lambda b: conditional_law(CRUDE, 60.0, 0.0, b(1.0)), NonFinite),
    ("PriceSeries.timestamps", lambda b: PriceSeries(b([0.0, 1.0, 2.0, 3.0]), PRICES), NonFinite),
    ("PriceSeries.prices", lambda b: PriceSeries(np.arange(4), b(PRICES)), NonFinite),
    ("PriceSeries.dt", lambda b: PriceSeries(np.arange(4), PRICES, dt=b(1 / 252)), NonFinite),
    ("LinearSpotClaim.delta", lambda b: LinearSpotClaim(b([1.0, 2.0])), NonFinite),
    ("FutureClaim.delta", lambda b: FutureClaim(b([1.0, 2.0]), 0.02, 0.01), NonFinite),
    ("FutureClaim.r", lambda b: FutureClaim([1.0, 2.0], b(0.02), 0.01), NonFinite),
    ("FutureClaim.y", lambda b: FutureClaim([1.0, 2.0], 0.02, b(0.01)), NonFinite),
    ("SwapClaim.rates", lambda b: SwapClaim(b([0.1]), [1.0, 1.0], ConstantYield(0.02, 0.01)), NonFinite),
    ("SwapClaim.delta", lambda b: SwapClaim([0.1], b([1.0, 1.0]), ConstantYield(0.02, 0.01)), NonFinite),
    ("ConstantYield.r", lambda b: ConstantYield(b(0.02), 0.01), NonFinite),
    ("ConstantYield.y", lambda b: ConstantYield(0.02, b(0.01)), NonFinite),
    *[
        (f"GibsonSchwartzParams.{k}", lambda b, k=k: GibsonSchwartzParams(**{**GS, k: b(GS[k])}), NonFinite)
        for k in GS
    ],
    ("swap_value.x_path", lambda b: swap_value(b([50.0, 51.0]), [0, 1], GS_SWAP, [0.03, 0.02]), NonFinite),
    ("swap_value.y_path", lambda b: swap_value([50.0, 51.0], [0, 1], GS_SWAP, b([0.03, 0.02])), NonFinite),
    ("RiskQuery.s", lambda b: RiskQuery(b(0.5), 1.0, 60.0), NonFinite),
    ("RiskQuery.T", lambda b: RiskQuery(0.0, b(1.0), 60.0), NonFinite),
    ("RiskQuery.x_s", lambda b: RiskQuery(0.0, 1.0, b(60.0)), NonFinite),
    ("entropic_mc.samples", lambda b: entropic_mc(b([1.0, 2.0, 3.0]), 1.0), NonFinite),
    ("entropic_mc.gamma", lambda b: entropic_mc([1.0, 2.0, 3.0], b(1.0)), NonFinite),
    (
        "spot_risk_closed.delta",
        lambda b: spot_risk_closed(CRUDE, TWO, b([1.0, 2.0]), Q, gammas=[1.0]),
        NonFinite,
    ),
    (
        "claim_risk_closed.gammas",
        lambda b: claim_risk_closed(CRUDE, TWO, [LinearSpotClaim([1.0, 2.0])], [Q], gammas=[1.0, b(2.0)]),
        NonFinite,
    ),
    (
        "claim_risk_mc.gammas",
        lambda b: claim_risk_mc(CRUDE, TWO, LinearSpotClaim([1.0, 2.0]), Q, 100, 0, gammas=[1.0, b(2.0)]),
        NonFinite,
    ),
    (
        "sample_paths.grid",
        lambda b: sample_paths(CRUDE, TWO, 0, b([0.0, 0.5, 1.0]), np.random.default_rng(0)),
        NonFinite,
    ),
]


@pytest.mark.parametrize("kind", ["bool", "string", "complex", "nan"])
@pytest.mark.parametrize("call, error", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_every_numeric_argument_is_read_by_one_rule(expm_calls, monkeypatch, call, error, kind):
    def never(*args):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(entropic_risk, "_payoffs_for_state", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite if kind == "nan" else error) as raised:
            call(lambda good: bad(kind, good))
    if kind != "nan":
        assert "must hold real numbers" in str(raised.value)
    assert expm_calls == []


# A bool among numbers in a list or tuple (numpy would cast it), a ragged
# nested list (numpy would raise a bare ValueError) and an int beyond the
# float range (``float()`` would raise a bare OverflowError).
HUGE = 10**400
HOLES = [
    ("Generator.q.bool_entry", lambda: Generator([[-1.0, True], [1.0, -1.0]]), NotAGenerator),
    ("from_transition.p.bool_entry", lambda: from_transition([[0.9, 0.1], [False, 1.0]], 1 / 252), NotStochastic),
    ("matrix_exp.t.bool_entry", lambda: matrix_exp(TWO, (0.5, True)), NonFinite),
    ("LinearSpotClaim.delta.bool_entry", lambda: LinearSpotClaim([True, 2.0]), NonFinite),
    ("SwapClaim.rates.numpy_bool_entry", lambda: SwapClaim((0.1, np.True_), [1.0], ConstantYield(0.02, 0.01)), NonFinite),
    ("sample_paths.grid.bool_entry", lambda: sample_paths(CRUDE, TWO, 0, [0.0, 0.5, True], np.random.default_rng(0)), NonFinite),
    ("entropic_mc.samples.bool_row", lambda: entropic_mc([[1.0, 2.0], [True, 3.0]], 1.0), NonFinite),
    ("entropic_mc.samples.bool_array_row", lambda: entropic_mc([np.array([True, False]), [2.0, 3.0]], 1.0), NonFinite),
    ("Generator.q.ragged", lambda: Generator([[-1.0, 1.0], [1.0]]), DimensionError),
    ("from_transition.p.ragged", lambda: from_transition([[0.9, 0.1], [1.0]], 1 / 252), DimensionError),
    ("LinearSpotClaim.delta.ragged", lambda: LinearSpotClaim([1.0, [2.0, 3.0]]), DimensionError),
    ("entropic_mc.samples.ragged", lambda: entropic_mc([[1.0, 2.0], [3.0]], 1.0), DimensionError),
    ("OUParams.alpha.huge_int", lambda: OUParams(**{**OU, "alpha": HUGE}), NonFinite),
    ("OUParams.mu.huge_negative_int", lambda: OUParams(**{**OU, "mu": -HUGE}), NonFinite),
    ("RiskQuery.T.huge_int", lambda: RiskQuery(0.0, HUGE, 1.0), NonFinite),
    ("ConstantYield.r.huge_int", lambda: ConstantYield(HUGE, 0.01), NonFinite),
    ("FutureClaim.y.huge_int", lambda: FutureClaim([1.0, 2.0], 0.02, HUGE), NonFinite),
    ("GibsonSchwartzParams.kappa.huge_int", lambda: GibsonSchwartzParams(**{**GS, "kappa": HUGE}), NonFinite),
    ("conditional_law.t.huge_int", lambda: conditional_law(CRUDE, 60.0, 0.0, HUGE), NonFinite),
    ("entropic_mc.gamma.huge_int", lambda: entropic_mc([1.0, 2.0, 3.0], HUGE), NonFinite),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in HOLES], ids=[row[0] for row in HOLES])
def test_no_bool_entry_ragged_list_or_huge_int_gets_through(expm_calls, monkeypatch, call, error):
    def never(*args):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(entropic_risk, "_payoffs_for_state", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as raised:
            call()
    assert type(raised.value) is error
    assert expm_calls == []


# A grid argument given as one value: iterating it raised a bare TypeError.
LINEAR = LinearSpotClaim([1.0, 2.0])
FUTURE = FutureClaim([1.0, 2.0], 0.02, 0.01)
GAMMA_ROUTES = {
    "claim_risk_closed": lambda gammas: claim_risk_closed(CRUDE, TWO, [LINEAR], [Q], gammas=gammas),
    "claim_risk_mc": lambda gammas: claim_risk_mc(CRUDE, TWO, LINEAR, Q, 100, 0, gammas=gammas),
    "spot_risk_closed": lambda gammas: spot_risk_closed(CRUDE, TWO, [1.0, 2.0], Q, gammas=gammas),
    "future_risk_closed": lambda gammas: future_risk_closed(CRUDE, TWO, FUTURE, Q, gammas=gammas),
}
SINGLE_VALUES = [
    *[
        (f"{route}.gammas={label}", "gammas", lambda call=call, value=value: call(value))
        for route, call in GAMMA_ROUTES.items()
        for label, value in [("float", 2.5), ("0d_array", np.array(2.5)), ("None", None)]
    ],
    ("claim_risk_mc.states=0", "states", lambda: claim_risk_mc(CRUDE, TWO, LINEAR, Q, 100, 0, gammas=[1.0], states=0)),
    ("claim_risk_closed.claims=claim", "claims", lambda: claim_risk_closed(CRUDE, TWO, LINEAR, [Q], gammas=[1.0])),
    ("claim_risk_closed.queries=query", "queries", lambda: claim_risk_closed(CRUDE, TWO, [LINEAR], Q, gammas=[1.0])),
]


@pytest.mark.parametrize("name, call", [row[1:] for row in SINGLE_VALUES], ids=[row[0] for row in SINGLE_VALUES])
def test_grid_argument_given_one_value_raises_dimension_error(expm_calls, monkeypatch, name, call):
    def never(*args):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(entropic_risk, "_payoffs_for_state", never)
    with pytest.raises(DimensionError, match=f"^{name} must be a list or 1-d array") as raised:
        call()
    assert type(raised.value) is DimensionError
    assert expm_calls == []


@pytest.mark.parametrize("route", sorted(GAMMA_ROUTES))
def test_every_iterable_gamma_grid_is_read_as_a_list(route):
    def flat(result):
        return [e.value for row in result for e in row] if route == "claim_risk_mc" else np.asarray(result).tolist()

    want = flat(GAMMA_ROUTES[route]([1.0, 2.5]))
    for grid in [(1.0, 2.5), np.array([1.0, 2.5]), (g for g in [1.0, 2.5])]:
        assert flat(GAMMA_ROUTES[route](grid)) == want


# Timestamps went around the numeric reader: an infinity, a complex number
# and ISO date strings were accepted, and a ragged list and Nones raised
# bare numpy and Python errors.
@pytest.mark.parametrize(
    "timestamps, error",
    [
        ([0.0, 1.0, np.inf], NonFinite),
        ([0.0, 1.0, 2.0 + 1j], NonFinite),
        (["2020-01-01", "2020-01-02", "2020-01-03"], NonFinite),
        ([None, None, None], NonFinite),
        ([0.0, [1.0, 2.0], 3.0], DimensionError),
    ],
    ids=["inf", "complex", "iso_strings", "nones", "ragged"],
)
def test_price_series_timestamps_read_by_the_numeric_rule(timestamps, error):
    with pytest.raises(error) as raised:
        PriceSeries(timestamps, PRICES[:3])
    assert type(raised.value) is error


@pytest.mark.parametrize(
    "timestamps",
    [np.arange(3), np.array(["2020-01-01", "2020-01-02", "2020-01-03"], dtype="datetime64[D]")],
    ids=["int", "datetime64"],
)
def test_price_series_stores_timestamps_as_given(timestamps):
    series = PriceSeries(timestamps, PRICES[:3])
    assert series.timestamps.dtype == timestamps.dtype
    assert np.array_equal(series.timestamps, timestamps)

"""One rule for every number the library takes (``errors.real_array``, and
its integer mode for path counts, seeds and state indices).

Every public numeric argument, given a bool, a numeric string, a complex
number or a NaN, raises its named ``RiskModelError`` subclass before any
work is done: never a bare ``TypeError``, never a cast, no ``matrix_exp``
call and no Monte-Carlo draw.  So does a bool among the numbers of a list or
tuple, a ragged nested list and an int beyond the float range.  A list or
array where a number belongs raises ``DimensionError`` naming the argument.
"""

import dataclasses
import inspect
import warnings

import numpy as np
import pytest

import regime_risk
from regime_risk import entropic_risk, regime_chain
from regime_risk.entropic_risk import (
    MCEstimate,
    RiskQuery,
    claim_risk_closed,
    claim_risk_mc,
    entropic_mc,
    future_risk_closed,
    sample_paths,
    spot_risk_closed,
)
from regime_risk.errors import (
    BadDistribution,
    ConfigError,
    DimensionError,
    EmptySamples,
    LengthMismatch,
    NonFinite,
    NotAGenerator,
    NotStochastic,
    StateOutOfRange,
    TimeOrder,
)
from regime_risk.instruments import (
    ConstantYield,
    FutureClaim,
    GibsonSchwartzParams,
    LinearSpotClaim,
    SwapClaim,
    swap_value,
)
from regime_risk.ou_model import ConditionalLaw, OUParams, PriceSeries, conditional_law, load_price_csv
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


# A number given as a list or an array of one entry: it was stored and failed
# later, was broadcast through the arithmetic, or raised a bare TypeError.
PRICE_CSV = "prices.csv"  # written into each case's own directory
PRICE_ROWS = "date,price\n" + "".join(f"2020-01-0{day},{x}\n" for day, x in enumerate(PRICES, 1))
RANKS = [
    ("from_transition.dt", lambda v: from_transition(P, dt=v(1 / 252))),
    ("distribution_at.t", lambda v: distribution_at(TWO, [0.5, 0.5], v(1.0))),
    *[(f"OUParams.{k}", lambda v, k=k: OUParams(**{**OU, k: v(OU[k])})) for k in OU],
    ("ConditionalLaw.mean", lambda v: ConditionalLaw(v(60.0), 4.0)),
    ("ConditionalLaw.variance", lambda v: ConditionalLaw(60.0, v(4.0))),
    ("conditional_law.x_s", lambda v: conditional_law(CRUDE, v(60.0), 0.0, 1.0)),
    ("conditional_law.s", lambda v: conditional_law(CRUDE, 60.0, v(0.5), 1.0)),
    ("conditional_law.t", lambda v: conditional_law(CRUDE, 60.0, 0.0, v(1.0))),
    ("PriceSeries.dt", lambda v: PriceSeries(np.arange(4), PRICES, dt=v(1 / 252))),
    ("load_price_csv.dt", lambda v: load_price_csv(PRICE_CSV, dt=v(1 / 252))),
    ("FutureClaim.r", lambda v: FutureClaim([1.0, 2.0], v(0.02), 0.01)),
    ("FutureClaim.y", lambda v: FutureClaim([1.0, 2.0], 0.02, v(0.01))),
    ("ConstantYield.r", lambda v: ConstantYield(v(0.02), 0.01)),
    ("ConstantYield.y", lambda v: ConstantYield(0.02, v(0.01))),
    *[(f"GibsonSchwartzParams.{k}", lambda v, k=k: GibsonSchwartzParams(**{**GS, k: v(GS[k])})) for k in GS],
    ("RiskQuery.s", lambda v: RiskQuery(v(0.5), 1.0, 60.0)),
    ("RiskQuery.T", lambda v: RiskQuery(0.0, v(1.0), 60.0)),
    ("RiskQuery.x_s", lambda v: RiskQuery(0.0, 1.0, v(60.0))),
    ("MCEstimate.value", lambda v: MCEstimate(v(1.0), 0.1, 10)),
    ("MCEstimate.std_error", lambda v: MCEstimate(1.0, v(0.1), 10)),
    # its list case is the nested grid entropic_mc(samples, [1.0])
    ("entropic_mc.gamma", lambda v: entropic_mc([1.0, 2.0, 3.0], v(1.0))),
]
# Exported names whose float fields need no RANKS row, and why.
RANK_EXEMPT = {"CalibrationResult": "a record calibrate fills from its own fit: no caller passes it a number"}
WRONG_RANKS = [
    *[
        (f"{arg}={label}", arg.rsplit(".", 1)[1], lambda call=call, wrap=wrap: call(wrap))
        for arg, call in RANKS
        for label, wrap in [("list", lambda v: [v]), ("array", lambda v: np.array([v]))]
    ],
    # a gamma grid whose entry is itself a list or an array
    *[
        (f"{route}.gammas={label}", "gammas", lambda call=call, value=value: call(value))
        for route, call in GAMMA_ROUTES.items()
        for label, value in [("nested_list", [[1.0]]), ("row_array", np.array([[1.0, 2.0]]))]
    ],
]


@pytest.mark.parametrize("name, call", [row[1:] for row in WRONG_RANKS], ids=[row[0] for row in WRONG_RANKS])
def test_a_list_or_array_where_a_number_belongs_raises_dimension_error(
    expm_calls, monkeypatch, tmp_path, name, call
):
    def never(*args):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(entropic_risk, "_payoffs_for_state", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / PRICE_CSV).write_text(PRICE_ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match=f"^{name} must be a ") as raised:
            call()
    assert type(raised.value) is DimensionError
    assert expm_calls == []


def test_every_float_argument_has_a_ranks_row_or_an_exemption():
    floats = set()
    for export in regime_risk.__all__:
        obj = getattr(regime_risk, export)
        if dataclasses.is_dataclass(obj):
            annotated = [(f.name, f.type) for f in dataclasses.fields(obj)]
        elif inspect.isfunction(obj):
            annotated = [(p.name, p.annotation) for p in inspect.signature(obj).parameters.values()]
        else:
            continue
        floats |= {f"{export}.{name}" for name, kind in annotated if kind in ("float", float)}
    rows = {row[0] for row in RANKS}
    assert rows <= floats
    assert sorted(arg for arg in floats - rows if arg.split(".")[0] not in RANK_EXEMPT) == []


# A number is held as the reader's float, so a numpy scalar gives the result
# of the float it stands for.  The library used to store and compute with
# the caller's scalar: a float32 field computed in float32, a uint8 gamma of
# 20 squared to 144 (mod 256), a uint64 gamma negated to 2**64 - 2.
def plain(result):
    """``result`` as nested lists of Python values, to compare with ``==``: a
    record by its class and fields, an array by its dtype and entries."""
    if dataclasses.is_dataclass(result):
        return [type(result).__name__, *(plain(getattr(result, f.name)) for f in dataclasses.fields(result))]
    if isinstance(result, np.ndarray):
        return [result.dtype.str, result.tolist()]
    if isinstance(result, (list, tuple)):
        return [plain(v) for v in result]
    return result


def assert_fields_are_python_numbers(result):
    """Every ``float`` field of each record in ``result`` (a record or nested
    lists of them) holds a Python float, and every ``int`` field a Python int."""
    if isinstance(result, (list, tuple)):
        for v in result:
            assert_fields_are_python_numbers(v)
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            for kind in (float, int):
                if f.type in (kind.__name__, kind):
                    assert type(getattr(result, f.name)) is kind, f.name


@pytest.mark.parametrize("call", [row[1] for row in RANKS], ids=[row[0] for row in RANKS])
def test_a_float32_argument_gives_its_floats_result(monkeypatch, tmp_path, call):
    monkeypatch.chdir(tmp_path)
    (tmp_path / PRICE_CSV).write_text(PRICE_ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(np.float32)
    assert plain(got) == plain(call(lambda v: float(np.float32(v))))
    assert_fields_are_python_numbers(got)


@pytest.mark.parametrize("route", sorted(GAMMA_ROUTES))
def test_a_float32_gamma_gives_its_floats_result(route):
    grid = [np.float32(0.7), np.float32(2.3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = GAMMA_ROUTES[route](grid)
    assert plain(got) == plain(GAMMA_ROUTES[route](list(map(float, grid))))
    assert_fields_are_python_numbers(got)


# Integer scalars at integral values, on a 2-state chain with OU (5, 48.22,
# 13.66, 62.24), loading [0.6, 1.1] and T = 0.5.  Each call takes a reader
# of the value: the scalar itself, or the float it stands for.
OU5 = OUParams(5.0, 48.22, 13.66, 62.24)
LOADING = LinearSpotClaim([0.6, 1.1])
Q5 = RiskQuery(0.0, 0.5, 62.24)
INTEGRAL = [
    ("claim_risk_closed.gammas=uint8(20)", lambda v: claim_risk_closed(OU5, TWO, [LOADING], [Q5], gammas=[v(np.uint8(20))])),
    ("claim_risk_mc.gammas=uint64(2)", lambda v: claim_risk_mc(OU5, TWO, LOADING, Q5, 1000, 0, gammas=[v(np.uint64(2))])),
    ("FutureClaim.r,y=uint8(0),uint8(1)", lambda v: FutureClaim([1.0], r=v(np.uint8(0)), y=v(np.uint8(1))).discount(1.0)),
    (
        "conditional_law.alpha=uint8(5)",
        lambda v: conditional_law(OUParams(v(np.uint8(5)), 48.22, 13.66, 62.24), 62.24, 0.0, 0.5),
    ),
    ("claim_risk_closed.gammas=int64(2**33)", lambda v: claim_risk_closed(OU5, TWO, [LOADING], [Q5], gammas=[v(np.int64(2**33))])),
    ("claim_risk_closed.gammas=int32(70000)", lambda v: claim_risk_closed(OU5, TWO, [LOADING], [Q5], gammas=[v(np.int32(70000))])),
]


@pytest.mark.parametrize("call", [row[1] for row in INTEGRAL], ids=[row[0] for row in INTEGRAL])
def test_an_integer_scalar_gives_its_floats_result(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(lambda v: v)
    assert plain(got) == plain(call(float))
    assert_fields_are_python_numbers(got)


# Every integer argument (a path count, a seed, a start state, a swap's state
# path) goes through the reader's integer mode.  Each row: the argument, a
# call taking the value, a value in range (fed as a 0-d array, an int8, a
# float, a string and so on), the error of a value that is not an integer
# and of a one-entry list, and each range edge: the last value in range,
# accepted (None), where a call with it is cheap, and the first value out,
# with its error.  A 0-d int array is a number, as a 0-d float array is: it
# used to be refused where a start state, a seed or a path count belongs.
# A path count at 2**63 used to reach the allocation and fail there with
# numpy's bare ValueError (an MCEstimate took it).
SOR = StateOutOfRange
SWAP_ONE = SwapClaim(rates=[0.05], delta=[1.0, 0.8], yield_spec=ConstantYield(0.02, 0.01))
STATE_EDGES = [(-1, SOR), (0, None), (1, None), (2, SOR)]
INTEGERS = [
    (
        "claim_risk_mc.n_paths",
        lambda v: claim_risk_mc(CRUDE, TWO, LINEAR, Q, v, 0, gammas=[1.0]),
        2, ConfigError, DimensionError, [(1, EmptySamples), (2, None), (1 << 63, ConfigError)],
    ),
    (
        "claim_risk_mc.seed",
        lambda v: claim_risk_mc(CRUDE, TWO, LINEAR, Q, 2, v, gammas=[1.0]),
        1, ConfigError, DimensionError, [(-1, ConfigError), (0, None), ((1 << 64) - 1, None), (1 << 64, ConfigError)],
    ),
    (
        "claim_risk_mc.states",
        lambda v: claim_risk_mc(CRUDE, TWO, LINEAR, Q, 2, 0, gammas=[1.0], states=[v]),
        1, SOR, DimensionError, STATE_EDGES,
    ),
    (
        "sample_paths.z0",
        lambda v: sample_paths(CRUDE, TWO, v, [0.0, 0.5, 1.0], np.random.default_rng(0))[1].tolist(),
        1, SOR, DimensionError, STATE_EDGES,
    ),
    (
        "MCEstimate.n_paths",
        lambda v: MCEstimate(1.0, 0.1, v),
        1, ConfigError, DimensionError, [(0, EmptySamples), (1, None), ((1 << 63) - 1, None), (1 << 63, ConfigError)],
    ),
    # the value is the path's one entry: a list there makes the path a
    # matrix, which does not match the spot path's shape
    ("swap_value.z_path", lambda v: swap_value([50.0], [v], SWAP_ONE), 1, SOR, LengthMismatch, STATE_EDGES),
]
# Exported names whose int fields need no INTEGERS row, and why.
INT_EXEMPT = {"CalibrationResult": "a record calibrate fills from its own fit: no caller passes it an integer"}
NOT_INTEGERS = [
    ("bool", lambda n: True),
    ("numpy_bool", lambda n: np.True_),
    ("integral_float", float),
    ("float", lambda n: n + 0.5),
    ("str", str),
    ("None", lambda n: None),
]
INTEGER_CASES = [
    *[
        (f"{arg}={label}", call, make(base), not_int)
        for arg, call, base, not_int, *_ in INTEGERS
        for label, make in NOT_INTEGERS
    ],
    *[(f"{arg}=list", call, [base], listed) for arg, call, base, _, listed, _ in INTEGERS],
    *[
        (f"{arg}={label}", call, make(base), None)
        for arg, call, base, *_ in INTEGERS
        for label, make in [("0d_array", np.array), ("int8", np.int8)]
    ],
    *[(f"{arg}={value}", call, value, error) for arg, call, *_, edges in INTEGERS for value, error in edges],
]


@pytest.mark.parametrize("call, value, error", [c[1:] for c in INTEGER_CASES], ids=[c[0] for c in INTEGER_CASES])
def test_every_integer_argument_is_read_by_one_rule(expm_calls, monkeypatch, call, value, error):
    """An input is accepted, with the result of the Python int it stands
    for, or raises its typed error before anything is allocated or drawn."""
    if error is None:
        assert call(value) == call(int(value))
        assert_fields_are_python_numbers(call(value))
        return

    def never(*args):
        raise AssertionError("allocated or simulated before the arguments were checked")

    monkeypatch.setattr(entropic_risk, "_working_set", never)
    monkeypatch.setattr(entropic_risk, "_payoffs_for_state", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as raised:
            call(value)
    assert type(raised.value) is error
    assert expm_calls == []


def test_every_int_argument_has_an_integers_row_or_an_exemption():
    arguments, ints = set(), set()
    for export in regime_risk.__all__:
        obj = getattr(regime_risk, export)
        if dataclasses.is_dataclass(obj):
            annotated = [(f.name, f.type) for f in dataclasses.fields(obj)]
        elif inspect.isfunction(obj):
            annotated = [(p.name, p.annotation) for p in inspect.signature(obj).parameters.values()]
        else:
            continue
        arguments |= {f"{export}.{name}" for name, _ in annotated}
        ints |= {f"{export}.{name}" for name, kind in annotated if kind in ("int", int)}
    rows = {row[0] for row in INTEGERS}
    assert rows <= arguments
    assert sorted(arg for arg in ints - rows if arg.split(".")[0] not in INT_EXEMPT) == []


def expm_returning(out):
    """A ``matrix_exp(TWO, 0.5)`` call whose ``_expm`` returns ``out`` at every horizon."""

    def call(monkeypatch):
        monkeypatch.setattr(regime_chain, "_expm", lambda a: np.broadcast_to(out, a.shape).copy())
        matrix_exp(TWO, 0.5)

    return call


DATES = np.array(["2020-01-01", "2020-01-02", "2020-01-02"], dtype="datetime64[D]")
# Each value a message names is computed by numpy; the message shows it as
# the plain float it is (a timestamp as its ISO text), never a numpy repr.
MESSAGES = [
    (lambda mp: from_transition([[1 + 5e-13, -5e-13], [0.25, 0.75]], 1 / 252),
     NotStochastic, "entry (0,1)=-5e-13 outside [0, 1]"),
    (lambda mp: from_transition([[0.5, 0.4], [0.25, 0.75]], 1.0), NotStochastic, "row 0 sums to 0.9,"),
    (lambda mp: Generator([[-1.0, 0.5], [-0.5, -0.5]]), NotAGenerator, "entry (1,0)=-0.5 is negative"),
    (lambda mp: Generator([[0.5, 1.0], [0.5, -1.0]]), NotAGenerator, "entry (0,0)=0.5 is positive"),
    (lambda mp: Generator([[-1.0, 0.5], [0.5, -0.5]]), NotAGenerator, "column 0 sums to -0.5,"),
    (expm_returning(np.array([[1.5, 0.0], [0.0, 1.0]])), NotAGenerator, "column 0 at t=0.5 sums to 1.5;"),
    (expm_returning(np.array([[1.5, 0.0], [-0.5, 1.0]])), NotAGenerator, "entry (1,0) at t=0.5 is -0.5,"),
    (lambda mp: PriceSeries([0.0, 1.0, 2.0], [50.0, -2.0, 52.0]), BadDistribution, "price -2.0 at row 1 "),
    (lambda mp: PriceSeries(DATES, PRICES[:3]), TimeOrder, "at row 2 (2020-01-02)"),
    (lambda mp: PriceSeries([0.0, 1.0, 1.0], PRICES[:3]), TimeOrder, "at row 2 (1.0)"),
    (lambda mp: distribution_at(TWO, [0.6, 0.5], 1.0), BadDistribution, "p0 sums to 1.1,"),
]


@pytest.mark.parametrize(
    "call, error, text",
    MESSAGES,
    ids=["transition_entry", "transition_row", "generator_off_diagonal", "generator_diagonal",
         "generator_column", "expm_column", "expm_entry", "price", "timestamp_date", "timestamp_number",
         "p0_sum"],
)
def test_a_message_shows_a_computed_value_as_a_plain_number(monkeypatch, call, error, text):
    with pytest.raises(error) as raised:
        call(monkeypatch)
    assert text in str(raised.value)
    assert "np." not in str(raised.value)

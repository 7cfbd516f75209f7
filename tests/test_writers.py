"""The deterministic writers against the formats they must reproduce byte for byte.

``write_json`` must write exactly ``json.dumps(payload, sort_keys=True,
indent=2)`` and ``write_csv`` exactly the per-cell :func:`_fmt` join, for any
payload or table, not only those the commands produce (the golden hashes
cover those).
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regime_risk.config import _fmt, write_csv, write_json
from regime_risk.errors import LengthMismatch

SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

# floats a writer is most likely to get wrong: signed zero, subnormals, the
# switch to exponent notation, and the non-finite values json spells out
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e15, 1e-5, 0.1, 123456789012.5, float("inf"), float("nan")]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ['"', '""', ",", 'a,"b"', "line\r\nbreak", "tab\there", "\\", "é"]
)
scalars = st.none() | st.booleans() | st.integers() | floats | texts
rows_of_scalars = st.lists(st.lists(scalars, max_size=5), max_size=6)
json_values = st.recursive(
    scalars | rows_of_scalars,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(texts, children, max_size=5),
    max_leaves=40,
)
provenances = st.dictionaries(st.text(alphabet="abcdefgh_", min_size=1, max_size=6), scalars, max_size=4)


def csv_by_cell(prov: dict, header: list[str], rows: list[list]) -> str:
    """The table as formatting every cell with ``_fmt`` writes it."""
    lines = [f"# {k}={prov[k]}" for k in sorted(prov)]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\r\n".join(lines) + "\r\n"


# one column kind per column: uniform floats (numpy scalars too), uniform
# ints, uniform bools, or a mix of labels, None and numbers
COLUMN_CELLS = {
    "float": floats | floats.map(np.float64),
    "int": st.integers(),
    "bool": st.booleans(),
    "mixed": scalars | st.integers(-5, 5).map(np.int64),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 12))
    rows = [[draw(COLUMN_CELLS[kind]) for kind in kinds] for _ in range(n_rows)]
    return [f"c{j}" for j in range(len(kinds))], rows


@SETTINGS
@given(prov=provenances, data=json_values)
def test_write_json_is_json_dumps_indent_2(tmp_path_factory, prov, data):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(path, prov, data)
    want = json.dumps({"provenance": prov, "data": data}, sort_keys=True, indent=2) + "\n"
    assert path.read_text() == want


@SETTINGS
@given(prov=provenances, table=tables())
def test_write_csv_is_the_per_cell_fmt_join(tmp_path_factory, prov, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, prov, header, rows)
    with path.open(newline="") as fh:
        assert fh.read() == csv_by_cell(prov, header, rows)


def test_write_csv_rejects_a_row_that_does_not_fit_the_header(tmp_path):
    with pytest.raises(LengthMismatch, match="row 1"):
        write_csv(tmp_path / "t.csv", {}, ["a", "b"], [[1, 2.0], [3]])

"""The deterministic writers against the formats they must reproduce byte for byte.

``write_json`` must write exactly ``json.dumps(payload, sort_keys=True,
indent=2)`` and ``write_csv`` exactly the per-cell :func:`_fmt` join, for any
payload or table, not only those the commands produce (the golden hashes
cover those).
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from regime_risk.config import _fmt, write_csv, write_json
from regime_risk.errors import LengthMismatch

from conftest import SETTINGS

# floats a writer is most likely to get wrong: signed zero, subnormals, the
# switch to exponent notation, and the non-finite values json spells out
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e15, 1e-5, 0.1, 123456789012.5, float("inf"), float("nan")]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
# the last three spell a row boundary of a JSON row table, which the writer
# finds by its raw newline: a string cell holds it only escaped
texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ['"', '""', ",", 'a,"b"', "line\r\nbreak", "tab\there", "\\", "é", "]", "[", "],\n  ["]
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
# shapes no fast path takes, two levels down: empty containers, and lists
# that hold other containers
@example(prov={}, data={"a": [[], [{"b": [1, [2]]}], {}]})
# a list of nonempty rows, one of which holds a container
@example(prov={}, data={"a": [[1], [[2]]]})
def test_write_json_is_json_dumps_indent_2(tmp_path_factory, prov, data):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(path, prov, data)
    want = json.dumps({"provenance": prov, "data": data}, sort_keys=True, indent=2) + "\n"
    assert path.read_text() == want


@SETTINGS
@given(prov=provenances, table=tables())
# a column of floats, None, strings and bools beside a column of ints
@example(prov={}, table=(["c0", "c1"], [[0.5, 1], [None, 2], ['a,"b"', 3], [True, 4], [-0.0, 5]]))
def test_write_csv_is_the_per_cell_fmt_join(tmp_path_factory, prov, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, prov, header, rows)
    with path.open(newline="") as fh:
        assert fh.read() == csv_by_cell(prov, header, rows)


def test_write_csv_rejects_a_row_that_does_not_fit_the_header(tmp_path):
    with pytest.raises(LengthMismatch, match="row 1"):
        write_csv(tmp_path / "t.csv", {}, ["a", "b"], [[1, 2.0], [3]])


@SETTINGS
@given(prov=provenances, table=tables())
def test_write_csv_writes_tuple_rows_as_list_rows(tmp_path_factory, prov, table):
    header, rows = table
    folder = tmp_path_factory.mktemp("csv")
    write_csv(folder / "lists.csv", prov, header, rows)
    write_csv(folder / "tuples.csv", prov, header, [tuple(row) for row in rows])
    assert (folder / "tuples.csv").read_bytes() == (folder / "lists.csv").read_bytes()


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0.5, 1e-300], [1, -0.0, 62.24]],
        [[0, None, 0.5], [1, 'a,"b"', 1.5], [2, True, 2.5]],
    ],
    ids=["no_mixed_column", "mixed_column"],
)
def test_write_csv_tuple_and_list_rows_give_the_same_bytes(tmp_path, rows):
    header = ["a", "b", "c"]
    write_csv(tmp_path / "lists.csv", {"seed": 1}, header, rows)
    write_csv(tmp_path / "tuples.csv", {"seed": 1}, header, [tuple(row) for row in rows])
    assert (tmp_path / "tuples.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()
    with (tmp_path / "lists.csv").open(newline="") as fh:
        assert fh.read() == csv_by_cell({"seed": 1}, header, rows)


def test_write_csv_rejects_a_short_tuple_row(tmp_path):
    with pytest.raises(LengthMismatch, match="row 1"):
        write_csv(tmp_path / "t.csv", {}, ["a", "b"], [(1, 2.0), (3,)])


def long_table(mixed: bool = True) -> tuple[list[str], list[list]]:
    """A deterministic 5 001-row table, a simulate grid's length: far more
    bytes than a text file's write buffer holds, which the hypothesis tables
    (at most 12 rows) never reach.  Int, float (numpy and edge floats too)
    and, with ``mixed``, a column of labels, None, floats and bools."""
    rows = []
    for i in range(5001):
        row = [i, i / 252.0, np.float64(60.0 + 7.0 * math.sin(i)), EDGE_FLOATS[i % len(EDGE_FLOATS)], i % 4]
        if mixed:
            row.append([None, f'T={i} "d",x', i * 0.5, i % 8 == 3][i % 4])
        rows.append(row)
    return [f"c{j}" for j in range(len(rows[0]))], rows


PROV = {"seed": 7, "tool": "regime-risk", "n_paths": 2}


@pytest.mark.parametrize("mixed", [False, True], ids=["typed", "mixed"])
def test_long_table_is_byte_identical(tmp_path, mixed):
    header, rows = long_table(mixed)
    write_csv(tmp_path / "t.csv", PROV, header, rows)
    with (tmp_path / "t.csv").open(newline="") as fh:
        assert fh.read() == csv_by_cell(PROV, header, rows)
    for name, data in [("rows", {"columns": header, "rows": rows}), ("cols", dict(zip(header, map(list, zip(*rows)))))]:
        write_json(tmp_path / f"{name}.json", PROV, data)
        want = json.dumps({"provenance": PROV, "data": data}, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / f"{name}.json").read_text() == want


@pytest.mark.parametrize("mixed", [False, True], ids=["typed", "mixed"])
def test_write_csv_holds_no_copy_of_the_file(tmp_path, mixed):
    """The table is written a line at a time: the traced heap peak of a call
    stays within twice the file's size (one joined string, its line list and
    its encoded copy took over four times).  The heap Python traces, not
    RSS, which follows the allocator's layout."""
    header, rows = long_table(mixed)
    path = tmp_path / "t.csv"
    write_csv(path, PROV, header, rows)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        write_csv(path, PROV, header, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


def test_write_json_row_table_whose_cells_spell_a_row_boundary(tmp_path):
    """A row table is encoded once and each row boundary, the text ``]``,
    separator, ``[``, re-indented by one replace: a cell that spells the
    boundary, or a part of it, in any place of its row stays as it is."""
    spelled = ["]", "[", "],\n  [", "],", ",\n  ["]
    rows = [list(cells) for cells in itertools.permutations(spelled, 3)] + [[cell] for cell in spelled]
    write_json(tmp_path / "out.json", PROV, {"rows": rows, "nested": {"rows": rows}})
    want = json.dumps({"provenance": PROV, "data": {"rows": rows, "nested": {"rows": rows}}}, sort_keys=True, indent=2)
    assert (tmp_path / "out.json").read_text() == want + "\n"


def test_write_json_encodes_before_it_opens_the_file(tmp_path):
    """A value JSON cannot hold raises the encoder's TypeError and leaves the
    file at that path as it was, or leaves no file."""
    path = tmp_path / "out.json"
    path.write_bytes(b"earlier run\r\n")
    data = {"columns": ["a"], "rows": [[float(i)] for i in range(5001)] + [[object()]]}
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(path, PROV, data)
    assert path.read_bytes() == b"earlier run\r\n"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(tmp_path / "new" / "out.json", PROV, {"a": [1.0, object()]})
    assert not (tmp_path / "new" / "out.json").exists()

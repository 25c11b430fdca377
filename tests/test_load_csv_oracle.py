"""`load_csv` against the row-wise loader it replaced.

`reference_load_csv` is the earlier implementation: it reads every cell
through a per-row helper and parses one cell at a time. The only changes
are that a YEAR cell of ±inf, or of a fractional number, raises
SchemaError rather than OverflowError or reading as its integer part,
which is the current contract, and that, like `load_csv`, it no longer
takes a set of columns to read as categorical. The block-wise loader must give the same
table, bit for bit, or the same exception with the same message, at its
default block size and at block sizes of 1, 2 and 3 rows, so that blank
rows, first numbers, "nan" words, new labels, bad YEARs and a numeric
column turning blank fall on every side of a block boundary. Numeric
cells come padded with Unicode whitespace and in every spelling
``float()`` takes, because the loader hands whole numeric column blocks
to numpy and parses cell by cell only a block that numpy refuses.
"""

import csv
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodpave import dataset
from floodpave.dataset import (
    KEY_COLUMNS,
    ROUTE_COLUMN,
    SECTION_COLUMN,
    YEAR_COLUMN,
    DataTable,
    _parse_cell,
    load_csv,
)
from floodpave.errors import SchemaError


def reference_load_csv(path, schema):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, no header row") from None
            header = [h.strip() for h in header]
            raw_rows = [row for row in reader if any(cell.strip() for cell in row)]
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc

    missing = [c for c in list(schema) + list(KEY_COLUMNS) if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required column(s) {missing}")

    col_of = {name: header.index(name) for name in header}
    data_columns = [c for c in header if c not in KEY_COLUMNS]

    def cell(row, name):
        i = col_of[name]
        return row[i].strip() if i < len(row) else ""

    row_keys = []
    for row in raw_rows:
        year_text = cell(row, YEAR_COLUMN)
        try:
            year = float(year_text)
        except ValueError:
            year = math.nan
        if not year.is_integer():
            raise SchemaError(f"{path}: unparseable YEAR value {year_text!r}")
        year = int(year)
        row_keys.append((cell(row, ROUTE_COLUMN), cell(row, SECTION_COLUMN), year))

    categorical = set()
    for name in data_columns:
        texts = [cell(r, name) for r in raw_rows]
        nonempty = [t for t in texts if t]
        if nonempty and all(math.isnan(_parse_cell(t)) and t.lower() != "nan" for t in nonempty):
            categorical.add(name)

    n = len(raw_rows)
    values = np.full((n, len(data_columns)), np.nan)
    encodings = {}
    for j, name in enumerate(data_columns):
        if name in categorical:
            labels, index = [], {}
            for i, row in enumerate(raw_rows):
                text = cell(row, name)
                if not text:
                    continue
                if text not in index:
                    index[text] = len(labels)
                    labels.append(text)
                values[i, j] = index[text]
            encodings[name] = labels
        else:
            for i, row in enumerate(raw_rows):
                values[i, j] = _parse_cell(cell(row, name))

    return DataTable(tuple(data_columns), values, encodings, tuple(row_keys))


BLOCK_ROWS = [dataset._BLOCK_ROWS, 1, 2, 3]


def outcome(loader, path, schema):
    try:
        return loader(path, schema)
    except SchemaError as exc:
        return (type(exc), str(exc))


def blocked_outcome(block_rows, path, schema):
    with mock.patch.object(dataset, "_BLOCK_ROWS", block_rows):
        return outcome(load_csv, path, schema)


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, DataTable)
    assert got.column_names == want.column_names
    assert got.row_keys == want.row_keys
    assert got.encodings == want.encodings
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert got.values.tobytes() == want.values.tobytes()


pad = st.sampled_from(["", "", " ", "  ", "\t", "\xa0", " \t\xa0"])


def padded(cells):
    return st.tuples(pad, cells, pad).map("".join)


numbers = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, width=64).map(repr),
    st.sampled_from(
        ["1e308", "1e400", "-0.0", "-0", "0", ".5", "+.5", "5.", "1_000", "+3", "1E5", "Infinity", "4e-320"]
    ),
)
nan_words = st.sampled_from(["nan", "NaN", "NAN", "-nan", "+nan", "inf", "-Infinity"])
junk = st.sampled_from(["oops", "n/a", "1.2.3", "--", "12a", "e5", "1,5"])
labels = st.sampled_from(["east", "west", "north", "East", "zone 1"])
empty = st.sampled_from(["", " ", "\t "])

CELLS_BY_KIND = {
    "numeric": st.one_of(numbers, empty),
    "numeric_then_blank": numbers,  # blank from a drawn row on
    "numeric_with_junk": st.one_of(numbers, nan_words, junk, empty),
    "nan_text": st.one_of(nan_words, empty),
    "text": st.one_of(labels, empty),
    "text_with_nan_word": st.one_of(labels, nan_words, empty),
    "empty": empty,
}
years = st.one_of(
    st.integers(1990, 2030).map(str),
    st.sampled_from(["2014.0", "2015.7", "2.01e3", "-1"]),
)
bad_years = st.sampled_from(["", "x", "inf", "-inf", "nan", "20 14"])
routes = st.sampled_from(["FM0481", "IH0010", "SH 6", "", "r,1"])
sections = st.sampled_from(["0001", "0002", "10", "9", ""])


@st.composite
def csv_documents(draw):
    """(text, schema) for a random records CSV."""
    data_names = draw(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=5))
    names = list(KEY_COLUMNS) + data_names
    header = draw(st.permutations(names))
    if draw(st.integers(0, 9)) == 0:
        dropped = draw(st.sampled_from(header))
        header = [h for h in header if h != dropped]
    kinds = {name: draw(st.sampled_from(sorted(CELLS_BY_KIND))) for name in data_names}
    cell_of = {ROUTE_COLUMN: padded(routes), SECTION_COLUMN: padded(sections)}
    cell_of[YEAR_COLUMN] = padded(
        st.one_of(years, bad_years) if draw(st.integers(0, 9)) == 0 else years
    )
    for name in data_names:
        cell_of[name] = padded(CELLS_BY_KIND[kinds[name]])
    blank_from = {
        name: draw(st.integers(0, 8)) for name in data_names if kinds[name] == "numeric_then_blank"
    }

    rows = []
    for r in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["full"] * 4 + ["short", "long", "blank", "spaces"]))
        if shape == "blank":
            rows.append([])
            continue
        if shape == "spaces":
            rows.append([" "] * draw(st.integers(1, len(header) + 2)))
            continue
        row = [draw(padded(empty) if r >= blank_from.get(name, r + 1) else cell_of[name]) for name in header]
        if shape == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(st.one_of(numbers, labels, empty), min_size=1, max_size=3))
        rows.append(row)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([draw(padded(st.just(h))) for h in header])
    writer.writerows(rows)
    schema = draw(st.lists(st.sampled_from(data_names), max_size=2)) if data_names else []
    if draw(st.integers(0, 9)) == 0:
        schema.append("z")
    return buf.getvalue(), schema


@settings(max_examples=300, deadline=None)
@given(doc=csv_documents())
def test_matches_row_wise_reference(tmp_path_factory, doc):
    text, schema = doc
    path = tmp_path_factory.mktemp("csv") / "records.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = outcome(reference_load_csv, path, schema)
    for block_rows in BLOCK_ROWS:
        assert_same(blocked_outcome(block_rows, path, schema), want)


def write(tmp_path, text):
    path = tmp_path / "records.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return path


HEAD = "ROUTE_NAME,SECTION_ID,YEAR,a,b\n"


# The three "explicit" cases once named their categorical columns, when
# load_csv took that set; they now check auto-detection on the same text.
HAND_WRITTEN = pytest.mark.parametrize(
    "text",
    [
        HEAD,
        HEAD + "\n , \n",
        "YEAR, ROUTE_NAME ,SECTION_ID,a,b,c\nR,1,2014, 1.5 ,east,nan\n R , 2 ,2015,,west,NaN\n",
        HEAD + "R,1,2014,oops,-nan\nR,2,2014,2,\nR,3\n",
        HEAD + "R,1,2014,1,2,3,4\nR,2,2014,x,y\n",
        "ROUTE_NAME,SECTION_ID,YEAR,a,a\nR,1,2014,1,2\n",
        HEAD + "R,1,2014,1,x\n\n,,\n \n\t,\n\n\nR,2,2015,2,y\n",
        HEAD + "R,1,2014,,oops\nR,2,2014,x,\nR,3,2014,,\nR,4,2014,,\nR,5,2014,7,\n",
        HEAD + "R,1,2014,east,1\nR,2,2014,west,\nR,3,2014,,2\nR,4,2014,east,\nR,5,2014,nan,\n",
        HEAD + "R,1,2014,x,1\nR,2,2014,,2\nR,3,2014,x,3\nR,4,2014,y,4\nR,5,2014,z,5\nR,6,2014,x,6\n",
        HEAD + "R,1,2014,1,1\nR,2,2014,2,2\nR,3,2014,3,3\nR,4,20x4,4,4\nR,5,2014,5,5\nR,6,y,6,6\n",
        "ROUTE_NAME,YEAR,a,SECTION_ID,b,a,YEAR\n" + "".join(
            f"R{i % 2},{2014 + i % 3},{i},{i:04d},{'xy'[i % 2]},{-i},x\n" for i in range(7)
        ),
        "ROUTE_NAME,YEAR,a,SECTION_ID,b,a,YEAR\n" + "".join(
            f"R{i % 2},{2014 + i % 3},{'pq'[i % 2]},{i:04d},{'xy'[i % 2]},{-i},x\n" for i in range(7)
        ),
    ],
    ids=["header-only", "blank-rows-only", "padded-and-nan-words", "junk-and-short",
         "explicit-categorical-and-long", "duplicate-column", "blank-block-between-data",
         "first-number-in-later-block", "nan-word-in-later-block", "later-explicit-labels",
         "bad-year-in-second-block", "duplicate-names-across-blocks",
         "duplicate-explicit-categorical"],
)


@HAND_WRITTEN
def test_hand_written_cases(tmp_path, text):
    path = write(tmp_path, text)
    assert_same(
        outcome(load_csv, path, ["a"]),
        outcome(reference_load_csv, path, ["a"]),
    )


@HAND_WRITTEN
@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_hand_written_cases_in_small_blocks(tmp_path, text, block_rows):
    path = write(tmp_path, text)
    assert_same(
        blocked_outcome(block_rows, path, ["a"]),
        outcome(reference_load_csv, path, ["a"]),
    )


@pytest.mark.parametrize("year", ["inf", "-inf", "Infinity", "nan", "x", ""])
def test_bad_year_is_schema_error(tmp_path, year):
    path = write(tmp_path, f"ROUTE_NAME,SECTION_ID,YEAR,a\nR,1,2014,1\nR,2,{year},2\n")
    with pytest.raises(SchemaError, match=f"unparseable YEAR value {year!r}"):
        load_csv(path, ["a"])


@pytest.mark.parametrize("year", ["2014.5", "2010.6", "2.0145e3"])
def test_fractional_year_is_schema_error(tmp_path, year):
    path = write(tmp_path, f"ROUTE_NAME,SECTION_ID,YEAR,a\nR,1,2014,1\nR,2,{year},2\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: unparseable YEAR value {year!r}")):
        load_csv(path, ["a"])


@pytest.mark.parametrize("year", ["2014.0", " 2014 ", "2.014e3"])
def test_integral_year_loads(tmp_path, year):
    path = write(tmp_path, f"ROUTE_NAME,SECTION_ID,YEAR,a\nR,1,{year},1\n")
    assert load_csv(path, ["a"]).row_keys == (("R", "1", 2014),)

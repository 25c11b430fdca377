"""Tabular PMIS-style data handling.

Everything downstream consumes a :class:`DataTable`: a read-only float
matrix with named columns, label-encoding metadata for categorical
columns, and one (route, section, year) key per row. Missing values are
stored as NaN so filters stay O(n) and the matrix stays homogeneous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import all_equal, read_csv
from .errors import InsufficientDataError, SchemaError, ZeroVarianceError

# Canonical PMIS column names. The loader accepts any header that contains
# the caller's schema; these are the names the rest of the toolkit uses.
ROUTE_COLUMN = "ROUTE_NAME"
SECTION_COLUMN = "SECTION_ID"
YEAR_COLUMN = "YEAR"
KEY_COLUMNS = (ROUTE_COLUMN, SECTION_COLUMN, YEAR_COLUMN)

IRI_COLUMN = "TX_IRI_AVERAGE_SCORE"
FLOOD_COLUMN = "Flood"
FEATURE_COLUMNS = (
    "TX_CONDITION_SCORE",
    "TX_DISTRESS_SCORE",
    IRI_COLUMN,
    "TX_TRUCK_AADT_PCT",
    "TX_CURRENT_18KIP_MEAS",
    "TX_PVMNT_TYPE_DTL_RD_LIFE_CODE",
    "CLIMATE_ZONES",
    "TX_RURAL_URBAN_CODE",
    FLOOD_COLUMN,
)
TARGET_COLUMN = "NEXT_YEAR_IRI"

RowKey = tuple[str, str, int]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DataTable:
    """Column-schema'd numeric matrix with categorical-encoding metadata.

    ``values[i, j]`` is row i of column ``column_names[j]``. Categorical
    columns hold label indices into ``encodings[name]``. Instances are
    immutable; every operation returns a new table.
    """

    column_names: tuple[str, ...]
    values: np.ndarray
    encodings: dict[str, list[str]] = field(default_factory=dict)
    row_keys: tuple[RowKey, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != len(self.column_names):
            raise ValueError("values shape does not match column_names")
        if self.row_keys and len(self.row_keys) != vals.shape[0]:
            raise ValueError("row_keys length does not match row count")
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "row_keys", tuple(self.row_keys))
        for name, labels in self.encodings.items():
            col = self.col(name)
            ok = np.isnan(col) | ((col >= 0) & (col < len(labels)) & (col == np.floor(col)))
            if not ok.all():
                raise ValueError(f"encoded values out of range for column {name!r}")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def col_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise SchemaError(f"unknown column {name!r}") from None

    def col(self, name: str) -> np.ndarray:
        return self.values[:, self.col_index(name)]

    def matrix(self, columns: list[str] | tuple[str, ...]) -> np.ndarray:
        idx = [self.col_index(c) for c in columns]
        return np.array(self.values[:, idx])

    def subset(self, row_indices) -> "DataTable":
        idx = np.asarray(row_indices, dtype=int)
        keys = tuple(self.row_keys[i] for i in idx) if self.row_keys else ()
        return DataTable(self.column_names, self.values[idx], dict(self.encodings), keys)

    def replace_column(self, name: str, new_values) -> "DataTable":
        j = self.col_index(name)
        vals = np.array(self.values)
        vals[:, j] = np.asarray(new_values, dtype=float)
        return DataTable(self.column_names, vals, dict(self.encodings), self.row_keys)

    def equals(self, other: "DataTable") -> bool:
        return (
            self.column_names == other.column_names
            and self.row_keys == other.row_keys
            and self.encodings == other.encodings
            and np.array_equal(self.values, other.values, equal_nan=True)
        )


@dataclass(frozen=True)
class ColumnSummary:
    mean: float
    std_dev: float
    minimum: float
    q25: float
    maximum: float


@dataclass(frozen=True)
class DescriptiveStats:
    """Per-column mean, sample std dev, min, 25th percentile, max."""

    columns: tuple[str, ...]
    by_column: dict[str, ColumnSummary]

    def __getitem__(self, name: str) -> ColumnSummary:
        return self.by_column[name]


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    values: np.ndarray

    def coefficient(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def _parse_cell(text: str) -> float:
    """Numeric parse with NaN for empty or unparseable cells."""
    text = text.strip()
    if not text:
        return math.nan
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_column(texts) -> list[float]:
    """`_parse_cell` over cells, in one pass unless a cell fails.

    A column with a failing cell is parsed once per distinct text, so a
    text column costs one failed parse per label, not one per cell.
    """
    try:
        return [float(t) if t else math.nan for t in texts]
    except ValueError:
        parsed = {t: _parse_cell(t) for t in set(texts)}
        return [parsed[t] for t in texts]


def _is_text_column(texts: list[str]) -> bool:
    """True if a column none of whose cells reads as a number is text.

    It is text when it has a non-empty cell and no cell is a "nan" word.
    """
    nonempty = set(texts) - {""}
    return bool(nonempty) and all(t.lower() != "nan" for t in nonempty)


def parse_year(path, column: str, cell: str) -> int:
    """The year in a `column` cell of file `path`: an integral number, such as 2014 or 2014.0.

    Any other cell, fractional, non-finite or not a number, is a
    SchemaError naming the file, the column and the cell.
    """
    try:
        year = float(cell)
    except ValueError:
        year = math.nan
    if not year.is_integer():
        raise SchemaError(f"{path}: unparseable {column} value {cell.strip()!r}")
    return int(year)


# Rows parsed per block. A block's cell strings are the loader's only
# transient per-row memory: on a 10k-row records file a load adds 2.6 MiB
# to RSS with 256-row blocks and 11.0 MiB with 4096-row ones, while
# smaller blocks save little more and add per-block work.
_BLOCK_ROWS = 256


def load_csv(path, schema) -> DataTable:
    """Load a comma-delimited CSV, read by `_util.read_csv`, into a DataTable.

    The header must contain every column in ``schema`` plus the
    ROUTE_NAME / SECTION_ID / YEAR key columns. All non-key header
    columns are loaded, so extra columns beyond the schema survive.
    Rows whose cells are all blank are skipped; a short row reads as
    empty cells past its end, and cells past the header are ignored.

    A column is categorical if none of its non-empty cells parse as a
    number: it is label-encoded in first-appearance order and the label
    list is recorded in ``encodings``. Otherwise it is numeric and empty
    or unparseable cells become NaN.

    The file is read in blocks of ``_BLOCK_ROWS`` rows. Each block is
    transposed and parsed column by column into a float block, so the
    cell strings of only one block are held at a time. numpy converts a
    numeric column's raw cells as ``float()`` does, bit for bit and
    whitespace included; only a column block with a blank or unparseable
    cell is parsed cell by cell. A column keeps its stripped texts only
    until one of its cells parses as a number. Key values and kept texts
    are looked up by their raw cell text, so a repeated route, section,
    year or label is stripped or parsed once and is one object.
    """
    with read_csv(path, list(schema) + list(KEY_COLUMNS)) as (header, reader):
        loader = _BlockLoader(path, header)
        while block := list(itertools.islice(reader, _BLOCK_ROWS)):
            loader.add(block)
    return loader.table()


class _BlockLoader:
    """`load_csv`'s state across blocks: row keys, float blocks and column texts."""

    def __init__(self, path, header: list[str]):
        self.path = path
        self.width = len(header)
        self.key_index = [header.index(name) for name in KEY_COLUMNS]
        self.columns = [c for c in header if c not in KEY_COLUMNS]
        self.column_index = [header.index(name) for name in self.columns]
        # Raw cell text -> its stripped text, and YEAR cell text or year
        # -> that year; each value is the one object for its text or year.
        self.shared: dict[str, str] = {}
        self.years: dict[str | int, int] = {}
        self.row_keys: list[RowKey] = []
        self.blocks: list[np.ndarray] = []
        # Column position -> its stripped texts, while no cell has read as a number.
        self.undecided: dict[int, list[str]] = {j: [] for j in range(len(self.columns))}

    def _stripped(self, cells) -> list[str]:
        """The stripped `cells`, one object per distinct text."""
        shared = self.shared

        def first(cell: str) -> str:
            text = cell.strip()
            text = shared[cell] = shared.setdefault(text, text)
            return text

        # A blank cell maps to "", so it takes `first` again; it is still one object.
        return [shared.get(cell) or first(cell) for cell in cells]

    def _year(self, cell: str) -> int:
        """The year of a YEAR cell not seen before."""
        year = parse_year(self.path, YEAR_COLUMN, cell)
        year = self.years[cell] = self.years.setdefault(year, year)
        return year

    def add(self, rows: list[list[str]]) -> None:
        width = self.width
        rows = [
            row if len(row) >= width else row + [""] * (width - len(row))
            for row in rows
            if row and (row[0].strip() or "".join(row).strip())
        ]
        if not rows:
            return
        by_index = list(zip(*rows))

        route_i, section_i, year_i = self.key_index
        known = self.years.get
        years = [known(cell) or self._year(cell) for cell in by_index[year_i]]
        routes = self._stripped(by_index[route_i])
        sections = self._stripped(by_index[section_i])
        self.row_keys.extend(zip(routes, sections, years))

        block = np.empty((len(years), len(self.columns)))
        for j, i in enumerate(self.column_index):
            cells = by_index[i]
            try:
                block[:, j] = cells
            except ValueError:
                block[:, j] = _parse_column(cells)
            kept = self.undecided.get(j)
            if kept is not None:
                if not np.isnan(block[:, j]).all():
                    del self.undecided[j]
                else:
                    kept.extend(self._stripped(cells))
        self.blocks.append(block)

    def table(self) -> DataTable:
        values = np.concatenate(self.blocks) if self.blocks else np.empty((0, len(self.columns)))
        self.blocks.clear()
        encodings: dict[str, list[str]] = {}
        for j, name in enumerate(self.columns):
            if j in self.undecided and _is_text_column(self.undecided[j]):
                index = {}
                values[:, j] = [index.setdefault(t, len(index)) if t else math.nan for t in self.undecided[j]]
                encodings[name] = list(index)
        return DataTable(tuple(self.columns), values, encodings, tuple(self.row_keys))


def filter_complete(table: DataTable, required) -> DataTable:
    """Keep only rows with no missing value in any of the required columns."""
    required = list(required)
    if not required:
        return table
    mask = np.ones(table.n_rows, dtype=bool)
    for name in required:
        mask &= ~np.isnan(table.col(name))
    return table.subset(np.nonzero(mask)[0])


def quantiles(col: np.ndarray, qs) -> list[float]:
    """``np.quantile(col, qs)`` for a 1-d ``col`` of at least one value, q in [0, 1].

    It is numpy's default "linear" method written out, and equals it bit
    for bit where the result is not NaN. ``np.quantile`` itself imports
    ``numpy.ma`` (through ``np.unique``), which costs `describe` more
    than all of its statistics, and LIME's set-up as much.
    """
    if np.isnan(col).any():
        return [math.nan] * len(qs)
    last = len(col) - 1
    virtual = [last * q for q in qs]
    # numpy takes the last value for an index at or past the end, as -1
    lows = [int(v) if v < last else -1 for v in virtual]
    highs = [lo + 1 if lo >= 0 else -1 for lo in lows]
    # Partition on the positions numpy's quantile does, so that 0.0 and
    # -0.0, which compare equal, land where they land there.
    part = np.partition(col, sorted({0, -1, *lows, *highs}))
    out = []
    for v, lo, hi in zip(virtual, lows, highs):
        below, above, gamma = part[lo], part[hi], v - lo
        step = above - below
        out.append(float(above - step * (1 - gamma) if gamma >= 0.5 else below + step * gamma))
    return out


def describe(table: DataTable, columns=None) -> DescriptiveStats:
    """Per-column descriptive statistics over all rows.

    Requires at least 2 rows; the std dev uses the sample (n-1)
    denominator. A constant column (all values equal) has its value as
    its mean and a std dev of 0, where summing would round them off.
    Columns containing NaN propagate NaN, so filter first.
    """
    if table.n_rows < 2:
        raise InsufficientDataError(f"describe needs >= 2 rows, got {table.n_rows}")
    columns = list(columns) if columns is not None else list(table.column_names)
    by_column = {}
    for name in columns:
        col = table.col(name)
        minimum, constant = float(np.min(col)), all_equal(col)
        by_column[name] = ColumnSummary(
            mean=minimum if constant else float(np.mean(col)),
            std_dev=0.0 if constant else float(np.std(col, ddof=1)),
            minimum=minimum,
            q25=quantiles(col, [0.25])[0],
            maximum=float(np.max(col)),
        )
    return DescriptiveStats(tuple(columns), by_column)


def format_stats_table(stats: DescriptiveStats) -> str:
    """Aligned-column rendering with the headline layout used in reports."""
    headers = ["Feature", "Mean", "Std. Dev.", "Min", "25%", "Max"]
    rows = [headers]
    for name in stats.columns:
        s = stats[name]
        rows.append(
            [name] + [f"{v:.2f}" for v in (s.mean, s.std_dev, s.minimum, s.q25, s.maximum)]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [r[i].rjust(widths[i]) for i in range(1, len(headers))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def pearson_corr(table: DataTable, columns) -> CorrelationMatrix:
    """Pearson product-moment correlation matrix over the given columns.

    Symmetric with an exactly-unit diagonal; raises if any column is
    constant (all values equal: the coefficient would be undefined).
    """
    columns = list(columns)
    if table.n_rows < 2:
        raise InsufficientDataError("pearson_corr needs >= 2 rows")
    mat = table.matrix(columns)
    for j, name in enumerate(columns):
        if all_equal(mat[:, j]):
            raise ZeroVarianceError(name, f"correlation undefined: column {name!r} has zero variance")
    corr = np.corrcoef(mat, rowvar=False)
    corr = np.atleast_2d(corr)
    corr = (corr + corr.T) / 2.0  # force exact symmetry
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    return CorrelationMatrix(tuple(columns), _readonly(corr))


def train_test_split(table: DataTable, test_fraction: float, seed: int):
    """Disjoint seeded train/test partition.

    Test size is round(test_fraction * n_rows) with half-up rounding.
    Row order within each part follows the original table, so repeated
    runs with the same seed are byte-identical.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = table.n_rows
    if n < 2:
        raise InsufficientDataError("train_test_split needs >= 2 rows")
    n_test = int(np.floor(test_fraction * n + 0.5))
    n_test = min(max(n_test, 1), n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return table.subset(train_idx), table.subset(test_idx)

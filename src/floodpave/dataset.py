"""Tabular PMIS-style data handling.

Everything downstream consumes a :class:`DataTable`: a read-only float
matrix with named columns, label-encoding metadata for categorical
columns, and one (route, section, year) key per row. Missing values are
stored as NaN so filters stay O(n) and the matrix stays homogeneous.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, SchemaError, ZeroVarianceError

# Canonical PMIS column names. The loader accepts any header that contains
# the caller's schema; these are the names the rest of the toolkit uses.
ROUTE_COLUMN = "ROUTE_NAME"
SECTION_COLUMN = "SECTION_ID"
YEAR_COLUMN = "YEAR"
KEY_COLUMNS = (ROUTE_COLUMN, SECTION_COLUMN, YEAR_COLUMN)

FEATURE_COLUMNS = (
    "TX_CONDITION_SCORE",
    "TX_DISTRESS_SCORE",
    "TX_IRI_AVERAGE_SCORE",
    "TX_TRUCK_AADT_PCT",
    "TX_CURRENT_18KIP_MEAS",
    "TX_PVMNT_TYPE_DTL_RD_LIFE_CODE",
    "CLIMATE_ZONES",
    "TX_RURAL_URBAN_CODE",
    "Flood",
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

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

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

    def decode(self, name: str, value: float) -> str:
        labels = self.encodings[name]
        return labels[int(value)]

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


def _parse_column(texts: list[str]) -> list[float]:
    """`_parse_cell` over stripped cells, in one pass unless a cell fails."""
    try:
        return [float(t) if t else math.nan for t in texts]
    except ValueError:
        return [_parse_cell(t) for t in texts]


def _is_text_column(texts: list[str], parsed: list[float]) -> bool:
    """True if the column has a non-empty cell and none reads as a number."""
    if any(not math.isnan(v) for v in parsed):
        return False
    nonempty = [t for t in texts if t]
    return bool(nonempty) and all(t.lower() != "nan" for t in nonempty)


def _label_encode(texts: list[str]) -> tuple[list[float], list[str]]:
    """First-appearance label codes (NaN for empty cells) and the label list."""
    index: dict[str, int] = {}
    codes = [index.setdefault(t, len(index)) if t else math.nan for t in texts]
    return codes, list(index)


def load_csv(path, schema, categorical: set[str] | None = None) -> DataTable:
    """Load a UTF-8 comma-delimited CSV into a DataTable.

    The header must contain every column in ``schema`` plus the
    ROUTE_NAME / SECTION_ID / YEAR key columns. All non-key header
    columns are loaded, so extra columns beyond the schema survive.
    Rows whose cells are all blank are skipped; a short row reads as
    empty cells past its end, and cells past the header are ignored.

    Categorical columns are label-encoded in first-appearance order and
    the label list is recorded in ``encodings``. When ``categorical`` is
    None a column is auto-detected as categorical if none of its
    non-empty cells parse as a number; otherwise it is numeric and
    empty or unparseable cells become NaN.

    The rows are transposed once and each column is stripped and parsed
    in one pass; a numeric column falls back to a per-cell parse only
    when some cell in it is not a number.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, no header row") from None
            header = [h.strip() for h in header]
            raw_rows = [row for row in reader if "".join(row).strip()]
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc

    missing = [c for c in list(schema) + list(KEY_COLUMNS) if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required column(s) {missing}")

    col_of = {name: header.index(name) for name in header}
    data_columns = [c for c in header if c not in KEY_COLUMNS]

    width = len(header)
    padded = (row if len(row) >= width else row + [""] * (width - len(row)) for row in raw_rows)
    by_index = list(zip(*padded)) or [()] * width

    def texts(name: str) -> list[str]:
        return [t.strip() for t in by_index[col_of[name]]]

    years = []
    for year_text in texts(YEAR_COLUMN):
        try:
            years.append(int(float(year_text)))
        except (ValueError, OverflowError):
            raise SchemaError(f"{path}: unparseable YEAR value {year_text!r}") from None
    row_keys = tuple(zip(texts(ROUTE_COLUMN), texts(SECTION_COLUMN), years))

    n = len(raw_rows)
    values = np.full((n, len(data_columns)), np.nan)
    encodings: dict[str, list[str]] = {}
    for j, name in enumerate(data_columns):
        column = texts(name)
        if categorical is None:
            parsed = _parse_column(column)
            is_text = _is_text_column(column, parsed)
        else:
            is_text = name in categorical
            parsed = None if is_text else _parse_column(column)
        if is_text:
            codes, encodings[name] = _label_encode(column)
            values[:, j] = codes
        else:
            values[:, j] = parsed

    return DataTable(tuple(data_columns), values, encodings, row_keys)


def filter_complete(table: DataTable, required) -> DataTable:
    """Keep only rows with no missing value in any of the required columns."""
    required = list(required)
    if not required:
        return table
    mask = np.ones(table.n_rows, dtype=bool)
    for name in required:
        mask &= ~np.isnan(table.col(name))
    return table.subset(np.nonzero(mask)[0])


def _q25(sorted_col: np.ndarray) -> float:
    # Linear interpolation between closest ranks, i.e. numpy's default.
    return float(np.quantile(sorted_col, 0.25, method="linear"))


def describe(table: DataTable, columns=None) -> DescriptiveStats:
    """Per-column descriptive statistics over all rows.

    Requires at least 2 rows; the std dev uses the sample (n-1)
    denominator. Columns containing NaN propagate NaN, so filter first.
    """
    if table.n_rows < 2:
        raise InsufficientDataError(f"describe needs >= 2 rows, got {table.n_rows}")
    columns = list(columns) if columns is not None else list(table.column_names)
    by_column = {}
    for name in columns:
        col = table.col(name)
        by_column[name] = ColumnSummary(
            mean=float(np.mean(col)),
            std_dev=float(np.std(col, ddof=1)),
            minimum=float(np.min(col)),
            q25=_q25(col),
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

    Symmetric with an exactly-unit diagonal; raises if any column has
    zero variance (the coefficient would be undefined).
    """
    columns = list(columns)
    if table.n_rows < 2:
        raise InsufficientDataError("pearson_corr needs >= 2 rows")
    mat = table.matrix(columns)
    for j, name in enumerate(columns):
        if np.std(mat[:, j]) == 0.0:
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

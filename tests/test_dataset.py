import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodpave.dataset import (
    DataTable,
    FEATURE_COLUMNS,
    describe,
    filter_complete,
    format_stats_table,
    load_csv,
    pearson_corr,
    quantiles,
    train_test_split,
)
from floodpave.errors import InsufficientDataError, SchemaError, ZeroVarianceError

HEADER = "ROUTE_NAME,SECTION_ID,YEAR," + ",".join(FEATURE_COLUMNS)


def write_records(tmp_path, rows, header=HEADER, name="records.csv"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def small_table(values, columns=("a", "b"), keys=None):
    values = np.asarray(values, dtype=float)
    if keys is None:
        keys = tuple(("R", f"{i:03d}", 2010) for i in range(values.shape[0]))
    return DataTable(tuple(columns), values, {}, tuple(keys))


class TestLoadCsv:
    def test_three_valid_rows(self, tmp_path):
        rows = [
            f"FM0481,0001,2014,90,95,{100 + i},12,800,9,east,1,0" for i in range(3)
        ]
        table = load_csv(write_records(tmp_path, rows), schema=FEATURE_COLUMNS)
        assert table.n_rows == 3
        assert table.col("TX_IRI_AVERAGE_SCORE").tolist() == [100, 101, 102]
        assert table.row_keys[0] == ("FM0481", "0001", 2014)

    def test_missing_flood_column_is_schema_error(self, tmp_path):
        header = HEADER.replace(",Flood", "")
        rows = ["FM0481,0001,2014,90,95,100,12,800,9,east,1"]
        with pytest.raises(SchemaError, match="Flood"):
            load_csv(write_records(tmp_path, rows, header=header), schema=FEATURE_COLUMNS)

    def test_first_appearance_encoding(self, tmp_path):
        rows = [
            "FM1,0001,2014,90,95,100,12,800,9,east,1,0",
            "FM1,0002,2014,90,95,100,12,800,9,west,1,0",
            "FM1,0003,2014,90,95,100,12,800,9,east,1,0",
        ]
        table = load_csv(write_records(tmp_path, rows), schema=FEATURE_COLUMNS)
        assert table.encodings["CLIMATE_ZONES"] == ["east", "west"]
        assert table.col("CLIMATE_ZONES").tolist() == [0.0, 1.0, 0.0]

    def test_numeric_parse_failure_becomes_missing(self, tmp_path):
        rows = [
            "FM1,0001,2014,90,95,100,12,800,9,east,1,0",
            "FM1,0002,2014,90,95,oops,12,800,9,east,1,0",
        ]
        table = load_csv(write_records(tmp_path, rows), schema=FEATURE_COLUMNS)
        col = table.col("TX_IRI_AVERAGE_SCORE")
        assert col[0] == 100.0 and math.isnan(col[1])

    def test_unreadable_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", schema=FEATURE_COLUMNS)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        rows = ["FM1,0001,2014,90,95,100,12,800,9,east,1,0"]
        plain = load_csv(write_records(tmp_path, rows), schema=FEATURE_COLUMNS)
        path = tmp_path / "bom.csv"
        path.write_text(HEADER + "\n" + rows[0] + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_csv(path, schema=FEATURE_COLUMNS).equals(plain)

    def test_non_utf8_file_is_schema_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        rows = ["FM1,0001,2014,90,95,100,12,800,9,east,1,0", "FM1,0002,2014,90,95,100,12,800,9,caf\u00e9,1,0"]
        path.write_bytes((HEADER + "\n" + "\n".join(rows) + "\n").encode("latin-1"))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: not UTF-8 text (byte 0xe9")):
            load_csv(path, schema=FEATURE_COLUMNS)

    def test_csv_module_error_is_schema_error(self, tmp_path):
        rows = ["FM1,0001,2014,90,95,100,12,800,9,east,1,0", "FM1,0002,2014,90,95,100,12,800,9,east,1," + "9" * 200_000]
        path = write_records(tmp_path, rows)
        with pytest.raises(SchemaError, match=re.escape(f"{path}: line 3: field larger than field limit")):
            load_csv(path, schema=FEATURE_COLUMNS)

    def test_peak_memory_is_bounded_by_file_size(self, tmp_path):
        # 20.7k rows of 17-digit floats, as `synth-gen` writes them: the
        # loader holds one block of strings, not the whole file's.
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1000, size=(20_700, 8))
        zones = ("east", "west", "north", "south")
        rows = [
            f"FM{i // 90 % 230:04d},{i // 9 % 10:04d},{2010 + i % 9},"
            + ",".join(map(repr, v[:6])) + f",{zones[i % 4]}," + ",".join(map(repr, v[6:]))
            for i, v in enumerate(values.tolist())
        ]
        path = write_records(tmp_path, rows)
        size = path.stat().st_size
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            table = load_csv(path, schema=FEATURE_COLUMNS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert table.n_rows == 20_700 and table.encodings["CLIMATE_ZONES"] == list(zones)
        assert peak - before < 3 * size, f"peak {peak - before} B for a {size} B file"


class TestFilterComplete:
    def test_drops_rows_missing_required(self):
        vals = np.ones((10, 2))
        vals[3, 0] = np.nan
        vals[7, 0] = np.nan
        t = small_table(vals)
        out = filter_complete(t, ["a"])
        assert out.n_rows == 8
        assert t.n_rows == 10  # input untouched

    def test_no_missing_is_identity(self):
        t = small_table(np.arange(8.0).reshape(4, 2))
        assert filter_complete(t, ["a", "b"]).equals(t)

    def test_all_missing_gives_empty_table(self):
        t = small_table(np.full((3, 2), np.nan))
        out = filter_complete(t, ["a"])
        assert out.n_rows == 0
        assert out.column_names == t.column_names

    def test_empty_required_list_is_identity(self):
        vals = np.ones((4, 2))
        vals[0, 1] = np.nan
        t = small_table(vals)
        assert filter_complete(t, []).equals(t)

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            filter_complete(small_table(np.ones((2, 2))), ["zzz"])


class TestDescribe:
    def test_hand_computed_quartile(self):
        t = small_table(np.array([[1.0, 0], [2, 0], [3, 0], [4, 0]]))
        s = describe(t, ["a"])["a"]
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        # linear interpolation between closest ranks: 1 + 0.75 * (2 - 1)
        assert s.q25 == pytest.approx(1.75, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, width=64),
                st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]),
            ),
            min_size=2,
            max_size=40,
        ),
    )
    def test_quartile_is_numpy_quantile_bit_for_bit(self, values):
        col = np.array(values)
        t = small_table(np.stack([col, np.zeros(len(col))], axis=1))
        with np.errstate(invalid="ignore", over="ignore"):
            want = float(np.quantile(col, 0.25))
            got = describe(t, ["a"])["a"].q25
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, width=64),
                st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.one_of(
            st.integers(2, 12).map(lambda n_bins: [i / n_bins for i in range(1, n_bins)]),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        ),
    )
    def test_quantiles_are_numpy_quantile_bit_for_bit(self, values, qs):
        # LIME's bin edges ask for several quantiles at once, which numpy
        # takes from one partition on all their positions.
        col = np.array(values)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.quantile(col, qs)
            got = np.array(quantiles(col, qs))
        same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
        assert same.all(), (got, want)

    def test_quartile_of_a_column_with_nan_is_nan(self):
        t = small_table(np.array([[1.0, 0], [math.nan, 0], [3, 0]]))
        assert math.isnan(describe(t, ["a"])["a"].q25)

    def test_constant_column_zero_std(self):
        t = small_table(np.array([[5.0, 1], [5, 2], [5, 3]]))
        assert describe(t, ["a"])["a"].std_dev == 0.0

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            describe(small_table(np.ones((1, 2))))

    def test_report_layout_carries_fixture_values(self):
        # Headline magnitudes rendered in the published-table layout.
        from floodpave.dataset import ColumnSummary, DescriptiveStats

        stats = DescriptiveStats(
            ("TX_IRI_AVERAGE_SCORE",),
            {"TX_IRI_AVERAGE_SCORE": ColumnSummary(100.61, 54.17, 26.00, 57.00, 314.00)},
        )
        text = format_stats_table(stats)
        head = text.splitlines()[0]
        for col in ("Feature", "Mean", "Std. Dev.", "Min", "25%", "Max"):
            assert col in head
        assert "100.61" in text and "54.17" in text and "26.00" in text

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, perm):
        vals = np.array([[1.0, 9], [2, 4], [7, 3], [4, 8], [2, 2], [6, 1]])
        a = describe(small_table(vals))
        b = describe(small_table(vals[perm]))
        for c in ("a", "b"):
            assert a[c].mean == pytest.approx(b[c].mean, abs=1e-9)
            assert a[c].std_dev == pytest.approx(b[c].std_dev, abs=1e-9)
            assert a[c].q25 == pytest.approx(b[c].q25, abs=1e-9)


class TestPearsonCorr:
    def test_perfect_linear(self):
        x = np.array([1.0, 2, 3, 5])
        t = small_table(np.column_stack([x, 2 * x + 1]))
        corr = pearson_corr(t, ["a", "b"])
        assert corr.coefficient("a", "b") == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse(self):
        t = small_table(np.array([[1.0, 3], [2, 2], [3, 1]]))
        assert pearson_corr(t, ["a", "b"]).coefficient("a", "b") == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_point_eight(self):
        t = small_table(np.array([[1.0, 1], [2, 3], [3, 2], [4, 4]]))
        assert pearson_corr(t, ["a", "b"]).coefficient("a", "b") == pytest.approx(0.8, abs=1e-12)

    def test_zero_variance_names_column(self):
        t = small_table(np.array([[1.0, 5], [2, 5], [3, 5]]))
        with pytest.raises(ZeroVarianceError, match="b"):
            pearson_corr(t, ["a", "b"])

    def test_matrix_invariants(self):
        rng = np.random.default_rng(4)
        t = small_table(rng.normal(size=(30, 2)))
        corr = pearson_corr(t, ["a", "b"])
        assert np.array_equal(corr.values, corr.values.T)
        assert np.all(np.diag(corr.values) == 1.0)
        assert np.all(np.abs(corr.values) <= 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=50),
        b=st.floats(min_value=-100, max_value=100),
        negate=st.booleans(),
    )
    def test_affine_map_gives_unit_correlation(self, a, b, negate):
        x = np.array([0.5, 1.7, 2.2, 4.0, 9.1])
        slope = -a if negate else a
        t = small_table(np.column_stack([x, slope * x + b]))
        c = pearson_corr(t, ["a", "b"]).coefficient("a", "b")
        assert c == pytest.approx(-1.0 if negate else 1.0, abs=1e-12)


class TestTrainTestSplit:
    def test_published_split_arithmetic(self):
        t = small_table(np.ones((10022, 2)) * np.arange(10022)[:, None])
        train, test = train_test_split(t, 0.2, seed=0)
        assert test.n_rows == 2004
        assert train.n_rows == 8018

    def test_same_seed_identical(self):
        t = small_table(np.arange(40.0).reshape(20, 2))
        a = train_test_split(t, 0.3, seed=5)
        b = train_test_split(t, 0.3, seed=5)
        assert a[0].equals(b[0]) and a[1].equals(b[1])

    def test_small_partition(self):
        t = small_table(np.arange(10.0).reshape(5, 2))
        train, test = train_test_split(t, 0.2, seed=1)
        assert test.n_rows == 1 and train.n_rows == 4
        merged = sorted(train.row_keys + test.row_keys)
        assert merged == sorted(t.row_keys)

    def test_bad_fraction(self):
        t = small_table(np.ones((4, 2)))
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                train_test_split(t, frac, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=2, max_value=200), seed=st.integers(0, 2**31))
    def test_partition_property(self, n, seed):
        t = small_table(np.arange(2.0 * n).reshape(n, 2))
        train, test = train_test_split(t, 0.2, seed=seed)
        train_keys, test_keys = set(train.row_keys), set(test.row_keys)
        assert train_keys.isdisjoint(test_keys)
        assert train_keys | test_keys == set(t.row_keys)

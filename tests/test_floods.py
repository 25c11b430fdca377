import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from floodpave.dataset import DataTable
from floodpave.errors import SchemaError
from floodpave.floods import (
    FloodEvent,
    SectionWindow,
    apply_maintenance_exclusion,
    extract_windows,
    iri_by_section,
    load_events_csv,
    tag_flooded,
)

COLS = ("TX_IRI_AVERAGE_SCORE", "Flood")


def panel_table(entries):
    """entries: (route, section, year, iri) tuples."""
    keys = tuple((r, s, y) for r, s, y, _ in entries)
    vals = np.array([[iri, 0.0] for _, _, _, iri in entries])
    return DataTable(COLS, vals, {}, keys)


class TestTagFlooded:
    def test_only_matching_route_year(self):
        t = panel_table(
            [("FM0481", "0001", y, 100.0) for y in (2013, 2014, 2015)]
            + [("SH0131", "0001", 2014, 90.0)]
        )
        tagged, warnings = tag_flooded(t, [FloodEvent("FM0481", 2014)])
        assert warnings == []
        flood = dict(zip(tagged.row_keys, tagged.col("Flood")))
        assert flood[("FM0481", "0001", 2014)] == 1.0
        assert flood[("FM0481", "0001", 2013)] == 0.0
        assert flood[("FM0481", "0001", 2015)] == 0.0
        assert flood[("SH0131", "0001", 2014)] == 0.0

    def test_empty_events_all_zero(self):
        t = panel_table([("A", "1", 2010, 50.0), ("A", "1", 2011, 60.0)])
        tagged, warnings = tag_flooded(t, [])
        assert warnings == []
        assert tagged.col("Flood").tolist() == [0.0, 0.0]

    def test_unknown_route_warns_without_changing_table(self):
        t = panel_table([("A", "1", 2010, 50.0)])
        tagged, warnings = tag_flooded(t, [FloodEvent("ZZ", 2010)])
        assert len(warnings) == 1 and "ZZ" in warnings[0]
        assert tagged.equals(t.replace_column("Flood", [0.0]))

    def test_marker_range_limits_sections(self):
        t = panel_table([("A", s, 2012, 80.0) for s in ("0001", "0002", "0003", "0004")])
        ev = FloodEvent("A", 2012, start_marker="0002", end_marker="0003")
        tagged, _ = tag_flooded(t, [ev])
        assert tagged.col("Flood").tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_unpadded_numeric_ids_compare_as_numbers(self):
        sections = ("8", "9", "10", "11", "100")
        t = panel_table([("A", s, 2012, 80.0) for s in sections])
        ev = FloodEvent("A", 2012, start_marker="9", end_marker="11")
        tagged, _ = tag_flooded(t, [ev])
        assert tagged.col("Flood").tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_decimal_mileposts_compare_as_numbers(self):
        sections = ("9", "9.25", "9.5", "10", "10.25", "10.50", "11")
        t = panel_table([("A", s, 2012, 80.0) for s in sections])
        ev = FloodEvent("A", 2012, start_marker="09.50", end_marker="10.5")
        tagged, _ = tag_flooded(t, [ev])
        assert tagged.col("Flood").tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0]

    def test_idempotent(self):
        t = panel_table([("A", "1", y, 70.0) for y in range(2010, 2016)])
        events = [FloodEvent("A", 2012), FloodEvent("A", 2014)]
        once, _ = tag_flooded(t, events)
        twice, _ = tag_flooded(once, events)
        assert once.equals(twice)

    def test_zero_rows_tag_to_zero_rows(self):
        t = DataTable(COLS, np.empty((0, 2)), {}, ())
        tagged, warnings = tag_flooded(t, [FloodEvent("A", 2012)])
        assert tagged.n_rows == 0 and warnings == ["flood event (A, 2012) matches no route in the table"]

    def test_rows_without_keys_are_schema_error(self):
        t = DataTable(COLS, np.ones((2, 2)), {}, ())
        with pytest.raises(SchemaError, match="no \\(route, section, year\\) row keys"):
            tag_flooded(t, [])

    def test_requires_flood_column(self):
        t = DataTable(("TX_IRI_AVERAGE_SCORE",), np.ones((1, 1)), {}, (("A", "1", 2010),))
        with pytest.raises(SchemaError):
            tag_flooded(t, [])


# Section ids: unpadded and padded digits, which compare as integers;
# plain decimals, zero-padded or with trailing zeros, which compare as
# numbers with each other and with digit ids; and ids that compare as strings.
SECTION_IDS = st.sampled_from(
    ["1", "9", "10", "11", "009", "010", "0100", "9.5", "09.50", "10.0", "10.00", "0.5",
     "9.", ".5", "A1", "B", "9a", "ü"]
)
MARKERS = st.one_of(st.none(), SECTION_IDS)


@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["FM1", "SH2", "IH3"]), SECTION_IDS, st.integers(2010, 2013)),
        min_size=1,
        max_size=40,
    ),
    events=st.lists(
        st.builds(
            FloodEvent,
            st.sampled_from(["FM1", "SH2", "ZZ9"]),  # IH3 has no events, ZZ9 no rows
            st.integers(2010, 2013),
            MARKERS,
            MARKERS,
        ),
        max_size=12,
    ),
    repeats=st.lists(st.integers(0, 11), max_size=4),
)
def test_tag_flooded_matches_nested_loop(rows, events, repeats):
    # The indexed tagging against testing every row against every event.
    events = events + [events[i % len(events)] for i in repeats if events]
    table = panel_table([(r, s, y, 1.0) for r, s, y in rows])
    tagged, warnings = tag_flooded(table, events)
    expected = [
        float(any(r == ev.route_name and y == ev.flood_year and ev.covers_section(s) for ev in events))
        for r, s, y in rows
    ]
    assert tagged.col("Flood").tolist() == expected
    assert warnings == [
        f"flood event ({ev.route_name}, {ev.flood_year}) matches no route in the table"
        for ev in events
        if ev.route_name not in {r for r, _, _ in rows}
    ]


class TestExtractWindows:
    def test_pre_post_pair(self):
        t = panel_table([("A", "1", 2013, 100.0), ("A", "1", 2015, 110.0)])
        windows, summary = extract_windows(t, [FloodEvent("A", 2014)])
        assert summary.extracted == 1 and summary.dropped == 0
        w = windows[0]
        assert (w.iri_minus1, w.iri_plus1, w.iri_minus3) == (100.0, 110.0, None)

    def test_missing_post_year_dropped_and_counted(self):
        t = panel_table([("A", "1", 2013, 100.0)])
        windows, summary = extract_windows(t, [FloodEvent("A", 2014)])
        assert windows == []
        assert summary.dropped == 1

    def test_lookback_populated_from_six_row_fixture(self):
        entries = [
            ("A", "1", 2011, 80.0),
            ("A", "1", 2013, 90.0),
            ("A", "1", 2015, 105.0),
            ("A", "2", 2013, 60.0),
            ("A", "2", 2015, 70.0),
            ("B", "1", 2013, 55.0),
        ]
        windows, summary = extract_windows(panel_table(entries), [FloodEvent("A", 2014)])
        by_section = {w.section_id: w for w in windows}
        assert by_section["1"].iri_minus3 == 80.0
        assert by_section["2"].iri_minus3 is None
        assert summary.extracted == 2

    def test_count_bounded_by_flooded_pairs(self):
        t = panel_table(
            [("A", s, y, 100.0) for s in ("1", "2", "3") for y in (2013, 2015)]
        )
        events = [FloodEvent("A", 2014), FloodEvent("A", 2014)]  # duplicate event
        windows, _ = extract_windows(t, events)
        assert len(windows) <= 3

    def test_nonflooded_cohort_is_complement(self):
        t = panel_table([("A", s, y, 100.0) for s in ("0001", "0002") for y in (2013, 2015)])
        ev = FloodEvent("A", 2014, start_marker="0001", end_marker="0001")
        flooded, _ = extract_windows(t, [ev], include="flooded")
        control, _ = extract_windows(t, [ev], include="nonflooded")
        assert [w.section_id for w in flooded] == ["0001"]
        assert [w.section_id for w in control] == ["0002"]

    def test_cohorts_share_one_index(self):
        t = panel_table(
            [("A", s, y, 100.0 + y % 7 + len(s)) for s in ("0001", "0002", "0003") for y in (2011, 2013, 2015)]
            + [("A", "0004", 2013, 90.0), ("B", "0001", 2013, 80.0)]
        )
        events = [FloodEvent("A", 2014, start_marker="0002", end_marker="0003"), FloodEvent("B", 2014)]
        index = iri_by_section(t)
        for include in ("flooded", "nonflooded"):
            assert extract_windows(t, events, include, index) == extract_windows(t, events, include)

    def test_missing_iri_is_not_an_observation(self):
        keys = (("A", "1", 2013), ("A", "1", 2015))
        vals = np.array([[np.nan, 0.0], [110.0, 0.0]])
        t = DataTable(COLS, vals, {}, keys)
        windows, summary = extract_windows(t, [FloodEvent("A", 2014)])
        assert windows == [] and summary.dropped == 1


class TestMaintenanceExclusion:
    def test_improvement_excluded(self):
        w = SectionWindow("A", "1", 2014, iri_minus1=100.0, iri_plus1=95.0)
        assert apply_maintenance_exclusion([w]) == []

    def test_equality_retained(self):
        w = SectionWindow("A", "1", 2014, iri_minus1=100.0, iri_plus1=100.0)
        assert apply_maintenance_exclusion([w]) == [w]

    def test_mixed_fixture(self):
        windows = [
            SectionWindow("A", "1", 2014, 100.0, 102.0),
            SectionWindow("A", "2", 2014, 100.0, 99.0),
            SectionWindow("A", "3", 2014, 100.0, 115.0),
            SectionWindow("A", "4", 2014, 100.0, 100.0),
            SectionWindow("A", "5", 2014, 100.0, 90.0),
        ]
        assert len(apply_maintenance_exclusion(windows)) == 3

    def test_lookback_improvement_also_excluded(self):
        w = SectionWindow("A", "1", 2014, iri_minus1=80.0, iri_plus1=95.0, iri_minus3=85.0)
        assert apply_maintenance_exclusion([w]) == []

    def test_postcondition(self):
        rng = np.random.default_rng(9)
        windows = [
            SectionWindow("A", str(i), 2014, float(m1), float(p1))
            for i, (m1, p1) in enumerate(rng.uniform(50, 150, size=(50, 2)))
        ]
        for w in apply_maintenance_exclusion(windows):
            assert w.iri_plus1 >= w.iri_minus1


class TestEventsCsv:
    def test_round_trip_with_optional_markers(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "ROUTE_NAME,FLOOD_YEAR,START_MARKER,END_MARKER\n"
            "FM0481,2014,0001,0005\n"
            "FM0366,2008,,\n",
            encoding="utf-8",
        )
        events = load_events_csv(path)
        assert events[0] == FloodEvent("FM0481", 2014, "0001", "0005")
        assert events[1] == FloodEvent("FM0366", 2008, None, None)

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("ROUTE_NAME\nFM1\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="FLOOD_YEAR"):
            load_events_csv(path)

    def test_cells_beyond_the_header_are_ignored(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("ROUTE_NAME,FLOOD_YEAR\nFM1,2014,extra\nFM2,2015\n", encoding="utf-8")
        assert load_events_csv(path) == [FloodEvent("FM1", 2014, None, None), FloodEvent("FM2", 2015, None, None)]

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("ROUTE_NAME,FLOOD_YEAR\nFM1,2014\n", encoding="utf-8-sig")
        assert load_events_csv(path) == [FloodEvent("FM1", 2014, None, None)]

    def test_non_utf8_file_is_schema_error(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes("ROUTE_NAME,FLOOD_YEAR\nFM1,2014\nCaf\u00e9,2015\n".encode("latin-1"))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: not UTF-8 text (byte 0xe9")):
            load_events_csv(path)

    def test_csv_module_error_is_schema_error(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("ROUTE_NAME,FLOOD_YEAR\nFM1,2014\nFM2," + "9" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: line 3: field larger than field limit")):
            load_events_csv(path)

    @pytest.mark.parametrize("year", ["inf", "-inf", "nan", "x"])
    def test_non_finite_year_is_schema_error(self, tmp_path, year):
        path = tmp_path / "events.csv"
        path.write_text(f"ROUTE_NAME,FLOOD_YEAR\nFM1,2014\nFM2,{year}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"unparseable FLOOD_YEAR {year!r}"):
            load_events_csv(path)


@st.composite
def decimal_ids(draw):
    """(value in hundredths, id): digit ids and decimals, zero-padded or with trailing zeros."""
    whole, hundredths = draw(st.integers(0, 120)), draw(st.integers(0, 99))
    pad = "0" * draw(st.integers(0, 2))
    if hundredths == 0 and draw(st.booleans()):
        return whole * 100, f"{pad}{whole}"
    digits = f"{hundredths:02d}"
    if hundredths % 10 == 0 and draw(st.booleans()):
        digits = digits[0]
    return whole * 100 + hundredths, f"{pad}{whole}.{digits}" + "0" * draw(st.integers(0, 2))


class TestCoversSection:
    @given(
        a=st.integers(0, 10**6),
        lo=st.integers(0, 10**6),
        hi=st.integers(0, 10**6),
        pads=st.tuples(*[st.integers(0, 3)] * 3),
    )
    def test_integer_ids_compare_numerically(self, a, lo, hi, pads):
        sid, start, end = ("0" * p + str(v) for p, v in zip(pads, (a, lo, hi)))
        assert FloodEvent("A", 2012, start, end).covers_section(sid) == (lo <= a <= hi)
        assert FloodEvent("A", 2012, None, end).covers_section(sid) == (a <= hi)
        assert FloodEvent("A", 2012, start, None).covers_section(sid) == (lo <= a)

    @given(a=st.integers(0, 9999), lo=st.integers(0, 9999), hi=st.integers(0, 9999))
    def test_equal_width_padded_ids_match_string_order(self, a, lo, hi):
        # The synthetic panel's "%04d" ids: numeric order is string order.
        sid, start, end = (f"{v:04d}" for v in (a, lo, hi))
        assert FloodEvent("A", 2012, start, end).covers_section(sid) == (start <= sid <= end)

    @given(a=decimal_ids(), lo=decimal_ids(), hi=decimal_ids())
    def test_decimal_ids_compare_numerically(self, a, lo, hi):
        (a, sid), (lo, start), (hi, end) = a, lo, hi
        assert FloodEvent("A", 2012, start, end).covers_section(sid) == (lo <= a <= hi)
        assert FloodEvent("A", 2012, None, end).covers_section(sid) == (a <= hi)
        assert FloodEvent("A", 2012, start, None).covers_section(sid) == (lo <= a)

    @given(
        sid=st.text(min_size=1, max_size=6),
        start=st.text(min_size=1, max_size=6),
        end=st.text(min_size=1, max_size=6),
    )
    def test_non_integer_ids_compare_as_strings(self, sid, start, end):
        assume(not re.fullmatch(r"[0-9]+(\.[0-9]+)?", sid))
        assert FloodEvent("A", 2012, start, end).covers_section(sid) == (start <= sid <= end)

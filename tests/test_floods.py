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
    _section_key,
    apply_maintenance_exclusion,
    extract_windows,
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

    def test_swapped_markers_warn_and_flood_nothing(self):
        t = panel_table([("FM0101", f"{i:04d}", 2014, 100.0) for i in range(8)])
        tagged, warnings = tag_flooded(t, [FloodEvent("FM0101", 2014, "0005", "0002")])
        assert warnings == [
            "flood event (FM0101, 2014): START_MARKER '0005' sorts after END_MARKER '0002'; are they swapped?"
        ]
        assert tagged.col("Flood").tolist() == [0.0] * 8
        in_order = [FloodEvent("FM0101", 2014, "0002", "0005"), FloodEvent("FM0101", 2014, "0003", "0003")]
        assert tag_flooded(t, in_order)[1] == []

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


# Section ids: unpadded and padded digits and plain decimals, zero-padded
# or with trailing zeros, which compare as numbers; and ids that sort
# after every number and compare with each other as strings.
IDS = ["1", "9", "10", "11", "009", "010", "0100", "9.5", "09.50", "10.0", "10.00", "0.5",
       "9.", ".5", "A1", "B", "9a", "ü"]
SECTION_IDS = st.sampled_from(IDS)
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
    ] + [
        f"flood event ({ev.route_name}, {ev.flood_year}): START_MARKER {ev.start_marker!r} "
        f"sorts after END_MARKER {ev.end_marker!r}; are they swapped?"
        for ev in events
        if None not in (ev.start_marker, ev.end_marker) and _section_key(ev.start_marker) > _section_key(ev.end_marker)
    ]


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["FM1", "SH2", "IH3"]),
            SECTION_IDS,
            st.integers(2010, 2014),
            st.sampled_from([np.nan, 1.0, 2.0, 3.0]),
        ),
        min_size=1,
        max_size=40,
    ),
    events=st.lists(
        st.builds(
            FloodEvent,
            st.sampled_from(["FM1", "SH2", "ZZ9"]),
            st.integers(2010, 2014),
            MARKERS,
            MARKERS,
        ),
        max_size=12,
    ),
)
def test_extract_windows_matches_nested_loop(rows, events):
    # Each (event route-year, observed section) pair against one cohort,
    # decided by testing every event of that route-year. A key that
    # repeats with two IRI values is refused; a repeat of one value counts once.
    iri: dict[tuple[str, str], dict[int, float]] = {}
    for r, s, y, v in rows:
        if not np.isnan(v):
            if iri.setdefault((r, s), {}).setdefault(y, v) != v:
                with pytest.raises(SchemaError, match=re.escape(f"row key ({r}, {s}, {y}) repeats with")):
                    extract_windows(panel_table(rows), events)
                return
    expected = {True: set(), False: set()}
    candidates = {True: 0, False: 0}
    for route, year in {(ev.route_name, ev.flood_year) for ev in events}:
        for (r, s), years in iri.items():
            if r != route:
                continue
            flooded = any(
                ev.route_name == route and ev.flood_year == year and ev.covers_section(s) for ev in events
            )
            candidates[flooded] += 1
            if year - 1 in years and year + 1 in years:
                expected[flooded].add(SectionWindow(r, s, year, years[year - 1], years[year + 1], years.get(year - 3)))

    cohorts = dict(zip((True, False), extract_windows(panel_table(rows), events)))
    for flooded, (windows, summary) in cohorts.items():
        assert len(windows) == len(set(windows)) and set(windows) == expected[flooded]
        assert summary.candidates == candidates[flooded]
        assert summary.extracted == len(windows)
        assert summary.extracted + summary.dropped == summary.candidates


class TestExtractWindows:
    def test_pre_post_pair(self):
        t = panel_table([("A", "1", 2013, 100.0), ("A", "1", 2015, 110.0)])
        (windows, summary), _ = extract_windows(t, [FloodEvent("A", 2014)])
        assert summary.extracted == 1 and summary.dropped == 0
        w = windows[0]
        assert (w.iri_minus1, w.iri_plus1, w.iri_minus3) == (100.0, 110.0, None)

    def test_missing_post_year_dropped_and_counted(self):
        t = panel_table([("A", "1", 2013, 100.0)])
        (windows, summary), _ = extract_windows(t, [FloodEvent("A", 2014)])
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
        (windows, summary), _ = extract_windows(panel_table(entries), [FloodEvent("A", 2014)])
        by_section = {w.section_id: w for w in windows}
        assert by_section["1"].iri_minus3 == 80.0
        assert by_section["2"].iri_minus3 is None
        assert summary.extracted == 2

    def test_count_bounded_by_flooded_pairs(self):
        t = panel_table(
            [("A", s, y, 100.0) for s in ("1", "2", "3") for y in (2013, 2015)]
        )
        events = [FloodEvent("A", 2014), FloodEvent("A", 2014)]  # duplicate event
        (windows, _), _ = extract_windows(t, events)
        assert len(windows) <= 3

    def test_nonflooded_cohort_is_complement(self):
        t = panel_table([("A", s, y, 100.0) for s in ("0001", "0002") for y in (2013, 2015)])
        ev = FloodEvent("A", 2014, start_marker="0001", end_marker="0001")
        (flooded, _), (control, _) = extract_windows(t, [ev])
        assert [w.section_id for w in flooded] == ["0001"]
        assert [w.section_id for w in control] == ["0002"]

    def test_section_flooded_by_one_event_is_no_control_for_another(self):
        t = panel_table([("A", s, y, 100.0) for s in ("0001", "0002", "0003") for y in (2013, 2015)])
        events = [FloodEvent("A", 2014, "0001", "0001"), FloodEvent("A", 2014, "0003", "0003")]
        (flooded, f_summary), (control, c_summary) = extract_windows(t, events)
        assert [w.section_id for w in flooded] == ["0001", "0003"]
        assert [w.section_id for w in control] == ["0002"]
        assert (f_summary.candidates, c_summary.candidates) == (2, 1)

    def test_missing_flood_year_row_is_still_flooded(self):
        # The cohort comes from the events, not from a tagged flood-year row.
        t = panel_table([("A", s, y, 100.0) for s in ("0001", "0002") for y in (2013, 2015)])
        (flooded, _), (control, _) = extract_windows(t, [FloodEvent("A", 2014, "0001", "0001")])
        assert [w.section_id for w in flooded] == ["0001"]
        assert [w.section_id for w in control] == ["0002"]

    def test_missing_iri_is_not_an_observation(self):
        keys = (("A", "1", 2013), ("A", "1", 2015))
        vals = np.array([[np.nan, 0.0], [110.0, 0.0]])
        t = DataTable(COLS, vals, {}, keys)
        (windows, summary), _ = extract_windows(t, [FloodEvent("A", 2014)])
        assert windows == [] and summary.dropped == 1

    def test_sections_in_marker_order(self):
        sections = ["A1", "10", "9.", "9.5", "09", "ü", "0.5"]
        t = panel_table([("A", s, y, 100.0) for s in sections for y in (2013, 2015)])
        (flooded, _), (control, _) = extract_windows(t, [FloodEvent("A", 2014, "9", "10")])
        assert [w.section_id for w in flooded] == ["09", "9.5", "10"]
        assert [w.section_id for w in control] == ["0.5", "9.", "A1", "ü"]

    def test_repeated_key_with_two_iri_values_is_schema_error(self):
        t = panel_table([("A", "1", 2013, 100.0), ("A", "1", 2015, 110.0), ("A", "1", 2013, 999.0)])
        message = "row key (A, 1, 2013) repeats with TX_IRI_AVERAGE_SCORE 100.0 and 999.0"
        with pytest.raises(SchemaError, match=re.escape(message)):
            extract_windows(t, [FloodEvent("A", 2014)])

    def test_repeated_key_with_one_iri_value_counts_once(self):
        entries = [("A", "1", 2013, 100.0), ("A", "1", 2015, 110.0), ("A", "1", 2013, 100.0), ("A", "1", 2013, np.nan)]
        (windows, summary), _ = extract_windows(panel_table(entries), [FloodEvent("A", 2014)])
        assert windows == [SectionWindow("A", "1", 2014, 100.0, 110.0)]
        assert (summary.candidates, summary.extracted) == (1, 1)


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

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("SEGMENT,YEAR\nFM1,2014\n", ["ROUTE_NAME", "FLOOD_YEAR"]),
            ("\nROUTE_NAME,FLOOD_YEAR\nFM1,2014\n", ["ROUTE_NAME", "FLOOD_YEAR"]),
        ],
        ids=["both-absent", "blank-first-line"],
    )
    def test_every_missing_required_column_is_named(self, tmp_path, text, missing):
        path = tmp_path / "events.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: missing required column(s) {missing}")):
            load_events_csv(path)

    def test_short_row_reads_as_empty_cells(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("ROUTE_NAME,FLOOD_YEAR\nFM1\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: unparseable FLOOD_YEAR value ''")):
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
        with pytest.raises(SchemaError, match=f"unparseable FLOOD_YEAR value {year!r}"):
            load_events_csv(path)

    @pytest.mark.parametrize("year", ["2014.5", "2014.9", "-0.5"])
    def test_fractional_year_is_schema_error(self, tmp_path, year):
        path = tmp_path / "events.csv"
        path.write_text(f"ROUTE_NAME,FLOOD_YEAR\nFM1,2014\nFM2,{year}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: unparseable FLOOD_YEAR value {year!r}")):
            load_events_csv(path)

    def test_integral_float_year_loads(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("ROUTE_NAME,FLOOD_YEAR\nFM1,2014.0\nFM2, 2015 \n", encoding="utf-8")
        assert load_events_csv(path) == [FloodEvent("FM1", 2014), FloodEvent("FM2", 2015)]


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
        # Such ids sort after every plain decimal, and among themselves as strings.
        def number(i):
            return re.fullmatch(r"[0-9]+(\.[0-9]+)?", i) is not None

        assume(not number(sid))
        covered = (number(start) or start <= sid) and (not number(end) and sid <= end)
        assert FloodEvent("A", 2012, start, end).covers_section(sid) == covered

    def test_mixed_kinds(self):
        # "9." is no plain decimal, so it sorts after "10" and "9.5".
        assert not FloodEvent("A", 2012, "10", "9.5").covers_section("9.")
        assert FloodEvent("A", 2012, "9.5", "9.").covers_section("10")
        assert not FloodEvent("A", 2012, "9.", "A1").covers_section("10")
        t = panel_table([("A", s, 2012, 100.0) for s in IDS])
        tagged, warnings = tag_flooded(t, [FloodEvent("A", 2012, "9.", "10")])
        assert warnings == ["flood event (A, 2012): START_MARKER '9.' sorts after END_MARKER '10'; are they swapped?"]
        assert tagged.col("Flood").tolist() == [0.0] * len(IDS)

    def test_one_total_order_over_every_triple(self):
        # Each marker range is an interval of one total order, so a range
        # whose START sorts after its END covers nothing.
        def at_most(a, b):
            return FloodEvent("A", 2012, None, b).covers_section(a)

        for a in IDS:
            assert FloodEvent("A", 2012, a, None).covers_section(a)
            for b in IDS:
                assert at_most(a, b) or at_most(b, a)
                for c in IDS:
                    if at_most(a, b) and at_most(b, c):
                        assert at_most(a, c)
                    covered = FloodEvent("A", 2012, a, b).covers_section(c)
                    assert covered == (at_most(a, c) and at_most(c, b))
                    assert not covered or _section_key(a) <= _section_key(b)

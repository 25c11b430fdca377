import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodpave.deterioration import (
    flooded_vs_nonflooded,
    pre_post_deltas,
    rate_comparison,
)
from floodpave.floods import SectionWindow


def window(route, section, m1, p1, m3=None):
    return SectionWindow(route, section, 2014, iri_minus1=m1, iri_plus1=p1, iri_minus3=m3)


class TestPrePostDeltas:
    def test_hand_arithmetic(self):
        ws = [window("A", "1", 100, 105), window("A", "2", 100, 110), window("A", "3", 100, 112)]
        s = pre_post_deltas(ws)
        assert s.mean == pytest.approx(9.0, abs=1e-12)
        assert s.count == 3

    def test_headline_fixture_value(self):
        s = pre_post_deltas([window("A", "1", 100.0, 108.46)])
        assert s.mean == pytest.approx(8.46, abs=1e-12)

    def test_all_zero_deltas(self):
        ws = [window("A", str(i), 90.0, 90.0) for i in range(4)]
        s = pre_post_deltas(ws)
        assert s.mean == 0.0 and s.std_dev == 0.0

    def test_empty_input(self):
        s = pre_post_deltas([])
        assert s.count == 0 and s.mean is None and s.per_section == ()

    @settings(max_examples=25, deadline=None)
    @given(shift=st.floats(min_value=-20, max_value=20))
    def test_translation_equivariance(self, shift):
        base = [window("A", "1", 100, 104), window("A", "2", 80, 95), window("B", "1", 60, 61)]
        shifted = [
            window(w.route_name, w.section_id, w.iri_minus1, w.iri_plus1 + shift) for w in base
        ]
        assert pre_post_deltas(shifted).mean == pytest.approx(
            pre_post_deltas(base).mean + shift, abs=1e-9
        )

    def test_permutation_invariant(self):
        ws = [window("A", str(i), 100.0 + i, 105.0 + 2 * i) for i in range(6)]
        a, b = pre_post_deltas(ws), pre_post_deltas(ws[::-1])
        assert a.mean == pytest.approx(b.mean, abs=1e-12)
        assert a.std_dev == pytest.approx(b.std_dev, abs=1e-12)


class TestRateComparison:
    def test_single_window(self):
        r = rate_comparison([window("A", "1", 90, 105, m3=80)])
        assert r.before_rate == pytest.approx(10.0)
        assert r.after_rate == pytest.approx(15.0)

    def test_two_window_hand_arithmetic(self):
        ws = [window("A", "1", 90, 105, m3=80), window("B", "1", 64, 70, m3=60)]
        r = rate_comparison(ws)
        assert r.before_rate == pytest.approx(7.0)
        assert r.after_rate == pytest.approx(10.5)

    def test_missing_lookback_excluded(self):
        ws = [window("A", "1", 90, 105, m3=80), window("A", "2", 50, 200)]
        r = rate_comparison(ws)
        assert r.count == 1
        assert r.after_rate == pytest.approx(15.0)

    def test_no_qualifying_windows(self):
        r = rate_comparison([window("A", "1", 90, 105)])
        assert r.count == 0 and r.before_rate is None

    def test_linear_history_equal_rates(self):
        ws = [
            SectionWindow("A", str(i), 2014, iri_minus1=b + 2 * k, iri_plus1=b + 4 * k, iri_minus3=b)
            for i, (b, k) in enumerate([(60.0, 3.0), (80.0, 5.0), (100.0, 1.5)])
        ]
        r = rate_comparison(ws)
        assert r.before_rate == pytest.approx(r.after_rate, abs=1e-12)

    def test_per_route_averages(self):
        ws = [
            SectionWindow("A", "1", 2014, iri_minus1=90, iri_plus1=100, iri_minus3=80),
            SectionWindow("A", "2", 2014, iri_minus1=110, iri_plus1=120, iri_minus3=100),
        ]
        r = rate_comparison(ws)
        assert r.per_route == (("A", 90.0, 100.0, 110.0),)


class TestFloodedVsNonflooded:
    def test_headline_fixture(self):
        flooded = [window("A", "1", 100, 112)]  # delta 12
        control = [window("A", "c1", 100, 106.4)]  # mean delta 6.4
        p = flooded_vs_nonflooded(flooded, control)
        assert p.mean_diff == pytest.approx(5.6, abs=1e-12)

    def test_identical_lists_zero_diffs(self):
        ws = [window("A", "1", 100, 107), window("B", "1", 90, 93)]
        p = flooded_vs_nonflooded(ws, ws)
        assert p.mean_diff == pytest.approx(0.0, abs=1e-12)
        assert all(d == pytest.approx(0.0, abs=1e-12) for _, d in p.per_section)

    def test_range_fixture(self):
        flooded = [window("A", "1", 100, 110.3), window("A", "2", 100, 125.0)]
        control = [window("A", "c", 100, 110.0)]  # mean delta 10
        p = flooded_vs_nonflooded(flooded, control)
        assert p.min_diff == pytest.approx(0.3, abs=1e-12)
        assert p.max_diff == pytest.approx(15.0, abs=1e-12)

    def test_routes_without_controls_skipped(self):
        flooded = [window("A", "1", 100, 110), window("B", "1", 100, 120)]
        control = [window("A", "c", 100, 105)]
        p = flooded_vs_nonflooded(flooded, control)
        assert p.count == 1
        assert p.per_section[0][0][0] == "A"

    def test_controls_come_from_the_same_flood_year(self):
        flooded = [SectionWindow("A", "1", 2014, 100, 110), SectionWindow("A", "2", 2015, 100, 120),
                   SectionWindow("A", "3", 2016, 100, 130)]  # no 2016 control
        control = [SectionWindow("A", "c", 2014, 100, 104), SectionWindow("A", "c", 2015, 100, 108)]
        p = flooded_vs_nonflooded(flooded, control)
        assert p.per_section == ((("A", "1", 2014), 6.0), (("A", "2", 2015), 12.0))

    def test_no_overlap_empty_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            p = flooded_vs_nonflooded([window("A", "1", 100, 110)], [window("B", "c", 100, 105)])
        assert p.count == 0 and p.mean_diff is None
        assert any("overlap" in r.message for r in caplog.records)

    def test_permutation_invariant(self):
        flooded = [window("A", str(i), 100, 105 + i) for i in range(5)]
        control = [window("A", f"c{i}", 100, 102 + i) for i in range(3)]
        a = flooded_vs_nonflooded(flooded, control)
        b = flooded_vs_nonflooded(flooded[::-1], control[::-1])
        assert a.mean_diff == pytest.approx(b.mean_diff, abs=1e-12)
        assert (a.min_diff, a.max_diff) == (b.min_diff, b.max_diff)

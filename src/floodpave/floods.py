"""Join flood events to section-year records and extract IRI analysis windows.

A window holds a section's IRI one year before and one year after its
route's flood year, plus the optional three-years-before value used by
the deterioration-rate comparison. Sections whose IRI improved across a
window are assumed to have been maintained and are dropped before any
statistic is computed.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .dataset import DataTable, ROUTE_COLUMN, SECTION_COLUMN, YEAR_COLUMN, csv_error, not_utf8
from .errors import SchemaError

IRI_COLUMN = "TX_IRI_AVERAGE_SCORE"
FLOOD_COLUMN = "Flood"


@dataclass(frozen=True)
class FloodEvent:
    route_name: str
    flood_year: int
    start_marker: str | None = None
    end_marker: str | None = None

    def covers_section(self, section_id: str) -> bool:
        # Missing markers flood the whole route.
        if self.start_marker is not None and _section_order(section_id, self.start_marker) < 0:
            return False
        if self.end_marker is not None and _section_order(section_id, self.end_marker) > 0:
            return False
        return True


# A plain decimal milepost: ASCII digits, optionally a point and more digits.
_DECIMAL_ID = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def _section_order(a: str, b: str) -> int:
    """-1, 0 or 1 as section id ``a`` sorts before, with or after ``b``.

    Two ids made of ASCII digits compare as integers, so "9" < "10".
    Two plain decimals compare exactly as numbers, so "9.5" < "10" and
    "09.50" == "9.5". Any other pair compares as strings.
    """
    if a.isascii() and b.isascii() and a.isdigit() and b.isdigit():
        a, b = int(a), int(b)
    elif _DECIMAL_ID.fullmatch(a) and _DECIMAL_ID.fullmatch(b):
        a, b = Decimal(a), Decimal(b)
    return (a > b) - (a < b)


@dataclass(frozen=True)
class SectionWindow:
    route_name: str
    section_id: str
    flood_year: int
    iri_minus1: float
    iri_plus1: float
    iri_minus3: float | None = None

    @property
    def delta(self) -> float:
        return self.iri_plus1 - self.iri_minus1

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.route_name, self.section_id, self.flood_year)


@dataclass(frozen=True)
class ExtractionSummary:
    candidates: int
    extracted: int
    dropped: int


def load_events_csv(path) -> list[FloodEvent]:
    """Read a flood-events CSV: ROUTE_NAME, FLOOD_YEAR, START_MARKER, END_MARKER.

    Marker columns are optional; empty cells mean no bound on that side.
    Cells beyond the header (which DictReader files under None) are ignored.
    A leading byte-order mark is ignored; a file that is not UTF-8, or
    that the csv module cannot parse, is a SchemaError naming it.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file, no header row")
            fields = [f.strip() for f in reader.fieldnames]
            for required in ("ROUTE_NAME", "FLOOD_YEAR"):
                if required not in fields:
                    raise SchemaError(f"{path}: missing required column(s) ['{required}']")
            events = []
            for row in reader:
                row = {k.strip(): (v or "").strip() for k, v in row.items() if k is not None}
                if not row.get("ROUTE_NAME"):
                    continue
                try:
                    year = int(float(row["FLOOD_YEAR"]))
                except (KeyError, ValueError, OverflowError):
                    raise SchemaError(
                        f"{path}: unparseable FLOOD_YEAR {row.get('FLOOD_YEAR')!r}"
                    ) from None
                events.append(
                    FloodEvent(
                        route_name=row["ROUTE_NAME"],
                        flood_year=year,
                        start_marker=row.get("START_MARKER") or None,
                        end_marker=row.get("END_MARKER") or None,
                    )
                )
            return events
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    except csv.Error as exc:
        # DictReader updates its own line_num only after a row parses.
        raise csv_error(path, reader.reader.line_num, exc) from None
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def tag_flooded(table: DataTable, events: list[FloodEvent]):
    """Set the Flood column to 1 exactly where a row matches an event.

    A row matches an event of its own route and year whose marker range
    covers its section (``FloodEvent.covers_section``). Events are indexed
    by (route, year), so each row tests only the events of its bucket.

    Returns ``(tagged_table, warnings)``. Events naming a route absent
    from the table produce one warning string each rather than failing.
    Applying the same events twice yields an identical table.
    """
    if table.n_rows and not table.row_keys:
        raise SchemaError("table has no (route, section, year) row keys")
    table.col_index(FLOOD_COLUMN)

    routes_present = {key[0] for key in table.row_keys}
    warnings = [
        f"flood event ({ev.route_name}, {ev.flood_year}) matches no route in the table"
        for ev in events
        if ev.route_name not in routes_present
    ]

    buckets: dict[tuple[str, int], list[FloodEvent]] = {}
    for ev in events:
        buckets.setdefault((ev.route_name, ev.flood_year), []).append(ev)
    flood = np.zeros(table.n_rows)
    for i, (route, section, year) in enumerate(table.row_keys):
        bucket = buckets.get((route, year))
        if bucket and any(ev.covers_section(section) for ev in bucket):
            flood[i] = 1.0
    return table.replace_column(FLOOD_COLUMN, flood), warnings


def _iri_by_section(table: DataTable):
    """(route, section) -> {year: iri}, skipping missing IRI values."""
    iri = table.col(IRI_COLUMN)
    out: dict[tuple[str, str], dict[int, float]] = {}
    for i, (route, section, year) in enumerate(table.row_keys):
        if math.isnan(iri[i]):
            continue
        out.setdefault((route, section), {})[year] = float(iri[i])
    return out


def extract_windows(table: DataTable, events: list[FloodEvent], include: str = "flooded"):
    """Build one SectionWindow per qualifying (section, flood year) pair.

    ``include="flooded"`` selects sections covered by an event's marker
    range; ``include="nonflooded"`` selects the remaining sections on the
    same route, windowed around the same flood year (the same-route
    control cohort). A window requires IRI observations at flood_year-1
    and flood_year+1; the flood_year-3 value is attached when available.
    Sections lacking a mandatory year are dropped silently and counted
    in the returned summary.

    Returns ``(windows, summary)``.
    """
    if include not in ("flooded", "nonflooded"):
        raise ValueError(f"include must be 'flooded' or 'nonflooded', got {include!r}")
    by_section = _iri_by_section(table)

    sections_by_route: dict[str, list[str]] = {}
    for route, section in by_section:
        sections_by_route.setdefault(route, []).append(section)

    seen: set[tuple[str, str, int]] = set()
    windows: list[SectionWindow] = []
    dropped = 0
    for ev in events:
        for section in sorted(sections_by_route.get(ev.route_name, [])):
            covered = ev.covers_section(section)
            if (include == "flooded") != covered:
                continue
            pair = (ev.route_name, section, ev.flood_year)
            if pair in seen:
                continue
            seen.add(pair)
            years = by_section[(ev.route_name, section)]
            minus1 = years.get(ev.flood_year - 1)
            plus1 = years.get(ev.flood_year + 1)
            if minus1 is None or plus1 is None:
                dropped += 1
                continue
            windows.append(
                SectionWindow(
                    route_name=ev.route_name,
                    section_id=section,
                    flood_year=ev.flood_year,
                    iri_minus1=minus1,
                    iri_plus1=plus1,
                    iri_minus3=years.get(ev.flood_year - 3),
                )
            )
    summary = ExtractionSummary(
        candidates=len(seen), extracted=len(windows), dropped=dropped
    )
    return windows, summary


def apply_maintenance_exclusion(windows: list[SectionWindow]) -> list[SectionWindow]:
    """Drop windows whose IRI improved, attributing the improvement to maintenance.

    A window is removed when iri_plus1 < iri_minus1, and, when the
    three-year look-back is present, when iri_minus1 < iri_minus3.
    Equality is retained: zero deterioration needs no maintenance story.
    """
    kept = []
    for w in windows:
        if w.iri_plus1 < w.iri_minus1:
            continue
        if w.iri_minus3 is not None and w.iri_minus1 < w.iri_minus3:
            continue
        kept.append(w)
    return kept

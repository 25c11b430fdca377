"""Join flood events to section-year records and extract IRI analysis windows.

Events are grouped by (route, flood year). Each observed section of a
group's route is decided once: flooded if any event of the group covers
it, a same-route control otherwise, so the two cohorts partition each
route-year's sections. A window holds a section's IRI one year before
and one year after the flood year, plus the optional three-years-before
value used by the deterioration-rate comparison. Sections whose IRI
improved across a window are assumed to have been maintained;
`apply_maintenance_exclusion` drops them as a separate step, before any
statistic is computed, so the unexcluded windows stay available.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from ._util import read_csv
from .dataset import FLOOD_COLUMN, IRI_COLUMN, DataTable, parse_year
from .errors import SchemaError


@dataclass(frozen=True)
class FloodEvent:
    route_name: str
    flood_year: int
    start_marker: str | None = None
    end_marker: str | None = None

    def covers_section(self, section_id: str) -> bool:
        # Missing markers flood the whole route.
        key = _section_key(section_id)
        if self.start_marker is not None and key < _section_key(self.start_marker):
            return False
        if self.end_marker is not None and key > _section_key(self.end_marker):
            return False
        return True


# A plain decimal milepost: ASCII digits, optionally a point and more digits.
_DECIMAL_ID = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def _section_key(section_id: str) -> tuple:
    """The sort key of a section id: one total order over every id.

    Plain decimals come first, by value, so "9" < "9.5" < "10" and
    "09.50" ties with "9.5". Every other id comes after them, as a string.
    """
    if _DECIMAL_ID.fullmatch(section_id):
        return (0, Decimal(section_id))
    return (1, section_id)


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
    """Read a flood-events CSV through `_util.read_csv`: ROUTE_NAME, FLOOD_YEAR, START_MARKER, END_MARKER.

    Marker columns are optional; empty cells mean no bound on that side.
    A row with no ROUTE_NAME is skipped; a short row reads as empty cells
    past its end, and cells past the header are ignored.
    """
    events = []
    with read_csv(path, ("ROUTE_NAME", "FLOOD_YEAR")) as (header, reader):
        for row in reader:
            row = dict(zip(header, (cell.strip() for cell in row)))
            if not row.get("ROUTE_NAME"):
                continue
            events.append(
                FloodEvent(
                    route_name=row["ROUTE_NAME"],
                    flood_year=parse_year(path, "FLOOD_YEAR", row.get("FLOOD_YEAR", "")),
                    start_marker=row.get("START_MARKER") or None,
                    end_marker=row.get("END_MARKER") or None,
                )
            )
    return events


def _events_by_route_year(events: list[FloodEvent]) -> dict[tuple[str, int], list[FloodEvent]]:
    """The events grouped by (route, flood year), groups in order of first appearance."""
    groups: dict[tuple[str, int], list[FloodEvent]] = {}
    for ev in events:
        groups.setdefault((ev.route_name, ev.flood_year), []).append(ev)
    return groups


def event_warnings(table: DataTable, events: list[FloodEvent]) -> list[str]:
    """One warning string per event that names a route absent from `table`,
    then one per event whose START_MARKER sorts after its END_MARKER (a
    range that covers no section)."""
    routes_present = {key[0] for key in table.row_keys}
    warnings = [
        f"flood event ({ev.route_name}, {ev.flood_year}) matches no route in the table"
        for ev in events
        if ev.route_name not in routes_present
    ]
    return warnings + [
        f"flood event ({ev.route_name}, {ev.flood_year}): START_MARKER {ev.start_marker!r} "
        f"sorts after END_MARKER {ev.end_marker!r}; are they swapped?"
        for ev in events
        if None not in (ev.start_marker, ev.end_marker) and _section_key(ev.start_marker) > _section_key(ev.end_marker)
    ]


def tag_flooded(table: DataTable, events: list[FloodEvent]):
    """Set the Flood column to 1 exactly where a row matches an event.

    A row matches an event of its own route and year whose marker range
    covers its section (``FloodEvent.covers_section``). Events are grouped
    by (route, year), so each row tests only the events of its group.

    Returns ``(tagged_table, event_warnings(table, events))``. Applying
    the same events twice yields an identical table.
    """
    if table.n_rows and not table.row_keys:
        raise SchemaError("table has no (route, section, year) row keys")
    table.col_index(FLOOD_COLUMN)

    groups = _events_by_route_year(events)
    flood = np.zeros(table.n_rows)
    for i, (route, section, year) in enumerate(table.row_keys):
        group = groups.get((route, year))
        if group and any(ev.covers_section(section) for ev in group):
            flood[i] = 1.0
    return table.replace_column(FLOOD_COLUMN, flood), event_warnings(table, events)


def extract_windows(table: DataTable, events: list[FloodEvent]):
    """Each event route-year's observed sections, split once into flooded and control windows.

    For each (route, flood year) of the events, in order of first
    appearance, each section of the route with an IRI observation is a
    candidate of exactly one cohort, in `_section_key` order: flooded if any
    event of that route-year covers it, otherwise a same-route control.
    The decision comes from the events, not the Flood column. A window
    requires IRI at flood_year-1 and flood_year+1; the flood_year-3 value
    is attached when available. A candidate lacking a mandatory year is
    dropped and counted in its cohort's summary. A (route, section, year)
    key may repeat with one IRI value, which counts once; two different
    IRI values for one key are a SchemaError naming the key and both.

    Returns ``((flooded, flooded_summary), (control, control_summary))``.
    """
    iri = table.col(IRI_COLUMN)
    by_section: dict[tuple[str, str], dict[int, float]] = {}
    for i, (route, section, year) in enumerate(table.row_keys):
        if not math.isnan(iri[i]):
            value = float(iri[i])
            kept = by_section.setdefault((route, section), {}).setdefault(year, value)
            if kept != value:
                raise SchemaError(f"row key ({route}, {section}, {year}) repeats with {IRI_COLUMN} {kept!r} and {value!r}")
    sections_by_route: dict[str, list[str]] = {}
    for route, section in sorted(by_section, key=lambda rs: (rs[0], _section_key(rs[1]), rs[1])):
        sections_by_route.setdefault(route, []).append(section)

    windows: dict[bool, list[SectionWindow]] = {True: [], False: []}  # keyed by "flooded"
    candidates = {True: 0, False: 0}
    for (route, flood_year), group in _events_by_route_year(events).items():
        for section in sections_by_route.get(route, ()):
            flooded = any(ev.covers_section(section) for ev in group)
            candidates[flooded] += 1
            years = by_section[(route, section)]
            minus1 = years.get(flood_year - 1)
            plus1 = years.get(flood_year + 1)
            if minus1 is not None and plus1 is not None:
                windows[flooded].append(
                    SectionWindow(route, section, flood_year, minus1, plus1, years.get(flood_year - 3))
                )
    return tuple(
        (windows[f], ExtractionSummary(candidates[f], len(windows[f]), candidates[f] - len(windows[f])))
        for f in (True, False)
    )


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

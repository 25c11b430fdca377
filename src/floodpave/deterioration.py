"""Pre/post-flood roughness deterioration statistics.

Three analyses over maintenance-filtered section windows: the pooled
two-year IRI delta, the before/after deterioration-rate comparison
(needs the three-year look-back), and the flooded vs non-flooded
same-route, same-year comparison.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .floods import SectionWindow

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DeltaSummary:
    per_section: tuple  # ((route, section, flood_year), delta) pairs
    mean: float | None
    std_dev: float | None
    count: int


@dataclass(frozen=True)
class RateComparison:
    per_route: tuple  # (route, avg_iri_minus3, avg_iri_minus1, avg_iri_plus1)
    before_rate: float | None  # in/mi per 2 years
    after_rate: float | None
    count: int


@dataclass(frozen=True)
class PairedRouteDiff:
    per_section: tuple  # ((route, section, flood_year), diff) pairs
    mean_diff: float | None
    min_diff: float | None
    max_diff: float | None
    count: int


def pre_post_deltas(windows: list[SectionWindow]) -> DeltaSummary:
    """Two-year IRI change per window, pooled over all sections.

    Expects windows that already passed the maintenance exclusion.
    An empty input yields count 0 with None summary values.
    """
    per_section = tuple((w.key, w.delta) for w in windows)
    if not per_section:
        return DeltaSummary((), None, None, 0)
    deltas = np.array([d for _, d in per_section])
    std = float(np.std(deltas, ddof=1)) if len(deltas) > 1 else 0.0
    return DeltaSummary(per_section, float(np.mean(deltas)), std, len(deltas))


def rate_comparison(windows: list[SectionWindow]) -> RateComparison:
    """Deterioration rate over the 2 years before vs after flooding.

    Only windows with the three-year look-back qualify. Rates are pooled
    over the qualifying windows; per-route averages of the three IRI
    values are reported alongside for plotting.
    """
    qualifying = [w for w in windows if w.iri_minus3 is not None]
    if not qualifying:
        return RateComparison((), None, None, 0)

    by_route: dict[str, list[SectionWindow]] = {}
    for w in qualifying:
        by_route.setdefault(w.route_name, []).append(w)
    per_route = tuple(
        (
            route,
            float(np.mean([w.iri_minus3 for w in ws])),
            float(np.mean([w.iri_minus1 for w in ws])),
            float(np.mean([w.iri_plus1 for w in ws])),
        )
        for route, ws in sorted(by_route.items())
    )

    before = float(np.mean([w.iri_minus1 - w.iri_minus3 for w in qualifying]))
    after = float(np.mean([w.iri_plus1 - w.iri_minus1 for w in qualifying]))
    return RateComparison(per_route, before, after, len(qualifying))


def flooded_vs_nonflooded(
    flooded_windows: list[SectionWindow],
    nonflooded_windows: list[SectionWindow],
) -> PairedRouteDiff:
    """Per-section delta difference against the mean of its route-year's controls.

    A flooded window and its controls span the same years. Flooded
    sections whose route-year has no non-flooded window are skipped. No
    overlap at all yields an empty result and a logged warning.
    """
    nf_by_route_year: dict[tuple[str, int], list[float]] = {}
    for w in nonflooded_windows:
        nf_by_route_year.setdefault((w.route_name, w.flood_year), []).append(w.delta)
    nf_mean = {key: float(np.mean(ds)) for key, ds in nf_by_route_year.items()}

    diffs = []
    for w in flooded_windows:
        control = nf_mean.get((w.route_name, w.flood_year))
        if control is not None:
            diffs.append((w.key, w.delta - control))
    if not diffs:
        log.warning("flooded vs non-flooded comparison: no overlapping routes")
        return PairedRouteDiff((), None, None, None, 0)
    vals = np.array([d for _, d in diffs])
    return PairedRouteDiff(
        tuple(diffs),
        float(np.mean(vals)),
        float(np.min(vals)),
        float(np.max(vals)),
        len(vals),
    )

"""Seeded synthetic PMIS-like data with a known next-year-IRI ground truth.

Sections evolve as a yearly panel: the roughness step from one year to
the next is a configurable drift plus linear feature terms, optional
pairwise interaction terms on nominally standardized features, a flood
bump in flood years, and Gaussian noise. The target column of a record
is exactly the following year's roughness, so the ground-truth function
doubles as an oracle for model fits and attribution engines.

`generate` holds the panel as one float array of shape (sections, years,
features + 1): its last axis is `FEATURE_COLUMNS` in order, then the
target, so the feature order is written only there. Static columns are
filled once for every year, the IRI column year by year from the
ground truth applied to the year's feature slice, and the target is the
next year's IRI (NaN in the last year). The table's rows are that array
reshaped, section-major and year-minor.

The initial IRI is a normal truncated below at 26 whose mean and SD
match the paper's. Its moments are closed-form (`math.erfc`), a Newton
solve finds the pre-truncation (loc, scale), and the draw is an inverse
CDF through `statistics.NormalDist` (Wichura's AS241). It consumes the
random stream exactly as `scipy.stats.truncnorm.rvs` does, one uniform
per section, so every later draw matches what scipy would give; the
scipy oracle tests check both.

`SynthSpec`, `GroundTruth` and the nominal feature scales live in
`config`, because the config of every command holds them.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import NormalDist

import numpy as np

from ._util import json_chunks, stage_rng, write_text_atomic
from .config import NOMINAL_SCALES, GroundTruth, SynthSpec
from .dataset import (
    DataTable,
    FEATURE_COLUMNS,
    FLOOD_COLUMN,
    IRI_COLUMN,
    KEY_COLUMNS,
    TARGET_COLUMN,
)
from .floods import FloodEvent

CLIMATE = "CLIMATE_ZONES"
CLIMATE_LABELS = ("west", "east", "north", "south", "central")

_IRI_TARGET_MEAN, _IRI_TARGET_STD = NOMINAL_SCALES[IRI_COLUMN]
_IRI_FLOOR = 26.0

_NEWTON_MAX_STEPS = 50
_NEWTON_RTOL = 1e-12  # on (mean - floor) / SD, relative to its target
_UNIFORM_STEP = 2.0**-53  # numpy's uniform draws on [0, 1) are multiples of this


def _upper_tail(a: float) -> float:
    """Standard normal survival function, Phi(-a)."""
    return 0.5 * math.erfc(a / math.sqrt(2.0))


def _truncated_standard(a: float):
    """Moments of the standard normal truncated below at ``a``.

    Returns (excess, sd, d_ratio): the mean minus ``a``, the SD, and the
    derivative by ``a`` of their ratio. With lam = phi(a) / Phi(-a), the
    mean is lam and the variance 1 + a*lam - lam^2; N(loc, scale^2)
    truncated at loc + a*scale has scale times these excess and SD.

    Above a = 2 both differences cancel more and more (at a = 6 the
    variance is off by 5e-12 relative), so there they come from 100 terms
    of Laplace's continued fraction lam = a + 1/(a + 2/(a + 3/(a + ...))),
    which is then accurate to a few ulps and needs no tail probability.
    """
    if a > 2.0:
        t = 0.0
        for k in range(100, 1, -1):
            t = k / (a + t)
        excess = 1.0 / (a + t)
        var = excess * (t - excess)  # 1 - lam * excess, since a * excess = 1 - t * excess
    else:
        excess = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) / _upper_tail(a) - a
        var = 1.0 - (a + excess) * excess
    # d excess / da = -var and d var / da = lam * (var - excess^2).
    lam = a + excess
    sd = math.sqrt(var)
    d_ratio = -sd - excess * lam * (var - excess * excess) / (2.0 * var * sd)
    return excess, sd, d_ratio


def _initial_iri_params(target_mean: float, target_std: float):
    """Pre-truncation (loc, scale) whose >=26 truncation hits the target moments.

    Both moments fix scale once the standardized floor a = (26 - loc) / scale
    is known, and a is the root of (mean - 26) / SD, which falls from
    +inf to 1 as a rises: a normal truncated below at a floor is never
    wider than an exponential, so a target with (mean - 26) <= SD is
    refused. The ratio is convex in a, so Newton's method started left of
    the root, at fsolve's old start (loc, scale) = (mean, SD), climbs to
    it without overshooting. A root so far out that the tail probability
    Phi(-a), times the smallest 1 - u a draw can use, underflows to 0 is
    refused too, because the inverse CDF has nothing left to invert.
    """
    ratio = (target_mean - _IRI_FLOOR) / target_std if target_std > 0 else math.nan
    if not ratio > 1.0:
        raise ValueError(
            f"initial IRI mean {target_mean:.6g} and SD {target_std:.6g} cannot be reached "
            f"by a normal truncated at {_IRI_FLOOR:g}: that needs mean - {_IRI_FLOOR:g} > SD > 0"
        )
    a = -ratio
    for _ in range(_NEWTON_MAX_STEPS):
        excess, sd, d_ratio = _truncated_standard(a)
        gap = excess / sd - ratio
        if abs(gap) <= _NEWTON_RTOL * ratio:
            if _upper_tail(a) * _UNIFORM_STEP == 0.0:
                raise ValueError(
                    f"initial IRI mean {target_mean:.6g} and SD {target_std:.6g} put the floor "
                    f"{a:.4g} SDs above the untruncated mean, where the normal tail underflows"
                )
            scale = target_std / sd
            return _IRI_FLOOR - a * scale, scale
        a -= gap / d_ratio
    raise ValueError(
        f"initial IRI mean {target_mean:.6g} and SD {target_std:.6g}: the truncated-normal "
        f"solve did not converge in {_NEWTON_MAX_STEPS} Newton steps, because "
        f"(mean - {_IRI_FLOOR:g}) / SD = {ratio:.12g} is too close to 1"
    )


def _truncated_normal_draws(rng: np.random.Generator, loc: float, scale: float, n: int) -> np.ndarray:
    """``n`` draws of N(loc, scale^2) truncated below at the IRI floor.

    One uniform per draw through the inverse CDF, in the upper-tail form
    of scipy's truncnorm ppf, so ``rng`` advances exactly as under
    ``truncnorm.rvs(..., random_state=rng)``.
    """
    tail = _upper_tail((_IRI_FLOOR - loc) / scale)
    inv_cdf = NormalDist().inv_cdf
    return np.array([loc - scale * inv_cdf((1.0 - u) * tail) for u in rng.uniform(size=n).tolist()])


def generate(spec: SynthSpec):
    """Build the panel; returns ``(table, flood_events, ground_truth)``.

    Fully deterministic per seed. The flooded-section count is exactly
    round(flood_fraction * n_sections); flood years leave room for the
    three-years-before and one-year-after observations.
    """
    rng = stage_rng(spec.seed, "synth")
    gt = spec.ground_truth
    n = spec.n_sections
    per_route = spec.sections_per_route
    years = range(spec.year_start, spec.year_end + 1)

    n_flooded = int(round(spec.flood_fraction * n))
    flood_year_lo, flood_year_hi = spec.year_start + 3, spec.year_end - 1
    if n_flooded > 0 and flood_year_lo > flood_year_hi:
        raise ValueError(
            "flooded sections need a year span of >= 5 so pre/post observations exist"
        )

    # Route layout: contiguous blocks of sections, zero-padded ids so the
    # marker order is lexicographic.
    n_routes = (n + per_route - 1) // per_route
    route_names = [f"FM{101 + 7 * r:04d}" for r in range(n_routes)]
    section_route = np.arange(n) // per_route
    section_ids = [f"{s % per_route:04d}" for s in range(n)]

    columns = tuple(FEATURE_COLUMNS) + (TARGET_COLUMN,)
    col = {name: j for j, name in enumerate(columns)}
    panel = np.zeros((n, len(years), len(columns)))

    def static(name, draw, lo, hi):
        mean, sd = NOMINAL_SCALES[name]
        panel[:, :, col[name]] = np.clip(mean + sd * draw, lo, hi)[:, None]

    distress_z = rng.standard_normal(n)
    cond_z = 0.87 * distress_z + math.sqrt(1 - 0.87**2) * rng.standard_normal(n)
    static("TX_DISTRESS_SCORE", distress_z, 0, 100)
    static("TX_CONDITION_SCORE", cond_z, 0, 100)
    static("TX_TRUCK_AADT_PCT", rng.standard_normal(n), 0, 56.9)
    static("TX_CURRENT_18KIP_MEAS", rng.standard_normal(n), 0, 8123)
    panel[:, :, col["TX_PVMNT_TYPE_DTL_RD_LIFE_CODE"]] = rng.choice(
        np.arange(1, 11),
        size=n,
        p=[0.01, 0.01, 0.02, 0.03, 0.05, 0.08, 0.05, 0.10, 0.25, 0.40],
    )[:, None]
    panel[:, :, col["TX_RURAL_URBAN_CODE"]] = rng.choice(
        [1.0, 2.0, 3.0, 4.0], size=n, p=[0.97, 0.015, 0.01, 0.005]
    )[:, None]
    route_climate = rng.choice(np.arange(len(CLIMATE_LABELS)), size=n_routes)
    # Label codes in first-appearance order over the rows, as a CSV reload gives them.
    climate = [CLIMATE_LABELS[c] for c in route_climate[section_route].tolist()]
    encodings = {CLIMATE: list(dict.fromkeys(climate))}
    panel[:, :, col[CLIMATE]] = np.array([encodings[CLIMATE].index(c) for c in climate])[:, None]

    # Flood assignment: walk routes, flooding the first half of each
    # route's sections until the target count is reached.
    events = []
    remaining = n_flooded
    for r in range(n_routes):
        if remaining <= 0:
            break
        first = r * per_route
        take = min(remaining, max(1, (min(n, first + per_route) - first) // 2))
        remaining -= take
        fy = int(rng.integers(flood_year_lo, flood_year_hi + 1))
        panel[first : first + take, fy - spec.year_start, col[FLOOD_COLUMN]] = 1.0
        events.append(
            FloodEvent(
                route_name=route_names[r],
                flood_year=fy,
                start_marker=section_ids[first],
                end_marker=section_ids[first + take - 1],
            )
        )

    # Initial-year IRI, compensated for the drift accumulated over the panel.
    mean_elapsed = (len(years) - 1) / 2.0
    var_elapsed = (len(years) ** 2 - 1) / 12.0
    init_mean = _IRI_TARGET_MEAN - gt.drift * mean_elapsed
    init_var = max(_IRI_TARGET_STD**2 - gt.drift**2 * var_elapsed, 100.0)
    try:
        loc, scale = _initial_iri_params(init_mean, math.sqrt(init_var))
    except ValueError as exc:
        raise ValueError(
            f"{exc}; it follows from the target IRI mean {_IRI_TARGET_MEAN} and SD "
            f"{_IRI_TARGET_STD} with drift {gt.drift} over {spec.year_start}-{spec.year_end}"
        ) from None
    iri = col[IRI_COLUMN]
    panel[:, 0, iri] = _truncated_normal_draws(rng, loc, scale, n)
    noise = gt.noise_std * rng.standard_normal((n, len(years)))
    for t in range(len(years) - 1):
        now = panel[:, t, :-1]
        panel[:, t + 1, iri] = now[:, iri] + gt.step_matrix(now, FEATURE_COLUMNS) + noise[:, t]
    panel[:, :-1, -1] = panel[:, 1:, iri]
    panel[:, -1, -1] = math.nan

    row_keys = tuple(
        (route_names[r], section_ids[s], y) for s, r in enumerate(section_route.tolist()) for y in years
    )
    table = DataTable(columns, panel.reshape(-1, len(columns)), encodings, row_keys)
    return table, events, gt


def records_csv_text(table: DataTable) -> str:
    """Render a table in the records-CSV format the loader reads back losslessly.

    Numbers are written as their shortest round-trip decimal, encoded
    columns as their labels, and NaN as an empty cell.
    """
    columns = list(zip(*table.row_keys))
    for name, values in zip(table.column_names, table.values.T.tolist()):
        labels = table.encodings.get(name)
        columns.append(
            ["" if math.isnan(v) else repr(v) if labels is None else labels[int(v)] for v in values]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(KEY_COLUMNS) + list(table.column_names))
    writer.writerows(zip(*columns))
    return buf.getvalue()


def events_csv_text(events: list[FloodEvent]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ROUTE_NAME", "FLOOD_YEAR", "START_MARKER", "END_MARKER"])
    for ev in events:
        writer.writerow(
            [ev.route_name, str(ev.flood_year), ev.start_marker or "", ev.end_marker or ""]
        )
    return buf.getvalue()


def write_dataset(table: DataTable, events, gt: GroundTruth, records_path, events_path, truth_path):
    write_text_atomic(records_path, records_csv_text(table))
    write_text_atomic(events_path, events_csv_text(events))
    write_text_atomic(truth_path, "".join(json_chunks(gt.to_dict(), sort_keys=True)) + "\n")

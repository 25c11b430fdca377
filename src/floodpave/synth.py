"""Seeded synthetic PMIS-like data with a known next-year-IRI ground truth.

Sections evolve as a yearly panel: the roughness step from one year to
the next is a configurable drift plus linear feature terms, optional
pairwise interaction terms on nominally standardized features, a flood
bump in flood years, and Gaussian noise. The target column of a record
is exactly the following year's roughness, so the ground-truth function
doubles as an oracle for model fits and attribution engines.

The initial IRI is a normal truncated below at 26 whose mean and SD
match the paper's. Its moments are closed-form (`math.erfc`), a Newton
solve finds the pre-truncation (loc, scale), and the draw is an inverse
CDF through `statistics.NormalDist` (Wichura's AS241). It consumes the
random stream exactly as `scipy.stats.truncnorm.rvs` does, one uniform
per section, so every later draw matches what scipy would give; the
scipy oracle tests check both. `statistics` is imported inside the
function that draws, because the package imports this module and every
other command would pay for it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import stage_rng, write_text_atomic
from .dataset import (
    DataTable,
    FEATURE_COLUMNS,
    KEY_COLUMNS,
    TARGET_COLUMN,
)
from .floods import FloodEvent

IRI = "TX_IRI_AVERAGE_SCORE"
FLOOD = "Flood"
CLIMATE = "CLIMATE_ZONES"
CLIMATE_LABELS = ("west", "east", "north", "south", "central")

# Nominal feature scales used to standardize interaction terms; these are
# part of the ground-truth record so attributions stay computable.
NOMINAL_SCALES = {
    "TX_CONDITION_SCORE": (93.91, 13.87),
    "TX_DISTRESS_SCORE": (95.70, 11.35),
    "TX_IRI_AVERAGE_SCORE": (100.61, 54.17),
    "TX_TRUCK_AADT_PCT": (17.60, 8.52),
    "TX_CURRENT_18KIP_MEAS": (1096.57, 978.45),
    "TX_PVMNT_TYPE_DTL_RD_LIFE_CODE": (8.74, 1.98),
    "CLIMATE_ZONES": (2.0, 1.41),
    "TX_RURAL_URBAN_CODE": (1.03, 0.21),
    "Flood": (0.05, 0.21),
}

_IRI_TARGET_MEAN = 100.61
_IRI_TARGET_STD = 54.17
_IRI_FLOOR = 26.0


@dataclass(frozen=True)
class GroundTruth:
    """The data-generating next-year-IRI function.

    next_iri = iri + drift + sum_j weights[j] * x_j
               + sum (i, j, c) in interactions: c * z_i * z_j
               + flood_bump * flood + noise,  z = nominally standardized.
    """

    weights: dict = field(default_factory=dict)
    flood_bump: float = 5.0
    drift: float = 2.0
    noise_std: float = 0.0
    interactions: tuple = ()  # (feature_i, feature_j, coefficient)

    def step_matrix(self, X: np.ndarray, feature_names) -> np.ndarray:
        """Noise-free yearly IRI increment for each feature row."""
        names = list(feature_names)
        out = np.full(X.shape[0], float(self.drift))
        for name, w in self.weights.items():
            out += w * X[:, names.index(name)]
        for fi, fj, c in self.interactions:
            zi = _nominal_z(X[:, names.index(fi)], fi)
            zj = _nominal_z(X[:, names.index(fj)], fj)
            out += c * zi * zj
        out += self.flood_bump * X[:, names.index(FLOOD)]
        return out

    def predict_next(self, X: np.ndarray, feature_names) -> np.ndarray:
        """Noise-free ground-truth prediction of next year's IRI."""
        names = list(feature_names)
        return X[:, names.index(IRI)] + self.step_matrix(X, feature_names)

    def linear_coefficients(self, feature_names) -> np.ndarray:
        """Raw-space linear coefficients of predict_next (interactions excluded)."""
        coefs = np.zeros(len(feature_names))
        for j, name in enumerate(feature_names):
            w = self.weights.get(name, 0.0)
            if name == IRI:
                w += 1.0
            if name == FLOOD:
                w += self.flood_bump
            coefs[j] = w
        return coefs

    def to_dict(self) -> dict:
        return {
            "weights": dict(self.weights),
            "flood_bump": self.flood_bump,
            "drift": self.drift,
            "noise_std": self.noise_std,
            "interactions": [list(t) for t in self.interactions],
            "nominal_scales": {k: list(v) for k, v in NOMINAL_SCALES.items()},
        }


def _nominal_z(values: np.ndarray, name: str) -> np.ndarray:
    mean, std = NOMINAL_SCALES[name]
    return (values - mean) / std


@dataclass(frozen=True)
class SynthSpec:
    n_sections: int
    year_start: int = 2010
    year_end: int = 2018
    flood_fraction: float = 0.05
    sections_per_route: int = 10
    ground_truth: GroundTruth = field(default_factory=GroundTruth)
    seed: int = 0

    def __post_init__(self):
        if self.n_sections < 1:
            raise ValueError("n_sections must be >= 1")
        if self.year_end <= self.year_start:
            raise ValueError("need at least two panel years")
        if not (0.0 <= self.flood_fraction <= 1.0):
            raise ValueError("flood_fraction must be in [0, 1]")


_NEWTON_MAX_STEPS = 50
_NEWTON_RTOL = 1e-12  # on (mean - floor) / SD, relative to its target


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
    it without overshooting.
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
    from statistics import NormalDist

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
    years = list(range(spec.year_start, spec.year_end + 1))
    n_years = len(years)

    n_flooded = int(round(spec.flood_fraction * n))
    flood_year_lo, flood_year_hi = spec.year_start + 3, spec.year_end - 1
    if n_flooded > 0 and flood_year_lo > flood_year_hi:
        raise ValueError(
            "flooded sections need a year span of >= 5 so pre/post observations exist"
        )

    # Route layout: contiguous blocks of sections, zero-padded ids so the
    # marker order is lexicographic.
    n_routes = (n + spec.sections_per_route - 1) // spec.sections_per_route
    route_names = [f"FM{101 + 7 * r:04d}" for r in range(n_routes)]
    section_route = np.repeat(np.arange(n_routes), spec.sections_per_route)[:n]
    section_ids = []
    next_in_route = {}
    for r in section_route:
        k = next_in_route.get(r, 0)
        next_in_route[r] = k + 1
        section_ids.append(f"{k:04d}")

    # Static per-section features.
    distress_z = rng.standard_normal(n)
    cond_z = 0.87 * distress_z + math.sqrt(1 - 0.87**2) * rng.standard_normal(n)
    distress = np.clip(95.70 + 11.35 * distress_z, 0, 100)
    condition = np.clip(93.91 + 13.87 * cond_z, 0, 100)
    truck = np.clip(17.60 + 8.52 * rng.standard_normal(n), 0, 56.9)
    kip = np.clip(1096.57 + 978.45 * rng.standard_normal(n), 0, 8123)
    pvmnt = rng.choice(
        np.arange(1, 11),
        size=n,
        p=[0.01, 0.01, 0.02, 0.03, 0.05, 0.08, 0.05, 0.10, 0.25, 0.40],
    ).astype(float)
    rural = rng.choice([1.0, 2.0, 3.0, 4.0], size=n, p=[0.97, 0.015, 0.01, 0.005])
    route_climate = rng.choice(np.arange(len(CLIMATE_LABELS)), size=n_routes)
    climate_label = [CLIMATE_LABELS[int(route_climate[r])] for r in section_route]

    # Flood assignment: walk routes, flooding the first half of each
    # route's sections until the target count is reached.
    flooded = np.zeros(n, dtype=bool)
    flood_year_of_route = {}
    events = []
    remaining = n_flooded
    for r in range(n_routes):
        if remaining <= 0:
            break
        members = np.nonzero(section_route == r)[0]
        take = min(remaining, max(1, len(members) // 2))
        chosen = members[:take]
        flooded[chosen] = True
        remaining -= take
        fy = int(rng.integers(flood_year_lo, flood_year_hi + 1))
        flood_year_of_route[r] = fy
        events.append(
            FloodEvent(
                route_name=route_names[r],
                flood_year=fy,
                start_marker=section_ids[chosen[0]],
                end_marker=section_ids[chosen[-1]],
            )
        )

    # Initial-year IRI, compensated for the drift accumulated over the panel.
    mean_elapsed = (n_years - 1) / 2.0
    var_elapsed = (n_years**2 - 1) / 12.0
    init_mean = _IRI_TARGET_MEAN - gt.drift * mean_elapsed
    init_var = max(_IRI_TARGET_STD**2 - gt.drift**2 * var_elapsed, 100.0)
    try:
        loc, scale = _initial_iri_params(init_mean, math.sqrt(init_var))
    except ValueError as exc:
        raise ValueError(
            f"{exc}; it follows from the target IRI mean {_IRI_TARGET_MEAN} and SD "
            f"{_IRI_TARGET_STD} with drift {gt.drift} over {spec.year_start}-{spec.year_end}"
        ) from None
    iri = _truncated_normal_draws(rng, loc, scale, n)

    static = {
        "TX_CONDITION_SCORE": condition,
        "TX_DISTRESS_SCORE": distress,
        "TX_TRUCK_AADT_PCT": truck,
        "TX_CURRENT_18KIP_MEAS": kip,
        "TX_PVMNT_TYPE_DTL_RD_LIFE_CODE": pvmnt,
        "TX_RURAL_URBAN_CODE": rural,
    }

    # First-appearance climate encoding, matching what a CSV reload does.
    climate_codes = np.empty(n)
    encodings: dict[str, list[str]] = {CLIMATE: []}
    label_index: dict[str, int] = {}
    order = []  # row emission order is section-major, year-minor
    for s in range(n):
        for y in years:
            order.append((s, y))
    for s, _ in order:
        lbl = climate_label[s]
        if lbl not in label_index:
            label_index[lbl] = len(encodings[CLIMATE])
            encodings[CLIMATE].append(lbl)
    for s in range(n):
        climate_codes[s] = label_index[climate_label[s]]

    columns = tuple(FEATURE_COLUMNS) + (TARGET_COLUMN,)
    values = np.empty((n * n_years, len(columns)))
    row_keys = []
    noise = gt.noise_std * rng.standard_normal((n, n_years))

    iri_panel = np.empty((n, n_years))
    flood_panel = np.zeros((n, n_years))
    for s in range(n):
        r = section_route[s]
        fy = flood_year_of_route.get(r)
        if flooded[s] and fy is not None:
            flood_panel[s, years.index(fy)] = 1.0
    iri_panel[:, 0] = iri
    feature_order = list(FEATURE_COLUMNS)
    for t in range(n_years - 1):
        X_t = np.column_stack(
            [
                static["TX_CONDITION_SCORE"],
                static["TX_DISTRESS_SCORE"],
                iri_panel[:, t],
                static["TX_TRUCK_AADT_PCT"],
                static["TX_CURRENT_18KIP_MEAS"],
                static["TX_PVMNT_TYPE_DTL_RD_LIFE_CODE"],
                climate_codes,
                static["TX_RURAL_URBAN_CODE"],
                flood_panel[:, t],
            ]
        )
        iri_panel[:, t + 1] = iri_panel[:, t] + gt.step_matrix(X_t, feature_order) + noise[:, t]

    for i, (s, y) in enumerate(order):
        t = years.index(y)
        row_keys.append((route_names[section_route[s]], section_ids[s], y))
        values[i] = [
            static["TX_CONDITION_SCORE"][s],
            static["TX_DISTRESS_SCORE"][s],
            iri_panel[s, t],
            static["TX_TRUCK_AADT_PCT"][s],
            static["TX_CURRENT_18KIP_MEAS"][s],
            static["TX_PVMNT_TYPE_DTL_RD_LIFE_CODE"][s],
            climate_codes[s],
            static["TX_RURAL_URBAN_CODE"][s],
            flood_panel[s, t],
            iri_panel[s, t + 1] if t + 1 < n_years else math.nan,
        ]

    table = DataTable(columns, values, encodings, tuple(row_keys))
    return table, events, gt


def _format_cell(v: float) -> str:
    if math.isnan(v):
        return ""
    return repr(float(v))  # shortest round-trip decimal


def records_csv_text(table: DataTable) -> str:
    """Render a table in the records-CSV format the loader reads back losslessly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(KEY_COLUMNS) + list(table.column_names))
    for i, (route, section, year) in enumerate(table.row_keys):
        cells = [route, section, str(year)]
        for j, name in enumerate(table.column_names):
            v = table.values[i, j]
            if name in table.encodings and not math.isnan(v):
                cells.append(table.encodings[name][int(v)])
            else:
                cells.append(_format_cell(v))
        writer.writerow(cells)
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
    write_text_atomic(truth_path, json.dumps(gt.to_dict(), indent=2, sort_keys=True) + "\n")

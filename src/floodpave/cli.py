"""Command-line entry point for the full analysis workflow.

Subcommands: synth-gen, describe, flood-analysis, train, explain. Every
command is deterministic given (inputs, config, seed) and re-runs are
byte-identical; reports are JSON plus plot-ready CSV, never images.

Exit codes:
  0 success
  2 usage error (argparse)
  3 schema error (missing/unknown columns, model/data mismatch, a YEAR or
    FLOOD_YEAR cell that is not a finite number, an unknown config key or
    explainer name)
  4 I/O error
  5 empty result or insufficient data (including `explain` on a model with
    no features, refused before any file is written)
  6 numerical failure (singular design, zero variance)

`describe`, `train` and `explain` refuse a records file holding ±inf in
a feature (or, for `train`, target) cell of a complete row: exit 1,
before any file is written. `train` leaves out of every model the
feature columns that are constant on the training split and lists them
in train_summary.json under "dropped_constant_columns"; exit 6 remains
for a design that is still singular after that, and for a zero-variance
target.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import deterioration, lime, models, shapley, synth
from ._util import stage_rng, stage_seed, write_text_atomic
from .dataset import (
    DataTable,
    FEATURE_COLUMNS,
    TARGET_COLUMN,
    describe,
    filter_complete,
    format_stats_table,
    load_csv,
    pearson_corr,
    train_test_split,
)
from .errors import (
    InsufficientDataError,
    SchemaError,
    SingularDesignError,
    ZeroVarianceError,
)
from .floods import apply_maintenance_exclusion, extract_windows, load_events_csv, tag_flooded

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_SCHEMA = 3
EXIT_IO = 4
EXIT_EMPTY = 5
EXIT_NUMERICAL = 6

# Largest |base + sum(phi) - f(x)| that `explain` accepts without a warning.
SHAP_EFFICIENCY_TOLERANCE = 1e-8

MODEL_DISPLAY_NAMES = {
    "linear": "Linear Regression (LR)",
    "ridge": "Ridge Regression (Ridge)",
    "lasso": "Lasso Regression (Lasso)",
    "decision_tree": "Decision Tree (DT)",
    "random_forest": "Random Forest (RF)",
    "gradient_boosting": "Gradient Boosting (GBR)",
}


@dataclass
class RunConfig:
    """Defaults for a full run; every field is overridable via JSON config or flags."""

    records_csv: str = "records.csv"
    events_csv: str = "events.csv"
    out_dir: str = "out"
    seed: int = 0
    workers: int = 1
    quiet: bool = False
    test_fraction: float = 0.2
    cv_folds: int = 5
    model_kinds: list = field(default_factory=lambda: list(models.MODEL_KINDS))
    grids: dict = field(default_factory=dict)  # kind -> grid override
    synth: dict = field(default_factory=dict)
    lime: dict = field(default_factory=dict)
    shap: dict = field(default_factory=dict)
    explain: dict = field(default_factory=dict)

    @classmethod
    def from_sources(cls, config_path: str | None, overrides: dict) -> "RunConfig":
        cfg = cls()
        if config_path:
            with open(config_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            for key, value in doc.items():
                if not hasattr(cfg, key):
                    raise SchemaError(f"unknown config key {key!r}")
                if isinstance(getattr(cfg, key), dict) and not isinstance(value, dict):
                    raise SchemaError(f"config key {key!r} must be a JSON object")
                setattr(cfg, key, value)
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
        return cfg


def _say(config: RunConfig, message: str) -> None:
    if not config.quiet:
        print(message, file=sys.stderr)


def _out_path(config: RunConfig, name: str) -> str:
    import os

    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(obj, path) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n")


def _dump_csv(rows, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    write_text_atomic(path, buf.getvalue())


def _fmt(v) -> str:
    if v is None:
        return ""
    v = float(v)
    return "" if math.isnan(v) else repr(v)


def _load_records(config: RunConfig) -> DataTable:
    return load_csv(config.records_csv, schema=FEATURE_COLUMNS)


def _present_features(table: DataTable) -> list[str]:
    return [c for c in FEATURE_COLUMNS if c in table.column_names]


def _refuse_non_finite(table: DataTable, columns: list[str]) -> None:
    """Raise ValueError naming the columns of `table` that hold ±inf or NaN.

    filter_complete drops NaN only. An inf cell would make np.std NaN, so a
    column would be dropped as constant, reach a report as a non-JSON
    Infinity, or become a tree threshold.
    """
    bad = [c for c in columns if not np.isfinite(table.col(c)).all()]
    if bad:
        raise ValueError(f"non-finite value(s) in column(s) {bad}; fix or drop those rows")


def _varying_columns(table: DataTable, columns: list[str]) -> list[str]:
    """The columns of `columns` whose values are not all equal in `table`."""
    return [c for c in columns if float(np.std(table.col(c))) > 0.0]


# ---------------------------------------------------------------- synth-gen


def cmd_synth_gen(config: RunConfig) -> int:
    params = dict(config.synth)
    gt_params = params.pop("ground_truth", {})
    gt = synth.GroundTruth(
        weights=dict(gt_params.get("weights", {})),
        flood_bump=float(gt_params.get("flood_bump", 5.0)),
        drift=float(gt_params.get("drift", 2.0)),
        noise_std=float(gt_params.get("noise_std", 2.0)),
        interactions=tuple(tuple(t) for t in gt_params.get("interactions", ())),
    )
    spec = synth.SynthSpec(
        n_sections=int(params.get("n_sections", 1114)),
        year_start=int(params.get("year_start", 2010)),
        year_end=int(params.get("year_end", 2018)),
        flood_fraction=float(params.get("flood_fraction", 0.05)),
        sections_per_route=int(params.get("sections_per_route", 10)),
        ground_truth=gt,
        seed=config.seed,
    )
    table, events, gt = synth.generate(spec)
    records = _out_path(config, "records.csv")
    events_path = _out_path(config, "events.csv")
    truth = _out_path(config, "ground_truth.json")
    synth.write_dataset(table, events, gt, records, events_path, truth)
    _say(config, f"[synth-gen] {table.n_rows} records, {len(events)} flood events -> {config.out_dir}")
    return EXIT_OK


# ----------------------------------------------------------------- describe


def cmd_describe(config: RunConfig) -> int:
    table = _load_records(config)
    features = _present_features(table)
    complete = filter_complete(table, features)
    _refuse_non_finite(complete, features)
    stats = describe(complete, features)

    # Table layout echoes the encoded-label convention for categoricals.
    display = type(stats)(
        columns=tuple(
            f"{c}_encoded" if c in complete.encodings else c for c in stats.columns
        ),
        by_column={
            (f"{c}_encoded" if c in complete.encodings else c): stats[c] for c in stats.columns
        },
    )
    write_text_atomic(_out_path(config, "stats.txt"), format_stats_table(display))
    _dump_json(
        {
            name: {
                "mean": s.mean,
                "std_dev": s.std_dev,
                "min": s.minimum,
                "q25": s.q25,
                "max": s.maximum,
            }
            for name, s in display.by_column.items()
        },
        _out_path(config, "stats.json"),
    )

    variable = _varying_columns(complete, features)
    skipped = sorted(set(features) - set(variable))
    if skipped:
        _say(config, f"[describe] zero-variance column(s) left out of the correlation: {skipped}")
    corr = pearson_corr(complete, variable)
    rows = [[""] + list(corr.labels)]
    for i, label in enumerate(corr.labels):
        rows.append([label] + [repr(float(v)) for v in corr.values[i]])
    _dump_csv(rows, _out_path(config, "correlation.csv"))
    _say(config, f"[describe] {complete.n_rows} complete rows -> {config.out_dir}")
    return EXIT_OK


# ----------------------------------------------------------- flood-analysis


def cmd_flood_analysis(config: RunConfig) -> int:
    table = _load_records(config)
    events = load_events_csv(config.events_csv)
    tagged, warnings = tag_flooded(table, events)
    for warning in warnings:
        _say(config, f"[flood-analysis] warning: {warning}")

    flooded_raw, summary_f = extract_windows(tagged, events, include="flooded")
    control_raw, summary_nf = extract_windows(tagged, events, include="nonflooded")
    flooded = apply_maintenance_exclusion(flooded_raw)
    control = apply_maintenance_exclusion(control_raw)

    deltas = deterioration.pre_post_deltas(flooded)
    rates = deterioration.rate_comparison(flooded)
    paired = deterioration.flooded_vs_nonflooded(flooded, control)

    report = {
        "warnings": warnings,
        "extraction": {
            "flooded": {"candidates": summary_f.candidates, "extracted": summary_f.extracted, "dropped": summary_f.dropped},
            "nonflooded": {"candidates": summary_nf.candidates, "extracted": summary_nf.extracted, "dropped": summary_nf.dropped},
            "maintenance_excluded_flooded": len(flooded_raw) - len(flooded),
            "maintenance_excluded_nonflooded": len(control_raw) - len(control),
        },
        "pre_post_deltas": {"mean": deltas.mean, "std_dev": deltas.std_dev, "count": deltas.count},
        "rate_comparison": {
            "before_rate": rates.before_rate,
            "after_rate": rates.after_rate,
            "count": rates.count,
        },
        "flooded_vs_nonflooded": {
            "mean_diff": paired.mean_diff,
            "min_diff": paired.min_diff,
            "max_diff": paired.max_diff,
            "count": paired.count,
        },
    }
    _dump_json(report, _out_path(config, "flood_summary.json"))
    write_text_atomic(_out_path(config, "flood_summary.txt"), _flood_text_report(report))

    _dump_csv(
        [["route", "section_id", "flood_year", "iri_minus1", "iri_plus1", "delta"]]
        + [
            [w.route_name, w.section_id, w.flood_year, _fmt(w.iri_minus1), _fmt(w.iri_plus1), _fmt(w.delta)]
            for w in flooded
        ],
        _out_path(config, "deltas.csv"),
    )
    _dump_csv(
        [["route", "avg_iri_minus3", "avg_iri_minus1", "avg_iri_plus1"]]
        + [[r, _fmt(m3), _fmt(m1), _fmt(p1)] for r, m3, m1, p1 in rates.per_route],
        _out_path(config, "rates.csv"),
    )
    _dump_csv(
        [["route", "section_id", "flood_year", "diff"]]
        + [[k[0], k[1], k[2], _fmt(d)] for k, d in paired.per_section],
        _out_path(config, "flooded_vs_nonflooded.csv"),
    )

    if deltas.count == 0:
        _say(config, "[flood-analysis] no qualifying windows")
        return EXIT_EMPTY
    _say(config, f"[flood-analysis] {deltas.count} windows -> {config.out_dir}")
    return EXIT_OK


def _flood_text_report(report: dict) -> str:
    def num(v):
        return "n/a" if v is None else f"{v:.2f}"

    d = report["pre_post_deltas"]
    r = report["rate_comparison"]
    p = report["flooded_vs_nonflooded"]
    lines = [
        "Flood impact summary",
        "--------------------",
        f"windows analyzed            {d['count']}",
        f"mean IRI increase (in/mi)   {num(d['mean'])}",
        f"std dev (in/mi)             {num(d['std_dev'])}",
        f"rate before flood (2 yr)    {num(r['before_rate'])}",
        f"rate after flood (2 yr)     {num(r['after_rate'])}",
        f"flooded vs non-flooded mean {num(p['mean_diff'])}",
        f"flooded vs non-flooded min  {num(p['min_diff'])}",
        f"flooded vs non-flooded max  {num(p['max_diff'])}",
    ]
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- train


def _model_columns(table: DataTable) -> list[str]:
    return _present_features(table)


def _training_frame(config: RunConfig):
    table = _load_records(config)
    features = _model_columns(table)
    if TARGET_COLUMN not in table.column_names:
        raise SchemaError(f"training requires a {TARGET_COLUMN} column")
    complete = filter_complete(table, features + [TARGET_COLUMN])
    if complete.n_rows < 2:
        raise InsufficientDataError("no complete training rows after filtering")
    _refuse_non_finite(complete, features + [TARGET_COLUMN])
    return complete, features


def cmd_train(config: RunConfig) -> int:
    complete, features = _training_frame(config)
    train, test = train_test_split(complete, config.test_fraction, config.seed)
    varying = _varying_columns(train, features)
    dropped = [c for c in features if c not in varying]
    if dropped:
        _say(config, f"[train] zero-variance column(s) left out of the models: {dropped}")
    features = varying
    X_train = train.matrix(features)
    y_train = train.col(TARGET_COLUMN)
    X_test = test.matrix(features)
    y_test = test.col(TARGET_COLUMN)

    results = []
    best_by_mse = None
    for kind in config.model_kinds:
        grid = config.grids.get(kind, models.default_grid(kind))
        seed = int(stage_seed(config.seed, "train", models.MODEL_KINDS.index(kind)).generate_state(1)[0])
        if grid:
            cv = models.grid_search_cv(kind, grid, X_train, y_train, config.cv_folds, seed)
            best_spec = cv.best_spec
        else:
            best_spec = models.ModelSpec(kind, {}, seed)
        predictor = models.fit(best_spec, X_train, y_train, feature_names=features)
        metrics = models.evaluate(predictor, X_test, y_test)
        model_file = f"model_{kind}.json"
        models.save_model(predictor, _out_path(config, model_file))
        results.append(
            {
                "kind": kind,
                "display": MODEL_DISPLAY_NAMES[kind],
                "hyperparameters": dict(best_spec.hyperparameters),
                "mse": metrics.mse,
                "mae": metrics.mae,
                "r2": metrics.r2,
                "model_file": model_file,
            }
        )
        if best_by_mse is None or metrics.mse < best_by_mse[0]:
            best_by_mse = (metrics.mse, kind)
        _say(config, f"[train] {kind}: mse={metrics.mse:.4f} mae={metrics.mae:.4f} r2={metrics.r2:.4f}")

    _dump_csv(
        [["Model", "MSE", "MAE", "R2"]]
        + [[r["display"], _fmt(r["mse"]), _fmt(r["mae"]), _fmt(r["r2"])] for r in results],
        _out_path(config, "model_comparison.csv"),
    )
    lines = [f"{'Model':34}{'MSE':>12}{'MAE':>10}{'R2':>9}"]
    for r in results:
        lines.append(f"{r['display']:34}{r['mse']:>12.4f}{r['mae']:>10.4f}{r['r2']:>9.4f}")
    write_text_atomic(_out_path(config, "model_comparison.txt"), "\n".join(lines) + "\n")
    _dump_json(
        {
            "train_rows": train.n_rows,
            "test_rows": test.n_rows,
            "results": results,
            "best_kind": best_by_mse[1],
            "dropped_constant_columns": dropped,
        },
        _out_path(config, "train_summary.json"),
    )
    _say(config, f"[train] best by test MSE: {best_by_mse[1]}")
    return EXIT_OK


# ------------------------------------------------------------------ explain


def _select_instances(table: DataTable, selector: str, seed: int) -> np.ndarray:
    if selector == "all":
        return np.arange(table.n_rows)
    if selector.startswith("sample:"):
        n = int(selector.split(":", 1)[1])
        if n < 1:
            raise ValueError("sample size must be >= 1")
        rng = stage_rng(seed, "explain-sample")
        n = min(n, table.n_rows)
        return np.sort(rng.choice(table.n_rows, size=n, replace=False))
    if selector.startswith("key:"):
        route, section, year = selector.split(":", 1)[1].split(",")
        key = (route, section, int(year))
        idx = [i for i, k in enumerate(table.row_keys) if k == key]
        if not idx:
            raise InsufficientDataError(f"no row with key {key}")
        return np.array(idx)
    raise ValueError(f"bad instance selector {selector!r}; use all, sample:N, or key:R,S,Y")


def _safe_name(key) -> str:
    return "_".join(str(part).replace("/", "-").replace(" ", "-") for part in key)


EXPLAIN_KEYS = ("model_path", "instances", "explainers")
EXPLAINERS = ("shap", "lime")


def _section_config(cls, name: str, section: dict, **extra):
    """Build config dataclass `cls` from config section `name`, refusing unknown keys.

    `seed` comes from the root config. Integer and boolean fields are
    coerced, so 100.0 is a valid background_size.
    """
    defaults = {f.name: f.default for f in fields(cls) if f.name != "seed"}
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise SchemaError(f"unknown {name} config key(s) {unknown}; allowed: {sorted(defaults)}")
    kwargs = {}
    for key, value in section.items():
        kind = type(defaults[key])
        try:
            kwargs[key] = kind(value) if kind in (int, bool) else value
        except (TypeError, ValueError):
            raise SchemaError(f"{name}.{key} must be an integer, got {value!r}") from None
    return cls(**kwargs, **extra)


def _check_explain_section(section: dict) -> list[str]:
    """The explainers that config section `explain` asks for; refuses unknown keys and names."""
    unknown = sorted(set(section) - set(EXPLAIN_KEYS))
    if unknown:
        raise SchemaError(f"unknown explain config key(s) {unknown}; allowed: {sorted(EXPLAIN_KEYS)}")
    explainers = section.get("explainers", list(EXPLAINERS))
    if not isinstance(explainers, list) or not explainers:
        raise SchemaError(f"explain.explainers must be a non-empty list drawn from {list(EXPLAINERS)}")
    unknown = [e for e in explainers if e not in EXPLAINERS]
    if unknown:
        raise SchemaError(f"unknown explainer(s) {unknown}; choose from {list(EXPLAINERS)}")
    return explainers


def cmd_explain(config: RunConfig) -> int:
    explainers = _check_explain_section(config.explain)
    shap_cfg = _section_config(shapley.ShapConfig, "shap", config.shap, seed=config.seed)
    lime_base = _section_config(lime.LimeConfig, "lime", config.lime)
    model_path = config.explain.get("model_path")
    if not model_path:
        raise SchemaError("explain requires explain.model_path (or --model-path)")
    predictor = models.load_model(model_path)
    if not predictor.feature_names:
        raise InsufficientDataError(f"model {model_path} has no features to explain")
    table = _load_records(config)

    missing = [c for c in predictor.feature_names if c not in table.column_names]
    if missing:
        raise SchemaError(f"model expects column(s) absent from the dataset: {missing}")
    features = list(predictor.feature_names)
    complete = filter_complete(table, features)
    if complete.n_rows == 0:
        raise InsufficientDataError("no complete rows to explain")
    _refuse_non_finite(complete, features)

    # Background comes from the same training split the models saw.
    train, _ = train_test_split(complete, config.test_fraction, config.seed)

    selector = config.explain.get("instances", "sample:5")
    idx = _select_instances(complete, selector, config.seed)
    X = complete.matrix(features)[idx]
    keys = [complete.row_keys[i] for i in idx]

    if "shap" in explainers:
        background = shapley.draw_background(
            train, features, shap_cfg.background_size, config.seed
        )
        values = shapley.shapley_values(
            predictor, X, background, shap_cfg, n_workers=config.workers
        )
        _dump_csv(
            [["route", "section_id", "year"] + features + ["base_value"]]
            + [
                list(keys[i])
                + [_fmt(v) for v in values.phi[i]]
                + [_fmt(values.base_value)]
                for i in range(len(keys))
            ],
            _out_path(config, "shap_phi.csv"),
        )
        explained = complete.subset(idx)
        importance = shapley.summarize(values, explained)
        gaps = np.abs(values.base_value + values.phi.sum(axis=1) - predictor.predict(X))
        residual = float(np.max(gaps, initial=0.0))
        _dump_json(
            {
                "ranking": list(importance.ranking),
                "mean_abs": importance.mean_abs,
                "max_efficiency_residual": residual,
            },
            _out_path(config, "shap_summary.json"),
        )
        if residual > SHAP_EFFICIENCY_TOLERANCE:
            _say(
                config,
                f"[explain] warning: SHAP efficiency residual {residual:.3e} "
                f"exceeds {SHAP_EFFICIENCY_TOLERANCE:g}",
            )
        spans = {
            name: (float(np.min(explained.col(name))), float(np.max(explained.col(name))))
            for name in features
        }
        rows = [["feature", "phi", "value", "scaled_value"]]
        for feature, phi, value in importance.points:
            lo, hi = spans[feature]
            scaled = 0.0 if hi == lo else (value - lo) / (hi - lo)
            rows.append([feature, _fmt(phi), _fmt(value), _fmt(scaled)])
        _dump_csv(rows, _out_path(config, "shap_beeswarm.csv"))
        _say(config, f"[explain] SHAP ({shap_cfg.mode}) over {len(keys)} instance(s)")

    if "lime" in explainers:
        stats = lime.training_stats(train, features, lime_base.n_bins)

        def explain_one(i: int):
            seed = int(stage_seed(config.seed, "lime", int(idx[i])).generate_state(1)[0])
            cfg = replace(lime_base, seed=seed)
            return lime.fit_local_surrogate(
                predictor, X[i], train, cfg, instance_key=keys[i], stats=stats
            )

        indices = range(len(keys))
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                explanations = list(pool.map(explain_one, indices))
        else:
            explanations = [explain_one(i) for i in indices]

        _dump_json(
            [e.to_dict() for e in explanations], _out_path(config, "lime_explanations.json")
        )
        for e in explanations:
            _dump_csv(
                [["condition", "weight"]]
                + [[c.condition, _fmt(c.weight)] for c in e.contributions],
                _out_path(config, f"lime_{_safe_name(e.instance_key)}.csv"),
            )
        _say(config, f"[explain] LIME over {len(keys)} instance(s)")

    return EXIT_OK


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodpave",
        description="Flood-impact pavement roughness analytics and attribution toolkit",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="root seed for all stages")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument(
        "--workers", type=int, help="worker threads for explain (SHAP and LIME); train runs in one thread"
    )
    parser.add_argument("--quiet", action="store_true", default=None, help="suppress progress lines")
    parser.add_argument("--records", dest="records_csv", help="section-year records CSV")
    parser.add_argument("--events", dest="events_csv", help="flood events CSV")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth-gen", help="generate a synthetic dataset with known ground truth")
    sub.add_parser("describe", help="descriptive statistics and correlation matrix")
    sub.add_parser("flood-analysis", help="pre/post flood deterioration statistics")
    train = sub.add_parser("train", help="grid-search CV, train, and evaluate the six models")
    train.add_argument("--kinds", help="comma-separated subset of model kinds")
    explain = sub.add_parser("explain", help="SHAP and LIME attributions for a saved model")
    explain.add_argument("--model-path", help="persisted model JSON")
    explain.add_argument("--instances", help="all | sample:N | key:ROUTE,SECTION,YEAR")
    explain.add_argument("--explainers", help="comma-separated subset of {shap,lime}")
    return parser


_HANDLERS = {
    "synth-gen": cmd_synth_gen,
    "describe": cmd_describe,
    "flood-analysis": cmd_flood_analysis,
    "train": cmd_train,
    "explain": cmd_explain,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        key: getattr(args, key, None)
        for key in ("records_csv", "events_csv", "out_dir", "seed", "workers", "quiet")
    }
    try:
        config = RunConfig.from_sources(args.config, overrides)
        if args.command == "train" and getattr(args, "kinds", None):
            config.model_kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
            unknown = set(config.model_kinds) - set(models.MODEL_KINDS)
            if unknown:
                raise SchemaError(f"unknown model kind(s) {sorted(unknown)}")
        if args.command == "explain":
            if getattr(args, "model_path", None):
                config.explain["model_path"] = args.model_path
            if getattr(args, "instances", None):
                config.explain["instances"] = args.instances
            if getattr(args, "explainers", None) is not None:
                config.explain["explainers"] = [
                    e.strip() for e in args.explainers.split(",") if e.strip()
                ]
        return _HANDLERS[args.command](config)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (InsufficientDataError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (SingularDesignError, ZeroVarianceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

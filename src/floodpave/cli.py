"""Command-line entry point for the full analysis workflow.

Subcommands: synth-gen, describe, flood-analysis, train, explain. Every
command is deterministic given (inputs, config, seed) and re-runs are
byte-identical; reports are JSON plus plot-ready CSV, never images.

Exit codes:
  0 success
  2 usage error (argparse)
  3 schema error (missing/unknown columns, model/data mismatch, a YEAR or
    FLOOD_YEAR cell that is not a finite number, a records, events or
    config file that is not UTF-8 text, a records or events file the csv
    module cannot parse, a config file that is not a JSON object, an
    unknown config key, model kind or explainer name, a config value or
    flag of the wrong type, out of its range or a non-finite number, a
    grid that does not expand to valid model specs, a malformed
    `--instances` selector, two instances that would write one LIME
    file). Every command checks the whole config, each section included,
    and refuses its errors before it reads any input file. A leading UTF-8
    byte-order mark in a records, events or config file is ignored.
  4 I/O error
  5 empty result or insufficient data (including a records file with no
    data row, named in the message, and `explain` on a model with no
    features, both refused before any file is written)
  6 numerical failure (singular design, zero variance)

`describe`, `train` and `explain` refuse a records file holding ±inf in
a feature (or, for `train`, target) cell of a complete row: exit 1,
before any file is written. `train` leaves out of every model the
feature columns that are constant on the training split and lists them
in train_summary.json under "dropped_constant_columns"; exit 6 remains
for a design that is still singular after that, and for a zero-variance
target. `train` writes cv_results.csv: one row per grid-search candidate
of each kind, with its hyperparameters, the MSE of every fold, their
mean, and whether it was scored on its own fit or on an `n_estimators`
prefix or a depth truncation of another candidate's fit.

`explain` draws one LIME neighborhood per run and shares it between
the instances, in one thread. `--workers` (config key `workers`) sizes
only the thread pool of SHAP in `explain`.

Each command imports only the modules it runs. Importing this module
loads the typed config (`config`), the records loader (`dataset`) and
the model kinds (`models.spec`), and nothing else of the package: the
`floodpave` and `floodpave.models` packages resolve their names on
first use, and `synth`, `floods`, `deterioration`, `shapley`, `lime`,
the model fitting and IO code, and `concurrent.futures` (only for SHAP
with `workers` > 1) are imported inside the commands that use them. So
`describe` loads no model, explainer, flood or generator code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import models
from ._util import stage_rng, stage_seed, write_text_atomic
from .config import INSTANCE_FORMS, ExplainConfig, RunConfig, _parse_instances
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
    """The records file; one with no data row is InsufficientDataError (exit 5)."""
    table = load_csv(config.records_csv, schema=FEATURE_COLUMNS)
    if table.n_rows == 0:
        raise InsufficientDataError(f"{config.records_csv}: no data rows")
    return table


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
    from . import synth

    table, events, gt = synth.generate(replace(config.synth, seed=config.seed))
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
    from . import deterioration
    from .floods import apply_maintenance_exclusion, extract_windows, iri_by_section, load_events_csv, tag_flooded

    table = _load_records(config)
    events = load_events_csv(config.events_csv)
    tagged, warnings = tag_flooded(table, events)
    for warning in warnings:
        _say(config, f"[flood-analysis] warning: {warning}")

    by_section = iri_by_section(tagged)
    flooded_raw, summary_f = extract_windows(tagged, events, "flooded", by_section)
    control_raw, summary_nf = extract_windows(tagged, events, "nonflooded", by_section)
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


def _training_frame(table: DataTable):
    """The rows that `train` splits, and the feature columns present.

    They are the rows complete in every feature column and the target, or,
    in a file without a target column, in the feature columns alone. So
    `explain` splits the same rows as `train` and draws the same training
    part from the same seed and test fraction.
    """
    features = _present_features(table)
    needed = features + [TARGET_COLUMN] if TARGET_COLUMN in table.column_names else features
    complete = filter_complete(table, needed)
    if complete.n_rows < 2:
        raise InsufficientDataError("no complete training rows after filtering")
    _refuse_non_finite(complete, needed)
    return complete, features


def cmd_train(config: RunConfig) -> int:
    complete, features = _training_frame(_load_records(config))
    if TARGET_COLUMN not in complete.column_names:
        raise SchemaError(f"training requires a {TARGET_COLUMN} column")
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
    cv_rows = []
    best_by_mse = None
    for kind in config.model_kinds:
        grid = config.grids.get(kind, models.default_grid(kind))
        seed = int(stage_seed(config.seed, "train", models.MODEL_KINDS.index(kind)).generate_state(1)[0])
        if grid:
            cv = models.grid_search_cv(kind, grid, X_train, y_train, config.cv_folds, seed)
            best_spec = cv.best_spec
            cv_rows += [
                [kind, i, json.dumps(spec.hyperparameters, sort_keys=True)]
                + [_fmt(v) for v in fold_mses]
                + [_fmt(mean), source]
                for i, ((spec, mean), fold_mses, source) in enumerate(
                    zip(cv.per_candidate, cv.fold_mses, cv.sources)
                )
            ]
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

    folds = [f"fold_{f + 1}_mse" for f in range(config.cv_folds)]
    _dump_csv(
        [["kind", "candidate", "hyperparameters"] + folds + ["mean_mse", "scored_as"]] + cv_rows,
        _out_path(config, "cv_results.csv"),
    )
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
    """Row indices named by an ``--instances`` selector; a key naming no row is exit 5."""
    form, arg = _parse_instances(selector)
    if form == "all":
        return np.arange(table.n_rows)
    if form == "sample":
        rng = stage_rng(seed, "explain-sample")
        return np.sort(rng.choice(table.n_rows, size=min(arg, table.n_rows), replace=False))
    idx = [i for i, k in enumerate(table.row_keys) if k == arg]
    if not idx:
        raise InsufficientDataError(f"no row with key {arg}")
    return np.array(idx)


def _safe_name(key) -> str:
    return "_".join(str(part).replace("/", "-").replace(" ", "-") for part in key)


def _lime_files(keys) -> list[str]:
    """The ``lime_*.csv`` name of each key; two keys that would write one file are a SchemaError."""
    owner = {}
    for key in keys:
        name = f"lime_{_safe_name(key)}.csv"
        if name in owner:
            raise SchemaError(f"instances {owner[name]} and {key} would both write {name}")
        owner[name] = key
    return list(owner)


def cmd_explain(config: RunConfig) -> int:
    shap_cfg = replace(config.shap, seed=config.seed)
    model_path = config.explain.model_path
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

    # Background and LIME statistics come from the training split `train` used.
    train, _ = train_test_split(_training_frame(table)[0], config.test_fraction, config.seed)

    idx = _select_instances(complete, config.explain.instances, config.seed)
    X = complete.matrix(features)[idx]
    keys = [complete.row_keys[i] for i in idx]
    if "lime" in config.explain.explainers:
        lime_files = _lime_files(keys)

    if "shap" in config.explain.explainers:
        from . import shapley

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

    if "lime" in config.explain.explainers:
        from . import lime

        stats = lime.training_stats(train, features, config.lime.n_bins)
        seed = int(stage_seed(config.seed, "lime").generate_state(1)[0])
        explanations = lime.fit_local_surrogates(
            predictor, X, keys, train, replace(config.lime, seed=seed), stats
        )

        _dump_json(
            [e.to_dict() for e in explanations], _out_path(config, "lime_explanations.json")
        )
        for e, name in zip(explanations, lime_files):
            _dump_csv(
                [["condition", "weight"]]
                + [[c.condition, _fmt(c.weight)] for c in e.contributions],
                _out_path(config, name),
            )
        _say(config, f"[explain] LIME over {len(keys)} instance(s)")

    return EXIT_OK


# --------------------------------------------------------------------- main


def _names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodpave",
        description="Flood-impact pavement roughness analytics and attribution toolkit",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="root seed for all stages")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument(
        "--workers", type=int, help="worker threads for explain's SHAP pool; train and LIME run in one thread"
    )
    parser.add_argument("--quiet", action="store_true", default=None, help="suppress progress lines and warnings")
    parser.add_argument("--records", dest="records_csv", help="section-year records CSV")
    parser.add_argument("--events", dest="events_csv", help="flood events CSV")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth-gen", help="generate a synthetic dataset with known ground truth")
    sub.add_parser("describe", help="descriptive statistics and correlation matrix")
    sub.add_parser("flood-analysis", help="pre/post flood deterioration statistics")
    train = sub.add_parser("train", help="grid-search CV, train, and evaluate the six models")
    train.add_argument(
        "--kinds", dest="model_kinds", metavar="KINDS", type=_names, help="comma-separated subset of model kinds"
    )
    explain = sub.add_parser("explain", help="SHAP and LIME attributions for a saved model")
    explain.add_argument("--model-path", help="persisted model JSON")
    explain.add_argument("--instances", help=INSTANCE_FORMS)
    explain.add_argument("--explainers", type=_names, help="comma-separated subset of {shap,lime}")
    return parser


_HANDLERS = {
    "synth-gen": cmd_synth_gen,
    "describe": cmd_describe,
    "flood-analysis": cmd_flood_analysis,
    "train": cmd_train,
    "explain": cmd_explain,
}


def _without_warnings(handler, config: RunConfig) -> int:
    """``handler(config)`` with the package's log warnings off stderr, as ``--quiet`` asks."""
    import logging

    logger = logging.getLogger("floodpave")
    level = logger.level
    logger.setLevel(logging.ERROR)
    try:
        return handler(config)
    finally:
        logger.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if v is not None and k not in ("config", "command")}
    flags["explain"] = {f.name: flags.pop(f.name) for f in fields(ExplainConfig) if f.name in flags}
    try:
        config = RunConfig.from_sources(args.config, flags)
        # Only these commands load a module that logs; logging costs the others 10 ms of start-up.
        if config.quiet and args.command in ("flood-analysis", "train", "explain"):
            return _without_warnings(_HANDLERS[args.command], config)
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

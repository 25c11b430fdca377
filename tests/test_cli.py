import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from floodpave import cli, lime, shapley, synth
from floodpave.cli import (
    EXIT_EMPTY,
    EXIT_FAILURE,
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)
from floodpave.errors import InsufficientDataError, SchemaError, SingularDesignError, ZeroVarianceError

from conftest import make_flood_bump_data, manual_linear

SMALL_GRIDS = {
    "ridge": {"alpha": [0.01, 1.0]},
    "lasso": {"alpha": [0.01]},
    "decision_tree": {"max_depth": [4], "min_samples_split": [2], "min_samples_leaf": [1]},
    "random_forest": {"n_estimators": [5], "max_depth": [5], "min_samples_split": [2]},
    "gradient_boosting": {
        "learning_rate": [0.1], "n_estimators": [60], "max_depth": [3], "subsample": [1.0]
    },
}


def write_config(tmp_path, name="config.json", **kv):
    path = tmp_path / name
    path.write_text(json.dumps(kv), encoding="utf-8")
    return str(path)


def make_dataset(tmp_path, subdir="data", **synth_kwargs):
    table, events, gt = make_flood_bump_data(**synth_kwargs)
    d = tmp_path / subdir
    d.mkdir(parents=True, exist_ok=True)
    synth.write_dataset(
        table, events, gt, d / "records.csv", d / "events.csv", d / "truth.json"
    )
    return str(d / "records.csv"), str(d / "events.csv")


def set_constant(records, columns):
    """Rewrite the records CSV with every value of `columns` set to 1."""
    lines = open(records).read().splitlines()
    header = lines[0].split(",")
    const = {header.index(c) for c in columns}
    rewritten = [lines[0]] + [
        ",".join("1" if i in const else v for i, v in enumerate(line.split(",")))
        for line in lines[1:]
    ]
    open(records, "w").write("\n".join(rewritten) + "\n")


def set_cell(records, column, value, complete=True):
    """Rewrite one cell of `column`; with `complete`, in a row that has a target."""
    lines = open(records).read().splitlines()
    header = lines[0].split(",")
    col, target = header.index(column), header.index("NEXT_YEAR_IRI")
    row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[target] or not complete)
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    open(records, "w").write("\n".join(lines) + "\n")


def drop_column(records, column):
    """Rewrite the records CSV without `column`."""
    lines = open(records).read().splitlines()
    drop = lines[0].split(",").index(column)
    rewritten = [",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines]
    open(records, "w").write("\n".join(rewritten) + "\n")


def hash_tree(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestSynthGen:
    def test_writes_three_files(self, tmp_path):
        cfg = write_config(
            tmp_path, out_dir=str(tmp_path / "o"), seed=1,
            synth={"n_sections": 30, "flood_fraction": 0.1},
        )
        assert main(["--config", cfg, "--quiet", "synth-gen"]) == EXIT_OK
        for f in ("records.csv", "events.csv", "ground_truth.json"):
            assert (tmp_path / "o" / f).exists()

    def test_unreachable_initial_iri_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, out_dir=str(tmp_path / "o"), synth={"n_sections": 30, "year_end": 2060}
        )
        assert main(["--config", cfg, "synth-gen"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "cannot be reached" in err and "drift 2.0 over 2010-2060" in err
        assert not (tmp_path / "o" / "records.csv").exists()

    @pytest.mark.parametrize(
        "section, offending",
        [
            ({"n_section": 60}, "n_section"),
            ({"seed": 3}, "seed"),
            ({"n_sections": "many"}, "synth.n_sections must be an integer"),
            ({"ground_truth": {"noise_sd": 1.0}}, "noise_sd"),
            ({"ground_truth": {"drift": "fast"}}, "synth.ground_truth.drift must be a number"),
            ({"ground_truth": 5}, "'synth.ground_truth' must be a JSON object"),
            ({"ground_truth": {"weights": {"TX_TRUCK": 0.1}}}, "unknown feature(s) ['TX_TRUCK']"),
            ({"ground_truth": {"interactions": [["Flood", 2.0]]}}, "(feature_i, feature_j, coefficient)"),
            ({"ground_truth": {"interactions": 3}}, "synth.ground_truth:"),
            ({"n_sections": 60.7}, "synth.n_sections must be an integer, got 60.7"),
            ({"year_start": "2010"}, "synth.year_start must be an integer, got '2010'"),
            ({"sections_per_route": 0}, "synth: sections_per_route must be >= 1"),
            ({"ground_truth": {"flood_bump": float("nan")}}, "synth.ground_truth.flood_bump must be a finite number"),
            ({"ground_truth": {"weights": {"Flood": "x"}}}, "synth.ground_truth.weights.Flood must be a number"),
            (
                {"ground_truth": {"interactions": [["Flood", "CLIMATE_ZONES", "x"]]}},
                "synth.ground_truth: interactions[0][2] must be a number",
            ),
        ],
    )
    def test_config_typo_is_schema_error(self, tmp_path, capsys, section, offending):
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "o"), synth=section)
        assert main(["--config", cfg, "synth-gen"]) == EXIT_SCHEMA
        assert offending in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integer_floats_are_coerced(self, tmp_path):
        runs = {}
        for name, truth in (("int", {"drift": 2, "flood_bump": 4}), ("float", {"drift": 2.0, "flood_bump": 4.0})):
            cfg = write_config(
                tmp_path, name=f"{name}.json", out_dir=str(tmp_path / name),
                synth={"n_sections": 20.0, "flood_fraction": 0, "ground_truth": truth},
            )
            assert main(["--config", cfg, "--quiet", "synth-gen"]) == EXIT_OK
            runs[name] = hash_tree(tmp_path / name)
        assert runs["int"] == runs["float"]
        truth = (tmp_path / "int" / "ground_truth.json").read_text()
        assert '"drift": 2.0' in truth and '"noise_std": 2.0' in truth


class TestDescribe:
    def test_outputs_and_layout(self, tmp_path):
        records, events = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "o")
        )
        assert main(["--config", cfg, "--quiet", "describe"]) == EXIT_OK
        text = (tmp_path / "o" / "stats.txt").read_text()
        head = text.splitlines()[0]
        for col in ("Feature", "Mean", "Std. Dev.", "Min", "25%", "Max"):
            assert col in head
        assert "CLIMATE_ZONES_encoded" in text
        with open(tmp_path / "o" / "correlation.csv") as fh:
            rows = list(csv.reader(fh))
        labels = rows[0][1:]
        mat = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.allclose(np.diag(mat), 1.0)
        assert np.array_equal(mat, mat.T)
        assert "TX_IRI_AVERAGE_SCORE" in labels

    def test_empty_but_headed_csv_is_insufficient(self, tmp_path, capsys):
        from floodpave.dataset import FEATURE_COLUMNS

        records = tmp_path / "empty.csv"
        header = "ROUTE_NAME,SECTION_ID,YEAR," + ",".join(FEATURE_COLUMNS)
        records.write_text(header + "\n", encoding="utf-8")
        events = tmp_path / "events.csv"
        events.write_text("ROUTE_NAME,FLOOD_YEAR\nFM0101,2014\n", encoding="utf-8")
        cfg = write_config(
            tmp_path, records_csv=str(records), events_csv=str(events), out_dir=str(tmp_path / "o")
        )
        for command in ("describe", "flood-analysis", "train"):
            assert main(["--config", cfg, "--quiet", command]) == EXIT_EMPTY
            assert f"{records}: no data rows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_path_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path, records_csv=str(tmp_path / "missing.csv"),
                           out_dir=str(tmp_path / "o"))
        assert main(["--config", cfg, "--quiet", "describe"]) == EXIT_IO

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_feature_cell_is_refused(self, tmp_path, capsys, value):
        records, _ = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        set_cell(records, "TX_TRUCK_AADT_PCT", value, complete=False)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(out))
        assert main(["--config", cfg, "describe"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "non-finite value(s) in column(s) ['TX_TRUCK_AADT_PCT']" in err
        assert not out.exists() or not list(out.iterdir())

    def test_rerun_identical_bytes(self, tmp_path):
        records, events = make_dataset(tmp_path, n_sections=30, noise_std=1.0)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(out))
        assert main(["--config", cfg, "--quiet", "describe"]) == EXIT_OK
        first = hash_tree(out)
        assert main(["--config", cfg, "--quiet", "describe"]) == EXIT_OK
        assert hash_tree(out) == first


class TestFloodAnalysis:
    def test_construction_oracle_mean_diff(self, tmp_path):
        records, events = make_dataset(tmp_path, n_sections=120, noise_std=0.0)
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "o")
        )
        assert main(["--config", cfg, "--quiet", "flood-analysis"]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "flood_summary.json").read_text())
        assert report["flooded_vs_nonflooded"]["mean_diff"] == pytest.approx(5.0, abs=0.01)
        # bump + 2 years of drift
        assert report["pre_post_deltas"]["mean"] == pytest.approx(9.0, abs=1e-9)
        assert (tmp_path / "o" / "deltas.csv").exists()
        assert (tmp_path / "o" / "rates.csv").exists()
        assert (tmp_path / "o" / "flooded_vs_nonflooded.csv").exists()

    FOUR_EVENTS = (
        "ROUTE_NAME,FLOOD_YEAR,START_MARKER,END_MARKER\n"
        "FM0101,2014,0000,0000\nFM0101,2014,0003,0004\nFM0108,2013,,\nFM0101,2015,0002,0002\n"
    )

    @staticmethod
    def forty_sections(tmp_path, events_text):
        """`flood-analysis` of a 40-section `synth-gen` panel (data seed 5) under `events_text`.

        Returns the records and events paths and the output directory.
        """
        data, out = tmp_path / "data", tmp_path / "o"
        cfg = write_config(tmp_path, synth={"n_sections": 40})
        assert main(["--config", cfg, "--seed", "5", "--out", str(data), "--quiet", "synth-gen"]) == EXIT_OK
        events = tmp_path / "events.csv"
        events.write_text(events_text, encoding="utf-8")
        argv = ["--config", cfg, "--records", str(data / "records.csv"), "--events", str(events)]
        assert main(argv + ["--out", str(out), "--quiet", "flood-analysis"]) == EXIT_OK
        return str(data / "records.csv"), str(events), out

    def test_two_events_of_one_route_year_share_one_control_cohort(self, tmp_path):
        # FM0101's 2014 events cover 0000 and 0003-0004; neither section is a control.
        _, _, out = self.forty_sections(tmp_path, self.FOUR_EVENTS)
        extraction = json.loads((out / "flood_summary.json").read_text())["extraction"]
        assert extraction["flooded"]["candidates"] == 14
        assert extraction["nonflooded"]["candidates"] == 16

    def test_flooded_windows_take_the_controls_of_their_own_year(self, tmp_path):
        # FM0101 floods in 2014 and in 2015, so its controls are windowed around either year.
        from floodpave.dataset import FEATURE_COLUMNS, load_csv
        from floodpave.floods import apply_maintenance_exclusion, extract_windows, load_events_csv

        records, events, out = self.forty_sections(tmp_path, self.FOUR_EVENTS)
        cohorts = extract_windows(load_csv(records, FEATURE_COLUMNS), load_events_csv(events))
        flooded, control = (apply_maintenance_exclusion(windows) for windows, _ in cohorts)
        controls = {}
        for w in control:
            controls.setdefault((w.route_name, w.flood_year), []).append(w.delta)
        compared = [w for w in flooded if (w.route_name, w.flood_year) in controls]
        with open(out / "flooded_vs_nonflooded.csv", newline="") as fh:
            written = list(csv.reader(fh))[1:]
        assert [row[:3] for row in written] == [[w.route_name, w.section_id, str(w.flood_year)] for w in compared]
        assert {(w.route_name, w.flood_year) for w in compared} >= {("FM0101", 2014), ("FM0101", 2015)}
        expected = [w.delta - np.mean(controls[(w.route_name, w.flood_year)]) for w in compared]
        assert [float(row[3]) for row in written] == pytest.approx(expected, abs=1e-12)

    def test_swapped_markers_reach_the_summary_warnings(self, tmp_path):
        _, _, out = self.forty_sections(tmp_path, self.FOUR_EVENTS + "FM0101,2014,0005,0002\n")
        report = json.loads((out / "flood_summary.json").read_text())
        assert report["warnings"] == [
            "flood event (FM0101, 2014): START_MARKER '0005' sorts after END_MARKER '0002'; are they swapped?"
        ]
        assert report["extraction"]["flooded"]["candidates"] == 14

    def test_repeated_key_with_two_iri_values_is_schema_error(self, tmp_path, capsys):
        records, events = make_dataset(tmp_path, n_sections=20, noise_std=1.0)
        lines = open(records).read().splitlines()
        header = lines[0].split(",")
        iri = header.index("TX_IRI_AVERAGE_SCORE")
        cells = next(line.split(",") for line in lines[1:] if line.split(",")[iri])
        first = cells[iri]
        cells[iri] = "999"
        open(records, "a").write(",".join(cells) + "\n")
        out = tmp_path / "o"
        cfg = write_config(tmp_path, records_csv=records, events_csv=events, out_dir=str(out))
        assert main(["--config", cfg, "flood-analysis"]) == EXIT_SCHEMA
        route, section, year = cells[:3]
        message = f"row key ({route}, {section}, {year}) repeats with TX_IRI_AVERAGE_SCORE {float(first)!r} and 999.0"
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_no_events_is_empty_result_status(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=20)
        empty = tmp_path / "no_events.csv"
        empty.write_text("ROUTE_NAME,FLOOD_YEAR\n", encoding="utf-8")
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=str(empty), out_dir=str(tmp_path / "o")
        )
        assert main(["--config", cfg, "--quiet", "flood-analysis"]) == EXIT_EMPTY

    def test_route_names_echoed_verbatim(self, tmp_path):
        records, events = make_dataset(tmp_path, n_sections=40, noise_std=0.0)
        # rewrite with a published-style route name
        for path in (records, events):
            text = open(path).read().replace("FM0101", "FM0481")
            open(path, "w").write(text)
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "o")
        )
        assert main(["--config", cfg, "--quiet", "flood-analysis"]) == EXIT_OK
        deltas = (tmp_path / "o" / "deltas.csv").read_text()
        assert "FM0481" in deltas


class TestInputEncoding:
    @pytest.mark.parametrize("command", ["describe", "flood-analysis"])
    def test_byte_order_mark_gives_identical_outputs(self, tmp_path, command):
        records, events = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "plain")
        )
        assert main(["--config", cfg, "--quiet", command]) == EXIT_OK
        for path in (records, events):
            text = open(path, encoding="utf-8", newline="").read()
            open(path, "w", encoding="utf-8-sig", newline="").write(text)
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "bom")
        )
        assert main(["--config", cfg, "--quiet", command]) == EXIT_OK
        assert hash_tree(tmp_path / "bom") == hash_tree(tmp_path / "plain")

    @pytest.mark.parametrize(
        "command, damaged",
        [("describe", "records"), ("flood-analysis", "records"), ("flood-analysis", "events")],
    )
    def test_non_utf8_input_is_schema_error(self, tmp_path, capsys, command, damaged):
        records, events = make_dataset(tmp_path, n_sections=20, noise_std=1.0)
        path = records if damaged == "records" else events
        data = open(path, "rb").read()
        open(path, "wb").write(data.replace(b"FM0101", "FM\u00e901".encode("latin-1"), 1))
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "o")
        )
        assert main(["--config", cfg, command]) == EXIT_SCHEMA
        assert f"error: {path}: not UTF-8 text (byte 0xe9 cannot be decoded)" in capsys.readouterr().err


class TestExitCodes:
    # The codes the cli module docstring gives each kind of failure.
    DOCUMENTED = {
        SchemaError: 3,
        InsufficientDataError: 5,
        SingularDesignError: 6,
        ZeroVarianceError: 6,
        OSError: 4,
        ValueError: 1,
    }

    def test_table_holds_the_documented_classes(self):
        assert cli._EXIT_CODES == self.DOCUMENTED

    @pytest.mark.parametrize("kind", list(DOCUMENTED), ids=lambda kind: kind.__name__)
    def test_each_exception_gives_its_code(self, monkeypatch, capsys, kind):
        exc = kind("boom")

        def stub(config):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "describe", stub)
        assert main(["describe"]) == self.DOCUMENTED[kind]
        assert f"error: {exc}\n" in capsys.readouterr().err


class TestCsvErrors:
    @pytest.mark.parametrize(
        "command, damaged", [("describe", "records"), ("flood-analysis", "events")]
    )
    def test_oversized_cell_is_schema_error(self, tmp_path, capsys, command, damaged):
        records, events = make_dataset(tmp_path, n_sections=20, noise_std=1.0)
        path = records if damaged == "records" else events
        lines = open(path).read().splitlines()
        lines[2] = lines[2] + "," + "9" * (csv.field_size_limit() + 1)
        open(path, "w").write("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "o")
        )
        assert main(["--config", cfg, command]) == EXIT_SCHEMA
        assert f"error: {path}: line 3: field larger than field limit" in capsys.readouterr().err


class TestKeyYears:
    @pytest.mark.parametrize("command", ["describe", "flood-analysis", "train"])
    def test_infinite_year_is_schema_error(self, tmp_path, capsys, command):
        records, events = make_dataset(tmp_path, n_sections=20, noise_std=1.0)
        set_cell(records, "YEAR", "inf", complete=False)
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "o")
        )
        assert main(["--config", cfg, command]) == EXIT_SCHEMA
        assert "unparseable YEAR value 'inf'" in capsys.readouterr().err

    def test_infinite_flood_year_is_schema_error(self, tmp_path, capsys):
        records, events = make_dataset(tmp_path, n_sections=20, noise_std=1.0)
        lines = open(events).read().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index("FLOOD_YEAR")] = "-inf"
        lines[1] = ",".join(cells)
        open(events, "w").write("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path, records_csv=records, events_csv=events, out_dir=str(tmp_path / "o")
        )
        assert main(["--config", cfg, "flood-analysis"]) == EXIT_SCHEMA
        assert "unparseable FLOOD_YEAR value '-inf'" in capsys.readouterr().err


class TestTrain:
    def test_report_and_persisted_models(self, tmp_path):
        records, events = make_dataset(tmp_path, n_sections=60, noise_std=1.0)
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(tmp_path / "o"),
            seed=3, grids=SMALL_GRIDS,
        )
        assert main(["--config", cfg, "--quiet", "train"]) == EXIT_OK
        with open(tmp_path / "o" / "model_comparison.csv") as fh:
            rows = list(csv.reader(fh))
        # The paper's names, in MODEL_KINDS order.
        names = [
            "Linear Regression (LR)",
            "Ridge Regression (Ridge)",
            "Lasso Regression (Lasso)",
            "Decision Tree (DT)",
            "Random Forest (RF)",
            "Gradient Boosting (GBR)",
        ]
        assert [row[0] for row in rows] == ["Model"] + names
        assert rows[0] == ["Model", "MSE", "MAE", "R2"]
        summary = json.loads((tmp_path / "o" / "train_summary.json").read_text())
        assert [r["kind"] for r in summary["results"]] == [
            "linear", "ridge", "lasso", "decision_tree", "random_forest", "gradient_boosting"
        ]
        assert [r["display"] for r in summary["results"]] == names
        for r in summary["results"]:
            assert (tmp_path / "o" / r["model_file"]).exists()
        assert summary["dropped_constant_columns"] == []

    def test_single_kind_gives_single_row(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(tmp_path / "o"), grids=SMALL_GRIDS
        )
        assert main(["--config", cfg, "--quiet", "train", "--kinds", "ridge"]) == EXIT_OK
        with open(tmp_path / "o" / "model_comparison.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert rows[1][0] == "Ridge Regression (Ridge)"

    def test_cv_results_lists_every_candidate(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        grids = {
            "ridge": {"alpha": [0.01, 1.0]},
            "decision_tree": {"max_depth": [2, 4], "min_samples_leaf": [1]},
            "random_forest": {"n_estimators": [2, 3], "max_depth": [3]},
        }
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(tmp_path / "o"), grids=grids, cv_folds=3
        )
        kinds = "linear,ridge,decision_tree,random_forest"
        assert main(["--config", cfg, "--quiet", "train", "--kinds", kinds]) == EXIT_OK
        with open(tmp_path / "o" / "cv_results.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "kind", "candidate", "hyperparameters",
            "fold_1_mse", "fold_2_mse", "fold_3_mse", "mean_mse", "scored_as",
        ]
        # linear has no grid, so no candidates
        assert [(r[0], r[1], r[-1]) for r in rows[1:]] == [
            ("ridge", "0", "own fit"),
            ("ridge", "1", "own fit"),
            ("decision_tree", "0", "depth truncation of #1"),
            ("decision_tree", "1", "own fit"),
            ("random_forest", "0", "n_estimators prefix of #1"),
            ("random_forest", "1", "own fit"),
        ]
        assert json.loads(rows[3][2]) == {"max_depth": 2, "min_samples_leaf": 1, "min_samples_split": 2}
        for row in rows[1:]:
            folds = [float(v) for v in row[3:6]]
            assert float(row[6]) == pytest.approx(sum(folds) / 3, rel=1e-12)

    def test_linear_family_beats_trees_on_linear_truth(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=80, noise_std=0.5, seed=14)
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(tmp_path / "o"),
            seed=14, grids=SMALL_GRIDS,
        )
        assert main(["--config", cfg, "--quiet", "train"]) == EXIT_OK
        summary = json.loads((tmp_path / "o" / "train_summary.json").read_text())
        r2 = {r["kind"]: r["r2"] for r in summary["results"]}
        assert r2["linear"] >= r2["decision_tree"]
        assert r2["linear"] >= r2["random_forest"]

    def test_missing_target_column_is_schema_error(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=20)
        drop_column(records, "NEXT_YEAR_IRI")
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(tmp_path / "o"))
        assert main(["--config", cfg, "--quiet", "train"]) == EXIT_SCHEMA

    def test_constant_feature_column_is_left_out(self, tmp_path, capsys):
        records, _ = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        set_constant(records, ["TX_RURAL_URBAN_CODE"])
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(out), grids=SMALL_GRIDS,
            shap={"mode": "exact", "background_size": 20}, lime={"n_samples": 300},
            explain={"model_path": str(out / "model_gradient_boosting.json"),
                     "instances": "sample:1"},
        )
        assert main(["--config", cfg, "train", "--kinds", "linear,gradient_boosting"]) == EXIT_OK
        assert (
            "[train] zero-variance column(s) left out of the models: ['TX_RURAL_URBAN_CODE']"
            in capsys.readouterr().err
        )
        summary = json.loads((out / "train_summary.json").read_text())
        assert summary["dropped_constant_columns"] == ["TX_RURAL_URBAN_CODE"]
        for kind in ("linear", "gradient_boosting"):
            model = json.loads((out / f"model_{kind}.json").read_text())
            assert "TX_RURAL_URBAN_CODE" not in model["feature_names"]
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_OK
        with open(out / "shap_phi.csv") as fh:
            header = next(csv.reader(fh))
        assert "TX_RURAL_URBAN_CODE" not in header
        assert "Flood" in header

    @pytest.mark.parametrize(
        "config, flags, offending",
        [
            ({"model_kinds": ["linaer"]}, [], "['linaer']"),
            ({}, ["--kinds", "linear,ridg"], "['ridg']"),
            ({}, ["--kinds", ","], "non-empty list"),
            ({"model_kinds": "linear"}, [], "non-empty list"),
            ({"grids": {"ridg": {"alpha": [1.0]}}}, [], "'ridg' in grids"),
            ({"grids": {"ridge": {"alpah": [1.0]}}}, [], "grids.ridge: ridge: unknown hyperparameter(s) ['alpah']"),
            ({"grids": {"decision_tree": {"max_depth": [0]}}}, [], "max_depth must be >= 1"),
            ({"grids": {"ridge": {"alpha": 0.1}}}, [], "grids.ridge:"),
            ({"grids": {"random_forest": {}}, "model_kinds": ["linear", "random_forest"]}, [], None),
            ({}, ["--kinds", ""], "model_kinds must be a non-empty list"),
            ({"seed": "7"}, [], "seed must be an integer, got '7'"),
            ({"seed": 1.5}, [], "seed must be an integer, got 1.5"),
            ({"seed": -1}, [], "seed must be >= 0"),
            ({"test_fraction": "0.2"}, [], "test_fraction must be a number"),
            ({"test_fraction": 1.5}, [], "test_fraction must be in (0, 1)"),
            ({"cv_folds": 1}, [], "cv_folds must be >= 2"),
            ({"grids": {"ridge": [1]}}, [], "'grids.ridge' must be a JSON object"),
            ({"grids": {"decision_tree": {"max_depth": [2.5]}}}, [], "decision_tree.max_depth must be an integer"),
            ({"grids": {"decision_tree": {"max_depth": ["3"]}}}, [], "decision_tree.max_depth must be an integer"),
            (
                {"grids": {"random_forest": {"bootstrap": ["false"]}}}, [],
                "grids.random_forest: random_forest.bootstrap must be a boolean",
            ),
            ({"grids": {"ridge": {"alpha": []}}}, [], "grids.ridge: ridge: no values for ['alpha']"),
            ({}, ["--kinds", "ridge,ridge"], "model kind(s) ['ridge'] listed more than once"),
        ],
    )
    def test_config_typo_is_refused_before_reading(self, tmp_path, capsys, config, flags, offending):
        # The records file does not exist, so reading it would exit 4.
        cfg = write_config(
            tmp_path, records_csv=str(tmp_path / "absent.csv"), out_dir=str(tmp_path / "o"), **config
        )
        code = main(["--config", cfg, "train"] + flags)
        err = capsys.readouterr().err
        if offending is None:  # an empty grid is valid: fit with default hyperparameters
            assert code == EXIT_IO and "absent.csv" in err
        else:
            assert code == EXIT_SCHEMA and offending in err
        assert not (tmp_path / "o").exists()

    def test_integral_float_cv_folds_trains(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=30, noise_std=1.0)
        runs = {}
        for name, folds in (("int", 2), ("float", 2.0)):
            cfg = write_config(tmp_path, name=f"{name}.json", records_csv=records,
                               out_dir=str(tmp_path / name), cv_folds=folds, grids=SMALL_GRIDS)
            assert main(["--config", cfg, "--quiet", "train", "--kinds", "ridge"]) == EXIT_OK
            runs[name] = hash_tree(tmp_path / name)
        assert runs["int"] == runs["float"]

    def test_more_folds_than_training_rows_is_refused_before_fitting(self, tmp_path, capsys):
        records, _ = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(out), cv_folds=300)
        assert main(["--config", cfg, "train", "--kinds", "linear,ridge"]) == EXIT_EMPTY
        assert "cv_folds 300 exceeds the 256 training rows" in capsys.readouterr().err
        assert not out.exists() or not list(out.glob("model_*.json"))

    def test_infinite_feature_cell_is_refused(self, tmp_path, capsys):
        records, _ = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        set_cell(records, "TX_TRUCK_AADT_PCT", "inf")
        out = tmp_path / "o"
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(out), grids=SMALL_GRIDS)
        assert main(["--config", cfg, "train"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "non-finite" in err and "TX_TRUCK_AADT_PCT" in err
        assert not out.exists() or not list(out.glob("model_*.json"))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("explainrun")
    records, events = make_dataset(tmp_path, n_sections=120, noise_std=0.0, seed=21)
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path, records_csv=records, out_dir=str(out), seed=21, grids=SMALL_GRIDS
    )
    assert main(["--config", cfg, "--quiet", "train", "--kinds", "linear,gradient_boosting"]) == EXIT_OK
    return tmp_path, records, out


class TestExplain:
    def test_draws_on_the_training_split_of_train(self, tmp_path, monkeypatch):
        records, _ = make_dataset(tmp_path, n_sections=60, noise_std=1.0, seed=5)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(out), seed=5, grids=SMALL_GRIDS,
            shap={"background_size": 20}, lime={"n_samples": 300},
            explain={"model_path": str(out / "model_linear.json"), "instances": "sample:2"},
        )
        splits = []
        split = cli.train_test_split

        def spy_split(table, *args):
            train, test = split(table, *args)
            splits.append(train.row_keys)
            return train, test

        monkeypatch.setattr(cli, "train_test_split", spy_split)
        assert main(["--config", cfg, "--quiet", "train", "--kinds", "linear"]) == EXIT_OK
        [trained_on] = splits

        drawn_from = {}
        draw_background, training_stats = shapley.draw_background, lime.training_stats

        def spy_background(table, *args):
            drawn_from["shap"] = table.row_keys
            return draw_background(table, *args)

        def spy_stats(table, *args):
            drawn_from["lime"] = table.row_keys
            return training_stats(table, *args)

        monkeypatch.setattr(shapley, "draw_background", spy_background)
        monkeypatch.setattr(lime, "training_stats", spy_stats)
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_OK
        # The last panel year has no target: a split of the rows complete in
        # the features alone would permute other rows.
        assert drawn_from == {"shap": trained_on, "lime": trained_on}

        # Without a target column, explain splits the rows complete in the features.
        drop_column(records, "NEXT_YEAR_IRI")
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_OK
        features_only = splits[-1]
        assert len(features_only) > len(trained_on)
        assert drawn_from == {"shap": features_only, "lime": features_only}

    def test_three_output_kinds_for_one_instance(self, trained):
        tmp_path, records, out = trained
        table_keys = None
        cfg = write_config(
            tmp_path, name="exp.json", records_csv=records, out_dir=str(out), seed=21,
            shap={"mode": "exact", "background_size": 40},
            lime={"n_samples": 1000},
            explain={"model_path": str(out / "model_gradient_boosting.json"),
                     "instances": "sample:1"},
        )
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_OK
        assert (out / "shap_phi.csv").exists()
        assert (out / "shap_summary.json").exists()
        assert (out / "lime_explanations.json").exists()
        lime_csvs = [f for f in os.listdir(out) if f.startswith("lime_") and f.endswith(".csv")]
        assert len(lime_csvs) == 1
        with open(out / lime_csvs[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["condition", "weight"]

    def test_exact_mode_allowed_at_nine_features(self, trained):
        tmp_path, records, out = trained
        cfg = write_config(
            tmp_path, name="exp2.json", records_csv=records, out_dir=str(out), seed=21,
            shap={"mode": "exact", "background_size": 30},
            explain={"model_path": str(out / "model_gradient_boosting.json"),
                     "instances": "sample:1", "explainers": ["shap"]},
        )
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_OK
        doc = json.loads((out / "shap_summary.json").read_text())
        assert len(doc["ranking"]) == 9
        assert 0.0 <= doc["max_efficiency_residual"] <= cli.SHAP_EFFICIENCY_TOLERANCE

    def test_efficiency_residual_above_tolerance_warns(self, trained, tmp_path, monkeypatch, capsys):
        _, records, out = trained
        exact = shapley.shapley_values

        def off_by_one(*args, **kwargs):
            values = exact(*args, **kwargs)
            return shapley.ShapValues(values.base_value + 1.0, values.phi, values.feature_names)

        monkeypatch.setattr(shapley, "shapley_values", off_by_one)
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(tmp_path / "o"), seed=21,
            shap={"background_size": 20},
            explain={"model_path": str(out / "model_linear.json"),
                     "instances": "sample:2", "explainers": ["shap"]},
        )
        assert main(["--config", cfg, "explain"]) == EXIT_OK
        doc = json.loads((tmp_path / "o" / "shap_summary.json").read_text())
        assert doc["max_efficiency_residual"] == pytest.approx(1.0)
        assert "[explain] warning: SHAP efficiency residual" in capsys.readouterr().err

    def test_worker_threads_write_identical_files(self, trained, tmp_path):
        tmp, records, out = trained
        written = {}
        for workers in ("1", "2"):
            dest = tmp_path / f"w{workers}"
            argv = ["--records", records, "--out", str(dest), "--seed", "21", "--workers", workers, "--quiet"]
            explain = ["explain", "--model-path", str(out / "model_gradient_boosting.json"),
                       "--instances", "sample:4", "--explainers", "shap,lime"]
            assert main(argv + explain) == EXIT_OK
            written[workers] = hash_tree(dest)
        assert len(written["1"]) == 4 + 4  # three SHAP files and the LIME JSON, one LIME CSV per instance
        assert written["2"] == written["1"]

    def test_one_key_writes_the_lime_file_it_gets_in_a_sample(self, trained, tmp_path):
        # Every instance shares one neighbourhood drawn from the run's seed,
        # so an instance's LIME file does not depend on the others explained.
        _, records, out = trained
        argv = ["--records", records, "--seed", "21", "--quiet", "explain", "--explainers", "lime",
                "--model-path", str(out / "model_gradient_boosting.json")]
        assert main(["--out", str(tmp_path / "sample")] + argv + ["--instances", "sample:4"]) == EXIT_OK
        doc = json.loads((tmp_path / "sample" / "lime_explanations.json").read_text())
        route, section, year = doc[2]["instance_key"]
        assert main(["--out", str(tmp_path / "key")] + argv + ["--instances", f"key:{route},{section},{year}"]) == EXIT_OK
        name = f"lime_{cli._safe_name((route, section, year))}.csv"
        assert sorted(os.listdir(tmp_path / "key")) == sorted(["lime_explanations.json", name])
        assert (tmp_path / "key" / name).read_bytes() == (tmp_path / "sample" / name).read_bytes()
        assert json.loads((tmp_path / "key" / "lime_explanations.json").read_text()) == [doc[2]]

    def test_instances_sharing_a_lime_file_are_refused(self, trained, tmp_path, capsys):
        _, records, out = trained
        lines = open(records).read().splitlines(keepends=True)
        header = lines[0].rstrip("\n").split(",")
        target = header.index("NEXT_YEAR_IRI")
        row = next(line for line in lines[1:] if line.split(",")[target].strip())
        cells = row.split(",")
        route, section, year = (cells[header.index(c)].strip() for c in ("ROUTE_NAME", "SECTION_ID", "YEAR"))
        doubled = tmp_path / "records.csv"
        doubled.write_text("".join(lines) + row)  # a second row under the same key
        argv = ["--records", str(doubled), "--seed", "21", "--quiet", "--out", str(tmp_path / "o"), "explain",
                "--model-path", str(out / "model_linear.json"), "--instances", f"key:{route},{section},{year}"]
        assert main(argv) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"{(route, section, int(year))}" in err and f"lime_{route}_{section}_{year}.csv" in err
        assert not (tmp_path / "o").exists()
        # SHAP alone writes no LIME file, so it explains both rows
        assert main(argv + ["--explainers", "shap"]) == EXIT_OK

    @pytest.mark.parametrize("keys", [[("R", "1 2", 2014), ("R", "1-2", 2014)],
                                      [("R_1", "2", 2014), ("R", "1_2", 2014)]])
    def test_keys_with_one_safe_name_are_refused(self, keys):
        with pytest.raises(cli.SchemaError, match="would both write lime_"):
            cli._lime_files(keys)
        assert cli._lime_files(keys[:1]) == [f"lime_{cli._safe_name(keys[0])}.csv"]

    def test_model_without_features_is_refused(self, tmp_path):
        from floodpave.dataset import FEATURE_COLUMNS

        records, _ = make_dataset(tmp_path, n_sections=40, noise_std=1.0)
        set_constant(records, FEATURE_COLUMNS)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(out), grids=SMALL_GRIDS,
            explain={"model_path": str(out / "model_decision_tree.json"),
                     "instances": "sample:1"},
        )
        assert main(["--config", cfg, "--quiet", "train", "--kinds", "linear,decision_tree"]) == EXIT_OK
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_EMPTY
        assert not (out / "shap_phi.csv").exists()

    def test_flood_instance_readings(self, trained):
        tmp_path, records, out = trained
        from floodpave.dataset import FEATURE_COLUMNS, load_csv

        table = load_csv(records, schema=FEATURE_COLUMNS)
        key = next(
            k for k, f in zip(table.row_keys, table.col("Flood")) if f == 1.0
        )
        selector = f"key:{key[0]},{key[1]},{key[2]}"
        cfg = write_config(
            tmp_path, name="exp3.json", records_csv=records, out_dir=str(out), seed=21,
            shap={"mode": "exact", "background_size": 60},
            lime={"n_samples": 8000, "discretize": False, "max_features_K": 9},
            explain={"model_path": str(out / "model_linear.json"), "instances": selector},
        )
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_OK
        doc = json.loads((out / "lime_explanations.json").read_text())
        weights = {c["feature"]: c["weight"] for c in doc[0]["contributions"]}
        assert weights["Flood"] == pytest.approx(5.0, abs=0.5)
        with open(out / "shap_phi.csv") as fh:
            rows = list(csv.reader(fh))
        flood_col = rows[0].index("Flood")
        assert float(rows[1][flood_col]) > 0.0

    def test_schema_mismatch_names_columns(self, trained, tmp_path):
        _, records, out = trained
        # a dataset missing two model features
        lines = open(records).read().splitlines()
        header = lines[0].split(",")
        keep = [i for i, h in enumerate(header) if h not in ("Flood", "TX_TRUCK_AADT_PCT")]
        slim = tmp_path / "slim.csv"
        slim.write_text(
            "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines) + "\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path, name="exp4.json", records_csv=str(slim), out_dir=str(tmp_path / "o2"),
            explain={"model_path": str(out / "model_linear.json"), "instances": "sample:1"},
        )
        code = main(["--config", cfg, "--quiet", "explain"])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("explainers", ["lime", "shap"])
    def test_infinite_feature_cell_is_refused(self, trained, tmp_path, capsys, explainers):
        _, records, out = trained
        bad = tmp_path / "records.csv"
        bad.write_text(open(records).read(), encoding="utf-8")
        set_cell(str(bad), "TX_TRUCK_AADT_PCT", "inf")
        cfg = write_config(
            tmp_path, records_csv=str(bad), out_dir=str(tmp_path / "o"), seed=21,
            lime={"n_samples": 300}, explain={"model_path": str(out / "model_gradient_boosting.json")},
        )
        assert main(["--config", cfg, "--quiet", "explain", "--explainers", explainers]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "non-finite value(s) in column(s) ['TX_TRUCK_AADT_PCT']" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, offending",
        [
            ({"explain": {"explainers": ["shapp"]}, "shap": {"background_size": 5}}, "shapp"),
            ({"explain": {"explainers": []}}, "non-empty"),
            ({"explain": {"instance": "all"}}, "instance"),
            ({"shap": {"n_permutation": 5}}, "n_permutation"),
            ({"shap": {"seed": 3}}, "seed"),
            ({"lime": {"n_sample": 300}}, "n_sample"),
            ({"shap": 5}, "'shap' must be a JSON object"),
            ({"lime": {"n_samples": None}}, "lime.n_samples must be an integer"),
            ({"explain": {"explainers": [["shap"]]}}, "[['shap']]"),
            ({"workers": 0}, "workers must be >= 1"),
            ({"explain": {"model_path": 5}}, "explain.model_path must be a string, got 5"),
            ({"lime": {"discretize": "false"}}, "lime.discretize must be a boolean"),
            ({"lime": {"kernel_width_sigma": "1"}}, "lime.kernel_width_sigma must be a number"),
            ({"lime": {"kernel_width_sigma": float("inf")}}, "lime.kernel_width_sigma must be a finite number"),
            ({"shap": {"mode": 3}}, "shap.mode must be a string"),
            ({"shap": {"background_size": True}}, "shap.background_size must be an integer, got True"),
            # A JSON 1e400 parses to inf, as Infinity does.
            ({"shap": {"background_size": float("inf")}}, "shap.background_size must be an integer, got inf"),
        ],
    )
    def test_config_typo_is_schema_error(self, trained, tmp_path, capsys, section, offending):
        _, records, out = trained
        explain = {"model_path": str(out / "model_linear.json"), **section.pop("explain", {})}
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(tmp_path / "o"), explain=explain, **section
        )
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_SCHEMA
        assert offending in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["", ",", "shap,limes"])
    def test_bad_explainers_flag_is_schema_error(self, trained, tmp_path, flag):
        _, records, out = trained
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(tmp_path / "o"),
                           explain={"model_path": str(out / "model_linear.json")})
        assert main(["--config", cfg, "--quiet", "explain", "--explainers", flag]) == EXIT_SCHEMA
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "selector",
        ["key:a,b", "key:FM1,1,x", "key:a,b,2015,x", "sample:x", "sample:0", "sample:", "some:3", "first"],
    )
    def test_malformed_instance_selector_is_schema_error(self, trained, tmp_path, capsys, selector):
        _, records, out = trained
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(tmp_path / "o"),
                           explain={"model_path": str(out / "model_linear.json")})
        assert main(["--config", cfg, "--quiet", "explain", "--instances", selector]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert repr(selector) in err
        assert "all | sample:N | key:ROUTE,SECTION,YEAR" in err
        assert not (tmp_path / "o").exists()

    def test_instance_selector_forms(self, trained, tmp_path):
        _, records, out = trained
        from floodpave.dataset import FEATURE_COLUMNS, load_csv

        table = load_csv(records, schema=FEATURE_COLUMNS)
        assert cli._select_instances(table, "all", 0).tolist() == list(range(table.n_rows))
        picked = cli._select_instances(table, "sample:3", 0)
        assert picked.tolist() == sorted(set(picked.tolist())) and len(picked) == 3
        assert len(cli._select_instances(table, f"sample:{table.n_rows + 5}", 0)) == table.n_rows
        route, section, year = table.row_keys[7]
        assert cli._select_instances(table, f"key:{route},{section},{year}", 0).tolist() == [7]
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(tmp_path / "o"),
                           explain={"model_path": str(out / "model_linear.json")})
        selector = f"key:{route},{section},1900"
        assert main(["--config", cfg, "--quiet", "explain", "--instances", selector]) == EXIT_EMPTY

    def test_missing_model_path_is_schema_error(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=20)
        cfg = write_config(tmp_path, records_csv=records, out_dir=str(tmp_path / "o"))
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_SCHEMA


class TestDeterminism:
    def test_full_workflow_rerun_is_byte_identical(self, tmp_path):
        records, events = make_dataset(tmp_path, n_sections=50, noise_std=1.0, seed=33)
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            cfg = write_config(
                tmp_path, name=f"cfg_{run}.json",
                records_csv=records, events_csv=events, out_dir=str(out),
                seed=33, grids=SMALL_GRIDS,
            )
            assert main(["--config", cfg, "--quiet", "describe"]) == EXIT_OK
            assert main(["--config", cfg, "--quiet", "flood-analysis"]) == EXIT_OK
            assert main(["--config", cfg, "--quiet", "train", "--kinds", "linear,gradient_boosting"]) == EXIT_OK
            cfg2 = write_config(
                tmp_path, name=f"cfg2_{run}.json",
                records_csv=records, events_csv=events, out_dir=str(out), seed=33,
                shap={"mode": "exact", "background_size": 30},
                lime={"n_samples": 500},
                explain={"model_path": str(out / "model_gradient_boosting.json"),
                         "instances": "sample:2"},
            )
            assert main(["--config", cfg2, "--quiet", "explain"]) == EXIT_OK
            hashes.append(hash_tree(out))
        assert hashes[0] == hashes[1]


class TestStartup:
    def test_no_command_loads_scipy(self, tmp_path):
        # scipy's import would cost most of a command's start-up.
        records, _ = make_dataset(tmp_path, n_sections=20, noise_std=1.0)
        script = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import floodpave, floodpave.cli\n"
            "print(scipy_modules())\n"
            f"code = floodpave.cli.main(['--records', {records!r}, '--out', {str(tmp_path / 'o')!r},"
            " '--quiet', 'describe'])\n"
            "print(code, scipy_modules())\n"
            f"code = floodpave.cli.main(['--out', {str(tmp_path / 's')!r}, '--quiet', 'synth-gen'])\n"
            "print(code, scipy_modules())\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.splitlines() == ["[]", "0 []", "0 []"]

    def test_cli_runs_as_main_under_cprofile(self, tmp_path):
        # Under -m cProfile, sys.modules["__main__"] is cProfile, not the cli;
        # the config's annotations must resolve all the same.
        cfg = write_config(tmp_path, synth={"n_sections": 20})
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "p.prof"), "-m", "floodpave.cli",
             "--config", cfg, "--out", str(tmp_path / "d"), "--quiet", "synth-gen"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert (tmp_path / "d" / "records.csv").exists() and (tmp_path / "p.prof").exists()

    # Modules that a command which does not use them must not load.
    MODEL_CODE = {"floodpave.models.tree", "floodpave.models.grow", "floodpave.models.linear", "floodpave.models.io"}
    EXPLAINERS = {"floodpave.shapley", "floodpave.lime"}
    THREADS = {"concurrent.futures"}
    # np.unique and np.quantile import numpy.ma, about 14 ms of start-up.
    NUMPY_MA = {"numpy.ma"}

    @staticmethod
    def loaded_after(argv) -> set:
        """The modules loaded after `cli.main(argv)` runs in a fresh interpreter."""
        script = (
            "import json, sys, floodpave.cli\n"
            f"code = floodpave.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        code, modules = json.loads(result.stdout)
        assert code == EXIT_OK
        return set(modules)

    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path):
        records, events = make_dataset(tmp_path, n_sections=20, noise_std=1.0)
        out = str(tmp_path / "o")
        cfg = write_config(tmp_path, grids=SMALL_GRIDS, shap={"background_size": 10}, lime={"n_samples": 100})
        argv = ["--config", cfg, "--records", records, "--events", events, "--out", out, "--quiet", "--workers", "1"]

        unused = self.MODEL_CODE | self.EXPLAINERS | self.THREADS
        unused |= {"floodpave.deterioration", "floodpave.floods", "floodpave.synth"}
        # logging costs about 10 ms of describe's start-up, even under --quiet
        assert self.loaded_after(argv + ["describe"]) & (unused | self.NUMPY_MA | {"logging"}) == set()
        loaded = self.loaded_after(argv + ["flood-analysis"])
        assert loaded & (self.MODEL_CODE | self.EXPLAINERS | self.THREADS) == set()
        assert "floodpave.floods" in loaded

        loaded = self.loaded_after(argv + ["train", "--kinds", "linear,decision_tree"])
        assert loaded & (self.EXPLAINERS | self.THREADS) == set()
        assert self.MODEL_CODE <= loaded

        model = os.path.join(out, "model_decision_tree.json")
        explain = ["explain", "--model-path", model, "--instances", "sample:2"]
        loaded = self.loaded_after(argv + explain)
        assert loaded & (self.THREADS | self.NUMPY_MA) == set()
        assert self.EXPLAINERS <= loaded
        # explain predicts with a tree model but grows none
        assert "floodpave.models.tree" in loaded and "floodpave.models.grow" not in loaded
        # --workers is range-checked and read by no command
        assert self.loaded_after(argv + ["--workers", "2"] + explain) & self.THREADS == set()

    def test_quiet_silences_log_warnings(self, tmp_path):
        # In a subprocess: in-process, pytest's log capture hides what
        # logging's last-resort handler would print.
        cfg = write_config(tmp_path, synth={"n_sections": 40, "sections_per_route": 1, "flood_fraction": 0.3})
        data = tmp_path / "d"
        assert main(["--config", cfg, "--seed", "3", "--out", str(data), "--quiet", "synth-gen"]) == EXIT_OK
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "floodpave.cli", "--records", str(data / "records.csv"),
                "--events", str(data / "events.csv"), "--out", str(tmp_path / "o")]
        warning = "flooded vs non-flooded comparison: no overlapping routes"
        loud = subprocess.run(argv + ["flood-analysis"], capture_output=True, text=True, env=env, timeout=120)
        assert loud.returncode == EXIT_OK and warning in loud.stderr
        quiet = subprocess.run(argv + ["--quiet", "flood-analysis"], capture_output=True, text=True, env=env,
                               timeout=120)
        assert quiet.returncode == EXIT_OK
        assert quiet.stderr == ""


class TestConfigHandling:
    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, bogus_key=1)
        assert main(["--config", cfg, "--quiet", "describe"]) == EXIT_SCHEMA

    def test_byte_order_mark_is_ignored(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=20, noise_std=1.0)
        cfg = tmp_path / "bom.json"
        cfg.write_text(json.dumps({"records_csv": records, "out_dir": str(tmp_path / "o")}), encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["--config", str(cfg), "--quiet", "describe"]) == EXIT_OK

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"seed": 1,}', "not valid JSON (Expecting property name"),
            (b"[1, 2]", "the config must be a JSON object"),
            ('{"out_dir": "caf\u00e9"}'.encode("latin-1"), "not UTF-8 text (byte 0xe9 cannot be decoded)"),
        ],
    )
    def test_unreadable_config_is_schema_error(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(data)
        assert main(["--config", str(cfg), "--quiet", "describe"]) == EXIT_SCHEMA
        assert f"error: {cfg}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, argv, offending",
        [
            ({"seed": "7"}, ["describe"], "seed must be an integer, got '7'"),
            ({}, ["--seed", "-1", "describe"], "seed must be >= 0, got -1"),
            ({"quiet": "false"}, ["describe"], "quiet must be a boolean"),
            ({}, ["--workers", "-3", "explain"], "workers must be >= 1, got -3"),
            ({"records_csv": 0}, ["describe"], "records_csv must be a string, got 0"),
            ({"records_csv": 5}, ["describe"], "records_csv must be a string, got 5"),
            ({"lime": {"bogus": 1}}, ["describe"], "unknown lime config key(s) ['bogus']"),
            ({}, ["explain", "--instances", "sample:x"], "bad instance selector 'sample:x'"),
            ({}, ["explain", "--instances", "key:a,b,x"], "bad instance selector 'key:a,b,x'"),
            ({"shap": {"n_permutations": 200}}, ["explain"], "unknown shap config key(s) ['n_permutations']"),
            ({"shap": {"baseline": "mean_impute"}}, ["explain"], "unknown shap config key(s) ['baseline']"),
            ({"shap": {"mode": "sampled"}}, ["explain"], "shap: mode 'sampled' was removed"),
        ],
    )
    def test_bad_value_is_refused_before_reading(self, tmp_path, capsys, config, argv, offending):
        # Neither the records file nor the model exists, so reading either would exit 4.
        doc = {"records_csv": str(tmp_path / "absent.csv"), "out_dir": str(tmp_path / "o"),
               "explain": {"model_path": str(tmp_path / "absent.json")}, **config}
        cfg = write_config(tmp_path, **doc)
        assert main(["--config", cfg] + argv) == EXIT_SCHEMA
        assert offending in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_inert_compatibility_keys_still_parse(self, tmp_path):
        # bench/run.py writes this shap section and passes --workers 1 to every command.
        cfg = write_config(tmp_path, shap={"mode": "exact", "background_size": 100})
        config = cli.RunConfig.from_sources(cfg, {"workers": 1})
        assert (config.shap.mode, config.shap.background_size, config.workers) == ("exact", 100, 1)

    def test_type_hints_resolved_once_per_class(self, tmp_path):
        from floodpave import _util

        cfg = write_config(tmp_path, seed=4, shap={"mode": "exact"}, lime={"n_samples": 300},
                           synth={"n_sections": 30, "ground_truth": {"flood_bump": 2.0}})
        first = cli.RunConfig.from_sources(cfg, {"workers": 2})
        misses = _util._type_hints.cache_info().misses
        assert cli.RunConfig.from_sources(cfg, {"workers": 2}) == first
        assert _util._type_hints.cache_info().misses == misses

    def test_flag_overrides_config(self, tmp_path):
        records, _ = make_dataset(tmp_path, n_sections=25, noise_std=1.0)
        cfg = write_config(tmp_path, records_csv="nonexistent.csv", out_dir=str(tmp_path / "o"))
        code = main(["--config", cfg, "--quiet", "--records", records, "describe"])
        assert code == EXIT_OK

    def test_empty_config_is_valid_defaults(self, tmp_path, monkeypatch):
        records, events = make_dataset(tmp_path, n_sections=25, noise_std=1.0)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        code = main(
            ["--config", cfg, "--quiet", "--records", records, "--events", events,
             "--out", str(tmp_path / "o"), "describe"]
        )
        assert code == EXIT_OK


@pytest.fixture(scope="module")
def boosting_file(tmp_path_factory):
    """Records plus the JSON document of a small boosting model over their features."""
    from floodpave import models
    from floodpave.dataset import FEATURE_COLUMNS

    tmp_path = tmp_path_factory.mktemp("malformed")
    records, _ = make_dataset(tmp_path, n_sections=30, noise_std=1.0)
    X = np.random.default_rng(0).normal(size=(80, len(FEATURE_COLUMNS)))
    spec = models.ModelSpec("gradient_boosting", {"n_estimators": 3, "max_depth": 2}, 0)
    predictor = models.fit(spec, X, X[:, 0] + X[:, 1], feature_names=FEATURE_COLUMNS)
    return tmp_path, records, models.model_to_dict(predictor)


def _corrupt(doc, case):
    tree = doc["trees"][0]
    if case == "root-points-at-itself":
        tree["left"][0] = 0
    elif case == "child-out-of-range":
        tree["right"][0] = 10**6
    elif case == "feature-out-of-range":
        tree["feature"][0] = 42
    elif case == "non-integral-seed":
        doc["spec"]["seed"] = 1.5
    elif case == "missing-spec-key":
        del doc["spec"]["hyperparameters"]
    elif case == "arrays-differ-in-length":
        tree["value"].pop()
    elif case == "non-finite-threshold":
        tree["threshold"][0] = float("inf")
    elif case == "spec-out-of-range":
        doc["spec"]["hyperparameters"]["max_depth"] = 0
    elif case == "spec-unknown-kind":
        doc["spec"]["kind"] = "svm"
    elif case == "learning-rate-differs-from-spec":
        doc["learning_rate"] = -5.0
    elif case == "repeated-feature-name":
        doc["feature_names"][1] = doc["feature_names"][0]
    return doc


class TestMalformedModelFile:
    @pytest.mark.parametrize(
        "case, message",
        [
            ("root-points-at-itself", "tree node reached more than once from the root"),
            ("child-out-of-range", "tree child index out of range"),
            ("feature-out-of-range", "tree split feature out of range for 9 features"),
            ("non-integral-seed", "spec.seed must be an integer, got 1.5"),
            ("missing-spec-key", "model spec has no ['hyperparameters'] entry"),
            ("arrays-differ-in-length", "tree arrays differ in length"),
            ("non-finite-threshold", "tree split thresholds and leaf values must be finite"),
            ("spec-out-of-range", "model spec: gradient_boosting: max_depth must be >= 1"),
            ("spec-unknown-kind", "unknown model kind 'svm'"),
            ("learning-rate-differs-from-spec", "learning_rate -5.0 differs from the spec's 0.1"),
            ("repeated-feature-name", "model feature_names repeat ['TX_CONDITION_SCORE']"),
        ],
    )
    def test_refused_with_exit_3(self, boosting_file, case, message):
        # A separate process with a timeout: a cyclic tree must not hang explain.
        tmp_path, records, doc = boosting_file
        model = tmp_path / f"{case}.json"
        model.write_text(json.dumps(_corrupt(json.loads(json.dumps(doc)), case)))
        cfg = write_config(
            tmp_path, name=f"{case}.cfg.json", records_csv=records, out_dir=str(tmp_path / case),
            explain={"model_path": str(model), "instances": "sample:2"},
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "floodpave.cli", "--config", cfg, "--quiet", "explain"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == EXIT_SCHEMA, result.stderr
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    def test_linear_file_with_zero_sigma_refused(self, boosting_file, capsys):
        from floodpave import models
        from floodpave.dataset import FEATURE_COLUMNS

        tmp_path, records, _ = boosting_file
        doc = models.model_to_dict(manual_linear(np.ones(len(FEATURE_COLUMNS)), names=FEATURE_COLUMNS))
        doc["sigma"][0] = 0.0
        model = tmp_path / "linear-sigma-zero.json"
        model.write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path, name="linear.cfg.json", records_csv=records, out_dir=str(tmp_path / "linear"),
            explain={"model_path": str(model), "instances": "sample:2"},
        )
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_SCHEMA
        assert "model sigma must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"format_version": 1, "spec": "\xff"}', "not UTF-8 text (byte 0xff cannot be decoded)"),
            (b'{"format_version": 1,', "not valid JSON"),
            (b'{"spec": {"kind": "linear"}}', "model file has no format_version"),
            (b'{"format_version": 999}', "unsupported model format_version 999"),
        ],
        ids=["not-utf8", "not-json", "no-format-version", "unsupported-format-version"],
    )
    def test_unreadable_file_is_refused_with_exit_3(self, boosting_file, tmp_path, capsys, content, message):
        _, records, _ = boosting_file
        model = tmp_path / "model.json"
        model.write_bytes(content)
        cfg = write_config(
            tmp_path, records_csv=records, out_dir=str(tmp_path / "o"),
            explain={"model_path": str(model), "instances": "sample:2"},
        )
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_SCHEMA
        assert f"error: {model}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_intact_file_explains(self, boosting_file):
        tmp_path, records, doc = boosting_file
        model = tmp_path / "intact.json"
        model.write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path, name="intact.cfg.json", records_csv=records, out_dir=str(tmp_path / "intact"),
            shap={"background_size": 10}, lime={"n_samples": 100},
            explain={"model_path": str(model), "instances": "sample:2"},
        )
        assert main(["--config", cfg, "--quiet", "explain"]) == EXIT_OK

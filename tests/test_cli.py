import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from floodpave import cli, shapley, synth
from floodpave.cli import (
    EXIT_EMPTY,
    EXIT_FAILURE,
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)

from conftest import make_flood_bump_data

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

    def test_empty_but_headed_csv_is_insufficient(self, tmp_path):
        from floodpave.dataset import FEATURE_COLUMNS

        records = tmp_path / "empty.csv"
        header = "ROUTE_NAME,SECTION_ID,YEAR," + ",".join(FEATURE_COLUMNS)
        records.write_text(header + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, records_csv=str(records), out_dir=str(tmp_path / "o"))
        assert main(["--config", cfg, "--quiet", "describe"]) == EXIT_EMPTY

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
        assert "unparseable FLOOD_YEAR '-inf'" in capsys.readouterr().err


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
        assert rows[0] == ["Model", "MSE", "MAE", "R2"]
        assert len(rows) == 7  # header + six models
        summary = json.loads((tmp_path / "o" / "train_summary.json").read_text())
        assert {r["kind"] for r in summary["results"]} == set(
            ("linear", "ridge", "lasso", "decision_tree", "random_forest", "gradient_boosting")
        )
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
        lines = open(records).read().splitlines()
        header = lines[0].split(",")
        drop = header.index("NEXT_YEAR_IRI")
        rewritten = [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                     for line in lines]
        open(records, "w").write("\n".join(rewritten) + "\n")
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
            ({"explain": {"explainers": ["shapp"]}, "shap": {"n_permutations": 5}}, "shapp"),
            ({"explain": {"explainers": []}}, "non-empty"),
            ({"explain": {"instance": "all"}}, "instance"),
            ({"shap": {"n_permutation": 5}}, "n_permutation"),
            ({"shap": {"seed": 3}}, "seed"),
            ({"lime": {"n_sample": 300}}, "n_sample"),
            ({"shap": 5}, "'shap' must be a JSON object"),
            ({"lime": {"n_samples": None}}, "lime.n_samples must be an integer"),
            ({"explain": {"explainers": [["shap"]]}}, "[['shap']]"),
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
                shap={"mode": "sampled", "n_permutations": 60, "background_size": 30},
                lime={"n_samples": 500},
                explain={"model_path": str(out / "model_gradient_boosting.json"),
                         "instances": "sample:2"},
            )
            assert main(["--config", cfg2, "--quiet", "explain"]) == EXIT_OK
            hashes.append(hash_tree(out))
        assert hashes[0] == hashes[1]


class TestStartup:
    def test_only_synth_gen_loads_scipy(self, tmp_path):
        # scipy's import costs most of a command's start-up; only synth-gen needs it.
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
            f"floodpave.cli.main(['--out', {str(tmp_path / 's')!r}, '--quiet', 'synth-gen'])\n"
            "print(bool(scipy_modules()))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.splitlines() == ["[]", "0 []", "True"]


class TestConfigHandling:
    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, bogus_key=1)
        assert main(["--config", cfg, "--quiet", "describe"]) == EXIT_SCHEMA

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

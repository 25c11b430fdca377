"""End-to-end benchmark of the floodpave CLI, run the way a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every command is a fresh
``python -m floodpave.cli`` process with ``--workers 1``, started only
after the previous one ended: a closed loop with one client. Wall time
is taken from outside the child, import included, and max RSS from the
child's own rusage. ``--seed`` seeds the generated data; the program's
own ``--seed`` is pinned to 0 with the rest of the workload.

With ``--trace 0`` the set-up runs three times. Then the commands run
within ``--seconds``: each at least once and, time allowing, twice; the
rest of the time goes to whichever command has had the least time so
far. The fixed task in ``reference.py`` runs before the first set-up and
after every set-up and command. Each set-up or command time is taken at
reference speed: its wall time times 0.5 s over the mean wall time of
the two reference runs beside it. A shared host that slows down for a
while slows the reference alike and leaves the figure steady, while a
change to floodpave moves only the command. Each reported time is the
median of its runs at reference speed.

With ``--trace 1`` the set-up and one pass run under ``traced.py``, each
command right after its untraced twin, and the result holds the
per-layer self times and counts plus the tracing overhead; no reference
task runs.

Every child runs with one BLAS/OpenMP thread, so each command uses one
of the machine's cores, like ``--workers 1`` asks.

Every line before the last lists a metric with its unit, a check or the
run's provenance. The last line is the result JSON whose metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

PROGRAM_SEED = 0
TEST_FRACTION = 0.2
CV_FOLDS = 3  # the CLI's default is 5; 3 lets `train` run twice in a run
SETUP_REPEATS = 3
MIN_RUNS = 2  # each command runs this often, time allowing, before the cheap ones take the rest
SHAP_TOLERANCE = 1e-8
LINEAR_MSE_TOLERANCE = 0.10  # relative to the synthetic noise variance
REFERENCE = os.path.join(BENCH_DIR, "reference.py")
REFERENCE_SECONDS = 0.5  # times are reported at the speed where the reference task takes this long
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Reduced grids for `train`; ridge and lasso keep their default alpha grids.
GRIDS = {
    "decision_tree": {"max_depth": [5, 10], "min_samples_leaf": [1, 5]},
    "random_forest": {"n_estimators": [5, 10], "max_depth": [8], "feature_subsample": [0.6]},
    "gradient_boosting": {"n_estimators": [25, 50], "max_depth": [3], "learning_rate": [0.1], "subsample": [0.75]},
}
SHAP = {"mode": "exact", "background_size": 100}
LIME = {"n_samples": 5000, "max_features_K": 6}
EXPLAIN_INSTANCES = "sample:10"
# Models that paper_explain fits during set-up: the two it explains, and
# the linear baseline of `test_mse_ratio`.
EXPLAINED_MODELS = {
    "model_gbr.json": {
        "kind": "gradient_boosting",
        "hyperparameters": {"n_estimators": 100, "max_depth": 3, "learning_rate": 0.1, "subsample": 0.75},
        "seed": PROGRAM_SEED,
    },
    "model_rf.json": {
        "kind": "random_forest",
        "hyperparameters": {"n_estimators": 10, "max_depth": 10, "feature_subsample": 0.6},
        "seed": PROGRAM_SEED,
    },
    "model_linear.json": {"kind": "linear", "hyperparameters": {}, "seed": PROGRAM_SEED},
}


def _explain(model_file):
    return ["explain", "--model-path", os.path.join("{models}", model_file), "--instances", EXPLAIN_INSTANCES]


DESCRIBE = ("describe", ["describe"])
FLOOD_ANALYSIS = ("flood_analysis", ["flood-analysis"])
# `test_mse_ratio` is the mean test MSE of the `test_mse_kinds` over the
# linear model's test MSE on the same split. The ratio cancels the noise
# that every model meets in a given test set, which moves each MSE with the
# data seed. The forests are left out: their test MSE swings with the data
# seed (9 to 21 for the pipeline's depth-8 forest) by more than the bound
# allows.
WORKLOADS = {
    "paper_pipeline": {
        "n_sections": 1114,
        "fit_models": False,
        "steps": [DESCRIBE, FLOOD_ANALYSIS, ("train", ["train"])],
        "test_mse_kinds": ("decision_tree", "gradient_boosting"),
    },
    "paper_explain": {
        "n_sections": 1114,
        "fit_models": True,
        "steps": [
            DESCRIBE,
            FLOOD_ANALYSIS,
            ("explain_gbr", _explain("model_gbr.json")),
            ("explain_rf", _explain("model_rf.json")),
        ],
        "test_mse_kinds": ("gradient_boosting",),
    },
}
MODEL_STEPS = ("train", "explain_gbr", "explain_rf")


@dataclasses.dataclass(frozen=True)
class Command:
    wall_s: float
    rss_mb: float
    code: int
    out_dir: str
    scaled_s: float | None = None  # wall_s at reference speed; None in a traced run


class Run:
    """One benchmark run: a work directory, the commands run in it and the checks made."""

    def __init__(self, workload, data_seed, work):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.data_seed = data_seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **ONE_THREAD)
        self.commands = []
        self.references = []  # (wall_s, exit code) of each reference run
        self.checks = []  # (name, ok, detail)
        os.makedirs(os.path.join(work, "logs"))
        self.config = os.path.join(work, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "grids": GRIDS,
                    "cv_folds": CV_FOLDS,
                    "synth": {"n_sections": self.workload["n_sections"]},
                    "shap": SHAP,
                    "lime": LIME,
                },
                fh,
                indent=2,
                sort_keys=True,
            )

    # ------------------------------------------------------------ processes

    def wait(self, argv, log_path):
        """Run ``argv`` to its end; returns (wall seconds, rusage, exit code)."""
        with open(log_path, "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode

    def reference(self) -> float:
        """Run the reference task once; returns its wall time."""
        log_path = os.path.join(self.work, "logs", f"reference-{len(self.references):03d}.log")
        wall, _, code = self.wait([sys.executable, REFERENCE], log_path)
        self.references.append((wall, code))
        return wall

    def at_reference_speed(self, wall) -> float:
        """Scale ``wall``, just measured after a reference run, by that run and a new one."""
        before = self.references[-1][0]
        return wall * REFERENCE_SECONDS / ((before + self.reference()) / 2)

    def spawn(self, label, argv, out_dir) -> Command:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(self.work, "logs", f"{len(self.commands):03d}-{label.split()[0]}.log")
        wall, usage, code = self.wait(argv, log_path)
        command = Command(wall, usage.ru_maxrss / 1024.0, code, out_dir)
        self.commands.append(command)
        self.check(f"{label} exits 0", command.code == 0, f"exit {command.code}, log {log_path}")
        return command

    def launcher(self, target, trace_path):
        """argv prefix that runs the CLI (target "cli") or the model fits ("fit")."""
        if trace_path is not None:
            return [sys.executable, os.path.join(BENCH_DIR, "traced.py"), trace_path, target]
        if target == "cli":
            return [sys.executable, "-m", "floodpave.cli"]
        return [sys.executable, os.path.join(BENCH_DIR, "fit_models.py")]

    def cli(self, label, args, out_dir, seed=PROGRAM_SEED, data_dir=None, trace_path=None) -> Command:
        argv = self.launcher("cli", trace_path) + [
            "--quiet", "--config", self.config, "--seed", str(seed), "--workers", "1", "--out", out_dir,
        ]
        if data_dir is not None:
            argv += ["--records", os.path.join(data_dir, "records.csv"), "--events", os.path.join(data_dir, "events.csv")]
        return self.spawn(label, argv + [a.replace("{models}", data_dir or "") for a in args], out_dir)

    def set_up(self, dest, trace_dir=None) -> float:
        """Generate the data (and fit the explained models); returns the wall time."""
        trace = (lambda n: os.path.join(trace_dir, n)) if trace_dir else (lambda n: None)
        wall = self.cli("synth-gen", ["synth-gen"], dest, seed=self.data_seed, trace_path=trace("setup-synth.json")).wall_s
        if self.workload["fit_models"]:
            job = {
                "records": os.path.join(dest, "records.csv"),
                "out_dir": dest,
                "seed": PROGRAM_SEED,
                "test_fraction": TEST_FRACTION,
                "models": EXPLAINED_MODELS,
            }
            argv = self.launcher("fit", trace("setup-fit.json")) + [json.dumps(job)]
            wall += self.spawn("fit-models", argv, dest).wall_s
        return wall

    def run_timed(self, data_dir, seconds) -> dict:
        """Run every step once, then repeat steps while they fit in ``seconds``.

        A repeat goes to a step whose last run and a reference run still
        fit: first to one that has run fewer than MIN_RUNS times, then to
        the one that has had the least time so far, so the cheap commands
        gather many samples beside a long one. A reference run must come
        just before the call, and one follows every command. Returns
        {step label: [Command, ...]}. Each repeat's outputs must be
        byte-identical to the step's first run.
        """
        steps = dict(self.workload["steps"])
        samples = {label: [] for label in steps}
        deadline = time.perf_counter() + seconds
        label = next(iter(steps))
        while label is not None:
            done = samples[label]
            out_dir = os.path.join(self.work, "runs", f"{label}-{len(done)}")
            command = self.cli(label, steps[label], out_dir, data_dir=data_dir)
            done.append(dataclasses.replace(command, scaled_s=self.at_reference_speed(command.wall_s)))
            if len(done) > 1:
                self.check_identical(f"{label} run {len(done)} byte-identical to run 1", out_dir, done[0].out_dir)
            due = [(0, 0.0, i, l) for i, (l, d) in enumerate(samples.items()) if not d]
            if not due:
                now = time.perf_counter()
                pause = self.references[-1][0]
                due = [
                    (min(len(d), MIN_RUNS), sum(c.wall_s for c in d), i, l)
                    for i, (l, d) in enumerate(samples.items())
                    if now + d[-1].wall_s + pause <= deadline
                ]
            label = min(due)[3] if due else None
        return samples

    def run_traced(self, data_dir, trace_dir) -> tuple:
        """Run each step untraced, then traced; returns ({label: [plain]}, {label: traced})."""
        plain, traced = {}, {}
        for label, args in self.workload["steps"]:
            out_dir = os.path.join(self.work, "runs", label)
            plain[label] = [self.cli(label, args, out_dir, data_dir=data_dir)]
            traced_dir = os.path.join(self.work, "traced", label)
            trace_path = os.path.join(trace_dir, f"{label}.json")
            traced[label] = self.cli(f"{label} (traced)", args, traced_dir, data_dir=data_dir, trace_path=trace_path)
            self.check_identical(f"{label} traced outputs byte-identical to untraced", traced_dir, out_dir)
        return plain, traced

    # ---------------------------------------------------------------- checks

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def check_identical(self, name, dir_a, dir_b):
        a, b = digest(dir_a), digest(dir_b)
        differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        self.check(name, not differ, f"differing files: {differ}" if differ else f"{len(a)} files")

    def check_outputs(self, done, data_dir) -> dict:
        """Check the outputs of each step's first run; returns the test MSEs and explain figures."""
        quality = {}
        outputs = [(label, command.out_dir) for label, command in done.items()]
        if self.workload["fit_models"]:
            outputs.append(("fit_models", data_dir))
        for label, out_dir in outputs:
            try:
                if label == "fit_models":
                    quality.update(load_json(out_dir, "fit_summary.json")["test_mse"])
                elif label == "flood_analysis":
                    check_flood_counts(self, out_dir)
                elif label == "train":
                    quality.update(check_train(self, out_dir, data_dir))
                elif label.startswith("explain"):
                    quality.update(check_explain(self, label, out_dir, data_dir))
            except (OSError, ValueError, KeyError) as exc:
                self.check(f"{label} outputs readable", False, repr(exc))
        return quality


# ------------------------------------------------------------------ checks


def digest(directory) -> dict:
    """sha256 of every output file under ``directory``, by relative path."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, directory)] = sha256(path)
    return out


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_json(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return json.load(fh)


def check_flood_counts(run, out_dir):
    extraction = load_json(out_dir, "flood_summary.json")["extraction"]
    for part in ("flooded", "nonflooded"):
        s = extraction[part]
        run.check(
            f"flood_analysis {part}: extracted + dropped == candidates",
            s["extracted"] + s["dropped"] == s["candidates"],
            f"{s['extracted']} + {s['dropped']} vs {s['candidates']}",
        )


def check_train(run, out_dir, data_dir) -> dict:
    mse = {r["kind"]: r["mse"] for r in load_json(out_dir, "train_summary.json")["results"]}
    noise_var = load_json(data_dir, "ground_truth.json")["noise_std"] ** 2
    if "linear" in mse:
        run.check(
            "train: linear test MSE within 10% of the noise variance",
            abs(mse["linear"] - noise_var) <= LINEAR_MSE_TOLERANCE * noise_var,
            f"mse {mse['linear']:.4f}, noise variance {noise_var:.4f}",
        )
    return mse


def check_explain(run, label, out_dir, data_dir) -> dict:
    """SHAP efficiency, recomputed from the saved model, and the LIME feature cap."""
    # floodpave is importable once main() has put src/ on sys.path.
    from floodpave import models
    from floodpave.dataset import FEATURE_COLUMNS, filter_complete, load_csv

    model_file = next(a for a in dict(run.workload["steps"])[label] if a.endswith(".json"))
    predictor = models.load_model(model_file.replace("{models}", data_dir))
    features = list(predictor.feature_names)
    table = filter_complete(load_csv(os.path.join(data_dir, "records.csv"), schema=FEATURE_COLUMNS), features)
    row_of = {tuple(str(part) for part in key): i for i, key in enumerate(table.row_keys)}
    with open(os.path.join(out_dir, "shap_phi.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    X = table.matrix(features)[[row_of[tuple(r[:3])] for r in rows]]
    fx = predictor.predict(X)
    residuals = [abs(float(r[-1]) + sum(float(v) for v in r[3:-1]) - f) for r, f in zip(rows, fx)]
    worst = max(residuals) if residuals else math.inf
    run.check(
        f"{label}: SHAP efficiency |base + sum(phi) - f(x)| <= {SHAP_TOLERANCE:g} on {len(rows)} instances",
        worst <= SHAP_TOLERANCE,
        f"max residual {worst:.3e}",
    )

    explanations = load_json(out_dir, "lime_explanations.json")
    widest = max((len(e["contributions"]) for e in explanations), default=0)
    run.check(
        f"{label}: at most {LIME['max_features_K']} LIME contributions per instance",
        explanations and widest <= LIME["max_features_K"],
        f"{len(explanations)} instances, widest {widest}",
    )
    r2 = [e["local_fit_r2"] for e in explanations if e["local_fit_r2"] is not None]
    return {
        f"{label}.shap_max_residual": worst,
        f"{label}.lime_local_r2_mean": statistics.fmean(r2) if r2 else None,
    }


# -------------------------------------------------------------- reporting


def provenance(run, data_dir) -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return out.stdout.strip()

    sha = git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    status = git("status", "--porcelain") if sha else None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    from floodpave import models

    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": run.name,
        "data_seed": run.data_seed,
        "program_seed": PROGRAM_SEED,
        "n_sections": run.workload["n_sections"],
        "grids": dict(GRIDS, ridge=models.default_grid("ridge"), lasso=models.default_grid("lasso")),
        "shap": SHAP,
        "lime": LIME,
        "explain_instances": EXPLAIN_INSTANCES,
        "explained_models": EXPLAINED_MODELS if run.workload["fit_models"] else None,
        "test_fraction": TEST_FRACTION,
        "cv_folds": CV_FOLDS,
        "reference_seconds": REFERENCE_SECONDS,
        "reference_sha256": sha256(REFERENCE),
        "inputs_sha256": digest(data_dir),
    }


def end_to_end(run, setups, samples, quality):
    """The result's end-to-end metrics, and the named per-command figures printed above it.

    ``setups`` holds (wall, at reference speed) pairs. Times are medians at
    reference speed; a traced run has no reference runs and reports wall time.
    """
    if run.references:
        reference = statistics.median(wall for wall, _ in run.references)
        unit = "s at reference speed"
        details = [("reference_wall_s", reference, f"s, median of {len(run.references)} reference runs")]
    else:
        unit, details = "s wall", []
    raw = {label: statistics.median(c.wall_s for c in done) for label, done in samples.items()}
    timed = {
        label: statistics.median(c.wall_s if c.scaled_s is None else c.scaled_s for c in done)
        for label, done in samples.items()
    }
    setup_raw = statistics.median(w for w, _ in setups)
    mse = [quality.get(k) for k in run.workload["test_mse_kinds"]]
    baseline = quality.get("linear")
    r2 = [v for k, v in quality.items() if k.endswith("lime_local_r2_mean")]
    values = {
        "setup_s": statistics.median(w if s is None else s for w, s in setups),
        "describe_s": timed["describe"],
        "flood_analysis_s": timed["flood_analysis"],
        "model_s": sum(timed[label] for label in timed if label in MODEL_STEPS),
        "peak_rss_mb": max(c.rss_mb for done in samples.values() for c in done),
        "test_mse_ratio": statistics.fmean(mse) / baseline if None not in mse and baseline else None,
    }
    details += [
        (f"{label}_s", timed[label], f"{unit}, median of {len(done)}; wall {raw[label]:.4f} s")
        for label, done in samples.items()
    ]
    details += [
        ("setup_s", values["setup_s"], f"{unit}, median of {len(setups)}; wall {setup_raw:.4f} s"),
        ("dt_test_mse", quality.get("decision_tree"), "in2/mi2"),
        ("rf_test_mse", quality.get("random_forest"), "in2/mi2"),
        ("gbr_test_mse", quality.get("gradient_boosting"), "in2/mi2"),
        ("linear_test_mse", quality.get("linear"), "in2/mi2"),
        ("lime_local_r2_mean", statistics.fmean(r2) if r2 and None not in r2 else None, ""),
    ]
    details += [(k, v, "") for k, v in sorted(quality.items()) if k.endswith("shap_max_residual")]
    return values, details


def per_layer(traces, overhead_s, names) -> dict:
    """Sum the traces; a `.s` name is a span's self time, any other a count."""
    self_s, counts = {}, {}
    for trace in traces:
        for key, value in trace["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def per_instance(span):
        calls = counts.get(f"{span}.calls", 0)
        return counts.get(f"{span}.predict_rows", 0) / calls if calls else 0

    special = {
        "cli.import_s": statistics.median(t["import_s"] for t in traces if t["target"] == "cli"),
        "cli.write.files": counts.get("cli.write.calls", 0),
        "shapley.predict_rows_per_instance": per_instance("shapley.exact_shapley"),
        "lime.predict_rows_per_instance": per_instance("lime.fit_local_surrogate"),
        "trace.overhead_s": overhead_s,
    }

    def value(name):
        if name in special:
            return special[name]
        if name.endswith(".s"):
            return self_s.get(name[:-2], 0.0)
        return counts.get(name, 0)

    return {name: value(name) for name in names}


def print_metric(name, value, unit):
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
    print(f"{name:44} {shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated data")
    parser.add_argument("--seconds", type=float, required=True, help="time budget for the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "floodpave", "cli.py")):
        print(f"error: no floodpave sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(Run(args.workload, args.seed, work), args, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(run, args, spec) -> int:
    data_dir = os.path.join(run.work, "setup0")
    traces_dir = os.path.join(run.work, "traces")

    if args.trace:
        os.makedirs(traces_dir)
        setups = [(run.set_up(data_dir, trace_dir=traces_dir), None)]
        samples, traced = run.run_traced(data_dir, traces_dir)
    else:
        setups = []
        run.reference()
        for i in range(SETUP_REPEATS):
            dest = os.path.join(run.work, f"setup{i}")
            wall = run.set_up(dest)
            setups.append((wall, run.at_reference_speed(wall)))
            if i:
                run.check_identical(f"set-up {i + 1} byte-identical to set-up 1", dest, data_dir)
        samples = run.run_timed(data_dir, args.seconds)

    quality = run.check_outputs({label: done[0] for label, done in samples.items()}, data_dir)
    if run.references:
        codes = [code for _, code in run.references]
        run.check(f"reference task exits 0 ({len(codes)} runs)", not any(codes), f"exit codes {sorted(set(codes))}")
    values, details = end_to_end(run, setups, samples, quality)

    print(f"# workload {run.name}, data seed {run.data_seed}, trace {args.trace}")
    for name, value, unit in details:
        print_metric(name, value, unit)
    print("provenance " + json.dumps(provenance(run, data_dir), sort_keys=True))
    failed = 0
    for name, ok, detail in run.checks:
        failed += not ok
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    if args.trace:
        traces = [load_json(traces_dir, name) for name in sorted(os.listdir(traces_dir))]
        overhead = sum(c.wall_s for c in traced.values()) - sum(done[0].wall_s for done in samples.values())
        wanted = spec["per_layer"]
        values = per_layer(traces, overhead, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print_metric(name, metric["value"], metric["unit"])
    print_metric("ops", len(run.commands), "count")
    print_metric("ops_failed", failed, "count")

    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    result = {"correct": correct, "attempted": len(run.commands), "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

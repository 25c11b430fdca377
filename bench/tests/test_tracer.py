"""Tests of the benchmark's tracer.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402

# Names in BENCHMARK.json: a letter or digit, then up to 63 of [A-Za-z0-9_.-].
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12], which runs past its parent; a has child leaf [2, 3].
    spans = [
        ["root", None, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["leaf", 1, 2.0, 3.0],
        ["b", 0, 3.0, 6.0],
        ["c", 0, 8.0, 12.0],
    ]
    got = tracer.self_times(spans)
    # root: 10 minus the covered [1, 6] and [8, 10]
    assert got == pytest.approx({"root": 3.0, "a": 2.0, "leaf": 1.0, "b": 3.0, "c": 4.0})


def test_self_time_sums_spans_of_one_name():
    spans = [["f", None, 0.0, 2.0], ["g", 0, 0.5, 1.0], ["f", None, 5.0, 6.0]]
    assert tracer.self_times(spans) == pytest.approx({"f": 2.5, "g": 0.5})


def test_span_tree_from_nested_calls():
    ticks = iter(range(100))
    recorder = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = recorder.span("inner", lambda: None)
    outer = recorder.span("outer", lambda: inner())
    outer()
    assert recorder.spans == [["outer", None, 0.0, 3.0], ["inner", 0, 1.0, 2.0]]
    assert recorder.summary() == {"self_s": {"outer": 2.0, "inner": 1.0}, "counts": {"outer.calls": 1, "inner.calls": 1}}


def _names(doc):
    return [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]


def test_metric_names_follow_the_pattern():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = _names(json.load(fh))
    assert names and len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    for bad in ("", ".s", "a b", "x/y", "a" * 65):
        assert not METRIC_NAME.fullmatch(bad)


def test_every_self_time_metric_names_a_traced_span():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {m["name"][: -len(".s")] for m in json.load(fh)["per_layer"] if m["name"].endswith(".s")}
    spans = {name for _, _, name, _ in tracer._FUNCTIONS if isinstance(name, str)} | {"models.tree.predict"}
    kinds = ("linear", "ridge", "lasso", "decision_tree", "random_forest", "gradient_boosting")
    spans |= {f"models.fit.{kind}" for kind in kinds}
    assert wanted <= spans, wanted - spans


def test_span_wrapper_is_transparent():
    recorder = tracer.Tracer()

    def add(a, b=0):
        """Adds."""
        return [a, b]

    wrapped = recorder.span("add", add, count=tracer._add("add.args", lambda r, a, b=0: a + b))
    assert wrapped(2, b=3) == add(2, b=3)
    assert (wrapped.__name__, wrapped.__doc__) == ("add", "Adds.")
    assert recorder.counts == {"add.calls": 1, "add.args": 5}

    error = ValueError("boom")

    def fail():
        raise error

    with pytest.raises(ValueError) as caught:
        recorder.span("fail", fail)()
    assert caught.value is error
    assert recorder.spans[-1][0] == "fail" and recorder.spans[-1][3] is not None
    assert recorder.stack == []
    assert "fail.calls" not in recorder.counts


def test_counted_wrapper_is_transparent():
    recorder = tracer.Tracer()
    wrapped = recorder.counted(lambda x: x * 2, tracer._add("rows", lambda r, x: r))
    assert wrapped(21) == 42
    assert recorder.counts == {"rows": 42} and recorder.spans == []

    def fail():
        raise KeyError("k")

    with pytest.raises(KeyError):
        recorder.counted(fail, tracer._add("rows", lambda r: 1))()
    assert recorder.counts == {"rows": 42}


def test_traced_synth_gen_records_layers(tmp_path):
    trace_path = tmp_path / "trace.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_sections": 20, "year_start": 2010, "year_end": 2015}}))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(BENCH_DIR, "traced.py"), str(trace_path), "cli"]
    argv += ["--quiet", "--config", str(config), "--out", str(tmp_path / "out"), "synth-gen"]
    subprocess.run(argv, env=env, check=True, timeout=120)
    trace = json.loads(trace_path.read_text())
    assert trace["counts"]["synth.generate.calls"] == 1
    assert trace["counts"]["cli.write.calls"] == 3
    assert trace["import_s"] > 0 and trace["self_s"]["synth.write_dataset"] > 0
    assert (tmp_path / "out" / "records.csv").exists()

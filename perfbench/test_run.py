"""Tests of the benchmark's harness and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpus_gen
import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_harness():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.SETUPS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == run.PER_LAYER_UNITS
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == {"setup_s", "op_rel", "peak_rss_mb", "cold_rel"}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_macro_f1():
    assert run.macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0
    # class 0: tp 1, fp 1 -> 2/3; class 1: tp 0, fn 1 -> 0; class 2 absent -> 0
    assert run.macro_f1([0, 1], [0, 0], 3) == pytest.approx((2 / 3) / 3)


def test_reference_prints_its_checksum():
    done = subprocess.run([sys.executable, str(run.BENCH_DIR / "reference.py")], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == run.REFERENCE_CHECKSUM


def _restore_targets_after_test(monkeypatch):
    # setattr to the current value registers an undo that restores it.
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))


def test_every_target_exists_today(monkeypatch):
    _restore_targets_after_test(monkeypatch)
    t = tracer.Tracer()
    t.install()
    assert t.absent == set()


def test_removed_function_is_reported_absent(monkeypatch):
    _restore_targets_after_test(monkeypatch)
    import emojivote.resample

    monkeypatch.delattr(emojivote.resample, "nearest_neighbors")
    t = tracer.Tracer()
    t.install()
    assert t.absent == {"emojivote.resample.nearest_neighbors"}


def test_hook_on_unknown_shape_is_reported_absent():
    t = tracer.Tracer()
    t._run_hook(tracer.forest_shape, object(), ())
    assert t.absent == {"forest_shape"}


def test_traced_command_nests_spans(tmp_path):
    text, labels = tmp_path / "t.txt", tmp_path / "t.lab"
    corpus_gen.write_corpus(*corpus_gen.generate(60, 1, "en"), text, labels)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    argv = run.traced_argv(spans_path, ["resample", str(text), str(labels), "-k", "20"])
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    dump = json.loads(spans_path.read_text())
    parents = {s["name"]: s["parent"] for s in dump["spans"]}
    assert parents["cli.main"] == "<root>"
    assert parents["resample.smote"] == "cli.main"
    assert parents["resample.nearest_neighbors"] == "resample.smote"
    assert parents["preprocess.tokenize"] == "features.vectorize_corpus"
    assert dump["counters"]["synthetic_rows"] > 0 and dump["absent"] == []


def test_run_without_sources_fails(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "corpus_gen.py", "reference.py", "tracer.py"):
        (bench / name).write_bytes((run.BENCH_DIR / name).read_bytes())
    argv = [sys.executable, str(bench / "run.py"), "--workload", "train-en", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""

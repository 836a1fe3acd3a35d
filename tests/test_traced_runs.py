"""The benchmark's tracer still finds every span and counter it reads from a

`train`, a `predict` and a `resample` run. Its hooks read values of the
program's own types; a refactor that changes them reports the hook absent
instead of failing, so this checks that none goes missing unnoticed. A name
the tracer wraps but the command no longer calls through is not absent, but
its span never fires, so the spans each command must record are listed too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import skewed_corpus

ROOT = Path(__file__).resolve().parent.parent


def traced(tmp_path, name, args) -> dict:
    spans = tmp_path / f"{name}.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "--", *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("traced")
    corpus = skewed_corpus(200, seed=5)
    text, labels = tmp_path / "t.txt", tmp_path / "t.lab"
    text.write_text("".join(t + "\n" for t in corpus.texts), encoding="utf-8")
    labels.write_text("".join(f"{c}\n" for c in corpus.labels), encoding="utf-8")
    model = tmp_path / "m.bin"
    train = ["train", str(text), str(labels), "-k", "5", "-o", str(model), "--min-df", "2", "--trees", "2"]
    return {
        "train": traced(tmp_path, "train", train),
        "predict": traced(tmp_path, "predict", ["predict", str(model), str(text)]),
        "resample": traced(tmp_path, "resample", ["resample", str(text), str(labels), "-k", "5", "--min-df", "2"]),
    }


FIRED = {
    "train": {"ensemble.build_meta", "archive.save", "resample.smote"},
    "predict": {"archive.load", "features.text_to_vector"},
    "resample": {"resample.smote", "features.vectorize_corpus"},
}


@pytest.mark.parametrize("command", ["train", "predict", "resample"])
def test_every_span_and_counter_is_read(runs, command):
    dump = runs[command]
    assert dump["exit_code"] == 0
    assert dump["absent"] == []
    assert FIRED[command] - {span["name"] for span in dump["spans"] if span["calls"] > 0} == set()
    assert dump["counters"]["grams_in_vocab"] > 0

import json
import os
import signal
import stat
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emojivote
from emojivote import cli
from emojivote.archive import archive_load
from emojivote.cli import _stratified_split, main
from emojivote.corpus import RawCorpus
from emojivote.features import text_to_vector

from helpers import assert_reaped, raise_, record_forks, set_cpus


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy")
    rng = np.random.default_rng(1)
    words = {0: ["happy", "joy"], 1: ["sad", "cry"], 2: ["angry", "rage"]}
    noise = ["the", "a", "to", "lol"]
    texts, labels = [], []
    for _ in range(90):
        c = int(rng.choice(3, p=[0.5, 0.3, 0.2]))
        toks = [words[c][int(rng.integers(2))]] + [noise[int(rng.integers(4))] for _ in range(2)]
        texts.append(" ".join(toks))
        labels.append(c)
    (tmp / "t.txt").write_text("".join(s + "\n" for s in texts), encoding="utf-8")
    (tmp / "l.txt").write_text("".join(f"{l}\n" for l in labels), encoding="utf-8")
    return tmp


TRAIN_FLAGS = ["--min-df", "2", "--trees", "3", "--seed", "7"]


@pytest.fixture(scope="module")
def trained_model(toy_files):
    out = toy_files / "model.bin"
    rc = main(
        ["train", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3", "-o", str(out)]
        + TRAIN_FLAGS
    )
    assert rc == 0
    return out


class TestTrain:
    def test_archive_loads(self, trained_model):
        ar = archive_load(trained_model)
        assert ar.metadata["num_classes"] == 3
        assert ar.vocabulary.size > 0

    def test_smoke_vocab_size(self, tmp_path):
        (tmp_path / "t.txt").write_text("a b\n" * 6)
        (tmp_path / "l.txt").write_text("0\n1\n0\n1\n0\n1\n")
        out = tmp_path / "m.bin"
        rc = main(
            ["train", str(tmp_path / "t.txt"), str(tmp_path / "l.txt"), "-k", "2",
             "-o", str(out), "--trees", "2"]
        )
        assert rc == 0
        assert archive_load(out).vocabulary.size == 3

    def test_spanish_presets_recorded(self, toy_files, tmp_path):
        out = tmp_path / "es.bin"
        rc = main(
            ["train", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3",
             "-o", str(out), "--lang", "es"] + TRAIN_FLAGS
        )
        assert rc == 0
        meta = archive_load(out).metadata
        assert meta["base_weights"] == [1.1, 1.0, 1.0]
        assert meta["meta_weights"] == [3.0, 1.0]

    def test_english_presets_recorded(self, trained_model):
        meta = archive_load(trained_model).metadata
        assert meta["base_weights"] == [1.5, 6.0, 1.0]
        assert meta["meta_weights"] == [4.0, 1.0]

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["train", str(tmp_path / "no.txt"), str(tmp_path / "no.lbl"), "-k", "2",
                   "-o", str(tmp_path / "m.bin")])
        assert rc == 2

    def test_bad_weight_flag_is_usage_error(self, toy_files, tmp_path):
        rc = main(
            ["train", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3",
             "-o", str(tmp_path / "m.bin"), "--base-weights", "1,2"]
        )
        assert rc == 1

    @pytest.mark.parametrize("command", ["train", "resample"])
    @pytest.mark.parametrize(
        "flag", [["--trees", "0"], ["--alpha", "0"], ["--l2", "-1"], ["--min-df", "0"],
                 ["--smote-k", "0"], ["--alpha", "nan"], ["--alpha", "inf"], ["--l2", "nan"],
                 ["--base-weights", "nan,1,1"], ["--meta-weights", "inf,1"], ["--seed", "-1"]]
    )
    def test_invalid_model_flag_is_usage_error(self, toy_files, tmp_path, capsys, command, flag):
        argv = [command, str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3"] + flag
        if command == "train":
            argv += ["-o", str(tmp_path / "m.bin")]
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    def test_empty_vocabulary_is_data_error(self, toy_files, tmp_path, capsys):
        rc = main(
            ["train", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3",
             "-o", str(tmp_path / "m.bin"), "--min-df", "100000"]
        )
        assert rc == 2
        assert "--min-df 100000" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_missing_output_directory_fails_before_any_fit(self, toy_files, tmp_path, capsys):
        out = tmp_path / "missing" / "m.bin"
        rc = main(["train", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3",
                   "-o", str(out)] + TRAIN_FLAGS)
        assert rc == 2
        captured = capsys.readouterr()
        assert str(out) in captured.err
        assert "corpus:" not in captured.out

    @pytest.mark.parametrize("split", ["-0.2", "0", "1.0", "1.5"])
    def test_split_out_of_range_is_usage_error(self, toy_files, tmp_path, split):
        rc = main(
            ["train", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3",
             "-o", str(tmp_path / "m.bin"), "--split", split] + TRAIN_FLAGS
        )
        assert rc == 1
        assert not (tmp_path / "m.bin").exists()

    def test_output_printed_once_with_forked_workers(self, toy_files, tmp_path):
        # 90 tweets x 20 trees grow in forked workers on a machine with 2+ CPUs;
        # piped stdout is block-buffered, so a worker that flushed it at exit
        # would print these lines again.
        src = str(Path(emojivote.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "emojivote.cli", "train", str(toy_files / "t.txt"),
             str(toy_files / "l.txt"), "-k", "3", "-o", str(tmp_path / "m.bin"), "--min-df", "2"],
            stdout=subprocess.PIPE, env=env, text=True, timeout=120, check=True,
        )
        for line in ("corpus:", "vocabulary:", "resample plan:", "model written"):
            assert proc.stdout.count(line) == 1, proc.stdout

    def test_split_holds_out_a_fraction(self, toy_files, tmp_path, capsys):
        rc = main(
            ["train", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3",
             "-o", str(tmp_path / "m.bin"), "--split", "0.2"] + TRAIN_FLAGS
        )
        assert rc == 0
        assert "split: 71 train / 19 held out" in capsys.readouterr().out

    def test_split_that_empties_a_class_is_data_error(self, toy_files, tmp_path, capsys):
        # class 3 has one tweet, and --split 0.6 holds out round(0.6) = 1 of it
        texts = (toy_files / "t.txt").read_text() + "happy sad angry\n"
        (tmp_path / "t.txt").write_text(texts, encoding="utf-8")
        (tmp_path / "l.txt").write_text((toy_files / "l.txt").read_text() + "3\n")
        rc = main(
            ["train", str(tmp_path / "t.txt"), str(tmp_path / "l.txt"), "-k", "4",
             "-o", str(tmp_path / "m.bin"), "--split", "0.6"] + TRAIN_FLAGS
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert "--split 0.6" in err and "class 3" in err
        assert "corpus:" not in out
        assert not (tmp_path / "m.bin").exists()


def loop_split(corpus: RawCorpus, fraction: float, seed: int):
    """The per-class corpus scans `_stratified_split` replaced, kept as the reference."""
    rng = np.random.default_rng([seed, 0xD1])
    test_idx = set()
    for c in range(corpus.num_classes):
        members = [i for i, lab in enumerate(corpus.labels) if lab == c]
        n_test = int(round(len(members) * fraction))
        chosen = rng.permutation(len(members))[:n_test]
        test_idx.update(members[i] for i in chosen)
    train_i = [i for i in range(len(corpus)) if i not in test_idx]
    test_i = [i for i in range(len(corpus)) if i in test_idx]
    make = lambda idx: RawCorpus(
        texts=[corpus.texts[i] for i in idx],
        labels=[corpus.labels[i] for i in idx],
        num_classes=corpus.num_classes,
    )
    return make(train_i), make(test_i)


class TestStratifiedSplit:
    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 4), max_size=60),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**16),
    )
    def test_holds_out_what_the_loop_held_out(self, labels, fraction, seed):
        # k = 6 leaves class 5 (and often others) without members.
        corpus = RawCorpus(texts=[f"t{i}" for i in range(len(labels))], labels=labels, num_classes=6)
        for got, want in zip(_stratified_split(corpus, fraction, seed), loop_split(corpus, fraction, seed)):
            assert got == want
            assert all(type(lab) is int for lab in got.labels)


class TestPredict:
    def test_meta_line_shape(self, trained_model, toy_files, tmp_path):
        out = tmp_path / "pred.txt"
        rc = main(["predict", str(trained_model), str(toy_files / "t.txt"), "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 90
        assert all(0 <= int(l) < 3 for l in lines)

    def test_selectors_deterministic(self, trained_model, toy_files, tmp_path):
        for selector in ("mnb", "lr", "rf", "ensemble1", "ensemble2", "meta"):
            a, b = tmp_path / "a.txt", tmp_path / "b.txt"
            for out in (a, b):
                rc = main(["predict", str(trained_model), str(toy_files / "t.txt"),
                           "--selector", selector, "-o", str(out)])
                assert rc == 0
            assert a.read_text() == b.read_text()

    def test_proba_flag(self, trained_model, toy_files, tmp_path):
        out = tmp_path / "p.txt"
        rc = main(["predict", str(trained_model), str(toy_files / "t.txt"),
                   "--proba", "-o", str(out)])
        assert rc == 0
        first = out.read_text().splitlines()[0]
        label, probs = first.split("\t")
        values = [float(v) for v in probs.split()]
        assert len(values) == 3
        assert abs(sum(values) - 1.0) < 1e-4
        assert int(label) == int(np.argmax(values))

    def test_empty_input(self, trained_model, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("")
        out = tmp_path / "out.txt"
        rc = main(["predict", str(trained_model), str(src), "-o", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_pipeline_composition_matches_library(self, trained_model, toy_files):
        ar = archive_load(trained_model)
        texts = (toy_files / "t.txt").read_text().splitlines()
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["predict", str(trained_model), str(toy_files / "t.txt")]) == 0
        cli_preds = [int(l) for l in buf.getvalue().splitlines()]
        lib_preds = [
            int(ar.model.predict(text_to_vector([t], ar.policy, ar.vocabulary))[0]) for t in texts
        ]
        assert cli_preds == lib_preds

    def test_chunked_predict_matches_library(self, trained_model, toy_files, tmp_path):
        # Two full 256-row chunks and a one-row remainder, with all-OOV lines.
        ar = archive_load(trained_model)
        texts = (toy_files / "t.txt").read_text().splitlines() + ["zzz qqq", ""]
        texts = (texts * 6)[: 2 * 256 + 1]
        src = tmp_path / "many.txt"
        src.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        out = tmp_path / "many.pred"
        assert main(["predict", str(trained_model), str(src), "-o", str(out)]) == 0
        lib_preds = [
            str(ar.model.predict(text_to_vector([t], ar.policy, ar.vocabulary))[0]) for t in texts
        ]
        assert out.read_text().splitlines() == lib_preds

    def test_cr_inside_line_is_data_error(self, trained_model, tmp_path):
        src = tmp_path / "cr.txt"
        src.write_bytes(b"happy the\rsad a\njoy lol\n")
        out = tmp_path / "out.txt"
        assert main(["predict", str(trained_model), str(src), "-o", str(out)]) == 2
        assert not out.exists()


SELECTORS = ("mnb", "lr", "rf", "ensemble1", "ensemble2", "meta")
CHUNK = 4  # PREDICT_CHUNK in the tests below, so that small inputs span processes


def predict_inputs(toy_files, tmp_path, n):
    """Text and gold files of the first n toy tweets, cycled, with all-OOV lines."""
    texts = (toy_files / "t.txt").read_text().splitlines() + ["zzz qqq", ""]
    labels = (toy_files / "l.txt").read_text().splitlines() + ["0", "1"]
    text, gold = tmp_path / f"t{n}.txt", tmp_path / f"l{n}.txt"
    text.write_text("".join(texts[i % len(texts)] + "\n" for i in range(n)), encoding="utf-8")
    gold.write_text("".join(labels[i % len(labels)] + "\n" for i in range(n)), encoding="utf-8")
    return text, gold


def predict_outputs(trained_model, text, gold, out_dir, capsys) -> list:
    """predict --proba under every selector, then evaluate: each exit code and output."""
    read = lambda path: path.read_bytes() if path.exists() else None
    outputs = []
    for selector in SELECTORS:
        out = out_dir / f"{selector}.pred"
        rc = main(["predict", str(trained_model), str(text), "--selector", selector, "--proba",
                   "-o", str(out)])
        outputs.append((rc, read(out)))
    report, matrix = out_dir / "report.txt", out_dir / "matrix.csv"
    rc = main(["evaluate", str(trained_model), str(text), str(gold),
               "--report", str(report), "--matrix", str(matrix)])
    outputs.append((rc, capsys.readouterr(), read(report), read(matrix)))
    return outputs


def first_vectorize(monkeypatch, in_parent=None, in_worker=None):
    """Make each process call its action before it vectorizes its first chunk."""
    parent, vectorize = os.getpid(), cli.text_to_vector

    def patched(*args):
        action = in_parent if os.getpid() == parent else in_worker
        if action is not None:
            action()
        return vectorize(*args)

    monkeypatch.setattr(cli, "text_to_vector", patched)


class TestParallelPredict:
    """Prediction forks one process per full PREDICT_CHUNK, at most one per CPU,

    and its output does not depend on how many processes shared the work.
    """

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 11 * CHUNK + 3])
    def test_same_output_on_any_cpu_count(self, trained_model, toy_files, tmp_path, capsys,
                                          monkeypatch, n):
        text, gold = predict_inputs(toy_files, tmp_path, n)
        monkeypatch.setattr(cli, "PREDICT_CHUNK", CHUNK)
        pids = record_forks(monkeypatch)
        outputs = {}
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            out_dir = tmp_path / f"cpus{cpus}"
            out_dir.mkdir()
            forks = len(pids)
            outputs[cpus] = predict_outputs(trained_model, text, gold, out_dir, capsys)
            # seven commands, each forking all but one of its processes
            assert len(pids) - forks == 7 * (max(1, min(cpus, n // CHUNK)) - 1)
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]
        assert outputs[1][0][0] == 0 and outputs[1][-1][0] == (0 if n else 2)
        assert_reaped(pids)

    @pytest.mark.parametrize("n", [1, 2 * 256 - 1])
    def test_less_than_two_full_chunks_never_forks(self, trained_model, toy_files, tmp_path,
                                                   monkeypatch, n):
        text, _ = predict_inputs(toy_files, tmp_path, n)
        set_cpus(monkeypatch, 8)
        monkeypatch.setattr(os, "fork", lambda: raise_(AssertionError("forked")))
        out = tmp_path / "out.txt"
        assert main(["predict", str(trained_model), str(text), "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == n

    @pytest.mark.parametrize("exc, raised", [
        (MemoryError(), MemoryError),
        (ValueError("bad"), ValueError),
        (ValueError(lambda: 0), RuntimeError),  # does not pickle: sent as its repr
    ])
    def test_worker_exception_raised_in_parent(self, trained_model, monkeypatch, exc, raised):
        ar = archive_load(trained_model)
        monkeypatch.setattr(cli, "PREDICT_CHUNK", CHUNK)
        set_cpus(monkeypatch, 3)
        pids = record_forks(monkeypatch)
        first_vectorize(monkeypatch, in_worker=lambda: raise_(exc))
        with pytest.raises(raised):
            list(cli._predict_chunks(ar, ["happy joy"] * (3 * CHUNK), "meta"))
        assert len(pids) == 2
        assert_reaped(pids)

    def test_killed_worker_raises(self, trained_model, monkeypatch):
        ar = archive_load(trained_model)
        monkeypatch.setattr(cli, "PREDICT_CHUNK", CHUNK)
        set_cpus(monkeypatch, 3)
        pids = record_forks(monkeypatch)
        first_vectorize(monkeypatch, in_worker=lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=f"signal {int(signal.SIGKILL)}"):
            list(cli._predict_chunks(ar, ["happy joy"] * (3 * CHUNK), "meta"))
        assert_reaped(pids)

    def test_parent_failure_kills_and_reaps_workers(self, trained_model, monkeypatch):
        ar = archive_load(trained_model)
        monkeypatch.setattr(cli, "PREDICT_CHUNK", CHUNK)
        set_cpus(monkeypatch, 3)
        pids = record_forks(monkeypatch)
        first_vectorize(
            monkeypatch, in_parent=lambda: raise_(KeyboardInterrupt()),
            in_worker=lambda: time.sleep(60),
        )
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            list(cli._predict_chunks(ar, ["happy joy"] * (3 * CHUNK), "meta"))
        assert time.monotonic() - start < 30
        assert len(pids) == 2
        assert_reaped(pids)


class TestEvaluate:
    def test_report_and_matrix(self, trained_model, toy_files, tmp_path):
        report = tmp_path / "rep.txt"
        matrix = tmp_path / "cm.csv"
        rc = main(["evaluate", str(trained_model), str(toy_files / "t.txt"),
                   str(toy_files / "l.txt"), "--report", str(report), "--matrix", str(matrix)])
        assert rc == 0
        assert "macro" in report.read_text()
        assert len(matrix.read_text().strip().splitlines()) == 4  # header + 3 classes

    def test_separable_corpus_perfect_mnb(self, tmp_path):
        texts = ["aaa bbb"] * 6 + ["ccc ddd"] * 6
        labels = [0] * 6 + [1] * 6
        (tmp_path / "t.txt").write_text("".join(s + "\n" for s in texts))
        (tmp_path / "l.txt").write_text("".join(f"{l}\n" for l in labels))
        model = tmp_path / "m.bin"
        assert main(["train", str(tmp_path / "t.txt"), str(tmp_path / "l.txt"), "-k", "2",
                     "-o", str(model), "--min-df", "2", "--trees", "2"]) == 0
        report = tmp_path / "rep.txt"
        assert main(["evaluate", str(model), str(tmp_path / "t.txt"), str(tmp_path / "l.txt"),
                     "--selector", "mnb", "--report", str(report)]) == 0
        assert "  1.00" in report.read_text().splitlines()[-1]

    def test_gold_shorter_is_data_error(self, trained_model, toy_files, tmp_path):
        short = tmp_path / "short.lbl"
        short.write_text("0\n")
        rc = main(["evaluate", str(trained_model), str(toy_files / "t.txt"), str(short)])
        assert rc == 2


class TestStatsAndResample:
    def test_stats_output(self, tmp_path, capsys):
        (tmp_path / "t.txt").write_text("x\ny\nz\n")
        (tmp_path / "l.txt").write_text("0\n0\n1\n")
        assert main(["stats", str(tmp_path / "t.txt"), str(tmp_path / "l.txt"), "-k", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "0: 2 (66.67%)"
        assert out[1] == "1: 1 (33.33%)"
        assert out[2] == "2: 0 (0.00%)"

    @pytest.mark.parametrize("flag", [["--alpha", "1"], ["--trees", "3"]])
    def test_resample_rejects_model_flags(self, toy_files, capsys, flag):
        argv = ["resample", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3"] + flag
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    def test_resample_stats(self, toy_files, capsys):
        rc = main(["resample", str(toy_files / "t.txt"), str(toy_files / "l.txt"),
                   "-k", "3", "--min-df", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resampled size:" in out

    def test_resample_empty_vocabulary_is_data_error(self, toy_files, capsys):
        rc = main(["resample", str(toy_files / "t.txt"), str(toy_files / "l.txt"),
                   "-k", "3", "--min-df", "100000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "no n-gram occurs in --min-df 100000 tweets" in captured.err
        assert "resampled size:" not in captured.out


# (command, input, defect): each input of each command that reads text, given
# as a directory, and each text input holding a byte that is not UTF-8.
UNREADABLE = [
    (command, part, defect)
    for command, parts in {
        "train": ("tweets", "labels"), "predict": ("model", "tweets"),
        "evaluate": ("model", "tweets", "labels"), "resample": ("tweets", "labels"),
        "stats": ("tweets", "labels"),
    }.items()
    for part in parts
    for defect in ("a directory",) + (() if part == "model" else ("not UTF-8",))
]


@pytest.mark.parametrize("command, part, defect", UNREADABLE)
def test_unreadable_input_is_data_error(trained_model, toy_files, tmp_path, capsys, command, part, defect):
    paths = {"tweets": toy_files / "t.txt", "labels": toy_files / "l.txt", "model": trained_model}
    if defect == "a directory":
        bad = tmp_path
    else:  # the first line ends in one stray byte; the line count is kept
        bad = tmp_path / "bad.txt"
        byte = b"\xe9" if part == "tweets" else b"\xff"
        bad.write_bytes(paths[part].read_bytes().replace(b"\n", byte + b"\n", 1))
    paths[part] = bad
    text, labels, model = (str(paths[p]) for p in ("tweets", "labels", "model"))
    argv = {
        "train": ["train", text, labels, "-k", "3", "-o", str(tmp_path / "m.bin")] + TRAIN_FLAGS,
        "predict": ["predict", model, text],
        "evaluate": ["evaluate", model, text, labels],
        "resample": ["resample", text, labels, "-k", "3", "--min-df", "2"],
        "stats": ["stats", text, labels, "-k", "3"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert err.startswith(f"data error: {bad}: ")


@pytest.mark.parametrize("command, flag", [
    ("train", "-o"), ("predict", "-o"), ("evaluate", "--report"), ("evaluate", "--matrix"),
])
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_output_fails_before_any_work(trained_model, toy_files, tmp_path, capsys, command, flag, where):
    out = tmp_path / "missing" / "out.txt" if where == "missing directory" else tmp_path
    before = sorted(tmp_path.iterdir())
    text, labels, model = str(toy_files / "t.txt"), str(toy_files / "l.txt"), str(trained_model)
    argv = {
        "train": ["train", text, labels, "-k", "3"] + TRAIN_FLAGS,
        "predict": ["predict", model, text],
        "evaluate": ["evaluate", model, text, labels],
    }[command] + [flag, str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: {out}: ")
    assert captured.out == ""  # nothing was read, fitted or scored first
    assert sorted(tmp_path.iterdir()) == before


OUTPUT_COMMANDS = [("train", "-o"), ("predict", "-o"), ("evaluate", "--report"), ("evaluate", "--matrix")]


def output_argv(command, flag, out, toy_files, trained_model):
    text, labels, model = str(toy_files / "t.txt"), str(toy_files / "l.txt"), str(trained_model)
    return {
        "train": ["train", text, labels, "-k", "3"] + TRAIN_FLAGS,
        "predict": ["predict", model, text],
        "evaluate": ["evaluate", model, text, labels],
    }[command] + [flag, str(out)]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestOutputFiles:
    @pytest.mark.parametrize("command, flag", OUTPUT_COMMANDS)
    def test_fifo_is_not_replaced(self, trained_model, toy_files, tmp_path, capsys, command, flag):
        out = tmp_path / "fifo"
        os.mkfifo(out)
        assert main(output_argv(command, flag, out, toy_files, trained_model)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: {out}: not a regular file\n"
        assert captured.out == ""
        assert stat.S_ISFIFO(out.lstat().st_mode)
        assert sorted(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("command, flag", OUTPUT_COMMANDS)
    def test_new_file_gets_the_umask_mode(self, trained_model, toy_files, tmp_path, umask_022, command, flag):
        out = tmp_path / "out"
        assert main(output_argv(command, flag, out, toy_files, trained_model)) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    @pytest.mark.parametrize("command, flag", OUTPUT_COMMANDS)
    def test_replaced_file_keeps_its_mode(self, trained_model, toy_files, tmp_path, umask_022, command, flag):
        out = tmp_path / "out"
        out.write_text("old\n")
        out.chmod(0o604)
        assert main(output_argv(command, flag, out, toy_files, trained_model)) == 0
        assert out.read_bytes() != b"old\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o604

    @pytest.mark.parametrize("command, flag", OUTPUT_COMMANDS)
    def test_symlink_is_written_through(self, trained_model, toy_files, tmp_path, umask_022, command, flag):
        real, link = tmp_path / "real", tmp_path / "link"
        real.write_text("old\n")
        real.chmod(0o640)
        link.symlink_to(real.name)
        assert main(output_argv(command, flag, link, toy_files, trained_model)) == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_bytes() != b"old\n"
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]

    @pytest.mark.parametrize("command, flag", OUTPUT_COMMANDS)
    def test_symlink_loop_fails_before_any_work(self, trained_model, toy_files, tmp_path, capsys, command, flag):
        link = tmp_path / "link"
        link.symlink_to(link.name)
        assert main(output_argv(command, flag, link, toy_files, trained_model)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: {link}: cannot follow its symlinks\n"
        assert captured.out == ""
        assert os.readlink(link) == link.name and sorted(tmp_path.iterdir()) == [link]

    @pytest.mark.parametrize("command, flag", OUTPUT_COMMANDS)
    def test_symlink_loop_fails_where_resolve_does_not_raise(self, trained_model, toy_files, tmp_path, capsys,
                                                             monkeypatch, command, flag):
        # From Python 3.13, Path.resolve() returns a looping path as it stands instead of raising.
        monkeypatch.setattr(Path, "resolve", lambda self, strict=False: Path(os.path.realpath(self)))
        link = tmp_path / "link"
        link.symlink_to(link.name)
        assert main(output_argv(command, flag, link, toy_files, trained_model)) == 2
        assert capsys.readouterr().err == f"data error: {link}: cannot follow its symlinks\n"
        assert os.readlink(link) == link.name and sorted(tmp_path.iterdir()) == [link]

    @pytest.mark.parametrize("command, flag", OUTPUT_COMMANDS)
    def test_dangling_symlink_creates_its_target(self, trained_model, toy_files, tmp_path, command, flag):
        real, link = tmp_path / "real", tmp_path / "link"
        link.symlink_to(real.name)
        assert main(output_argv(command, flag, link, toy_files, trained_model)) == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.is_file() and real.stat().st_size > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]

    @pytest.mark.parametrize("command, flag", OUTPUT_COMMANDS)
    def test_temp_file_failure_names_the_output(self, trained_model, toy_files, tmp_path, capsys, monkeypatch,
                                                command, flag):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(tmp_path / "tmpXXXX.tmp"))

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        out = tmp_path / "out"
        assert main(output_argv(command, flag, out, toy_files, trained_model)) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {out}: cannot write: Permission denied\n"
        assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "resample", "stats"])
@pytest.mark.parametrize("k", ["1", "0", "-3"])
def test_fewer_than_two_classes_is_usage_error(tmp_path, capsys, command, k):
    # The files do not exist: reading them first would be a data error (exit 2).
    argv = [command, str(tmp_path / "t.txt"), str(tmp_path / "l.txt"), "-k", k]
    if command == "train":
        argv += ["-o", str(tmp_path / "m.bin")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: -k must be at least 2, got {k}\n"


def test_importing_text_modules_skips_numpy():
    # The package root imports nothing, so these modules load without numpy.
    script = "import sys, emojivote.corpus, emojivote.preprocess, emojivote.exceptions\n" \
             "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(Path(emojivote.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def one_tweet(toy_files, tmp_path) -> str:
    """A file of the toy corpus's first tweet: a cold one-tweet predict's input."""
    path = tmp_path / "one.txt"
    path.write_text((toy_files / "t.txt").read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    return str(path)


def test_no_command_imports_numpy_ma(trained_model, toy_files, tmp_path):
    # Importing numpy.ma costs a process 11-18 ms and about 1.6 MB of peak RSS.
    text, labels, model = str(toy_files / "t.txt"), str(toy_files / "l.txt"), str(tmp_path / "m.bin")
    commands = [
        ["predict", str(trained_model), one_tweet(toy_files, tmp_path)],  # first, in a fresh process
        ["train", text, labels, "-k", "3", "-o", model] + TRAIN_FLAGS,
        ["train", text, labels, "-k", "3", "-o", model, "--split", "0.2"] + TRAIN_FLAGS,
        ["predict", model, text, "--proba", "-o", str(tmp_path / "p.txt")],
        ["evaluate", model, text, labels, "--report", str(tmp_path / "r.txt")],
        ["resample", text, labels, "-k", "3", "--min-df", "2"],
        ["stats", text, labels, "-k", "3"],
    ]
    assert_commands_skip(commands, "numpy.ma")


def test_predicting_imports_no_numpy_random(trained_model, toy_files, tmp_path):
    # Importing numpy.random costs a process about 2.5 MB of peak RSS; only fits draw.
    text, labels, model = str(toy_files / "t.txt"), str(toy_files / "l.txt"), str(trained_model)
    commands = [
        ["predict", model, one_tweet(toy_files, tmp_path)],  # first, in a fresh process
        ["predict", model, text, "--proba", "-o", str(tmp_path / "p.txt")],
        ["evaluate", model, text, labels, "--report", str(tmp_path / "r.txt")],
        ["stats", text, labels, "-k", "3"],
    ]
    assert_commands_skip(commands, "numpy.random")


def test_resample_and_stats_skip_the_model_stack(toy_files):
    # Importing the models, the archive and the metrics was about a third of a resample's start-up.
    text, labels = str(toy_files / "t.txt"), str(toy_files / "l.txt")
    commands = [
        ["resample", text, labels, "-k", "3", "--min-df", "2", "--lang", "es"],
        ["stats", text, labels, "-k", "3"],
    ]
    model_stack = ["emojivote.classifiers", "emojivote.ensemble", "emojivote.archive", "emojivote.metrics"]
    assert_commands_skip(commands, *model_stack)


def test_predicting_and_training_without_split_skip_metrics(trained_model, toy_files, tmp_path):
    text, labels = str(toy_files / "t.txt"), str(toy_files / "l.txt")
    commands = [
        ["predict", str(trained_model), one_tweet(toy_files, tmp_path)],  # first, in a fresh process
        ["predict", str(trained_model), text, "--proba", "-o", str(tmp_path / "p.txt")],
        ["train", text, labels, "-k", "3", "-o", str(tmp_path / "m.bin")] + TRAIN_FLAGS,
    ]
    assert_commands_skip(commands, "emojivote.metrics")


def assert_commands_skip(commands, *modules: str):
    """Run the commands in one fresh process, which must import none of `modules`."""
    script = (
        "import json, sys\n"
        "from emojivote.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "imported = [m for m in sys.argv[2:] if m in sys.modules]\n"
        "assert not imported, f'a command imported {imported}'\n"
    )
    src = str(Path(emojivote.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands), *modules], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


CORPUS_FLAGS = ["--classes", "--lang", "--ascii-policy", "--min-df", "--smote-k", "--seed"]
MODEL_FLAGS = ["--out", "--split", "--selector", "--alpha", "--l2", "--trees", "--base-weights", "--meta-weights"]


class TestParser:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["text", "labels"] + CORPUS_FLAGS + MODEL_FLAGS),
        ("predict", ["model", "text", "--out", "--selector", "--proba"]),
        ("evaluate", ["model", "text", "gold", "--selector", "--mapping", "--report", "--matrix"]),
        ("resample", ["text", "labels"] + CORPUS_FLAGS),
        ("stats", ["text", "labels", "--classes"]),
    ])
    def test_command_help_lists_its_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: emojivote {command} ")
        assert [flag for flag in flags if flag not in out] == []

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in ("train", "predict", "evaluate", "resample", "stats"))

    @pytest.mark.parametrize("argv", [["bogus"], ["bogus", "--help"], [], ["-k", "3"]])
    def test_unknown_or_missing_command_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_no_argv_reads_the_command_line(self, toy_files, capsys, monkeypatch):
        argv = ["stats", str(toy_files / "t.txt"), str(toy_files / "l.txt"), "-k", "3"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["emojivote"] + argv)
        assert main(None) == 0
        assert capsys.readouterr().out == expected != ""


class TestDeterminism:
    def test_identical_flags_identical_predictions(self, toy_files, tmp_path):
        preds = []
        for name in ("m1.bin", "m2.bin"):
            model = tmp_path / name
            rc = main(["train", str(toy_files / "t.txt"), str(toy_files / "l.txt"),
                       "-k", "3", "-o", str(model)] + TRAIN_FLAGS)
            assert rc == 0
            out = tmp_path / (name + ".pred")
            assert main(["predict", str(model), str(toy_files / "t.txt"), "-o", str(out)]) == 0
            preds.append(out.read_text())
        assert preds[0] == preds[1]


def archive_sections(path) -> list[bytes]:
    """The header, vocabulary and model sections of an archive, as stored."""
    blob, pos, sections = path.read_bytes(), 5, []  # after the magic and the version byte
    for _ in range(3):
        (length,) = struct.unpack_from("<Q", blob, pos)
        sections.append(blob[pos + 8 : pos + 8 + length])
        pos += 8 + length
    return sections


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_same_model_on_any_cpu_or_blas_thread_count(tmp_path):
    # 300 English tweets from the benchmark's generator, whose LR products are large
    # enough for OpenBLAS to thread them where it may use two or more cores.
    root = Path(emojivote.__file__).parents[2]
    script = "import sys; sys.path.insert(0, sys.argv[1]); import corpus_gen\n" \
             "corpus_gen.write_corpus(*corpus_gen.generate(300, 1, 'en', 'train'), *sys.argv[2:])"
    text, labels = tmp_path / "t.txt", tmp_path / "t.lab"
    subprocess.run([sys.executable, "-c", script, str(root / "perfbench"), text, labels], check=True, timeout=60)
    train = "import os, sys\n" \
            "if sys.argv[1] == 'one cpu':\n" \
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" \
            "from emojivote.cli import main\n" \
            "sys.exit(main(sys.argv[2:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(emojivote.__file__).parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    models = []
    for run in ("default", "one blas thread", "one cpu"):
        model = tmp_path / f"{run}.bin"
        argv = ["train", str(text), str(labels), "-k", "20", "--lang", "en", "-o", str(model)]
        run_env = {**env, "OPENBLAS_NUM_THREADS": "1"} if run == "one blas thread" else env
        done = subprocess.run([sys.executable, "-c", train, run, *argv], env=run_env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        models.append(archive_sections(model)[1:])  # the header holds a timestamp
    assert models[0] == models[1] == models[2]

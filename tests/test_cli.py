import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emojivote
from emojivote.archive import archive_load
from emojivote.cli import _stratified_split, main
from emojivote.corpus import RawCorpus
from emojivote.features import text_to_vector


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


def test_no_command_imports_numpy_ma(toy_files, tmp_path):
    # Importing numpy.ma costs a process 11-18 ms and about 1.6 MB of peak RSS.
    text, labels, model = str(toy_files / "t.txt"), str(toy_files / "l.txt"), str(tmp_path / "m.bin")
    commands = [
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
        ["predict", model, text, "--proba", "-o", str(tmp_path / "p.txt")],
        ["evaluate", model, text, labels, "--report", str(tmp_path / "r.txt")],
        ["stats", text, labels, "-k", "3"],
    ]
    assert_commands_skip(commands, "numpy.random")


def assert_commands_skip(commands, module: str):
    """Run the commands in one fresh process, which must not import `module`."""
    script = (
        "import json, sys\n"
        "from emojivote.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "assert sys.argv[2] not in sys.modules, 'a command imported ' + sys.argv[2]\n"
    )
    src = str(Path(emojivote.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands), module], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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

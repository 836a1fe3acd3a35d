"""Tests of the benchmark's corpus generator.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import corpus_gen
from run import F1_FLOOR_FACTOR, SIZES, macro_f1

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from emojivote.classifiers import mnb_fit  # noqa: E402
from emojivote.corpus import RawCorpus, load_corpus  # noqa: E402
from emojivote.features import FeatureConfig, text_to_vector, vectorize_corpus  # noqa: E402
from emojivote.preprocess import AsciiPolicy  # noqa: E402

# (style, training size, held-out size) of each workload that fits a model.
TRAINED = [
    ("en", SIZES["train-en"]["train"], SIZES["train-en"]["heldout"]),
    ("es", SIZES["predict-es"]["train"], SIZES["predict-es"]["meta"]),
]


def _write(tmp_path, name, n, seed, style):
    text, labels = tmp_path / f"{name}.txt", tmp_path / f"{name}.lab"
    corpus_gen.write_corpus(*corpus_gen.generate(n, seed, style), text, labels)
    return text.read_bytes(), labels.read_bytes()


@pytest.mark.parametrize("style", ["en", "es"])
def test_same_seed_same_bytes(tmp_path, style):
    first = _write(tmp_path, "a", 500, 7, style)
    assert _write(tmp_path, "b", 500, 7, style) == first
    assert _write(tmp_path, "c", 500, 8, style) != first


@pytest.mark.parametrize("style", ["en", "es"])
def test_file_format(tmp_path, style):
    k = corpus_gen.STYLES[style]["classes"]
    text, labels = _write(tmp_path, "f", 2000, 3, style)
    assert b"\r" not in text and b"\r" not in labels
    assert text.endswith(b"\n") and labels.endswith(b"\n")
    lines = text.decode("utf-8").split("\n")[:-1]
    assert len(lines) == 2000 and all(line.strip() for line in lines)
    assert all(0 <= int(x) < k for x in labels.decode().split())
    corpus = load_corpus(tmp_path / "f.txt", tmp_path / "f.lab", k)
    assert len(corpus) == 2000 and set(corpus.labels) == set(range(k))


def test_spanish_style_exercises_the_tokenizer():
    texts, _ = corpus_gen.generate(2000, 5, "es")
    joined = "\n".join(texts)
    for ch in corpus_gen._REMOVED + ["á", "é", "ó", "ñ", "#", "@", "'", ","]:
        assert ch in joined, ch


@pytest.mark.parametrize("style", ["en", "es"])
@pytest.mark.parametrize("n", [300, 5000])
def test_priors_match_targets(style, n):
    priors = corpus_gen.class_priors(style)
    _, labels = corpus_gen.generate(n, 11, style)
    shares = np.bincount(labels, minlength=len(priors)) / n
    # Largest-remainder rounding: within one tweet per class, except where
    # the two-per-class floor lifts a tiny class.
    assert np.abs(shares - priors).max() <= max(1.0 / n, 2.0 / n - priors.min())
    assert 0.18 < priors.max() < 0.22 and 0.015 < priors.min() < 0.03


@pytest.mark.parametrize("style,n,held", TRAINED)
def test_class_signal_beats_majority_baseline(style, n, held):
    k = corpus_gen.STYLES[style]["classes"]
    policy = AsciiPolicy.KEEP_MOST
    vocab, dataset = vectorize_corpus(RawCorpus(*corpus_gen.generate(n, 2, style), k), policy, FeatureConfig())
    lex = corpus_gen.lexicon(style)
    # The most frequent indicative word of every class survives min_df=5.
    assert all(words[0] in vocab.feature_to_index for words in lex.indicative)
    model = mnb_fit(dataset)
    texts, gold = corpus_gen.generate(held, 2, style, "test")
    pred = [int(np.argmax(model.predict_proba(text_to_vector(t, policy, vocab)))) for t in texts]
    majority = int(np.argmax(np.bincount(gold)))
    baseline = macro_f1(gold, [majority] * len(gold), k)
    assert macro_f1(gold, pred, k) > F1_FLOOR_FACTOR * baseline

"""Shared builders for tests: dense/sparse conversion and synthetic corpora."""

import dataclasses
import os

import numpy as np

from emojivote.corpus import RawCorpus
from emojivote.features import CsrMatrix, LabeledDataset

SKEW_FRACTIONS = [0.6, 0.2, 0.1, 0.06, 0.04]
ACCENTS = ["á", "é", "í"]


def csr_from_rows(rows, dimension) -> CsrMatrix:
    """A batch from rows of (index, count) pairs, each row in index order."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    pairs = [p for r in rows for p in r]
    indices = np.array([i for i, _ in pairs], dtype=np.intp)
    return CsrMatrix(indptr, indices, np.array([c for _, c in pairs], dtype=float), dimension)


def csr_from_dense(X) -> CsrMatrix:
    X = np.asarray(X, dtype=float)
    rows, columns = np.nonzero(X)
    indptr = np.zeros(len(X) + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=len(X)), out=indptr[1:])
    return CsrMatrix(indptr, columns, X[rows, columns], X.shape[1])


def with_labels(X: CsrMatrix, labels, num_classes) -> LabeledDataset:
    labels = np.asarray(labels, dtype=np.intp)
    return LabeledDataset(X.indptr, X.indices, X.data, X.dimension, labels, num_classes)


def dataset_from_dense(X, labels, num_classes) -> LabeledDataset:
    return with_labels(csr_from_dense(X), labels, num_classes)


def to_dense(X: CsrMatrix) -> np.ndarray:
    out = np.zeros((len(X), X.dimension))
    out[X.row_ids(), X.indices] = X.data
    return out


def dataset_to_dense(dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    return to_dense(dataset), dataset.labels


def same(a: CsrMatrix, b: CsrMatrix) -> bool:
    """Field-by-field equality of two batches or two datasets."""
    fields = [f.name for f in dataclasses.fields(a)]
    return type(a) is type(b) and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


def rows_of(X: CsrMatrix) -> list[tuple[tuple[int, float], ...]]:
    """Each row's (index, count) pairs, in index order."""
    pairs = list(zip(X.indices.tolist(), X.data.tolist()))
    return [tuple(pairs[a:b]) for a, b in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist())]


def skewed_corpus(n: int, seed: int) -> RawCorpus:
    """Skewed 5-class corpus with class-correlated tokens plus noise.

    Majority-class tweets sometimes carry only a rare-class token, so the
    Bayes-optimal call on those tweets depends on the class priors: models
    trained on balanced (oversampled) data over-predict the rare classes
    there, trading overall accuracy for rare-class recall.
    """
    rng = np.random.default_rng(seed)
    class_words = [[f"c{c}w{i}" for i in range(3)] for c in range(5)]
    noise = [f"n{i}" for i in range(15)]
    texts, labels = [], []
    for _ in range(n):
        c = int(rng.choice(5, p=SKEW_FRACTIONS))
        if c == 0 and rng.random() < 0.45:
            r = int(rng.integers(3, 5))
            toks = [class_words[r][int(rng.integers(3))]]
        else:
            toks = [class_words[c][int(rng.integers(3))]]
        toks += [noise[int(rng.integers(15))] for _ in range(3)]
        texts.append(" ".join(toks))
        labels.append(c)
    return RawCorpus(texts=texts, labels=labels, num_classes=5)


def accent_corpus(n: int, seed: int) -> RawCorpus:
    """Corpus whose classes differ only in the accented character of the

    keyword: stripping non-ASCII collapses all class keywords to "tok".
    """
    rng = np.random.default_rng(seed)
    noise = [f"n{i}" for i in range(10)]
    texts, labels = [], []
    for _ in range(n):
        c = int(rng.integers(3))
        toks = ["tok" + ACCENTS[c]] + [noise[int(rng.integers(10))] for _ in range(3)]
        texts.append(" ".join(toks))
        labels.append(c)
    return RawCorpus(texts=texts, labels=labels, num_classes=3)


def record_forks(monkeypatch) -> list[int]:
    """The pids of the children os.fork makes from now on."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids

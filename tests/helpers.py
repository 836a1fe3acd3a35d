"""Shared builders for tests: dense/sparse conversion and synthetic corpora."""

import numpy as np

from emojivote.corpus import RawCorpus
from emojivote.features import CsrMatrix, LabeledDataset, SparseCountVector

SKEW_FRACTIONS = [0.6, 0.2, 0.1, 0.06, 0.04]
ACCENTS = ["á", "é", "í"]


def dataset_from_dense(X, labels, num_classes) -> LabeledDataset:
    rows = [SparseCountVector.from_dense(r) for r in np.asarray(X, dtype=float)]
    return LabeledDataset(
        rows=rows, labels=list(labels), num_classes=num_classes, dimension=X.shape[1]
    )


def dataset_to_dense(dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    X = np.zeros((len(dataset.rows), dataset.dimension))
    for i, row in enumerate(dataset.rows):
        for idx, cnt in row.entries:
            X[i, idx] = cnt
    return X, np.asarray(dataset.labels, dtype=np.intp)


def csr_from_dense(X) -> CsrMatrix:
    X = np.asarray(X, dtype=float)
    return CsrMatrix.from_rows([SparseCountVector.from_dense(r) for r in X], X.shape[1])


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

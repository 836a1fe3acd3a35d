"""N-gram vocabulary with document-frequency cutoff and sparse count vectors."""

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import RawCorpus
from .preprocess import AsciiPolicy, extract_ngrams, normalize, tokenize


@dataclass(frozen=True)
class FeatureConfig:
    min_df: int = 5
    use_unigrams: bool = True
    use_bigrams: bool = True

    def __post_init__(self):
        if self.min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {self.min_df}")


@dataclass(frozen=True)
class Vocabulary:
    index_to_feature: list[str]
    feature_to_index: dict[str, int] = field(repr=False)
    num_unigrams: int
    num_bigrams: int

    @property
    def size(self) -> int:
        return len(self.index_to_feature)


@dataclass(frozen=True)
class SparseCountVector:
    """Sorted (index, count) pairs; zero entries omitted. Counts may be

    fractional (SMOTE output interpolates between integer count vectors).
    """

    entries: tuple[tuple[int, float], ...]
    dimension: int

    def __post_init__(self):
        prev = -1
        for idx, cnt in self.entries:
            if idx <= prev or idx >= self.dimension:
                raise ValueError("entry indices must be strictly increasing and < dimension")
            if not cnt > 0:
                raise ValueError("entry counts must be positive")
            prev = idx

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dimension)
        for idx, cnt in self.entries:
            out[idx] = cnt
        return out

    @classmethod
    def from_dense(cls, arr) -> "SparseCountVector":
        entries = tuple((int(i), float(v)) for i, v in enumerate(arr) if v != 0)
        return cls(entries=entries, dimension=len(arr))


@dataclass(frozen=True)
class CsrMatrix:
    """A batch of sparse count rows in compressed sparse row form: row i holds

    counts data[indptr[i]:indptr[i + 1]] at strictly increasing column
    indices[indptr[i]:indptr[i + 1]]. A row may be empty (every gram OOV).
    """

    indptr: np.ndarray  # (n + 1,) intp, indptr[0] == 0
    indices: np.ndarray  # (nnz,) intp
    data: np.ndarray  # (nnz,) float
    dimension: int

    def __post_init__(self):
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must start at 0 and never decrease")
        if not len(self.indices) == len(self.data) == self.indptr[-1]:
            raise ValueError("indices and data must hold indptr[-1] entries")
        # Each index must exceed its predecessor in the row, with -1 standing
        # in before a row's first entry, and stay below the dimension.
        previous = np.concatenate(([-1], self.indices))[:-1]
        previous[self.indptr[:-1][np.diff(self.indptr) > 0]] = -1
        if not np.all((previous < self.indices) & (self.indices < self.dimension)):
            raise ValueError("indices must lie in [0, dimension) and strictly increase within a row")

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry, in entry order."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def take(self, rows: np.ndarray) -> "CsrMatrix":
        """The given rows in the given order; a row may be taken more than once."""
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(sizes, out=indptr[1:])
        entries = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], sizes)
        return CsrMatrix(indptr, self.indices[entries], self.data[entries], self.dimension)

    @classmethod
    def from_rows(cls, rows: list[SparseCountVector], dimension: int) -> "CsrMatrix":
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum([len(r.entries) for r in rows], out=indptr[1:])
        flat = chain.from_iterable(chain.from_iterable(r.entries for r in rows))
        pairs = np.fromiter(flat, dtype=float, count=2 * indptr[-1])  # index, count, ...
        return cls(indptr, pairs[0::2].astype(np.intp), pairs[1::2].copy(), dimension)


@dataclass(frozen=True)
class LabeledDataset:
    rows: list[SparseCountVector]
    labels: list[int]
    num_classes: int
    dimension: int

    def __post_init__(self):
        if len(self.rows) != len(self.labels):
            raise ValueError("rows and labels must have equal length")
        for row in self.rows:
            if row.dimension != self.dimension:
                raise ValueError("row dimension mismatch")
        for lab in self.labels:
            if not 0 <= lab < self.num_classes:
                raise ValueError(f"label {lab} out of range")

    def __len__(self) -> int:
        return len(self.rows)


def _is_bigram(feature: str) -> bool:
    return " " in feature


def build_vocabulary(bags: list[Counter], cfg: FeatureConfig) -> Vocabulary:
    """Retain features appearing in >= min_df distinct bags, indexed lexicographically."""
    df: Counter = Counter()
    for bag in bags:
        df.update(set(bag))
    kept = []
    for feat, n in df.items():
        if n < cfg.min_df:
            continue
        if _is_bigram(feat):
            if cfg.use_bigrams:
                kept.append(feat)
        elif cfg.use_unigrams:
            kept.append(feat)
    kept.sort()
    return Vocabulary(
        index_to_feature=kept,
        feature_to_index={f: i for i, f in enumerate(kept)},
        num_unigrams=sum(1 for f in kept if not _is_bigram(f)),
        num_bigrams=sum(1 for f in kept if _is_bigram(f)),
    )


def vectorize(bag: Counter, vocab: Vocabulary) -> SparseCountVector:
    """Count vector of the bag over the vocabulary; OOV grams ignored."""
    entries = sorted(
        (vocab.feature_to_index[f], float(c)) for f, c in bag.items() if f in vocab.feature_to_index
    )
    return SparseCountVector(entries=tuple(entries), dimension=vocab.size)


def corpus_ngram_bags(corpus: RawCorpus, policy: AsciiPolicy) -> list[Counter]:
    return [extract_ngrams(tokenize(normalize(t, policy))) for t in corpus.texts]


def vectorize_corpus(
    corpus: RawCorpus, policy: AsciiPolicy, cfg: FeatureConfig
) -> tuple[Vocabulary, LabeledDataset]:
    """Full text pipeline: normalize, tokenize, n-grams, vocabulary, count vectors."""
    bags = corpus_ngram_bags(corpus, policy)
    vocab = build_vocabulary(bags, cfg)
    rows = [vectorize(bag, vocab) for bag in bags]
    return vocab, LabeledDataset(
        rows=rows, labels=list(corpus.labels), num_classes=corpus.num_classes, dimension=vocab.size
    )


def text_to_vector(text: str, policy: AsciiPolicy, vocab: Vocabulary) -> SparseCountVector:
    """Vectorize a single raw tweet against a fixed vocabulary."""
    return vectorize(extract_ngrams(tokenize(normalize(text, policy))), vocab)

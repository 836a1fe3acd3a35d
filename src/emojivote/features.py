"""N-gram vocabulary with document-frequency cutoff and sparse count rows."""

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .corpus import RawCorpus
from .preprocess import AsciiPolicy, extract_ngrams, normalize, tokenize


@dataclass(frozen=True)
class FeatureConfig:
    min_df: int = 5

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
class CsrMatrix:
    """A batch of sparse count rows in compressed sparse row form: row i holds

    counts data[indptr[i]:indptr[i + 1]] at strictly increasing column
    indices[indptr[i]:indptr[i + 1]]. A row may be empty (every gram OOV).
    Building one checks that layout with one bool of scratch per entry and
    per row: order compares each index with the one before it, and bounds
    are a min and a max.
    """

    indptr: np.ndarray  # (n + 1,) intp, indptr[0] == 0
    indices: np.ndarray  # (nnz,) intp
    data: np.ndarray  # (nnz,) float
    dimension: int

    def __post_init__(self):
        indptr, indices = self.indptr, self.indices
        if indptr[0] != 0 or np.any(indptr[:-1] > indptr[1:]):
            raise ValueError("indptr must start at 0 and never decrease")
        if not len(indices) == len(self.data) == indptr[-1]:
            raise ValueError("indices and data must hold indptr[-1] entries")
        # rising[e]: entry e starts a row or exceeds entry e - 1. indptr holds
        # every row start (and nnz, a spare slot), empty rows' starts included.
        rising = np.empty(len(indices) + 1, dtype=bool)
        np.less(indices[:-1], indices[1:], out=rising[1:-1])
        rising[indptr] = True
        if not rising.all() or len(indices) and not (
            0 <= indices.min() and indices.max() < self.dimension
        ):
            raise ValueError("indices must lie in [0, dimension) and strictly increase within a row")

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry, in entry order."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def positions(self, rows: np.ndarray, lengths=None) -> tuple[np.ndarray, np.ndarray]:
        """(owner, position) of every entry of the given rows, row after row: owner

        is the row's place in `rows`, position the entry's in indices and data.
        Given `lengths`, only the first lengths[i] entries of rows[i].
        """
        starts = self.indptr[rows]
        if lengths is None:
            lengths = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(len(rows)), lengths)
        return owner, np.arange(len(owner)) + (starts - np.cumsum(lengths) + lengths)[owner]

    def take(self, rows: np.ndarray) -> "CsrMatrix":
        """The given rows in the given order; a row may be taken more than once."""
        owner, pos = self.positions(rows)
        return from_entries(owner, self.indices[pos], self.data[pos], len(rows), self.dimension)

    def transpose(self) -> "CsrMatrix":
        """The columns as rows: row j holds the rows with a count in column j,

        in increasing order, and those counts.
        """
        order = np.argsort(self.indices, kind="stable")
        rows = self.row_ids()[order]
        return from_entries(self.indices[order], rows, self.data[order], self.dimension, len(self))


def _indptr(rows, n: int) -> np.ndarray:
    """The indptr of n rows, given the sorted row of every entry."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def from_entries(rows, indices, data, n: int, dimension: int) -> CsrMatrix:
    """n rows holding data[e] at (rows[e], indices[e]), entries sorted by row, then column."""
    return CsrMatrix(_indptr(rows, n), indices, data, dimension)


@dataclass(frozen=True)
class LabeledDataset(CsrMatrix):
    """Training rows with a class label each. Counts are positive and finite

    (the forest's split search relies on it); they may be fractional, as
    SMOTE interpolates between integer count rows.
    """

    labels: np.ndarray  # (n,) intp, each in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        super().__post_init__()
        if len(self.labels) != len(self):
            raise ValueError("rows and labels must have equal length")
        # Written so that NaN, which every comparison fails, fails them too.
        labels, data = self.labels, self.data
        if len(labels) and not (0 <= labels.min() and labels.max() < self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if len(data) and not (0 < data.min() and data.max() < np.inf):
            raise ValueError("entry counts must be positive and finite")


def build_vocabulary(bags: list[Counter], cfg: FeatureConfig) -> Vocabulary:
    """Retain features appearing in >= min_df distinct bags, indexed lexicographically."""
    df = Counter(chain.from_iterable(bags))  # a bag holds each gram once, so counts are bags
    kept = sorted(feat for feat, n in df.items() if n >= cfg.min_df)
    num_bigrams = sum(1 for f in kept if " " in f)
    return Vocabulary(
        index_to_feature=kept,
        feature_to_index={f: i for i, f in enumerate(kept)},
        num_unigrams=len(kept) - num_bigrams,
        num_bigrams=num_bigrams,
    )


def _count_entries(bags: list[Counter], vocab: Vocabulary) -> tuple:
    """(row, column, count) of the bags' in-vocabulary grams, sorted by row, then column."""
    n, grams = len(bags), sum(map(len, bags))
    lookup = map(vocab.feature_to_index.get, chain.from_iterable(bags), repeat(-1))
    columns = np.fromiter(lookup, np.intp, grams)
    counts = np.fromiter(chain.from_iterable(map(dict.values, bags)), float, grams)
    rows = np.repeat(np.arange(n), np.fromiter(map(len, bags), np.intp, n))
    kept = columns >= 0
    rows, columns, counts = rows[kept], columns[kept], counts[kept]
    order = np.argsort(rows * vocab.size + columns)  # keys are unique: by row, then column
    return rows, columns[order], counts[order]  # rows are sorted


def vectorize(bags: list[Counter], vocab: Vocabulary) -> CsrMatrix:
    """One count row per bag over the vocabulary; OOV grams ignored."""
    return from_entries(*_count_entries(bags, vocab), len(bags), vocab.size)


def ngram_bags(texts: list[str], policy: AsciiPolicy) -> list[Counter]:
    memo: dict[str, list[str]] = {}  # chunk -> tokens, for this call's texts only
    return [extract_ngrams(tokenize(normalize(t, policy), memo)) for t in texts]


def vectorize_corpus(
    corpus: RawCorpus, policy: AsciiPolicy, cfg: FeatureConfig
) -> tuple[Vocabulary, LabeledDataset]:
    """Full text pipeline: normalize, tokenize, n-grams, vocabulary, count rows."""
    bags = ngram_bags(corpus.texts, policy)
    vocab = build_vocabulary(bags, cfg)
    rows, columns, counts = _count_entries(bags, vocab)
    labels, k = np.asarray(corpus.labels, dtype=np.intp), corpus.num_classes
    indptr = _indptr(rows, len(bags))
    return vocab, LabeledDataset(indptr, columns, counts, vocab.size, labels, k)


def text_to_vector(texts: list[str] | str, policy: AsciiPolicy, vocab: Vocabulary) -> CsrMatrix:
    """Vectorize raw tweets against a fixed vocabulary, one row each; a lone

    string is a batch of one.
    """
    return vectorize(ngram_bags([texts] if isinstance(texts, str) else texts, policy), vocab)

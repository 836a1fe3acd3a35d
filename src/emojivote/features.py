"""N-gram vocabulary with document-frequency cutoff and sparse count rows."""

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

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
    """Retain features appearing in >= min_df distinct bags, indexed lexicographically.

    The bag-based reference for vectorize_corpus's vocabulary, which is built
    from token ids without bags.
    """
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


class _TokenIds(dict):
    """Token -> id: a token not seen before takes the next id."""

    def __missing__(self, token: str) -> int:
        self[token] = len(self)
        return len(self) - 1


def _token_ids(texts: list[str], policy: AsciiPolicy) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The texts' token ids, in one flat int64 array; each text's token count;

    and the tokens by id, ids numbered in order of first appearance.
    """
    memo: dict[str, list[str]] = {}  # chunk -> tokens, for this call's texts only
    intern, ids, lengths = _TokenIds(), array("q"), array("q")
    for t in texts:
        tokens = tokenize(normalize(t, policy), memo)
        lengths.append(len(tokens))
        ids.extend(map(intern.__getitem__, tokens))
    return np.asarray(ids), np.asarray(lengths), list(intern)


def vectorize_corpus(
    corpus: RawCorpus, policy: AsciiPolicy, cfg: FeatureConfig
) -> tuple[Vocabulary, LabeledDataset]:
    """Full text pipeline: normalize, tokenize, n-grams, vocabulary, count rows.

    The vocabulary and rows are build_vocabulary's and vectorize's over
    ngram_bags, without a bag: with T distinct tokens, a gram is an int64
    key, a token's id for a unigram and T + a * T + b for tokens a, b next to
    each other in one tweet. Counts and document frequencies are taken over
    the keys, and only the grams kept are spelled out as strings.
    """
    ids, lengths, tokens = _token_ids(corpus.texts, policy)
    n, T = len(lengths), len(tokens)
    token_rows = np.repeat(np.arange(n), lengths)
    starts = np.flatnonzero(token_rows[:-1] == token_rows[1:])  # each bigram's first token
    # Gram g is token g's unigram for g < T, else the bigram of key bigrams[g - T].
    bigrams, bigram_of = np.unique(T + ids[starts] * T + ids[starts + 1], return_inverse=True)
    G = T + len(bigrams)
    pairs = np.concatenate([token_rows * G + ids, token_rows[starts] * G + (T + bigram_of)])
    del ids, lengths, token_rows, starts, bigram_of
    pairs, counts = np.unique(pairs, return_counts=True)  # (row, gram) pairs, by row, then gram
    counts = counts.astype(float)
    rows, pair_grams = np.divmod(pairs, G)
    del pairs
    kept = np.flatnonzero(np.bincount(pair_grams, minlength=G) >= cfg.min_df)
    # Only the grams kept are spelled out.
    num_unigrams = int(np.searchsorted(kept, T))
    first, second = np.divmod(bigrams[kept[num_unigrams:] - T] - T, T)
    features = [tokens[a] for a in kept[:num_unigrams].tolist()]
    features += [tokens[a] + " " + tokens[b] for a, b in zip(first.tolist(), second.tolist())]
    del tokens, bigrams
    by_spelling = sorted(range(len(features)), key=features.__getitem__)
    index_to_feature = [features[i] for i in by_spelling]
    vocab = Vocabulary(
        index_to_feature=index_to_feature,
        feature_to_index={f: i for i, f in enumerate(index_to_feature)},
        num_unigrams=num_unigrams,
        num_bigrams=len(index_to_feature) - num_unigrams,
    )
    del features
    column_of = np.full(G, -1, dtype=np.intp)  # each gram's column, -1 if not kept
    column_of[kept[by_spelling]] = np.arange(vocab.size)
    columns = column_of[pair_grams]
    del column_of, pair_grams
    # One array at a time: the filtered and sorted copies of all three never coexist with the originals.
    in_vocab = columns >= 0
    rows = rows[in_vocab]
    columns = columns[in_vocab]
    counts = counts[in_vocab]
    del in_vocab
    order = np.argsort(rows * vocab.size + columns)  # keys are unique: by row, then column
    columns = columns[order]
    counts = counts[order]
    labels, k = np.asarray(corpus.labels, dtype=np.intp), corpus.num_classes
    return vocab, LabeledDataset(_indptr(rows, n), columns, counts, vocab.size, labels, k)


# A NamedTuple, not a frozen dataclass: defining it costs each process about 0.5 ms less.
class TokenTable(NamedTuple):
    """A vocabulary's n-gram features by token id, for text_to_vector.

    ids maps each of the T tokens that features spell to an id below T; a
    token that no feature spells takes id T. A gram's slot is its feature's
    place in column order, and columns[slot] its column. unigram[a] is the
    slot of token a's unigram, -1 if it is no feature (id T included). The
    bigram of tokens a, b has slot bigram_slots[i] where bigram_keys[i] ==
    a * (T + 1) + b; the keys are sorted and end with (T + 1) ** 2, above
    every pair's, so a search always lands on a key. Slots, not columns,
    keep apart two features that a hand-built vocabulary gives one column,
    so that a tweet holding both fails the layout check, as vectorize's
    rows do.
    """

    ids: dict[str, int]
    unigram: np.ndarray  # (T + 1,) intp
    bigram_keys: np.ndarray  # (bigrams + 1,) int64
    bigram_slots: np.ndarray  # (bigrams + 1,) intp
    columns: np.ndarray  # (slots,) intp, non-decreasing


def token_table(vocab: Vocabulary) -> TokenTable:
    """The vocabulary's features by token id, read from feature_to_index as

    vectorize reads it: its string keys, as no gram equals any other, with
    their columns converted to intp as np.fromiter converts them, a negative
    one skipped as out of vocabulary. A gram is one token, or two joined by
    one space, and no token is empty or holds whitespace, so a feature with
    more than one space matches no gram and is skipped; a part that no token
    can equal takes an id that no token looks up.
    """
    features = [f for f in vocab.feature_to_index if isinstance(f, str)]
    column_of = np.fromiter(map(vocab.feature_to_index.__getitem__, features), np.intp, len(features))
    ids, unigrams, firsts, seconds = _TokenIds(), array("q"), array("q"), array("q")
    unigram_features, bigram_features = array("q"), array("q")
    for i in np.flatnonzero(column_of >= 0).tolist():
        parts = features[i].split(" ")
        if len(parts) == 1:
            unigrams.append(ids[parts[0]])
            unigram_features.append(i)
        elif len(parts) == 2:
            firsts.append(ids[parts[0]])
            seconds.append(ids[parts[1]])
            bigram_features.append(i)
    T = len(ids)
    columns = column_of[np.asarray(unigram_features + bigram_features, dtype=np.intp)]
    by_column = np.argsort(columns, kind="stable")
    slot = np.empty_like(by_column)
    slot[by_column] = np.arange(len(columns))
    unigram = np.full(T + 1, -1, dtype=np.intp)
    unigram[np.asarray(unigrams, dtype=np.intp)] = slot[: len(unigrams)]
    keys = np.asarray(firsts) * (T + 1) + np.asarray(seconds, dtype=np.int64)
    by_key = np.argsort(keys)
    return TokenTable(
        ids=ids,
        unigram=unigram,
        bigram_keys=np.append(keys[by_key], (T + 1) ** 2),
        bigram_slots=np.append(slot[len(unigrams) :][by_key], -1),
        columns=columns[by_column],
    )


def text_to_vector(
    texts: list[str] | str, policy: AsciiPolicy, vocab: Vocabulary, table: TokenTable | None = None
) -> CsrMatrix:
    """Vectorize raw tweets against a fixed vocabulary, one row each; a lone

    string is a batch of one. The rows are vectorize's over ngram_bags,
    without a bag: each token is looked up once in `table`, token_table(vocab)
    (built here if not given), its unigram's slot read by id and its bigram
    with the next token found by one searchsorted over the table's keys. The
    (row, slot) pairs are counted by a sort and a run-length pass.
    """
    if isinstance(texts, str):
        texts = [texts]
    if table is None:
        table = token_table(vocab)
    memo: dict[str, list[str]] = {}  # chunk -> tokens, for this call's texts only
    tokens = [tokenize(normalize(t, policy), memo) for t in texts]
    n, T, S = len(tokens), len(table.unigram) - 1, len(table.columns)
    lengths = np.fromiter(map(len, tokens), np.intp, n)
    ids = np.fromiter(map(table.ids.get, chain.from_iterable(tokens), repeat(T)), np.int64, lengths.sum())
    token_rows = np.repeat(np.arange(n), lengths)
    starts = np.flatnonzero(token_rows[:-1] == token_rows[1:])  # each bigram's first token
    keys = ids[starts] * (T + 1) + ids[starts + 1]
    found = np.searchsorted(table.bigram_keys, keys)
    bigram = np.where(table.bigram_keys[found] == keys, table.bigram_slots[found], -1)
    slots = np.concatenate([table.unigram[ids], bigram])
    kept = slots >= 0
    pairs = np.sort(np.concatenate([token_rows, token_rows[starts]])[kept] * S + slots[kept])
    first = np.flatnonzero(np.diff(pairs, prepend=-1))  # each distinct (row, slot) pair
    counts = np.diff(first, append=len(pairs)).astype(float)
    rows, slots = np.divmod(pairs[first], S)
    return from_entries(rows, table.columns[slots], counts, n, vocab.size)

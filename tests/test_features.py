import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emojivote.corpus import RawCorpus
from emojivote.features import (
    CsrMatrix,
    FeatureConfig,
    LabeledDataset,
    Vocabulary,
    build_vocabulary,
    ngram_bags,
    text_to_vector,
    vectorize,
    vectorize_corpus,
)
from emojivote.preprocess import AsciiPolicy, extract_ngrams, normalize, tokenize

from csr_oracle import check_csr, check_labeled
from helpers import csr_from_rows, rows_of, same, to_dense, with_labels

bags_strategy = st.lists(
    st.lists(st.text(alphabet="abcd", min_size=1, max_size=2), min_size=0, max_size=6).map(
        extract_ngrams
    ),
    min_size=0,
    max_size=25,
)


class TestBuildVocabulary:
    def test_df_cutoff(self):
        bags = [Counter({"a": 1, "b": 1}) for _ in range(4)] + [Counter({"a": 3})]
        vocab = build_vocabulary(bags, FeatureConfig(min_df=5))
        assert vocab.index_to_feature == ["a"]  # b has df 4 only

    def test_min_df_1_keeps_all(self):
        bags = [Counter({"x": 1}), Counter({"y": 2})]
        vocab = build_vocabulary(bags, FeatureConfig(min_df=1))
        assert vocab.index_to_feature == ["x", "y"]

    def test_bigram_retained(self):
        bags = [extract_ngrams(["a", "b"]) for _ in range(5)]
        vocab = build_vocabulary(bags, FeatureConfig(min_df=5))
        assert "a b" in vocab.feature_to_index
        assert vocab.num_unigrams == 2
        assert vocab.num_bigrams == 1

    def test_empty_input(self):
        assert build_vocabulary([], FeatureConfig()).size == 0

    def test_lexicographic_order(self):
        bags = [Counter({"z": 1, "a": 1, "m n": 1})]
        vocab = build_vocabulary(bags, FeatureConfig(min_df=1))
        assert vocab.index_to_feature == sorted(vocab.index_to_feature)

    @given(bags_strategy, st.integers(1, 5))
    def test_df_brute_force_oracle(self, bags, min_df):
        vocab = build_vocabulary(bags, FeatureConfig(min_df=min_df))
        candidates = set().union(*(set(b) for b in bags)) if bags else set()
        for feat in candidates:
            df = sum(1 for b in bags if feat in b)
            assert (feat in vocab.feature_to_index) == (df >= min_df)

    @given(bags_strategy, st.integers(1, 4), st.randoms(use_true_random=False))
    def test_order_independent(self, bags, min_df, rnd):
        v1 = build_vocabulary(bags, FeatureConfig(min_df=min_df))
        shuffled = list(bags)
        rnd.shuffle(shuffled)
        v2 = build_vocabulary(shuffled, FeatureConfig(min_df=min_df))
        assert v1 == v2


class TestVectorize:
    def test_basic(self):
        vocab = build_vocabulary([Counter({"a": 1, "a b": 1})], FeatureConfig(min_df=1))
        (v,) = rows_of(vectorize([Counter({"a": 2, "a b": 1})], vocab))
        idx = vocab.feature_to_index
        assert dict(v) == {idx["a"]: 2.0, idx["a b"]: 1.0}

    def test_oov_ignored(self):
        vocab = build_vocabulary([Counter({"a": 1})], FeatureConfig(min_df=1))
        assert rows_of(vectorize([Counter({"zzz": 4})], vocab)) == [()]

    def test_empty_bag(self):
        vocab = build_vocabulary([Counter({"a": 1})], FeatureConfig(min_df=1))
        v = vectorize([Counter()], vocab)
        assert rows_of(v) == [()] and v.dimension == 1

    @given(bags_strategy)
    def test_linearity(self, bags):
        vocab = build_vocabulary(bags, FeatureConfig(min_df=1))
        if len(bags) < 2:
            return
        b1, b2 = bags[0], bags[1]
        combined = to_dense(vectorize([b1 + b2], vocab))
        assert np.array_equal(combined, to_dense(vectorize([b1], vocab)) + to_dense(vectorize([b2], vocab)))

    @given(bags_strategy)
    def test_row_sum_counts_in_vocab_grams(self, bags):
        vocab = build_vocabulary(bags, FeatureConfig(min_df=2))
        for bag in bags:
            expected = sum(c for f, c in bag.items() if f in vocab.feature_to_index)
            got = sum(c for _, c in rows_of(vectorize([bag], vocab))[0])
            assert got == expected


class TestVectorizeCorpus:
    def test_six_copies(self):
        corpus = RawCorpus(["a b"] * 6, [0, 1, 0, 1, 0, 1], 2)
        vocab, d = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=5))
        assert vocab.index_to_feature == ["a", "a b", "b"]
        for row in rows_of(d):
            assert [c for _, c in row] == [1.0, 1.0, 1.0]
        assert d.labels.tolist() == corpus.labels

    def test_cutoff_exceeds_corpus(self):
        corpus = RawCorpus(["hello world"], [0], 2)
        vocab, d = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=5))
        assert vocab.size == 0
        assert all(r == () for r in rows_of(d))

    def test_df_oracle_random_corpora(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(12)]
        for trial in range(5):
            texts = [
                " ".join(rng.choice(words, size=rng.integers(1, 6)))
                for _ in range(50)
            ]
            corpus = RawCorpus(texts, [0] * 50, 2)
            vocab, _ = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=5))
            bags = [extract_ngrams(tokenize(t)) for t in texts]
            candidates = set().union(*(set(b) for b in bags))
            for feat in candidates:
                df = sum(1 for b in bags if feat in b)
                assert (feat in vocab.feature_to_index) == (df >= 5)

    def test_layout_checked_once(self, monkeypatch):
        validate, checked = CsrMatrix.__post_init__, []

        def counting(self):
            checked.append(type(self))
            validate(self)

        monkeypatch.setattr(CsrMatrix, "__post_init__", counting)
        corpus = RawCorpus(["a b", "b c", "a c", "c"], [0, 1, 0, 1], 2)
        vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=1))
        assert checked == [LabeledDataset]


words_strategy = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=5)
# Words of three letters or more from another alphabet: each is rare, so a
# tweet of them alone is often all-OOV.
rare_strategy = st.lists(st.text(alphabet="xyz", min_size=3, max_size=5), max_size=3)
tweets_strategy = st.lists(
    st.tuples(words_strategy, rare_strategy).map(lambda p: " ".join(p[0] + p[1])),
    min_size=1,
    max_size=30,
)


# Tweets over letters, the characters the two --ascii-policy values treat
# differently, punctuation the tokenizer peels, and whitespace of three kinds.
policy_texts_strategy = st.lists(st.text(alphabet="ab é’…'#@.,\t\n ", max_size=12), max_size=30)


# Feature-to-column maps a hand-built archive could hold: features that no
# gram spells (two spaces, empty, a tab, a space at either end, no string),
# two features on one column, a negative column, a column past the dimension,
# and columns that np.fromiter converts to intp (a float and a string).
HAND_BUILT = [
    {"a": 0, "a  b": 1, "": 2, "a\tb": 3, " a": 4, "b ": 5, "a b": 6, 7: 7, ("a", "b"): 8},
    {"a": 0, "b": 0, "a b": 1},
    {"a": -1, "a b": 0, "b": 1},
    {"a": 0, "b": 2},
    {"a": 1.0, "b": "0", "a b": 2},
]


class TestVectorizeOracle:
    """The CSR rows equal a per-bag {index: count} reference, chunked or not."""

    @pytest.mark.parametrize("policy", list(AsciiPolicy))
    @settings(max_examples=200, deadline=None)
    @given(texts=policy_texts_strategy, min_df=st.integers(1, 4))
    @example(texts=[], min_df=1)
    @example(texts=["", "   ", "\t\n", "a", "b"], min_df=1)  # empty, blank and one-token tweets
    @example(texts=["a b a b a", "b a", "a"], min_df=2)  # a bigram repeated within a tweet
    @example(texts=["a b", "a b c", "c"], min_df=4)  # min_df above every document frequency
    @example(texts=["", "é’…", "a b", "b a", "ab ba", "ab ba"], min_df=2)  # empty and all-OOV tweets
    @example(texts=["a b", "a c", "c b"], min_df=2)  # a, b unigram features, "a b" not
    def test_vocabulary_and_rows_equal_bag_reference(self, policy, texts, min_df):
        cfg = FeatureConfig(min_df=min_df)
        vocab, d = vectorize_corpus(RawCorpus(texts, [0] * len(texts), 2), policy, cfg)
        bags = ngram_bags(texts, policy)
        assert vocab == build_vocabulary(bags, cfg)
        reference = vectorize(bags, vocab)
        for X in (d, text_to_vector(texts, policy, vocab)):
            for name in ("indptr", "indices", "data"):
                got, want = getattr(X, name), getattr(reference, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        assert d.dimension == vocab.size and d.labels.tolist() == [0] * len(texts)

    @pytest.mark.parametrize("policy", list(AsciiPolicy))
    @pytest.mark.parametrize("features", HAND_BUILT)
    @settings(max_examples=50, deadline=None)
    @given(texts=policy_texts_strategy)
    @example(texts=["a b", "b a a", "a\tb", "a  b", "", "c"])
    def test_hand_built_vocabulary_equals_bag_reference(self, policy, features, texts):
        vocab = Vocabulary(list(features), features, num_unigrams=0, num_bigrams=0)
        bags = ngram_bags(texts, policy)
        refused = failure(lambda: vectorize(bags, vocab))  # the layout check's message, or None
        assert failure(lambda: text_to_vector(texts, policy, vocab)) == refused
        if refused is None:
            assert same(text_to_vector(texts, policy, vocab), vectorize(bags, vocab))

    @pytest.mark.parametrize("policy", list(AsciiPolicy))
    def test_min_df_above_every_frequency(self, policy):
        texts = ["a b a b", "", "b   a", "c’ d…"]
        vocab, d = vectorize_corpus(RawCorpus(texts, [0, 1, 0, 1], 2), policy, FeatureConfig(min_df=3))
        assert vocab == build_vocabulary(ngram_bags(texts, policy), FeatureConfig(min_df=3))
        assert vocab.size == 0 and len(d) == 4 and d.indptr.tolist() == [0] * 5

    @given(tweets_strategy, st.integers(1, 3))
    def test_corpus_rows_equal_per_bag_counts(self, texts, min_df):
        corpus = RawCorpus(texts, [0] * len(texts), 2)
        vocab, d = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=min_df))
        index = vocab.feature_to_index
        reference = []
        for t in texts:
            bag = extract_ngrams(tokenize(normalize(t, AsciiPolicy.KEEP_MOST)))
            counts = {index[f]: float(c) for f, c in bag.items() if f in index}
            reference.append(tuple(sorted(counts.items())))
        assert rows_of(d) == reference
        assert (len(d), d.dimension) == (len(texts), vocab.size)

    @given(tweets_strategy, st.integers(1, 3), st.integers(0, 30))
    def test_chunk_equals_texts_stacked(self, texts, min_df, cut):
        corpus = RawCorpus(texts, [0] * len(texts), 2)
        vocab, _ = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=min_df))
        chunk = (texts + ["", "zzz qqq"])[cut:]
        X = text_to_vector(chunk, AsciiPolicy.KEEP_MOST, vocab)
        one_by_one = [text_to_vector([t], AsciiPolicy.KEEP_MOST, vocab) for t in chunk]
        assert rows_of(X) == [row for x in one_by_one for row in rows_of(x)]
        assert X.dimension == vocab.size and len(X) == len(chunk)
        for t, x in zip(chunk, one_by_one):  # a lone text is a chunk of one
            assert same(text_to_vector(t, AsciiPolicy.KEEP_MOST, vocab), x)


def labeled(entries, labels=(0,)) -> LabeledDataset:
    return with_labels(csr_from_rows(entries, 3), labels, 2)


class TestLabeledDataset:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            labeled([((1, 1.0), (0, 1.0))])  # not increasing
        with pytest.raises(ValueError):
            labeled([((0, 0.0),)])  # zero count
        with pytest.raises(ValueError, match="positive"):
            labeled([((0, float("nan")),)])  # NaN count
        with pytest.raises(ValueError, match="positive"):
            labeled([((0, float("inf")),)])  # infinite count
        with pytest.raises(ValueError):
            labeled([((5, 1.0),)])  # index out of range
        with pytest.raises(ValueError, match="labels"):
            labeled([((0, 1.0),)], labels=(2,))  # label out of range
        with pytest.raises(ValueError, match="labels"):
            labeled([((0, 1.0),)], labels=(-1,))
        with pytest.raises(ValueError, match="equal length"):
            labeled([((0, 1.0),), ()], labels=(0,))  # length mismatch


def first_entry_after_empty_row(indptr) -> list[int]:
    """The first entry of a row that follows an empty row, if any row does."""
    lengths = np.diff(indptr)
    return [int(indptr[r]) for r in range(1, len(lengths)) if lengths[r] and not lengths[r - 1]][:1]


def fields(rows, V, counts, labels, k) -> SimpleNamespace:
    """The fields of a LabeledDataset whose row r holds columns rows[r], in that order."""
    return SimpleNamespace(
        indptr=np.cumsum([0] + [len(r) for r in rows]).astype(np.intp),
        indices=np.array([i for r in rows for i in r], dtype=np.intp),
        data=np.array(counts, dtype=float),
        dimension=V,
        labels=np.array(labels, dtype=np.intp),
        num_classes=k,
    )


@st.composite
def layouts(draw):
    """The fields of a LabeledDataset: a valid layout (empty rows and empty

    matrices among them) with up to two of the defects its checks must catch.
    """
    V, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    row = st.sets(st.integers(0, V - 1), min_size=1) | st.just(set())  # half of them empty
    rows = [sorted(r) for r in draw(st.lists(row, max_size=8))]
    nnz = sum(map(len, rows))
    counts = draw(st.lists(st.integers(1, 3), min_size=nnz, max_size=nnz))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=len(rows), max_size=len(rows)))
    d = fields(rows, V, counts, labels, k)
    entries = sorted({0, nnz - 1, *first_entry_after_empty_row(d.indptr)}) if nnz else []
    defects = ["none", "indptr start", "indptr decrease", "length", "index", "count", "label"]
    # A length defect goes last, so the entries the others pick still exist.
    drawn = draw(st.lists(st.sampled_from(defects), min_size=1, max_size=2))
    for defect in sorted(drawn, key="length".__eq__):
        if defect == "indptr start":
            d.indptr[0] = draw(st.sampled_from([1, -1]))
        elif defect == "indptr decrease" and len(d.indptr) > 2:
            r = draw(st.integers(1, len(d.indptr) - 2))
            d.indptr[r] = d.indptr[r + 1] + 1
        elif defect == "length":
            field = draw(st.sampled_from(["indices", "data"]))
            values = getattr(d, field)
            setattr(d, field, values[:-1] if draw(st.booleans()) else np.append(values, values[:1]))
        elif defect == "index" and entries:
            e = draw(st.sampled_from(entries))
            previous = int(d.indices[e - 1]) if e else 0
            d.indices[e] = draw(st.sampled_from([previous, previous - 1, -1, V, V + 3]))
        elif defect == "count" and entries:
            bad = draw(st.sampled_from([0.0, -1.0, np.nan, np.inf, -np.inf]))
            d.data[draw(st.sampled_from(entries))] = bad
        elif defect == "label" and rows:
            d.labels[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from([-1, k, k + 2]))
    return d


def failure(check):
    """The message of the ValueError `check()` raises, or None."""
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


class TestChecksOracle:
    """The checks raise the ValueError the checks they replaced raised, exactly when those did."""

    @settings(max_examples=1000, deadline=None)
    @given(layouts())
    # Rows (0, 2), (), (1, 3) over V = 4, and that layout broken where the checks skip a pair.
    @example(fields([[0, 2], [], [1, 3]], 4, [1] * 4, [0, 1, 0], 2))
    @example(fields([[0, 2], [], [0, 3]], 4, [1] * 4, [0, 1, 0], 2))  # valid: a new row may go down
    @example(fields([[-1, 2], [], [1, 3]], 4, [1] * 4, [0, 1, 0], 2))  # negative first entry
    @example(fields([[0, 2], [], [-1, 3]], 4, [1] * 4, [0, 1, 0], 2))  # negative after an empty row
    @example(fields([[0, 2], [], [1, 4]], 4, [1] * 4, [0, 1, 0], 2))  # last entry at the dimension
    @example(fields([[0, 2], [], [3, 3]], 4, [1] * 4, [0, 1, 0], 2))  # duplicate last entry
    @example(fields([[2, 0], [], [1, 3]], 4, [1] * 4, [0, 1, 0], 2))  # unsorted within a row
    @example(fields([[0, 2], [], [1, 3]], 4, [1, 1, 1, float("nan")], [0, 1, 0], 2))
    @example(fields([[0, 2], [], [1, 3]], 4, [1] * 4, [0, 2, 0], 2))  # label out of range
    @example(fields([], 4, [], [], 2))
    @example(fields([[], []], 4, [], [0, 1], 2))
    def test_same_verdicts(self, d):
        layout = (d.indptr, d.indices, d.data, d.dimension)
        assert failure(lambda: CsrMatrix(*layout)) == failure(lambda: check_csr(d))
        assert failure(lambda: LabeledDataset(*layout, d.labels, d.num_classes)) == failure(
            lambda: check_labeled(d)
        )


class TestCheckMemory:
    def test_at_most_three_bytes_an_entry(self):
        # 13,000 rows of 20 entries, strictly increasing within each row.
        rng = np.random.default_rng(0)
        n, per_row = 13_000, 20
        indices = (np.arange(per_row) * 50 + rng.integers(0, 50, size=(n, 1))).ravel()
        data = rng.integers(1, 4, size=n * per_row).astype(float)
        indptr, labels = np.arange(0, n * per_row + 1, per_row), rng.integers(0, 5, size=n)
        tracemalloc.start()
        try:
            LabeledDataset(indptr, indices, data, 1000, labels, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(indices) <= 3

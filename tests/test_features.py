from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emojivote.corpus import RawCorpus
from emojivote.features import (
    CsrMatrix,
    FeatureConfig,
    LabeledDataset,
    build_vocabulary,
    text_to_vector,
    vectorize,
    vectorize_corpus,
)
from emojivote.preprocess import AsciiPolicy, extract_ngrams, normalize, tokenize

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


class TestVectorizeOracle:
    """The CSR rows equal a per-bag {index: count} reference, chunked or not."""

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

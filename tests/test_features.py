from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emojivote.corpus import RawCorpus
from emojivote.features import (
    FeatureConfig,
    SparseCountVector,
    build_vocabulary,
    vectorize,
    vectorize_corpus,
)
from emojivote.preprocess import AsciiPolicy, extract_ngrams, tokenize

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

    def test_flags_filter(self):
        bags = [extract_ngrams(["a", "b"])]
        only_uni = build_vocabulary(bags, FeatureConfig(min_df=1, use_bigrams=False))
        assert only_uni.index_to_feature == ["a", "b"]
        only_bi = build_vocabulary(bags, FeatureConfig(min_df=1, use_unigrams=False))
        assert only_bi.index_to_feature == ["a b"]

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
        v = vectorize(Counter({"a": 2, "a b": 1}), vocab)
        idx = vocab.feature_to_index
        assert dict(v.entries) == {idx["a"]: 2.0, idx["a b"]: 1.0}

    def test_oov_ignored(self):
        vocab = build_vocabulary([Counter({"a": 1})], FeatureConfig(min_df=1))
        assert vectorize(Counter({"zzz": 4}), vocab).entries == ()

    def test_empty_bag(self):
        vocab = build_vocabulary([Counter({"a": 1})], FeatureConfig(min_df=1))
        v = vectorize(Counter(), vocab)
        assert v.entries == () and v.dimension == 1

    @given(bags_strategy)
    def test_linearity(self, bags):
        vocab = build_vocabulary(bags, FeatureConfig(min_df=1))
        if len(bags) < 2:
            return
        b1, b2 = bags[0], bags[1]
        combined = vectorize(b1 + b2, vocab).to_dense()
        assert np.array_equal(combined, vectorize(b1, vocab).to_dense() + vectorize(b2, vocab).to_dense())

    @given(bags_strategy)
    def test_row_sum_counts_in_vocab_grams(self, bags):
        vocab = build_vocabulary(bags, FeatureConfig(min_df=2))
        for bag in bags:
            expected = sum(c for f, c in bag.items() if f in vocab.feature_to_index)
            got = sum(c for _, c in vectorize(bag, vocab).entries)
            assert got == expected


class TestVectorizeCorpus:
    def test_six_copies(self):
        corpus = RawCorpus(["a b"] * 6, [0, 1, 0, 1, 0, 1], 2)
        vocab, d = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=5))
        assert vocab.index_to_feature == ["a", "a b", "b"]
        for row in d.rows:
            assert [c for _, c in row.entries] == [1.0, 1.0, 1.0]
        assert d.labels == corpus.labels

    def test_cutoff_exceeds_corpus(self):
        corpus = RawCorpus(["hello world"], [0], 2)
        vocab, d = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=5))
        assert vocab.size == 0
        assert all(r.entries == () for r in d.rows)

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


class TestSparseCountVector:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SparseCountVector(((1, 1.0), (0, 1.0)), 3)  # not increasing
        with pytest.raises(ValueError):
            SparseCountVector(((0, 0.0),), 3)  # zero count
        with pytest.raises(ValueError, match="positive"):
            SparseCountVector(((0, float("nan")),), 3)  # NaN count
        with pytest.raises(ValueError):
            SparseCountVector(((5, 1.0),), 3)  # index out of range

    def test_dense_round_trip(self):
        v = SparseCountVector(((0, 2.0), (3, 0.5)), 5)
        assert SparseCountVector.from_dense(v.to_dense()) == v

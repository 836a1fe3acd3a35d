"""The predict-path kernels give the same results, bit for bit, as the ones
they replaced (kept in `predict_oracle.py`): the linear scorer of naive Bayes
and logistic regression, the blocked forest walk, the ASCII policy and
memoized tokenizer under `ngram_bags`, and the chunk splitter.
"""

import unicodedata

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import predict_oracle as oracle
from emojivote import classifiers
from emojivote.classifiers import _linear_scores, rf_predict_proba
from emojivote.features import ngram_bags
from emojivote.preprocess import (
    REMOVED_CODEPOINTS,
    AsciiPolicy,
    _split_chunk,
    apply_ascii_policy,
    extract_ngrams,
    tokenize,
)

from helpers import csr_from_rows
from rf_oracle import TreeNode, pack
from test_batch_predict import deep_chain

# SMOTE's fractional counts next to integer ones; i / 97 rarely sums exactly.
counts = st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.75]) | st.integers(1, 400).map(lambda i: i / 97)


@st.composite
def batches(draw, dim):
    """A CSR batch over `dim` columns: maybe no rows, maybe empty rows, and

    maybe one row holding 300 entries.
    """
    row = st.dictionaries(st.integers(0, dim - 1), counts, max_size=8)
    rows = draw(st.lists(row, max_size=12))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        long = zip(rng.choice(dim, 300, replace=False).tolist(), (rng.integers(1, 400, 300) / 97).tolist())
        rows.insert(draw(st.integers(0, len(rows))), dict(long))
    return csr_from_rows([sorted(r.items()) for r in rows], dim)


class TestLinearScores:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_equals_add_at(self, data, k, seed):
        dim = 320
        X = data.draw(batches(dim))
        rng = np.random.default_rng(seed)
        # Magnitudes spread over many binades, so any change of summing order shows.
        weights = rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-6, 7, size=(k, dim))
        bias = rng.normal(size=k)
        got = _linear_scores(bias, weights, X)
        assert got.shape == (len(X), k)
        assert np.array_equal(got, oracle.linear_scores(bias, weights, X))


@st.composite
def trees(draw, dim, k, depth=0):
    if depth >= 6 or draw(st.booleans()):
        leaf = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.5]), min_size=k, max_size=k)))
        leaf[draw(st.integers(0, k - 1))] += 1.0  # a leaf holds a sample
        return TreeNode(counts=leaf)
    return TreeNode(
        feature=draw(st.integers(0, dim - 1)),
        threshold=draw(st.sampled_from([-0.5, 0.0, 0.25, 0.75, 1.5, 2.0, 3.0])),
        left=draw(trees(dim, k, depth + 1)),
        right=draw(trees(dim, k, depth + 1)),
    )


class TestForestWalk:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4), block=st.sampled_from([1, 2, 5, 256]))
    def test_equals_searchsorted_walk(self, data, k, block):
        # Split features range over 12 columns, a batch's rows over the first
        # `used`: a feature no row holds reads 0 from the table's zero column.
        dim, used = 12, data.draw(st.integers(1, 12))
        forest = data.draw(st.lists(trees(dim, k), min_size=1, max_size=4))  # single leaves too
        model = pack(forest, dim, k)
        row = st.dictionaries(st.integers(0, used - 1), counts, max_size=5)
        rows = data.draw(st.lists(row, max_size=14))
        X = csr_from_rows([sorted(r.items()) for r in rows], dim)
        saved, classifiers.RF_BLOCK_ROWS = classifiers.RF_BLOCK_ROWS, block  # 1 row up to all
        try:
            got = rf_predict_proba(model, X)
        finally:
            classifiers.RF_BLOCK_ROWS = saved
        assert got.shape == (len(X), k)
        assert np.array_equal(got, oracle.rf_predict_proba(model, X))

    def test_deep_chain(self):
        depth = 1500
        model = pack([deep_chain(depth), TreeNode(counts=np.array([2.0, 1.0]))], 3, 2)
        values = [0.0, 0.25, 3.0, 749.0, 1499.0, 1500.0, 2500.0]
        rows = [((0, v), (2, 1.0)) if v else ((1, 1.0),) for v in values] + [()]
        X = csr_from_rows(rows, 3)
        assert np.array_equal(rf_predict_proba(model, X), oracle.rf_predict_proba(model, X))


# Pieces that stress the text kernels: astral characters, lone surrogates,
# the six codepoints KEEP_MOST removes, punctuation runs, contractions,
# hashtags, mentions, commas and capitals.
PIECES = [*REMOVED_CODEPOINTS, "😀", "𝔘", "\ud800", "\udfff", "'", "#", "@", "!", "(", ")",
          ",", ".", "…!", "a", "B", "é", "don", "Ñ"]
piece = st.sampled_from(PIECES) | st.integers(0xD800, 0xDFFF).map(chr) | st.integers(0x10000, 0x10FFFF).map(chr)
chunks = st.lists(piece, min_size=1, max_size=6).map("".join)
spaces = st.sampled_from([" ", "  ", "\t", "　", "\n"])


@st.composite
def tweet_sets(draw):
    """Tweets drawn from one small pool of whitespace chunks, so chunks repeat

    within and across tweets.
    """
    pool = draw(st.lists(chunks, min_size=1, max_size=8))
    words = st.lists(st.sampled_from(pool), max_size=8)
    return [
        "".join(w + draw(spaces) for w in draw(words)) + draw(st.sampled_from(["", " ", "x"]))
        for _ in range(draw(st.integers(0, 6)))
    ]


def reference_bags(texts, policy):
    norm = lambda t: oracle.apply_ascii_policy(t.lower().replace(",", ""), policy)
    return [extract_ngrams(oracle.tokenize(norm(t))) for t in texts]


policies = st.sampled_from(list(AsciiPolicy))


# Chunks whose letters, digits and marks come from any script, alone or next
# to the pieces above.
word_chunks = st.lists(
    piece | st.characters(whitelist_categories=("L", "N", "M")), min_size=1, max_size=8
).map("".join)


class TestTextKernels:
    def test_no_alphanumeric_codepoint_is_punctuation_or_symbol(self):
        # _split_chunk returns an alphanumeric chunk whole on this, under the
        # running Python's Unicode database.
        for i in range(0x110000):
            if chr(i).isalnum():
                assert unicodedata.category(chr(i))[0] not in "PS", hex(i)

    @settings(max_examples=500, deadline=None)
    @given(chunk=chunks | word_chunks)
    @example(chunk="don't")
    @example(chunk="#tag")
    @example(chunk="Ñandú2")
    def test_split_chunk_equals_slow_path(self, chunk):
        assert _split_chunk(chunk) == oracle.split_chunk(chunk)

    @settings(max_examples=200, deadline=None)
    @given(text=st.lists(piece | spaces, max_size=20).map("".join), policy=policies)
    def test_ascii_policy_equals_character_loop(self, text, policy):
        assert apply_ascii_policy(text, policy) == oracle.apply_ascii_policy(text, policy)

    @settings(max_examples=200, deadline=None)
    @given(texts=tweet_sets())
    def test_tokenize_with_shared_memo_equals_plain_split(self, texts):
        memo = {}
        for text in texts:
            expected = oracle.tokenize(text)
            assert tokenize(text) == expected
            tokens = tokenize(text, memo)
            assert tokens == expected
            tokens.append("x")  # the caller's list is its own, not the memo's
            assert tokenize(text, memo) == expected

    @settings(max_examples=150, deadline=None)
    @given(texts=tweet_sets(), policy=policies)
    def test_ngram_bags_equal_reference_and_repeat(self, texts, policy):
        expected = reference_bags(texts, policy)
        assert ngram_bags(texts, policy) == expected
        assert ngram_bags(texts, policy) == expected  # nothing carried over from the first call

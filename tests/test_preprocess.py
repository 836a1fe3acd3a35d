from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from emojivote.preprocess import (
    _CONTRACTION_PART,
    REMOVED_CODEPOINTS,
    AsciiPolicy,
    apply_ascii_policy,
    extract_ngrams,
    normalize,
    tokenize,
)

any_text = st.text(max_size=60)
policies = st.sampled_from(list(AsciiPolicy))
# Text rich in what the keep-most policy must get right: the removed codepoints
# themselves, combining marks that may follow them, and astral characters.
keep_most_text = st.lists(
    st.sampled_from(sorted(REMOVED_CODEPOINTS))
    | st.characters(whitelist_categories=("Mn", "Mc", "Me"))
    | st.characters(min_codepoint=0x10000, blacklist_categories=("Cs",))
    | st.characters(blacklist_categories=("Cs",)),
    max_size=60,
).map("".join)
# The keep-most policy as one str.translate: the reference for its replace calls.
TRANSLATE_REMOVED = dict.fromkeys(map(ord, REMOVED_CODEPOINTS))
# Words to split at apostrophes: the ASCII one, which splits, among the typographic
# one, which does not, combining marks, astral characters and word characters.
contraction_text = st.lists(
    st.sampled_from(["'", "’", "a", "_"])
    | st.characters(whitelist_categories=("Mn",))
    | st.characters(min_codepoint=0x10000, blacklist_categories=("Cs",)),
    max_size=20,
).map("".join)


def split_contractions(core: str) -> list[str]:
    """The loop that _CONTRACTION_PART replaced: split at each apostrophe after

    the first character, the apostrophe staying with the suffix.
    """
    out, start = [], 0
    for i in range(1, len(core)):
        if core[i] == "'" and i > start:
            out.append(core[start:i])
            start = i
    out.append(core[start:])
    return [t for t in out if t]


class TestNormalize:
    def test_lowercase_and_comma(self):
        for policy in AsciiPolicy:
            assert normalize("Hello, World", policy) == "hello world"

    def test_keep_most_removes_middle_dot(self):
        assert normalize("café·night", AsciiPolicy.KEEP_MOST) == "cafénight"

    def test_strip_all(self):
        assert normalize("café", AsciiPolicy.STRIP_ALL) == "caf"

    def test_empty(self):
        for policy in AsciiPolicy:
            assert normalize("", policy) == ""

    @given(any_text, policies)
    def test_idempotent(self, text, policy):
        once = normalize(text, policy)
        assert normalize(once, policy) == once

    @given(any_text)
    def test_strip_all_is_ascii(self, text):
        assert all(ord(ch) < 0x80 for ch in normalize(text, AsciiPolicy.STRIP_ALL))

    @given(any_text)
    def test_keep_most_survivors(self, text):
        out = apply_ascii_policy(text, AsciiPolicy.KEEP_MOST)
        assert not REMOVED_CODEPOINTS & set(out)
        assert out == "".join(ch for ch in text if ch not in REMOVED_CODEPOINTS)

    @settings(max_examples=500)
    @given(keep_most_text)
    def test_keep_most_equals_translate(self, text):
        assert apply_ascii_policy(text, AsciiPolicy.KEEP_MOST) == text.translate(TRANSLATE_REMOVED)


class TestTokenize:
    def test_trailing_punct(self):
        assert tokenize("i love nyc!") == ["i", "love", "nyc", "!"]

    def test_contraction(self):
        assert tokenize("don't stop") == ["don", "'t", "stop"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hashtag_and_mention(self):
        assert tokenize("#worldcup rocks @you") == ["#worldcup", "rocks", "@you"]

    def test_mention_trailing_punct(self):
        assert tokenize("@you!") == ["@you", "!"]

    def test_pure_punct_chunk(self):
        assert tokenize("!! ok") == ["!!", "ok"]

    def test_leading_punct(self):
        assert tokenize("(hi)") == ["(", "hi", ")"]

    @settings(max_examples=500)
    @given(st.text(max_size=3), contraction_text, st.text(max_size=3))
    @example("", "", "")
    @example("", "'t", "")  # a leading apostrophe
    @example("#", "do''nt'", "!")  # doubled and trailing ones
    @example("", "''a", "")
    def test_contraction_split_equals_loop(self, before, core, after):
        # tokenize splits the core of its chunk in place, between the peeled runs
        text = before + core + after
        parts = _CONTRACTION_PART.findall(text, len(before), len(before) + len(core))
        assert parts == split_contractions(core)

    @given(any_text, policies)
    def test_deterministic_and_clean(self, text, policy):
        norm = normalize(text, policy)
        toks = tokenize(norm)
        assert toks == tokenize(norm)
        for t in toks:
            assert t
            assert "," not in t
            assert not any(ch.isspace() for ch in t)


class TestExtractNgrams:
    def test_three_tokens(self):
        bag = extract_ngrams(["a", "b", "c"])
        assert dict(bag) == {"a": 1, "b": 1, "c": 1, "a b": 1, "b c": 1}

    def test_single_token(self):
        assert dict(extract_ngrams(["a"])) == {"a": 1}

    def test_multiset_semantics(self):
        assert dict(extract_ngrams(["a", "a"])) == {"a": 2, "a a": 1}

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=15))
    def test_gram_count_identity(self, tokens):
        # n unigrams + (n-1) bigrams = 2n - 1, counting multiplicity
        assert sum(extract_ngrams(tokens).values()) == 2 * len(tokens) - 1

    @given(st.lists(st.text(max_size=4), max_size=15))
    def test_equals_counting_loop(self, tokens):
        # The loop extract_ngrams replaced; items() pins the key order too.
        bag = Counter(tokens)
        for a, b in zip(tokens, tokens[1:]):
            bag[f"{a} {b}"] += 1
        assert list(extract_ngrams(tokens).items()) == list(bag.items())

"""Tweet text normalization and tokenization.

Normalization lowercases, deletes commas, and applies a non-ASCII policy:
either strip every codepoint >= U+0080, or keep everything except six
troublesome punctuation-like codepoints. Tokenization splits on whitespace,
peels leading/trailing punctuation runs, splits contractions at the
apostrophe, and keeps #hashtags / @mentions intact.
"""

import enum
import re
import unicodedata
from collections import Counter
from itertools import chain, islice


class AsciiPolicy(enum.Enum):
    STRIP_ALL = "strip-all"
    KEEP_MOST = "keep-most"


# The six codepoints dropped under KEEP_MOST: middle dot, right/left single
# quotation marks, bullet, horizontal ellipsis, katakana middle dot.
REMOVED_CODEPOINTS = frozenset("·’‘•…・")


def apply_ascii_policy(text: str, policy: AsciiPolicy) -> str:
    if policy is AsciiPolicy.STRIP_ALL:
        return text.encode("ascii", "ignore").decode("ascii")
    for ch in REMOVED_CODEPOINTS:  # six replaces take about a tenth of one str.translate's time
        text = text.replace(ch, "")
    return text


def normalize(text: str, policy: AsciiPolicy) -> str:
    """Lowercase, delete commas, then apply the non-ASCII policy. Idempotent."""
    return apply_ascii_policy(text.lower().replace(",", ""), policy)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


# Contraction parts: a word splits before each apostrophe but a leading one,
# and the apostrophe stays with the suffix.
_CONTRACTION_PART = re.compile(r".[^']*", re.S)


def _split_chunk(chunk: str) -> list[str]:
    # No alphanumeric codepoint is punctuation (P*) or a symbol (S*), and
    # "'", "#" and "@" are not alphanumeric, so such a chunk is one token.
    if chunk.isalnum():
        return [chunk]
    # Hashtags and mentions survive whole (marker attached), minus any
    # trailing punctuation run.
    if chunk[0] in "#@" and len(chunk) > 1:
        j = len(chunk)
        while j > 1 and _is_punct(chunk[j - 1]):
            j -= 1
        body = chunk[1:j]
        if body:
            toks = [chunk[:j]]
            if j < len(chunk):
                toks.append(chunk[j:])
            return toks

    tokens = []
    i, j = 0, len(chunk)
    while i < j and _is_punct(chunk[i]):
        i += 1
    if i == len(chunk):  # pure punctuation chunk
        return [chunk]
    while j > i and _is_punct(chunk[j - 1]):
        j -= 1
    if i > 0:
        tokens.append(chunk[:i])
    tokens.extend(_CONTRACTION_PART.findall(chunk, i, j))
    if j < len(chunk):
        tokens.append(chunk[j:])
    return tokens


def tokenize(text: str, memo: dict[str, list[str]] | None = None) -> list[str]:
    """Tokenize already-normalized text.

    Rules: split on Unicode whitespace; peel leading/trailing punctuation
    runs into their own tokens; split contractions at the apostrophe with
    the apostrophe kept on the suffix; #hashtags and @mentions stay single
    tokens. `memo` maps whitespace chunks already split to their tokens; a
    caller tokenizing many texts passes one dict to all of them, as text
    repeats its chunks.
    """
    if memo is None:
        memo = {}
    tokens: list[str] = []
    for chunk in text.split():
        split = memo.get(chunk)
        if split is None:
            split = memo[chunk] = _split_chunk(chunk)
        tokens += split
    return tokens


def extract_ngrams(tokens: list[str]) -> Counter:
    """Multiset of unigrams and space-joined bigrams of a token sequence,

    counted in one pass: the unigrams in order, then the bigrams.
    """
    return Counter(chain(tokens, map(" ".join, zip(tokens, islice(tokens, 1, None)))))

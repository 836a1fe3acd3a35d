"""Tweet text normalization and tokenization.

Normalization lowercases, deletes commas, and applies a non-ASCII policy:
either strip every codepoint >= U+0080, or keep everything except six
troublesome punctuation-like codepoints. Tokenization splits on whitespace,
peels leading/trailing punctuation runs, splits contractions at the
apostrophe, and keeps #hashtags / @mentions intact.
"""

import enum
import unicodedata
from collections import Counter


class AsciiPolicy(enum.Enum):
    STRIP_ALL = "strip-all"
    KEEP_MOST = "keep-most"


# The six codepoints dropped under KEEP_MOST: middle dot, right/left single
# quotation marks, bullet, horizontal ellipsis, katakana middle dot.
REMOVED_CODEPOINTS = frozenset("·’‘•…・")
_DROP_REMOVED = dict.fromkeys(map(ord, REMOVED_CODEPOINTS))  # a str.translate table


def apply_ascii_policy(text: str, policy: AsciiPolicy) -> str:
    if policy is AsciiPolicy.STRIP_ALL:
        return text.encode("ascii", "ignore").decode("ascii")
    return text.translate(_DROP_REMOVED)


def normalize(text: str, policy: AsciiPolicy) -> str:
    """Lowercase, delete commas, then apply the non-ASCII policy. Idempotent."""
    return apply_ascii_policy(text.lower().replace(",", ""), policy)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _split_contractions(core: str) -> list[str]:
    # Split at each internal apostrophe; the apostrophe stays with the suffix.
    out = []
    start = 0
    for i in range(1, len(core)):
        if core[i] == "'" and i > start:
            out.append(core[start:i])
            start = i
    out.append(core[start:])
    return [t for t in out if t]


def _split_chunk(chunk: str) -> list[str]:
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
    tokens.extend(_split_contractions(chunk[i:j]))
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
    """Multiset of unigrams and space-joined bigrams of a token sequence."""
    bag: Counter = Counter(tokens)
    for a, b in zip(tokens, tokens[1:]):
        bag[f"{a} {b}"] += 1
    return bag

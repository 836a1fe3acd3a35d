"""Seeded synthetic tweet corpora shaped like SemEval-2018 Task 2.

A corpus has skewed class priors (the largest class holds about a fifth of
the tweets, the smallest about 2%), a Zipfian background vocabulary, and a
few class-indicative words per class. Spanish-style corpora add accented
words, the six codepoints that `keep-most` removes, and Spanish function
words. Both styles carry hashtags, mentions, contractions, commas, capitals
and trailing punctuation, so every branch of the tokenizer runs.

Every draw comes from one `numpy` generator seeded by (seed, style, stream),
so the same arguments always give the same bytes. Class counts are fixed by
largest-remainder rounding, so priors match their targets to within one
tweet per class.
"""

from dataclasses import dataclass

import numpy as np

# Prior exponent per style: share of class c is proportional to (c + 1) ** -s.
STYLES = {
    "en": {"classes": 20, "prior_exponent": 0.75, "code": 1},
    "es": {"classes": 19, "prior_exponent": 0.70, "code": 2},
}
STREAMS = {"train": 1, "test": 2, "cold": 3, "bulk": 4}

BACKGROUND_SIZE = 4000
ZIPF_EXPONENT = 1.1
INDICATIVE_PER_CLASS = 3
MENTION_POOL = 300
MAX_WORDS = 48  # background draws are capped so every word gets a sort key

_SYLLABLES_EN = ["ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ba", "de", "fi", "go", "hu", "ja", "pe", "zu"]
_SYLLABLES_ES = ["ca", "ló", "mi", "ñe", "ru", "sá", "ti", "vo", "ba", "dé", "fi", "go", "hu", "ja", "pe", "zú"]
_CONTRACTIONS_EN = ["don't", "i'm", "it's", "can't", "you're", "we'll", "that's", "isn't"]
_CONTRACTIONS_ES = ["pa'l", "d'ella", "l'amor", "p'arriba", "qu'es", "m'encanta"]
_FUNCTION_EN = ["the", "a", "to", "and", "of", "in", "is", "my", "for", "this", "so", "love"]
_FUNCTION_ES = ["el", "la", "de", "que", "y", "en", "mi", "por", "con", "más", "está", "qué"]
# The codepoints `keep-most` deletes: middle dot, right/left single quote,
# bullet, horizontal ellipsis, katakana middle dot.
_REMOVED = ["·", "’", "‘", "•", "…", "・"]
_TRAILING = ["!", "!!", "?", ".", "...", ":)", "<3"]


def class_priors(style: str) -> np.ndarray:
    spec = STYLES[style]
    weights = np.arange(1, spec["classes"] + 1, dtype=float) ** -spec["prior_exponent"]
    return weights / weights.sum()


def class_counts(n: int, priors: np.ndarray) -> list[int]:
    """Largest-remainder rounding of n * priors, with at least 2 per class."""
    k = len(priors)
    if n < 2 * k:
        raise ValueError(f"need at least {2 * k} tweets for {k} classes, got {n}")
    raw = n * priors
    counts = np.floor(raw).astype(int)
    for c in np.argsort(-(raw - counts), kind="stable")[: n - counts.sum()]:
        counts[c] += 1
    while counts.min() < 2:
        counts[int(np.argmin(counts))] += 1
        counts[int(np.argmax(counts))] -= 1
    return [int(c) for c in counts]


def _word(index: int, syllables: list[str], length: int) -> str:
    """`index`, scrambled by an odd multiplier (a bijection modulo 16 ** length),

    written as `length` base-16 digits, one syllable per digit.
    """
    index = index * 40503 % len(syllables) ** length
    parts = []
    for _ in range(length):
        index, digit = divmod(index, len(syllables))
        parts.append(syllables[digit])
    return "".join(parts)


@dataclass(frozen=True)
class Lexicon:
    background: list[str]
    indicative: list[list[str]]
    contractions: list[str]
    zipf_cdf: np.ndarray


def lexicon(style: str) -> Lexicon:
    """The word lists of a style; they do not depend on the seed."""
    syl = _SYLLABLES_ES if style == "es" else _SYLLABLES_EN
    k = STYLES[style]["classes"]
    # Function words take the top Zipf ranks. Other background words have
    # three syllables and indicative words four, so no two lists share a word.
    function_words = _FUNCTION_ES if style == "es" else _FUNCTION_EN
    background = function_words + [_word(i, syl, 3) for i in range(BACKGROUND_SIZE - len(function_words))]
    indicative = [
        [_word(c * INDICATIVE_PER_CLASS + j, syl, 4) for j in range(INDICATIVE_PER_CLASS)]
        for c in range(k)
    ]
    ranks = np.arange(1, BACKGROUND_SIZE + 1, dtype=float)
    zipf = ranks**-ZIPF_EXPONENT
    return Lexicon(
        background=background,
        indicative=indicative,
        contractions=_CONTRACTIONS_ES if style == "es" else _CONTRACTIONS_EN,
        zipf_cdf=np.cumsum(zipf) / zipf.sum(),
    )


def _pick(u: float, items: list):
    return items[int(u * len(items))]


def _tweet(label: int, background: list[str], n_marks: int, u: np.ndarray, lex: Lexicon, style: str) -> str:
    """One tweet from pre-drawn background words and a row of uniforms `u`.

    u[0:14] drive the decisions below; u[14:] are sort keys for word order.
    """
    k = len(lex.indicative)
    words = list(background)
    own = lex.indicative[label]
    # Every tweet carries the first word of its class, so that word is in at
    # least as many tweets as the class (two or more, six or more from 250
    # tweets on) and survives min_df=5. Its other words are rarer.
    words.append(own[0])
    if u[4] < 0.5:
        words.append(own[1 + (u[5] < 0.4)])
    # A word of another class, mostly that class's first word, blurs the signal.
    if u[7] < 0.4:
        other = int(u[8] * (k - 1))
        words.append(lex.indicative[other + (other >= label)][0 if u[9] < 0.7 else 1 + (u[6] < 0.5)])
    if u[10] < 0.3:
        words.append(_pick(u[11], lex.contractions))
    words = [words[i] for i in np.argsort(u[14 : 14 + len(words)], kind="stable")]
    if u[12] < 0.3:
        words.append("#" + (own[0] if u[13] < 0.5 else words[0]))
    if u[12] > 0.7:
        words.insert(0, f"@user{int(MENTION_POOL * u[13] ** 3)}")
    if u[2] > 0.7:
        words[int(u[11] * (len(words) - 1))] += ","
    if style == "es":
        for i in range(n_marks):
            pos = int(u[(8 + 2 * i) % 14] * len(words))
            mark = _pick(u[(9 + 2 * i) % 14], _REMOVED)
            words[pos] = words[pos] + mark if i % 2 else mark + words[pos]
    if u[0] > 0.6:
        words[0] = words[0][:1].upper() + words[0][1:]
    text = " ".join(words)
    if u[1] > 0.5:
        text += _pick(u[9], _TRAILING)
    return text


def generate(n: int, seed: int, style: str, stream: str = "train", variant: int = 0) -> tuple[list[str], list[int]]:
    """`n` tweets and their labels in [0, k), in a seed-determined order.

    Each `variant` of a seed is another corpus of the same size and priors.
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}")
    rng = np.random.default_rng([seed, STYLES[style]["code"], STREAMS[stream], variant])
    counts = class_counts(n, class_priors(style))
    labels = np.repeat(np.arange(len(counts)), counts)[rng.permutation(n)]
    lex = lexicon(style)
    n_background = 4 + np.minimum(rng.poisson(5, size=n), MAX_WORDS - 8)
    ranks = np.searchsorted(lex.zipf_cdf, rng.random(int(n_background.sum())), side="right")
    ranks = np.minimum(ranks, len(lex.background) - 1)
    bounds = np.concatenate([[0], np.cumsum(n_background)])
    n_marks = rng.poisson(0.6, size=n)
    uniforms = rng.random((n, 14 + MAX_WORDS))
    texts = [
        _tweet(
            int(labels[t]),
            [lex.background[r] for r in ranks[bounds[t] : bounds[t + 1]]],
            int(n_marks[t]),
            uniforms[t],
            lex,
            style,
        )
        for t in range(n)
    ]
    return texts, [int(lab) for lab in labels]


def write_corpus(texts, labels, text_path, label_path=None) -> None:
    """Write LF-terminated UTF-8 files in the format `load_corpus` reads."""
    with open(text_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(t + "\n" for t in texts))
    if label_path is not None:
        with open(label_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(f"{lab}\n" for lab in labels))

"""A fixed piece of work that the benchmark times beside the program's ops.

    python3 perfbench/reference.py

It starts an interpreter, imports numpy and does the kinds of work the CLI
does (regex tokenizing, dict counting of n-grams, small numpy vectors, a
recursive walk of nested tuples), always the same amount. It uses nothing
of `src`, so no change to the program moves its time: on a given host its
wall time changes only when the host does. Dividing an op's time by it in the
same run takes out most of a shared host's slow spells. It prints a checksum,
which the benchmark compares against REFERENCE_CHECKSUM.
"""

import re

import numpy as np

WORDS = 3000
TOKENS = 24000
REFERENCE_CHECKSUM = "34677"


def build_tree(rng, depth):
    if depth == 0:
        return int(rng.integers(0, 20))
    return (int(rng.integers(0, 64)), build_tree(rng, depth - 1), build_tree(rng, depth - 1))


def walk(node, dense):
    while not isinstance(node, int):
        feature, left, right = node
        node = right if dense[feature] > 0 else left
    return node


def main() -> None:
    rng = np.random.default_rng(20180)
    ranks = rng.zipf(1.3, TOKENS) % WORDS
    text = " ".join(f"w{int(r)}," if r % 7 == 0 else f"W{int(r)}" for r in ranks)
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    counts = {}
    for i in range(len(tokens) - 1):
        for gram in (tokens[i], tokens[i] + " " + tokens[i + 1]):
            counts[gram] = counts.get(gram, 0) + 1
    vocab = {gram: j for j, gram in enumerate(sorted(counts)) if counts[gram] >= 2}
    tree = build_tree(rng, 10)
    leaves = np.zeros(20)
    for start in range(0, len(tokens) - 8, 8):
        dense = np.zeros(64)
        for token in tokens[start : start + 8]:
            j = vocab.get(token)
            if j is not None:
                dense[j % 64] += 1.0
        leaves[walk(tree, dense)] += 1.0
    print(int(leaves @ np.arange(20)) + len(vocab))


if __name__ == "__main__":
    main()

"""The predict-path kernels that the batch scorers replaced, kept as the
references their results must equal bit for bit: the `np.add.at` linear
scorer, the forest walk that finds each x[row, feature] by `searchsorted`
over sorted row * V + index keys, and the character-loop ASCII policy and
tokenizer that split every whitespace chunk anew.
"""

import numpy as np

from emojivote.classifiers import RfModel
from emojivote.features import CsrMatrix
from emojivote.preprocess import REMOVED_CODEPOINTS, AsciiPolicy, _split_chunk


def linear_scores(bias: np.ndarray, weights: np.ndarray, X: CsrMatrix) -> np.ndarray:
    """bias + X @ weights.T as (n, k); add.at adds each row's terms in entry order."""
    scores = np.tile(bias, (len(X), 1))
    np.add.at(scores, X.row_ids(), X.data[:, None] * weights.T[X.indices])
    return scores


def rf_predict_proba(model: RfModel, X: CsrMatrix) -> np.ndarray:
    """Mean leaf distribution over the trees. All (row, tree) walks advance one

    level per step; x[row, f] is found among the sorted keys row * V + index.
    """
    n, T, V = len(X), len(model.roots), X.dimension
    keys = np.append(X.row_ids() * V + X.indices, -1)  # -1 matches no lookup
    data = np.append(X.data, 0.0)
    node = np.tile(model.roots, n)  # walk r * T + t: row r, tree t
    row = np.repeat(np.arange(n), T)
    live = np.flatnonzero(model.feature[node] >= 0)
    while live.size:
        at = node[live]
        key = row[live] * V + model.feature[at]
        pos = np.searchsorted(keys[:-1], key)
        x = np.where(keys[pos] == key, data[pos], 0.0)
        at = np.where(x <= model.threshold[at], model.left[at], model.right[at])
        node[live] = at
        live = live[model.feature[at] >= 0]
    counts = model.counts[node].reshape(n, T, model.num_classes)
    leaf = counts / counts.sum(axis=2, keepdims=True)
    return sum(leaf[:, t] for t in range(T)) / T  # summed tree by tree, in order


def apply_ascii_policy(text: str, policy: AsciiPolicy) -> str:
    if policy is AsciiPolicy.STRIP_ALL:
        return "".join(ch for ch in text if ord(ch) < 0x80)
    return "".join(ch for ch in text if ch not in REMOVED_CODEPOINTS)


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk))
    return tokens

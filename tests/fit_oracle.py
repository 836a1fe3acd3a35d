"""The fit-path kernels that the batched versions replaced, kept as the
references their results must equal exactly: the forest's per-node gathers,
which read one node's entries at a time through a feature slot table or a
row copies table, and the logistic-regression loop that copies every block
it reads by fancy indexing, even when every class is active.
"""

import numpy as np

from emojivote.classifiers import (
    LrConfig,
    LrModel,
    _exp_neg_abs,
    _mean_loss,
    _residuals,
)
from emojivote.features import CsrMatrix, LabeledDataset


def row_entries(X: CsrMatrix, rows: np.ndarray, candidates: np.ndarray):
    """(candidate place, value, row, weight) of the candidates' entries in

    the node of the sorted sample `rows`, read from the node's rows: one
    entry per copy of a row, so the weight is None (1 each).
    """
    slot = np.full(X.dimension, -1)  # a feature's place among the candidates, else -1
    owner, pos = X.positions(rows)
    slot[candidates] = np.arange(len(candidates))
    cand = slot[X.indices[pos]]
    keep = np.flatnonzero(cand >= 0)
    return cand[keep], X.data[pos[keep]], rows[owner[keep]], None


def column_entries(columns: CsrMatrix, rows: np.ndarray, candidates: np.ndarray):
    """The same entries read from the candidates' columns (the transposed

    CSR), each once, its weight the number of copies of its row in the node.
    """
    copies = np.zeros(columns.dimension, dtype=np.intp)  # a row's copies in the node
    first = np.flatnonzero(np.diff(rows, prepend=-1))  # rows are sorted
    copies[rows[first]] = np.diff(first, append=len(rows))
    cand, pos = columns.positions(candidates)
    row = columns.indices[pos]
    weight = copies[row]
    keep = np.flatnonzero(weight)
    return cand[keep], columns.data[pos[keep]], row[keep], weight[keep]


def lr_fit(dataset: LabeledDataset, cfg: LrConfig = LrConfig()) -> LrModel:
    """One-vs-rest logistic regression, all classes by one gradient descent

    with a per-class Armijo search, reading every class's rows through
    fancy-index copies.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit logistic regression on an empty dataset")
    if np.count_nonzero(np.bincount(dataset.labels, minlength=dataset.num_classes)) < 2:
        raise ValueError("logistic regression needs at least 2 distinct labels")
    n, V, k, lam = len(dataset), dataset.dimension, dataset.num_classes, cfg.l2_strength
    X = np.zeros((n, V))
    X[dataset.row_ids(), dataset.indices] = dataset.data
    Y = (np.arange(k)[:, None] == dataset.labels).astype(float)
    S = 1.0 - 2.0 * Y  # label signs
    W, b = np.zeros((k, V)), np.zeros(k)
    Z, E = np.zeros((k, n)), np.ones((k, n))  # the logits at zero, and exp(-|Z|)
    obj = _mean_loss(Z, S, E)
    active = np.arange(k)  # the classes still descending
    for _ in range(cfg.max_iters):
        R = _residuals(Z[active], E[active], Y[active])
        gW = R @ X
        gW /= n
        gW += lam * W[active]
        gb = R.mean(axis=1)
        gnorm_sq = (gW * gW).sum(axis=1) + gb * gb
        moving = ~(np.sqrt(gnorm_sq) < cfg.tolerance)
        active, gW, gb, gnorm_sq = active[moving], gW[moving], gb[moving], gnorm_sq[moving]
        step = np.ones(len(active))
        trying = np.arange(len(active))  # positions in active still searching
        while trying.size:
            c, s = active[trying], step[trying]
            W_try, b_try = W[c] - s[:, None] * gW[trying], b[c] - s * gb[trying]
            Z_try = W_try @ X.T
            Z_try += b_try[:, None]
            E_try = _exp_neg_abs(Z_try)
            obj_try = _mean_loss(Z_try, S[c], E_try) + 0.5 * lam * (W_try * W_try).sum(axis=1)
            ok = obj_try <= obj[c] - 1e-4 * s * gnorm_sq[trying]
            done = c[ok]
            W[done], b[done], obj[done] = W_try[ok], b_try[ok], obj_try[ok]
            Z[done], E[done] = Z_try[ok], E_try[ok]
            step[trying[~ok]] *= 0.5
            trying = trying[~ok & (step[trying] > 1e-16)]
        active = active[step > 1e-16]  # a class with no productive step stops there
        if not active.size:
            break
    return LrModel(weights=W, intercepts=b, dimension=V, num_classes=k)

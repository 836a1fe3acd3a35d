"""The three base classifiers: multinomial naive Bayes, one-vs-rest logistic
regression with L2 regularization, and a Gini-impurity random forest.

All models predict full per-class probability distributions so they can cast
soft votes downstream. Counts may be fractional (oversampled data), so every
fit works on real-valued count sums.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .features import CsrMatrix, LabeledDataset, SparseCountVector


def _batched(predict_proba):
    """Check a batch's dimension; run a lone SparseCountVector as a batch of one."""

    @functools.wraps(predict_proba)
    def wrapper(model, X):
        single = isinstance(X, SparseCountVector)
        X = CsrMatrix.from_rows([X], X.dimension) if single else X
        if X.dimension != model.dimension:
            raise ValueError(f"input dimension {X.dimension} != model dimension {model.dimension}")
        probs = predict_proba(model, X)
        return probs[0] if single else probs

    return wrapper


def _linear_scores(bias: np.ndarray, weights: np.ndarray, X: CsrMatrix) -> np.ndarray:
    """bias + X @ weights.T as (n, k), by np.add.at (reduceat mishandles empty rows)."""
    scores = np.tile(bias, (len(X), 1))
    np.add.at(scores, X.row_ids(), X.data[:, None] * weights.T[X.indices])
    return scores


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes


@dataclass(frozen=True)
class MnbConfig:
    alpha: float = 0.5

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


@dataclass(frozen=True)
class MnbModel:
    log_priors: np.ndarray  # (k,)
    log_likelihoods: np.ndarray  # (k, V)
    dimension: int
    num_classes: int

    def predict_proba(self, X: CsrMatrix) -> np.ndarray:
        return mnb_predict_proba(self, X)


def mnb_fit(dataset: LabeledDataset, cfg: MnbConfig = MnbConfig()) -> MnbModel:
    """Smoothed count estimation: P(f|c) = (count(f,c) + a) / (total(c) + a*V)."""
    if len(dataset) == 0:
        raise ValueError("cannot fit naive Bayes on an empty dataset")
    if dataset.dimension < 1:
        raise ValueError("naive Bayes needs at least one feature")
    k, V = dataset.num_classes, dataset.dimension
    X = CsrMatrix.from_rows(dataset.rows, V)
    y = np.asarray(dataset.labels, dtype=np.intp)
    class_counts = np.bincount(y, minlength=k)
    feature_counts = np.zeros((k, V))
    # add.at adds in entry order, so every sum is the row-by-row loop's
    np.add.at(feature_counts, (y[X.row_ids()], X.indices), X.data)
    with np.errstate(divide="ignore"):
        log_priors = np.log(class_counts / len(dataset))
    totals = feature_counts.sum(axis=1, keepdims=True)
    log_likelihoods = np.log(feature_counts + cfg.alpha) - np.log(totals + cfg.alpha * V)
    return MnbModel(
        log_priors=log_priors, log_likelihoods=log_likelihoods, dimension=V, num_classes=k
    )


@_batched
def mnb_predict_proba(model: MnbModel, X: CsrMatrix) -> np.ndarray:
    scores = _linear_scores(model.log_priors, model.log_likelihoods, X)
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    return probs / probs.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# One-vs-rest logistic regression


@dataclass(frozen=True)
class LrConfig:
    l2_strength: float = 1.0
    max_iters: int = 200
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.l2_strength < 0:
            raise ValueError("l2_strength must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")


@dataclass(frozen=True)
class LrModel:
    weights: np.ndarray  # (k, V)
    intercepts: np.ndarray  # (k,)
    dimension: int
    num_classes: int

    def predict_proba(self, X: CsrMatrix) -> np.ndarray:
        return lr_predict_proba(self, X)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    out = e + 1.0  # and reused: in the fit, each fresh (n, k) temporary may be faulted in anew
    return np.divide(np.where(z >= 0, 1.0, e), out, out=out)


def lr_objective(w: np.ndarray, b, X: np.ndarray, y01: np.ndarray, lam: float):
    """Mean logistic loss of a binary problem plus (lam/2)*||w||^2 (intercept

    free); for a (V, k) stack w, (k,) b and (n, k) y01, that of each column.
    """
    m = X @ w  # becomes -(2y - 1) z, the logit against the label
    m += b
    np.negative(m, out=m, where=y01 == 1.0)
    loss = np.maximum(m, 0.0)  # plus log(1 + e^-|m|): log(1 + e^m) without overflow
    np.log1p(np.exp(np.negative(np.abs(m, out=m), out=m), out=m), out=m)  # in place, as in _sigmoid
    loss += m
    return loss.mean(axis=0) + 0.5 * lam * (w * w).sum(axis=0)


def lr_gradient(w: np.ndarray, b, X: np.ndarray, y01: np.ndarray, lam: float):
    """(gradient in w, gradient in b) of lr_objective, column by column for a stack."""
    resid = _sigmoid(X @ w + b) - y01
    return X.T @ resid / len(y01) + lam * w, resid.mean(axis=0)


def lr_fit(dataset: LabeledDataset, cfg: LrConfig = LrConfig()) -> LrModel:
    """One binary L2-regularized problem per class (one-vs-rest), all solved

    together by full-batch gradient descent from zero with an Armijo
    backtracking search per class (shrink 0.5, slope factor 1e-4). A class
    stops when its gradient norm falls below the tolerance, or when no step
    above 1e-16 decreases its objective enough.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit logistic regression on an empty dataset")
    if len(set(dataset.labels)) < 2:
        raise ValueError("logistic regression needs at least 2 distinct labels")
    n, V, k, lam = len(dataset), dataset.dimension, dataset.num_classes, cfg.l2_strength
    rows = CsrMatrix.from_rows(dataset.rows, V)
    X = np.zeros((n, V))
    X[rows.row_ids(), rows.indices] = rows.data
    Y = (np.asarray(dataset.labels)[:, None] == np.arange(k)).astype(float)
    W, b = np.zeros((V, k)), np.zeros(k)
    obj = lr_objective(W, b, X, Y, lam)
    active = np.arange(k)  # the classes still descending
    for _ in range(cfg.max_iters):
        gW, gb = lr_gradient(W[:, active], b[active], X, Y[:, active], lam)
        gnorm_sq = (gW * gW).sum(axis=0) + gb * gb
        moving = ~(np.sqrt(gnorm_sq) < cfg.tolerance)
        active, gW, gb, gnorm_sq = active[moving], gW[:, moving], gb[moving], gnorm_sq[moving]
        step = np.ones(len(active))
        trying = np.arange(len(active))  # positions in active still searching
        while trying.size:
            c, s = active[trying], step[trying]
            W_try, b_try = W[:, c] - s * gW[:, trying], b[c] - s * gb[trying]
            obj_try = lr_objective(W_try, b_try, X, Y[:, c], lam)
            ok = obj_try <= obj[c] - 1e-4 * s * gnorm_sq[trying]
            W[:, c[ok]], b[c[ok]], obj[c[ok]] = W_try[:, ok], b_try[ok], obj_try[ok]
            step[trying[~ok]] *= 0.5
            trying = trying[~ok & (step[trying] > 1e-16)]
        active = active[step > 1e-16]  # a class with no productive step stops there
        if not active.size:
            break
    return LrModel(weights=W.T.copy(), intercepts=b, dimension=V, num_classes=k)


@_batched
def lr_predict_proba(model: LrModel, X: CsrMatrix) -> np.ndarray:
    s = _sigmoid(_linear_scores(model.intercepts, model.weights, X))
    return s / s.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Random forest


@dataclass(frozen=True)
class RfConfig:
    n_trees: int = 20
    max_features: int | None = None  # None -> ceil(sqrt(V))
    min_samples_leaf: int = 1
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass(frozen=True, eq=False)
class RfModel:
    """A forest packed into parallel node arrays, as in scikit-learn's `_tree`:

    node i is a leaf with class counts counts[i] (zero at split nodes) when
    feature[i] == -1, else x[feature[i]] <= threshold[i] leads to left[i] and
    otherwise to right[i]; tree t starts at node roots[t]. Nodes are numbered
    in preorder. (eq=False: arrays do not compare with ==.)
    """

    dimension: int
    num_classes: int
    feature: np.ndarray  # (nodes,) intp
    threshold: np.ndarray  # (nodes,) float
    left: np.ndarray  # (nodes,) intp
    right: np.ndarray  # (nodes,) intp
    counts: np.ndarray  # (nodes, k) float
    roots: np.ndarray  # (trees,) intp

    def predict_proba(self, X: CsrMatrix) -> np.ndarray:
        return rf_predict_proba(self, X)


def _best_split(X: CsrMatrix, y, rows, totals, candidates, slot, min_leaf):
    """(feature, threshold, goes-left mask over rows) of least weighted Gini

    impurity at the node holding samples `rows`, or None. Only the nonzeros
    are read: counts are positive, so a candidate's samples sort into its
    zero segment, whose class counts are the node's totals minus those of its
    nonzeros, then one segment per distinct nonzero value. Every boundary is
    scored at once; the first least one in (candidate, value) order wins.
    """
    m, k, F = len(rows), len(totals), len(candidates)
    starts = X.indptr[rows]
    lengths = X.indptr[rows + 1] - starts
    owner = np.repeat(np.arange(m), lengths)  # the node position of each gathered entry
    pos = np.arange(len(owner)) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    slot[candidates] = np.arange(F)
    cand = slot[X.indices[pos]]
    slot[candidates] = -1
    keep = cand >= 0
    # A zero-valued stand-in (owner m, of no class) heads each candidate's zero segment.
    cand = np.concatenate([np.arange(F), cand[keep]])
    value = np.concatenate([np.zeros(F), X.data[pos[keep]]])
    owner = np.concatenate([np.full(F, m), owner[keep]])
    order = np.lexsort((value, cand))
    cand, value, owner = cand[order], value[order], owner[order]
    new = np.ones(len(cand), dtype=bool)
    new[1:] = (cand[1:] != cand[:-1]) | (value[1:] != value[:-1])
    first = np.flatnonzero(new)  # each segment's first entry
    seg = np.cumsum(new) - 1  # each entry's segment
    label = np.append(y[rows], k)[owner]  # stand-ins count in column k, then dropped
    counts = np.bincount(seg * (k + 1) + label, minlength=len(first) * (k + 1))
    counts = counts.reshape(-1, k + 1)[:, :k]
    heads = seg[owner == m]
    counts[heads] = totals - np.add.reduceat(counts, heads)
    # A candidate's segments hold all m samples, so candidate j's sums start at j * totals.
    # An empty zero segment puts no sample on the left, so it is never a boundary.
    left = np.cumsum(counts, axis=0) - cand[first, None] * totals
    nl = left.sum(axis=1)
    boundary = np.flatnonzero(
        (np.diff(cand[first]) == 0) & (nl[:-1] >= min_leaf) & (m - nl[:-1] >= min_leaf)
    )
    if boundary.size == 0:
        return None
    left, nl = left[boundary], nl[boundary]
    right, nr = totals - left, m - nl
    gini = lambda c, n: 1.0 - (c**2).sum(axis=1) / n**2
    b = boundary[np.argmin((nl * gini(left, nl) + nr * gini(right, nr)) / (nl + nr))]
    j, lo, hi = cand[first[b]], value[first[b]], value[first[b + 1]]
    threshold = (lo + hi) / 2.0 if (lo + hi) / 2.0 < hi else lo  # may round up to hi if adjacent
    x = np.zeros(m + 1)
    x[owner[cand == j]] = value[cand == j]
    return candidates[j], threshold, x[:m] <= threshold


def rf_fit(dataset: LabeledDataset, cfg: RfConfig = RfConfig()) -> RfModel:
    """Grow n_trees CART trees on bootstrap resamples. Each tree's RNG stream

    derives from (seed, tree index), so the result is seed-deterministic. A
    tree grows from an explicit stack of nodes, each an array of sample rows
    (bootstrap duplicates included), left child before right, so nodes are
    numbered and the RNG is drawn in preorder.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit a random forest on an empty dataset")
    X = CsrMatrix.from_rows(dataset.rows, dataset.dimension)
    y = np.asarray(dataset.labels, dtype=np.intp)
    n, V, k = len(y), dataset.dimension, dataset.num_classes
    max_feats = cfg.max_features if cfg.max_features is not None else math.ceil(math.sqrt(V))
    max_feats = min(max(max_feats, 1), V)
    slot = np.full(V, -1)  # a feature's place among the node's candidates, else -1
    nodes, roots = [], []  # nodes: [feature, threshold, left, right, counts]
    for t in range(cfg.n_trees):
        rng = np.random.default_rng([cfg.seed, t])
        roots.append(len(nodes))
        sample = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        stack = [(sample, None, 0)]  # (rows, the parent's node, 2 if left child else 3)
        while stack:
            rows, parent, side = stack.pop()
            if parent is not None:
                parent[side] = len(nodes)
            totals = np.bincount(y[rows], minlength=k)
            split = None
            if np.count_nonzero(totals) > 1 and len(rows) >= 2 * cfg.min_samples_leaf:
                candidates = rng.choice(V, size=max_feats, replace=False)
                split = _best_split(X, y, rows, totals, candidates, slot, cfg.min_samples_leaf)
            if split is None:
                nodes.append([-1, 0.0, -1, -1, totals.astype(float)])
            else:
                f, threshold, go_left = split
                nodes.append([f, threshold, -1, -1, np.zeros(k)])
                stack += [(rows[~go_left], nodes[-1], 3), (rows[go_left], nodes[-1], 2)]
    feature, threshold, left, right, counts = zip(*nodes)
    index = lambda values: np.array(values, dtype=np.intp)
    threshold, counts = np.array(threshold, dtype=float), np.array(counts, dtype=float)
    return RfModel(V, k, index(feature), threshold, index(left), index(right), counts, index(roots))


@_batched
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

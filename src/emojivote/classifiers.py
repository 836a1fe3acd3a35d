"""The three base classifiers: multinomial naive Bayes, one-vs-rest logistic
regression with L2 regularization, and a Gini-impurity random forest.

All models predict full per-class probability distributions so they can cast
soft votes downstream. Counts may be fractional (oversampled data), so every
fit works on real-valued count sums.
"""

import functools
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .features import CsrMatrix, LabeledDataset, SparseCountVector


def _batched(predict_proba):
    """Check a batch's dimension; run a lone SparseCountVector as a batch of one."""

    @functools.wraps(predict_proba)
    def wrapper(model, X):
        if isinstance(X, SparseCountVector):
            return wrapper(model, CsrMatrix.from_rows([X], X.dimension))[0]
        if X.dimension != model.dimension:
            raise ValueError(f"input dimension {X.dimension} != model dimension {model.dimension}")
        return predict_proba(model, X)

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
    class_counts = np.zeros(k)
    feature_counts = np.zeros((k, V))
    for row, lab in zip(dataset.rows, dataset.labels):
        class_counts[lab] += 1
        for idx, cnt in row.entries:
            feature_counts[lab, idx] += cnt
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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lr_objective(
    w: np.ndarray, b: float, X: np.ndarray, y01: np.ndarray, lam: float
) -> float:
    """Mean logistic loss of a binary problem plus (lam/2)*||w||^2 (intercept free)."""
    z = X @ w + b
    ysign = 2.0 * y01 - 1.0
    loss = np.logaddexp(0.0, -ysign * z).mean()
    return float(loss + 0.5 * lam * (w @ w))


def lr_gradient(
    w: np.ndarray, b: float, X: np.ndarray, y01: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    resid = _sigmoid(X @ w + b) - y01
    gw = X.T @ resid / len(y01) + lam * w
    gb = float(resid.mean())
    return gw, gb


def _fit_binary(X: np.ndarray, y01: np.ndarray, cfg: LrConfig) -> tuple[np.ndarray, float]:
    # Full-batch gradient descent, zero init, Armijo backtracking (shrink 0.5,
    # slope factor 1e-4).
    w = np.zeros(X.shape[1])
    b = 0.0
    obj = lr_objective(w, b, X, y01, cfg.l2_strength)
    for _ in range(cfg.max_iters):
        gw, gb = lr_gradient(w, b, X, y01, cfg.l2_strength)
        gnorm_sq = gw @ gw + gb * gb
        if math.sqrt(gnorm_sq) < cfg.tolerance:
            break
        step = 1.0
        while step > 1e-16:
            w_new = w - step * gw
            b_new = b - step * gb
            obj_new = lr_objective(w_new, b_new, X, y01, cfg.l2_strength)
            if obj_new <= obj - 1e-4 * step * gnorm_sq:
                break
            step *= 0.5
        else:
            break  # no productive step exists at this point
        w, b, obj = w_new, b_new, obj_new
    return w, b


def lr_fit(dataset: LabeledDataset, cfg: LrConfig = LrConfig()) -> LrModel:
    """One binary L2-regularized problem per class (one-vs-rest)."""
    if len(dataset) == 0:
        raise ValueError("cannot fit logistic regression on an empty dataset")
    if len(set(dataset.labels)) < 2:
        raise ValueError("logistic regression needs at least 2 distinct labels")
    X, y = dataset.to_dense()
    k = dataset.num_classes
    W = np.zeros((k, dataset.dimension))
    b = np.zeros(k)
    for c in range(k):
        W[c], b[c] = _fit_binary(X, (y == c).astype(float), cfg)
    return LrModel(weights=W, intercepts=b, dimension=dataset.dimension, num_classes=k)


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


@dataclass(frozen=True)
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None  # leaf class-count distribution; None at split nodes


@dataclass(frozen=True, eq=False)
class RfModel:
    """A forest packed into parallel node arrays, as in scikit-learn's `_tree`:

    node i is a leaf with class counts counts[i] (zero at split nodes) when
    feature[i] == -1, else x[feature[i]] <= threshold[i] leads to left[i] and
    otherwise to right[i]; tree t starts at node roots[t]. The linked `trees`
    it is built from are packed, not kept.
    """

    trees: InitVar[list[TreeNode]]
    dimension: int
    num_classes: int

    def __post_init__(self, trees):
        nodes, roots = [], []  # nodes: [feature, threshold, left, right, counts]
        for tree in trees:
            roots.append(len(nodes))
            stack = [(tree, None, 0)]  # (node, its parent's row, 2 if left child else 3)
            while stack:
                node, parent, side = stack.pop()
                if parent is not None:
                    parent[side] = len(nodes)
                if node.counts is not None:
                    nodes.append([-1, node.threshold, -1, -1, node.counts])
                else:
                    nodes.append([node.feature, node.threshold, -1, -1, np.zeros(self.num_classes)])
                    stack += [(node.right, nodes[-1], 3), (node.left, nodes[-1], 2)]
        feature, threshold, left, right, counts = zip(*nodes)
        index = lambda values: np.array(values, dtype=np.intp)
        self.__dict__.update(  # the dataclass is frozen; set the arrays once, here
            feature=index(feature), threshold=np.array(threshold, dtype=float), left=index(left),
            right=index(right), counts=np.array(counts, dtype=float), roots=index(roots),
        )

    def predict_proba(self, X: CsrMatrix) -> np.ndarray:
        return rf_predict_proba(self, X)


def _gini_pair(left_counts: np.ndarray, right_counts: np.ndarray) -> np.ndarray:
    # Weighted Gini impurity of (left, right) splits; rows are candidate
    # thresholds, columns classes.
    nl = left_counts.sum(axis=1)
    nr = right_counts.sum(axis=1)
    gl = 1.0 - (left_counts**2).sum(axis=1) / nl**2
    gr = 1.0 - (right_counts**2).sum(axis=1) / nr**2
    return (nl * gl + nr * gr) / (nl + nr)


def _best_split_for_feature(col, onehot, min_leaf):
    """(impurity, threshold) for the best midpoint split of one feature, or None."""
    order = np.argsort(col, kind="stable")
    sv = col[order]
    cum = np.cumsum(onehot[order], axis=0)
    n = len(sv)
    # splittable boundaries: positions i where sv[i] < sv[i+1]
    boundary = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundary.size == 0:
        return None
    sizes = boundary + 1
    ok = (sizes >= min_leaf) & (n - sizes >= min_leaf)
    boundary = boundary[ok]
    if boundary.size == 0:
        return None
    left = cum[boundary]
    right = cum[-1] - left
    imp = _gini_pair(left, right)
    best = int(np.argmin(imp))
    i = boundary[best]
    return float(imp[best]), (sv[i] + sv[i + 1]) / 2.0


def _grow_tree(X, y, k, cfg, rng) -> TreeNode:
    counts = np.bincount(y, minlength=k).astype(float)
    n, V = X.shape
    if np.count_nonzero(counts) <= 1 or n < 2 * cfg.min_samples_leaf:
        return TreeNode(counts=counts)
    max_feats = cfg.max_features if cfg.max_features is not None else math.ceil(math.sqrt(V))
    max_feats = min(max(max_feats, 1), V)
    candidates = rng.choice(V, size=max_feats, replace=False)
    onehot = np.eye(k)[y]
    best = None  # (impurity, feature, threshold)
    for f in candidates:
        found = _best_split_for_feature(X[:, f], onehot, cfg.min_samples_leaf)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], int(f), found[1])
    if best is None:
        return TreeNode(counts=counts)
    _, f, thr = best
    mask = X[:, f] <= thr
    left = _grow_tree(X[mask], y[mask], k, cfg, rng)
    right = _grow_tree(X[~mask], y[~mask], k, cfg, rng)
    return TreeNode(feature=f, threshold=thr, left=left, right=right)


def rf_fit(dataset: LabeledDataset, cfg: RfConfig = RfConfig()) -> RfModel:
    """Grow n_trees CART trees on bootstrap resamples. Each tree's RNG stream

    derives from (seed, tree index), so the result is seed-deterministic.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit a random forest on an empty dataset")
    X, y = dataset.to_dense()
    n = len(y)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng([cfg.seed, t])
        if cfg.bootstrap:
            sample = rng.integers(0, n, size=n)
            Xt, yt = X[sample], y[sample]
        else:
            Xt, yt = X, y
        trees.append(_grow_tree(Xt, yt, dataset.num_classes, cfg, rng))
    return RfModel(trees=trees, dimension=dataset.dimension, num_classes=dataset.num_classes)


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

"""The recursive, dense random-forest grower that `rf_fit` replaced, kept as
the reference its packed arrays must equal, and the packer from linked
`TreeNode` trees to an `RfModel` that hand-built forests in the tests use.

The grower copies X[mask] at every level and recurses once per node, so it
only suits small data.
"""

import math
from dataclasses import dataclass

import numpy as np

from emojivote.classifiers import RfConfig, RfModel
from emojivote.features import LabeledDataset


@dataclass(frozen=True)
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None  # leaf class-count distribution; None at split nodes


def pack(trees: list[TreeNode], dimension: int, num_classes: int) -> RfModel:
    """Number the nodes of each tree in preorder, by an explicit stack."""
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
                nodes.append([node.feature, node.threshold, -1, -1, np.zeros(num_classes)])
                stack += [(node.right, nodes[-1], 3), (node.left, nodes[-1], 2)]
    feature, threshold, left, right, counts = zip(*nodes)
    index = lambda values: np.array(values, dtype=np.intp)
    return RfModel(
        dimension=dimension, num_classes=num_classes, feature=index(feature),
        threshold=np.array(threshold, dtype=float), left=index(left), right=index(right),
        counts=np.array(counts, dtype=float), roots=index(roots),
    )


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


def oracle_fit(dataset: LabeledDataset, cfg: RfConfig = RfConfig()) -> RfModel:
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
    return pack(trees, dataset.dimension, dataset.num_classes)

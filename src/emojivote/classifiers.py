"""The three base classifiers: multinomial naive Bayes, one-vs-rest logistic
regression with L2 regularization, and a Gini-impurity random forest.

All models predict full per-class probability distributions so they can cast
soft votes downstream. Counts may be fractional (oversampled data), so every
fit works on real-valued count sums.
"""

import collections
import math
import os
import pickle
import signal
from array import array
from dataclasses import dataclass

import numpy as np

from .features import CsrMatrix, LabeledDataset


def _check_dimension(model, X: CsrMatrix) -> None:
    """Raise ValueError unless a batch's dimension is the model's."""
    if X.dimension != model.dimension:
        raise ValueError(f"input dimension {X.dimension} != model dimension {model.dimension}")


def _linear_scores(bias: np.ndarray, weights: np.ndarray, X: CsrMatrix) -> np.ndarray:
    """bias + X @ weights.T as (n, k), adding each row's terms left to right:

    step j adds the j-th entry of every row that has one. (np.add.reduceat
    would sum a row of 8 or more terms pairwise, in another order.)
    """
    scores = np.tile(bias, (len(X), 1))
    lengths = np.diff(X.indptr)
    for j in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > j)
        at = X.indptr[rows] + j
        scores[rows] += X.data[at, None] * weights.T[X.indices[at]]
    return scores


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes


@dataclass(frozen=True)
class MnbConfig:
    alpha: float = 0.5

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be > 0 and finite, got {self.alpha}")


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
    k, V, y = dataset.num_classes, dataset.dimension, dataset.labels
    class_counts = np.bincount(y, minlength=k)
    # bincount adds its weights in entry order, so every sum is the row-by-row loop's
    cell = y[dataset.row_ids()] * V + dataset.indices
    feature_counts = np.bincount(cell, weights=dataset.data, minlength=k * V).reshape(k, V)
    with np.errstate(divide="ignore"):
        log_priors = np.log(class_counts / len(dataset))
    totals = feature_counts.sum(axis=1, keepdims=True)
    log_likelihoods = np.log(feature_counts + cfg.alpha) - np.log(totals + cfg.alpha * V)
    return MnbModel(
        log_priors=log_priors, log_likelihoods=log_likelihoods, dimension=V, num_classes=k
    )


def mnb_predict_proba(model: MnbModel, X: CsrMatrix) -> np.ndarray:
    _check_dimension(model, X)
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
        if not 0 <= self.l2_strength < math.inf:
            raise ValueError(f"l2_strength must be >= 0 and finite, got {self.l2_strength}")
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


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """exp(-|z|), which never overflows."""
    e = np.abs(z)
    return np.exp(np.negative(e, out=e), out=e)


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) from e = exp(-|z|), which is computed if not given."""
    if e is None:
        e = _exp_neg_abs(z)
    out = e + 1.0
    # where(z >= 0, 1, e) without a branch per entry, since e <= 1
    return np.divide(np.maximum(e, z >= 0), out, out=out)


def _mean_loss(Z: np.ndarray, S: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Mean logistic loss along the last axis of logits Z, given label signs S

    (-1 where the label is the class, +1 elsewhere) and e = exp(-|Z|): the
    loss of a margin m = S*Z is log(1 + e^m) = max(m, 0) + log(1 + e^-|m|).
    """
    loss = np.multiply(Z, S)
    np.maximum(loss, 0.0, out=loss)
    loss += np.log1p(e)
    return loss.mean(axis=-1)


def _residuals(Z: np.ndarray, e: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sigmoid(Z) - Y, the loss's derivative in each logit, given e = exp(-|Z|)."""
    R = _sigmoid(Z, e)
    R -= Y
    return R


def lr_objective(w: np.ndarray, b, X: np.ndarray, y01: np.ndarray, lam: float):
    """Mean logistic loss of a binary problem plus (lam/2)*||w||^2 (intercept

    free); for a (V, k) stack w, (k,) b and (n, k) y01, that of each column.
    """
    Z = (X @ w + b).T
    return _mean_loss(Z, 1.0 - 2.0 * y01.T, _exp_neg_abs(Z)) + 0.5 * lam * (w * w).sum(axis=0)


def lr_gradient(w: np.ndarray, b, X: np.ndarray, y01: np.ndarray, lam: float):
    """(gradient in w, gradient in b) of lr_objective, column by column for a stack."""
    Z = (X @ w + b).T
    R = _residuals(Z, _exp_neg_abs(Z), y01.T)
    return (R @ X).T / len(y01) + lam * w, R.mean(axis=-1)


def _take(A: np.ndarray, at: np.ndarray) -> np.ndarray:
    """A[at] for increasing row numbers `at`; A itself, not a copy, when `at` is every row."""
    return A if len(at) == len(A) else A[at]


def lr_fit(dataset: LabeledDataset, cfg: LrConfig = LrConfig()) -> LrModel:
    """One binary L2-regularized problem per class (one-vs-rest), all solved

    together by full-batch gradient descent from zero with an Armijo
    backtracking search per class (shrink 0.5, slope factor 1e-4). A class
    stops when its gradient norm falls below the tolerance, or when no step
    above 1e-16 decreases its objective enough.

    Class-major: the weights W are (k, V) and the logits Z = W X^T + b are
    (k, n), so the elementwise passes run along rows. Each line-search trial
    computes its logits exactly with one product and one exp; the accepted
    trial's Z and exp(-|Z|) are kept, so the next gradient needs only R X.
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
        R = _residuals(_take(Z, active), _take(E, active), _take(Y, active))
        gW = R @ X
        gW /= n
        gW += lam * _take(W, active)
        gb = R.mean(axis=1)
        gnorm_sq = (gW * gW).sum(axis=1) + gb * gb
        moving = ~(np.sqrt(gnorm_sq) < cfg.tolerance)
        if not moving.all():
            active, gW, gb, gnorm_sq = active[moving], gW[moving], gb[moving], gnorm_sq[moving]
        step = np.ones(len(active))
        trying = np.arange(len(active))  # positions in active still searching
        while trying.size:
            c, s = active[trying], step[trying]
            W_try, b_try = _take(W, c) - s[:, None] * _take(gW, trying), b[c] - s * gb[trying]
            Z_try = W_try @ X.T
            Z_try += b_try[:, None]
            E_try = _exp_neg_abs(Z_try)
            obj_try = _mean_loss(Z_try, _take(S, c), E_try)
            obj_try += 0.5 * lam * (W_try * W_try).sum(axis=1)
            ok = obj_try <= obj[c] - 1e-4 * s * gnorm_sq[trying]
            if len(c) == k and ok.all():  # every class moves: keep the trial's arrays
                W, b, obj, Z, E = W_try, b_try, obj_try, Z_try, E_try
            else:
                done = c[ok]
                W[done], b[done], obj[done] = W_try[ok], b_try[ok], obj_try[ok]
                Z[done], E[done] = Z_try[ok], E_try[ok]
            step[trying[~ok]] *= 0.5
            trying = trying[~ok & (step[trying] > 1e-16)]
        active = active[step > 1e-16]  # a class with no productive step stops there
        if not active.size:
            break
    return LrModel(weights=W, intercepts=b, dimension=V, num_classes=k)


def lr_predict_proba(model: LrModel, X: CsrMatrix) -> np.ndarray:
    _check_dimension(model, X)
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
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1 (or None)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


# Below this many rows x trees (rows summed over the forests grown together)
# the forests grow in this process alone. A fork costs about 7 ms at 60 MB
# RSS; on 2 cores, with each process growing its trees in lockstep, 20 trees
# broke even with two workers at about 40-50 rows, 5 trees at about 150-200.
FORK_MIN_ROW_TREES = 900

# A lockstep step gathers and scores at most this many entries (those its
# nodes read, from their rows or their candidates' columns, a bound on those
# they keep, plus one zero stand-in per candidate) together, unless one node
# alone reads more. Scoring takes about 200 bytes of scratch per entry. At or
# below 2**15, a step's candidate keys fit in int16, which numpy sorts by radix.
STEP_ENTRIES = 1 << 15


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_trees: int, n_rows: int) -> int:
    """Processes to grow forests of n_trees trees each in, given their rows

    summed over the forests: one per usable CPU, at most one per tree.
    """
    if not hasattr(os, "fork") or n_rows * n_trees < FORK_MIN_ROW_TREES:
        return 1
    return min(_usable_cpus(), n_trees)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """A mask of the places where a run of equal values in `a` begins."""
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = a[1:] != a[:-1]
    return starts


def _sort_keys(keys: np.ndarray, bound: int) -> np.ndarray:
    """Keys in [0, bound), as int16 where they fit, which numpy sorts by radix."""
    return keys.astype(np.int16) if bound <= 1 << 15 else keys


def _renumber(feature, threshold, left, right, counts, sizes) -> tuple:
    """The packed arrays (feature, threshold, left, right, counts, roots) of

    trees laid end to end, tree t's sizes[t] nodes numbered from 0: each
    tree's nodes renumbered after those before it, its root the first.
    """
    roots = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=roots[1:])
    node_offset = np.repeat(roots, sizes)
    left = np.where(left >= 0, left + node_offset, -1)  # -1 stays -1
    right = np.where(right >= 0, right + node_offset, -1)
    return feature, threshold, left, right, counts, roots


@dataclass
class _Search:
    """A node to split: its tree (a _Tree), its number in the tree, its sample

    rows, class totals and candidate features, whether it reads its entries
    from the candidates' columns (else from its rows), how many entries that
    path reads, an upper bound on those it keeps, and its tree's forest.
    """

    tree: "_Tree"
    node: int
    rows: np.ndarray
    totals: np.ndarray
    candidates: np.ndarray
    by_columns: bool
    reads: int
    forest: int = 0


class _Tree:
    """A tree being grown: its forest, its RNG, the stack of nodes it has yet

    to number, and its nodes so far in preorder, as flat columns: feature,
    threshold, right child (a split node's left child is the next node) and
    the row of the grower's table that holds the node's class totals. A stack
    entry is (rows, class totals, their table row, the node it is the right
    child of or -1, whether it may split, the entries in its rows).
    """

    def __init__(self, forest: int, rng):
        self.forest, self.rng, self.stack = forest, rng, []
        self.feature, self.threshold = array("q"), array("d")
        self.right, self.totals = array("q"), array("q")


class _TreeGrower:
    """Grows the trees of forests on nested prefixes of the training rows

    (CSR), from those rows, their columns (the transposed CSR) and the labels;
    forest i reads the first sizes[i] rows only (all rows by default). A node
    is the sorted array of its sample rows, bootstrap duplicates included; the
    order of a node's rows never changes its split, so sorting only makes
    duplicates adjacent.
    """

    def __init__(self, X: CsrMatrix, y: np.ndarray, k: int, cfg: RfConfig, sizes=None):
        n, V = len(X), X.dimension
        self.X, self.columns, self.k, self.cfg = X, X.transpose(), k, cfg
        self.sizes = [n] if sizes is None else list(sizes)
        self.labels = np.append(y, k)  # row n is the zero stand-in, of no class
        self.row_nnz = X.indptr[1:] - X.indptr[:-1]
        # A column lists its rows in increasing order, so forest i's rows are a prefix of
        # it: col_nnz[i, f] entries long.
        prefix = lambda size: np.bincount(X.indices[: X.indptr[size]], minlength=V)
        self.col_nnz = np.array([prefix(size) for size in self.sizes])
        max_feats = cfg.max_features if cfg.max_features is not None else math.ceil(math.sqrt(V))
        self.max_feats = min(max_feats, V)
        # Scratch that each gather sets and resets, for the p-th node of a step that reads
        # rows or columns (a step holds at most one node of each tree): slot[p * V + f] is
        # 1 + the g of feature f among the node's candidates, else 0; copies[p * n + r] is
        # the number of copies of row r in the node. Both stay far below 2**31. Scoring
        # marks in copies the rows that go right at the p-th split of a step.
        trees = len(self.sizes) * cfg.n_trees
        self.slot = np.zeros(trees * V, dtype=np.int32)
        self.copies = np.zeros(trees * n, dtype=np.int32)
        self.table, self.filled = [], 0  # blocks of class totals, and the rows they hold

    def grow(self, trees) -> list[tuple]:
        """For each forest in turn, the node arrays (feature, threshold, left,

        right, counts) of its given trees, each tree numbered from 0, and the
        trees' node counts; `trees` are (forest, tree index) pairs, some of
        every forest. Tree t's RNG stream derives from (seed, t), whatever its
        forest. Each tree grows from its own explicit stack, left child before
        right, so its nodes are numbered and its RNG drawn in preorder. The
        trees grow in lockstep: each step takes the next node to split from
        each tree in turn, while the entries its nodes read, plus one stand-in
        per candidate, stay within STEP_ENTRIES; it gathers all their entries
        at once, scores them all at once, and sizes up all the children of its
        splits at once.
        """
        cfg, grown, samples = self.cfg, [], []
        for forest, t in trees:
            rng = np.random.default_rng([cfg.seed, t])
            n = self.sizes[forest]
            samples.append(np.sort(rng.integers(0, n, size=n)) if cfg.bootstrap else np.arange(n))
            grown.append(_Tree(forest, rng))
        lengths = [len(sample) for sample in samples]
        self._push(grown, np.concatenate(samples), lengths, [-1] * len(grown))
        queue = collections.deque(s for tree in grown for s in self._next_search(tree))
        while queue:
            step, size = [], 0
            while queue:
                size += queue[0].reads + self.max_feats
                if step and size > STEP_ENTRIES:
                    break
                step.append(queue.popleft())
            nodes, features, thresholds, rows, side = self._best_splits(step, self._gather(step))
            parents, right_of = [], []
            for i, f, threshold in zip(nodes.tolist(), features.tolist(), thresholds.tolist()):
                tree, node = step[i].tree, step[i].node
                tree.feature[node], tree.threshold[node] = f, threshold
                parents += [tree, tree]
                right_of += [node, -1]  # the left child is pushed last, so it is popped first
            if parents:
                order = np.argsort(_sort_keys(side, len(parents)), kind="stable")
                lengths = np.bincount(side, minlength=len(parents))
                self._push(parents, rows[order], lengths, right_of)
            for search in step:
                queue.extend(self._next_search(search.tree))
        table = np.concatenate(self.table, dtype=float)
        self.table, self.filled = [], 0
        forests = range(len(self.sizes))
        return [self._arrays([tree for tree in grown if tree.forest == i], table) for i in forests]

    def _push(self, trees: list, rows: np.ndarray, lengths, right_of: list) -> None:
        """Push the samples laid end to end in `rows`, lengths[i] rows each

        (none empty), onto the stack of trees[i], in order, each with its class
        totals, whether it may split (it holds two classes and room for two
        leaves) and the entries in its rows, all found at once.
        """
        k, m, lengths = self.k, len(trees), np.asarray(lengths)
        starts = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(m), lengths)
        totals = np.bincount(owner * k + self.labels[rows], minlength=m * k).reshape(m, k)
        by_rows = np.add.reduceat(self.row_nnz[rows], starts).tolist()
        splits = (np.count_nonzero(totals, axis=1) > 1) & (lengths >= 2 * self.cfg.min_samples_leaf)
        first, self.filled = self.filled, self.filled + m
        self.table.append(totals)
        bounds = zip(starts.tolist(), (starts + lengths).tolist())
        for i, (tree, split, (a, b)) in enumerate(zip(trees, splits.tolist(), bounds)):
            sample = rows[a:b].copy()  # a copy, so that no sample keeps the whole of `rows` alive
            tree.stack.append((sample, totals[i], first + i, right_of[i], split, by_rows[i]))

    def _next_search(self, tree: _Tree) -> list:
        """Number the tree's nodes up to the next one to split, leaves as they

        are popped: [its _Search], or [] once the tree is grown.
        """
        while tree.stack:
            rows, totals, row, right_of, split, by_rows = tree.stack.pop()
            node = len(tree.feature)
            if right_of >= 0:
                tree.right[right_of] = node
            tree.feature.append(-1)
            tree.threshold.append(0.0)
            tree.right.append(-1)
            tree.totals.append(row)
            if split:
                candidates = tree.rng.choice(self.X.dimension, size=self.max_feats, replace=False)
                by_columns = self.col_nnz[tree.forest, candidates].sum()
                columns = self._reads_columns(by_rows, by_columns)
                reads = by_columns if columns else by_rows
                return [_Search(tree, node, rows, totals, candidates, columns, reads, tree.forest)]
        return []

    def _arrays(self, trees: list, table: np.ndarray) -> tuple:
        """grow's arrays of the grown trees, from their columns and the table."""
        def join(name, dtype):
            return np.concatenate([np.array(getattr(tree, name), dtype) for tree in trees])

        sizes = np.array([len(tree.feature) for tree in trees], dtype=np.intp)
        feature, threshold = join("feature", np.intp), join("threshold", float)
        right, totals = join("right", np.intp), join("totals", np.intp)
        counts = table[totals]
        split = feature >= 0
        counts[split] = 0.0
        node = np.arange(len(feature)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return feature, threshold, np.where(split, node + 1, -1), right, counts, sizes

    def _reads_columns(self, by_rows: int, by_columns: int) -> bool:
        """Whether a node reads its candidates' columns rather than its rows,

        given the entries each holds: it reads whichever holds fewer.
        """
        return by_columns < by_rows

    def _gather(self, step: list) -> tuple:
        """(g, value, row, weight) of the step's nodes' entries in their

        candidates, where g = i * F + j for candidate j of node i: those of
        the nodes that read rows, then those of the nodes that read columns.
        """
        candidates = np.array([search.candidates for search in step])  # (N, F)
        by_columns = np.array([search.by_columns for search in step])
        parts = []
        for read, nodes in (self._row_entries, ~by_columns), (self._column_entries, by_columns):
            nodes = nodes.nonzero()[0]
            if nodes.size:
                parts.append(read(step, nodes, candidates))
        return tuple(map(np.concatenate, zip(*parts)))

    def _row_entries(self, step, nodes, candidates) -> tuple:
        """The entries of the given nodes read from their rows, each looked up

        by (p, feature) among the candidates, where p is its node's place in
        `nodes`: one entry per copy of a row, each of weight 1.
        """
        V, F = self.X.dimension, self.max_feats
        place, rows = np.arange(len(nodes)) * V, [step[i].rows for i in nodes]
        cells = (place[:, None] + candidates[nodes]).ravel()
        self.slot[cells] = (nodes[:, None] * F + np.arange(1, F + 1)).ravel()
        place = np.repeat(place, [len(r) for r in rows])  # each row's
        rows = np.concatenate(rows)
        owner, pos = self.X.positions(rows)
        g = self.slot[place[owner] + self.X.indices[pos]]
        self.slot[cells] = 0
        keep = g.nonzero()[0]
        return g[keep] - 1, self.X.data[pos[keep]], rows[owner[keep]], np.ones(len(keep), np.intp)

    def _column_entries(self, step, nodes, candidates) -> tuple:
        """The same entries read from the given nodes' candidates' columns,

        each once, its weight the number of copies of its row in the node,
        looked up by (p, row). A node reads only its forest's prefix of each.
        """
        n, F = len(self.X), self.max_feats
        place, rows = np.arange(len(nodes)) * n, [step[i].rows for i in nodes]
        cells = np.repeat(place, [len(r) for r in rows]) + np.concatenate(rows)
        first = _run_starts(cells).nonzero()[0]  # rows are sorted: a row's copies are a run
        self.copies[cells[first]] = np.append(first[1:], len(cells)) - first
        forests = np.array([step[i].forest for i in nodes])
        chosen = candidates[nodes]
        lengths = self.col_nnz[forests[:, None], chosen].ravel()
        owner, pos = self.columns.positions(chosen.ravel(), lengths)  # owner: p * F + j
        row = self.columns.indices[pos]
        weight = self.copies[np.repeat(place, F)[owner] + row]
        self.copies[cells[first]] = 0
        keep = weight.nonzero()[0]
        g = (nodes[:, None] * F + np.arange(F)).ravel()[owner[keep]]
        return g, self.columns.data[pos[keep]], row[keep], weight[keep]

    def _best_splits(self, step: list, entries: tuple) -> tuple:
        """(nodes, features, thresholds, rows, side): the searched nodes that

        split, in step order, the feature and threshold of each one's split of
        least weighted Gini impurity, their rows laid end to end, and the child
        each row goes to: 2s for the right child of the s-th split node, 2s + 1
        for its left child. Node i's candidate j is g = i * F + j. Counts are
        positive, so each g's samples sort into its zero segment, whose class
        counts are the node's totals minus those of its nonzeros, then one
        segment per distinct nonzero value. Every boundary of every node is
        scored at once, from running sums over each g; in each node the first
        least one in (candidate, value) order wins. The step's entries are
        _gather's (g, value, row, weight).
        """
        N, F, k, n = len(step), self.max_feats, self.k, len(self.X)
        G = N * F
        totals = np.array([search.totals for search in step])  # (N, k)
        # A zero-valued stand-in (owner n, of class k, weight 0) heads each g's entries.
        stand_ins = np.arange(G), np.zeros(G), np.full(G, n), np.zeros(G, np.intp)
        g, value, owner, w = (np.concatenate(pair) for pair in zip(stand_ins, entries))
        order = np.argsort(value, kind="stable")  # then by g, stably
        order = order[np.argsort(_sort_keys(g[order], G), kind="stable")]
        g, value, owner, w = g[order], value[order], owner[order], w[order]
        heads = (owner == n).nonzero()[0]  # each g's first entry, its stand-in
        new = _run_starts(g)
        new[1:] |= value[1:] != value[:-1]
        first = new.nonzero()[0]  # each segment's first entry
        last = np.append(first[1:], len(g)) - 1  # and its last
        seg_g = g[first]
        # Each g's class totals, and its zero segment's class counts (column k: stand-ins).
        T = np.zeros((G, k + 1), dtype=np.intp)
        T[:, :k] = np.repeat(totals, F, axis=0)
        key = g * (k + 1) + self.labels[owner]
        zero = T - np.bincount(key, w, G * (k + 1)).astype(np.intp).reshape(G, k + 1)
        # L: the count of each entry's class left of it in its g, zero segment included,
        # a running sum per (g, class).
        by_class = np.argsort(_sort_keys(key, G * (k + 1)), kind="stable")
        before = np.cumsum(w[by_class]) - w[by_class]
        group = _run_starts(key[by_class])
        before -= before[group.nonzero()[0]][np.cumsum(group) - 1]
        L = np.empty_like(before)
        L[by_class] = before
        L += zero.ravel()[key]
        # At each segment's end, over its g: the samples on the left, the sum of their squared
        # class counts, and that of their class counts times the totals. Sums of integers, so
        # they equal the sums over the class counts on each side exactly.
        def running(d):  # d summed over each g up to each segment's end (stand-ins add 0)
            c = np.cumsum(d)
            return c[last] - c[heads[seg_g]]

        nl = zero.sum(axis=1)[seg_g] + running(w)
        sq_left = (zero * zero).sum(axis=1)[seg_g] + running(w * (2 * L + w))
        dot = (zero * T).sum(axis=1)[seg_g] + running(w * T.ravel()[key])
        nr = totals.sum(axis=1)[seg_g // F] - nl
        sq_right = (T * T).sum(axis=1)[seg_g] - 2 * dot + sq_left  # sum of (T - left)**2
        # An empty zero segment puts no sample on the left, so it is never a boundary.
        min_leaf = self.cfg.min_samples_leaf
        boundary = (seg_g[1:] == seg_g[:-1]) & (nl[:-1] >= min_leaf) & (nr[:-1] >= min_leaf)
        boundary = boundary.nonzero()[0]
        if boundary.size == 0:
            none = np.zeros(0, np.intp)
            return none, none, np.zeros(0), none, none
        nl, nr = nl[boundary], nr[boundary]
        sq_left, sq_right = sq_left[boundary], sq_right[boundary]
        gini = lambda sq, n: 1.0 - sq / n**2
        impurity = (nl * gini(sq_left, nl) + nr * gini(sq_right, nr)) / (nl + nr)
        node = seg_g[boundary] // F
        starts = _run_starts(node)  # each node's first boundary
        least = np.minimum.reduceat(impurity, starts.nonzero()[0])
        hits = (impurity == least[np.cumsum(starts) - 1]).nonzero()[0]
        best = boundary[hits[_run_starts(node[hits])]]  # each node's first least
        lo, hi = value[first[best]], value[first[best + 1]]
        mid = (lo + hi) / 2.0
        thresholds = np.where(mid < hi, mid, lo)  # the midpoint may round up to hi if adjacent
        nodes, j = np.divmod(seg_g[best], F)
        features = np.array([search.candidates for search in step])[nodes, j]
        # A row goes right if it has an entry past the best boundary (in the best g's last
        # segments); the threshold is never negative, so a row without one goes left.
        above, ends = first[best + 1], np.append(heads[1:], len(g))[seg_g[best]]
        count = ends - above
        at = np.repeat(above - np.cumsum(count) + count, count) + np.arange(count.sum())
        cells = np.repeat(np.arange(len(nodes)) * n, count) + owner[at]
        self.copies[cells] = 1
        rows = [step[i].rows for i in nodes.tolist()]
        place = np.repeat(np.arange(len(nodes)), [len(r) for r in rows])
        rows = np.concatenate(rows)
        side = 2 * place + (self.copies[place * n + rows] == 0)
        self.copies[cells] = 0
        return nodes, features, thresholds, rows, side


def _fork_worker(grower: _TreeGrower, trees) -> tuple:
    """(pid, read end of its pipe) of a child that grows `trees` and sends back

    grow's arrays or the exception it raised. The child leaves by os._exit
    once its pipe is flushed, so no stdio buffer or exit handler of this
    process runs twice.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    arrays = grower.grow(trees)
                except BaseException as exc:  # the parent re-raises it
                    try:
                        error = pickle.dumps(exc)
                    except Exception:  # an exception that does not pickle
                        error = pickle.dumps(RuntimeError(repr(exc)))
                    pipe.write(error)
                else:
                    pickle.dump(arrays, pipe, protocol=5)  # arrays written without a copy
                    status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _grow_in_workers(grower: _TreeGrower, shares: list) -> list:
    """Each share's arrays: the first grown here, the others in forked

    workers. If anything fails, the workers not yet reaped are killed and
    reaped before the exception propagates.
    """
    workers = []  # (pid, pipe) of the workers not yet reaped
    try:
        for share in shares[1:]:
            workers.append(_fork_worker(grower, share))
        parts = [grower.grow(shares[0])]
        while workers:
            pid, pipe = workers[0]
            with pipe:
                try:
                    outcome = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # cut short: the worker died
                    outcome = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if isinstance(outcome, BaseException):
                raise outcome
            if outcome is None or code != 0:
                cause = f"signal {-code}" if code < 0 else f"exit code {code}"
                raise RuntimeError(f"random-forest worker {pid} ended with {cause}")
            parts.append(outcome)
        return parts
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def rf_fit_prefixes(dataset: LabeledDataset, sizes, cfg: RfConfig = RfConfig()) -> list[RfModel]:
    """One forest per size, all grown in one pass: forest i holds n_trees CART

    trees on bootstrap resamples of the first sizes[i] rows, tree t drawing
    from the RNG stream (seed, t), so it is the forest rf_fit grows on those
    rows. The result is seed-deterministic, and the same however many
    processes grow it: each process grows one contiguous share of every
    forest's trees, all in one lockstep, and the shares are joined in order.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit a random forest on an empty dataset")
    if not all(1 <= size <= len(dataset) for size in sizes):
        raise ValueError(f"forest sizes must lie in [1, {len(dataset)}], got {list(sizes)}")
    splits = np.array_split(np.arange(cfg.n_trees), _worker_count(cfg.n_trees, sum(sizes)))
    shares = [[(i, t) for i in range(len(sizes)) for t in split.tolist()] for split in splits]
    grower = _TreeGrower(dataset, dataset.labels, dataset.num_classes, cfg, sizes)
    parts = _grow_in_workers(grower, shares)
    del grower  # its columns and scratch, before the forests are joined
    models = []
    for _ in sizes:  # each share's arrays of the next forest, let go once joined
        arrays = map(np.concatenate, zip(*(part.pop(0) for part in parts)))
        models.append(RfModel(dataset.dimension, dataset.num_classes, *_renumber(*arrays)))
    return models


def rf_fit(dataset: LabeledDataset, cfg: RfConfig = RfConfig()) -> RfModel:
    """Grow n_trees CART trees on bootstrap resamples of every row: the one

    forest of rf_fit_prefixes.
    """
    return rf_fit_prefixes(dataset, [len(dataset)], cfg)[0]


# rf_predict_proba walks at most this many rows at once. A block's dense table
# holds rows x (its distinct columns + 1) floats, at most rows x (nnz + 1).
RF_BLOCK_ROWS = 256


def rf_predict_proba(model: RfModel, X: CsrMatrix) -> np.ndarray:
    """Mean leaf distribution over the trees, RF_BLOCK_ROWS rows at a time.

    A block's rows are copied into a dense table over the block's distinct
    columns, after a column 0 of zeros; column[f] is feature f's place in it,
    0 for a feature absent from the block and, at index -1, for a leaf. All
    (row, tree) walks of the block advance one level per step, each reading
    x[row, f] as table[row, column[f]].
    """
    _check_dimension(model, X)
    n, T, k = len(X), len(model.roots), model.num_classes
    out = np.empty((n, k))
    column = np.zeros(X.dimension + 1, dtype=np.intp)  # column[-1] stays 0
    for start in range(0, n, RF_BLOCK_ROWS):
        m = min(RF_BLOCK_ROWS, n - start)
        owner, entries = X.positions(np.arange(start, start + m))
        indices = X.indices[entries]
        present = np.sort(indices)  # then deduplicated (np.unique would import numpy.ma)
        present = present[np.diff(present, prepend=-1) > 0]
        column[present] = np.arange(1, len(present) + 1)
        table = np.zeros((m, len(present) + 1))
        table[owner, column[indices]] = X.data[entries]
        split_column = column[model.feature]
        column[present] = 0
        node = np.tile(model.roots, m)  # walk r * T + t: row r, tree t
        row = np.repeat(np.arange(m), T)
        live = np.flatnonzero(model.feature[node] >= 0)
        while live.size:
            at = node[live]
            x = table[row[live], split_column[at]]
            at = np.where(x <= model.threshold[at], model.left[at], model.right[at])
            node[live] = at
            live = live[model.feature[at] >= 0]
        counts = model.counts[node].reshape(m, T, k)
        leaf = counts / counts.sum(axis=2, keepdims=True)
        out[start : start + m] = sum(leaf[:, t] for t in range(T)) / T  # tree by tree, in order
    return out

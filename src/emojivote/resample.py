"""SMOTE oversampling: bring every class up to the majority-class count by
interpolating between a minority point and one of its k nearest same-class
neighbors (Euclidean distance over the count vectors).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .features import CsrMatrix, LabeledDataset, from_entries

# Columns of a class's dense k-NN table: its most frequent ones, whose dot
# products BLAS sums; the rest are summed pair by pair.
FREQUENT_COLUMNS = 64
# Distances per k-NN block (query rows x class rows): bounds each block's
# scratch arrays however large a class grows.
KNN_CELLS = 1 << 16


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ResamplePlan:
    original_counts: list[int]
    target: int
    synthetic_counts: list[int]

    @property
    def total(self) -> int:
        return self.target * len(self.original_counts)


def plan_resample(dataset: LabeledDataset) -> ResamplePlan:
    """Per-class synthesis quota so every class reaches the majority count."""
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes).tolist()
    for c, n in enumerate(counts):
        if n == 0:
            raise DataError(f"class {c} has no instances; cannot plan oversampling")
    target = max(counts)
    return ResamplePlan(
        original_counts=counts, target=target, synthetic_counts=[target - n for n in counts]
    )


def nearest_neighbors(points: CsrMatrix, k: int, first: int | None = None) -> np.ndarray:
    """The k-NN lists of the first `first` rows (default all) among all rows,

    one intp row each (k capped at n), by Euclidean distance, self excluded,
    ties to the lower row index. Squared distances are |a|^2 + |b|^2 - 2 a.b,
    for KNN_CELLS // n query rows (at least one) at a time. The dot products
    over the FREQUENT_COLUMNS most frequent columns are one BLAS product of
    dense tables; over the other columns they are summed over the (query
    entry, row entry) pairs that share a column, so only those nonzeros are
    read. Exact ties need integer counts, which every caller passes: then
    every product and partial sum is an exact float64, whatever order BLAS
    sums in, and the distances equal the sums of squared differences bit for bit.
    """
    n = len(points)
    k = min(k, n)  # past n - 1, a row's own index comes last
    # astype: bincount returns integers when there are no entries at all
    sq_norms = np.bincount(points.row_ids(), weights=points.data**2, minlength=n).astype(float)
    by_frequency = np.argsort(np.bincount(points.indices, minlength=points.dimension))
    frequent = by_frequency[max(0, points.dimension - FREQUENT_COLUMNS) :]
    columns = points.transpose()  # for each column, the rows holding it
    slot, pos = columns.positions(frequent)
    table = np.zeros((n, len(frequent)))
    table[columns.indices[pos], slot] = columns.data[pos]
    rest = np.ones(points.dimension, dtype=bool)  # the columns outside the table
    rest[frequent] = False
    queried = n if first is None else min(first, n)
    step = max(1, KNN_CELLS // n)
    out = np.empty((queried, k), dtype=np.intp)
    for start in range(0, queried, step):
        stop = min(start + step, queried)
        gram = table[start:stop] @ table.T
        owner, query = points.positions(np.arange(start, stop))  # the block's entries
        tail = rest[points.indices[query]]  # those outside the table
        owner, query = owner[tail], query[tail]
        entry, pos = columns.positions(points.indices[query])  # the pairs sharing a column
        cells = owner[entry] * n + columns.indices[pos]
        products = points.data[query][entry] * columns.data[pos]
        gram += np.bincount(cells, weights=products, minlength=gram.size).reshape(gram.shape)
        del owner, query, tail, entry, pos, cells, products  # else alive during the next block
        d2 = sq_norms[start:stop, None] + sq_norms - 2 * gram
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # Sort only entries at or below each row's k-th distance, stably: ties to the lower index.
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        row, col = np.nonzero(d2 <= kth)
        order = np.lexsort((d2[row, col], row))
        first_entry = np.searchsorted(row[order], np.arange(stop - start))
        out[start:stop] = col[order][first_entry[:, None] + np.arange(k)]
    return out


def _interpolate(
    points: CsrMatrix, parents: np.ndarray, neighbors: np.ndarray, gaps: np.ndarray
) -> CsrMatrix:
    """Row t is x + gaps[t] * (nn - x), x and nn the rows parents[t] and

    neighbors[t] of points, computed on the union of their nonzeros (it is
    exactly 0 elsewhere), with exact zeros dropped.
    """
    V, m = points.dimension, len(parents)
    owner, pos = points.positions(np.concatenate((parents, neighbors)))  # owner // m: which end
    union, slot = np.unique(owner % m * V + points.indices[pos], return_inverse=True)
    ends = np.zeros((2, len(union)))  # x and nn on the union
    ends[owner // m, slot] = points.data[pos]
    row, index = np.divmod(union, V)
    x, nn = ends
    values = x + gaps[row] * (nn - x)
    keep = values != 0
    return from_entries(row[keep], index[keep], values[keep], m, V)


def _bulk_draws(rng, k: int, quota: int) -> tuple[np.ndarray, np.ndarray] | None:
    """What `quota` rounds of `rng.integers(k)` then `rng.random()` return,

    as (picks, gaps), taken in bulk from the PCG64 words those calls read, or
    None if a call would have drawn again. `random()` reads a fresh word w and
    returns (w >> 11) * 2^-53. `integers(1)` reads nothing. For k >= 2,
    `integers(k)` reads 32 bits x, the low half of a fresh word and, on the
    next call, that word's high half, and returns (x k) >> 32 (Lemire's
    method); so two rounds read three words. It draws again when
    (x k) mod 2^32 < (2^32 - k) mod k, with probability below k / 2^32.
    """
    if k == 1:
        gaps = (rng.bit_generator.random_raw(quota) >> 11) * 2.0**-53
        return np.zeros(quota, dtype=np.intp), gaps
    # rows 2j and 2j + 1 read words 3j (halves), 3j + 1 and 3j + 2 (gaps); an odd quota one spare
    words = rng.bit_generator.random_raw(3 * ((quota + 1) // 2)).reshape(-1, 3)
    halves = np.stack([words[:, 0] & 0xFFFFFFFF, words[:, 0] >> 32], axis=1).ravel()[:quota]
    scaled = halves * np.uint64(k)
    if np.any((scaled & 0xFFFFFFFF) < (2**32 - k) % k):
        return None
    return (scaled >> 32).astype(np.intp), (words[:, 1:].ravel()[:quota] >> 11) * 2.0**-53


def _draws(seed: list[int], k: int, quota: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor picks and gaps of `quota` rounds of `rng.integers(k)` then

    `rng.random()`, for rng = np.random.default_rng(seed).
    """
    bulk = _bulk_draws(np.random.default_rng(seed), k, quota)
    if bulk is not None:
        return bulk
    rng = np.random.default_rng(seed)  # a draw was rejected: make the calls one by one
    picks, gaps = np.empty(quota, dtype=np.intp), np.empty(quota)
    for s in range(quota):
        picks[s], gaps[s] = rng.integers(k), rng.random()
    return picks, gaps


def smote(dataset: LabeledDataset, cfg: SmoteConfig = SmoteConfig()) -> LabeledDataset:
    """Original rows verbatim, followed by synthetic rows grouped by class.

    Synthetic row: s = x + g * (nn - x) with g uniform on [0, 1); parents are
    cycled through in dataset order, the neighbor is drawn uniformly from the
    parent's k-NN list (k capped at class size - 1). A singleton class is
    oversampled by duplication. Deterministic given the seed: each class uses
    an RNG stream derived from (seed, class index), drawing the neighbor and
    then g for one synthetic row after another.
    """
    plan = plan_resample(dataset)
    parts, labels = [dataset], [dataset.labels]
    for c in range(dataset.num_classes):
        quota = plan.synthetic_counts[c]
        if quota == 0:
            continue
        members = np.flatnonzero(dataset.labels == c)
        n_c = len(members)
        labels.append(np.full(quota, c, dtype=np.intp))
        if n_c == 1:
            parts.append(dataset.take(np.repeat(members, quota)))
            continue
        points = dataset.take(members)
        k = min(cfg.k_neighbors, n_c - 1)
        knn = nearest_neighbors(points, k, min(quota, n_c))
        parents = np.arange(quota) % n_c
        picks, gaps = _draws([cfg.seed, c], k, quota)
        parts.append(_interpolate(points, parents, knn[parents, picks], gaps))
    indptr = np.zeros(sum(map(len, parts)) + 1, dtype=np.intp)
    np.cumsum(np.concatenate([np.diff(p.indptr) for p in parts]), out=indptr[1:])
    indices = np.concatenate([p.indices for p in parts])
    data = np.concatenate([p.data for p in parts])
    return LabeledDataset(
        indptr, indices, data, dataset.dimension, np.concatenate(labels), dataset.num_classes
    )

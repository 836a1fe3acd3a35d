"""SMOTE oversampling: bring every class up to the majority-class count by
interpolating between a minority point and one of its k nearest same-class
neighbors (Euclidean distance over the count vectors).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .features import CsrMatrix, LabeledDataset

# Columns of a class's dense k-NN table: its most frequent ones, whose dot
# products BLAS sums; the rest are summed pair by pair.
FREQUENT_COLUMNS = 64
# Distances per k-NN block (query rows x class rows): bounds each block's
# scratch arrays however large a class grows.
KNN_CELLS = 1 << 16
# Synthetic rows interpolated at a time as smote fills its output: bounds the
# fill's scratch however many rows one class adds.
FILL_ROWS = 256


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
    kth_rows = max(1, step // 8)
    out = np.empty((queried, k), dtype=np.intp)
    for start in range(0, queried, step):
        stop = min(start + step, queried)
        d2 = table[start:stop] @ table.T  # the dot products, made squared distances in place
        owner, query = points.positions(np.arange(start, stop))  # the block's entries
        tail = rest[points.indices[query]]  # those outside the table
        owner, query = owner[tail], query[tail]
        entry, pos = columns.positions(points.indices[query])  # the pairs sharing a column
        cells, products = owner[entry], points.data[query[entry]]  # then updated in place
        cells *= n
        cells += columns.indices[pos]
        products *= columns.data[pos]
        del owner, query, tail, entry, pos
        d2 += np.bincount(cells, weights=products, minlength=d2.size).reshape(d2.shape)
        del cells, products  # else alive during the next block
        d2 *= -2
        d2 += sq_norms[start:stop, None]
        d2 += sq_norms
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # Each row's k-th distance, from copies of kth_rows rows at a time, not of the block.
        kth = np.empty((stop - start, 1))
        for i in range(0, stop - start, kth_rows):
            kth[i : i + kth_rows, 0] = np.partition(d2[i : i + kth_rows], k - 1, axis=1)[:, k - 1]
        # Sort only entries at or below each row's k-th distance, stably: ties to the lower index.
        row, col = np.nonzero(d2 <= kth)
        order = np.lexsort((d2[row, col], row))
        first_entry = np.searchsorted(row[order], np.arange(stop - start))
        out[start:stop] = col[order][first_entry[:, None] + np.arange(k)]
    return out


def _keys(points: CsrMatrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of rows[0], rows[1], ... of points as sorted row-major keys

    t * V + column, t the row's place in `rows`, and their positions.
    """
    owner, pos = points.positions(rows)
    return owner * points.dimension + points.indices[pos], pos


def _interpolated(
    points: CsrMatrix, parents: np.ndarray, neighbors: np.ndarray, gaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, column, value) of the entries of every row t = x + gaps[t] * (nn - x),

    x and nn the rows parents[t] and neighbors[t] of points, sorted by t, then
    column. It is computed on the union of x's and nn's columns (it is exactly
    0 elsewhere), and exact zeros are dropped. The union merges the neighbor
    entries' sorted row-major keys into the parent entries' by binary search,
    not by a sort.
    """
    (parent_keys, parent_pos), (neighbor_keys, neighbor_pos) = (
        _keys(points, parents), _keys(points, neighbors)
    )
    slot = np.searchsorted(parent_keys, neighbor_keys)  # the parent keys below each, for now
    only = np.ones(len(neighbor_keys), dtype=bool)  # neighbor keys no parent key equals
    if len(parent_keys):  # a key past the last parent key clips to it, which is below it
        only = parent_keys.take(slot, mode="clip") != neighbor_keys
    # A neighbor entry's slot in the union: the parent keys below it plus the
    # neighbor-only keys before it. The parent entries fill the other slots, in order.
    slot += np.cumsum(only)
    slot -= only
    from_parent = np.ones(len(parent_keys) + np.count_nonzero(only), dtype=bool)
    from_parent[slot[only]] = False
    union = np.empty(len(from_parent), dtype=np.intp)
    union[from_parent] = parent_keys
    union[slot] = neighbor_keys
    x, nn = np.zeros((2, len(union)))  # each 0 where its row lacks the column
    x[from_parent] = points.data[parent_pos]
    nn[slot] = points.data[neighbor_pos]
    # The merge's arrays, else alive while the block is interpolated.
    del parent_keys, parent_pos, neighbor_keys, neighbor_pos, only, slot, from_parent
    row, column = np.divmod(union, points.dimension)
    del union
    # x + gaps * (nn - x) in nn's place: the same products and sums, so the same rounding.
    nn -= x
    nn *= gaps[row]
    nn += x
    keep = nn != 0
    return row[keep], column[keep], nn[keep]


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

    Every class is planned first, as (parents, neighbors, gaps) in dataset
    rows; a duplicated row is (p, p, 0), as x + 0 * (x - x) is x. The output
    arrays are then allocated once, sized by a bound: a synthetic row holds
    at most its parent's entries plus its neighbor's. They are filled
    FILL_ROWS rows at a time.
    """
    plan = []  # (class, parents, neighbors, gaps)
    for c, quota in enumerate(plan_resample(dataset).synthetic_counts):
        if quota == 0:
            continue
        members = np.flatnonzero(dataset.labels == c)
        n_c = len(members)
        if n_c == 1:
            copies = np.repeat(members, quota)
            plan.append((c, copies, copies, np.zeros(quota)))
            continue
        points = dataset.take(members)
        k = min(cfg.k_neighbors, n_c - 1)
        knn = nearest_neighbors(points, k, min(quota, n_c))
        parents = np.arange(quota) % n_c
        picks, gaps = _draws([cfg.seed, c], k, quota)
        plan.append((c, members[parents], members[knn[parents, picks]], gaps))
    n, nnz, lengths = len(dataset), len(dataset.indices), np.diff(dataset.indptr)
    rows = n + sum(len(parents) for _, parents, _, _ in plan)
    entries = nnz + sum(lengths[p].sum() + lengths[nb].sum() for _, p, nb, _ in plan)
    indptr, labels = np.empty(rows + 1, dtype=np.intp), np.empty(rows, dtype=np.intp)
    indices, data = np.empty(entries, dtype=np.intp), np.empty(entries)
    indptr[: n + 1], labels[:n] = dataset.indptr, dataset.labels
    indices[:nnz], data[:nnz] = dataset.indices, dataset.data
    row, end = n, nnz
    for c, parents, neighbors, gaps in plan:
        labels[row : row + len(parents)] = c
        for start in range(0, len(parents), FILL_ROWS):
            block = [a[start : start + FILL_ROWS] for a in (parents, neighbors, gaps)]
            owner, column, value = _interpolated(dataset, *block)
            m, stop = len(block[0]), end + len(column)
            indptr[row + 1 : row + m + 1] = np.bincount(owner, minlength=m)  # row lengths for now
            indices[end:stop], data[end:stop] = column, value
            row, end = row + m, stop
            del owner, column, value  # else alive while the next block is interpolated
    np.cumsum(indptr[n:], out=indptr[n:])
    # The bound counts a column both rows hold twice, and dropped exact zeros
    # take no entry. The tail is never written; a trimmed copy would double the peak.
    return LabeledDataset(
        indptr, indices[:end], data[:end], dataset.dimension, labels, dataset.num_classes
    )

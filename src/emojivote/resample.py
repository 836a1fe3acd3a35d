"""SMOTE oversampling: bring every class up to the majority-class count by
interpolating between a minority point and one of its k nearest same-class
neighbors (Euclidean distance over the count vectors).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .features import CsrMatrix, LabeledDataset, SparseCountVector

# Rows per k-NN block: each block's scratch arrays hold KNN_BLOCK x class
# size distances, so memory stays bounded however large a class grows.
KNN_BLOCK = 64


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


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
    counts = [0] * dataset.num_classes
    for lab in dataset.labels:
        counts[lab] += 1
    for c, n in enumerate(counts):
        if n == 0:
            raise DataError(f"class {c} has no instances; cannot plan oversampling")
    target = max(counts)
    return ResamplePlan(
        original_counts=counts, target=target, synthetic_counts=[target - n for n in counts]
    )


def nearest_neighbors(points: CsrMatrix, k: int) -> list[list[int]]:
    """All-pairs k-NN by Euclidean distance, self excluded, ties broken by

    lower row index. Squared distances are |a|^2 + |b|^2 - 2 a.b, taken
    KNN_BLOCK rows at a time; the block's dot products are summed over the
    (block entry, class entry) pairs that share a feature, so only nonzeros
    are read. On integer counts every term is an exact float64, so the
    distances equal the sums of squared differences bit for bit.
    """
    n = len(points)
    k = min(k, n)  # past n - 1, a row's own index comes last
    rows = points.row_ids()
    # astype: bincount returns integers when there are no entries at all
    sq_norms = np.bincount(rows, weights=points.data**2, minlength=n).astype(float)
    # The class's columns: for each feature, the rows holding it, in row order.
    by_feature = np.argsort(points.indices, kind="stable")
    col_ptr = np.zeros(points.dimension + 1, dtype=np.intp)
    np.cumsum(np.bincount(points.indices, minlength=points.dimension), out=col_ptr[1:])
    columns = CsrMatrix(col_ptr, rows[by_feature], points.data[by_feature], n)
    out = []
    for start in range(0, n, KNN_BLOCK):
        stop = min(start + KNN_BLOCK, n)
        lo, hi = points.indptr[start], points.indptr[stop]
        pairs = columns.take(points.indices[lo:hi])
        entry = pairs.row_ids()
        cells = (rows[lo:hi][entry] - start) * n + pairs.indices
        products = points.data[lo:hi][entry] * pairs.data
        gram = np.bincount(cells, weights=products, minlength=(stop - start) * n)
        del pairs, entry, cells, products  # else alive while the next block builds its own
        d2 = sq_norms[start:stop, None] + sq_norms - 2 * gram.reshape(stop - start, n)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # Sort only entries at or below each row's k-th distance, stably: ties to the lower index.
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        row, col = np.nonzero(d2 <= kth)
        order = np.lexsort((d2[row, col], row))
        first = np.searchsorted(row[order], np.arange(stop - start))
        out.extend(col[order][first[:, None] + np.arange(k)].tolist())
    return out


def _interpolate(
    points: CsrMatrix, parents: np.ndarray, neighbors: np.ndarray, gaps: np.ndarray
) -> list[SparseCountVector]:
    """Row t is x + gaps[t] * (nn - x), x and nn the rows parents[t] and

    neighbors[t] of points, computed on the union of their nonzeros (it is
    exactly 0 elsewhere), with exact zeros dropped.
    """
    V = points.dimension
    ends = [points.take(parents), points.take(neighbors)]
    keys = [m.row_ids() * V + m.indices for m in ends]
    union, slot = np.unique(np.concatenate(keys), return_inverse=True)
    x, nn = np.zeros(len(union)), np.zeros(len(union))
    x[slot[: len(keys[0])]] = ends[0].data
    nn[slot[len(keys[0]) :]] = ends[1].data
    row, index = np.divmod(union, V)
    values = x + gaps[row] * (nn - x)
    keep = values != 0
    bounds = np.searchsorted(row[keep], np.arange(len(parents) + 1)).tolist()
    index, values = index[keep].tolist(), values[keep].tolist()
    return [
        SparseCountVector(tuple(zip(index[a:b], values[a:b])), V)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


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
    rows = list(dataset.rows)
    labels = list(dataset.labels)
    for c in range(dataset.num_classes):
        quota = plan.synthetic_counts[c]
        if quota == 0:
            continue
        member_idx = [i for i, lab in enumerate(dataset.labels) if lab == c]
        n_c = len(member_idx)
        rng = np.random.default_rng([cfg.seed, c])
        if n_c == 1:
            rows.extend([dataset.rows[member_idx[0]]] * quota)
            labels.extend([c] * quota)
            continue
        points = CsrMatrix.from_rows([dataset.rows[i] for i in member_idx], dataset.dimension)
        knn = nearest_neighbors(points, min(cfg.k_neighbors, n_c - 1))
        neighbors = np.empty(quota, dtype=np.intp)
        gaps = np.empty(quota)
        for s in range(quota):
            candidates = knn[s % n_c]
            neighbors[s] = candidates[rng.integers(len(candidates))]
            gaps[s] = rng.random()
        rows.extend(_interpolate(points, np.arange(quota) % n_c, neighbors, gaps))
        labels.extend([c] * quota)
    return LabeledDataset(
        rows=rows, labels=labels, num_classes=dataset.num_classes, dimension=dataset.dimension
    )

"""The dense SMOTE that `resample.smote` replaced, kept as the reference its
output must equal bit for bit on integer counts.

It stacks each class into a dense (class size x V) matrix, finds neighbors
with one pass over that matrix per row, and converts every synthetic row back
from dense, so it only suits small data.
"""

import numpy as np

from emojivote.features import LabeledDataset
from emojivote.resample import SmoteConfig, plan_resample

from helpers import dataset_from_dense, dataset_to_dense


def nearest_neighbors(points: np.ndarray, k: int) -> list[list[int]]:
    """All-pairs k-NN by Euclidean distance, self excluded, ties broken by

    lower row index. Brute force; class sizes here are small enough.
    """
    n = len(points)
    out = []
    for i in range(n):
        d2 = ((points - points[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        order = np.argsort(d2, kind="stable")  # stable keeps lower index first on ties
        out.append([int(j) for j in order[:k]])
    return out


def smote(dataset: LabeledDataset, cfg: SmoteConfig = SmoteConfig()) -> LabeledDataset:
    """Original rows verbatim, followed by synthetic rows grouped by class.

    Synthetic row: s = x + g * (nn - x) with g uniform on [0, 1]; parents are
    cycled through in dataset order, the neighbor is drawn uniformly from the
    parent's k-NN list (k capped at class size - 1). A singleton class is
    oversampled by duplication. Deterministic given the seed: each class uses
    an RNG stream derived from (seed, class index).
    """
    plan = plan_resample(dataset)
    dense, labels = dataset_to_dense(dataset)
    rows = list(dense)
    labels = list(labels)
    for c in range(dataset.num_classes):
        quota = plan.synthetic_counts[c]
        if quota == 0:
            continue
        member_idx = [i for i, lab in enumerate(dataset.labels) if lab == c]
        n_c = len(member_idx)
        rng = np.random.default_rng([cfg.seed, c])
        if n_c == 1:
            rows.extend([dense[member_idx[0]]] * quota)
            labels.extend([c] * quota)
            continue
        points = np.stack([dense[i] for i in member_idx])
        knn = nearest_neighbors(points, min(cfg.k_neighbors, n_c - 1))
        for s in range(quota):
            parent = s % n_c
            neighbor = knn[parent][rng.integers(len(knn[parent]))]
            g = rng.random()
            synth = points[parent] + g * (points[neighbor] - points[parent])
            rows.append(synth)
            labels.append(c)
    X = np.reshape(rows, (len(rows), dataset.dimension))
    return dataset_from_dense(X, labels, dataset.num_classes)

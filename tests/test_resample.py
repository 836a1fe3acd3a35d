from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emojivote.exceptions import DataError
from emojivote.features import LabeledDataset, SparseCountVector
from emojivote.resample import (
    KNN_BLOCK,
    ResamplePlan,
    SmoteConfig,
    _interpolate,
    nearest_neighbors,
    plan_resample,
    smote,
)

from helpers import csr_from_dense, dataset_from_dense
from smote_oracle import nearest_neighbors as oracle_nearest_neighbors
from smote_oracle import smote as oracle_smote


def skewed_dataset(seed=0, counts=(12, 5, 2), V=4):
    rng = np.random.default_rng(seed)
    labels = [c for c, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(labels)
    X = rng.poisson(2.0, size=(len(labels), V)).astype(float)
    return dataset_from_dense(X, labels, len(counts))


class TestPlan:
    def test_spanish_shaped_arithmetic(self):
        plan = ResamplePlan(
            original_counts=[19675] + [1] * 18, target=19675, synthetic_counts=[0] + [19674] * 18
        )
        assert plan.total == 373825

    def test_english_shaped_arithmetic(self):
        plan = ResamplePlan(
            original_counts=[106509] + [1] * 19, target=106509, synthetic_counts=[0] + [106508] * 19
        )
        assert plan.total == 2130180

    def test_plan_from_dataset(self):
        d = skewed_dataset()
        plan = plan_resample(d)
        assert plan.original_counts == [12, 5, 2]
        assert plan.target == 12
        assert plan.synthetic_counts == [0, 7, 10]
        assert plan.total == 36

    def test_balanced_noop(self):
        d = skewed_dataset(counts=(4, 4))
        plan = plan_resample(d)
        assert plan.synthetic_counts == [0, 0]

    def test_empty_class_rejected(self):
        d = dataset_from_dense(np.ones((2, 2)), [0, 0], 2)
        with pytest.raises(DataError, match="class 1"):
            plan_resample(d)


class TestNearestNeighbors:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            n = int(rng.integers(2, 50))
            pts = rng.integers(0, 3, size=(n, 3)).astype(float)
            k = int(rng.integers(1, n))
            got = nearest_neighbors(csr_from_dense(pts), k)
            for i in range(n):
                dists = sorted(
                    (float(((pts[j] - pts[i]) ** 2).sum()), j) for j in range(n) if j != i
                )
                assert got[i] == [j for _, j in dists[:k]]

    def test_self_excluded(self):
        pts = np.zeros((3, 2))
        for lst in nearest_neighbors(csr_from_dense(pts), 2):
            assert len(lst) == 2
        assert 0 not in nearest_neighbors(csr_from_dense(pts), 2)[0]


class TestSmote:
    def test_interpolation_on_segment(self):
        d = dataset_from_dense(
            np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            [0, 0, 1, 1, 1],
            2,
        )
        out = smote(d, SmoteConfig(k_neighbors=1, seed=0))
        synth = out.rows[len(d.rows):]
        assert out.labels[len(d.rows):] == [0]
        (s,) = synth
        dense = s.to_dense()
        assert dense[0] == pytest.approx(dense[1])  # on the segment (t, t)
        assert 0.0 <= dense[0] <= 2.0

    def test_balanced_input_unchanged(self):
        d = skewed_dataset(counts=(3, 3))
        out = smote(d, SmoteConfig(seed=0))
        assert out == d

    def test_exact_balance(self):
        for seed in range(3):
            d = skewed_dataset(seed=seed, counts=(15, 6, 3, 1))
            out = smote(d, SmoteConfig(seed=seed))
            assert Counter(out.labels) == {c: 15 for c in range(4)}

    def test_originals_preserved_as_prefix(self):
        d = skewed_dataset()
        out = smote(d, SmoteConfig(seed=1))
        assert out.rows[: len(d)] == d.rows
        assert out.labels[: len(d)] == d.labels

    def test_convexity_and_nonnegativity(self):
        d = skewed_dataset(seed=2, counts=(10, 4, 2))
        out = smote(d, SmoteConfig(seed=2))
        originals = {c: [r.to_dense() for r, l in zip(d.rows, d.labels) if l == c] for c in range(3)}
        for row, lab in zip(out.rows[len(d):], out.labels[len(d):]):
            dense = row.to_dense()
            assert np.all(dense >= 0)
            lo = np.min(originals[lab], axis=0)
            hi = np.max(originals[lab], axis=0)
            assert np.all(dense >= lo - 1e-12)
            assert np.all(dense <= hi + 1e-12)

    def test_determinism(self):
        d = skewed_dataset(seed=5)
        assert smote(d, SmoteConfig(seed=9)) == smote(d, SmoteConfig(seed=9))

    def test_singleton_class_duplicated(self):
        d = dataset_from_dense(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 3.0]]), [0, 0, 1], 2)
        out = smote(d, SmoteConfig(seed=0))
        assert out.rows[3] == d.rows[2]
        assert out.labels == [0, 0, 1, 1]

    def test_k_capped_at_class_size_minus_one(self):
        d = dataset_from_dense(
            np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [10.0]]), [0, 0, 0, 0, 0, 1], 2
        )
        out = smote(d, SmoteConfig(k_neighbors=50, seed=0))  # class 1 has 1 member
        assert Counter(out.labels) == {0: 5, 1: 5}


@st.composite
def count_datasets(draw):
    """A small integer-count dataset (empty and duplicate rows, singleton and

    sometimes equal-sized classes) and a SMOTE config whose k may reach past
    the class sizes.
    """
    V = draw(st.integers(1, 5))
    counts = st.dictionaries(st.integers(0, V - 1), st.integers(1, 3))
    base = draw(st.lists(counts, min_size=1, max_size=25))
    rows = base + [base[i] for i in draw(st.lists(st.integers(0, len(base) - 1), max_size=8))]
    drawn = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    classes = sorted(set(drawn))
    dataset = LabeledDataset(
        rows=[SparseCountVector(tuple((i, float(c)) for i, c in sorted(r.items())), V) for r in rows],
        labels=[classes.index(lab) for lab in drawn], num_classes=len(classes), dimension=V,
    )
    return dataset, SmoteConfig(k_neighbors=draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**16)))


class TestOracle:
    """smote and nearest_neighbors equal the dense versions they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(case=count_datasets())
    def test_small_datasets(self, case):
        dataset, cfg = case
        assert smote(dataset, cfg) == oracle_smote(dataset, cfg)

    @pytest.mark.parametrize("counts, k", [
        ((4, 4, 4), 5),  # already balanced
        ((9, 1, 1), 5),  # singleton classes
        ((12, 3, 2), 7),  # k at least the class size
        ((3 * KNN_BLOCK, 2 * KNN_BLOCK + 7, 5), 5),  # a class larger than two k-NN blocks
    ])
    def test_edge_cases(self, counts, k):
        rng = np.random.default_rng(len(counts) + k)
        labels = [c for c, n in enumerate(counts) for _ in range(n)]
        rng.shuffle(labels)
        X = rng.poisson(0.6, size=(len(labels), 6)).astype(float)
        d = dataset_from_dense(X, labels, len(counts))
        cfg = SmoteConfig(k_neighbors=k, seed=3)
        assert smote(d, cfg) == oracle_smote(d, cfg)

    def test_interpolate_drops_exact_zeros(self):
        # g = 0 zeroes the neighbor-only feature 1 (0 + 0 * (2 - 0))
        points = csr_from_dense([[1.0, 0.0], [0.0, 2.0]])
        (row,) = _interpolate(points, np.array([0]), np.array([1]), np.array([0.0]))
        assert row == SparseCountVector(((0, 1.0),), 2)

    def test_nearest_neighbors_tie_heavy_blocks(self):
        rng = np.random.default_rng(12)
        pts = rng.integers(0, 2, size=(3 * KNN_BLOCK + 5, 3)).astype(float)
        for k in (1, 4, len(pts) - 1, len(pts) + 2):
            assert nearest_neighbors(csr_from_dense(pts), k) == oracle_nearest_neighbors(pts, k)

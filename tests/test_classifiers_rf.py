import numpy as np
import pytest

from emojivote.classifiers import RfConfig, RfModel, TreeNode, rf_fit, rf_predict_proba
from emojivote.features import SparseCountVector

from helpers import dataset_from_dense


def make_consistent_dataset(seed=0, n=40, V=6):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, V)).astype(float)
    y = [int(x[0] + x[1] > x[2]) for x in X]
    # drop conflicting duplicates so a full tree can fit exactly
    seen = {}
    keep = []
    for i, x in enumerate(X):
        key = tuple(x)
        if key not in seen:
            seen[key] = y[i]
            keep.append(i)
        elif seen[key] == y[i]:
            keep.append(i)
    X = X[keep]
    y = [y[i] for i in keep]
    return dataset_from_dense(X, y, 2)


class TestFit:
    def test_full_tree_fits_consistent_data(self):
        d = make_consistent_dataset()
        m = rf_fit(d, RfConfig(n_trees=1, bootstrap=False, max_features=d.dimension))
        preds = [int(np.argmax(rf_predict_proba(m, r))) for r in d.rows]
        assert preds == d.labels

    def test_seed_determinism(self):
        d = make_consistent_dataset(seed=3)
        m1 = rf_fit(d, RfConfig(n_trees=5, seed=42))
        m2 = rf_fit(d, RfConfig(n_trees=5, seed=42))
        for r in d.rows:
            assert np.array_equal(rf_predict_proba(m1, r), rf_predict_proba(m2, r))

    def test_different_seeds_smoke(self):
        # not asserted as inequality, just that both train fine
        d = make_consistent_dataset(seed=4)
        for seed in (0, 1):
            m = rf_fit(d, RfConfig(n_trees=3, seed=seed))
            assert len(m.roots) == 3

    def test_pure_training_set(self):
        d = dataset_from_dense(np.arange(12.0).reshape(6, 2), [1] * 6, 3)
        m = rf_fit(d, RfConfig(n_trees=4, seed=0))
        probs = rf_predict_proba(m, d.rows[0])
        assert probs == pytest.approx([0.0, 1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rf_fit(dataset_from_dense(np.zeros((0, 2)), [], 2))

    def test_min_samples_leaf(self):
        d = make_consistent_dataset(seed=5)
        m = rf_fit(d, RfConfig(n_trees=2, min_samples_leaf=4, seed=0, bootstrap=False))
        leaves = m.feature == -1
        assert np.all(m.counts[leaves].sum(axis=1) >= 4)


class TestPredict:
    def test_two_tree_average(self):
        leaf_a = TreeNode(counts=np.array([3.0, 0.0]))
        leaf_b = TreeNode(counts=np.array([0.0, 5.0]))
        m = RfModel(trees=[leaf_a, leaf_b], dimension=2, num_classes=2)
        probs = rf_predict_proba(m, SparseCountVector((), 2))
        assert probs == pytest.approx([0.5, 0.5])

    def test_single_tree_identity(self):
        leaf = TreeNode(counts=np.array([1.0, 3.0]))
        m = RfModel(trees=[leaf], dimension=2, num_classes=2)
        assert rf_predict_proba(m, SparseCountVector((), 2)) == pytest.approx([0.25, 0.75])

    def test_unanimous_pure_trees(self):
        trees = [TreeNode(counts=np.array([0.0, 0.0, 0.0, 2.0])) for _ in range(20)]
        m = RfModel(trees=trees, dimension=1, num_classes=4)
        assert rf_predict_proba(m, SparseCountVector((), 1)) == pytest.approx([0, 0, 0, 1.0])

    def test_routing(self):
        tree = TreeNode(
            feature=0,
            threshold=1.5,
            left=TreeNode(counts=np.array([1.0, 0.0])),
            right=TreeNode(counts=np.array([0.0, 1.0])),
        )
        m = RfModel(trees=[tree], dimension=1, num_classes=2)
        low = rf_predict_proba(m, SparseCountVector(((0, 1.0),), 1))
        high = rf_predict_proba(m, SparseCountVector(((0, 2.0),), 1))
        assert low == pytest.approx([1.0, 0.0])
        assert high == pytest.approx([0.0, 1.0])

    def test_dimension_mismatch(self):
        m = RfModel(trees=[TreeNode(counts=np.array([1.0]))], dimension=2, num_classes=1)
        with pytest.raises(ValueError):
            rf_predict_proba(m, SparseCountVector((), 5))

    def test_output_is_distribution(self):
        d = make_consistent_dataset(seed=7)
        m = rf_fit(d, RfConfig(n_trees=6, seed=1))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = SparseCountVector.from_dense(rng.integers(0, 4, d.dimension).astype(float))
            probs = rf_predict_proba(m, x)
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

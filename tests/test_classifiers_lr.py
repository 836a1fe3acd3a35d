import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lr_oracle
from emojivote.classifiers import (
    LrConfig,
    lr_fit,
    lr_gradient,
    lr_objective,
    lr_predict_proba,
)
from emojivote.features import CsrMatrix, LabeledDataset, SparseCountVector
from emojivote.resample import SmoteConfig, smote

from helpers import dataset_from_dense, dataset_to_dense


def central_difference_gradient(w, b, X, y01, lam, h=1e-5):
    gw = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        gw[i] = (lr_objective(wp, b, X, y01, lam) - lr_objective(wm, b, X, y01, lam)) / (2 * h)
    gb = (lr_objective(w, b + h, X, y01, lam) - lr_objective(w, b - h, X, y01, lam)) / (2 * h)
    return gw, gb


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(20, 10))
        y01 = (rng.random(20) < 0.5).astype(float)
        lam = 0.3
        for _ in range(10):
            w = rng.normal(size=10)
            b = float(rng.normal())
            gw, gb = lr_gradient(w, b, X, y01, lam)
            fw, fb = central_difference_gradient(w, b, X, y01, lam)
            denom = max(np.linalg.norm(np.append(fw, fb)), 1e-12)
            rel = np.linalg.norm(np.append(gw - fw, gb - fb)) / denom
            assert rel < 1e-4


class TestFit:
    def test_separable_1d(self):
        d = dataset_from_dense(np.array([[1.0], [0.0]]), [1, 0], 2)
        m = lr_fit(d, LrConfig(l2_strength=1.0))
        p_pos = lr_predict_proba(m, SparseCountVector(((0, 1.0),), 1))
        p_neg = lr_predict_proba(m, SparseCountVector((), 1))
        assert p_pos[1] > 0.5
        assert p_neg[0] > 0.5

    def test_monotone_progress(self):
        rng = np.random.default_rng(2)
        X = np.abs(rng.normal(size=(30, 5)))
        y = (X[:, 0] > X[:, 1]).astype(int)
        d = dataset_from_dense(X, [int(v) for v in y], 2)
        cfg = LrConfig(l2_strength=0.1)
        m = lr_fit(d, cfg)
        for c in range(2):
            y01 = (y == c).astype(float)
            at_zero = lr_objective(np.zeros(5), 0.0, X, y01, cfg.l2_strength)
            at_fit = lr_objective(m.weights[c], m.intercepts[c], X, y01, cfg.l2_strength)
            assert at_fit <= at_zero

    def test_huge_lambda_shrinks_weights(self):
        rng = np.random.default_rng(4)
        X = np.abs(rng.normal(size=(40, 3)))
        y = [0, 1] * 20
        m = lr_fit(dataset_from_dense(X, y, 2), LrConfig(l2_strength=1e6))
        assert np.linalg.norm(m.weights) < 1e-3

    def test_symmetric_data(self):
        # mirrored features: class 0 lives on feature 1, class 1 on feature 0
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        d = dataset_from_dense(X, [1, 0], 2)
        m = lr_fit(d, LrConfig(l2_strength=0.5))
        for row, lab in zip(d.rows, d.labels):
            assert lr_predict_proba(m, row)[lab] > 0.5
        midpoint = SparseCountVector(((0, 0.5), (1, 0.5)), 2)
        assert lr_predict_proba(m, midpoint) == pytest.approx([0.5, 0.5])

    def test_single_class_rejected(self):
        d = dataset_from_dense(np.ones((3, 2)), [0, 0, 0], 2)
        with pytest.raises(ValueError):
            lr_fit(d)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lr_fit(dataset_from_dense(np.zeros((0, 2)), [], 2))


class TestPredict:
    def test_ovr_normalization(self):
        rng = np.random.default_rng(9)
        X = np.abs(rng.normal(size=(30, 4)))
        labels = [int(v) for v in rng.integers(0, 3, 30)]
        if len(set(labels)) < 2:
            labels[0] = (labels[1] + 1) % 3
        m = lr_fit(dataset_from_dense(X, labels, 3), LrConfig(l2_strength=0.1))
        x = SparseCountVector.from_dense(np.abs(rng.normal(size=4)))
        probs = lr_predict_proba(m, x)
        # recompute: sigmoid scores normalized by their sum
        z = m.weights @ x.to_dense() + m.intercepts
        s = 1 / (1 + np.exp(-z))
        assert probs == pytest.approx(s / s.sum())
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        d = dataset_from_dense(np.array([[1.0], [0.0]]), [1, 0], 2)
        m = lr_fit(d)
        with pytest.raises(ValueError):
            lr_predict_proba(m, SparseCountVector((), 3))


def assert_matches_oracle(dataset, cfg):
    model, reference = lr_fit(dataset, cfg), lr_oracle.lr_fit(dataset, cfg)
    np.testing.assert_allclose(model.weights, reference.weights, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.intercepts, reference.intercepts, rtol=0, atol=1e-9)
    X = CsrMatrix.from_rows(dataset.rows, dataset.dimension)
    got, want = lr_predict_proba(model, X), lr_predict_proba(reference, X)
    # Classes tied within rounding in the reference have no decided label.
    top2 = np.sort(want, axis=1)[:, -2:]
    decided = top2[:, 1] - top2[:, 0] > 1e-9
    assert np.array_equal(got.argmax(axis=1)[decided], want.argmax(axis=1)[decided])
    return model


@st.composite
def lr_cases(draw):
    """A small dataset (integer or fractional counts, empty and duplicate rows,

    maybe a declared class with no rows, maybe SMOTE-resampled) and a config
    whose tolerance and iteration cap let classes stop at different times.
    """
    V = draw(st.integers(1, 6))
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        count = st.sampled_from([1.0, 2.0, 3.0])
    else:
        count = st.sampled_from([0.5, 1.0, 1.75]) | st.integers(1, 400).map(lambda i: i / 97)
    base = draw(st.lists(st.dictionaries(st.integers(0, V - 1), count), min_size=2, max_size=25))
    rows = base + [base[i] for i in draw(st.lists(st.integers(0, len(base) - 1), max_size=5))]
    top = k - 1 - draw(st.booleans())  # maybe leave class k - 1 without rows
    labels = draw(st.lists(st.integers(0, top), min_size=len(rows), max_size=len(rows)))
    labels[:2] = [0, 1]  # at least two distinct labels
    dataset = LabeledDataset(
        rows=[SparseCountVector(tuple(sorted(r.items())), V) for r in rows],
        labels=labels, num_classes=k, dimension=V,
    )
    if len(set(labels)) == k and draw(st.booleans()):
        dataset = smote(dataset, SmoteConfig(k_neighbors=2, seed=draw(st.integers(0, 99))))
    cfg = LrConfig(
        l2_strength=draw(st.sampled_from([0.0, 0.01, 1.0])),
        max_iters=draw(st.sampled_from([1, 2, 7, 60])),
        tolerance=draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.2])),
    )
    return dataset, cfg


class TestOracle:
    """lr_fit solves every class at once, as the class-by-class loop it replaced did."""

    @settings(max_examples=200, deadline=None)
    @given(case=lr_cases())
    def test_small_datasets(self, case):
        assert_matches_oracle(*case)

    def test_classes_stop_at_different_iterations(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.poisson(1.0, size=(40, 5)).astype(float)
        labels = [int(c) for c in rng.integers(0, 4, 40)]
        d = dataset_from_dense(X, labels, 4)
        cfg = LrConfig(l2_strength=0.1, tolerance=0.02)
        calls = []
        gradient = lr_oracle.lr_gradient
        monkeypatch.setattr(lr_oracle, "lr_gradient", lambda *a: calls.append(1) or gradient(*a))
        iterations = []
        Xd, y = dataset_to_dense(d)
        for c in range(4):
            calls.clear()
            lr_oracle._fit_binary(Xd, (y == c).astype(float), cfg)
            iterations.append(len(calls))
        assert len(set(iterations)) > 1 and max(iterations) < cfg.max_iters
        assert_matches_oracle(d, cfg)

    def test_stalled_line_search(self):
        # The huge feature makes every step above 1e-16 overshoot for classes 0
        # and 1, which stop at zero; class 2 never meets it and keeps descending.
        X = np.array([[1e9, 0], [1e9, 1], [1e9, 0], [0, 1], [0, 2], [0, 1.0]])
        d = dataset_from_dense(X, [0, 0, 1, 2, 2, 1], 3)
        for l2 in (0.0, 1.0):
            m = assert_matches_oracle(d, LrConfig(l2_strength=l2))
            assert not m.weights[:2].any() and not m.intercepts[:2].any()
            assert m.weights[2].any()

    def test_single_iteration(self):
        rng = np.random.default_rng(8)
        d = dataset_from_dense(rng.poisson(1.0, size=(30, 4)), [i % 3 for i in range(30)], 3)
        assert_matches_oracle(d, LrConfig(max_iters=1))

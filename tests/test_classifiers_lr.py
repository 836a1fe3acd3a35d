import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emojivote
import fit_oracle
import lr_oracle
from emojivote import classifiers
from emojivote.classifiers import (
    LrConfig,
    lr_fit,
    lr_gradient,
    lr_objective,
    lr_predict_proba,
)
from emojivote.resample import SmoteConfig, smote

from helpers import csr_from_dense, csr_from_rows, dataset_from_dense, dataset_to_dense, with_labels


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
        p_pos = lr_predict_proba(m, csr_from_rows([((0, 1.0),)], 1))[0]
        p_neg = lr_predict_proba(m, csr_from_rows([()], 1))[0]
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
        for probs, lab in zip(lr_predict_proba(m, d), d.labels):
            assert probs[lab] > 0.5
        midpoint = csr_from_rows([((0, 0.5), (1, 0.5))], 2)
        assert lr_predict_proba(m, midpoint)[0] == pytest.approx([0.5, 0.5])

    def test_single_class_rejected(self):
        d = dataset_from_dense(np.ones((3, 2)), [0, 0, 0], 2)
        with pytest.raises(ValueError):
            lr_fit(d)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lr_fit(dataset_from_dense(np.zeros((0, 2)), [], 2))

    def test_fit_does_not_import_numpy_ma(self):
        # numpy 2's np.unique imports numpy.ma on its first call, which costs
        # every `train` process the import.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from emojivote.classifiers import lr_fit\n"
            "from emojivote.features import LabeledDataset\n"
            "d = LabeledDataset(indptr=np.array([0, 1, 2]), indices=np.array([0, 1]),\n"
            "                   data=np.array([1.0, 2.0]), dimension=2,\n"
            "                   labels=np.array([0, 1]), num_classes=2)\n"
            "lr_fit(d)\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(emojivote.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestPredict:
    def test_ovr_normalization(self):
        rng = np.random.default_rng(9)
        X = np.abs(rng.normal(size=(30, 4)))
        labels = [int(v) for v in rng.integers(0, 3, 30)]
        if len(set(labels)) < 2:
            labels[0] = (labels[1] + 1) % 3
        m = lr_fit(dataset_from_dense(X, labels, 3), LrConfig(l2_strength=0.1))
        x = np.abs(rng.normal(size=4))
        probs = lr_predict_proba(m, csr_from_dense([x]))[0]
        # recompute: sigmoid scores normalized by their sum
        z = m.weights @ x + m.intercepts
        s = 1 / (1 + np.exp(-z))
        assert probs == pytest.approx(s / s.sum())
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        d = dataset_from_dense(np.array([[1.0], [0.0]]), [1, 0], 2)
        m = lr_fit(d)
        with pytest.raises(ValueError):
            lr_predict_proba(m, csr_from_rows([()], 3))


def assert_matches_oracle(dataset, cfg):
    model, reference = lr_fit(dataset, cfg), lr_oracle.lr_fit(dataset, cfg)
    np.testing.assert_allclose(model.weights, reference.weights, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.intercepts, reference.intercepts, rtol=0, atol=1e-9)
    got, want = lr_predict_proba(model, dataset), lr_predict_proba(reference, dataset)
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
    dataset = with_labels(csr_from_rows([sorted(r.items()) for r in rows], V), labels, k)
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

    def test_products_above_the_blas_threading_threshold(self):
        # m·n·k = 20·40·400 = 320,000 is above the 262,144 at which OpenBLAS's
        # dgemm goes multithreaded; every other case runs single-threaded. At
        # this tolerance some classes stop before max_iters and the rest are capped.
        rng = np.random.default_rng(11)
        X = rng.poisson(0.5, size=(400, 40)).astype(float)
        labels = [int(c) for c in rng.integers(0, 20, 400)]
        cfg = LrConfig(max_iters=60, tolerance=0.01)
        assert_matches_oracle(dataset_from_dense(X, labels, 20), cfg)

    def test_single_iteration(self):
        rng = np.random.default_rng(8)
        d = dataset_from_dense(rng.poisson(1.0, size=(30, 4)), [i % 3 for i in range(30)], 3)
        assert_matches_oracle(d, LrConfig(max_iters=1))


def assert_same_fit(dataset, cfg):
    model, reference = lr_fit(dataset, cfg), fit_oracle.lr_fit(dataset, cfg)
    assert np.array_equal(model.weights, reference.weights)
    assert np.array_equal(model.intercepts, reference.intercepts)


class TestSameAsCopyingLoop:
    """lr_fit, which reads whole blocks in place while every class is active,

    gives bit for bit the weights of the loop that copied them (fit_oracle.py).
    """

    @settings(max_examples=100, deadline=None)
    @given(case=lr_cases())
    def test_small_datasets(self, case):
        assert_same_fit(*case)

    def test_classes_stop_early(self):
        # As in TestOracle: some classes stop before max_iters, the rest are capped.
        rng = np.random.default_rng(11)
        X = rng.poisson(0.5, size=(400, 40)).astype(float)
        labels = [int(c) for c in rng.integers(0, 20, 400)]
        assert_same_fit(dataset_from_dense(X, labels, 20), LrConfig(max_iters=60, tolerance=0.01))

    @pytest.mark.parametrize("l2", [0.0, 1.0])
    def test_stalled_line_search(self, l2):
        X = np.array([[1e9, 0], [1e9, 1], [1e9, 0], [0, 1], [0, 2], [0, 1.0]])
        assert_same_fit(dataset_from_dense(X, [0, 0, 1, 2, 2, 1], 3), LrConfig(l2_strength=l2))


def test_two_products_per_iteration(monkeypatch):
    # Each iteration does one gradient product R·X, and each line-search trial
    # one logit product W·Xᵀ and one exp; no logit is computed twice.
    rng = np.random.default_rng(3)
    n, V = 40, 5
    d = dataset_from_dense(rng.poisson(1.0, size=(n, V)), [i % 3 for i in range(n)], 3)
    calls = collections.Counter()

    class Counted(np.ndarray):  # the fit's dense X, counting the products it enters
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                calls["gradient" if inputs[1].shape == (n, V) else "logits"] += 1
            plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    def counted_zeros(shape, *args, **kwargs):
        out = zeros(shape, *args, **kwargs)
        return out.view(Counted) if shape == (n, V) else out

    zeros, exp = np.zeros, np.exp
    monkeypatch.setattr(np, "zeros", counted_zeros)
    monkeypatch.setattr(np, "exp", lambda *a, **kw: calls.update(["exp"]) or exp(*a, **kw))
    lr_fit(d, LrConfig(max_iters=7, tolerance=1e-12))
    assert calls["gradient"] == 7
    assert calls["logits"] == calls["exp"] >= 7


@pytest.mark.skipif(classifiers._openblas() is None, reason="numpy's BLAS is not a bundled OpenBLAS")
@pytest.mark.parametrize("fails", [False, True])
def test_one_blas_thread_then_the_count_it_found(monkeypatch, fails):
    get, set_ = classifiers._openblas()
    rng = np.random.default_rng(5)
    d = dataset_from_dense(rng.poisson(1.0, size=(30, 4)), [i % 3 for i in range(30)], 3)
    seen, residuals = [], classifiers._residuals

    def recording(*args):
        seen.append(get())
        if fails:
            raise MemoryError
        return residuals(*args)

    monkeypatch.setattr(classifiers, "_residuals", recording)
    found = get()
    set_(3)
    try:
        if fails:
            with pytest.raises(MemoryError):
                lr_fit(d, LrConfig(max_iters=5))
        else:
            lr_fit(d, LrConfig(max_iters=5))
        assert get() == 3
    finally:
        set_(found)
    assert seen and set(seen) == {1}


def test_one_blas_thread_sets_nothing_where_blas_runs_on_one(monkeypatch):
    # In a forked child, setting the count starts OpenBLAS's threads again.
    calls = []
    monkeypatch.setattr(classifiers, "_openblas", lambda: (lambda: 1, calls.append))
    rng = np.random.default_rng(5)
    lr_fit(dataset_from_dense(rng.poisson(1.0, size=(30, 4)), [i % 3 for i in range(30)], 3), LrConfig(max_iters=5))
    assert calls == []

"""Multinomial naive Bayes against an independent direct-arithmetic oracle."""

import itertools
import math

import numpy as np
import pytest

from emojivote.classifiers import MnbConfig, mnb_fit, mnb_predict_proba
from emojivote.features import SparseCountVector
from emojivote.resample import SmoteConfig, smote

from helpers import dataset_from_dense


def oracle_posterior(train_docs, train_labels, x, alpha, V, k):
    """Direct (non-log) Bayes arithmetic: posterior over classes for count

    vector x given raw training count vectors. Independent of the model path.
    """
    n = len(train_docs)
    scores = []
    for c in range(k):
        docs_c = [d for d, l in zip(train_docs, train_labels) if l == c]
        prior = len(docs_c) / n
        feature_totals = [sum(d[f] for d in docs_c) for f in range(V)]
        total = sum(feature_totals)
        p = prior
        for f in range(V):
            likelihood = (feature_totals[f] + alpha) / (total + alpha * V)
            p *= likelihood ** x[f]
        scores.append(p)
    s = sum(scores)
    return [v / s for v in scores]


def loop_fit(dataset, alpha):
    """The per-entry loop `mnb_fit` summed its counts with before np.add.at."""
    k, V = dataset.num_classes, dataset.dimension
    class_counts = np.zeros(k)
    feature_counts = np.zeros((k, V))
    for row, lab in zip(dataset.rows, dataset.labels):
        class_counts[lab] += 1
        for idx, cnt in row.entries:
            feature_counts[lab, idx] += cnt
    with np.errstate(divide="ignore"):
        log_priors = np.log(class_counts / len(dataset))
    totals = feature_counts.sum(axis=1, keepdims=True)
    return log_priors, np.log(feature_counts + alpha) - np.log(totals + alpha * V)


class TestMnbFit:
    def test_equals_per_entry_loop(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            labels = [c for c, n in enumerate((30, 9, 3)) for _ in range(n)]
            X = rng.poisson(1.0, (len(labels), 6)).astype(float)
            # a declared class with no rows, and SMOTE's fractional counts,
            # whose sums depend on the order they are added in
            for d in (dataset_from_dense(X, labels, 4),
                      smote(dataset_from_dense(X, labels, 3), SmoteConfig(seed=seed))):
                m = mnb_fit(d, MnbConfig(alpha=0.3))
                log_priors, log_likelihoods = loop_fit(d, 0.3)
                assert np.array_equal(m.log_priors, log_priors)
                assert np.array_equal(m.log_likelihoods, log_likelihoods)

    def test_closed_form_example(self):
        # class 0: "a a b"; class 1: "b b"; alpha=0.5, V=2
        d = dataset_from_dense(np.array([[2.0, 1.0], [0.0, 2.0]]), [0, 1], 2)
        m = mnb_fit(d, MnbConfig(alpha=0.5))
        lik = np.exp(m.log_likelihoods)
        assert lik[0] == pytest.approx([0.625, 0.375])
        assert lik[1] == pytest.approx([0.5 / 3, 2.5 / 3])
        assert np.exp(m.log_priors) == pytest.approx([0.5, 0.5])

    def test_likelihoods_positive(self):
        d = dataset_from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1], 2)
        for alpha in (1e-6, 0.5, 10.0):
            m = mnb_fit(d, MnbConfig(alpha=alpha))
            assert np.all(np.isfinite(m.log_likelihoods))

    def test_likelihood_rows_normalize(self):
        rng = np.random.default_rng(0)
        d = dataset_from_dense(rng.poisson(1.0, (10, 4)).astype(float), [0, 1] * 5, 2)
        m = mnb_fit(d)
        assert np.exp(m.log_likelihoods).sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)
        assert np.exp(m.log_priors).sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_class_degenerate(self):
        d = dataset_from_dense(np.array([[1.0, 0.0], [2.0, 1.0]]), [0, 0], 2)
        m = mnb_fit(d)
        assert m.log_priors[1] == -math.inf
        x = SparseCountVector(((1, 3.0),), 2)
        probs = mnb_predict_proba(m, x)
        assert probs[0] == 1.0 and probs[1] == 0.0

    def test_empty_dataset_rejected(self):
        d = dataset_from_dense(np.zeros((0, 2)), [], 2)
        with pytest.raises(ValueError):
            mnb_fit(d)

    def test_doubling_counts_and_alpha_preserves_likelihoods(self):
        # (2c + 2a) / (2T + 2aV) == (c + a) / (T + aV), exactly
        rng = np.random.default_rng(3)
        X = rng.poisson(2.0, (8, 5)).astype(float)
        labels = [0, 1, 0, 1, 0, 1, 0, 1]
        m1 = mnb_fit(dataset_from_dense(X, labels, 2), MnbConfig(alpha=0.5))
        m2 = mnb_fit(dataset_from_dense(2 * X, labels, 2), MnbConfig(alpha=1.0))
        np.testing.assert_allclose(m1.log_likelihoods, m2.log_likelihoods, rtol=1e-14)


class TestMnbPredict:
    def setup_method(self):
        self.dataset = dataset_from_dense(np.array([[2.0, 1.0], [0.0, 2.0]]), [0, 1], 2)
        self.model = mnb_fit(self.dataset, MnbConfig(alpha=0.5))

    def test_two_doc_posterior(self):
        x = SparseCountVector(((0, 1.0), (1, 1.0)), 2)
        probs = mnb_predict_proba(self.model, x)
        expected = oracle_posterior(
            [[2.0, 1.0], [0.0, 2.0]], [0, 1], [1.0, 1.0], 0.5, 2, 2
        )
        assert probs == pytest.approx(expected, abs=1e-12)
        assert probs[0] == pytest.approx(0.6279, abs=1e-4)
        assert int(np.argmax(probs)) == 0

    def test_empty_vector_gives_prior(self):
        x = SparseCountVector((), 2)
        assert mnb_predict_proba(self.model, x) == pytest.approx(
            np.exp(self.model.log_priors)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mnb_predict_proba(self.model, SparseCountVector(((0, 1.0),), 3))

    def test_output_is_distribution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = SparseCountVector.from_dense(rng.poisson(1.5, 2).astype(float))
            probs = mnb_predict_proba(self.model, x)
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def all_multisets(vocab_size, max_len):
    """All count vectors of total <= max_len over vocab_size features."""
    out = []
    for total in range(max_len + 1):
        for combo in itertools.combinations_with_replacement(range(vocab_size), total):
            counts = [0.0] * vocab_size
            for f in combo:
                counts[f] += 1
            out.append(counts)
    return out


class TestExhaustiveOracle:
    def test_tiny_corpora_match_oracle(self):
        """All 2-doc labeled corpora over all multisets of <= 3 tokens from a

        3-token vocabulary, tested on every such multiset.
        """
        docs = all_multisets(3, 3)
        nonempty = [d for d in docs if sum(d) > 0]
        worst = 0.0
        for d0 in nonempty:
            for d1 in nonempty:
                dataset = dataset_from_dense(np.array([d0, d1]), [0, 1], 2)
                model = mnb_fit(dataset, MnbConfig(alpha=0.5))
                for x in docs:
                    got = mnb_predict_proba(model, SparseCountVector.from_dense(np.array(x)))
                    want = oracle_posterior([d0, d1], [0, 1], x, 0.5, 3, 2)
                    worst = max(worst, float(np.abs(got - np.array(want)).max()))
        assert worst < 1e-9

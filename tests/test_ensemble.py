import copy
import dataclasses
import os
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emojivote import classifiers, ensemble
from emojivote.classifiers import LrConfig, RfConfig
from emojivote.ensemble import (
    LANGUAGE_BASE_WEIGHTS,
    LANGUAGE_META_WEIGHTS,
    EnsembleSpec,
    MetaSpec,
    build_base_ensemble,
    build_meta,
    vote_proba,
)
from emojivote.features import FeatureConfig, vectorize_corpus
from emojivote.preprocess import AsciiPolicy
from emojivote.resample import SmoteConfig, smote

from helpers import assert_reaped, dataset_from_dense, record_forks, set_cpus, skewed_corpus


class FixedModel:
    """Stub member that always returns the same distribution."""

    def __init__(self, probs, num_classes=None):
        self.probs = np.asarray(probs, dtype=float)
        self.num_classes = num_classes or len(self.probs)

    def predict_proba(self, x):
        return self.probs


def distributions(k):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
        .map(lambda v: np.array(v) / sum(v))
    )


class TestVoteProba:
    def test_equal_weights(self):
        out = vote_proba((1, 1), [np.array([0.6, 0.4]), np.array([0.2, 0.8])])
        assert out == pytest.approx([0.4, 0.6])

    def test_three_one_weights(self):
        out = vote_proba((3, 1), [np.array([0.6, 0.4]), np.array([0.2, 0.8])])
        assert out == pytest.approx([0.5, 0.5])

    def test_single_member_identity(self):
        p = np.array([0.3, 0.5, 0.2])
        assert vote_proba((7.5,), [p]) == pytest.approx(p)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vote_proba((1, 1, 1), [np.array([1.0])])

    def test_nonpositive_weight_rejected(self):
        for bad in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                vote_proba((1, bad), [np.array([1.0]), np.array([1.0])])

    @given(
        st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4),
        st.data(),
    )
    def test_valid_distribution_and_bounds(self, weights, data):
        k = 3
        probs = [data.draw(distributions(k)) for _ in weights]
        out = vote_proba(weights, probs)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        stacked = np.stack(probs)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)

    @given(st.data())
    def test_unanimity(self, data):
        p = data.draw(distributions(4))
        out = vote_proba((2.0, 0.5, 1.0), [p, p, p])
        assert out == pytest.approx(p)

    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4), st.floats(0.01, 100.0), st.data())
    def test_argmax_invariant_under_scaling(self, weights, alpha, data):
        probs = [data.draw(distributions(3)) for _ in weights]
        a = vote_proba(weights, probs)
        b = vote_proba([alpha * w for w in weights], probs)
        assert a == pytest.approx(b)  # exact normalization: same combined dist

    @given(st.data())
    def test_dominance(self, data):
        # all members argmax at class j -> ensemble argmax is j
        k = 4
        probs = []
        j = data.draw(st.integers(0, k - 1))
        for _ in range(3):
            p = data.draw(distributions(k))
            top = int(np.argmax(p))
            p[j], p[top] = p[top], p[j]
            # a runner-up tied with p[j], or within rounding of it, leaves class
            # j's lead to the vote's rounding
            if p[j] - np.delete(p, j).max() <= 1e-9:
                p[j] += 0.01
                p = p / p.sum()
            probs.append(p)
        out = vote_proba((1.0, 2.0, 3.0), probs)
        assert int(np.argmax(out)) == j


class TestPredict:
    def test_tie_breaks_low_index(self):
        spec = EnsembleSpec(members=(FixedModel([0.5, 0.5]),), weights=(1.0,))
        assert spec.predict(None) == 0

    def test_argmax(self):
        spec = EnsembleSpec(members=(FixedModel([0.1, 0.7, 0.2]),), weights=(2.0,))
        assert spec.predict(None) == 1

    def test_meta_hand_example(self):
        e1 = EnsembleSpec(members=(FixedModel([0.3, 0.7]),), weights=(1.0,))
        e2 = EnsembleSpec(members=(FixedModel([0.9, 0.1]),), weights=(1.0,))
        meta = MetaSpec(ensemble1=e1, ensemble2=e2, weights=(4.0, 1.0))
        assert meta.predict_proba(None) == pytest.approx([0.42, 0.58])
        assert meta.predict(None) == 1

    @pytest.mark.parametrize("weights", [(1.0,), (float("inf"), 1.0), (1.0, float("nan")), (0.0, 1.0)])
    def test_meta_weights_checked_at_construction(self, weights):
        e = EnsembleSpec(members=(FixedModel([0.3, 0.7]),), weights=(1.0,))
        with pytest.raises(ValueError):
            MetaSpec(ensemble1=e, ensemble2=e, weights=weights)
        with pytest.raises(ValueError):
            EnsembleSpec(members=(e, e), weights=weights)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_weights_checked_when_copied(self, copier):
        e = EnsembleSpec(members=(FixedModel([0.3, 0.7]),), weights=(1.0,))
        meta = MetaSpec(ensemble1=e, ensemble2=e, weights=(4.0, 1.0))
        assert copier(meta).predict_proba(None) == pytest.approx(meta.predict_proba(None))
        for vote in (e, meta):
            object.__setattr__(vote, "weights", (0.0,) * len(vote.weights))
            with pytest.raises(ValueError, match="positive and finite"):
                copier(vote)


class TestBuild:
    def setup_method(self):
        rng = np.random.default_rng(0)
        X = rng.poisson(1.5, size=(24, 5)).astype(float)
        labels = [i % 3 for i in range(24)]
        self.dataset = dataset_from_dense(X, labels, 3)

    def test_language_presets(self):
        assert LANGUAGE_BASE_WEIGHTS["es"] == (1.1, 1.0, 1.0)
        assert LANGUAGE_BASE_WEIGHTS["en"] == (1.5, 6.0, 1.0)
        assert LANGUAGE_META_WEIGHTS["es"] == (3.0, 1.0)
        assert LANGUAGE_META_WEIGHTS["en"] == (4.0, 1.0)

    def test_base_ensemble_members(self):
        spec = build_base_ensemble(
            self.dataset, (1.0, 1.0, 1.0), lr_cfg=LrConfig(max_iters=20), rf_cfg=RfConfig(n_trees=2)
        )
        assert len(spec.members) == 3
        probs = spec.predict_proba(self.dataset.take(np.array([0])))[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_meta_on_balanced_data_equals_ensemble1(self):
        # balanced input: SMOTE is a no-op, both ensembles see identical data
        meta = build_meta(
            self.dataset,
            smote_cfg=SmoteConfig(seed=0),
            meta_weights=(4.0, 1.0),
            base_weights=(1.5, 6.0, 1.0),
            lr_cfg=LrConfig(max_iters=30),
            rf_cfg=RfConfig(n_trees=3, seed=0),
        )
        for i in range(5):
            row = self.dataset.take(np.array([i]))
            p1 = meta.ensemble1.predict_proba(row)
            p2 = meta.ensemble2.predict_proba(row)
            assert p1 == pytest.approx(p2)
            assert meta.predict_proba(row) == pytest.approx(p1)


def assert_same_member(model, reference):
    assert type(model) is type(reference)
    for field in dataclasses.fields(model):
        got, want = getattr(model, field.name), getattr(reference, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


class TestBuildMeta:
    """build_meta fits each member as build_base_ensemble does, growing both

    forests in one pass.
    """

    SMOTE = SmoteConfig(seed=1)
    WEIGHTS = (1.5, 6.0, 1.0)
    CONFIGS = dict(lr_cfg=LrConfig(max_iters=30), rf_cfg=RfConfig(n_trees=4, seed=2))

    def fit(self):
        _, d = vectorize_corpus(
            skewed_corpus(120, seed=3), AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=2)
        )
        return d, build_meta(d, self.SMOTE, (4.0, 1.0), self.WEIGHTS, **self.CONFIGS)

    def test_members_equal_member_by_member_fits(self):
        d, meta = self.fit()
        oversampled = smote(d, self.SMOTE)
        assert len(oversampled) > len(d)
        for ensemble, data in (meta.ensemble1, d), (meta.ensemble2, oversampled):
            reference = build_base_ensemble(data, self.WEIGHTS, **self.CONFIGS)
            assert ensemble.weights == reference.weights
            for member, want in zip(ensemble.members, reference.members, strict=True):
                assert_same_member(member, want)

    def test_forks_once_with_two_cpus(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        pids = record_forks(monkeypatch)
        self.fit()
        assert len(pids) == 1

    @pytest.mark.parametrize("cpus, forks", [(2, 1), (3, 2), (8, 4)])
    def test_one_worker_per_spare_cpu_at_most_one_per_tree(self, monkeypatch, cpus, forks):
        set_cpus(monkeypatch, 1)
        pids = record_forks(monkeypatch)
        _, serial = self.fit()
        assert pids == []
        set_cpus(monkeypatch, cpus)
        _, meta = self.fit()
        assert len(pids) == forks
        assert_reaped(pids)
        for got, want in zip(meta.members, serial.members, strict=True):
            for member, reference in zip(got.members, want.members, strict=True):
                assert_same_member(member, reference)

    def test_fits_where_numpy_has_no_openblas(self, monkeypatch):
        monkeypatch.setattr(classifiers, "_openblas", lambda: None)
        set_cpus(monkeypatch, 2)
        self.test_members_equal_member_by_member_fits()

    def test_failure_here_kills_and_reaps_the_workers(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        parent, lr_fit = os.getpid(), ensemble.lr_fit

        def failing_here(data, cfg):  # this process fits Ensemble2's LR, a worker Ensemble1's
            if os.getpid() == parent:
                raise ValueError("Ensemble2's LR")
            time.sleep(60)
            return lr_fit(data, cfg)

        monkeypatch.setattr(ensemble, "lr_fit", failing_here)
        pids = record_forks(monkeypatch)
        start = time.monotonic()
        with pytest.raises(ValueError, match="Ensemble2's LR"):
            self.fit()
        assert time.monotonic() - start < 30
        assert len(pids) == 2
        with pytest.raises(ChildProcessError):  # no child left, running or a zombie
            os.waitpid(-1, os.WNOHANG)

    def test_blas_count_set_here_around_the_fork_only(self, monkeypatch, tmp_path):
        log = tmp_path / "set.log"  # a worker's calls, too, outlive it here
        threads = [2]

        def set_(n):
            threads[0] = n
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {n}\n")

        monkeypatch.setattr(classifiers, "_openblas", lambda: (lambda: threads[0], set_))
        set_cpus(monkeypatch, 2)
        pids = record_forks(monkeypatch)
        self.fit()
        assert len(pids) == 1
        assert log.read_text().split("\n") == [f"{os.getpid()} 1", f"{os.getpid()} 2", ""]

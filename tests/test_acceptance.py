"""Acceptance suite: one test per acceptance criterion, each printing a

PASS line on success (run with `pytest -v tests/test_acceptance.py -s`).
"""

import itertools

import numpy as np

from emojivote.archive import ModelArchive, archive_load, archive_save
from emojivote.classifiers import (
    LrConfig,
    MnbConfig,
    RfConfig,
    lr_gradient,
    lr_objective,
    mnb_fit,
    mnb_predict_proba,
)
from emojivote.corpus import RawCorpus
from emojivote.ensemble import build_meta, vote_proba
from emojivote.features import (
    FeatureConfig,
    text_to_vector,
    vectorize_corpus,
)
from emojivote.metrics import confusion, evaluate
from emojivote.preprocess import AsciiPolicy, extract_ngrams, tokenize
from emojivote.resample import ResamplePlan, SmoteConfig, nearest_neighbors, smote

from helpers import accent_corpus, csr_from_dense, dataset_from_dense, rows_of, skewed_corpus, to_dense
from test_classifiers_mnb import all_multisets, oracle_posterior
from test_metrics import oracle_metrics


def _ok(name):
    print(f"PASS {name}")


def test_smote_plan_arithmetic():
    spanish = ResamplePlan(
        original_counts=[19675] + [1] * 18, target=19675, synthetic_counts=[0] + [19674] * 18
    )
    english = ResamplePlan(
        original_counts=[106509] + [1] * 19, target=106509, synthetic_counts=[0] + [106508] * 19
    )
    assert spanish.total == 373825
    assert english.total == 2130180
    _ok("SMOTE plan arithmetic: 19*19675=373825, 20*106509=2130180")


def test_mnb_oracle_suite():
    docs = all_multisets(3, 3)
    nonempty = [d for d in docs if sum(d) > 0]
    worst = 0.0
    for d0 in nonempty:
        for d1 in nonempty:
            dataset = dataset_from_dense(np.array([d0, d1]), [0, 1], 2)
            model = mnb_fit(dataset, MnbConfig(alpha=0.5))
            for x in docs:
                got = mnb_predict_proba(model, csr_from_dense([x]))[0]
                want = np.array(oracle_posterior([d0, d1], [0, 1], x, 0.5, 3, 2))
                worst = max(worst, float(np.abs(got - want).max()))
                if np.ptp(want) > 1e-9:  # skip argmax check on exact ties
                    assert int(np.argmax(got)) == int(np.argmax(want))
    assert worst < 1e-9
    _ok(f"MNB brute-force Bayes oracle: max posterior error {worst:.2e} < 1e-9")


def test_lr_gradient_check():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(20, 10))
    y01 = (rng.random(20) < 0.5).astype(float)
    lam = 0.7
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        w = rng.normal(size=10)
        b = float(rng.normal())
        gw, gb = lr_gradient(w, b, X, y01, lam)
        fw = np.zeros(10)
        for i in range(10):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fw[i] = (lr_objective(wp, b, X, y01, lam) - lr_objective(wm, b, X, y01, lam)) / (2 * h)
        fb = (lr_objective(w, b + h, X, y01, lam) - lr_objective(w, b - h, X, y01, lam)) / (2 * h)
        rel = np.linalg.norm(np.append(gw - fw, gb - fb)) / np.linalg.norm(np.append(fw, fb))
        worst = max(worst, float(rel))
        assert rel < 1e-4
    _ok(f"LR analytic vs central-difference gradient: max relative error {worst:.2e} < 1e-4")


def test_voting_suite():
    rng = np.random.default_rng(5)
    for case in range(1000):
        k = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        probs = [rng.dirichlet(np.ones(k)) for _ in range(m)]
        weights = rng.uniform(0.1, 10.0, m)
        out = vote_proba(weights, probs)
        stacked = np.stack(probs)
        # weighted-mean bounds
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        # argmax invariance under weight scaling
        alpha = float(rng.uniform(0.01, 100.0))
        scaled = vote_proba(alpha * weights, probs)
        assert int(np.argmax(out)) == int(np.argmax(scaled))
        # tie-break determinism: argmax returns the smallest maximizing index
        assert int(np.argmax(out)) == min(np.flatnonzero(out == out.max()))
        # unanimity
        p = probs[0]
        assert np.allclose(vote_proba(weights[:1].repeat(m), [p] * m), p, atol=1e-12)
        # dominance
        j = int(np.argmax(probs[0]))
        dominated = []
        for q in probs:
            q = q.copy()
            top = int(np.argmax(q))
            q[j], q[top] = q[top], q[j]
            q[j] += 0.01
            dominated.append(q / q.sum())
        assert int(np.argmax(vote_proba(weights, dominated))) == j
    _ok("voting suite: bounds, unanimity, dominance, scaling invariance, tie-break (1000 cases)")


def test_metrics_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        m = rng.integers(0, 15, size=(k, k))
        if m.sum() == 0:
            m[0, 0] = 1
        r = evaluate(m)
        per, macro, acc = oracle_metrics(m)
        for got, (p, rr, f) in zip(r.per_class, per):
            assert abs(got.precision - p) < 1e-12
            assert abs(got.recall - rr) < 1e-12
            assert abs(got.f1 - f) < 1e-12
        assert abs(r.macro_f1 - macro[2]) < 1e-12
        assert abs(r.accuracy - acc) < 1e-12
    hand = evaluate(np.array([[2, 1], [0, 3]]))
    assert abs(hand.macro_f1 - (0.8 + 6 / 7) / 2) < 1e-12
    assert abs(hand.accuracy - 5 / 6) < 1e-12
    _ok("metrics oracle: 1000 random matrices to 1e-12; hand example macro-F1 0.8286, acc 5/6")


def test_smote_properties():
    rng = np.random.default_rng(31)
    for seed in range(3):
        counts = (40, 17, 6, 2)
        labels = [c for c, n in enumerate(counts) for _ in range(n)]
        X = rng.poisson(2.0, size=(len(labels), 5)).astype(float)
        d = dataset_from_dense(X, labels, 4)
        out = smote(d, SmoteConfig(seed=seed))
        # exact class balance
        got = [out.labels.tolist().count(c) for c in range(4)]
        assert got == [40, 40, 40, 40]
        # originals preserved verbatim as prefix
        assert rows_of(out)[: len(d)] == rows_of(d)
        assert out.labels[: len(d)].tolist() == d.labels.tolist()
        # nonnegativity + componentwise convexity within the class hull
        for dense, lab in zip(to_dense(out)[len(d):], out.labels[len(d):]):
            assert np.all(dense >= 0)
            members = np.stack([r for r, l in zip(to_dense(d), d.labels) if l == lab])
            assert np.all(dense >= members.min(axis=0) - 1e-12)
            assert np.all(dense <= members.max(axis=0) + 1e-12)
    # brute-force k-NN agreement on <= 50-point sets
    for trial in range(10):
        n = int(rng.integers(2, 51))
        pts = rng.integers(0, 4, size=(n, 4)).astype(float)
        k = int(rng.integers(1, n))
        got = nearest_neighbors(csr_from_dense(pts), k).tolist()
        for i in range(n):
            want = sorted(
                (float(((pts[j] - pts[i]) ** 2).sum()), j) for j in range(n) if j != i
            )
            assert got[i] == [j for _, j in want[:k]]
    _ok("SMOTE properties: balance, convexity, nonnegativity, prefix, brute-force k-NN")


def test_directional_oversampling_tradeoff():
    """Ensemble2 (SMOTE-trained) gains rare-class recall; Ensemble1 keeps

    higher overall accuracy.
    """
    train = skewed_corpus(2000, seed=0)
    test = skewed_corpus(800, seed=1000)
    vocab, dataset = vectorize_corpus(train, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=8))
    meta = build_meta(
        dataset,
        smote_cfg=SmoteConfig(seed=0),
        meta_weights=(4.0, 1.0),
        base_weights=(1.5, 6.0, 1.0),
        lr_cfg=LrConfig(l2_strength=0.01, max_iters=300),
        rf_cfg=RfConfig(seed=0),
    )
    results = {}
    for name, model in (("ensemble1", meta.ensemble1), ("ensemble2", meta.ensemble2)):
        preds = model.predict(text_to_vector(test.texts, AsciiPolicy.KEEP_MOST, vocab)).tolist()
        r = evaluate(confusion(test.labels, preds, 5))
        rare_recall = (r.per_class[3].recall + r.per_class[4].recall) / 2
        results[name] = (r.accuracy, rare_recall)
    acc1, rare1 = results["ensemble1"]
    acc2, rare2 = results["ensemble2"]
    assert rare2 > rare1, f"rare-class recall: e2 {rare2:.3f} <= e1 {rare1:.3f}"
    assert acc1 > acc2, f"accuracy: e1 {acc1:.3f} <= e2 {acc2:.3f}"
    _ok(
        "oversampling tradeoff: rare recall "
        f"{rare1:.3f}->{rare2:.3f} up, accuracy {acc1:.3f}->{acc2:.3f} down"
    )


def test_directional_ascii_policy():
    """Keeping non-ASCII characters beats stripping them when the class

    signal lives in accented characters.
    """
    train = accent_corpus(500, seed=0)
    test = accent_corpus(250, seed=500)
    scores = {}
    for policy in (AsciiPolicy.KEEP_MOST, AsciiPolicy.STRIP_ALL):
        vocab, dataset = vectorize_corpus(train, policy, FeatureConfig(min_df=5))
        meta = build_meta(
            dataset,
            smote_cfg=SmoteConfig(seed=0),
            meta_weights=(4.0, 1.0),
            base_weights=(1.5, 6.0, 1.0),
            lr_cfg=LrConfig(l2_strength=0.01, max_iters=300),
            rf_cfg=RfConfig(seed=0),
        )
        preds = meta.predict(text_to_vector(test.texts, policy, vocab)).tolist()
        scores[policy] = evaluate(confusion(test.labels, preds, 3)).macro_f1
    keep, strip = scores[AsciiPolicy.KEEP_MOST], scores[AsciiPolicy.STRIP_ALL]
    assert keep > strip, f"macro-F1 keep-most {keep:.3f} <= strip-all {strip:.3f}"
    _ok(f"ascii policy: keep-most macro-F1 {keep:.3f} > strip-all {strip:.3f}")


def test_end_to_end_determinism_and_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(10)]
    texts = [" ".join(rng.choice(words, size=4)) for _ in range(60)]
    labels = [int(v) for v in rng.integers(0, 3, 60)]
    corpus = RawCorpus(texts, labels, 3)

    def train_once():
        vocab, dataset = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=2))
        model = build_meta(
            dataset,
            smote_cfg=SmoteConfig(seed=11),
            meta_weights=(4.0, 1.0),
            base_weights=(1.5, 6.0, 1.0),
            lr_cfg=LrConfig(max_iters=50),
            rf_cfg=RfConfig(n_trees=5, seed=11),
        )
        return ModelArchive(
            language="en", policy=AsciiPolicy.KEEP_MOST, vocabulary=vocab, model=model
        )

    held_out = [" ".join(rng.choice(words, size=4)) for _ in range(50)]
    a, b = train_once(), train_once()
    preds_a = a.model.predict(text_to_vector(held_out, a.policy, a.vocabulary)).tolist()
    preds_b = b.model.predict(text_to_vector(held_out, b.policy, b.vocabulary)).tolist()
    assert preds_a == preds_b

    path = tmp_path / "model.bin"
    archive_save(a, path)
    loaded = archive_load(path)
    for t in held_out:
        x = text_to_vector([t], loaded.policy, loaded.vocabulary)
        assert np.array_equal(loaded.model.predict_proba(x), a.model.predict_proba(x))
    _ok("end-to-end determinism and archive round-trip: identical predictions")


def test_feature_pipeline():
    rng = np.random.default_rng(13)
    words = [f"w{i}" for i in range(12)]
    for trial in range(5):
        texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 7)))) for _ in range(50)]
        corpus = RawCorpus(texts, [0] * 50, 2)
        vocab, _ = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=5))
        bags = [extract_ngrams(tokenize(t)) for t in texts]
        candidates = set(itertools.chain.from_iterable(bags))
        for feat in candidates:
            df = sum(1 for b in bags if feat in b)
            assert (feat in vocab.feature_to_index) == (df >= 5)
        for t in texts:
            toks = tokenize(t)
            assert sum(extract_ngrams(toks).values()) == 2 * len(toks) - 1
    _ok("feature pipeline: df cutoff matches brute force; 2n-1 gram identity")

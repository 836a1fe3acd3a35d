import collections
import dataclasses
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emojivote import classifiers
from emojivote.archive import ModelArchive, archive_load, archive_save
from emojivote.classifiers import RfConfig, rf_fit, rf_predict_proba
from emojivote.features import (
    FeatureConfig,
    Vocabulary,
    vectorize_corpus,
)
from emojivote.preprocess import AsciiPolicy
from emojivote.resample import SmoteConfig, smote

from helpers import (
    assert_reaped, csr_from_dense, csr_from_rows, dataset_from_dense, meta_around, raise_,
    record_forks, set_cpus, skewed_corpus, with_labels,
)
import fit_oracle
from rf_oracle import TreeNode, oracle_fit, pack

ARRAYS = ("feature", "threshold", "left", "right", "counts", "roots")


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
        preds = [int(np.argmax(p)) for p in rf_predict_proba(m, d)]
        assert preds == d.labels.tolist()

    def test_seed_determinism(self):
        d = make_consistent_dataset(seed=3)
        m1 = rf_fit(d, RfConfig(n_trees=5, seed=42))
        m2 = rf_fit(d, RfConfig(n_trees=5, seed=42))
        assert np.array_equal(rf_predict_proba(m1, d), rf_predict_proba(m2, d))

    def test_different_seeds_smoke(self):
        # not asserted as inequality, just that both train fine
        d = make_consistent_dataset(seed=4)
        for seed in (0, 1):
            m = rf_fit(d, RfConfig(n_trees=3, seed=seed))
            assert len(m.roots) == 3

    def test_pure_training_set(self):
        d = dataset_from_dense(np.arange(12.0).reshape(6, 2), [1] * 6, 3)
        m = rf_fit(d, RfConfig(n_trees=4, seed=0))
        probs = rf_predict_proba(m, d)[0]
        assert probs == pytest.approx([0.0, 1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rf_fit(dataset_from_dense(np.zeros((0, 2)), [], 2))

    @pytest.mark.parametrize("max_features", [0, -3])
    def test_max_features_below_one_rejected(self, max_features):
        with pytest.raises(ValueError, match="max_features"):
            RfConfig(max_features=max_features)

    def test_max_features_above_dimension_caps(self):
        d = make_consistent_dataset(seed=2)
        capped = rf_fit(d, RfConfig(n_trees=2, max_features=d.dimension + 5, seed=1))
        assert_same_forest(capped, rf_fit(d, RfConfig(n_trees=2, max_features=d.dimension, seed=1)))

    def test_min_samples_leaf(self):
        d = make_consistent_dataset(seed=5)
        m = rf_fit(d, RfConfig(n_trees=2, min_samples_leaf=4, seed=0, bootstrap=False))
        leaves = m.feature == -1
        assert np.all(m.counts[leaves].sum(axis=1) >= 4)


    def test_adjacent_values_split(self):
        # The midpoint of two adjacent floats rounds up to the larger one, so
        # the threshold falls back to the smaller value to keep both sides.
        a, b = 1 + 2**-52, 1 + 2**-51
        assert (a + b) / 2 == b
        d = dataset_from_dense(np.array([[a], [b], [b]]), [0, 1, 1], 2)
        m = rf_fit(d, RfConfig(n_trees=1, bootstrap=False))
        assert m.threshold[0] == a and len(m.feature) == 3
        probs = rf_predict_proba(m, d)
        assert probs.argmax(axis=1).tolist() == d.labels.tolist()


class TestPredict:
    def test_two_tree_average(self):
        leaf_a = TreeNode(counts=np.array([3.0, 0.0]))
        leaf_b = TreeNode(counts=np.array([0.0, 5.0]))
        m = pack([leaf_a, leaf_b], dimension=2, num_classes=2)
        probs = rf_predict_proba(m, csr_from_rows([()], 2))[0]
        assert probs == pytest.approx([0.5, 0.5])

    def test_single_tree_identity(self):
        leaf = TreeNode(counts=np.array([1.0, 3.0]))
        m = pack([leaf], dimension=2, num_classes=2)
        assert rf_predict_proba(m, csr_from_rows([()], 2))[0] == pytest.approx([0.25, 0.75])

    def test_unanimous_pure_trees(self):
        trees = [TreeNode(counts=np.array([0.0, 0.0, 0.0, 2.0])) for _ in range(20)]
        m = pack(trees, dimension=1, num_classes=4)
        assert rf_predict_proba(m, csr_from_rows([()], 1))[0] == pytest.approx([0, 0, 0, 1.0])

    def test_routing(self):
        tree = TreeNode(
            feature=0,
            threshold=1.5,
            left=TreeNode(counts=np.array([1.0, 0.0])),
            right=TreeNode(counts=np.array([0.0, 1.0])),
        )
        m = pack([tree], dimension=1, num_classes=2)
        low = rf_predict_proba(m, csr_from_rows([((0, 1.0),)], 1))[0]
        high = rf_predict_proba(m, csr_from_rows([((0, 2.0),)], 1))[0]
        assert low == pytest.approx([1.0, 0.0])
        assert high == pytest.approx([0.0, 1.0])

    def test_dimension_mismatch(self):
        m = pack([TreeNode(counts=np.array([1.0]))], dimension=2, num_classes=1)
        with pytest.raises(ValueError):
            rf_predict_proba(m, csr_from_rows([()], 5))

    def test_output_is_distribution(self):
        d = make_consistent_dataset(seed=7)
        m = rf_fit(d, RfConfig(n_trees=6, seed=1))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = csr_from_dense([rng.integers(0, 4, d.dimension).astype(float)])
            probs = rf_predict_proba(m, x)[0]
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def assert_same_forest(model, reference):
    assert (model.dimension, model.num_classes) == (reference.dimension, reference.num_classes)
    for name in ARRAYS:
        got, want = getattr(model, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@st.composite
def forest_cases(draw):
    """A small dataset (integer or SMOTE-like fractional counts, empty and

    duplicate rows, maybe a declared class with no rows) and a forest config.
    """
    V = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        count = st.sampled_from([1.0, 2.0, 3.0])
    else:
        # Fractions i / 97 are never adjacent floats (see test_adjacent_values_split).
        count = st.sampled_from([0.5, 1.0, 1.75]) | st.integers(1, 400).map(lambda i: i / 97)
    base = draw(st.lists(st.dictionaries(st.integers(0, V - 1), count), min_size=1, max_size=25))
    rows = base + [base[i] for i in draw(st.lists(st.integers(0, len(base) - 1), max_size=5))]
    top = k - 1 - draw(st.booleans())  # maybe leave class k - 1 without rows
    labels = draw(st.lists(st.integers(0, top), min_size=len(rows), max_size=len(rows)))
    dataset = with_labels(csr_from_rows([sorted(r.items()) for r in rows], V), labels, k)
    cfg = RfConfig(
        n_trees=draw(st.integers(1, 3)),
        max_features=draw(st.sampled_from([None, 1, V])),
        min_samples_leaf=draw(st.integers(1, 3)),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )
    return dataset, cfg


class TestOracle:
    """rf_fit grows the same trees as the recursive dense grower it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(case=forest_cases())
    def test_small_datasets(self, case):
        dataset, cfg = case
        assert_same_forest(rf_fit(dataset, cfg), oracle_fit(dataset, cfg))

    @pytest.mark.parametrize("resampled", [False, True])
    def test_skewed_corpus(self, resampled):
        _, dataset = vectorize_corpus(
            skewed_corpus(300, seed=11), AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=2)
        )
        if resampled:
            dataset = smote(dataset, SmoteConfig(seed=0))
        cfg = RfConfig(n_trees=5, seed=3)
        assert_same_forest(rf_fit(dataset, cfg), oracle_fit(dataset, cfg))


def tree_depth(model) -> int:
    deepest, stack = 0, [(int(root), 0) for root in model.roots]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if model.feature[node] >= 0:
            stack += [(model.left[node], depth + 1), (model.right[node], depth + 1)]
    return deepest


class TestDeepFit:
    def test_chain_deeper_than_recursion_limit(self, tmp_path):
        # Alternating labels over distinct values: every best split peels off
        # one sample, so the tree is a chain about as deep as the data.
        n = 1500
        d = dataset_from_dense(np.arange(1.0, n + 1)[:, None], [i % 2 for i in range(n)], 2)
        rf = rf_fit(d, RfConfig(n_trees=1, bootstrap=False))
        assert tree_depth(rf) >= 1000
        probs = rf_predict_proba(rf, d)
        assert probs.argmax(axis=1).tolist() == d.labels.tolist()

        vocab = Vocabulary(["a"], {"a": 0}, 1, 0)
        archive = ModelArchive("en", AsciiPolicy.KEEP_MOST, vocab, meta_around(rf))
        archive_save(archive, tmp_path / "deep.bin")
        loaded = archive_load(tmp_path / "deep.bin").model.ensemble1.members[2]
        assert np.array_equal(loaded.predict_proba(d), probs)


def force(mp, gather=None, workers=None):
    """Make rf_fit read every node's rows, or every node's candidate columns,

    and grow its forest in up to `workers` processes.
    """
    if gather is not None:
        forced = lambda self, by_rows, by_columns: gather == "columns"
        mp.setattr(classifiers._TreeGrower, "_reads_columns", forced)
    if workers is not None:
        set_cpus(mp, workers)


class TestEveryPath:
    """Both gathers and any number of workers grow the oracle's trees."""

    @pytest.mark.parametrize("gather", ["rows", "columns"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(case=forest_cases(), n_trees=st.sampled_from([1, 2, 3, 20]))
    def test_small_datasets(self, gather, workers, case, n_trees):
        dataset, cfg = case
        cfg = dataclasses.replace(cfg, n_trees=n_trees)
        with pytest.MonkeyPatch.context() as mp:
            force(mp, gather, workers)
            model = rf_fit(dataset, cfg)
        assert_same_forest(model, oracle_fit(dataset, cfg))


def record_steps(mp, steps: list):
    """Append (the trees of its nodes, its entries) for every step scored from now on."""
    best_splits = classifiers._TreeGrower._best_splits

    def recording(self, step, entries):
        size = len(entries[0]) + len(step) * self.max_feats
        steps.append(([id(search.tree) for search in step], size))
        return best_splits(self, step, entries)

    mp.setattr(classifiers._TreeGrower, "_best_splits", recording)


class TestLockstep:
    """Trees grown in lockstep equal the oracle's at any step cap, and a step

    holds more entries than the cap only when it holds a single node.
    """

    @pytest.mark.parametrize("gather", ["rows", "columns"])
    @pytest.mark.parametrize("cap", ["one node", 50, "every tree"])
    @settings(max_examples=25, deadline=None)
    @given(case=forest_cases(), n_trees=st.sampled_from([1, 2, 3, 20]))
    def test_small_datasets(self, gather, cap, case, n_trees):
        dataset, cfg = case
        cfg = dataclasses.replace(cfg, n_trees=n_trees)
        limit = {"one node": 0, "every tree": 2**62}.get(cap, cap)
        steps = []
        with pytest.MonkeyPatch.context() as mp:
            force(mp, gather, workers=1)
            mp.setattr(classifiers, "STEP_ENTRIES", limit)
            record_steps(mp, steps)
            model = rf_fit(dataset, cfg)
        assert_same_forest(model, oracle_fit(dataset, cfg))
        for trees, size in steps:
            assert len(set(trees)) == len(trees)  # at most one node of each tree
            assert size <= limit or len(trees) == 1
        if cap == "one node":
            assert all(len(trees) == 1 for trees, _ in steps)
        if cap == "every tree":  # a tree leaves the steps only once it is grown
            assert all(set(a) >= set(b) for (a, _), (b, _) in zip(steps, steps[1:]))

    def test_steps_past_int16_candidate_keys(self):
        # 20 nodes of 2,000 candidates each: candidate keys past 2**15 in one step.
        rng = np.random.default_rng(4)
        dense = rng.integers(0, 3, size=(40, 2000)) * (rng.random((40, 2000)) < 0.01)
        d = dataset_from_dense(dense.astype(float), [int(v) for v in rng.integers(0, 3, 40)], 3)
        cfg = RfConfig(n_trees=20, max_features=2000, seed=9)
        forests, steps = [], []
        for limit in (0, 2**62):
            with pytest.MonkeyPatch.context() as mp:
                force(mp, workers=1)
                mp.setattr(classifiers, "STEP_ENTRIES", limit)
                record_steps(mp, steps)
                forests.append(rf_fit(d, cfg))
        assert max(len(trees) for trees, _ in steps) * 2000 > 2**15
        assert_same_forest(*forests)


def every_class_present(dataset):
    """The dataset with its labels renumbered over the classes that have rows,

    so that SMOTE can plan it.
    """
    present, labels = np.unique(dataset.labels, return_inverse=True)
    return with_labels(dataset, labels, len(present))


class TestPrefixes:
    """Forests grown in one pass on nested prefixes of a SMOTE set, whose first

    rows are the original ones, each equal the oracle's forest on its prefix,
    along every path, at any step cap.
    """

    @pytest.mark.parametrize("gather", ["rows", "columns"])
    @pytest.mark.parametrize("cap", ["one node", 50, "every tree"])
    @settings(max_examples=20, deadline=None)
    @given(case=forest_cases(), n_trees=st.sampled_from([1, 2, 3, 20]),
           workers=st.integers(1, 3), whole=st.booleans())
    def test_smote_prefixes(self, gather, cap, case, n_trees, workers, whole):
        dataset, cfg = case
        dataset = every_class_present(dataset)
        oversampled = smote(dataset, SmoteConfig(seed=cfg.seed))
        cfg = dataclasses.replace(cfg, n_trees=n_trees)
        sizes = [len(oversampled)] * 2 if whole else [len(dataset), len(oversampled)]
        limit = {"one node": 0, "every tree": 2**62}.get(cap, cap)
        steps = []
        with pytest.MonkeyPatch.context() as mp:
            force(mp, gather, workers)
            mp.setattr(classifiers, "STEP_ENTRIES", limit)
            record_steps(mp, steps)
            forests = classifiers.rf_fit_prefixes(oversampled, sizes, cfg)
        assert len(forests) == 2
        for forest, size in zip(forests, sizes):
            prefix = with_labels(oversampled.take(np.arange(size)), oversampled.labels[:size],
                                 oversampled.num_classes)
            assert_same_forest(forest, oracle_fit(prefix, cfg))
        for trees, size in steps:
            assert len(set(trees)) == len(trees)  # at most one node of each tree
            assert size <= limit or len(trees) == 1

    def test_nodes_read_their_prefix(self):
        _, d = vectorize_corpus(
            skewed_corpus(300, seed=11), AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=2)
        )
        oversampled = smote(d, SmoteConfig(seed=0))
        sizes = [len(d), len(oversampled)]
        row_nnz = np.diff(oversampled.indptr)
        col_nnz = [np.bincount(oversampled.indices[: oversampled.indptr[s]], minlength=d.dimension)
                   for s in sizes]
        forests, gather = collections.Counter(), classifiers._TreeGrower._gather

        def recording(self, step):
            for search in step:
                assert search.rows.max() < sizes[search.forest]
                by_rows = row_nnz[search.rows].sum()
                by_columns = col_nnz[search.forest][search.candidates].sum()
                assert search.reads == min(by_rows, by_columns)
                forests[search.forest, bool(search.by_columns)] += 1
            return gather(self, step)

        with pytest.MonkeyPatch.context() as mp:
            force(mp, workers=1)
            mp.setattr(classifiers._TreeGrower, "_gather", recording)
            classifiers.rf_fit_prefixes(oversampled, sizes, RfConfig(n_trees=5, seed=3))
        assert set(forests) == {(0, False), (0, True), (1, False), (1, True)}

    @pytest.mark.parametrize("size", [0, "past the end"])
    def test_sizes_checked(self, size):
        d = make_consistent_dataset(seed=2)
        size = len(d) + 1 if size == "past the end" else size
        with pytest.raises(ValueError, match="forest sizes"):
            classifiers.rf_fit_prefixes(d, [len(d), size])


def weighted(entries) -> collections.Counter:
    """(candidate place, value, row) -> total weight, of gathered entries."""
    cand, value, row, weight = entries
    weight = np.ones(len(cand), np.intp) if weight is None else weight
    out = collections.Counter()
    for key, w in zip(zip(cand.tolist(), value.tolist(), row.tolist()), weight.tolist()):
        out[key] += w
    return out


@st.composite
def gather_steps(draw):
    """A dataset (maybe with empty columns) and a step of 1 to 4 nodes, each

    a sorted sample of its rows with duplicates, F distinct candidates and
    a gather path.
    """
    V = draw(st.integers(1, 8))
    count = st.sampled_from([1.0, 2.0, 0.5]) | st.integers(1, 400).map(lambda i: i / 97)
    rows = draw(st.lists(st.dictionaries(st.integers(0, V - 1), count), min_size=1, max_size=12))
    dataset = with_labels(csr_from_rows([sorted(r.items()) for r in rows], V), [0] * len(rows), 2)
    F, n = draw(st.integers(1, V)), len(rows)
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        sample = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        candidates = draw(st.permutations(range(V)))[:F]
        nodes.append((np.sort(sample), np.array(candidates), draw(st.booleans())))
    return dataset, F, nodes


class TestStepGather:
    """One step's gather gives each node the entries, as (candidate, value,

    row) with row-path duplicates counted as weight, that each per-node
    gather it replaced (fit_oracle.py) gives it, and resets its scratch.
    """

    def assert_gathers_like_oracle(self, dataset, F, nodes):
        cfg = RfConfig(n_trees=len(nodes), max_features=F)
        grower = classifiers._TreeGrower(dataset, dataset.labels, dataset.num_classes, cfg)
        step = [classifiers._Search(None, None, rows, None, candidates, by_columns, 0)
                for rows, candidates, by_columns in nodes]
        g, value, row, weight = grower._gather(step)
        for i, (rows, candidates, _) in enumerate(nodes):
            mine = g // F == i
            got = weighted((g[mine] % F, value[mine], row[mine], weight[mine]))
            assert got == weighted(fit_oracle.row_entries(dataset, rows, candidates))
            assert got == weighted(fit_oracle.column_entries(dataset.transpose(), rows, candidates))
        assert not grower.slot.any() and not grower.copies.any()

    @settings(max_examples=200, deadline=None)
    @given(case=gather_steps())
    def test_small_steps(self, case):
        self.assert_gathers_like_oracle(*case)

    def test_steps_past_int16_candidate_keys(self):
        # 20 nodes of 2,000 candidates each, most of whose columns are empty.
        rng = np.random.default_rng(5)
        dense = rng.integers(0, 3, size=(40, 2000)) * (rng.random((40, 2000)) < 0.01)
        d = dataset_from_dense(dense.astype(float), [0] * 40, 2)
        sample = lambda: np.sort(rng.integers(0, 40, 40))
        nodes = [(sample(), rng.permutation(2000), i % 2 == 0) for i in range(20)]
        self.assert_gathers_like_oracle(d, 2000, nodes)

    def test_each_node_reads_the_smaller_path(self):
        _, d = vectorize_corpus(
            skewed_corpus(300, seed=11), AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=2)
        )
        d = smote(d, SmoteConfig(seed=0))
        row_nnz, col_nnz = np.diff(d.indptr), np.bincount(d.indices, minlength=d.dimension)
        paths, gather = [], classifiers._TreeGrower._gather

        def recording(self, step):
            for search in step:
                by_rows, by_columns = row_nnz[search.rows].sum(), col_nnz[search.candidates].sum()
                assert search.by_columns == (by_columns < by_rows)
                assert search.reads == min(by_rows, by_columns)
            paths.append({search.by_columns for search in step})
            return gather(self, step)

        with pytest.MonkeyPatch.context() as mp:
            force(mp, workers=1)
            mp.setattr(classifiers._TreeGrower, "_gather", recording)
            rf_fit(d, RfConfig(n_trees=5, seed=3))
        assert {True, False} in paths  # some steps mix the two paths

    @pytest.mark.parametrize("gather", ["rows", "columns"])
    def test_force_reads_one_path(self, gather):
        calls = collections.Counter()
        with pytest.MonkeyPatch.context() as mp:
            force(mp, gather, workers=1)
            for name in ("_row_entries", "_column_entries"):
                def counted(self, *args, read=getattr(classifiers._TreeGrower, name), name=name):
                    calls[name] += 1
                    return read(self, *args)

                mp.setattr(classifiers._TreeGrower, name, counted)
            rf_fit(make_consistent_dataset(seed=1), RfConfig(n_trees=3, seed=1))
        assert set(calls) == {"_row_entries" if gather == "rows" else "_column_entries"}


def first_run(monkeypatch, in_parent=None, in_worker=None):
    """Make each process call its action before growing its share of trees."""
    parent, grow = os.getpid(), classifiers._TreeGrower.grow

    def patched(self, trees):
        action = in_parent if os.getpid() == parent else in_worker
        if action is not None:
            action()
        return grow(self, trees)

    monkeypatch.setattr(classifiers._TreeGrower, "grow", patched)


class TestWorkers:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_trees", [1, 2, 5])
    def test_one_worker_per_cpu_at_most_one_per_tree(self, monkeypatch, cpus, n_trees):
        d = make_consistent_dataset(seed=1)
        force(monkeypatch, workers=cpus)
        pids = record_forks(monkeypatch)
        model = rf_fit(d, RfConfig(n_trees=n_trees, seed=2))
        assert len(pids) + 1 == min(cpus, n_trees)
        assert len(model.roots) == n_trees
        assert_reaped(pids)

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert classifiers._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert classifiers._usable_cpus() == 3

    @pytest.mark.parametrize("reason", ["no fork", "one cpu", "one tree"])
    def test_serial_fallback(self, monkeypatch, reason):
        d = make_consistent_dataset(seed=6)
        cfg = RfConfig(n_trees=1 if reason == "one tree" else 4, seed=5)
        set_cpus(monkeypatch, 1 if reason == "one cpu" else 3)
        if reason == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", lambda: raise_(AssertionError("forked")))
        assert_same_forest(rf_fit(d, cfg), oracle_fit(d, cfg))

    @pytest.mark.parametrize("exc, raised", [
        (MemoryError(), MemoryError),
        (ValueError("bad"), ValueError),
        (ValueError(lambda: 0), RuntimeError),  # does not pickle: sent as its repr
    ])
    def test_worker_exception_raised_in_parent(self, monkeypatch, exc, raised):
        force(monkeypatch, workers=3)
        pids = record_forks(monkeypatch)
        first_run(monkeypatch, in_worker=lambda: raise_(exc))
        with pytest.raises(raised):
            rf_fit(make_consistent_dataset(seed=8), RfConfig(n_trees=6))
        assert len(pids) == 2
        assert_reaped(pids)

    def test_killed_worker_raises(self, monkeypatch):
        force(monkeypatch, workers=3)
        pids = record_forks(monkeypatch)
        first_run(monkeypatch, in_worker=lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=f"signal {int(signal.SIGKILL)}"):
            rf_fit(make_consistent_dataset(seed=8), RfConfig(n_trees=6))
        assert_reaped(pids)

    def test_parent_failure_kills_and_reaps_workers(self, monkeypatch):
        force(monkeypatch, workers=3)
        pids = record_forks(monkeypatch)
        first_run(
            monkeypatch, in_parent=lambda: raise_(KeyboardInterrupt()),
            in_worker=lambda: time.sleep(60),
        )
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            rf_fit(make_consistent_dataset(seed=8), RfConfig(n_trees=6))
        assert time.monotonic() - start < 30
        assert len(pids) == 2
        assert_reaped(pids)

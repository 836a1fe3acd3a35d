from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emojivote import resample
from emojivote.exceptions import DataError
from emojivote.features import CsrMatrix
from emojivote.resample import (
    ResamplePlan,
    SmoteConfig,
    _bulk_draws,
    _interpolate,
    nearest_neighbors,
    plan_resample,
    smote,
)

from helpers import csr_from_dense, csr_from_rows, dataset_from_dense, rows_of, same, to_dense, with_labels
from smote_oracle import nearest_neighbors as oracle_nearest_neighbors
from smote_oracle import smote as oracle_smote


# Oracle tests patch the k-NN down to this budget, under which a class of
# 3 * BLOCK_ROWS rows gets BLOCK_ROWS query rows per block, and to
# SMALL_FREQUENT dense columns, so that their few columns still leave a
# pair-summed tail.
BLOCK_ROWS = 16
SMALL_CELLS = 3 * BLOCK_ROWS**2
SMALL_FREQUENT = 2


@contextmanager
def small_knn(frequent=SMALL_FREQUENT, cells=SMALL_CELLS):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resample, "FREQUENT_COLUMNS", frequent)
        mp.setattr(resample, "KNN_CELLS", cells)
        yield


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
            with small_knn(frequent=1):
                got = nearest_neighbors(csr_from_dense(pts), k).tolist()
            for i in range(n):
                dists = sorted(
                    (float(((pts[j] - pts[i]) ** 2).sum()), j) for j in range(n) if j != i
                )
                assert got[i] == [j for _, j in dists[:k]]

    def test_self_excluded(self):
        pts = np.zeros((3, 2))
        got = nearest_neighbors(csr_from_dense(pts), 2)
        assert got.shape == (3, 2) and got.dtype == np.intp
        assert 0 not in got[0].tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        frequent=st.sampled_from([0, 1, 2, 64]),
        cells=st.sampled_from([1, 7, SMALL_CELLS, 1 << 16]),
        data=st.data(),
    )
    def test_first_rows_are_a_prefix(self, seed, n, frequent, cells, data):
        rng = np.random.default_rng(seed)
        points = csr_from_dense(rng.poisson(0.7, size=(n, 4)).astype(float))
        k = data.draw(st.integers(1, n + 1), label="k")
        first = data.draw(st.integers(0, n + 2), label="first")
        with small_knn(frequent, cells):
            got = nearest_neighbors(points, k, first)
            assert got.tolist() == nearest_neighbors(points, k)[:first].tolist()
            assert got.shape == (min(first, n), min(k, n))


class TestSmote:
    def test_interpolation_on_segment(self):
        d = dataset_from_dense(
            np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            [0, 0, 1, 1, 1],
            2,
        )
        out = smote(d, SmoteConfig(k_neighbors=1, seed=0))
        synth = to_dense(out)[len(d):]
        assert out.labels[len(d):].tolist() == [0]
        (dense,) = synth
        assert dense[0] == pytest.approx(dense[1])  # on the segment (t, t)
        assert 0.0 <= dense[0] <= 2.0

    def test_balanced_input_unchanged(self):
        d = skewed_dataset(counts=(3, 3))
        out = smote(d, SmoteConfig(seed=0))
        assert same(out, d)

    def test_exact_balance(self):
        for seed in range(3):
            d = skewed_dataset(seed=seed, counts=(15, 6, 3, 1))
            out = smote(d, SmoteConfig(seed=seed))
            assert Counter(out.labels.tolist()) == {c: 15 for c in range(4)}

    def test_originals_preserved_as_prefix(self):
        d = skewed_dataset()
        out = smote(d, SmoteConfig(seed=1))
        assert rows_of(out)[: len(d)] == rows_of(d)
        assert out.labels[: len(d)].tolist() == d.labels.tolist()

    def test_convexity_and_nonnegativity(self):
        d = skewed_dataset(seed=2, counts=(10, 4, 2))
        out = smote(d, SmoteConfig(seed=2))
        originals = {c: [r for r, l in zip(to_dense(d), d.labels) if l == c] for c in range(3)}
        for dense, lab in zip(to_dense(out)[len(d):], out.labels[len(d):]):
            assert np.all(dense >= 0)
            lo = np.min(originals[lab], axis=0)
            hi = np.max(originals[lab], axis=0)
            assert np.all(dense >= lo - 1e-12)
            assert np.all(dense <= hi + 1e-12)

    def test_determinism(self):
        d = skewed_dataset(seed=5)
        assert same(smote(d, SmoteConfig(seed=9)), smote(d, SmoteConfig(seed=9)))

    def test_singleton_class_duplicated(self):
        d = dataset_from_dense(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 3.0]]), [0, 0, 1], 2)
        out = smote(d, SmoteConfig(seed=0))
        assert rows_of(out)[3] == rows_of(d)[2]
        assert out.labels.tolist() == [0, 0, 1, 1]

    def test_no_matrix_built_per_knn_block(self, monkeypatch):
        d = skewed_dataset(seed=4, counts=(12, 5, 2))
        validate, built = CsrMatrix.__post_init__, []

        def counting(self):
            built.append(len(self))
            validate(self)

        monkeypatch.setattr(CsrMatrix, "__post_init__", counting)
        smote(d, SmoteConfig(seed=4))  # one k-NN block per class
        one_block = len(built)
        monkeypatch.setattr(resample, "KNN_CELLS", 1)  # one query row per block: 5 + 2 blocks
        smote(d, SmoteConfig(seed=4))
        assert len(built) == 2 * one_block

    def test_k_capped_at_class_size_minus_one(self):
        d = dataset_from_dense(
            np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [10.0]]), [0, 0, 0, 0, 0, 1], 2
        )
        out = smote(d, SmoteConfig(k_neighbors=50, seed=0))  # class 1 has 1 member
        assert Counter(out.labels.tolist()) == {0: 5, 1: 5}


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
    dataset = with_labels(
        csr_from_rows([[(i, float(c)) for i, c in sorted(r.items())] for r in rows], V),
        [classes.index(lab) for lab in drawn], len(classes),
    )
    return dataset, SmoteConfig(k_neighbors=draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**16)))


class TestOracle:
    """smote and nearest_neighbors equal the dense versions they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        case=count_datasets(),
        frequent=st.sampled_from([0, 1, SMALL_FREQUENT, 64]),
        cells=st.sampled_from([1, SMALL_CELLS, 1 << 16]),
    )
    def test_small_datasets(self, case, frequent, cells):
        dataset, cfg = case
        with small_knn(frequent, cells):
            assert same(smote(dataset, cfg), oracle_smote(dataset, cfg))

    @pytest.mark.parametrize("counts, k", [
        ((4, 4, 4), 5),  # already balanced
        ((9, 1, 1), 5),  # singleton classes
        ((12, 3, 2), 7),  # k at least the class size
        # class 1 has 3 * BLOCK_ROWS rows, and its 2 * BLOCK_ROWS + 7 parents
        # take more than two k-NN blocks
        ((5 * BLOCK_ROWS + 7, 3 * BLOCK_ROWS, 5), 5),
    ])
    def test_edge_cases(self, counts, k):
        rng = np.random.default_rng(len(counts) + k)
        labels = [c for c, n in enumerate(counts) for _ in range(n)]
        rng.shuffle(labels)
        X = rng.poisson(0.6, size=(len(labels), 6)).astype(float)
        d = dataset_from_dense(X, labels, len(counts))
        cfg = SmoteConfig(k_neighbors=k, seed=3)
        with small_knn():
            assert same(smote(d, cfg), oracle_smote(d, cfg))

    def test_rejected_draw_falls_back_to_row_by_row(self, monkeypatch):
        monkeypatch.setattr(resample, "_bulk_draws", lambda rng, k, quota: None)
        for seed, k in [(0, 1), (1, 3), (2, 5), (3, 7)]:
            d = skewed_dataset(seed=seed, counts=(15, 6, 3, 1, 9))
            cfg = SmoteConfig(k_neighbors=k, seed=seed)
            assert same(smote(d, cfg), oracle_smote(d, cfg))

    def test_interpolate_drops_exact_zeros(self):
        # g = 0 zeroes the neighbor-only feature 1 (0 + 0 * (2 - 0))
        points = csr_from_dense([[1.0, 0.0], [0.0, 2.0]])
        (row,) = rows_of(_interpolate(points, np.array([0]), np.array([1]), np.array([0.0])))
        assert row == ((0, 1.0),)

    def test_nearest_neighbors_tie_heavy_blocks(self):
        rng = np.random.default_rng(12)
        pts = rng.integers(0, 2, size=(3 * BLOCK_ROWS + 5, 3)).astype(float)
        for k in (1, 4, len(pts) - 1, len(pts) + 2):
            with small_knn():
                got = nearest_neighbors(csr_from_dense(pts), k).tolist()
                assert got == oracle_nearest_neighbors(pts, k)


def round_by_round(seed, k: int, quota: int):
    """The draws `smote` reproduces: rng.integers(k), then rng.random(), per row."""
    rng = np.random.default_rng(seed)
    rounds = [(rng.integers(k), rng.random()) for _ in range(quota)]
    return [p for p, _ in rounds], [g for _, g in rounds]


class FixedWords:
    """A stand-in Generator whose bit generator returns the given words, cycled."""

    def __init__(self, words):
        self.bit_generator = SimpleNamespace(
            random_raw=lambda n: np.resize(np.array(words, dtype=np.uint64), n)
        )


class TestDraws:
    """The bulk draws equal numpy's own calls on the same PCG64 stream."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.integers(0, 19),
        k=st.integers(1, 7),
        quota=st.integers(1, 41),
    )
    @example(seed=0, c=0, k=6, quota=1)
    @example(seed=1, c=2, k=7, quota=2)
    @example(seed=2, c=5, k=1, quota=3)
    def test_bulk_equals_round_by_round(self, seed, c, k, quota):
        picks, gaps = _bulk_draws(np.random.default_rng([seed, c]), k, quota)
        assert picks.dtype == np.intp
        assert (picks.tolist(), gaps.tolist()) == round_by_round([seed, c], k, quota)

    # Lemire's method draws again when (x k) mod 2^32 < (2^32 - k) mod k: for
    # k = 3 that is x = 0 alone; for k = 6 and 7 it takes x * k just past 2^32.
    @pytest.mark.parametrize("k, x, rejected", [
        (3, 0, True), (3, 1, False),
        (6, 715827883, True), (6, 715827882, False),
        (7, 613566757, True), (7, 613566756, False),
        (4, 0, False),  # a power of two never draws again
    ])
    @pytest.mark.parametrize("row", [0, 1])  # the low half of a word, then its high half
    def test_rejection_detected(self, k, x, rejected, row):
        words = [x << (32 * row) | (12345 << (32 * (1 - row))), 7, 9]
        got = _bulk_draws(FixedWords(words), k, 2)
        assert (got is None) == rejected
        if not rejected:
            assert got[0][row] == x * k >> 32

"""Batched prediction: a batch predicts exactly what its rows predict one by
one, for every model and vote level, and the packed forest handles trees far
deeper than Python's recursion limit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emojivote.archive import ModelArchive, archive_load, archive_save
from emojivote.classifiers import (
    LrConfig,
    MnbModel,
    RfConfig,
    RfModel,
    _sigmoid,
    rf_predict_proba,
)
from emojivote.corpus import RawCorpus
from emojivote.ensemble import SELECTORS, build_meta, select
from emojivote.features import (
    CsrMatrix,
    FeatureConfig,
    Vocabulary,
    from_entries,
    vectorize_corpus,
)
from emojivote.preprocess import AsciiPolicy
from emojivote.resample import SmoteConfig

from helpers import csr_from_rows, meta_around, rows_of, same, to_dense
from rf_oracle import TreeNode, pack


@pytest.fixture(scope="module")
def meta():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(10)]
    texts = [" ".join(rng.choice(words, size=4)) for _ in range(60)]
    labels = [int(v) for v in rng.integers(0, 4, 60)]
    _, dataset = vectorize_corpus(
        RawCorpus(texts, labels, 4), AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=2)
    )
    return build_meta(
        dataset,
        smote_cfg=SmoteConfig(seed=0),
        meta_weights=(4.0, 1.0),
        base_weights=(1.5, 6.0, 1.0),
        lr_cfg=LrConfig(max_iters=30),
        rf_cfg=RfConfig(n_trees=4, seed=0),
    )


def rows_strategy(dim):
    # A row is a few (index, count) pairs; an empty list is an all-OOV row.
    count = st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.75])
    row = st.lists(st.tuples(st.integers(0, dim - 1), count), max_size=6)
    return st.lists(row, min_size=1, max_size=12).map(
        lambda rows: [sorted(dict(r).items()) for r in rows]
    )


def loop_proba(model, x: list[tuple[int, float]]) -> np.ndarray:
    """The per-row loops that batched prediction replaced, kept as the reference."""
    if isinstance(model, RfModel):
        (dense,) = to_dense(csr_from_rows([x], model.dimension))
        acc = np.zeros(model.num_classes)
        for node in model.roots:
            while model.feature[node] >= 0:
                go_left = dense[model.feature[node]] <= model.threshold[node]
                node = model.left[node] if go_left else model.right[node]
            acc += model.counts[node] / model.counts[node].sum()
        return acc / len(model.roots)
    mnb = isinstance(model, MnbModel)
    z = (model.log_priors if mnb else model.intercepts).copy()
    for idx, cnt in x:
        z += cnt * (model.log_likelihoods if mnb else model.weights)[:, idx]
    p = np.exp(z - z.max()) if mnb else _sigmoid(z)
    return p / p.sum()


class TestBatchEqualsRows:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_selector(self, meta, data):
        dim = meta.ensemble1.members[0].dimension
        rows = data.draw(rows_strategy(dim))
        X = csr_from_rows(rows, dim)
        for selector in SELECTORS:
            predictor = select(meta, selector)
            batch = predictor.predict_proba(X)
            one_by_one = np.concatenate([predictor.predict_proba(csr_from_rows([r], dim)) for r in rows])
            assert batch.shape == (len(rows), 4)
            assert np.array_equal(batch, one_by_one), selector
            if selector in ("ensemble1", "ensemble2", "meta"):
                assert np.array_equal(predictor.predict(X), batch.argmax(axis=1))
            else:
                reference = np.stack([loop_proba(predictor, r) for r in rows])
                assert np.array_equal(batch, reference), selector

    def test_zero_rows(self, meta):
        dim = meta.ensemble1.members[0].dimension
        X = csr_from_rows([], dim)
        assert len(X) == 0
        for selector in SELECTORS:
            assert select(meta, selector).predict_proba(X).shape == (0, 4)

    def test_batch_dimension_mismatch(self, meta):
        dim = meta.ensemble1.members[0].dimension
        X = csr_from_rows([()], dim + 1)
        for selector in ("mnb", "lr", "rf"):
            with pytest.raises(ValueError):
                select(meta, selector).predict_proba(X)


@st.composite
def row_selections(draw):
    """Rows of {column: count} over 5 columns, some empty, and a selection of

    them in any order, repeats allowed, possibly empty.
    """
    counts = st.dictionaries(st.integers(0, 4), st.integers(1, 3).map(float))
    rows = draw(st.lists(counts, min_size=1, max_size=8))
    return rows, draw(st.lists(st.integers(0, len(rows) - 1), max_size=12))


class TestCsrMatrix:
    def test_from_rows_layout(self):
        rows = [((1, 2.0), (3, 1.0)), (), ((0, 0.5),)]
        X = csr_from_rows(rows, 5)
        assert X.indptr.tolist() == [0, 2, 2, 3]
        assert X.indices.tolist() == [1, 3, 0]
        assert X.data.tolist() == [2.0, 1.0, 0.5]
        assert X.row_ids().tolist() == [0, 0, 2]

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 2]), np.array([1]), np.array([1.0]), 3)
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]), 3)

    @pytest.mark.parametrize("indptr, indices", [
        ([0, 1, 2], [0, 3]),  # == dimension, in the last row
        ([0, 1, 2], [3, 0]),  # == dimension, before a row that starts at 0
        ([0, 2, 2], [-1, 2]),
    ])
    def test_index_out_of_range_rejected(self, indptr, indices):
        with pytest.raises(ValueError, match="dimension"):
            CsrMatrix(np.array(indptr), np.array(indices), np.ones(2), 3)

    @pytest.mark.parametrize("indptr, indices", [
        ([0, 2, 3], [2, 1, 0]),
        ([0, 2, 3], [1, 1, 0]),  # a repeated index
        ([0, 1, 3], [2, 1, 0]),  # in the row after a boundary
    ])
    def test_index_not_increasing_within_row_rejected(self, indptr, indices):
        with pytest.raises(ValueError, match="increase"):
            CsrMatrix(np.array(indptr), np.array(indices), np.ones(3), 3)

    def test_index_decrease_across_rows_accepted(self):
        # rows [1, 2], [], [0]: the step from 2 to 0 crosses a row boundary
        X = CsrMatrix(np.array([0, 2, 2, 3]), np.array([1, 2, 0]), np.ones(3), 3)
        assert X.row_ids().tolist() == [0, 0, 2]

    def test_take_gathers_rows_in_order(self):
        rows = [((1, 2.0), (3, 1.0)), (), ((0, 0.5),)]
        X = csr_from_rows(rows, 5).take(np.array([2, 0, 1, 2]))
        assert X.indptr.tolist() == [0, 1, 3, 3, 4]
        assert X.indices.tolist() == [0, 1, 3, 0]
        assert X.data.tolist() == [0.5, 2.0, 1.0, 0.5]

    @settings(max_examples=200, deadline=None)
    @given(case=row_selections())
    @example(case=([{0: 1.0}, {}, {2: 2.0, 4: 1.0}], [2, 2, 1, 0, 2]))  # repeats, empty, last
    @example(case=([{1: 1.0}, {}], []))  # an empty selection
    def test_positions_and_from_entries_equal_row_slices(self, case):
        rows, selection = case
        X = csr_from_rows([sorted(r.items()) for r in rows], 5)
        owner, pos = X.positions(np.array(selection, dtype=np.intp))
        slices = [range(X.indptr[r], X.indptr[r + 1]) for r in selection]
        assert owner.tolist() == [i for i, s in enumerate(slices) for _ in s]
        assert pos.tolist() == [p for s in slices for p in s]
        Y = from_entries(owner, X.indices[pos], X.data[pos], len(selection), X.dimension)
        assert rows_of(Y) == [rows_of(X)[r] for r in selection]
        assert same(Y, X.take(np.array(selection, dtype=np.intp)))

    def test_transpose_lists_each_column_in_row_order(self):
        rows = [((1, 2.0), (3, 1.0)), (), ((0, 0.5), (3, 4.0))]
        X = csr_from_rows(rows, 5)
        T = X.transpose()
        assert (len(T), T.dimension) == (5, 3)
        assert T.indptr.tolist() == [0, 1, 2, 2, 4, 4]
        assert T.indices.tolist() == [2, 0, 0, 2]
        assert T.data.tolist() == [0.5, 2.0, 1.0, 4.0]
        back = T.transpose()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back, name), getattr(X, name))


def deep_chain(depth: int) -> TreeNode:
    """A tree that splits on feature 0 at thresholds 0.5, 1.5, ...: a row

    with x0 = c (integer c < depth) stops at depth c, in a left leaf with
    counts (1, c); larger x0 reaches the deepest leaf, counts (0, 1).
    """
    node = TreeNode(counts=np.array([0.0, 1.0]))
    for d in reversed(range(depth)):
        leaf = TreeNode(counts=np.array([1.0, float(d)]))
        node = TreeNode(feature=0, threshold=d + 0.5, left=leaf, right=node)
    return node


def walk(node: TreeNode, x0: float) -> np.ndarray:
    while node.counts is None:
        node = node.left if x0 <= node.threshold else node.right
    return node.counts / node.counts.sum()


class TestDeepTree:
    DEPTH = 2000

    def test_pack_predict_round_trip(self, tmp_path):
        tree = deep_chain(self.DEPTH)
        rf = pack([tree], dimension=2, num_classes=2)
        assert len(rf.feature) == 2 * self.DEPTH + 1
        values = [0.0, 3.0, 1999.0, 2500.0]
        rows = [((0, v),) if v else () for v in values]
        X = csr_from_rows(rows, 2)
        probs = rf_predict_proba(rf, X)
        assert np.array_equal(probs, np.stack([walk(tree, v) for v in values]))
        assert probs[-1].tolist() == [0.0, 1.0]

        vocab = Vocabulary(["a", "b"], {"a": 0, "b": 1}, 2, 0)
        archive = ModelArchive("en", AsciiPolicy.KEEP_MOST, vocab, meta_around(rf))
        archive_save(archive, tmp_path / "deep.bin")
        loaded = archive_load(tmp_path / "deep.bin")
        assert np.array_equal(loaded.model.ensemble1.members[2].predict_proba(X), probs)

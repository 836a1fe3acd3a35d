import hashlib

import numpy as np
import pytest

from emojivote.archive import ModelArchive, archive_load, archive_save
from emojivote.classifiers import LrConfig, RfConfig
from emojivote.cli import main
from emojivote.ensemble import build_meta
from emojivote.exceptions import (
    ArchiveChecksumError,
    ArchiveTruncatedError,
    ArchiveVersionError,
)
from emojivote.features import FeatureConfig, SparseCountVector, vectorize_corpus
from emojivote.corpus import RawCorpus
from emojivote.preprocess import AsciiPolicy
from emojivote.resample import SmoteConfig


@pytest.fixture(scope="module")
def trained_archive():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(8)]
    texts = [" ".join(rng.choice(words, size=4)) for _ in range(40)]
    labels = [int(v) for v in rng.integers(0, 3, 40)]
    corpus = RawCorpus(texts, labels, 3)
    vocab, dataset = vectorize_corpus(corpus, AsciiPolicy.KEEP_MOST, FeatureConfig(min_df=2))
    model = build_meta(
        dataset,
        smote_cfg=SmoteConfig(seed=0),
        meta_weights=(4.0, 1.0),
        base_weights=(1.5, 6.0, 1.0),
        lr_cfg=LrConfig(max_iters=30),
        rf_cfg=RfConfig(n_trees=3, seed=0),
    )
    return ModelArchive(
        language="en",
        policy=AsciiPolicy.KEEP_MOST,
        vocabulary=vocab,
        model=model,
        metadata={"seed": 0},
    )


def random_inputs(dim, n=100, seed=7):
    rng = np.random.default_rng(seed)
    return [
        SparseCountVector.from_dense(rng.poisson(0.8, dim).astype(float)) for _ in range(n)
    ]


class TestRoundTrip:
    def test_predictions_identical(self, trained_archive, tmp_path):
        path = tmp_path / "m.bin"
        archive_save(trained_archive, path)
        loaded = archive_load(path)
        assert loaded.language == "en"
        assert loaded.policy is AsciiPolicy.KEEP_MOST
        assert loaded.metadata == {"seed": 0}
        assert loaded.vocabulary == trained_archive.vocabulary
        for x in random_inputs(trained_archive.vocabulary.size):
            assert np.array_equal(
                loaded.model.predict_proba(x), trained_archive.model.predict_proba(x)
            )

    def test_save_is_deterministic(self, trained_archive, tmp_path):
        archive_save(trained_archive, tmp_path / "a.bin")
        archive_save(trained_archive, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestCorruption:
    def test_corrupted_payload_byte(self, trained_archive, tmp_path):
        path = tmp_path / "m.bin"
        archive_save(trained_archive, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveChecksumError):
            archive_load(path)

    def test_future_version(self, trained_archive, tmp_path):
        path = tmp_path / "m.bin"
        archive_save(trained_archive, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version byte follows the 4-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveVersionError):
            archive_load(path)

    def test_version_1_rejected(self, trained_archive, tmp_path):
        # Version 1 archives pickled linked trees; loading one must fail cleanly
        # (exit 2 from the CLI), not later at predict time.
        path = tmp_path / "m.bin"
        archive_save(trained_archive, path)
        body = bytearray(path.read_bytes()[:-32])
        body[4] = 1  # with a valid checksum, only the version is wrong
        path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
        with pytest.raises(ArchiveVersionError):
            archive_load(path)
        text = tmp_path / "t.txt"
        text.write_text("w1 w2\n")
        assert main(["predict", str(path), str(text)]) == 2

    def test_bad_magic(self, trained_archive, tmp_path):
        path = tmp_path / "m.bin"
        archive_save(trained_archive, path)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveVersionError):
            archive_load(path)

    def test_truncation(self, trained_archive, tmp_path):
        path = tmp_path / "m.bin"
        archive_save(trained_archive, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(ArchiveTruncatedError):
            archive_load(path)

    def test_far_too_short(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"EMOV")
        with pytest.raises(ArchiveTruncatedError):
            archive_load(path)

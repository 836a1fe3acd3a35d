import copy
import dataclasses
import hashlib
import json
import pickle
import re
import struct

import numpy as np
import pytest

from emojivote.archive import FORMAT_VERSION, MAGIC, ModelArchive, archive_load, archive_save
from emojivote.classifiers import LrConfig, RfConfig
from emojivote.cli import main
from emojivote.ensemble import build_meta
from emojivote.exceptions import (
    ArchiveChecksumError,
    ArchiveError,
    ArchiveTruncatedError,
    ArchiveVersionError,
    DataError,
)
from emojivote.features import FeatureConfig, vectorize_corpus
from emojivote.corpus import RawCorpus
from emojivote.preprocess import AsciiPolicy
from emojivote.resample import SmoteConfig

from helpers import csr_from_dense


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
    return [csr_from_dense([rng.poisson(0.8, dim).astype(float)]) for _ in range(n)]


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

    @pytest.mark.parametrize("where", ["missing directory", "a directory"])
    def test_unwritable_path_is_a_data_error_naming_it(self, trained_archive, tmp_path, where):
        path = tmp_path / "missing" / "m.bin" if where == "missing directory" else tmp_path
        before = sorted(tmp_path.iterdir())
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            archive_save(trained_archive, path)
        assert sorted(tmp_path.iterdir()) == before  # no temporary file left behind

    def test_streamed_file_equals_concatenated_layout(self, trained_archive, tmp_path):
        # magic, version, three length-prefixed sections, then the SHA-256 of all that
        header = {"language": "en", "policy": AsciiPolicy.KEEP_MOST.value, "metadata": {"seed": 0}}
        body = MAGIC + bytes([FORMAT_VERSION])
        for payload in (
            json.dumps(header, sort_keys=True).encode("utf-8"),
            pickle.dumps(trained_archive.vocabulary, protocol=4),
            pickle.dumps(trained_archive.model, protocol=4),
        ):
            body += struct.pack("<Q", len(payload)) + payload
        body += hashlib.sha256(body).digest()
        archive_save(trained_archive, tmp_path / "m.bin")
        assert (tmp_path / "m.bin").read_bytes() == body
        assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]  # no temp file left


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


def write_sections(path, header, vocabulary, model):
    """A well-checksummed archive of the current version holding these raw sections."""
    body = MAGIC + bytes([FORMAT_VERSION])
    for payload in (header, vocabulary, model):
        body += struct.pack("<Q", len(payload)) + payload
    path.write_bytes(body + hashlib.sha256(body).digest())


def json_header(**changes) -> bytes:
    header = {"language": "en", "policy": AsciiPolicy.KEEP_MOST.value, "metadata": {}}
    header.update(changes)
    return json.dumps({key: value for key, value in header.items() if value is not None}).encode()


MALFORMED = {  # name: (header, vocabulary, model); None keeps the trained archive's section
    "header not JSON": (b"{not json", None, None),
    "header not UTF-8": (b"\xff\xfe{}", None, None),
    "header not an object": (b'"language policy metadata"', None, None),
    "header without language": (json_header(language=None), None, None),
    "header without policy": (json_header(policy=None), None, None),
    "unknown policy": (json_header(policy="drop-everything"), None, None),
    "vocabulary does not unpickle": (None, b"not a pickle", None),
    "model pickle cut short": (None, None, pickle.dumps({"a": 1}, protocol=4)[:-3]),
    "model pickle of a missing class": (None, None, b"\x80\x04cemojivote.ensemble\nNoSuchSpec\n."),
    "model of another type": (None, None, pickle.dumps({"not": "a model"}, protocol=4)),
}


class TestMalformedSections:
    """Well-checksummed archives whose sections are malformed raise ArchiveError."""

    def sections(self, trained_archive, header, vocabulary, model):
        return (
            header or json_header(),
            vocabulary or pickle.dumps(trained_archive.vocabulary, protocol=4),
            model or pickle.dumps(trained_archive.model, protocol=4),
        )

    def test_well_formed_sections_load(self, trained_archive, tmp_path):
        write_sections(tmp_path / "m.bin", *self.sections(trained_archive, None, None, None))
        assert archive_load(tmp_path / "m.bin").policy is AsciiPolicy.KEEP_MOST

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_raises_archive_error(self, trained_archive, tmp_path, kind):
        write_sections(tmp_path / "m.bin", *self.sections(trained_archive, *MALFORMED[kind]))
        with pytest.raises(ArchiveError):
            archive_load(tmp_path / "m.bin")

    def test_predict_exits_2(self, trained_archive, tmp_path, capsys):
        malformed = self.sections(trained_archive, *MALFORMED["header not JSON"])
        write_sections(tmp_path / "m.bin", *malformed)
        text = tmp_path / "t.txt"
        text.write_text("w1 w2\n")
        assert main(["predict", str(tmp_path / "m.bin"), str(text)]) == 2
        assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("part, weights", [
    ("meta", (float("nan"), 1.0)),
    ("ensemble1", (1.5, float("inf"), 1.0)),
    ("ensemble2", (1.5, 6.0, 0.0)),
])
def test_bad_vote_weight_is_an_archive_error(trained_archive, tmp_path, capsys, part, weights):
    # A vote checks its weights as it unpickles, so a bad one fails the load.
    meta = copy.copy(trained_archive.model)
    spec = meta if part == "meta" else copy.copy(getattr(meta, part))
    object.__setattr__(spec, "weights", weights)
    if spec is not meta:
        object.__setattr__(meta, part, spec)
    archive_save(dataclasses.replace(trained_archive, model=meta), tmp_path / "m.bin")
    with pytest.raises(ArchiveError, match="weights"):
        archive_load(tmp_path / "m.bin")
    text = tmp_path / "t.txt"
    text.write_text("w1 w2\n")
    assert main(["predict", str(tmp_path / "m.bin"), str(text)]) == 2
    assert "internal error" not in capsys.readouterr().err

import copy
import dataclasses
import hashlib
import json
import pickle
import re
import struct
import tracemalloc

import numpy as np
import pytest

from emojivote.archive import FORMAT_VERSION, MAGIC, ModelArchive, archive_load, archive_save
from emojivote.classifiers import LrConfig, RfConfig, rf_fit
from emojivote.cli import main
from emojivote.ensemble import EnsembleSpec, build_meta
from emojivote.exceptions import (
    ArchiveChecksumError,
    ArchiveError,
    ArchiveTruncatedError,
    ArchiveVersionError,
    DataError,
)
from emojivote.features import FeatureConfig, Vocabulary, vectorize_corpus
from emojivote.corpus import RawCorpus
from emojivote.preprocess import AsciiPolicy
from emojivote.resample import SmoteConfig

from helpers import csr_from_dense, dataset_from_dense, meta_around, skewed_corpus


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

    def test_load_peak_memory_near_the_file_size(self, tmp_path):
        # The file is read once and its sections unpickled in place, so the load
        # holds about the file and the model it unpickles. The fixture's 16 kB
        # archive is too small: fixed costs dominate it. This one is about 340 kB.
        corpus, policy = skewed_corpus(200, seed=3), AsciiPolicy.KEEP_MOST
        vocab, dataset = vectorize_corpus(corpus, policy, FeatureConfig(min_df=2))
        model = build_meta(
            dataset, SmoteConfig(seed=0), (4.0, 1.0), (1.5, 6.0, 1.0), lr_cfg=LrConfig(max_iters=30)
        )
        path = tmp_path / "m.bin"
        archive_save(ModelArchive("en", policy, vocab, model), path)
        archive_load(path)  # first-call imports, outside the trace
        tracemalloc.start()
        try:
            archive_load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * path.stat().st_size


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


def vocabulary(index=None, features=None, num_unigrams=2, num_bigrams=1) -> bytes:
    """A pickled vocabulary; the defaults give a valid one of two unigrams and a bigram."""
    index = {"a": 0, "b": 1, "a b": 2} if index is None else index
    features = ["a", "b", "a b"] if features is None else features
    return pickle.dumps(Vocabulary(features, index, num_unigrams, num_bigrams), protocol=4)


BAD_VOCABULARIES = {  # name: (pickled vocabulary, what the error says)
    "feature not a string": (vocabulary({"a": 0, b"b": 1, "a b": 2}), "feature is not a string"),
    "column not an integer": (vocabulary({"a": 0, "b": "x", "a b": 2}), "column is not an integer"),
    "column a bool": (vocabulary({"a": 0, "b": True, "a b": 2}), "column is not an integer"),
    "column out of range": (vocabulary({"a": 0, "b": 1, "a b": 3}), "column is not an integer"),
    "negative column": (vocabulary({"a": 0, "b": -1, "a b": 2}), "column is not an integer"),
    "index and features disagree": (vocabulary({"a": 0, "b": 2, "a b": 1}), "not the inverse"),
    "feature missing from the index": (vocabulary({"a": 0, "b": 1}), "not the inverse"),
    "features not a list": (vocabulary(features=("a", "b", "a b")), "column is not an integer"),
    "sizes do not add up": (vocabulary(num_bigrams=2), "num_unigrams \\+ num_bigrams"),
    "fields missing": (pickle.dumps(Vocabulary.__new__(Vocabulary), protocol=4), "not a string"),
}


def tampered(meta, part, members):
    """A copy of `meta` whose `part` ensemble votes with equal weights over `members`."""
    meta = copy.copy(meta)
    object.__setattr__(meta, part, EnsembleSpec(members, (1.0,) * len(members)))
    return meta


def with_member(meta, index, **changes):
    """A copy of `meta` whose Ensemble2 member at `index` has `changes` made to its fields."""
    members = list(meta.ensemble2.members)
    members[index] = dataclasses.replace(members[index], **changes)
    return tampered(meta, "ensemble2", tuple(members))


MISFIT = {  # name: (pickled vocabulary or None, the trained model -> model, what the error says)
    "another training's vocabulary": (vocabulary(), lambda m: m, "dimension is not the vocabulary"),
    "a member of another dimension": (
        None, lambda m: with_member(m, 1, dimension=m.ensemble2.members[1].dimension + 1),
        "dimension is not the vocabulary",
    ),
    "members disagree on the classes": (
        None, lambda m: with_member(m, 0, num_classes=m.ensemble2.members[0].num_classes + 1),
        "different numbers of classes",
    ),
    "members out of order": (
        None, lambda m: tampered(m, "ensemble1", m.ensemble1.members[::-1]), "MNB, LR and RF",
    ),
    "a forest-only ensemble": (
        None, lambda m: tampered(m, "ensemble2", m.ensemble2.members[2:]), "MNB, LR and RF",
    ),
    "a member in an ensemble's place": (
        None, lambda m: dataclasses.replace(m, ensemble1=m.ensemble1.members[0]), "MNB, LR and RF",
    ),
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

    def test_hand_built_vocabulary_loads(self, trained_archive, tmp_path):
        rf = rf_fit(dataset_from_dense(np.eye(3), [0, 1, 2], 3), RfConfig(n_trees=1))
        model = pickle.dumps(meta_around(rf), protocol=4)  # a model on its three columns
        write_sections(tmp_path / "m.bin", *self.sections(trained_archive, None, vocabulary(), model))
        assert archive_load(tmp_path / "m.bin").vocabulary == pickle.loads(vocabulary())

    @pytest.mark.parametrize("kind", sorted(MISFIT))
    def test_model_that_misfits_is_an_archive_error(self, trained_archive, tmp_path, capsys, kind):
        # select and prediction assume this shape, so a misfit fails the load: predict exits 2, not 3.
        pickled, change, message = MISFIT[kind]
        model = pickle.dumps(change(trained_archive.model), protocol=4)
        write_sections(tmp_path / "m.bin", *self.sections(trained_archive, None, pickled, model))
        with pytest.raises(ArchiveError, match=message):
            archive_load(tmp_path / "m.bin")
        text = tmp_path / "t.txt"
        text.write_text("w1 w2\n")
        assert main(["predict", str(tmp_path / "m.bin"), str(text)]) == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(BAD_VOCABULARIES))
    def test_bad_vocabulary_is_an_archive_error(self, trained_archive, tmp_path, capsys, kind):
        # A vocabulary that unpickles but breaks prediction fails the load, so predict exits 2, not 3.
        pickled, message = BAD_VOCABULARIES[kind]
        write_sections(tmp_path / "m.bin", *self.sections(trained_archive, None, pickled, None))
        with pytest.raises(ArchiveError, match=message):
            archive_load(tmp_path / "m.bin")
        text = tmp_path / "t.txt"
        text.write_text("a b\n")
        assert main(["predict", str(tmp_path / "m.bin"), str(text)]) == 2
        assert "internal error" not in capsys.readouterr().err

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

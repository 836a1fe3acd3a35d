"""Versioned binary model archive.

Layout: 4-byte magic, 1 version byte, then length-prefixed sections (header
JSON, vocabulary, model payload), then a SHA-256 checksum of everything that
precedes it. Loads are bit-exact: a reloaded model predicts identically.
"""

import errno
import hashlib
import json
import os
import pickle
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .classifiers import LrModel, MnbModel, RfModel
from .ensemble import EnsembleSpec, MetaSpec
from .exceptions import (
    ArchiveChecksumError,
    ArchiveError,
    ArchiveTruncatedError,
    ArchiveVersionError,
    DataError,
)
from .features import Vocabulary
from .preprocess import AsciiPolicy

MAGIC = b"EMOV"
FORMAT_VERSION = 2  # 2: random forests stored as packed node arrays
_CHECKSUM_LEN = 32


@dataclass
class ModelArchive:
    language: str
    policy: AsciiPolicy
    vocabulary: Vocabulary
    model: MetaSpec
    metadata: dict = field(default_factory=dict)


class _Reader:
    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise ArchiveTruncatedError(
                f"archive ends at byte {len(self.blob)}, needed {self.pos + n}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def section(self) -> memoryview:
        (length,) = struct.unpack("<Q", self.take(8))
        return self.take(length)


def check_output_path(path) -> Path:
    """`path` as a Path; a DataError naming it unless its symlinks resolve,

    its directory exists, and it is new or, once symlinks are followed, a
    regular file.
    """
    path = Path(path)
    try:
        os.stat(path)  # Path.resolve() is no test: from Python 3.13 it returns a loop as it stands
    except OSError as exc:  # a new file or a dangling link is fine; a symlink loop is not
        if exc.errno == errno.ELOOP:
            raise DataError(f"{path}: cannot follow its symlinks") from exc
    if path.exists() and not path.is_file():  # a directory, FIFO or device is never replaced
        raise DataError(f"{path}: not a regular file")
    if not path.parent.is_dir():
        raise DataError(f"{path}: no directory {path.parent}")
    return path


def _new_file_mode(path: Path) -> int:
    """The permission bits `path` has, or that open() would give a new file."""
    if path.exists():
        return path.stat().st_mode & 0o777
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


@contextmanager
def atomic_file(path, mode: str = "w+b", **kwargs):
    """A temp file beside `path`, with the mode `path` has or would get, that

    replaces it when the block succeeds and is removed when the block fails,
    so `path` is never left half written. A symlink is written through: the
    temp file goes beside, and replaces, the file it resolves to.
    """
    path = check_output_path(path)
    target = path.resolve()
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    except OSError as exc:  # an unwritable directory, say: name `path`, not the temp file
        raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from exc
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            os.fchmod(fd, _new_file_mode(target))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def archive_save(archive: ModelArchive, path) -> None:
    """Write atomically. Each section goes straight into the file behind a

    placeholder for its length, filled in once known, and the checksum is
    taken over the file read back in blocks: no section is held whole in memory.
    """
    header = json.dumps(
        {"language": archive.language, "policy": archive.policy.value, "metadata": archive.metadata},
        sort_keys=True,
    ).encode("utf-8")
    with atomic_file(path) as fh:
        fh.write(MAGIC + bytes([FORMAT_VERSION]) + struct.pack("<Q", len(header)) + header)
        for section in (archive.vocabulary, archive.model):
            start = fh.tell()
            fh.write(bytes(8))
            pickle.dump(section, fh, protocol=4)
            end = fh.tell()
            fh.seek(start)
            fh.write(struct.pack("<Q", end - start - 8))
            fh.seek(end)
        fh.seek(0)
        digest = hashlib.sha256()
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
        fh.write(digest.digest())


def archive_load(path) -> ModelArchive:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ArchiveError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if len(blob) < len(MAGIC) + 1 + _CHECKSUM_LEN:
        raise ArchiveTruncatedError(f"{path}: too short to be a model archive")
    blob = memoryview(blob)  # the body and its sections are read in place, not copied
    body, digest = blob[:-_CHECKSUM_LEN], blob[-_CHECKSUM_LEN:]
    reader = _Reader(body)
    if reader.take(4) != MAGIC:
        raise ArchiveVersionError(f"{path}: not a model archive (bad magic)")
    version = reader.take(1)[0]
    if version != FORMAT_VERSION:
        raise ArchiveVersionError(
            f"{path}: format version {version} not supported (expected {FORMAT_VERSION})"
        )
    sections = [reader.section() for _ in range(3)]
    if hashlib.sha256(body).digest() != digest:
        raise ArchiveChecksumError(f"{path}: checksum mismatch")
    try:
        header = json.loads(str(sections[0], "utf-8"))
        language, policy = header["language"], AsciiPolicy(header["policy"])
        metadata = header["metadata"]
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8 JSON, a key missing, a bad policy
        raise ArchiveError(f"{path}: malformed header: {exc!r}") from exc
    try:  # a vote checks its weights as it unpickles
        vocabulary, model = pickle.loads(sections[1]), pickle.loads(sections[2])
    except Exception as exc:  # unpickling raises almost any type, as pickle's docs warn
        raise ArchiveError(f"{path}: a section does not unpickle: {exc!r}") from exc
    if not (isinstance(vocabulary, Vocabulary) and isinstance(model, MetaSpec)):
        raise ArchiveError(f"{path}: sections are not a vocabulary and a model")
    # The vocabulary maps string features one to one onto the columns [0, size)
    # where index_to_feature lists them, num_unigrams + num_bigrams of them.
    features = getattr(vocabulary, "index_to_feature", None)
    index = getattr(vocabulary, "feature_to_index", None)
    if type(index) is not dict or not all(type(f) is str for f in index):
        raise ArchiveError(f"{path}: a vocabulary feature is not a string")
    if type(features) is not list or not all(
        type(c) is int and 0 <= c < len(features) for c in index.values()
    ):
        raise ArchiveError(f"{path}: a vocabulary column is not an integer in [0, size)")
    if len(index) != len(features) or not all(
        type(features[c]) is str and features[c] == f for f, c in index.items()
    ):
        raise ArchiveError(f"{path}: feature_to_index is not the inverse of index_to_feature")
    counts = [getattr(vocabulary, name, None) for name in ("num_unigrams", "num_bigrams")]
    if not (all(type(n) is int and n >= 0 for n in counts) and sum(counts) == len(features)):
        raise ArchiveError(f"{path}: num_unigrams + num_bigrams is not the vocabulary size")
    # Each base ensemble votes over its members in BASE_MEMBER_ORDER, as select reads them,
    # and every member predicts the same classes from the vocabulary's columns.
    ensembles = model.ensemble1, model.ensemble2
    if not all(
        type(e) is EnsembleSpec and type(e.members) is tuple
        and tuple(map(type, e.members)) == (MnbModel, LrModel, RfModel)
        for e in ensembles
    ):
        raise ArchiveError(f"{path}: an ensemble is not a vote over MNB, LR and RF, in that order")
    members = [m for e in ensembles for m in e.members]
    if any(m.dimension != vocabulary.size for m in members):
        raise ArchiveError(f"{path}: a member's dimension is not the vocabulary size {vocabulary.size}")
    if any(m.num_classes != members[0].num_classes for m in members):
        raise ArchiveError(f"{path}: the members predict different numbers of classes")
    return ModelArchive(language, policy, vocabulary, model, metadata)

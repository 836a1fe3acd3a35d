"""Versioned binary model archive.

Layout: 4-byte magic, 1 version byte, then length-prefixed sections (header
JSON, vocabulary, model payload), then a SHA-256 checksum of everything that
precedes it. Loads are bit-exact: a reloaded model predicts identically.
"""

import hashlib
import json
import os
import pickle
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .ensemble import MetaSpec
from .exceptions import ArchiveChecksumError, ArchiveTruncatedError, ArchiveVersionError
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
    version: int = FORMAT_VERSION


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ArchiveTruncatedError(
                f"archive ends at byte {len(self.blob)}, needed {self.pos + n}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def section(self) -> bytes:
        (length,) = struct.unpack("<Q", self.take(8))
        return self.take(length)


@contextmanager
def atomic_file(path, mode: str = "w+b", **kwargs):
    """A temp file beside `path` that replaces it when the block succeeds and

    is removed when the block fails, so `path` is never left half written.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
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
        fh.write(MAGIC + bytes([archive.version]) + struct.pack("<Q", len(header)) + header)
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
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 1 + _CHECKSUM_LEN:
        raise ArchiveTruncatedError(f"{path}: too short to be a model archive")
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
    header = json.loads(sections[0].decode("utf-8"))
    vocabulary = pickle.loads(sections[1])
    model = pickle.loads(sections[2])
    return ModelArchive(
        language=header["language"],
        policy=AsciiPolicy(header["policy"]),
        vocabulary=vocabulary,
        model=model,
        metadata=header["metadata"],
        version=version,
    )

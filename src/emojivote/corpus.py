"""Tweet corpus loading and label mappings.

File formats: one tweet per line (UTF-8, LF); labels in a parallel file,
one integer per line; mapping file lines are "<index>\\t<display string>".
"""

from dataclasses import dataclass

from .exceptions import DataError


@dataclass(frozen=True)
class RawCorpus:
    texts: list[str]
    labels: list[int]
    num_classes: int

    def __post_init__(self):
        if len(self.texts) != len(self.labels):
            raise DataError(
                f"corpus has {len(self.texts)} texts but {len(self.labels)} labels"
            )
        if self.num_classes < 2:
            raise DataError(f"num_classes must be >= 2, got {self.num_classes}")
        for i, lab in enumerate(self.labels):
            if not 0 <= lab < self.num_classes:
                raise DataError(
                    f"label {lab} at position {i} out of range [0, {self.num_classes})"
                )

    def __len__(self) -> int:
        return len(self.texts)


@dataclass(frozen=True)
class LabelMapping:
    entries: list[tuple[int, str]]

    def __post_init__(self):
        indices = sorted(i for i, _ in self.entries)
        if indices != list(range(len(self.entries))):
            raise DataError("mapping indices must be exactly 0..k-1, each once")
        for _, name in self.entries:
            if not name:
                raise DataError("mapping display strings must be non-empty")

    @property
    def num_classes(self) -> int:
        return len(self.entries)

    def display(self, label: int) -> str:
        return dict(self.entries)[label]

    @classmethod
    def identity(cls, k: int) -> "LabelMapping":
        """Default mapping using the class index itself as display string."""
        return cls([(i, str(i)) for i in range(k)])


def _read_lines(path) -> list[str]:
    try:  # newline="" so CR bytes survive and can be rejected explicitly
        with open(path, encoding="utf-8", newline="") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if not raw:
        return []
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        if "\r" in line:
            raise DataError(f"{path}: CR character inside line {i + 1}")
    return lines


def load_corpus(text_path, label_path, k: int) -> RawCorpus:
    """Load parallel text and label files into a RawCorpus."""
    texts = _read_lines(text_path)
    label_lines = _read_lines(label_path)
    if len(texts) != len(label_lines):
        raise DataError(
            f"line-count mismatch: {text_path} has {len(texts)} lines, "
            f"{label_path} has {len(label_lines)}"
        )
    labels = []
    for i, line in enumerate(label_lines):
        try:
            lab = int(line.strip())
        except ValueError:
            raise DataError(f"{label_path}: unparseable label at line {i + 1}: {line!r}")
        if not 0 <= lab < k:
            raise DataError(f"{label_path}: label {lab} at line {i + 1} out of range [0, {k})")
        labels.append(lab)
    return RawCorpus(texts=texts, labels=labels, num_classes=k)


def load_mapping(path) -> LabelMapping:
    entries = []
    for i, line in enumerate(_read_lines(path)):
        idx, sep, name = line.partition("\t")
        if not sep:
            raise DataError(f"{path}: line {i + 1} is not '<index>\\t<display>'")
        try:
            entries.append((int(idx), name))
        except ValueError:
            raise DataError(f"{path}: unparseable index at line {i + 1}")
    return LabelMapping(entries)

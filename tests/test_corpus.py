import pytest
from hypothesis import given
from hypothesis import strategies as st

from emojivote.cli import main
from emojivote.corpus import LabelMapping, RawCorpus, load_corpus, load_mapping
from emojivote.exceptions import DataError


def write(path, lines):
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")


class TestLoadCorpus:
    def test_basic(self, tmp_path):
        write(tmp_path / "t.txt", ["I love it", "so cold"])
        write(tmp_path / "l.txt", ["0", "2"])
        c = load_corpus(tmp_path / "t.txt", tmp_path / "l.txt", k=3)
        assert len(c) == 2
        assert c.labels == [0, 2]
        assert c.texts == ["I love it", "so cold"]

    def test_empty_files(self, tmp_path):
        (tmp_path / "t.txt").write_text("")
        (tmp_path / "l.txt").write_text("")
        assert len(load_corpus(tmp_path / "t.txt", tmp_path / "l.txt", k=2)) == 0

    def test_out_of_range_label(self, tmp_path):
        write(tmp_path / "t.txt", ["hi"])
        write(tmp_path / "l.txt", ["5"])
        with pytest.raises(DataError, match="line 1"):
            load_corpus(tmp_path / "t.txt", tmp_path / "l.txt", k=3)

    def test_line_count_mismatch(self, tmp_path):
        write(tmp_path / "t.txt", ["a", "b"])
        write(tmp_path / "l.txt", ["0"])
        with pytest.raises(DataError, match="2.*1"):
            load_corpus(tmp_path / "t.txt", tmp_path / "l.txt", k=2)

    def test_unparseable_label(self, tmp_path):
        write(tmp_path / "t.txt", ["a"])
        write(tmp_path / "l.txt", ["zero"])
        with pytest.raises(DataError, match="line 1"):
            load_corpus(tmp_path / "t.txt", tmp_path / "l.txt", k=2)

    def test_cr_rejected(self, tmp_path):
        (tmp_path / "t.txt").write_bytes(b"a\rb\n")
        write(tmp_path / "l.txt", ["0"])
        with pytest.raises(DataError, match="CR"):
            load_corpus(tmp_path / "t.txt", tmp_path / "l.txt", k=2)


def stats(tmp_path, labels, k):
    """Run `stats` on a corpus with these labels; returns its exit code."""
    write(tmp_path / "t.txt", [f"tweet {i}" for i in range(len(labels))])
    write(tmp_path / "l.txt", [str(l) for l in labels])
    return main(["stats", str(tmp_path / "t.txt"), str(tmp_path / "l.txt"), "-k", str(k)])


class TestClassDistribution:
    """The class counts and fractions that `stats` prints, most frequent first."""

    def test_counts_and_fractions(self, tmp_path, capsys):
        assert stats(tmp_path, [0, 0, 1], 2) == 0
        assert capsys.readouterr().out.splitlines() == ["0: 2 (66.67%)", "1: 1 (33.33%)"]

    def test_degenerate_single_class(self, tmp_path, capsys):
        assert stats(tmp_path, [0, 0], 2) == 0
        assert capsys.readouterr().out.splitlines() == ["0: 2 (100.00%)", "1: 0 (0.00%)"]

    def test_empty_corpus_rejected(self, tmp_path, capsys):
        assert stats(tmp_path, [], 2) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error: cannot compute a class distribution of an empty corpus" in captured.err

    def test_fractions_sum_to_one(self, tmp_path, capsys):
        assert stats(tmp_path, [0, 1, 2, 1, 0, 2, 2], 4) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(":")[0] for l in lines] == ["2", "0", "1", "3"]
        percents = [float(l.split("(")[1].rstrip("%)")) for l in lines]
        assert abs(sum(percents) - 100.0) <= 0.005 * len(lines)


class TestLabelMapping:
    def test_identity(self):
        m = LabelMapping.identity(3)
        assert m.display(2) == "2"

    def test_bad_indices_rejected(self):
        with pytest.raises(DataError):
            LabelMapping([(0, "a"), (2, "b")])

    def test_empty_display_rejected(self):
        with pytest.raises(DataError):
            LabelMapping([(0, "")])

    def test_load(self, tmp_path):
        write(tmp_path / "m.txt", ["0\t:heart:", "1\t:fire:"])
        m = load_mapping(tmp_path / "m.txt")
        assert m.display(1) == ":fire:"


tweet_text = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=40,
)


@given(st.lists(st.tuples(tweet_text, st.integers(0, 3)), min_size=0, max_size=20))
def test_round_trip(tmp_path_factory, pairs):
    tmp = tmp_path_factory.mktemp("rt")
    corpus = RawCorpus([t for t, _ in pairs], [l for _, l in pairs], 4)
    write(tmp / "t.txt", corpus.texts)
    write(tmp / "l.txt", [str(l) for l in corpus.labels])
    assert load_corpus(tmp / "t.txt", tmp / "l.txt", 4) == corpus

import hashlib
import json
import logging
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexner import (Sentence, TagScheme, build_char_vocab, build_lexicon,
                    load_embeddings, make_synthetic_corpus, read_conll, uniform_bound,
                    write_conll)
from lexner.errors import FormatError, ParseError, SchemeError
from lexner.evaluation import EntitySpan, spans_to_tags


def write(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestTagScheme:
    def test_index_bijection(self):
        scheme = TagScheme("BIOES", ("LOC", "PER"))
        assert scheme.size == 9
        assert scheme.tag_of(0) == "O"
        for i in range(scheme.size):
            assert scheme.index_of(scheme.tag_of(i)) == i

    def test_unknown_tag(self):
        scheme = TagScheme("BIO", ("LOC",))
        with pytest.raises(SchemeError):
            scheme.index_of("B-ORG")

    def test_bio_legality(self):
        scheme = TagScheme("BIO", ("LOC", "PER"))
        o = scheme.index_of("O")
        b = scheme.index_of("B-LOC")
        i = scheme.index_of("I-LOC")
        ip = scheme.index_of("I-PER")
        assert scheme.legal_transition(b, i)
        assert scheme.legal_transition(i, i)
        assert not scheme.legal_transition(o, i)
        assert not scheme.legal_transition(b, ip)
        assert not scheme.legal_transition(None, i)
        assert scheme.legal_transition(None, b)
        assert scheme.legal_transition(b, None)

    def test_bioes_legality(self):
        scheme = TagScheme("BIOES", ("LOC",))
        o, b, i, e, s = (scheme.index_of(t) for t in ("O", "B-LOC", "I-LOC", "E-LOC", "S-LOC"))
        assert scheme.legal_transition(b, i) and scheme.legal_transition(i, e)
        assert not scheme.legal_transition(b, o)
        assert not scheme.legal_transition(b, None)
        assert not scheme.legal_transition(e, i)
        assert scheme.legal_transition(e, None) and scheme.legal_transition(s, b)
        assert not scheme.legal_transition(None, e)

    @pytest.mark.parametrize("kind,conts", [("BIO", ("I",)), ("BIOES", ("I", "E"))])
    def test_continues(self, kind, conts):
        scheme = TagScheme(kind, ("LOC", "PER"))
        for prev in [None] + list(range(scheme.size)):
            for nxt in [None] + list(range(scheme.size)):
                p, pt = scheme.split_tag(prev) if prev is not None else ("O", None)
                q, qt = scheme.split_tag(nxt) if nxt is not None else ("O", None)
                want = p in ("B", "I") and q in conts and pt == qt
                assert scheme.continues(prev, nxt) == want, (prev, nxt)

    def test_legal_mask_shape(self):
        scheme = TagScheme("BIOES", ("LOC",))
        mask = scheme.legal_mask()
        assert mask.shape == (scheme.size + 2, scheme.size + 2)
        assert not mask[:, scheme.size].any()      # nothing enters start
        assert not mask[scheme.size + 1].any()     # nothing leaves stop


class TestReadConll:
    def test_basic(self, tmp_path, bioes_scheme):
        path = write(tmp_path, "南 B-LOC\n京 E-LOC\n\n")
        ds = read_conll(path, bioes_scheme)
        assert len(ds) == 1
        assert ds.sentences[0].chars == ("南", "京")
        tags = [bioes_scheme.tag_of(t) for t in ds.sentences[0].tags]
        assert tags == ["B-LOC", "E-LOC"]

    def test_empty_file(self, tmp_path, bioes_scheme):
        ds = read_conll(write(tmp_path, ""), bioes_scheme)
        assert len(ds) == 0

    def test_single_column_line(self, tmp_path, bioes_scheme):
        with pytest.raises(ParseError, match="1"):
            read_conll(write(tmp_path, "南\n"), bioes_scheme)

    def test_unknown_tag_names_line(self, tmp_path, bioes_scheme):
        with pytest.raises(SchemeError, match=":2"):
            read_conll(write(tmp_path, "南 O\n京 B-XYZ\n"), bioes_scheme)

    def test_illegal_transition_rejected(self, tmp_path, bioes_scheme):
        with pytest.raises(SchemeError, match="illegal"):
            read_conll(write(tmp_path, "南 I-LOC\n京 O\n\n"), bioes_scheme)

    def test_multichar_token_rejected(self, tmp_path, bioes_scheme):
        with pytest.raises(ParseError):
            read_conll(write(tmp_path, "南京 O\n"), bioes_scheme)

    def test_trailing_blank_lines(self, tmp_path, bioes_scheme):
        ds = read_conll(write(tmp_path, "南 O\n\n\n\n"), bioes_scheme)
        assert len(ds) == 1

    def test_long_sentence_split(self, tmp_path, bioes_scheme):
        # 6 chars with an entity crossing the cut at max_len=4
        text = "甲 O\n乙 O\n丙 B-LOC\n丁 I-LOC\n戊 I-LOC\n己 E-LOC\n\n"
        ds = read_conll(write(tmp_path, text), bioes_scheme, max_len=4)
        assert ds.oversize_split == 1
        assert [len(s) for s in ds.sentences] == [4, 2]
        first = [bioes_scheme.tag_of(t) for t in ds.sentences[0].tags]
        second = [bioes_scheme.tag_of(t) for t in ds.sentences[1].tags]
        assert first == ["O", "O", "B-LOC", "E-LOC"]
        assert second == ["B-LOC", "E-LOC"]
        assert ds.sentences[0].chars + ds.sentences[1].chars == tuple("甲乙丙丁戊己")

    def test_round_trip(self, tmp_path, bioes_scheme):
        text = "南 B-LOC\n京 E-LOC\n去 O\n\n人 S-PER\n\n"
        ds = read_conll(write(tmp_path, text), bioes_scheme)
        out = tmp_path / "out.txt"
        write_conll(ds.sentences, bioes_scheme, out)
        assert out.read_text(encoding="utf-8") == text
        again = read_conll(out, bioes_scheme)
        assert [s.chars for s in again.sentences] == [s.chars for s in ds.sentences]
        assert [s.tags for s in again.sentences] == [s.tags for s in ds.sentences]

    def test_stats(self, tmp_path, bioes_scheme):
        ds = read_conll(write(tmp_path, "南 O\n京 O\n\n去 O\n\n"), bioes_scheme)
        stats = ds.stats()
        assert stats["sentences"] == 2
        assert stats["characters"] == 3
        assert json.dumps(stats)  # JSON-able summary


class TestSentence:
    def test_tag_length_mismatch(self):
        with pytest.raises(ParseError):
            Sentence(("a", "b"), (0,), "x")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            Sentence((), None, "x")


class TestLoadEmbeddings:
    def test_two_rows_dim_50(self, tmp_path):
        rows = ["w" + str(i) + " " + " ".join(str(0.01 * j) for j in range(50))
                for i in range(2)]
        table = load_embeddings(write(tmp_path, "\n".join(rows) + "\n", "emb.txt"))
        assert len(table) == 2 and table.dim == 50

    def test_header_accepted(self, tmp_path):
        table = load_embeddings(write(tmp_path, "2 3\na 1 2 3\nb 4 5 6\n", "emb.txt"))
        assert len(table) == 2 and table.dim == 3
        assert np.array_equal(table.lookup("b"), [4.0, 5.0, 6.0])

    def test_short_row_names_row(self, tmp_path):
        text = "a 1 2 3\nb 4 5\n"
        with pytest.raises(FormatError, match=":2"):
            load_embeddings(write(tmp_path, text, "emb.txt"))

    @pytest.mark.parametrize("text", ["3 0\n", "3 -1\n", "3 0\na\n"])
    def test_header_without_values_rejected(self, tmp_path, text):
        with pytest.raises(FormatError, match="header declares"):
            load_embeddings(write(tmp_path, text, "emb.txt"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_embeddings(write(tmp_path, "a 1 nan 3\n", "emb.txt"))

    def test_duplicate_keeps_first(self, tmp_path, caplog):
        text = "南京 1 2\n上海 3 4\n南京 9 9\n"
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(write(tmp_path, text, "emb.txt"))
        assert len(table) == 2
        assert np.array_equal(table.lookup("南京"), [1.0, 2.0])
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_lookup_returns_file_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(10)]
        mat = rng.normal(size=(10, 4))
        lines = [w + " " + " ".join(repr(float(x)) for x in row) for w, row in zip(words, mat)]
        table = load_embeddings(write(tmp_path, "\n".join(lines) + "\n", "emb.txt"))
        for w, row in zip(words, mat):
            assert np.array_equal(table.lookup(w), row)


def random_rows(n, dim, seed):
    """The uniform-random rows build_lexicon draws for n words without table rows."""
    words = [f"{k:05d}" for k in range(n)]
    return build_lexicon(words, None, dim=dim, rng=np.random.default_rng(seed)).embeddings


class TestRandomInit:
    def test_bound_dim_50(self):
        rows = random_rows(20, 50, 0)
        bound = math.sqrt(3.0 / 50)
        assert rows.shape == (20, 50)
        assert np.all(np.abs(rows) <= bound)

    def test_bound_dim_3_is_one(self):
        assert uniform_bound(3) == 1.0
        assert np.all(np.abs(random_rows(1, 3, 1)) <= 1.0)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            random_rows(1, 0, 0)

    def test_statistics(self):
        # 1e5 values at dim=50: mean within 3 sigma of 0, extremes inside bound
        samples = random_rows(2000, 50, 42)
        bound = uniform_bound(50)
        sigma_mean = bound / math.sqrt(3 * samples.size)
        assert abs(samples.mean()) < 3 * sigma_mean
        assert samples.min() >= -bound and samples.max() <= bound


def test_synthetic_corpus_is_pinned():
    # bench/workload.py builds its entity inventory from this corpus
    ds, _, _ = make_synthetic_corpus(50, seed=7)
    blob = json.dumps([["".join(s.chars), list(s.tags), s.id] for s in ds.sentences],
                      ensure_ascii=False)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "78bab7287883c2da368a84393e3f6265553eb38f1e1a67565f52ff26e3b0702f")


def test_build_char_vocab_deterministic():
    sents = [Sentence(tuple("ba"), None, "x"), Sentence(tuple("cb"), None, "y")]
    vocab = build_char_vocab(sents)
    assert vocab == {"<unk>": 0, "a": 1, "b": 2, "c": 3}


@st.composite
def tagged_sentences(draw, kind):
    """A legal tag sequence of the scheme, built from O runs and entities."""
    scheme = TagScheme(kind, ("LOC", "PER"))
    segments = draw(st.lists(st.tuples(st.sampled_from(("O", "LOC", "PER")),
                                       st.integers(1, 6)), min_size=1, max_size=8))
    spans, n = [], 0
    for label, length in segments:
        if label != "O":
            spans.append(EntitySpan(n + 1, n + length, label))
        n += length
    chars = tuple(draw(st.lists(st.sampled_from("甲乙丙丁戊己庚辛"), min_size=n, max_size=n)))
    return scheme, Sentence(chars, tuple(spans_to_tags(spans, n, scheme)), "x")


class TestSplitProperties:
    @pytest.mark.parametrize("kind", ["BIO", "BIOES"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), max_len=st.integers(1, 12))
    def test_pieces_are_legal_and_rejoin(self, kind, data, max_len):
        scheme, sent = data.draw(tagged_sentences(kind))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.conll"
            write_conll([sent], scheme, path)
            ds = read_conll(path, scheme, max_len=max_len)
        assert ds.oversize_split == (len(sent) > max_len)
        assert len(ds) == -(-len(sent) // max_len)
        for piece in ds.sentences:
            assert 1 <= len(piece) <= max_len
            path_tags = [None] + list(piece.tags) + [None]
            assert all(scheme.legal_transition(a, b)
                       for a, b in zip(path_tags, path_tags[1:]))
        assert sum((p.chars for p in ds.sentences), ()) == sent.chars

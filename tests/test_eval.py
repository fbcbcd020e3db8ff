import itertools
import re

import numpy as np
import pytest

from lexner import (EntitySpan, TagScheme, bucket_by_length, evaluation_report,
                    extract_entities, per_type_prf1, prf1, spans_to_tags)
from lexner.corpus import Sentence


def idx(scheme, *tags):
    return [scheme.index_of(t) for t in tags]


def check_round_trip(scheme):
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        # random well-formed tagging via random non-overlapping spans
        spans = set()
        occupied = np.zeros(n, dtype=bool)
        for _ in range(int(rng.integers(0, 4))):
            a = int(rng.integers(1, n + 1))
            b = min(n, a + int(rng.integers(0, 3)))
            if not occupied[a - 1:b].any():
                occupied[a - 1:b] = True
                spans.add(EntitySpan(a, b, str(rng.choice(["LOC", "PER"]))))
        tags = spans_to_tags(spans, n, scheme)
        got, bad = extract_entities(tags, scheme)
        assert got == spans and bad == 0
        assert spans_to_tags(got, n, scheme) == tags


class TestExtractEntities:
    def test_bioes_pair(self, bioes_scheme):
        spans, bad = extract_entities(idx(bioes_scheme, "B-LOC", "E-LOC", "O"), bioes_scheme)
        assert spans == {EntitySpan(1, 2, "LOC")} and bad == 0

    def test_all_outside(self, bioes_scheme):
        spans, bad = extract_entities(idx(bioes_scheme, "O", "O"), bioes_scheme)
        assert spans == set() and bad == 0

    def test_dangling_inside_counted(self, bioes_scheme):
        spans, bad = extract_entities(idx(bioes_scheme, "I-LOC", "O"), bioes_scheme)
        assert spans == set() and bad == 1

    def test_unclosed_begin_counted(self, bioes_scheme):
        spans, bad = extract_entities(
            idx(bioes_scheme, "B-LOC", "I-LOC", "O"), bioes_scheme)
        assert spans == set() and bad == 1

    def test_singleton(self, bioes_scheme):
        spans, bad = extract_entities(idx(bioes_scheme, "S-PER"), bioes_scheme)
        assert spans == {EntitySpan(1, 1, "PER")} and bad == 0

    def test_bio_spans(self):
        scheme = TagScheme("BIO", ("LOC", "PER"))
        tags = idx(scheme, "B-LOC", "I-LOC", "O", "B-PER", "I-LOC")
        spans, bad = extract_entities(tags, scheme)
        assert spans == {EntitySpan(1, 2, "LOC"), EntitySpan(4, 4, "PER")}
        assert bad == 1   # the trailing I-LOC run

    def test_round_trip_with_encoding(self, bioes_scheme):
        check_round_trip(bioes_scheme)

    def test_bio_round_trip_with_encoding(self):
        check_round_trip(TagScheme("BIO", ("LOC", "PER")))

    @pytest.mark.parametrize("tags,n_spans,n_bad", [
        (("B-LOC", "E-LOC", "E-LOC"), 1, 1),
        (("I-LOC", "E-LOC", "I-LOC", "E-LOC"), 0, 2),
        (("E-LOC", "E-LOC"), 0, 2),
        (("B-LOC", "I-PER"), 0, 2),
        (("S-LOC", "I-LOC"), 1, 1),
    ])
    def test_malformed_runs_are_counted(self, bioes_scheme, tags, n_spans, n_bad):
        spans, bad = extract_entities(idx(bioes_scheme, *tags), bioes_scheme)
        assert (len(spans), bad) == (n_spans, n_bad)


def pattern_spans(tags, scheme):
    """Spans found by a regular expression over the tag strings, one
    two-letter token per tag: B-t (I-t)* E-t and S-t in BIOES, B-t followed
    by its maximal (I-t)* in BIO."""
    letter = {t: chr(ord("a") + k) for k, t in enumerate(scheme.labels)}
    text = "".join("Oo" if t == 0 else scheme.tag_of(t)[0] + letter[scheme.tag_of(t)[2:]]
                   for t in tags)
    if scheme.kind == "BIO":
        pattern = r"B([a-z])(?:I\1)*"
    else:
        pattern = r"B([a-z])(?:I\1)*E\1|S([a-z])"
    label = {v: t for t, v in letter.items()}
    return {EntitySpan(m.start() // 2 + 1, m.end() // 2, label[m.group(1) or m.group(2)])
            for m in re.finditer(pattern, text)}


class TestExtractEnumeration:
    """Every tag sequence up to a length, against a pattern oracle and the
    scheme's transition rule."""

    @pytest.mark.parametrize("kind,labels,max_n", [
        ("BIO", ("A", "B"), 4), ("BIOES", ("A", "B"), 4),
        ("BIO", ("A",), 6), ("BIOES", ("A",), 6),
    ])
    def test_every_sequence(self, kind, labels, max_n):
        scheme = TagScheme(kind, labels)
        for n in range(max_n + 1):
            for tags in itertools.product(range(scheme.size), repeat=n):
                spans, bad = extract_entities(tags, scheme)
                assert spans == pattern_spans(tags, scheme), tags
                path = (None,) + tags + (None,)
                legal = all(scheme.legal_transition(a, b) for a, b in zip(path, path[1:]))
                assert (bad == 0) == legal, tags


class TestSpansToTags:
    def test_overlap_rejected(self, bioes_scheme):
        with pytest.raises(ValueError):
            spans_to_tags({EntitySpan(1, 3, "LOC"), EntitySpan(3, 4, "PER")}, 5, bioes_scheme)

    def test_out_of_range_rejected(self, bioes_scheme):
        with pytest.raises(ValueError):
            spans_to_tags({EntitySpan(2, 6, "LOC")}, 5, bioes_scheme)


class TestPrf1:
    def test_half_right(self):
        gold = {"a": {EntitySpan(1, 2, "PER"), EntitySpan(4, 5, "LOC")}}
        pred = {"a": {EntitySpan(1, 2, "PER"), EntitySpan(4, 6, "LOC")}}
        assert prf1(gold, pred) == (0.5, 0.5, 0.5)

    def test_perfect(self):
        gold = {"a": {EntitySpan(1, 2, "PER")}, "b": {EntitySpan(3, 3, "LOC")}}
        assert prf1(gold, gold) == (1.0, 1.0, 1.0)

    def test_empty_pred_convention(self):
        gold = {"a": {EntitySpan(1, 2, "PER")}}
        assert prf1(gold, {"a": set()}) == (0.0, 0.0, 0.0)

    def test_relabeling_ids_invariant(self):
        rng = np.random.default_rng(1)
        gold, pred = {}, {}
        for k in range(20):
            gold[f"s{k}"] = {EntitySpan(int(a), int(a) + 1, "LOC")
                             for a in rng.integers(1, 8, size=rng.integers(0, 3))}
            pred[f"s{k}"] = {EntitySpan(int(a), int(a) + 1, "LOC")
                             for a in rng.integers(1, 8, size=rng.integers(0, 3))}
        renamed_gold = {f"x{k}": v for k, v in gold.items()}
        renamed_pred = {f"x{k}": v for k, v in pred.items()}
        assert prf1(gold, pred) == prf1(renamed_gold, renamed_pred)

    def test_bounds_and_harmonic_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            gold = {"a": {EntitySpan(int(a), int(a), "X")
                          for a in rng.integers(1, 10, size=rng.integers(0, 5))}}
            pred = {"a": {EntitySpan(int(a), int(a), "X")
                          for a in rng.integers(1, 10, size=rng.integers(0, 5))}}
            p, r, f = prf1(gold, pred)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
            assert f <= max(p, r) + 1e-12
            if p > 0 and r > 0:
                assert abs(f - 2 * p * r / (p + r)) < 1e-12

    def test_per_type(self):
        gold = {"a": {EntitySpan(1, 2, "PER"), EntitySpan(4, 5, "LOC")}}
        pred = {"a": {EntitySpan(1, 2, "PER")}}
        by_type = per_type_prf1(gold, pred)
        assert by_type["PER"] == (1.0, 1.0, 1.0)
        assert by_type["LOC"] == (0.0, 0.0, 0.0)


def make_sentences(lengths):
    return [Sentence(tuple("甲" * n), None, f"s{k}") for k, n in enumerate(lengths)]


class TestBuckets:
    def test_six_sentences_six_buckets(self):
        sents = make_sentences([3, 1, 4, 2, 6, 5])
        buckets = bucket_by_length(sents, {}, {}, k=6)
        assert len(buckets) == 6
        assert all(b["sentences"] == 1 for b in buckets)
        assert [b["min_length"] for b in buckets] == [1, 2, 3, 4, 5, 6]

    def test_equal_lengths_one_effective_bucket(self):
        sents = make_sentences([4, 4, 4])
        buckets = bucket_by_length(sents, {}, {}, k=6)
        assert all(b["min_length"] == 4 and b["max_length"] == 4 for b in buckets)

    def test_600_random_lengths_balanced(self):
        rng = np.random.default_rng(3)
        sents = make_sentences(rng.integers(1, 60, size=600))
        buckets = bucket_by_length(sents, {}, {}, k=6)
        assert len(buckets) == 6
        assert all(abs(b["sentences"] - 100) <= 1 for b in buckets)
        assert sum(b["sentences"] for b in buckets) == 600

    def test_fewer_sentences_than_buckets_warns(self, caplog):
        import logging
        sents = make_sentences([2, 3])
        with caplog.at_level(logging.WARNING):
            buckets = bucket_by_length(sents, {}, {}, k=6)
        assert len(buckets) == 2
        assert any("buckets" in rec.message for rec in caplog.records)

    def test_bucket_union_equals_overall(self):
        rng = np.random.default_rng(4)
        sents = make_sentences(rng.integers(1, 20, size=60))
        gold, pred = {}, {}
        for s in sents:
            n = len(s)
            gold[s.id] = {EntitySpan(1, min(2, n), "LOC")}
            pred[s.id] = {EntitySpan(1, min(2, n), "LOC")} if rng.random() < 0.6 else set()
        buckets = bucket_by_length(sents, gold, pred, k=6)
        tp = sum(round(b["precision"] * 0 + b["recall"] * b["sentences"]) for b in buckets)
        p, r, f = prf1(gold, pred)
        # micro recall over the union of buckets equals overall recall
        assert abs(tp / len(sents) - r) < 1e-9


def test_evaluation_report_shape():
    scheme = TagScheme("BIOES", ("LOC",))
    sents = make_sentences([2, 3, 4])
    gold = {s.id: {EntitySpan(1, 1, "LOC")} for s in sents}
    report = evaluation_report(sents, gold, gold, k=2)
    assert report["overall"]["f1"] == 1.0
    assert "LOC" in report["per_type"]
    assert len(report["buckets"]) == 2
    import json
    assert json.dumps(report)

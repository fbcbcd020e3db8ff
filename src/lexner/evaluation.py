"""Entity-level precision/recall/F1 and length-bucketed reporting.

A predicted span counts only when start, end, and type all match a gold
span (CoNLL convention); metrics are micro-averaged over sentences, and
0/0 ratios are reported as 0. A malformed predicted run (one that breaks
the scheme's grammar, such as a BIOES B-X never closed by E-X) is dropped
and counted, not repaired into a span.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import TagScheme

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class EntitySpan:
    """1-based inclusive character span with an entity type."""

    start: int
    end: int
    type: str


def extract_entities(tags, scheme: TagScheme) -> tuple[set[EntitySpan], int]:
    """Well-formed spans in a tag sequence, plus a count of malformed runs.

    The tags split into maximal runs in which each tag continues the one
    before (`TagScheme.continues`). A run is a span when it may both start
    and end a sentence; any other run outside O (a dangling I-X, a B-X that
    never closes in BIOES, ...) is malformed: dropped and counted, not
    repaired.
    """
    spans: set[EntitySpan] = set()
    malformed = 0
    start = 0
    for end in range(1, len(tags) + 1):
        if end < len(tags) and scheme.continues(tags[end - 1], tags[end]):
            continue
        first, last = tags[start], tags[end - 1]
        etype = scheme.split_tag(first)[1]
        if etype is not None:
            if scheme.legal_transition(None, first) and scheme.legal_transition(last, None):
                spans.add(EntitySpan(start + 1, end, etype))
            else:
                malformed += 1
        start = end
    return spans, malformed


def spans_to_tags(spans, n: int, scheme: TagScheme) -> list[int]:
    """Encode non-overlapping spans back into a tag-index sequence."""
    outside = scheme.index_of("O")
    tags = [outside] * n
    for span in sorted(spans):
        if not (1 <= span.start <= span.end <= n):
            raise ValueError(f"span {span} out of range for n={n}")
        if any(tag != outside for tag in tags[span.start - 1:span.end]):
            raise ValueError(f"span {span} overlaps another span")
        inside = [scheme.index_of(f"I-{span.type}")] * (span.end - span.start + 1)
        tags[span.start - 1:span.end] = scheme.fix_edges(inside)
    return tags


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def prf1(gold: dict, pred: dict) -> tuple[float, float, float]:
    """Micro precision/recall/F1 over sentences keyed by id.

    `gold` and `pred` map sentence id -> iterable of EntitySpan. A
    sentence missing from one side contributes an empty span set there.
    """
    tp = 0
    n_gold = 0
    n_pred = 0
    for sid in gold.keys() | pred.keys():
        g = set(gold.get(sid, ()))
        p = set(pred.get(sid, ()))
        tp += len(g & p)
        n_gold += len(g)
        n_pred += len(p)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    return precision, recall, _f1(precision, recall)


def per_type_prf1(gold: dict, pred: dict) -> dict[str, tuple[float, float, float]]:
    types = set()
    for spans in list(gold.values()) + list(pred.values()):
        types.update(s.type for s in spans)
    out = {}
    for t in sorted(types):
        g = {sid: [s for s in spans if s.type == t] for sid, spans in gold.items()}
        p = {sid: [s for s in spans if s.type == t] for sid, spans in pred.items()}
        out[t] = prf1(g, p)
    return out


def bucket_by_length(sentences, gold: dict, pred: dict, k: int = 6) -> list[dict]:
    """Equal-frequency length buckets with per-bucket micro metrics.

    Sentences are sorted by length (stable, so ties stay in exactly one
    bucket) and split into k groups whose sizes differ by at most one.
    """
    if k < 1:
        raise ValueError(f"bucket count must be >= 1, got {k}")
    if not sentences:
        return []
    if len(sentences) < k:
        log.warning("only %d sentences for %d buckets; using %d buckets",
                    len(sentences), k, len(sentences))
        k = len(sentences)
    order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
    buckets = []
    for chunk in np.array_split(np.array(order), k):
        members = [sentences[i] for i in chunk]
        ids = {s.id for s in members}
        g = {sid: spans for sid, spans in gold.items() if sid in ids}
        p = {sid: spans for sid, spans in pred.items() if sid in ids}
        precision, recall, f1 = prf1(g, p)
        buckets.append({
            "min_length": min(len(s) for s in members),
            "max_length": max(len(s) for s in members),
            "sentences": len(members),
            "precision": precision,
            "recall": recall,
            "f1": f1,
        })
    return buckets


def evaluation_report(sentences, gold: dict, pred: dict, k: int = 6) -> dict:
    """JSON-able report: overall metrics, per-type breakdown, length buckets."""
    precision, recall, f1 = prf1(gold, pred)
    return {
        "overall": {"precision": precision, "recall": recall, "f1": f1},
        "per_type": {
            t: {"precision": p, "recall": r, "f1": f}
            for t, (p, r, f) in per_type_prf1(gold, pred).items()
        },
        "buckets": bucket_by_length(sentences, gold, pred, k),
    }

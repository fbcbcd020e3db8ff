"""Deterministic synthetic corpus whose entities coincide with lexicon words.

The dictionary deliberately plants boundary conflicts: sub-words of the
long entity (whose matches cover its middle characters) and bridging
words that straddle an entity boundary, e.g. the city/bridge pair where a
dictionary word spans the last character of one entity and the first of
the next. Useful for overfit-style training checks and demos.
"""
from __future__ import annotations

import numpy as np

from .corpus import Dataset, Sentence, TagScheme
from .evaluation import EntitySpan, spans_to_tags

ENTITIES = (
    ("江城", "LOC"),
    ("东湖", "LOC"),
    ("南山市", "LOC"),
    ("西港区", "LOC"),
    ("长河大桥", "LOC"),
    ("华银行", "ORG"),
    ("红星社", "ORG"),
    ("蓝天组", "ORG"),
)

# sub-words cover entity middles; bridging words straddle entity boundaries
SUBWORDS = ("长河", "大桥", "南山", "港区", "银行", "红星")
BRIDGING = ("市长", "湖边", "城里", "行人")
DISTRACTORS = ("春天", "明天")

LEXICON_WORDS = tuple(w for w, _ in ENTITIES) + SUBWORDS + BRIDGING + DISTRACTORS

FILLER = tuple("我你他在了去看的和到从也就很还边里人多")

# fixed sentences that realize each planted conflict
_FIXED = (
    (("我从", None), ("南山市", "LOC"), ("长河大桥", "LOC"), ("到", None), ("东湖", "LOC"), ("边", None)),
    (("他在", None), ("江城", "LOC"), ("里看", None), ("红星社", "ORG"), ("的人", None)),
    (("去", None), ("华银行", "ORG"), ("人很多", None)),
)


def _encode(segments, scheme: TagScheme, sid: str) -> Sentence:
    text, spans = "", []
    for part, etype in segments:
        if etype is not None:
            spans.append(EntitySpan(len(text) + 1, len(text) + len(part), etype))
        text += part
    return Sentence(tuple(text), tuple(spans_to_tags(spans, len(text), scheme)), sid)


def make_synthetic_corpus(n_sentences: int = 50, seed: int = 7):
    """Build (dataset, lexicon word list, scheme); fully seeded."""
    scheme = TagScheme("BIOES", ("LOC", "ORG"))
    rng = np.random.default_rng(seed)
    sentences: list[Sentence] = []

    for segments in _FIXED[:n_sentences]:
        sentences.append(_encode(segments, scheme, f"syn{len(sentences)}"))

    def filler(lo, hi):
        k = int(rng.integers(lo, hi + 1))
        return "".join(rng.choice(FILLER, size=k)) if k else ""

    while len(sentences) < n_sentences:
        segments = []
        lead = filler(0, 2)
        if lead:
            segments.append((lead, None))
        n_entities = int(rng.integers(1, 3))
        for j in range(n_entities):
            word, etype = ENTITIES[int(rng.integers(0, len(ENTITIES)))]
            segments.append((word, etype))
            gap = filler(1, 3) if j < n_entities - 1 else filler(0, 2)
            if gap:
                segments.append((gap, None))
        sentences.append(_encode(segments, scheme, f"syn{len(sentences)}"))

    dataset = Dataset(sentences, "train", scheme)
    return dataset, list(LEXICON_WORDS), scheme

"""Seeded inputs for the benchmark: long sentences and a large lexicon.

Sentences mix the synthetic corpus's entities (so tags are meaningful) with
runs of filler characters drawn from a fixed-size alphabet. The lexicon
holds the synthetic dictionary plus random filler words. The alphabet is
small enough that random filler bigrams are often dictionary words, so
most characters (about 78%) get at least one neighbor-matched word.

Sentence lengths are stratified (an even spread over the range, shuffled),
so every seed has the same length profile and throughput does not drift
with the seed. Only the characters, entity placement and lexicon differ.
"""
from __future__ import annotations

import numpy as np

from lexner import Dataset, Sentence, extract_entities, make_synthetic_corpus

ALPHABET_SIZE = 180
# share of lexicon words per length; short words dominate real lexicons
WORD_LENGTHS = {2: 0.45, 3: 0.30, 4: 0.15, 5: 0.06, 6: 0.04}
ENTITY_RATE = 0.15   # chance that the next segment is an entity
CJK_FIRST, CJK_SIZE = 0x4E00, 0x51A6   # the CJK Unified Ideographs block


def entity_inventory():
    """(entities, dictionary words, scheme) of the built-in synthetic corpus."""
    dataset, words, scheme = make_synthetic_corpus(50, seed=7)
    entities = set()
    for s in dataset.sentences:
        spans, _ = extract_entities(s.tags, scheme)
        for sp in spans:
            entities.add(("".join(s.chars[sp.start - 1:sp.end]), sp.type))
    return sorted(entities), list(words), scheme


class Generator:
    """All inputs of one benchmark seed."""

    def __init__(self, seed: int, lexicon_size: int):
        self.rng = np.random.default_rng(seed)
        self.entities, self.dictionary, self.scheme = entity_inventory()
        reserved = {c for w in self.dictionary for c in w}
        reserved |= {c for e, _ in self.entities for c in e}
        codes = self.rng.choice(CJK_SIZE, size=ALPHABET_SIZE + len(reserved), replace=False)
        pool = [chr(CJK_FIRST + int(c)) for c in codes]
        self.alphabet = [c for c in pool if c not in reserved][:ALPHABET_SIZE]
        self.words = self._lexicon(lexicon_size)

    def _lexicon(self, size: int) -> list[str]:
        words = set(self.dictionary)
        lengths = np.array(list(WORD_LENGTHS))
        probs = np.array(list(WORD_LENGTHS.values()))
        alphabet = np.array(self.alphabet)
        while len(words) < size:
            k = size - len(words)
            sizes = self.rng.choice(lengths, size=k, p=probs)
            rows = alphabet[self.rng.integers(len(alphabet), size=(k, lengths.max()))]
            words.update("".join(row[:n]) for row, n in zip(rows, sizes))
        return sorted(words)

    def _sentence(self, length: int, sid: str, tagged: bool) -> Sentence:
        chars: list[str] = []
        tags: list[int] = []
        outside = self.scheme.index_of("O")
        while len(chars) < length:
            left = length - len(chars)
            text, etype = self.entities[int(self.rng.integers(len(self.entities)))]
            if self.rng.random() < ENTITY_RATE and len(text) <= left:
                chars.extend(text)
                tags.append(self.scheme.index_of(f"B-{etype}"))
                tags.extend([self.scheme.index_of(f"I-{etype}")] * (len(text) - 2))
                tags.append(self.scheme.index_of(f"E-{etype}"))
                continue
            run = min(int(self.rng.integers(1, 7)), left)
            chars.extend(self.rng.choice(self.alphabet, size=run))
            tags.extend([outside] * run)
        return Sentence(tuple(chars), tuple(tags) if tagged else None, sid)

    def dataset(self, split: str, n: int, lo: int, hi: int, tagged: bool = True):
        """n sentences whose lengths spread evenly over [lo, hi]."""
        lengths = self.rng.permutation(np.round(np.linspace(lo, hi, n)).astype(int))
        sentences = [self._sentence(int(L), f"{split}{k}", tagged)
                     for k, L in enumerate(lengths)]
        return Dataset(sentences, split, self.scheme)

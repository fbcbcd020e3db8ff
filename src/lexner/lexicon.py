"""Dictionary trie and per-character lexicon match sets.

For position i (0-based), `fwd[i]` holds the dictionary words starting at
i and `bwd[i]` the words ending at i. First-order knowledge is their
union; second-order knowledge is the neighbors' contribution
`fwd[i-1] | bwd[i+1]` (missing neighbors contribute nothing).

All sets are stored as tuples of word indices sorted ascending, which,
because the word list itself is sorted by (length, word), equals the
(length, lexicographic) order required for deterministic fusion input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingTable, random_init_row
from .errors import DataError

KNOWLEDGE_MODES = ("slk", "flk", "both", "none")


class _TrieNode:
    __slots__ = ("children", "word")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.word: int | None = None


@dataclass
class Lexicon:
    """Dictionary words, their trie, and their initial embedding rows.

    `words[k]` is the word at index k; `word_index` is the inverse map.
    `embeddings` row k is word k's initial vector (from the embedding
    table where available, uniform-random otherwise); the trainable word
    table is seeded from it.
    """

    words: tuple[str, ...]
    word_index: dict[str, int]
    embeddings: np.ndarray
    min_word_len: int
    max_word_len: int
    n_skipped: int
    n_random_init: int
    root: _TrieNode

    def __len__(self) -> int:
        return len(self.words)


def build_lexicon(words, table: EmbeddingTable | None = None, *, dim: int = 50,
                  min_word_len: int = 2, max_word_len: int = 10,
                  rng: np.random.Generator | None = None) -> Lexicon:
    """Build a trie over `words`, skipping entries outside the length range.

    Words found in `table` take their rows from it; the rest (or all of
    them when `table` is None) get uniform-random rows of size `dim` (or
    the table's dim). Duplicates are stored once. Word indices are
    assigned in (length, lexicographic) order.
    """
    words = list(words)
    if not words:
        raise DataError("cannot build a lexicon from an empty word list")
    if rng is None:
        rng = np.random.default_rng(0)
    d = table.dim if table is not None else dim

    kept = sorted(
        {w for w in words if min_word_len <= len(w) <= max_word_len},
        key=lambda w: (len(w), w),
    )
    n_skipped = len(set(words)) - len(kept)

    rows = np.empty((len(kept), d), dtype=np.float64)
    n_random = 0
    for k, w in enumerate(kept):
        if table is not None and w in table:
            rows[k] = table.lookup(w)
        else:
            rows[k] = random_init_row(d, rng)
            n_random += 1

    root = _TrieNode()
    index = {}
    for k, w in enumerate(kept):
        index[w] = k
        node = root
        for ch in w:
            node = node.children.setdefault(ch, _TrieNode())
        node.word = k

    return Lexicon(tuple(kept), index, rows, min_word_len, max_word_len,
                   n_skipped, n_random, root)


@dataclass
class MatchSets:
    """Per-position word-index sets for one sentence.

    Each field is a tuple of length n; entries are ascending tuples of
    word indices, which is (length, lexicographic) word order.
    """

    fwd: tuple[tuple[int, ...], ...]
    bwd: tuple[tuple[int, ...], ...]
    flk: tuple[tuple[int, ...], ...]
    slk: tuple[tuple[int, ...], ...]


def match_sentence(lexicon: Lexicon, sentence) -> MatchSets:
    """Match every dictionary word occurring in the sentence.

    One trie walk per start position, capped at max_word_len steps, so the
    total work is O(n * max_word_len).
    """
    chars = getattr(sentence, "chars", sentence)
    n = len(chars)
    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        node = lexicon.root
        for j in range(i, min(n, i + lexicon.max_word_len)):
            node = node.children.get(chars[j])
            if node is None:
                break
            if node.word is not None:
                fwd[i].append(node.word)
                bwd[j].append(node.word)

    def merged(a, b):
        return tuple(sorted(set(a) | set(b)))

    fwd_t = tuple(tuple(sorted(s)) for s in fwd)
    bwd_t = tuple(tuple(sorted(s)) for s in bwd)
    flk = tuple(merged(fwd_t[i], bwd_t[i]) for i in range(n))
    slk = tuple(
        merged(fwd_t[i - 1] if i > 0 else (), bwd_t[i + 1] if i + 1 < n else ())
        for i in range(n)
    )
    return MatchSets(fwd_t, bwd_t, flk, slk)


def knowledge_select(match_sets: MatchSets, mode: str) -> tuple[tuple[int, ...], ...]:
    """Pick the per-position word sets for a knowledge mode.

    slk: neighbor-matched words; flk: self-matched words; both: their
    deduplicated union; none: empty sets everywhere.
    """
    mode = mode.lower()
    if mode not in KNOWLEDGE_MODES:
        raise ValueError(f"knowledge mode {mode!r} not in {KNOWLEDGE_MODES}")
    if mode == "slk":
        return match_sets.slk
    if mode == "flk":
        return match_sets.flk
    if mode == "both":
        return tuple(
            tuple(sorted(set(s) | set(f)))
            for s, f in zip(match_sets.slk, match_sets.flk)
        )
    return tuple(() for _ in match_sets.slk)

"""Dictionary word index and per-character lexicon match sets.

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

from .corpus import EmbeddingTable, uniform_bound
from .errors import DataError

KNOWLEDGE_MODES = ("slk", "flk", "both", "none")


@dataclass
class Lexicon:
    """Dictionary words, their index, and their initial embedding rows.

    `words[k]` is the word at index k; `word_index` is the inverse map.
    `embeddings` row k is word k's initial vector (from the embedding
    table where available, uniform-random otherwise); the trainable word
    table is seeded from it. `longest` is the length of the longest kept
    word (0 when none is kept).
    """

    words: tuple[str, ...]
    word_index: dict[str, int]
    embeddings: np.ndarray
    min_word_len: int
    max_word_len: int
    longest: int
    n_skipped: int
    n_random_init: int

    def __len__(self) -> int:
        return len(self.words)


def build_lexicon(words, table: EmbeddingTable | None = None, *, dim: int = 50,
                  min_word_len: int = 2, max_word_len: int = 10,
                  rng: np.random.Generator | None = None) -> Lexicon:
    """Index `words`, skipping entries outside the length range.

    Words found in `table` take their rows from it; the rest (or all of
    them when `table` is None) get rows of size `dim` (or the table's dim)
    drawn uniformly from +-sqrt(3/dim), in one draw, in word-index order.
    Duplicates are stored once. Word indices are assigned in (length,
    lexicographic) order.
    """
    words = list(words)
    if not words:
        raise DataError("cannot build a lexicon from an empty word list")
    if rng is None:
        rng = np.random.default_rng(0)
    d = table.dim if table is not None else dim

    distinct = dict.fromkeys(words)   # keeps order, so a sorted list sorts in linear time
    kept = sorted((w for w in distinct if min_word_len <= len(w) <= max_word_len),
                  key=lambda w: (len(w), w))
    n_skipped = len(distinct) - len(kept)

    rows = np.empty((len(kept), d), dtype=np.float64)
    missing = []
    for k, w in enumerate(kept):
        if table is not None and w in table:
            rows[k] = table.lookup(w)
        else:
            missing.append(k)
    b = uniform_bound(d)
    rows[missing] = rng.uniform(-b, b, (len(missing), d))

    index = {w: k for k, w in enumerate(kept)}
    longest = len(kept[-1]) if kept else 0
    return Lexicon(tuple(kept), index, rows, min_word_len, max_word_len, longest,
                   n_skipped, len(missing))


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

    For each length from min_word_len to the longest word, looks up every
    substring of that length in the word index, so the total work is
    O(n * max_word_len). Going by length keeps each set ascending.
    """
    chars = getattr(sentence, "chars", sentence)
    text = "".join(chars)
    n = len(chars)
    if len(text) != n:
        raise DataError("a sentence must be a sequence of single characters")
    index = lexicon.word_index
    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for length in range(max(lexicon.min_word_len, 1), min(n, lexicon.longest) + 1):
        found = map(index.get, [text[i:i + length] for i in range(n - length + 1)])
        for i, k in enumerate(found):
            if k is not None:
                fwd[i].append(k)
                bwd[i + length - 1].append(k)

    fwd_t = tuple(map(tuple, fwd))
    bwd_t = tuple(map(tuple, bwd))
    flk = tuple(map(_merged, fwd_t, bwd_t))
    slk = tuple(
        _merged(fwd_t[i - 1] if i > 0 else (), bwd_t[i + 1] if i + 1 < n else ())
        for i in range(n)
    )
    return MatchSets(fwd_t, bwd_t, flk, slk)


def _merged(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending union of two ascending word-index tuples."""
    if not a or not b:   # the common case: at most one side has words
        return a or b
    return tuple(sorted(set(a) | set(b)))


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
        return tuple(map(_merged, match_sets.slk, match_sets.flk))
    return tuple(() for _ in match_sets.slk)

"""Dictionary word index, and the per-character word sets of each knowledge mode.

`match_sentence` looks a sentence up once and returns the words it finds
as spans (start, length, id). Each reading then places every span at some
positions: `fwd` at its start s, `bwd` at its end e, first-order knowledge
(`flk`) at both, second-order knowledge (`slk`, the neighbors'
`fwd[i-1] | bwd[i+1]`) at s+1 and e-1, `both` at all four, and `none`
nowhere. Positions outside the sentence are dropped, and the result is a
`fusion.WordSets`, each position's ids ascending and distinct. Because the
word list is sorted by (length, word), that is the (length, lexicographic)
order fusion needs.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import EmbeddingTable, uniform_bound
from .errors import DataError
from .fusion import WordSets

KNOWLEDGE_MODES = ("slk", "flk", "both", "none")


@dataclass
class Lexicon:
    """Distinct dictionary words in (length, lexicographic) order, and their vectors.

    `words[k]` is the word at index k, and `embeddings` row k its vector: the
    initial row from `build_lexicon`, or the trained row from a checkpoint.
    The rest follows from the words: `word_index` is the inverse map, and
    `shortest` and `longest` are the first and last word's lengths (0 if none).
    """

    words: tuple[str, ...]
    embeddings: np.ndarray
    n_skipped: int = 0
    n_random_init: int = 0
    word_index: dict[str, int] = field(init=False)
    shortest: int = field(init=False)
    longest: int = field(init=False)

    def __post_init__(self):
        self.word_index = dict(zip(self.words, range(len(self.words))))
        self.shortest = len(self.words[0]) if self.words else 0
        self.longest = len(self.words[-1]) if self.words else 0

    def __len__(self) -> int:
        return len(self.words)


def build_lexicon(words, table: EmbeddingTable | None = None, *, dim: int = 50,
                  min_word_len: int = 2, max_word_len: int = 10,
                  rng: np.random.Generator | None = None) -> Lexicon:
    """Index `words`, skipping entries outside the length range.

    Duplicates are stored once, and word indices go in (length,
    lexicographic) order. Words found in `table` take their rows from it.
    The rest get rows of size `dim` (or the table's dim) from one uniform
    draw over +-sqrt(3/dim), in word-index order; without a table, that
    draw is the embedding table itself.
    """
    words = list(words)
    if not words:
        raise DataError("cannot build a lexicon from an empty word list")
    if rng is None:
        rng = np.random.default_rng(0)
    d = table.dim if table is not None else dim
    b = uniform_bound(d)

    distinct = dict.fromkeys(words)
    ranked = sorted(sorted(distinct), key=len)   # stable: (length, word) order
    kept = ranked[bisect_left(ranked, min_word_len, key=len):
                  bisect_right(ranked, max_word_len, key=len)]
    n_skipped = len(distinct) - len(kept)

    if table is None:
        rows, missing = rng.uniform(-b, b, (len(kept), d)), kept
    else:
        rows, missing = np.empty((len(kept), d)), []
        for k, w in enumerate(kept):
            if w in table:
                rows[k] = table.lookup(w)
            else:
                missing.append(k)
        rows[missing] = rng.uniform(-b, b, (len(missing), d))

    return Lexicon(tuple(kept), rows, n_skipped, len(missing))


@dataclass(frozen=True)
class MatchSets:
    """Every dictionary word found in a sentence of n characters: word ids[k] covers
    characters starts[k] .. starts[k] + lengths[k] - 1 (all int64). `fwd`, `bwd`,
    `flk` and `slk` are their readings' `WordSets`, each placed on first read and kept.
    """

    n: int
    starts: np.ndarray
    lengths: np.ndarray
    ids: np.ndarray

    fwd = cached_property(lambda self: _placed(self, "fwd"))
    bwd = cached_property(lambda self: _placed(self, "bwd"))
    flk = cached_property(lambda self: _placed(self, "flk"))
    slk = cached_property(lambda self: _placed(self, "slk"))


def match_sentence(lexicon: Lexicon, sentence) -> MatchSets:
    """Match every dictionary word occurring in the sentence.

    For each length from the shortest word to the longest, looks up every
    substring of that length in the word index, so the total work is
    O(n * longest).
    """
    chars = getattr(sentence, "chars", sentence)
    text, n = "".join(chars), len(chars)
    if len(text) != n:
        raise DataError("a sentence must be a sequence of single characters")
    get, longest = lexicon.word_index.get, min(n, lexicon.longest)
    found = [(i, length, k) for length in range(max(lexicon.shortest, 1), longest + 1)
             for i in range(n - length + 1) if (k := get(text[i:i + length])) is not None]
    return MatchSets(n, *np.array(found, np.int64).reshape(-1, 3).T)


# Where each reading places a word spanning characters s..e, as (anchor, shift)
# pairs: at s + shift for anchor 0 and at e + shift for anchor 1.
_PLACES = {reading: np.array(pairs, np.int64).reshape(-1, 2, 1) for reading, pairs in {
    "fwd": [(0, 0)], "bwd": [(1, 0)], "flk": [(0, 0), (1, 0)], "slk": [(0, 1), (1, -1)],
    "both": [(0, 0), (1, 0), (0, 1), (1, -1)], "none": []}.items()}


def _placed(matches: MatchSets, reading: str) -> WordSets:
    """The words `reading` places at each position, in (position, id) order, each once."""
    places, span = _PLACES[reading], int(matches.ids.max(initial=0)) + 1
    pos = matches.starts + places[:, 0] * (matches.lengths - 1) + places[:, 1]
    keys, first = np.unique(pos * span + matches.ids, return_index=True)
    bounds = np.searchsorted(keys, np.arange(matches.n + 1) * span)   # drops keys outside 0..n-1
    inside = slice(bounds[0], bounds[-1])
    match = first[inside] % len(matches.ids)   # entry a * len(ids) + k places match k
    return WordSets(keys[inside] % span, matches.lengths[match], bounds - bounds[0])


def knowledge_select(matches: MatchSets, mode: str) -> WordSets:
    """The per-position word sets of a knowledge mode.

    slk: neighbor-matched words; flk: self-matched words; both: their
    union; none: empty sets everywhere.
    """
    mode = mode.lower()
    if mode not in KNOWLEDGE_MODES:
        raise ValueError(f"knowledge mode {mode!r} not in {KNOWLEDGE_MODES}")
    return _placed(matches, mode)

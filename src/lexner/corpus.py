"""Corpus ingestion: CoNLL files, tag schemes, embedding tables.

All types here are immutable after construction and safe to share across
worker threads. Loading itself is single-threaded.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParseError, SchemeError

log = logging.getLogger(__name__)

DEFAULT_MAX_LEN = 250

_PREFIXES = {"BIO": ("B", "I"), "BIOES": ("B", "I", "E", "S")}


class TagScheme:
    """Tag inventory for BIO or BIOES span encoding.

    Index 0 is always the outside tag "O"; entity tags follow, grouped by
    entity type in the order given. The index mapping is a bijection onto
    0..size-1.

    Args:
        kind: "BIO" or "BIOES".
        labels: ordered entity-type names, e.g. ("LOC", "PER").
    """

    def __init__(self, kind: str = "BIOES", labels=("LOC", "PER", "ORG")):
        kind = kind.upper()
        if kind not in _PREFIXES:
            raise SchemeError(f"unknown tag scheme kind {kind!r}; expected BIO or BIOES")
        if not labels:
            raise SchemeError("tag scheme needs at least one entity type")
        if len(set(labels)) != len(labels):
            raise SchemeError("duplicate entity type in scheme labels")
        self.kind = kind
        self.labels = tuple(labels)
        self.tags = ("O",) + tuple(
            f"{p}-{t}" for t in self.labels for p in _PREFIXES[kind]
        )
        self._index = {tag: i for i, tag in enumerate(self.tags)}

    @property
    def size(self) -> int:
        return len(self.tags)

    def index_of(self, tag: str) -> int:
        try:
            return self._index[tag]
        except KeyError:
            raise SchemeError(f"tag {tag!r} not in {self.kind} scheme over {self.labels}") from None

    def tag_of(self, index: int) -> str:
        return self.tags[index]

    def split_tag(self, index: int) -> tuple[str, str | None]:
        """Return (prefix, entity type); ("O", None) for the outside tag."""
        tag = self.tags[index]
        if tag == "O":
            return "O", None
        prefix, etype = tag.split("-", 1)
        return prefix, etype

    def legal_transition(self, prev: int | None, nxt: int | None) -> bool:
        """Whether tag `nxt` may follow tag `prev`.

        `None` stands for the sentence boundary: prev=None asks whether a
        sentence may start with `nxt`, nxt=None whether it may end with
        `prev`.
        """
        if prev is None and nxt is None:
            return True
        if self.kind == "BIO":
            if nxt is None:
                return True
            np_, nt = self.split_tag(nxt)
            if np_ != "I":
                return True
            if prev is None:
                return False
            pp, pt = self.split_tag(prev)
            return pp in ("B", "I") and pt == nt
        # BIOES
        if prev is None:
            np_, _ = self.split_tag(nxt)
            return np_ in ("O", "B", "S")
        pp, pt = self.split_tag(prev)
        if nxt is None:
            return pp in ("O", "E", "S")
        np_, nt = self.split_tag(nxt)
        if pp in ("B", "I"):
            return np_ in ("I", "E") and nt == pt
        return np_ in ("O", "B", "S")

    def legal_mask(self) -> np.ndarray:
        """(size+2, size+2) boolean transition-legality matrix.

        Rows/columns size and size+1 are the synthetic start and stop
        states used by the CRF.
        """
        k = self.size
        mask = np.zeros((k + 2, k + 2), dtype=bool)
        for i in range(k):
            for j in range(k):
                mask[i, j] = self.legal_transition(i, j)
            mask[k, i] = self.legal_transition(None, i)
            mask[i, k + 1] = self.legal_transition(i, None)
        return mask


@dataclass(frozen=True)
class Sentence:
    """A character sequence with optional gold tag indices."""

    chars: tuple[str, ...]
    tags: tuple[int, ...] | None = None
    id: str = ""

    def __post_init__(self):
        if len(self.chars) < 1:
            raise ParseError(f"sentence {self.id!r} is empty")
        if self.tags is not None and len(self.tags) != len(self.chars):
            raise ParseError(
                f"sentence {self.id!r}: {len(self.tags)} tags for {len(self.chars)} characters"
            )

    def __len__(self) -> int:
        return len(self.chars)


@dataclass
class Dataset:
    """Sentences of one split sharing one tag scheme."""

    sentences: list[Sentence]
    split: str
    scheme: TagScheme
    oversize_split: int = 0

    def __len__(self) -> int:
        return len(self.sentences)

    def stats(self) -> dict:
        lengths = [len(s) for s in self.sentences]
        return {
            "split": self.split,
            "sentences": len(self.sentences),
            "characters": int(sum(lengths)),
            "max_length": int(max(lengths)) if lengths else 0,
            "oversize_split": self.oversize_split,
            "tagset_size": self.scheme.size,
        }


def _renormalize_edges(tags: list[int], scheme: TagScheme) -> list[int]:
    """Fix entity prefixes cut by a max-length split so the piece stays legal."""
    if not tags:
        return tags
    fixed = list(tags)
    prefix, etype = scheme.split_tag(fixed[0])
    if prefix == "I":
        fixed[0] = scheme.index_of(f"B-{etype}")
    elif prefix == "E":  # BIOES only
        fixed[0] = scheme.index_of(f"S-{etype}")
    prefix, etype = scheme.split_tag(fixed[-1])
    if scheme.kind == "BIOES":
        if prefix == "B":
            fixed[-1] = scheme.index_of(f"S-{etype}")
        elif prefix == "I":
            fixed[-1] = scheme.index_of(f"E-{etype}")
    return fixed


def _check_transitions(tags, scheme: TagScheme, where: str) -> None:
    path = [None] + list(tags) + [None]
    for a, b in zip(path, path[1:]):
        if not scheme.legal_transition(a, b):
            pa = scheme.tag_of(a) if a is not None else "<start>"
            pb = scheme.tag_of(b) if b is not None else "<end>"
            raise SchemeError(f"illegal tag transition {pa} -> {pb} in {where}")


def read_conll(path, scheme: TagScheme, split: str = "train",
               max_len: int = DEFAULT_MAX_LEN) -> Dataset:
    """Read a two-column character/tag file in CoNLL layout.

    One character and one tag per line, whitespace-separated; a blank line
    ends a sentence. Sentences longer than `max_len` are split at the
    limit (entity prefixes at the cut are re-normalized) rather than
    dropped; the number of affected sentences is counted in the dataset
    stats. Gold tag sequences with scheme-illegal transitions are
    rejected.
    """
    sentences: list[Sentence] = []
    oversize = 0
    chars: list[str] = []
    tags: list[int] = []
    block_start = 1
    n_read = 0

    def flush() -> None:
        nonlocal chars, tags, oversize, n_read
        if not chars:
            return
        sid = f"s{n_read}"
        n_read += 1
        where = f"{path}: sentence starting at line {block_start}"
        if len(chars) <= max_len:
            _check_transitions(tags, scheme, where)
            sentences.append(Sentence(tuple(chars), tuple(tags), sid))
        else:
            oversize += 1
            pieces = range(0, len(chars), max_len)
            log.warning("%s: length %d exceeds max_len %d; splitting into %d pieces",
                        where, len(chars), max_len, len(pieces))
            for k, a in enumerate(pieces):
                piece_chars = chars[a:a + max_len]
                piece_tags = _renormalize_edges(tags[a:a + max_len], scheme)
                _check_transitions(piece_tags, scheme, where)
                sentences.append(Sentence(tuple(piece_chars), tuple(piece_tags), f"{sid}.{k}"))
        chars, tags = [], []

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                flush()
                block_start = lineno + 1
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected 'char tag', got {len(parts)} column(s)"
                )
            if len(parts[0]) != 1:
                raise ParseError(
                    f"{path}:{lineno}: character column must be a single character, got {parts[0]!r}"
                )
            try:
                tag_idx = scheme.index_of(parts[1])
            except SchemeError as exc:
                raise SchemeError(f"{path}:{lineno}: {exc}") from None
            chars.append(parts[0])
            tags.append(tag_idx)
        flush()

    ds = Dataset(sentences, split, scheme, oversize_split=oversize)
    log.info("dataset loaded: %s", json.dumps(ds.stats(), ensure_ascii=False))
    return ds


def write_conll(sentences, scheme: TagScheme, path) -> None:
    """Write sentences back out in the two-column layout read_conll accepts."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            if sent.tags is None:
                raise ParseError(f"sentence {sent.id!r} has no tags to write")
            for ch, tag in zip(sent.chars, sent.tags):
                fh.write(f"{ch} {scheme.tag_of(tag)}\n")
            fh.write("\n")


class EmbeddingTable:
    """Word-string -> dense row lookup, immutable after construction."""

    def __init__(self, vocab: dict[str, int], matrix: np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != len(vocab):
            raise FormatError(
                f"embedding matrix {matrix.shape} does not match vocab of {len(vocab)}"
            )
        self.vocab = vocab
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.dim = int(matrix.shape[1])

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def lookup(self, word: str) -> np.ndarray:
        return self.matrix[self.vocab[word]]


def load_embeddings(path) -> EmbeddingTable:
    """Load a word2vec-style text embedding file.

    An optional first line "ROWS DIM" (two integers) is accepted; without
    it the dimension is inferred from the first row. Each remaining line
    is a token followed by DIM reals. Duplicate words keep the first
    occurrence (with a warning).
    """
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim: int | None = None
    declared_rows: int | None = None

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if dim is None and len(parts) == 2:
                try:
                    declared_rows, dim = int(parts[0]), int(parts[1])
                    continue
                except ValueError:
                    pass  # not a header; fall through as a data row
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise FormatError(f"{path}:{lineno}: row has no embedding values")
            if len(values) != dim:
                raise FormatError(
                    f"{path}:{lineno}: expected {dim} values, got {len(values)}"
                )
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if not np.all(np.isfinite(vec)):
                raise FormatError(f"{path}:{lineno}: non-finite embedding value")
            if word in vocab:
                log.warning("%s:%d: duplicate word %r ignored (first occurrence kept)",
                            path, lineno, word)
                continue
            vocab[word] = len(rows)
            rows.append(vec)

    if dim is None:
        raise FormatError(f"{path}: empty embedding file")
    if declared_rows is not None and declared_rows != len(rows):
        log.warning("%s: header declares %d rows, file has %d", path, declared_rows, len(rows))
    matrix = np.vstack(rows) if rows else np.zeros((0, dim))
    return EmbeddingTable(vocab, matrix)


def uniform_bound(dim: int) -> float:
    """Half-width of the uniform init range for a `dim`-sized embedding."""
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    return math.sqrt(3.0 / dim)


def build_char_vocab(sentences) -> dict[str, int]:
    """Character -> row index for the trainable character table.

    Index 0 is the shared unknown-character row; remaining characters are
    sorted for determinism.
    """
    seen = set()
    for sent in sentences:
        seen.update(sent.chars)
    vocab = {"<unk>": 0}
    for ch in sorted(seen):
        vocab[ch] = len(vocab)
    return vocab

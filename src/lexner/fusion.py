"""Per-character fusion of matched dictionary words, one call per batch.

The default strategy projects each word vector x_j to u_j = W_u x_j + b_u,
scores it against the global sentence feature g, and mixes the *raw* word
vectors with the softmax weights:

    alpha = softmax_j(u_j . g)        h = sum_j alpha_j x_j

Alternatives (for the strategy comparison): self-attention over pooled
inner products score_j = sum_k u_j . u_k (a documented reconstruction;
the original strategy set names it without a formula), shortest/longest
word wins (ties broken lexicographically), and an unweighted average. An
empty word set yields a zero vector under every strategy.

A batch's word sets are laid out flat, position by position (`WordSets`).
Every strategy is a flat weight vector alpha over that layout (1/m for the
average, one-hot for the word picks), and one segment sum mixes it, so a
batch costs one call whatever its size. Global attention projects no word:
u_j . g = x_j . (W_u^T g) + b_u . g, so it scores every entry with one
product against its sentence's W_u^T g, and its backward pass is rank-one
per sentence the same way. Self-attention projects each distinct word
once. The backward pass returns each entry's word-vector gradient.

Word sets arrive already ordered by (length, lexicographic), so the
shortest pick is the first entry and the longest pick is the first entry
of maximal length.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .numerics import softmax, softmax_backward

STRATEGIES = (
    "global_attention",
    "self_attention",
    "shortest_first",
    "longest_first",
    "average",
)


@dataclass(frozen=True)
class WordSets:
    """A sentence's (or a batch's) per-position word sets, flattened position by position.

    Position i owns entries offsets[i]:offsets[i + 1] of `ids` and `lengths`
    (word ids and their lengths in characters). All int64. `len` is the
    number of positions, and `[i]` position i's ids.
    """

    ids: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.ids[self.offsets[i]:self.offsets[i + 1]]

    @classmethod
    def from_sets(cls, sets, lengths) -> "WordSets":
        """Flatten per-position id sequences and the parallel word lengths."""
        offsets = np.cumsum([0] + [len(s) for s in sets], dtype=np.int64)
        return cls(*(np.fromiter(chain(*x), np.int64) for x in (sets, lengths)), offsets)

    @classmethod
    def concat(cls, parts) -> "WordSets":
        """The word sets of several sentences, one sentence after another."""
        counts = [np.diff(p.offsets) for p in parts]
        return cls(np.concatenate([p.ids for p in parts]),
                   np.concatenate([p.lengths for p in parts]),
                   np.cumsum(np.concatenate([[0], *counts]), dtype=np.int64))


def fuse_sentence(words: WordSets, word_emb, g, W_u, b_u, strategy, lengths=None):
    """Summary vectors for every position of one sentence, or of a batch.

    word_emb: full (V_w, d_w) table; g: global feature, one row per sentence
    of `lengths` (by default, one sentence's vector). Returns (h, alpha,
    cache): h is (n, d_w) with zero rows where a position has no words, alpha
    (L,) the mixing weight of each entry of `words`, cache for the backward.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"fusion strategy {strategy!r} not in {STRATEGIES}")
    counts = np.diff(words.offsets)
    filled = counts > 0
    starts, sizes = words.offsets[:-1][filled], counts[filled]
    X = word_emb[words.ids]                                 # (L, d_w)

    U = S = V = sent = None
    if strategy == "global_attention":
        G = np.reshape(g, (-1, len(W_u)))                   # one row per sentence
        sent = np.repeat(np.repeat(np.arange(len(G)),       # each entry's sentence
                                   len(counts) if lengths is None else lengths), counts)
        V = G @ W_u                                         # W_u^T g, (B, d_w)
        alpha = softmax((X @ V.T + G @ b_u)[np.arange(len(X)), sent], starts)
    elif strategy == "self_attention":
        rows, local = np.unique(words.ids, return_inverse=True)
        U = (word_emb[rows] @ W_u.T + b_u)[local]           # (L, 2*d_h)
        # S: sum of u_k over the entry's position
        S = np.repeat(np.add.reduceat(U, starts), sizes, axis=0)
        alpha = softmax(np.einsum("ij,ij->i", U, S), starts)
    elif strategy == "average":
        alpha = np.repeat(1.0 / sizes, sizes).astype(X.dtype)
    else:
        pick = starts
        if strategy == "longest_first":   # first entry of maximal length
            longest = np.repeat(np.maximum.reduceat(words.lengths, starts), sizes)
            entry = np.arange(len(words.ids))
            pick = np.minimum.reduceat(np.where(words.lengths == longest, entry, len(entry)),
                                       starts)
        alpha = np.zeros(len(words.ids), dtype=X.dtype)
        alpha[pick] = 1.0

    h = np.zeros((len(counts), word_emb.shape[1]), dtype=X.dtype)
    h[filled] = np.add.reduceat(alpha[:, None] * X, starts)
    return h, alpha, (strategy, starts, sizes, counts, X, U, S, g, V, sent, b_u, alpha)


def fuse_sentence_backward(dh, cache, W_u, W_u_grad, b_u_grad):
    """Backprop one sentence or batch: adds into W_u_grad and b_u_grad, returns (dX, dg).

    dX (L, d_w) is the gradient of each entry's word vector, in `words`
    order; dg, shaped like g, is zero unless the strategy uses g.
    """
    strategy, starts, sizes, counts, X, U, S, g, V, sent, b_u, alpha = cache
    dh_entry = np.repeat(dh, counts, axis=0)                # (L, d_w)
    dX = alpha[:, None] * dh_entry                          # from h = sum alpha x
    dg = np.zeros_like(g)
    if strategy in ("global_attention", "self_attention"):
        dscores = softmax_backward(np.einsum("ij,ij->i", X, dh_entry), alpha, starts)
    if strategy == "global_attention":
        # scores_j = x_j . v + b_u . g, with v = W_u^T g of j's sentence
        G = np.reshape(g, (len(V), -1))
        M = np.zeros((len(V), len(X)), dtype=dscores.dtype)   # one row per sentence
        M[sent, np.arange(len(X))] = dscores
        s, total = M @ X, M.sum(axis=1)
        W_u_grad += G.T @ s
        b_u_grad += total @ G
        dg = np.reshape(s @ W_u.T + total[:, None] * b_u, np.shape(g))
        dX += dscores[:, None] * V[sent]
    elif strategy == "self_attention":   # scores_j = u_j . S with S = sum_k u_k
        dU = dscores[:, None] * S + np.repeat(
            np.add.reduceat(dscores[:, None] * U, starts), sizes, axis=0)
        W_u_grad += dU.T @ X
        b_u_grad += dU.sum(axis=0)
        dX += dU @ W_u
    return dX, dg

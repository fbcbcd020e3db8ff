"""Per-character fusion of matched dictionary words.

The default strategy projects each word vector x_j to u_j = W_u x_j + b_u,
scores it against the global sentence feature g, and mixes the *raw* word
vectors with the softmax weights:

    alpha = softmax_j(u_j . g)        h = sum_j alpha_j x_j

Alternatives (for the strategy comparison): self-attention over pooled
inner products score_j = sum_k u_j . u_k (a documented reconstruction;
the original strategy set names it without a formula), shortest/longest
word wins (ties broken lexicographically), and an unweighted average. An
empty word set yields a zero vector under every strategy.

Word sets arrive already ordered by (length, lexicographic), so the
shortest pick is the first entry and the longest pick is the first entry
of maximal length.
"""
from __future__ import annotations

import numpy as np

from .numerics import softmax, softmax_backward

STRATEGIES = (
    "global_attention",
    "self_attention",
    "shortest_first",
    "longest_first",
    "average",
)


def fuse_position(word_ids, lengths, word_emb, g, W_u, b_u, strategy):
    """Summary vector for one position's word set.

    word_ids/lengths: parallel sequences in (length, lexicographic) order;
    word_emb: full (V_w, d_w) table; g: global feature. Returns (h, cache);
    cache is consumed by fuse_backward and carries the mixing weights.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"fusion strategy {strategy!r} not in {STRATEGIES}")
    d_w = word_emb.shape[1]
    m = len(word_ids)
    if m == 0:
        return np.zeros(d_w), ("empty", None)
    ids = np.asarray(word_ids, dtype=np.int64)
    X = word_emb[ids]                               # (m, d_w)

    if strategy == "global_attention":
        U = X @ W_u.T + b_u                         # (m, 2*d_h)
        scores = U @ g
        alpha = softmax(scores)
        h = alpha @ X
        return h, ("global_attention", (ids, X, U, g, alpha))
    if strategy == "self_attention":
        U = X @ W_u.T + b_u
        S = U.sum(axis=0)
        scores = U @ S
        alpha = softmax(scores)
        h = alpha @ X
        return h, ("self_attention", (ids, X, U, S, alpha))
    if strategy == "average":
        alpha = np.full(m, 1.0 / m)
        return X.mean(axis=0), ("average", (ids, alpha))
    lengths = np.asarray(lengths)
    if strategy == "shortest_first":
        pick = 0
    else:  # longest_first: first entry of maximal length
        pick = int(np.argmax(lengths == lengths.max()))
    alpha = np.zeros(m)
    alpha[pick] = 1.0
    return X[pick].copy(), (strategy, (ids, pick, alpha))


def fuse_alphas(cache) -> np.ndarray:
    """Mixing weights recorded by fuse_position (empty array for no words)."""
    kind, payload = cache
    if kind == "empty":
        return np.zeros(0)
    return payload[-1]


def fuse_backward(dh, cache, rows, W_u, word_emb_grad, W_u_grad, b_u_grad):
    """Backprop one position; scatters word-row grads, returns dg.

    word_emb_grad holds table row rows[k] in row k, where `rows` are the sorted
    ids of the sentence's matched words. dg is zero unless the strategy uses g.
    """
    kind, payload = cache
    if kind == "empty":
        return 0.0
    local = np.searchsorted(rows, payload[0])     # every payload starts with the ids
    if kind == "average":
        m = len(local)
        np.add.at(word_emb_grad, local, np.tile(dh / m, (m, 1)))
        return 0.0
    if kind in ("shortest_first", "longest_first"):
        pick = payload[1]
        word_emb_grad[local[pick]] += dh
        return 0.0

    if kind == "global_attention":
        ids, X, U, g, alpha = payload
        dX = np.outer(alpha, dh)                    # from h = alpha @ X
        dalpha = X @ dh
        dscores = softmax_backward(dalpha, alpha)
        dU = np.outer(dscores, g)
        dg = U.T @ dscores
    else:  # self_attention: scores_j = u_j . S with S = sum_k u_k
        ids, X, U, S, alpha = payload
        dX = np.outer(alpha, dh)
        dalpha = X @ dh
        dscores = softmax_backward(dalpha, alpha)
        dU = np.outer(dscores, S) + np.tile(dscores @ U, (len(ids), 1))
        dg = 0.0

    W_u_grad += dU.T @ X
    b_u_grad += dU.sum(axis=0)
    dX += dU @ W_u
    np.add.at(word_emb_grad, local, dX)
    return dg

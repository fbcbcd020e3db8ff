import math

import numpy as np
import pytest

from lexner import ParamStore
from lexner.fusion import STRATEGIES, fuse_alphas, fuse_backward, fuse_position
from lexner.numerics import grad_check


def straight_line_attention(X, W_u, b_u, g):
    """Independent re-statement: project, score against g, softmax, mix."""
    m = len(X)
    U = [[sum(W_u[r][c] * X[j][c] for c in range(len(X[0]))) + b_u[r]
          for r in range(len(b_u))] for j in range(m)]
    scores = [sum(U[j][r] * g[r] for r in range(len(g))) for j in range(m)]
    mx = max(scores)
    ws = [math.exp(s - mx) for s in scores]
    total = sum(ws)
    alpha = [w / total for w in ws]
    h = [sum(alpha[j] * X[j][c] for j in range(m)) for c in range(len(X[0]))]
    return alpha, h


def random_inputs(rng, m, d_w=3, d_g=4):
    word_emb = rng.normal(size=(m + 3, d_w))
    ids = list(rng.choice(m + 3, size=m, replace=False))
    lengths = sorted(int(rng.integers(2, 6)) for _ in range(m))
    W_u = rng.normal(size=(d_g, d_w))
    b_u = rng.normal(size=d_g)
    g = rng.normal(size=d_g)
    return ids, lengths, word_emb, g, W_u, b_u


class TestFusePosition:
    def test_singleton_under_every_strategy(self):
        rng = np.random.default_rng(0)
        ids, lengths, word_emb, g, W_u, b_u = random_inputs(rng, 1)
        for strategy in STRATEGIES:
            h, _ = fuse_position(ids, lengths, word_emb, g, W_u, b_u, strategy)
            assert np.allclose(h, word_emb[ids[0]], atol=1e-15)

    def test_two_words_orthogonal_g_gives_mean(self):
        rng = np.random.default_rng(1)
        ids, lengths, word_emb, _, W_u, b_u = random_inputs(rng, 2, d_g=4)
        U = word_emb[ids] @ W_u.T + b_u
        # g in the null space of both u vectors -> equal scores
        _, _, vt = np.linalg.svd(U)
        g = vt[-1]
        assert np.max(np.abs(U @ g)) < 1e-12
        h, cache = fuse_position(ids, lengths, word_emb, g, W_u, b_u, "global_attention")
        assert np.allclose(fuse_alphas(cache), [0.5, 0.5], atol=1e-12)
        assert np.allclose(h, word_emb[ids].mean(axis=0), atol=1e-12)

    def test_empty_set_zero_vector(self):
        rng = np.random.default_rng(2)
        _, _, word_emb, g, W_u, b_u = random_inputs(rng, 1)
        for strategy in STRATEGIES:
            h, cache = fuse_position([], [], word_emb, g, W_u, b_u, strategy)
            assert np.array_equal(h, np.zeros(word_emb.shape[1]))
            assert fuse_alphas(cache).size == 0

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            ids, lengths, word_emb, g, W_u, b_u = random_inputs(rng, m)
            h, cache = fuse_position(ids, lengths, word_emb, g, W_u, b_u,
                                     "global_attention")
            alpha_o, h_o = straight_line_attention(
                word_emb[ids].tolist(), W_u.tolist(), b_u.tolist(), g.tolist())
            assert np.allclose(fuse_alphas(cache), alpha_o, atol=1e-12)
            assert np.allclose(h, h_o, atol=1e-12)

    def test_shortest_longest_selection(self):
        rng = np.random.default_rng(4)
        word_emb = rng.normal(size=(4, 3))
        ids = [2, 0, 3]          # (length, lex) ordered by contract
        lengths = [2, 3, 3]      # longest tie between ids 0 and 3 -> first (id 0)
        g, W_u, b_u = rng.normal(size=5), rng.normal(size=(5, 3)), rng.normal(size=5)
        h, _ = fuse_position(ids, lengths, word_emb, g, W_u, b_u, "shortest_first")
        assert np.array_equal(h, word_emb[2])
        h, _ = fuse_position(ids, lengths, word_emb, g, W_u, b_u, "longest_first")
        assert np.array_equal(h, word_emb[0])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            fuse_position([0], [2], np.zeros((1, 3)), np.zeros(4),
                          np.zeros((4, 3)), np.zeros(4), "random_word")


class TestAttentionProperties:
    def test_weights_sum_shift_permutation_hull(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            ids, lengths, word_emb, g, W_u, b_u = random_inputs(rng, m)
            for strategy in ("global_attention", "self_attention", "average"):
                h, cache = fuse_position(ids, lengths, word_emb, g, W_u, b_u, strategy)
                alpha = fuse_alphas(cache)
                assert abs(alpha.sum() - 1.0) < 1e-12
                assert np.all(alpha >= 0.0)
                # convex hull bound, componentwise
                X = word_emb[np.asarray(ids)]
                assert np.all(h <= X.max(axis=0) + 1e-12)
                assert np.all(h >= X.min(axis=0) - 1e-12)
                # permuting the word set permutes alpha and keeps h
                perm = rng.permutation(m)
                hp, cachep = fuse_position([ids[j] for j in perm],
                                           [lengths[j] for j in perm],
                                           word_emb, g, W_u, b_u, strategy)
                assert np.allclose(hp, h, atol=1e-12)
                assert np.allclose(fuse_alphas(cachep), alpha[perm], atol=1e-12)

    def test_score_shift_invariance(self):
        # adding c to every score u_j . g leaves alpha unchanged:
        # shift b_u by (c / g.g) g
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            ids, lengths, word_emb, g, W_u, b_u = random_inputs(rng, m)
            c = float(rng.normal(scale=5))
            b_shift = b_u + (c / np.dot(g, g)) * g
            _, cache1 = fuse_position(ids, lengths, word_emb, g, W_u, b_u,
                                      "global_attention")
            _, cache2 = fuse_position(ids, lengths, word_emb, g, W_u, b_shift,
                                      "global_attention")
            assert np.allclose(fuse_alphas(cache1), fuse_alphas(cache2), atol=1e-9)


class TestFuseBackward:
    def _grad_setup(self, rng, m, strategy):
        store = ParamStore()
        store.add("word_emb", rng.normal(size=(m + 2, 3)))
        store.add("W_u", rng.normal(size=(4, 3)))
        store.add("b_u", rng.normal(size=4))
        store.add("g", rng.normal(size=4))
        # ids out of table order, so block rows and table rows differ
        ids = [int(i) for i in rng.permutation(m + 2)[:m]]
        rows = np.unique(ids)
        lengths = sorted(int(rng.integers(2, 6)) for _ in range(m))
        up = rng.normal(size=3)

        def f():
            h, cache = fuse_position(ids, lengths, store.value("word_emb"),
                                     store.value("g"), store.value("W_u"),
                                     store.value("b_u"), strategy)
            block = np.zeros((len(rows), 3))
            dg = fuse_backward(up, cache, rows, store.value("W_u"), block,
                               store["W_u"].grad, store["b_u"].grad)
            store["word_emb"].grad[rows] += block
            store["g"].grad += dg
            return float(np.dot(h, up))

        return f, store, ids

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_gradients(self, strategy):
        rng = np.random.default_rng(7)
        f, store, _ = self._grad_setup(rng, 3, strategy)
        assert grad_check(f, store) < 1e-4

    def test_selection_strategies_gradient_sparse(self):
        rng = np.random.default_rng(8)
        for strategy, pick in (("shortest_first", 0), ("longest_first", 2)):
            word_emb = rng.normal(size=(5, 3))
            ids, lengths = [3, 0, 4], [2, 3, 4]
            rows = np.unique(ids)
            up = rng.normal(size=3)
            h, cache = fuse_position(ids, lengths, word_emb, rng.normal(size=4),
                                     rng.normal(size=(4, 3)), rng.normal(size=4),
                                     strategy)
            block = np.zeros((len(rows), 3))
            fuse_backward(up, cache, rows, np.zeros((4, 3)), block,
                          np.zeros((4, 3)), np.zeros(4))
            at = int(np.searchsorted(rows, ids[pick]))
            assert np.array_equal(block[at], up)
            assert np.all(np.delete(block, at, axis=0) == 0.0)

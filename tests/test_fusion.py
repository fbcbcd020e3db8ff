import math

import numpy as np
import pytest

from lexner import ParamStore
from lexner.fusion import STRATEGIES, WordSets, fuse_sentence, fuse_sentence_backward
from lexner.numerics import grad_check, softmax_backward


def hand_fuse_position(X, lengths, W_u, b_u, g, strategy):
    """Independent per-position re-statement in plain Python: (alpha, h).

    Project, score (against g, or against the position's pooled projections
    for self-attention), softmax, mix; or the fixed weights of the other
    strategies.
    """
    m, d_w = len(X), len(W_u[0])
    if m == 0:
        return [], [0.0] * d_w
    if strategy in ("global_attention", "self_attention"):
        U = [[sum(W_u[r][c] * X[j][c] for c in range(d_w)) + b_u[r]
              for r in range(len(b_u))] for j in range(m)]
        ctx = g
        if strategy == "self_attention":
            ctx = [sum(U[k][r] for k in range(m)) for r in range(len(b_u))]
        scores = [sum(U[j][r] * ctx[r] for r in range(len(ctx))) for j in range(m)]
        mx = max(scores)
        ws = [math.exp(s - mx) for s in scores]
        total = sum(ws)
        alpha = [w / total for w in ws]
    elif strategy == "average":
        alpha = [1.0 / m] * m
    else:
        pick = 0 if strategy == "shortest_first" else lengths.index(max(lengths))
        alpha = [1.0 if j == pick else 0.0 for j in range(m)]
    h = [sum(alpha[j] * X[j][c] for j in range(m)) for c in range(d_w)]
    return alpha, h


def random_inputs(rng, m, d_w=3, d_g=4):
    word_emb = rng.normal(size=(m + 3, d_w))
    ids = list(rng.choice(m + 3, size=m, replace=False))
    lengths = sorted(int(rng.integers(2, 6)) for _ in range(m))
    W_u = rng.normal(size=(d_g, d_w))
    b_u = rng.normal(size=d_g)
    g = rng.normal(size=d_g)
    return ids, lengths, word_emb, g, W_u, b_u


def fuse_one(ids, lengths, word_emb, g, W_u, b_u, strategy):
    """fuse_sentence on a one-position sentence: (h, alpha, cache)."""
    h, alpha, cache = fuse_sentence(WordSets.from_sets([ids], [lengths]),
                                    word_emb, g, W_u, b_u, strategy)
    return h[0], alpha, cache


def random_sentence(rng, n, vocab=6):
    """Word sets over a small vocabulary, so words repeat across positions.

    The first, middle and last positions are empty. Ids rise with word
    length, so ascending ids are in (length, lexicographic) order.
    """
    word_len = np.sort(rng.integers(2, 6, size=vocab))
    sets = []
    for i in range(n):
        m = 0 if i in (0, n // 2, n - 1) else int(rng.integers(0, 4))
        sets.append(sorted(int(w) for w in rng.choice(vocab, size=m, replace=False)))
    return sets, [[int(word_len[w]) for w in s] for s in sets]


class TestFusePosition:
    def test_singleton_under_every_strategy(self):
        rng = np.random.default_rng(0)
        ids, lengths, word_emb, g, W_u, b_u = random_inputs(rng, 1)
        for strategy in STRATEGIES:
            h, _, _ = fuse_one(ids, lengths, word_emb, g, W_u, b_u, strategy)
            assert np.allclose(h, word_emb[ids[0]], atol=1e-15)

    def test_two_words_orthogonal_g_gives_mean(self):
        rng = np.random.default_rng(1)
        ids, lengths, word_emb, _, W_u, b_u = random_inputs(rng, 2, d_g=4)
        U = word_emb[ids] @ W_u.T + b_u
        # g in the null space of both u vectors -> equal scores
        _, _, vt = np.linalg.svd(U)
        g = vt[-1]
        assert np.max(np.abs(U @ g)) < 1e-12
        h, alpha, _ = fuse_one(ids, lengths, word_emb, g, W_u, b_u, "global_attention")
        assert np.allclose(alpha, [0.5, 0.5], atol=1e-12)
        assert np.allclose(h, word_emb[ids].mean(axis=0), atol=1e-12)

    def test_empty_set_zero_vector(self):
        rng = np.random.default_rng(2)
        _, _, word_emb, g, W_u, b_u = random_inputs(rng, 1)
        for strategy in STRATEGIES:
            h, alpha, _ = fuse_one([], [], word_emb, g, W_u, b_u, strategy)
            assert np.array_equal(h, np.zeros(word_emb.shape[1]))
            assert alpha.size == 0

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            ids, lengths, word_emb, g, W_u, b_u = random_inputs(rng, m)
            h, alpha, _ = fuse_one(ids, lengths, word_emb, g, W_u, b_u, "global_attention")
            alpha_o, h_o = hand_fuse_position(
                word_emb[ids].tolist(), lengths, W_u.tolist(), b_u.tolist(), g.tolist(),
                "global_attention")
            assert np.allclose(alpha, alpha_o, atol=1e-12)
            assert np.allclose(h, h_o, atol=1e-12)

    def test_shortest_longest_selection(self):
        rng = np.random.default_rng(4)
        word_emb = rng.normal(size=(4, 3))
        ids = [2, 0, 3]          # (length, lex) ordered by contract
        lengths = [2, 3, 3]      # longest tie between ids 0 and 3 -> first (id 0)
        g, W_u, b_u = rng.normal(size=5), rng.normal(size=(5, 3)), rng.normal(size=5)
        h, _, _ = fuse_one(ids, lengths, word_emb, g, W_u, b_u, "shortest_first")
        assert np.array_equal(h, word_emb[2])
        h, _, _ = fuse_one(ids, lengths, word_emb, g, W_u, b_u, "longest_first")
        assert np.array_equal(h, word_emb[0])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            fuse_one([0], [2], np.zeros((1, 3)), np.zeros(4),
                     np.zeros((4, 3)), np.zeros(4), "random_word")


class TestFuseSentence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_hand_reference_per_position(self, strategy):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            sets, lens = random_sentence(rng, n)
            words = WordSets.from_sets(sets, lens)
            word_emb = rng.normal(size=(6, 3))
            W_u, b_u, g = rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=4)
            h, alpha, _ = fuse_sentence(words, word_emb, g, W_u, b_u, strategy)
            assert h.shape == (n, 3) and alpha.shape == words.ids.shape
            for i, (s, ls) in enumerate(zip(sets, lens)):
                alpha_o, h_o = hand_fuse_position(word_emb[s].tolist(), ls, W_u.tolist(),
                                                  b_u.tolist(), g.tolist(), strategy)
                a, b = words.offsets[i], words.offsets[i + 1]
                assert np.allclose(alpha[a:b], alpha_o, rtol=0, atol=1e-12)
                assert np.allclose(h[i], h_o, rtol=0, atol=1e-12)

    def test_layout(self):
        words = WordSets.from_sets([[], [4, 1], [], [1]], [[], [2, 3], [], [3]])
        assert words.ids.tolist() == [4, 1, 1]
        assert words.lengths.tolist() == [2, 3, 3]
        assert words.offsets.tolist() == [0, 0, 2, 2, 3]
        for arr in (words.ids, words.lengths, words.offsets):
            assert arr.dtype == np.int64

    def test_len_and_index_are_positions(self):
        words = WordSets.from_sets([[], [4, 1], [], [1]], [[], [2, 3], [], [3]])
        assert len(words) == 4
        assert [s.tolist() for s in words] == [[], [4, 1], [], [1]]
        assert words[-3].tolist() == [4, 1]
        with pytest.raises(IndexError):
            words[4]

    def test_no_words_anywhere(self):
        rng = np.random.default_rng(21)
        words = WordSets.from_sets([[], [], []], [[], [], []])
        W_u, b_u, g = rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=4)
        for strategy in STRATEGIES:
            h, alpha, cache = fuse_sentence(words, rng.normal(size=(2, 3)), g, W_u, b_u,
                                            strategy)
            assert np.array_equal(h, np.zeros((3, 3))) and alpha.size == 0
            W_u_grad, b_u_grad = np.zeros((4, 3)), np.zeros(4)
            dX, dg = fuse_sentence_backward(rng.normal(size=(3, 3)), cache, W_u,
                                            W_u_grad, b_u_grad)
            assert dX.shape == (0, 3) and np.array_equal(dg, np.zeros(4))
            assert not np.any(W_u_grad) and not np.any(b_u_grad)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float32_stays_float32(self, strategy):
        rng = np.random.default_rng(22)
        sets, lens = random_sentence(rng, 7)
        words = WordSets.from_sets(sets, lens)
        f32 = np.float32
        word_emb = rng.normal(size=(6, 3)).astype(f32)
        W_u, b_u = rng.normal(size=(4, 3)).astype(f32), rng.normal(size=4).astype(f32)
        g = rng.normal(size=4).astype(f32)
        h, alpha, cache = fuse_sentence(words, word_emb, g, W_u, b_u, strategy)
        assert h.dtype == f32 and alpha.dtype == f32
        assert np.array_equal(h[[0, 3, 6]], np.zeros((3, 3), dtype=f32))   # empty rows
        W_u_grad, b_u_grad = np.zeros_like(W_u), np.zeros_like(b_u)
        dX, dg = fuse_sentence_backward(rng.normal(size=h.shape).astype(f32), cache, W_u,
                                        W_u_grad, b_u_grad)
        for arr in (dg, dX, W_u_grad, b_u_grad):
            assert arr.dtype == f32


class TestAttentionProperties:
    def test_weights_sum_shift_permutation_hull(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            ids, lengths, word_emb, g, W_u, b_u = random_inputs(rng, m)
            for strategy in ("global_attention", "self_attention", "average"):
                h, alpha, _ = fuse_one(ids, lengths, word_emb, g, W_u, b_u, strategy)
                assert abs(alpha.sum() - 1.0) < 1e-12
                assert np.all(alpha >= 0.0)
                # convex hull bound, componentwise
                X = word_emb[np.asarray(ids)]
                assert np.all(h <= X.max(axis=0) + 1e-12)
                assert np.all(h >= X.min(axis=0) - 1e-12)
                # permuting the word set permutes alpha and keeps h
                perm = rng.permutation(m)
                hp, alphap, _ = fuse_one([ids[j] for j in perm],
                                         [lengths[j] for j in perm],
                                         word_emb, g, W_u, b_u, strategy)
                assert np.allclose(hp, h, atol=1e-12)
                assert np.allclose(alphap, alpha[perm], atol=1e-12)

    def test_score_shift_invariance(self):
        # adding c to every score u_j . g leaves alpha unchanged:
        # shift b_u by (c / g.g) g
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            ids, lengths, word_emb, g, W_u, b_u = random_inputs(rng, m)
            c = float(rng.normal(scale=5))
            b_shift = b_u + (c / np.dot(g, g)) * g
            _, alpha1, _ = fuse_one(ids, lengths, word_emb, g, W_u, b_u, "global_attention")
            _, alpha2, _ = fuse_one(ids, lengths, word_emb, g, W_u, b_shift,
                                    "global_attention")
            assert np.allclose(alpha1, alpha2, atol=1e-9)


class TestFuseBackward:
    def _grad_setup(self, rng, m, strategy):
        store = ParamStore()
        store.add("word_emb", rng.normal(size=(m + 2, 3)))
        store.add("W_u", rng.normal(size=(4, 3)))
        store.add("b_u", rng.normal(size=4))
        store.add("g", rng.normal(size=4))
        # ids out of table order, so entries and table rows differ; the
        # sentence has empty positions and repeats words across positions
        ids = [int(i) for i in rng.permutation(m + 2)[:m]]
        lengths = sorted(int(rng.integers(2, 6)) for _ in range(m))
        sets = [[], ids, [], ids[1:], ids[:1], []]
        words = WordSets.from_sets(sets, [[], lengths, [], lengths[1:], lengths[:1], []])
        up = rng.normal(size=(len(sets), 3))

        def f():
            h, _, cache = fuse_sentence(words, store.value("word_emb"), store.value("g"),
                                        store.value("W_u"), store.value("b_u"), strategy)
            dX, dg = fuse_sentence_backward(up, cache, store.value("W_u"),
                                            store["W_u"].grad, store["b_u"].grad)
            np.add.at(store["word_emb"].grad, words.ids, dX)
            store["g"].grad += dg
            return float(np.sum(h * up))

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
            words = WordSets.from_sets([ids], [lengths])
            up = rng.normal(size=3)
            h, _, cache = fuse_sentence(words, word_emb, rng.normal(size=4),
                                        rng.normal(size=(4, 3)), rng.normal(size=4), strategy)
            dX, _ = fuse_sentence_backward(up[None, :], cache, np.zeros((4, 3)),
                                           np.zeros((4, 3)), np.zeros(4))
            assert np.array_equal(dX[pick], up)
            assert np.all(np.delete(dX, pick, axis=0) == 0.0)

    def test_global_attention_backward_equals_the_projection_form(self):
        # the rank-one gradients against the ones of u_j = W_u x_j + b_u, scores u_j . g
        rng = np.random.default_rng(9)
        _, store, _ = self._grad_setup(rng, 4, "global_attention")
        word_emb, W_u, b_u, g = (store.value(n) for n in ("word_emb", "W_u", "b_u", "g"))
        sets = [[], [0, 2, 5], [], [2, 5], [0], []]
        words = WordSets.from_sets(sets, [[2] * len(s) for s in sets])
        up = rng.normal(size=(len(sets), 3))
        _, alpha, cache = fuse_sentence(words, word_emb, g, W_u, b_u, "global_attention")
        dW, db = np.zeros_like(W_u), np.zeros_like(b_u)
        dX, dg = fuse_sentence_backward(up, cache, W_u, dW, db)

        X = word_emb[words.ids]
        U = X @ W_u.T + b_u
        starts = words.offsets[:-1][np.diff(words.offsets) > 0]
        dh_entry = np.repeat(up, np.diff(words.offsets), axis=0)
        ds = softmax_backward(np.einsum("ij,ij->i", X, dh_entry), alpha, starts)
        dU = np.outer(ds, g)
        for got, want in ((dW, dU.T @ X), (db, dU.sum(axis=0)), (dg, ds @ U),
                          (dX, alpha[:, None] * dh_entry + dU @ W_u)):
            assert np.allclose(got, want, rtol=0, atol=1e-12)

import dataclasses
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import encoder_worker
from lexner import ParamStore, TrainConfig, build_lexicon, crf, encoder, fusion, model
from lexner.corpus import Sentence, TagScheme, build_char_vocab
from lexner.diagnostics import tiny_problem
from lexner.encoder import G_MODES
from lexner.errors import DataError, ShapeError
from lexner.fusion import STRATEGIES
from lexner.model import (batch_loss, char_source, decode_sentence, init_params, param_shapes,
                          prepare_sentence, prepare_sentences, sentence_loss, sentence_nll,
                          tag_sentences)
from lexner.numerics import grad_check


def setup_model(seed=0, source="table", fusion="global_attention",
                words=("江城", "城里", "里看"), bigru_total=8):
    rng = np.random.default_rng(seed)
    scheme = TagScheme("BIOES", ("LOC",))
    sent = Sentence(tuple("去江城里看"),
                    tuple(scheme.index_of(t) for t in ("O", "B-LOC", "E-LOC", "O", "O")),
                    "m0")
    lex = build_lexicon(list(words), None, dim=3, rng=rng)
    vocab = build_char_vocab([sent])
    mcfg = TrainConfig(d_c=4, bigru_total=bigru_total, d_w=3, dropout=0.1, fusion_strategy=fusion)
    store = init_params(mcfg, scheme.size, source, len(vocab), lex.embeddings, rng)
    return store, sent, lex, vocab, mcfg, scheme


def without_char_table(store):
    """A copy of a table-mode store without its character table: a file-mode store."""
    out = ParamStore()
    for name, p in store.items():
        if name != "char_emb":
            out.add(name, p.value.copy(), table=p.live is not None)
    return out


class TestSentenceLoss:
    def test_eval_mode_deterministic(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        item = prepare_sentence(sent, lex, vocab, "slk")
        l1 = sentence_loss(store, item, mcfg, train=False)
        l2 = sentence_loss(store, item, mcfg, train=False)
        assert l1 == l2

    def test_train_mode_uses_dropout_rng(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        item = prepare_sentence(sent, lex, vocab, "slk")
        l1 = sentence_loss(store, item, mcfg, train=True,
                           rng=np.random.default_rng(1))
        l2 = sentence_loss(store, item, mcfg, train=True,
                           rng=np.random.default_rng(1))
        l3 = sentence_loss(store, item, mcfg, train=True,
                           rng=np.random.default_rng(2))
        assert l1 == l2 and l1 != l3

    def test_missing_gold_rejected(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        bare = Sentence(sent.chars, None, "m0")
        item = prepare_sentence(bare, lex, vocab, "slk")
        with pytest.raises(DataError):
            sentence_loss(store, item, mcfg, train=False)

    def test_char_gradient_reaches_present_rows(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        item = prepare_sentence(sent, lex, vocab, "slk")
        assert sentence_loss(store, item, mcfg, train=False) > 0
        emb_grad = store["char_emb"].grad
        for ch in sent.chars:
            assert np.any(emb_grad[vocab[ch]] != 0.0), ch
        assert np.all(emb_grad[vocab["<unk>"]] == 0.0)

    @pytest.mark.parametrize("fusion", STRATEGIES)
    def test_embedding_gradients_hold_only_touched_rows(self, fusion):
        # two more words that the sentence does not match
        store, sent, lex, vocab, mcfg, _ = setup_model(
            fusion=fusion, words=("江城", "城里", "里看", "北京", "上海"))
        item = prepare_sentence(sent, lex, vocab, "slk")
        matched = set(item.words.ids.tolist())
        assert 0 < len(matched) < len(lex)
        sentence_loss(store, item, mcfg, train=False)
        untouched = [w for w in range(len(lex)) if w not in matched]
        assert np.all(store["word_emb"].grad[untouched] == 0.0)
        assert set(np.flatnonzero(store["word_emb"].live)) == matched
        chars = {vocab[c] for c in sent.chars}
        assert set(np.flatnonzero(store["char_emb"].live)) == chars

    @pytest.mark.parametrize("source", ["table", "file"])
    def test_param_shapes_are_the_shapes_init_params_makes(self, source):
        store, _, lex, vocab, mcfg, scheme = setup_model(source=source)
        assert char_source(store) == source
        shapes = param_shapes(mcfg, scheme.size, source, len(vocab), len(lex))
        assert {name: p.value.shape for name, p in store.items()} == shapes
        assert store.names() == list(shapes)   # in store order
        tables = {name for name, p in store.items() if p.live is not None}
        assert tables == ({"char_emb", "word_emb"} if source == "table" else {"word_emb"})

    def test_word_init_width_checked(self):
        rng = np.random.default_rng(0)
        mcfg = TrainConfig(d_c=4, bigru_total=8, d_w=3)
        with pytest.raises(ShapeError):
            init_params(mcfg, 3, "table", 5, np.zeros((2, 7)), rng)


def written_out_init(cfg, num_tags, source, char_vocab_size, word_init, rng):
    """What init_params makes, drawn by hand in store order: the character table,
    each direction's gates in GATE_NAMES order, W_u, b_u, the word table, W_o, b_o, T."""
    d_c, d_h, d_w = cfg.d_c, cfg.d_h, cfg.d_w

    def lecun(rows, cols):
        return rng.uniform(-1, 1, (rows, cols)) * np.sqrt(3.0 / cols)

    ref = {}
    if source == "table":
        ref["char_emb"] = rng.uniform(-np.sqrt(3.0 / d_c), np.sqrt(3.0 / d_c),
                                      (char_vocab_size, d_c))
    for direction in ("fwd", "bwd"):
        for g in "zrh":
            ref[f"gru_{direction}.W_{g}"] = lecun(d_h, d_c)
            ref[f"gru_{direction}.U_{g}"] = lecun(d_h, d_h)
            ref[f"gru_{direction}.b_{g}"] = np.zeros(d_h)
    ref["fusion.W_u"] = lecun(2 * d_h, d_w)
    ref["fusion.b_u"] = np.zeros(2 * d_h)
    ref["word_emb"] = word_init
    ref["crf.W_o"] = lecun(num_tags, d_w + 2 * d_h)
    ref["crf.b_o"] = np.zeros(num_tags)
    ref["crf.T"] = crf.init_transitions(num_tags)
    return {name: np.asarray(value, dtype=cfg.dtype) for name, value in ref.items()}


class TestInitParams:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("source", ["table", "file"])
    def test_draws_what_the_written_out_init_draws(self, source, precision):
        mcfg = TrainConfig(d_c=5, bigru_total=8, d_w=3, precision=precision)
        word_init = np.random.default_rng(9).normal(size=(6, 3))
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        store = init_params(mcfg, 5, source, 7, word_init, rng)
        ref = written_out_init(mcfg, 5, source, 7, word_init, ref_rng)
        assert store.names() == list(ref)
        for name, want in ref.items():
            got = store.value(name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name
        assert {name for name, p in store.items() if p.live is not None} == \
            {"char_emb", "word_emb"} & set(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert not np.shares_memory(store.value("word_emb"), word_init)


class TestFloat32:
    def test_backward_pass_stays_float32(self, monkeypatch):
        store, inputs, mcfg = tiny_problem(0, precision="float32")
        seen = {}
        encode_chars, encode_backward = encoder.encode_chars, encoder.encode_backward

        def spy_forward(*args):
            H, cache = encode_chars(*args)
            seen["H"] = H.dtype
            return H, cache

        def spy_backward(*args):
            dX = encode_backward(*args)
            seen["dX"] = dX.dtype
            return dX

        monkeypatch.setattr(encoder, "encode_chars", spy_forward)
        monkeypatch.setattr(encoder, "encode_backward", spy_backward)
        sentence_loss(store, inputs[0], mcfg, train=False)
        assert seen == {"H": np.float32, "dX": np.float32}
        assert all(p.grad.dtype == np.float32 and p.grad.any() for _, p in store.items())


class TestSentenceNll:
    @pytest.mark.parametrize("g_mode", G_MODES)
    @pytest.mark.parametrize("fusion", STRATEGIES)
    def test_equals_eval_mode_loss_bit_for_bit(self, fusion, g_mode):
        store, sent, lex, vocab, mcfg, _ = setup_model(fusion=fusion)
        mcfg = dataclasses.replace(mcfg, g_mode=g_mode)
        item = prepare_sentence(sent, lex, vocab, "slk")
        loss = sentence_loss(store, item, mcfg, train=False)
        assert sentence_nll(store, item, mcfg) == loss

    def test_leaves_gradients_untouched(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        item = prepare_sentence(sent, lex, vocab, "slk")
        sentence_nll(store, item, mcfg)
        for name in store.names():
            assert not np.any(store[name].grad), name

    def test_missing_gold_rejected(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        item = prepare_sentence(Sentence(sent.chars, None, "m0"), lex, vocab, "slk")
        with pytest.raises(DataError):
            sentence_nll(store, item, mcfg)


class TestPrecomputedVectors:
    def test_file_mode_matches_table_mode(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        rows = store.value("char_emb")[[vocab[c] for c in sent.chars]]
        # a file-mode store carries no character table
        store_file = without_char_table(store)
        item_t = prepare_sentence(sent, lex, vocab, "slk")
        item_f = prepare_sentence(sent, lex, vocab, "slk", char_vectors=rows)
        l_t = sentence_loss(store, item_t, mcfg, train=False)
        l_f = sentence_loss(store_file, item_f, mcfg, train=False)
        assert l_t == l_f

    def test_missing_vectors_rejected(self):
        store, sent, lex, vocab, mcfg, _ = setup_model(source="file")
        item = prepare_sentence(sent, lex, vocab, "slk")
        with pytest.raises(DataError):
            sentence_loss(store, item, mcfg, train=False)

    def test_wrong_width_rejected(self):
        store, sent, lex, vocab, mcfg, _ = setup_model(source="file")
        item = prepare_sentence(sent, lex, vocab, "slk",
                                char_vectors=np.zeros((len(sent.chars), 9)))
        with pytest.raises(DataError):
            sentence_loss(store, item, mcfg, train=False)

    def test_no_char_table_param_in_file_mode(self):
        rng = np.random.default_rng(0)
        mcfg = TrainConfig(d_c=4, bigru_total=8, d_w=3)
        store = init_params(mcfg, 3, "file", 5, np.zeros((2, 3)), rng)
        assert "char_emb" not in store


class TestDecode:
    def test_decode_is_deterministic(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        item = prepare_sentence(sent, lex, vocab, "slk")
        assert decode_sentence(store, item, mcfg) == decode_sentence(store, item, mcfg)

    def test_decode_respects_legal_mask(self):
        store, sent, lex, vocab, mcfg, scheme = setup_model()
        item = prepare_sentence(sent, lex, vocab, "slk")
        tags = decode_sentence(store, item, mcfg, scheme.legal_mask())
        path = [None] + tags + [None]
        for a, b in zip(path, path[1:]):
            assert scheme.legal_transition(a, b)

    def test_unknown_chars_fall_back_to_unk(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        other = Sentence(tuple("啊呀嗯哦唉"), None, "u0")
        item = prepare_sentence(other, lex, vocab, "slk")
        assert np.all(item.char_ids == vocab["<unk>"])
        tags = decode_sentence(store, item, mcfg)
        assert len(tags) == len(other.chars)


class TestAttentionProfile:
    def test_alphas_sum_to_one_where_words_exist(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        item = prepare_sentence(sent, lex, vocab, "slk")
        [(_, alphas)] = tag_sentences(store, [item], mcfg)
        offsets = item.words.offsets
        assert len(offsets) == len(sent.chars) + 1
        any_words = False
        for a, b in zip(offsets[:-1], offsets[1:]):
            if b > a:
                any_words = True
                assert abs(float(np.sum(alphas[a:b])) - 1.0) < 1e-9
        assert any_words


class TestTagSentence:
    @pytest.mark.parametrize("fusion", STRATEGIES)
    def test_path_is_decode_and_alphas_are_fusion_weights(self, fusion):
        store, sent, lex, vocab, mcfg, scheme = setup_model(fusion=fusion)
        item = prepare_sentence(sent, lex, vocab, "slk")
        [(path, alphas)] = tag_sentences(store, [item], mcfg, scheme.legal_mask())
        assert path == decode_sentence(store, item, mcfg, scheme.legal_mask())
        assert alphas.shape == item.words.ids.shape and alphas.dtype == mcfg.dtype


class TestPrepareSentences:
    def test_missing_vector_raises_data_error(self):
        _, sent, lex, vocab, _, _ = setup_model()
        other = Sentence(sent.chars, None, "m1")
        rows = np.zeros((len(sent.chars), 4))
        items = prepare_sentences([sent], lex, vocab, "slk", {"m0": rows})
        assert items[0].char_vectors is rows
        with pytest.raises(DataError, match="no precomputed character vectors for sentence 'm1'"):
            prepare_sentences([sent, other], lex, vocab, "slk", {"m0": rows})


def mixed_batch(seed=3, n_sentences=4, max_n=7):
    """A C3-size model and a batch whose sentences have at least three lengths."""
    store, inputs, mcfg = tiny_problem(seed, n_sentences=n_sentences, max_n=max_n)
    assert len({len(item) for item in inputs}) >= 3
    return store, inputs, mcfg


class TestBatchLoss:
    def test_finite_differences(self):
        store, inputs, mcfg = mixed_batch()

        def f():
            return sum(batch_loss(store, inputs, mcfg, train=False))

        def loss_only():
            return sum(sentence_nll(store, item, mcfg) for item in inputs)

        assert grad_check(f, store, loss_only=loss_only) < 1e-4

    @pytest.mark.parametrize("train", [False, True])
    def test_equals_summed_sentence_losses(self, train):
        store, inputs, mcfg = mixed_batch()
        mcfg = dataclasses.replace(mcfg, dropout=0.3)
        seeds = [11, 12, 13, 14]

        def rngs():
            return [np.random.default_rng(s) for s in seeds] if train else None

        losses = batch_loss(store, inputs, mcfg, train=train, rngs=rngs())
        got = {name: store[name].grad.copy() for name in store.names()}
        store.zero_grads()
        for item, rng, loss in zip(inputs, rngs() or [None] * len(inputs), losses):
            want = sentence_loss(store, item, mcfg, train=train, rng=rng)
            assert abs(loss - want) <= 1e-12
        for name in store.names():
            assert np.allclose(got[name], store[name].grad, rtol=0, atol=1e-10), name

    def test_adds_into_the_store_and_marks_only_the_batch_rows_live(self):
        store, inputs, mcfg = mixed_batch()
        batch = inputs[:3]   # the fourth sentence holds the words no other one matches
        assert not store["word_emb"].live.any() and not store["char_emb"].live.any()
        batch_loss(store, batch, mcfg, train=False)
        words = np.unique(np.concatenate([item.words.ids for item in batch]))
        chars = np.unique(np.concatenate([item.char_ids for item in batch]))
        for name, rows in (("word_emb", words), ("char_emb", chars)):
            assert 0 < len(rows) < len(store.value(name)), name
            assert np.array_equal(np.flatnonzero(store[name].live), rows), name
            assert not np.delete(store[name].grad, rows, axis=0).any(), name

    def test_a_sentence_adds_each_part_once(self):
        # so two calls on a zeroed store leave exactly twice one call's gradients
        store, inputs, mcfg = mixed_batch()
        item = max(inputs, key=len)
        assert len(set(item.char_ids.tolist())) < len(item)   # a repeated character
        first = sentence_loss(store, item, mcfg, train=False)
        once = {name: p.grad.copy() for name, p in store.items()}
        # b_u . g shifts each position's scores alike, so b_u gets no gradient
        assert [name for name, g in once.items() if not g.any()] == ["fusion.b_u"]
        assert sentence_loss(store, item, mcfg, train=False) == first
        for name, p in store.items():
            assert p.grad.tobytes() == (once[name] + once[name]).tobytes(), name

    def test_missing_gold_rejected(self):
        store, inputs, mcfg = mixed_batch()
        inputs[1].gold = None
        with pytest.raises(DataError):
            batch_loss(store, inputs, mcfg, train=False)


class TestTagSentences:
    @pytest.mark.parametrize("fusion", STRATEGIES)
    def test_matches_one_sentence_at_a_time(self, fusion, monkeypatch):
        monkeypatch.setattr(model, "TAG_CHUNK", 4)   # three chunks, the last one short
        store, sent, lex, vocab, mcfg, scheme = setup_model(fusion=fusion)
        texts = ["去江城里看", "江城", "里看去", "去", "看江城里", "城里城里江城",
                 "去去去", "江城里看去江", "里", "看看"]
        assert len(texts) > 2 * model.TAG_CHUNK
        items = [prepare_sentence(Sentence(tuple(t), None, f"s{k}"), lex, vocab, "slk")
                 for k, t in enumerate(texts)]
        assert any(len(item.words.ids) == 0 for item in items)   # "去": no words
        legal = scheme.legal_mask()
        tagged = tag_sentences(store, items, mcfg, legal)
        assert len(tagged) == len(items)
        for item, (path, alphas) in zip(items, tagged):
            [(want_path, want_alphas)] = tag_sentences(store, [item], mcfg, legal)
            assert path == want_path and len(path) == len(item)
            assert alphas.shape == want_alphas.shape and alphas.dtype == mcfg.dtype
            assert np.allclose(alphas, want_alphas, rtol=0, atol=1e-12)

    def test_empty_list(self):
        store, _, _, _, mcfg, _ = setup_model()
        assert tag_sentences(store, [], mcfg) == []

    def test_keeps_no_chunk_cache_through_the_next_chunk(self, monkeypatch):
        # numpy traces its data buffers, so the peak counts every array a pass makes
        monkeypatch.setattr(model, "TAG_CHUNK", 1)
        store, _, lex, vocab, mcfg, _ = setup_model()
        items = [prepare_sentence(Sentence(tuple("去江城里看城里" * 120), None, f"s{k}"),
                                  lex, vocab, "slk") for k in range(2)]

        def peak(chunks):
            tracemalloc.start()
            try:
                tag_sentences(store, chunks, mcfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Two chunks hold one chunk's arrays and the first chunk's tags and lattice;
        # a first chunk's cache kept through the second's forward pass took 1.8x.
        assert peak(items) < 1.5 * peak(items[:1])

    def test_peak_per_character_is_the_arrays_a_chunk_holds(self):
        store, _, lex, vocab, mcfg, _ = setup_model(bigru_total=256)
        items = [prepare_sentence(Sentence(tuple("去江城里看城里" * 120), None, f"s{k}"),
                                  lex, vocab, "slk") for k in range(2)]
        tracemalloc.start()
        try:
            tag_sentences(store, items, mcfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Per character a chunk holds the gates A (3 d_h) and the states S (d_h) of both
        # directions, H (2 d_h), R = [Hsw | H] (d_w + 2 d_h) and the packed X (d_c). The
        # lattice, fusion's entries and the step scratch fit in d_h more values; keeping
        # r * h of every step, in both directions, took 2 d_h more.
        d_h, d_c, d_w = mcfg.d_h, mcfg.d_c, mcfg.d_w
        held = 2 * 3 * d_h + 2 * d_h + 2 * d_h + (d_w + 2 * d_h) + d_c
        assert peak / sum(map(len, items)) < mcfg.dtype.itemsize * (held + d_h)


TAG_TEXTS = ["去江城里看", "江城", "里看去", "去", "看江城里", "城里城里江城", "去去去", "江城里看去江"]


class TestTwoThreads:
    """The encoder's backward direction on its worker thread gives the same bits."""

    def test_batch_loss_gives_the_same_bits_on_both_paths(self):
        runs = []
        for on in (False, True):
            store, inputs, mcfg = mixed_batch()
            with encoder_worker(on):
                losses = batch_loss(store, inputs, mcfg, train=True,
                                    rngs=[np.random.default_rng(s) for s in range(len(inputs))])
            runs.append((losses, {name: p.grad.tobytes() for name, p in store.items()}))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("fusion", STRATEGIES)
    def test_tag_sentences_gives_the_same_bits_on_both_paths(self, fusion):
        store, sent, lex, vocab, mcfg, scheme = setup_model(fusion=fusion)
        items = [prepare_sentence(Sentence(tuple(t), None, f"s{k}"), lex, vocab, "slk")
                 for k, t in enumerate(TAG_TEXTS)]
        runs = []
        for on in (False, True):
            with encoder_worker(on):
                runs.append([(path, alphas.tobytes())
                             for path, alphas in tag_sentences(store, items, mcfg, scheme.legal_mask())])
        assert runs[0] == runs[1]

    def test_repeated_tagging_leaves_one_worker_thread(self):
        store, sent, lex, vocab, mcfg, _ = setup_model()
        items = [prepare_sentence(Sentence(tuple(t), None, f"s{k}"), lex, vocab, "slk")
                 for k, t in enumerate(TAG_TEXTS)]
        before = threading.active_count()
        with encoder_worker(True):
            for _ in range(5):
                tag_sentences(store, items, mcfg)
        assert threading.active_count() <= before + 1
        assert sum(t.name.startswith("lexner-gru") for t in threading.enumerate()) == 1


def count_calls(monkeypatch, *targets):
    """Count the calls of each (module or class, function name) through its owner."""
    calls = Counter()
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=f"{module.__name__}.{name}", **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestOnePassPerBatch:
    """The graph runs once per batch, whatever the number of sentences."""

    def test_batch_loss_makes_one_call_per_stage(self, monkeypatch):
        store, inputs, mcfg = mixed_batch()
        stages = [(encoder, "encode_chars"), (encoder, "encode_backward"),
                  (fusion, "fuse_sentence"), (fusion, "fuse_sentence_backward"),
                  (crf, "nll"), (crf, "emissions_backward"), (encoder.Layout, "__init__")]
        calls = count_calls(monkeypatch, *stages)
        batch_loss(store, inputs, mcfg, train=True,
                   rngs=[np.random.default_rng(s) for s in range(len(inputs))])
        assert len(inputs) > 1
        assert calls == {f"{module.__name__}.{name}": 1 for module, name in stages}

    def test_tag_sentences_makes_one_viterbi_call_per_chunk(self, monkeypatch):
        monkeypatch.setattr(model, "TAG_CHUNK", 8)
        store, sent, lex, vocab, mcfg, _ = setup_model()
        texts = ["去江城里看", "江城", "里看去", "去", "看江城里", "城里城里江城"] * 3
        items = [prepare_sentence(Sentence(tuple(t), None, f"s{k}"), lex, vocab, "slk")
                 for k, t in enumerate(texts)]
        calls = count_calls(monkeypatch, (encoder, "encode_chars"), (fusion, "fuse_sentence"),
                            (crf, "viterbi"), (crf, "nll"), (encoder.Layout, "__init__"))
        tag_sentences(store, items, mcfg)
        chunks = -(-len(items) // model.TAG_CHUNK)
        assert chunks > 2 and calls == {"lexner.encoder.encode_chars": chunks,
                                        "lexner.fusion.fuse_sentence": chunks,
                                        "lexner.crf.viterbi": chunks, "Layout.__init__": chunks}

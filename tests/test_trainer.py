import dataclasses
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexner import (Checkpoint, ParamStore, TrainConfig, adam_step,
                    build_lexicon, encoder, make_synthetic_corpus, model, train, trainer)
from lexner.corpus import Dataset, Sentence, TagScheme
from lexner.errors import ConfigError, NumericError
from lexner.model import (char_source, prepare_sentence, prepare_sentences, sentence_loss,
                          tag_sentences)
from lexner.trainer import evaluate, gold_spans


def whole_copy(store):
    """Reference snapshot: every array copied in full, the mask too."""
    out = ParamStore()
    for name, p in store.items():
        out.add(name, p.value.copy())
        out[name].m[...], out[name].v[...] = p.m, p.v
        out[name].live = None if p.live is None else p.live.copy()
    return out


def assert_same_store(a, b):
    assert a.names() == b.names()
    for name, p in a.items():
        q = b[name]
        for x, y in ((p.value, q.value), (p.m, q.m), (p.v, q.v)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert (p.live is None) == (q.live is None), name
        assert p.live is None or np.array_equal(p.live, q.live), name


def tiny_config(**kw):
    base = dict(lr=1e-2, batch_size=8, dropout=0.1, d_c=8, d_w=8, bigru_total=16,
                epochs=3, patience=100, seed=5, knowledge_mode="slk")
    base.update(kw)
    return TrainConfig(**base)


def tiny_corpus(n=6, seed=3):
    ds, words, scheme = make_synthetic_corpus(n_sentences=n, seed=seed)
    lex = build_lexicon(words, None, dim=8, rng=np.random.default_rng(0))
    return ds, lex, scheme


def textbook_adam(store, lr, beta1=0.9, beta2=0.999, eps=1e-8, t=1,
                  clip_norm=None, skip=()):
    """Reference: the Adam update written as plain array expressions."""
    if clip_norm is not None:
        total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for _, p in store.items()))
        if total > clip_norm:
            for _, p in store.items():
                p.grad *= clip_norm / total
    for name, p in store.items():
        if name in skip:
            p.grad[...] = 0.0
            continue
        p.m[...] = beta1 * p.m + (1.0 - beta1) * p.grad
        p.v[...] = beta2 * p.v + (1.0 - beta2) * p.grad ** 2
        m_hat = p.m / (1.0 - beta1 ** t)
        v_hat = p.v / (1.0 - beta2 ** t)
        p.value[...] = p.value - lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad[...] = 0.0


def whole_file_reader(path):
    """Reference LXC1 reader as earlier versions wrote it: the whole file as
    bytes, each entry viewed with frombuffer and copied out with astype."""
    data = Path(path).read_bytes()
    assert data[:4] == b"LXC1" and struct.unpack_from("<I", data, 4) == (1,)
    (meta_len,) = struct.unpack_from("<I", data, 8)
    at = 12 + meta_len
    meta = json.loads(data[12:at].decode("utf-8"))
    (n_entries,) = struct.unpack_from("<I", data, at)
    at += 4
    arrays = {}
    for _ in range(n_entries):
        (name_len,) = struct.unpack_from("<H", data, at)
        name = data[at + 2:at + 2 + name_len].decode("utf-8")
        at += 2 + name_len
        code, ndim = struct.unpack_from("<BB", data, at)
        shape = struct.unpack_from(f"<{ndim}I", data, at + 2)
        at += 2 + 4 * ndim
        dtype = np.dtype({1: "<f8", 2: "<f4"}[code])
        size = math.prod(shape) * dtype.itemsize
        raw = np.frombuffer(data[at:at + size], dtype=dtype).reshape(shape)
        arrays[name] = raw.astype(dtype.newbyteorder("="))
        at += size
    assert at == len(data)
    return arrays, meta


class TestAdamStep:
    @pytest.mark.parametrize("kw", [{}, {"skip": ("b",)}, {"clip_norm": 0.5}],
                             ids=["plain", "skip", "clip_norm"])
    def test_matches_textbook_bit_for_bit(self, kw):
        rng = np.random.default_rng(11)
        shapes = {"a": ((6, 3), np.float64), "b": ((4,), np.float32),
                  "c": ((2, 5, 2), np.float32), "d": ((7,), np.float64)}
        ours, ref = ParamStore(), ParamStore()
        for name, (shape, dtype) in shapes.items():
            value = (1e-3 * rng.normal(size=shape)).astype(dtype)   # steps show in the bits
            ours.add(name, value.copy())
            ref.add(name, value.copy())
        for t in (1, 2, 3):
            for name, (shape, dtype) in shapes.items():
                g = rng.normal(size=shape).astype(dtype)
                ours[name].grad += g
                ref[name].grad += g
            adam_step(ours, 1e-2, t=t, **kw)
            textbook_adam(ref, 1e-2, t=t, **kw)
            for name in shapes:
                for field in ("value", "m", "v"):
                    got, want = getattr(ours[name], field), getattr(ref[name], field)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (t, name, field)
                assert np.all(ours[name].grad == 0.0)

    def test_first_step_closed_form(self):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0, 0.5]))
        g = np.array([0.3, -0.1, 2.0])
        store["w"].grad += g
        lr, eps = 1e-2, 1e-8
        adam_step(store, lr, t=1, eps=eps)
        expected = np.array([1.0, -2.0, 0.5]) - lr * g / (np.abs(g) + eps)
        assert np.allclose(store.value("w"), expected, atol=1e-12)
        assert np.all(store["w"].grad == 0.0)

    def test_zero_gradient_keeps_value(self):
        store = ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        adam_step(store, 1e-2, t=1)
        assert np.array_equal(store.value("w"), [1.0, 2.0])

    def test_moments_decay_on_zero_gradient(self):
        store = ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        store["w"].grad += 0.5
        adam_step(store, 1e-2, t=1)
        m_after_first = store["w"].m.copy()
        adam_step(store, 1e-2, t=2)   # zero gradient step
        assert np.allclose(store["w"].m, 0.9 * m_after_first, atol=1e-15)

    def test_non_finite_gradient_names_param(self):
        store = ParamStore()
        store.add("bad_one", np.zeros(2))
        store["bad_one"].grad[0] = np.inf
        with pytest.raises(NumericError, match="bad_one"):
            adam_step(store, 1e-2, t=1)

    def test_skip_freezes_param(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        store["w"].grad += 1.0
        adam_step(store, 1e-2, t=1, skip=("w",))
        assert np.array_equal(store.value("w"), [1.0, 1.0])

    def test_clip_norm(self):
        store = ParamStore()
        store.add("w", np.zeros(4))
        store["w"].grad += np.array([3.0, 4.0, 0.0, 0.0])   # norm 5
        adam_step(store, 1.0, t=1, clip_norm=1.0)
        # post-clip gradient direction is preserved
        v = store.value("w")
        assert v[0] < 0 and v[1] < 0 and abs(v[2]) < 1e-12

    def test_three_step_replay_bit_identical(self):
        def run():
            rng = np.random.default_rng(9)
            store = ParamStore()
            store.add("w", rng.normal(size=5))
            for t in range(1, 4):
                store["w"].grad += rng.normal(size=5)
                adam_step(store, 1e-3, t=t)
            return store.value("w").tobytes()

        assert run() == run()


class TestLiveRowAdam:
    """Tables whose gradients arrive by rows are updated on their live rows only."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_textbook_bit_for_bit(self, data):
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        n = {"emb": draw(st.integers(1, 9)), "vec": draw(st.integers(1, 9))}
        shapes = {"emb": (n["emb"], draw(st.integers(1, 4))), "vec": (n["vec"],), "w": (3, 2)}
        ours, ref, start = ParamStore(), ParamStore(), {}
        for name, shape in shapes.items():
            dtype = draw(st.sampled_from([np.float32, np.float64]), label=f"{name} dtype")
            start[name] = (1e-3 * rng.normal(size=shape)).astype(dtype)   # steps show in the bits
            # a fresh table starts with an empty mask; any other builds it from its moments
            ours.add(name, start[name].copy(), table=name in n and draw(st.booleans()))
            ref.add(name, start[name].copy())
        kw = {"skip": draw(st.sampled_from([(), ("emb",), ("w",)]), label="skip"),
              "clip_norm": draw(st.sampled_from([None, 0.5, 1e3]), label="clip_norm")}
        steps = draw(st.integers(2, 5), label="steps")
        copy_at, save_at = (draw(st.integers(1, steps - 1), label=f"{what} after step")
                            for what in ("copy", "save"))
        listed = {name: set() for name in n}
        for t in range(1, steps + 1):
            for _ in range(draw(st.integers(0, 3), label="sentences")):
                rows = {name: np.array(sorted(draw(st.sets(st.integers(0, n[name] - 1)))),
                                       dtype=np.int64) for name in n}
                for name in shapes:
                    at = rows.get(name, ...)
                    part = rng.normal(size=ours[name].grad[at].shape)
                    ours[name].grad[at] += part
                    ref[name].grad[at] += part   # the same additions, for the dense reference
                for name in n:
                    listed[name].update(rows[name].tolist())
                    ours[name].mark_live(rows[name])
            assert adam_step(ours, 1e-2, t=t, **kw) <= sum(v.size for v in start.values())
            textbook_adam(ref, 1e-2, t=t, **kw)
            for name in shapes:
                for field in ("value", "m", "v"):
                    got, want = getattr(ours[name], field), getattr(ref[name], field)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (t, name, field)
                assert not np.any(ours[name].grad)
            for name in n:
                never = np.setdiff1d(np.arange(n[name]), sorted(listed[name]))
                p = ours[name]
                assert not np.any(p.m[never]) and not np.any(p.v[never])
                assert p.value[never].tobytes() == start[name][never].tobytes()
            if t == copy_at:
                ours = ours.copy()
            if t == save_at:
                with tempfile.TemporaryDirectory() as tmp:
                    ours.save(Path(tmp) / "store.bin")
                    ours, _ = ParamStore.load(Path(tmp) / "store.bin")

    def test_counts_the_values_it_updates(self):
        store = ParamStore()
        store.add("emb", np.ones((5, 3)), table=True)
        store.add("w", np.ones(4))
        store["emb"].grad[[1, 3]] = 1.0
        store["emb"].mark_live(np.array([1, 3]))
        assert np.array_equal(store["emb"].live, [False, True, False, True, False])
        assert adam_step(store, 1e-2, t=1) == 2 * 3 + 4
        assert adam_step(store, 1e-2, t=2, skip=("w",)) == 2 * 3
        assert np.array_equal(store.value("emb")[[0, 2, 4]], np.ones((3, 3)))

    def test_copy_keeps_the_mask(self):
        store = ParamStore()
        store.add("emb", np.ones((4, 2)), table=True)
        store["emb"].live[2] = True
        copy = store.copy()
        assert np.array_equal(copy["emb"].live, store["emb"].live)
        assert copy["emb"].live is not store["emb"].live

    def test_copy_equals_a_whole_copy(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        store = train(ds, ds, lex, tiny_config(epochs=2)).last.store
        assert 0 < store["word_emb"].live.sum() < len(lex)
        copy, want = store.copy(), whole_copy(store)
        assert_same_store(copy, want)
        assert not any(copy[name].grad.any() for name in copy.names())
        copy.save(tmp_path / "copy.bin")
        want.save(tmp_path / "want.bin")
        assert (tmp_path / "copy.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()
        loaded, _ = ParamStore.load(tmp_path / "copy.bin")
        assert all(p.live is None for _, p in loaded.items())
        assert_same_store(loaded.copy(), whole_copy(loaded))

    def test_resume_from_a_copy_equals_resume_from_a_whole_copy(self):
        ds, lex, _ = tiny_corpus()
        half = train(ds, ds, lex, tiny_config(epochs=2)).last
        runs = []
        for store in (half.store.copy(), whole_copy(half.store)):
            ckpt = Checkpoint(store, *(getattr(half, f) for f in
                                       ("config", "epoch", "best_dev_f1", "rng_state",
                                        "adam_t", "char_vocab", "scheme_kind", "labels",
                                        "words")))
            runs.append(train(ds, ds, lex, tiny_config(epochs=4), resume=ckpt).last.store)
        assert_same_store(*runs)

    def test_loaded_mask_comes_from_the_moments(self, tmp_path):
        store = ParamStore()
        store.add("emb", np.ones((4, 2)))
        store["emb"].m[1, 1] = 0.5
        store["emb"].v[2, 0] = -0.0   # the update would turn it into +0.0
        store.save(tmp_path / "store.bin")
        loaded, _ = ParamStore.load(tmp_path / "store.bin")
        assert loaded["emb"].live is None
        loaded["emb"].mark_live(np.array([3]))
        assert np.array_equal(loaded["emb"].live, [False, True, True, True])


class TestLazyGradient:
    def test_snapshots_and_loaded_stores_allocate_no_gradient(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        result = train(ds, ds, lex, tiny_config(epochs=2))
        result.last.save(tmp_path / "model.ckpt")
        stores = (result.best.store, result.last.store, result.last.store.copy(),
                  Checkpoint.load(tmp_path / "model.ckpt").store)
        for store in stores:
            assert [name for name, p in store.items() if p._grad is not None] == []
        p = stores[-1]["word_emb"]
        grad = p.grad
        assert p._grad is grad and not grad.any()
        assert (grad.shape, grad.dtype) == (p.value.shape, p.value.dtype)
        p.grad += 1.0
        assert p.grad is grad and np.all(grad == 1.0)


class TestTrainConfig:
    def test_defaults_match_reference_settings(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.batch_size, cfg.dropout) == (5e-5, 32, 0.1)
        assert (cfg.max_len, cfg.d_w, cfg.bigru_total, cfg.layers) == (250, 50, 512, 1)

    def test_rejects_multi_layer(self):
        with pytest.raises(ConfigError):
            TrainConfig(layers=2)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(knowledge_mode="zeroth")

    def test_round_trip_dict(self):
        cfg = tiny_config()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key,value", [
        ("seed", "x"), ("epochs", True), ("epochs", 2.0), ("lr", "0.1"), ("lr", False),
        ("freeze_word_emb", 1), ("clip_norm", "1"), ("knowledge_mode", 3),
        # well typed, but clip_norm -1 turns descent into ascent, 0 freezes every
        # weight, and a bad g_mode would fail only at the first forward pass
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", float("nan")),
        ("patience", 0), ("patience", -1), ("g_mode", "bogus"),
        # NaN passes a `<= 0` test and inf is positive, but Adam fails on either; one
        # step of lr 1e300 took the weights where the next forward pass overflowed
        ("lr", float("nan")), ("lr", float("inf")), ("lr", 1e300), ("lr", 1.5),
    ])
    def test_from_dict_rejects_a_value_of_the_wrong_type(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_dict({**tiny_config().to_dict(), key: value})

    def test_from_dict_takes_ints_for_floats_and_no_clip_norm(self):
        base = tiny_config().to_dict()
        assert TrainConfig.from_dict({**base, "lr": 1, "clip_norm": 5}).clip_norm == 5
        assert TrainConfig.from_dict({**base, "clip_norm": None}).clip_norm is None


class TestTrainLoop:
    def test_empty_train_set_rejected(self):
        ds, lex, scheme = tiny_corpus()
        empty = Dataset([], "train", scheme)
        with pytest.raises(ConfigError):
            train(empty, ds, lex, tiny_config())

    def test_history_and_log_file(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        log_path = tmp_path / "train.log"
        result = train(ds, ds, lex, tiny_config(epochs=2), log_path=log_path)
        assert len(result.history) == 2
        for rec in result.history:
            assert rec["train_nll"] >= 0.0 and np.isfinite(rec["train_nll"])
            assert set(rec) == {"epoch", "train_nll", "dev_p", "dev_r", "dev_f1", "seconds",
                                "adam_values", "peak_rss_mb", "train_chars_per_s",
                                "lexicon_coverage", "lexicon_words_per_char"}
            # one step per epoch: every dense value, plus the live rows of both tables
            assert 0 < rec["adam_values"] < result.last.store.num_values()
            assert rec["train_chars_per_s"] > sum(map(len, ds.sentences)) / rec["seconds"]
        # coverage: the share of training characters that have a word in their set
        inputs = prepare_sentences(ds.sentences, lex, result.last.char_vocab, "slk")
        share = np.mean(np.concatenate([np.diff(item.words.offsets) for item in inputs]) > 0)
        assert 0 < share < 1
        assert [rec["lexicon_coverage"] for rec in result.history] == [share, share]
        # words per character: every word-set entry over the training characters
        per_char = sum(len(item.words.ids) for item in inputs) / sum(map(len, inputs))
        assert per_char > share   # some characters have more than one word
        assert [rec["lexicon_words_per_char"] for rec in result.history] == [per_char, per_char]
        peaks = [rec["peak_rss_mb"] for rec in result.history]
        assert 0 < peaks[0] <= peaks[1]   # the process's peak so far, as `tag -v` reports it
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [l["epoch"] for l in lines] == [1, 2]

    def test_a_fresh_run_starts_the_log_over(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        log_path = tmp_path / "train.log"
        for _ in range(2):
            result = train(ds, ds, lex, tiny_config(epochs=2), log_path=log_path)
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert lines == json.loads(json.dumps(result.history))

    def test_a_resume_continues_the_log(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        log_path = tmp_path / "train.log"
        half = train(ds, ds, lex, tiny_config(epochs=2), log_path=log_path)
        train(ds, ds, lex, tiny_config(epochs=4), resume=half.last, log_path=log_path)
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [l["epoch"] for l in lines] == [1, 2, 3, 4]

    @pytest.mark.parametrize("decode_mask", [False, True])
    def test_dev_evaluation_applies_decode_mask(self, monkeypatch, decode_mask):
        ds, lex, _ = tiny_corpus()
        masks = []

        def spy(store, items, cfg, legal=None):
            masks.append(legal)
            return tag_sentences(store, items, cfg, legal)

        monkeypatch.setattr(trainer, "tag_sentences", spy)
        cfg = tiny_config(epochs=1, decode_mask=decode_mask)
        result = train(ds, ds, lex, cfg)   # one dev pass
        inputs = prepare_sentences(ds.sentences, lex, result.last.char_vocab, "slk")
        evaluate(result.last.store, inputs, gold_spans(ds), ds.scheme, cfg)
        assert len(masks) == 2
        for legal in masks:
            if decode_mask:
                assert np.array_equal(legal, ds.scheme.legal_mask())
            else:
                assert legal is None

    def test_deterministic_given_seed(self):
        ds, lex, _ = tiny_corpus()

        def run():
            result = train(ds, ds, lex, tiny_config(epochs=2))
            return {name: result.last.store.value(name).tobytes()
                    for name in result.last.store.names()}

        a, b = run(), run()
        assert a == b

    def test_worker_count_does_not_change_result(self):
        ds, lex, _ = tiny_corpus()
        r1 = train(ds, ds, lex, tiny_config(epochs=2, workers=1))
        r2 = train(ds, ds, lex, tiny_config(epochs=2, workers=3))
        for name in r1.last.store.names():
            assert r1.last.store.value(name).tobytes() == r2.last.store.value(name).tobytes()

    def test_one_encoder_call_per_batch_and_per_chunk(self, monkeypatch):
        monkeypatch.setattr(model, "TAG_CHUNK", 8)
        ds, lex, _ = tiny_corpus(n=10)
        calls = []
        encode_chars, encode_backward = encoder.encode_chars, encoder.encode_backward

        def spy_forward(X, *args):
            calls.append(("forward", len(X)))
            return encode_chars(X, *args)

        def spy_backward(dH, *args):
            calls.append(("backward", len(dH)))
            return encode_backward(dH, *args)

        monkeypatch.setattr(encoder, "encode_chars", spy_forward)
        monkeypatch.setattr(encoder, "encode_backward", spy_backward)
        result = train(ds, ds, lex, tiny_config(epochs=1, batch_size=4))
        chars = sum(len(s) for s in ds.sentences)
        # three mini-batches (4 + 4 + 2 sentences), then dev tagging in chunks of 8
        kinds = [kind for kind, _ in calls]
        assert kinds == ["forward", "backward"] * 3 + ["forward"] * 2
        assert sum(n for kind, n in calls[:6] if kind == "forward") == chars
        assert sum(n for _, n in calls[6:]) == chars
        calls.clear()
        inputs = prepare_sentences(ds.sentences, lex, result.last.char_vocab, "slk")
        evaluate(result.last.store, inputs, {}, ds.scheme, result.last.config)
        assert [kind for kind, _ in calls] == ["forward"] * 2

    def test_resume_with_several_steps_per_epoch(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        cfg = dict(epochs=4, batch_size=2)   # three Adam steps an epoch
        full = train(ds, ds, lex, tiny_config(**cfg))
        half = train(ds, ds, lex, tiny_config(**{**cfg, "epochs": 2}))
        path = tmp_path / "half.ckpt"
        half.last.save(path)
        loaded = Checkpoint.load(path)
        assert all(p.live is None for _, p in loaded.store.items())
        resumed = train(ds, ds, lex, tiny_config(**cfg), resume=loaded)
        for name, p in full.last.store.items():
            q = resumed.last.store[name]
            for a, b in ((p.value, q.value), (p.m, q.m), (p.v, q.v)):
                assert a.tobytes() == b.tobytes(), name
            # the resumed tables rebuilt their masks from the loaded moments
            assert (p.live is None) == (q.live is None), name
            assert p.live is None or np.array_equal(p.live, q.live), name

    def test_fresh_run_updates_only_the_rows_it_matched(self):
        ds, lex, _ = tiny_corpus()
        result = train(ds, ds, lex, tiny_config(epochs=1))
        inputs = prepare_sentences(ds.sentences, lex, result.last.char_vocab, "slk")
        rows = np.unique(np.concatenate([item.words.ids for item in inputs]))
        assert 0 < len(rows) < len(lex)
        p = result.last.store["word_emb"]
        assert np.array_equal(np.flatnonzero(p.live), rows)
        dead = ~p.live
        assert p.value[dead].tobytes() == lex.embeddings[dead].tobytes()
        assert not np.any(p.m[dead]) and not np.any(p.v[dead])
        assert np.all(p.m[rows].any(axis=1))

    def test_nan_in_a_live_row_gradient_names_the_table(self):
        ds, lex, _ = tiny_corpus()
        store = train(ds, ds, lex, tiny_config(epochs=1)).last.store.copy()
        row = np.flatnonzero(store["word_emb"].live)[-1]
        store["word_emb"].grad[row, 0] = np.nan
        with pytest.raises(NumericError, match="word_emb"):
            adam_step(store, 1e-2, t=2)

    def test_resume_matches_uninterrupted(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        full = train(ds, ds, lex, tiny_config(epochs=4))
        half = train(ds, ds, lex, tiny_config(epochs=2))
        path = tmp_path / "half.ckpt"
        half.last.save(path)
        resumed = train(ds, ds, lex, tiny_config(epochs=4),
                        resume=Checkpoint.load(path))
        assert resumed.last.epoch == 4
        for name in full.last.store.names():
            assert (full.last.store.value(name).tobytes()
                    == resumed.last.store.value(name).tobytes()), name

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_restore_matches_whole_file_reader_and_resumes(self, tmp_path, precision):
        ds, lex, _ = tiny_corpus()
        half = train(ds, ds, lex, tiny_config(epochs=2, precision=precision))
        path = tmp_path / "half.ckpt"
        half.last.save(path)
        arrays, meta = whole_file_reader(path)
        loaded = Checkpoint.load(path)
        assert len(arrays) == 3 * len(loaded.store.names())
        assert loaded.words == tuple(meta["words"]) == lex.words
        for name, p in loaded.store.items():
            saved = half.last.store[name]
            for suffix, got, before in (("", p.value, saved.value), ("!m", p.m, saved.m),
                                        ("!v", p.v, saved.v)):
                ref = arrays[name + suffix]
                assert got.dtype == ref.dtype == np.dtype(precision), name + suffix
                assert got.shape == ref.shape and got.flags.writeable, name + suffix
                assert got.tobytes() == ref.tobytes() == before.tobytes(), name + suffix
        full = train(ds, ds, lex, tiny_config(epochs=4, precision=precision))
        resumed = train(ds, ds, lex, tiny_config(epochs=4, precision=precision), resume=loaded)
        for name, p in full.last.store.items():
            q = resumed.last.store[name]
            for a, b in ((p.value, q.value), (p.m, q.m), (p.v, q.v)):
                assert a.tobytes() == b.tobytes(), name

    def test_none_mode_equals_slk_on_empty_lexicon(self):
        ds, _, _ = tiny_corpus()
        empty_lex = build_lexicon(["只"], None, dim=8)   # all entries skipped
        assert len(empty_lex) == 0
        r_none = train(ds, ds, empty_lex, tiny_config(epochs=2, knowledge_mode="slk"))
        r_slk = train(ds, ds, empty_lex, tiny_config(epochs=2, knowledge_mode="none"))
        for name in r_none.last.store.names():
            assert (r_none.last.store.value(name).tobytes()
                    == r_slk.last.store.value(name).tobytes())

    def test_freeze_word_emb(self):
        ds, lex, _ = tiny_corpus()
        result = train(ds, ds, lex, tiny_config(epochs=1, freeze_word_emb=True))
        assert np.array_equal(result.last.store.value("word_emb"), lex.embeddings)

    def test_parameter_coverage_across_seeds(self):
        # over a 5-seed ensemble, every parameter sees a nonzero gradient
        # in the first batch
        ds, lex, scheme = tiny_corpus(n=8)
        cfg = tiny_config()
        covered = None
        for seed in range(5):
            rng = np.random.default_rng(seed)
            from lexner.corpus import build_char_vocab
            from lexner.model import init_params
            vocab = build_char_vocab(ds.sentences)
            store = init_params(cfg, scheme.size, "table", len(vocab), lex.embeddings, rng)
            store.zero_grads()
            for sent in ds.sentences:
                item = prepare_sentence(sent, lex, vocab, "slk")
                sentence_loss(store, item, cfg, train=True, rng=rng)
            got = {name for name in store.names()
                   if np.any(store[name].grad != 0.0)}
            covered = got if covered is None else covered | got
        assert covered == set(store.names())

    def test_memorizes_single_sentence(self):
        scheme = TagScheme("BIOES", ("LOC",))
        sent = Sentence(tuple("去江城里看"),
                        tuple(scheme.index_of(t) for t in
                              ("O", "B-LOC", "E-LOC", "O", "O")), "m0")
        ds = Dataset([sent], "train", scheme)
        lex = build_lexicon(["江城", "城里"], None, dim=8,
                            rng=np.random.default_rng(0))
        cfg = tiny_config(dropout=0.0, epochs=120, batch_size=4)
        result = train(ds, ds, lex, cfg)
        item = prepare_sentence(sent, lex, result.last.char_vocab, "slk")
        loss = sentence_loss(result.last.store, item, cfg, train=False)
        assert loss < 0.01
        # 5-epoch moving average of the training loss never increases
        nll = np.array([h["train_nll"] for h in result.history])
        ma = np.convolve(nll, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(ma) <= 1e-9)

    def test_checkpoint_reproduces_dev_f1(self, tmp_path):
        ds, lex, scheme = tiny_corpus(n=8)
        cfg = tiny_config(epochs=3)
        result = train(ds, ds, lex, cfg)
        path = tmp_path / "best.ckpt"
        result.best.save(path)
        loaded = Checkpoint.load(path)
        inputs = [prepare_sentence(s, lex, loaded.char_vocab, cfg.knowledge_mode)
                  for s in ds.sentences]
        _, _, f1 = evaluate(loaded.store, inputs, gold_spans(ds),
                            loaded.scheme(), loaded.config)
        assert f1 == result.best.best_dev_f1

    def test_fresh_one_epoch_run_copies_the_store_once(self, tmp_path, monkeypatch):
        ds, lex, _ = tiny_corpus()
        copies = []
        copy = ParamStore.copy

        def counting(self):
            copies.append(self)
            return copy(self)

        monkeypatch.setattr(ParamStore, "copy", counting)
        result = train(ds, ds, lex, tiny_config(epochs=1))
        assert len(copies) == 1
        assert result.last is result.best and result.best.epoch == 1
        best, last = tmp_path / "model.ckpt", tmp_path / "model.ckpt.last"
        result.best.save(best)
        result.last.save(last)
        assert last.read_bytes() == best.read_bytes()

    def test_last_snapshot_after_a_stale_epoch(self):
        ds, lex, _ = tiny_corpus()
        result = train(ds, ds, lex, tiny_config(epochs=50, patience=2, lr=1e-9))
        assert result.last is not result.best
        assert result.last.epoch == len(result.history) > result.best.epoch
        assert result.last.best_dev_f1 == result.best.best_dev_f1
        assert result.last.adam_t > result.best.adam_t

    def test_resume_with_no_epoch_left_keeps_the_checkpoint(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        path, again = tmp_path / "half.ckpt", tmp_path / "again.ckpt"
        train(ds, ds, lex, tiny_config(epochs=2)).last.save(path)
        resumed = train(ds, ds, lex, tiny_config(epochs=2), resume=Checkpoint.load(path))
        assert resumed.history == [] and resumed.last is resumed.best
        resumed.last.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_early_stopping(self):
        ds, lex, _ = tiny_corpus()
        result = train(ds, ds, lex, tiny_config(epochs=50, patience=2, lr=1e-9))
        # lr too small to improve; must stop well before 50 epochs
        assert len(result.history) <= 10

    def test_float32_training_mode(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        result = train(ds, ds, lex, tiny_config(epochs=2, precision="float32"))
        store = result.last.store
        assert all(store.value(n).dtype == np.float32 for n in store.names())
        assert all(np.isfinite(h["train_nll"]) for h in result.history)
        path = tmp_path / "f32.ckpt"
        result.last.save(path)
        loaded = Checkpoint.load(path)
        for name in store.names():
            assert loaded.store.value(name).dtype == np.float32
            assert loaded.store.value(name).tobytes() == store.value(name).tobytes()

    def test_float32_rejoins_relaxed_grad_check(self):
        from lexner.diagnostics import end_to_end_grad_check
        for seed in (1, 2, 3):
            err = end_to_end_grad_check(seed, precision="float32",
                                        eps=1e-2, denom_floor=1e-3)
            assert err < 1e-2, f"seed {seed}: {err}"

    def test_invalid_precision_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(precision="float16")

    def test_train_with_precomputed_char_vectors(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        rng = np.random.default_rng(0)
        vectors = {s.id: rng.normal(size=(len(s), 8)) for s in ds.sentences}
        result = train(ds, ds, lex, tiny_config(epochs=1), char_vectors=vectors)
        assert "char_emb" not in result.last.store
        path = tmp_path / "file_mode.ckpt"
        result.last.save(path)
        loaded = Checkpoint.load(path)
        assert char_source(loaded.store) == "file"

    def test_missing_char_vectors_for_sentence(self):
        from lexner.errors import DataError
        ds, lex, _ = tiny_corpus()
        vectors = {ds.sentences[0].id: np.zeros((len(ds.sentences[0]), 8))}
        with pytest.raises(DataError):
            train(ds, ds, lex, tiny_config(epochs=1), char_vectors=vectors)


@pytest.fixture(scope="module")
def half_trained():
    """A corpus, its lexicon and a one-epoch checkpoint (table mode) trained on them."""
    ds, lex, _ = tiny_corpus()
    return ds, lex, train(ds, ds, lex, tiny_config(epochs=1)).last


class TestResumeRefusals:
    """A resume must rebuild the checkpoint's model; it fails before the first epoch."""

    def refuse(self, ckpt, match, ds, lex, cfg=None, **kw):
        with pytest.raises(ConfigError, match=match):
            train(ds, ds, lex, cfg or tiny_config(epochs=2), resume=ckpt, **kw)

    def test_another_lexicon_of_the_same_size(self, half_trained):
        ds, lex, ckpt = half_trained
        assert "新词" not in lex.words
        other = build_lexicon([*lex.words[:-1], "新词"], None, dim=8,
                              rng=np.random.default_rng(0))
        assert len(other) == len(lex)
        self.refuse(ckpt, "lexicon words", ds, other)

    def test_char_vectors_with_a_table_mode_checkpoint(self, half_trained):
        ds, lex, ckpt = half_trained
        vectors = {s.id: np.zeros((len(s), 8)) for s in ds.sentences}
        self.refuse(ckpt, "character source", ds, lex, char_vectors=vectors)

    def test_another_tag_scheme(self, half_trained):
        ds, lex, ckpt = half_trained
        labels = ds.scheme.labels[::-1]   # the same number of tags, in another order
        assert labels != ds.scheme.labels
        for scheme in (TagScheme(ds.scheme.kind, labels), TagScheme("BIO", ds.scheme.labels)):
            other = Dataset(ds.sentences, ds.split, scheme)
            self.refuse(ckpt, "tag scheme", other, lex)

    @pytest.mark.parametrize("setting", [
        dict(d_c=4), dict(d_w=4), dict(bigru_total=8), dict(precision="float32"),
        dict(knowledge_mode="flk"), dict(fusion_strategy="average"),
        dict(g_mode="fwd_last_bwd_first")], ids=lambda setting: next(iter(setting)))
    def test_another_model_setting(self, half_trained, setting):
        ds, lex, ckpt = half_trained
        self.refuse(ckpt, next(iter(setting)), ds, lex, tiny_config(epochs=2, **setting))

    def test_run_settings_may_change(self, half_trained):
        ds, lex, ckpt = half_trained
        cfg = tiny_config(epochs=2, lr=5e-3, batch_size=2, dropout=0.0, patience=3,
                          clip_norm=1.0)
        assert train(ds, ds, lex, cfg, resume=ckpt).last.epoch == 2


class TestCheckpointIO:
    def test_every_run_state_field_is_saved(self):
        # train keeps its state in a Checkpoint: a field missing here would never reach the file
        state = {f.name for f in dataclasses.fields(Checkpoint)} - {"store"}
        assert state == {key for key, *_ in trainer._CHECKPOINT_META}

    def test_round_trip_fields(self, tmp_path):
        ds, lex, _ = tiny_corpus()
        result = train(ds, ds, lex, tiny_config(epochs=1))
        path = tmp_path / "model.ckpt"
        result.best.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.config == result.best.config
        assert loaded.epoch == result.best.epoch
        assert loaded.best_dev_f1 == result.best.best_dev_f1
        assert loaded.char_vocab == result.best.char_vocab
        assert loaded.words == result.best.words
        assert loaded.rng_state == result.best.rng_state
        for name in result.best.store.names():
            assert (loaded.store.value(name).tobytes()
                    == result.best.store.value(name).tobytes())

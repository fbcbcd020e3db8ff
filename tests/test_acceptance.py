"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from lexner import (Checkpoint, TrainConfig, build_lexicon, crf,
                    make_synthetic_corpus, match_sentence, train, uniform_bound,
                    write_conll)
from lexner.cli import main
from lexner.diagnostics import end_to_end_grad_check
from lexner.fusion import STRATEGIES, WordSets, fuse_sentence
from lexner.lexicon import KNOWLEDGE_MODES
from lexner.model import prepare_sentence, sentence_loss
from lexner.trainer import evaluate, gold_spans

from conftest import BRIDGE_SENTENCE, BRIDGE_WORDS, naive_match_oracle


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"[criterion {num}] {name}: FAIL (took {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"criterion {num} exceeded runtime budget: "
                             f"{elapsed:.1f}s > {budget_s}s")
    print(f"[criterion {num}] {name}: PASS ({elapsed:.1f}s)")


def test_c1_lexicon_oracle_equivalence():
    with criterion(1, "lexicon oracle equivalence", budget_s=5):
        rng = np.random.default_rng(2024)
        alphabet = list("abcde")
        for _ in range(1000):
            words = {"".join(rng.choice(alphabet, size=rng.integers(2, 5)))
                     for _ in range(50)}
            lex = build_lexicon(sorted(words), None, dim=2, rng=rng)
            chars = tuple(rng.choice(alphabet, size=rng.integers(1, 16)))
            ms = match_sentence(lex, chars)
            fwd, bwd, flk, slk = naive_match_oracle(words, chars)
            for i in range(len(chars)):
                assert {lex.words[w] for w in ms.fwd[i]} == fwd[i]
                assert {lex.words[w] for w in ms.bwd[i]} == bwd[i]
                assert {lex.words[w] for w in ms.flk[i]} == flk[i]
                assert {lex.words[w] for w in ms.slk[i]} == slk[i]

        lex = build_lexicon(BRIDGE_WORDS, None, dim=2)
        ms = match_sentence(lex, BRIDGE_SENTENCE)
        names = lambda s: {lex.words[w] for w in s}
        assert names(ms.slk[1]) == {"南京", "南京市"}
        assert names(ms.slk[4]) == {"长江", "长江大桥"}
        assert names(ms.slk[5]) == {"长江大桥", "大桥"}


def test_c2_crf_exactness():
    with criterion(2, "CRF exactness vs enumeration", budget_s=10):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n, K = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            T = crf.init_transitions(K)
            T[:K, :K] = rng.normal(size=(K, K))
            T[K, :K] = rng.normal(size=K)
            T[:K, K + 1] = rng.normal(size=K)
            lat = crf.TagLattice(rng.normal(size=(n, K)), T)

            scores = {}
            for y in itertools.product(range(K), repeat=n):
                scores[y] = crf.score_sequence(lat, list(y))
            m = max(scores.values())
            brute_logz = m + math.log(sum(math.exp(s - m) for s in scores.values()))
            assert abs(crf.log_partition(lat) - brute_logz) < 1e-8

            best = max(scores.items(),
                       key=lambda kv: (kv[1], tuple(-t for t in reversed(kv[0]))))
            path, score = crf.viterbi(lat)
            assert tuple(path) == best[0]
            assert abs(score - best[1]) < 1e-9

            assert np.max(np.abs(crf.marginals(lat).sum(axis=1) - 1.0)) < 1e-10


def test_c3_gradient_fidelity():
    with criterion(3, "end-to-end gradient fidelity", budget_s=60):
        worst = 0.0
        for seed in range(20):
            err = end_to_end_grad_check(seed, max_n=5, d_c=4, d_h=4, d_w=3)
            worst = max(worst, err)
        assert worst < 1e-4, f"max relative error {worst}"


def test_c4_attention_properties():
    def fuse_one(ids, lengths, word_emb, g, W_u, b_u):
        # a one-position sentence: (h, alpha)
        h, alpha, _ = fuse_sentence(WordSets.from_sets([ids], [lengths]), word_emb, g,
                                    W_u, b_u, "global_attention")
        return h[0], alpha

    with criterion(4, "attention properties", budget_s=5):
        rng = np.random.default_rng(11)
        for _ in range(500):
            m = int(rng.integers(1, 6))
            d_w, d_g = 3, 4
            word_emb = rng.normal(size=(m + 2, d_w))
            ids = list(rng.choice(m + 2, size=m, replace=False))
            lengths = sorted(int(rng.integers(2, 6)) for _ in range(m))
            W_u = rng.normal(size=(d_g, d_w))
            b_u = rng.normal(size=d_g)
            g = rng.normal(size=d_g)

            h, alpha = fuse_one(ids, lengths, word_emb, g, W_u, b_u)
            assert abs(alpha.sum() - 1.0) < 1e-12 and np.all(alpha >= 0)

            perm = rng.permutation(m)
            hp, alphap = fuse_one([ids[j] for j in perm], [lengths[j] for j in perm],
                                  word_emb, g, W_u, b_u)
            assert np.allclose(hp, h, atol=1e-12)
            assert np.allclose(alphap, alpha[perm], atol=1e-12)

            c = float(rng.normal(scale=3))
            b_shift = b_u + (c / np.dot(g, g)) * g
            _, alpha_s = fuse_one(ids, lengths, word_emb, g, W_u, b_shift)
            assert np.allclose(alpha_s, alpha, atol=1e-9)

            X = word_emb[np.asarray(ids)]
            assert np.all(h <= X.max(axis=0) + 1e-12)
            assert np.all(h >= X.min(axis=0) - 1e-12)

        h, alpha = fuse_one([], [], np.zeros((1, 3)), np.zeros(4),
                            np.zeros((4, 3)), np.zeros(4))
        assert np.array_equal(h, np.zeros(3))
        assert alpha.size == 0


def test_c5_single_sentence_memorization():
    with criterion(5, "single-sentence memorization", budget_s=30):
        from lexner.corpus import Dataset, Sentence, TagScheme
        scheme = TagScheme("BIOES", ("LOC",))
        sent = Sentence(tuple("去江城里看"),
                        tuple(scheme.index_of(t) for t in
                              ("O", "B-LOC", "E-LOC", "O", "O")), "m0")
        ds = Dataset([sent], "train", scheme)
        lex = build_lexicon(["江城", "城里"], None, dim=8,
                            rng=np.random.default_rng(0))
        cfg = TrainConfig(lr=1e-2, batch_size=4, dropout=0.0, d_c=8, d_w=8,
                          bigru_total=16, epochs=200, patience=1000, seed=5,
                          knowledge_mode="slk")
        result = train(ds, ds, lex, cfg)
        item = prepare_sentence(sent, lex, result.last.char_vocab, "slk")
        loss = sentence_loss(result.last.store, item, cfg, train=False)
        assert loss < 0.01, f"NLL after 200 epochs: {loss}"


def test_c6_synthetic_corpus_overfit():
    with criterion(6, "synthetic-corpus overfit and strategy sweep", budget_s=300):
        ds, words, scheme = make_synthetic_corpus(50, seed=7)
        assert len(words) == 20
        lex = build_lexicon(words, None, dim=8, rng=np.random.default_rng(0))

        cfg = TrainConfig(lr=1e-2, batch_size=32, dropout=0.1, d_c=16, d_w=8,
                          bigru_total=16, epochs=100, patience=15, seed=11,
                          knowledge_mode="slk")
        result = train(ds, ds, lex, cfg)
        best_f1 = max(h["dev_f1"] for h in result.history)
        assert best_f1 >= 0.95, f"train F1 after {len(result.history)} epochs: {best_f1}"

        # every knowledge mode x fusion strategy finishes with sane metrics
        for mode in KNOWLEDGE_MODES:
            for strategy in STRATEGIES:
                cfg_ms = TrainConfig(lr=1e-2, batch_size=32, dropout=0.1, d_c=8,
                                     d_w=8, bigru_total=16, epochs=2, patience=50,
                                     seed=13, knowledge_mode=mode,
                                     fusion_strategy=strategy)
                res = train(ds, ds, lex, cfg_ms)
                for rec in res.history:
                    assert np.isfinite(rec["train_nll"]) and rec["train_nll"] >= 0
                    for key in ("dev_p", "dev_r", "dev_f1"):
                        assert 0.0 <= rec[key] <= 1.0


def test_c7_determinism_and_persistence(tmp_path):
    with criterion(7, "determinism and persistence", budget_s=120):
        ds, words, scheme = make_synthetic_corpus(10, seed=3)
        lex = build_lexicon(words, None, dim=8, rng=np.random.default_rng(0))
        cfg = TrainConfig(lr=1e-2, batch_size=8, dropout=0.1, d_c=8, d_w=8,
                          bigru_total=16, epochs=2, patience=50, seed=21,
                          knowledge_mode="slk")

        paths = []
        for k in range(2):
            result = train(ds, ds, lex, cfg)
            path = tmp_path / f"run{k}.ckpt"
            result.best.save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        # checkpoint round-trip reproduces the stored dev F1 exactly
        result = train(ds, ds, lex, cfg)
        best_path = tmp_path / "best.ckpt"
        result.best.save(best_path)
        loaded = Checkpoint.load(best_path)
        inputs = [prepare_sentence(s, lex, loaded.char_vocab, cfg.knowledge_mode)
                  for s in ds.sentences]
        _, _, f1 = evaluate(loaded.store, inputs, gold_spans(ds),
                            loaded.scheme(), loaded.config)
        assert f1 == loaded.best_dev_f1

        # tagging the same input twice is byte-identical
        train_path = tmp_path / "train.conll"
        write_conll(ds.sentences, scheme, train_path)
        lex_path = tmp_path / "words.txt"
        lex_path.write_text("\n".join(words) + "\n", encoding="utf-8")
        text_path = tmp_path / "in.txt"
        text_path.write_text("".join("".join(s.chars) + "\n" for s in ds.sentences))
        base = ["-o", f"checkpoint_path={best_path}"]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["tag", *base, str(text_path), "--output", str(out1)]) == 0
        assert main(["tag", *base, str(text_path), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_c8_defaults_conformance(capsys):
    with criterion(8, "reference defaults conformance", budget_s=10):
        assert main(["echo-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["max_len"] == 250
        assert cfg["d_w"] == 50
        assert cfg["bigru_total"] == 512
        assert cfg["layers"] == 1
        assert cfg["dropout"] == 0.1
        assert cfg["batch_size"] == 32
        assert cfg["lr"] == 5e-5
        for dim in (1, 3, 50, 128):
            assert abs(uniform_bound(dim) - math.sqrt(3.0 / dim)) < 1e-12

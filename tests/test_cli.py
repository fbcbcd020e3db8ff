import copy
import json
import struct

import numpy as np
import pytest

from lexner import (Checkpoint, TrainConfig, build_lexicon, encoder, make_synthetic_corpus,
                    model, train, write_conll)
from lexner.cli import main
from lexner.params import load_arrays, save_arrays


@pytest.fixture
def workspace(tmp_path):
    """Tiny corpus + lexicon + config file on disk."""
    ds, words, scheme = make_synthetic_corpus(n_sentences=10, seed=3)
    train_path = tmp_path / "train.conll"
    write_conll(ds.sentences, scheme, train_path)
    lex_path = tmp_path / "words.txt"
    lex_path.write_text("\n".join(words) + "\n", encoding="utf-8")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"train_path={train_path}\n"
        f"dev_path={train_path}\n"
        f"test_path={train_path}\n"
        f"lexicon_path={lex_path}\n"
        f"checkpoint_path={tmp_path / 'model.ckpt'}\n"
        "# tiny dimensions for fast runs\n"
        "d_c=8\nd_w=8\nbigru_total=16\nepochs=2\nbatch_size=8\n"
        "lr=0.01\nseed=5\n",
        encoding="utf-8",
    )
    return tmp_path, cfg_path, ds, words, scheme


@pytest.fixture(scope="module")
def checkpoint_contents(tmp_path_factory):
    """Arrays and metadata of one tiny trained checkpoint."""
    ds, words, _ = make_synthetic_corpus(n_sentences=6, seed=3)
    lex = build_lexicon(words, None, dim=8, rng=np.random.default_rng(0))
    config = TrainConfig(lr=1e-2, d_c=8, d_w=8, bigru_total=16, epochs=1, seed=5)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    train(ds, ds, lex, config).best.save(path)
    return load_arrays(path)


# each edit leaves a well-formed container whose checkpoint metadata is wrong
MALFORMED_META = {
    "config-unknown-key": lambda meta, arrays: meta["config"].update(bogus=1),
    "config-not-a-dict": lambda meta, arrays: meta.update(config=[1]),
    "words-hold-ints": lambda meta, arrays: meta.update(words=list(range(len(meta["words"])))),
    "char-vocab-is-a-list": lambda meta, arrays: meta.update(char_vocab=sorted(meta["char_vocab"])),
    "labels-is-an-int": lambda meta, arrays: meta.update(labels=3),
    "epoch-is-a-string": lambda meta, arrays: meta.update(epoch="x"),
    "one-word-removed": lambda meta, arrays: meta.update(words=meta["words"][1:]),
    "char-id-beyond-table": lambda meta, arrays: meta["char_vocab"].update(
        extra=len(arrays["char_emb"])),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


class TestEchoConfig:
    def test_reference_defaults(self, capsys):
        code, out = run(capsys, "echo-config")
        assert code == 0
        cfg = json.loads(out)
        assert cfg["max_len"] == 250
        assert cfg["d_w"] == 50
        assert cfg["bigru_total"] == 512
        assert cfg["layers"] == 1
        assert cfg["dropout"] == 0.1
        assert cfg["batch_size"] == 32
        assert cfg["lr"] == 5e-5

    def test_precedence_flag_over_env_over_file(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("lr=0.1\nbatch_size=4\ndropout=0.2\n")
        monkeypatch.setenv("LEXNER_LR", "0.5")
        monkeypatch.setenv("LEXNER_DROPOUT", "0.3")
        code, out = run(capsys, "echo-config", "-c", str(cfg_path), "-o", "lr=0.9")
        assert code == 0
        cfg = json.loads(out)
        assert cfg["lr"] == 0.9          # flag wins
        assert cfg["dropout"] == 0.3     # env beats file
        assert cfg["batch_size"] == 4    # file beats default
        assert cfg["max_len"] == 250     # default

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("learning_rate=0.1\n")
        code, _ = run(capsys, "echo-config", "-c", str(cfg_path))
        assert code == 1

    def test_bad_value_rejected(self, capsys):
        code, _ = run(capsys, "echo-config", "-o", "epochs=three")
        assert code == 1

    def test_every_config_key_overridable(self, capsys):
        # every key in the default config must have a caster
        from lexner.cli import _CASTERS, default_config
        assert set(default_config()) == set(_CASTERS)
        code, out = run(capsys, "echo-config", "-o", "precision=float32")
        assert code == 0 and json.loads(out)["precision"] == "float32"


class TestTrain:
    def test_missing_train_path_exits_1(self, capsys):
        code, _ = run(capsys, "train")
        assert code == 1

    def test_tiny_run_writes_checkpoint(self, workspace, capsys):
        tmp_path, cfg_path, *_ = workspace
        code, out = run(capsys, "train", "-c", str(cfg_path))
        assert code == 0
        assert (tmp_path / "model.ckpt").exists()
        assert (tmp_path / "model.ckpt.last").exists()
        assert json.loads(out)["epochs_run"] == 2
        log_lines = (tmp_path / "model.ckpt.log").read_text().splitlines()
        assert len(log_lines) == 2

    def test_unwritable_checkpoint_dir_exits_2(self, workspace, capsys):
        _, cfg_path, *_ = workspace
        code, _ = run(capsys, "train", "-c", str(cfg_path),
                      "-o", "checkpoint_path=/no/such/dir/model.ckpt")
        assert code == 2

    def test_missing_data_file_exits_2(self, workspace, capsys):
        _, cfg_path, *_ = workspace
        code, _ = run(capsys, "train", "-c", str(cfg_path),
                      "-o", "train_path=/no/such/file.conll")
        assert code == 2


class TestTagEval:
    @pytest.fixture
    def trained(self, workspace, capsys):
        tmp_path, cfg_path, ds, words, scheme = workspace
        assert main(["train", "-c", str(cfg_path)]) == 0
        capsys.readouterr()
        text_path = tmp_path / "input.txt"
        text_path.write_text(
            "".join("".join(s.chars) + "\n" for s in ds.sentences[:4]),
            encoding="utf-8",
        )
        return tmp_path, cfg_path, text_path, ds, scheme

    def test_tag_output_shape_and_determinism(self, trained, capsys):
        tmp_path, cfg_path, text_path, ds, _ = trained
        out1, out2 = tmp_path / "o1.conll", tmp_path / "o2.conll"
        assert main(["tag", "-c", str(cfg_path), str(text_path), "--output", str(out1)]) == 0
        assert main(["tag", "-c", str(cfg_path), str(text_path), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        n_chars = sum(len(s.chars) for s in ds.sentences[:4])
        lines = out1.read_text(encoding="utf-8").splitlines()
        assert sum(1 for l in lines if l.strip()) == n_chars

    def test_tag_empty_input(self, trained, capsys, tmp_path):
        _, cfg_path, *_ = trained
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out = run(capsys, "tag", "-c", str(cfg_path), str(empty))
        assert code == 0 and out == ""

    def test_dump_attention_alphas_sum_to_one(self, trained, capsys):
        _, cfg_path, text_path, *_ = trained
        code, out = run(capsys, "tag", "-c", str(cfg_path), str(text_path),
                        "--dump-attention")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        seen_words = False
        for rec in records:
            assert len(rec["tags"]) == len(rec["chars"])
            for pos in rec["attention"]:
                if pos["words"]:
                    seen_words = True
                    assert abs(sum(pos["alphas"]) - 1.0) < 1e-9
        assert seen_words

    def test_eval_pred_equals_gold(self, workspace, capsys):
        tmp_path, cfg_path, ds, words, scheme = workspace
        code, out = run(capsys, "eval", "-c", str(cfg_path),
                        "-o", f"pred_path={tmp_path / 'train.conll'}")
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_eval_pred_must_line_up_with_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        gold.write_text("甲 B-LOC\n乙 E-LOC\n丙 O\n\n", encoding="utf-8")
        for text in ("甲 B-LOC\n乙 E-LOC\n\n",            # one char short
                     "甲 B-LOC\n乙 E-LOC\n丁 O\n\n"):     # another char
            pred = tmp_path / "pred.conll"
            pred.write_text(text, encoding="utf-8")
            code, _ = run(capsys, "eval", "-o", f"test_path={gold}",
                          "-o", f"pred_path={pred}")
            assert code == 2

    def test_tag_rejects_non_checkpoint_container(self, trained, capsys):
        tmp_path, cfg_path, text_path, *_ = trained
        vectors = tmp_path / "vectors.bin"
        save_arrays(vectors, {"t0": np.zeros((3, 8))})
        code, out = run(capsys, "tag", "-c", str(cfg_path),
                        "-o", f"checkpoint_path={vectors}", str(text_path))
        assert code == 2 and out == ""
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [b"{x}", b"\xff\xfe"], ids=["json", "utf8"])
    def test_tag_rejects_corrupt_container_metadata(self, workspace, capsys, meta):
        tmp_path, cfg_path, *_ = workspace
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"LXC1" + struct.pack("<II", 1, len(meta)) + meta
                        + struct.pack("<I", 0))
        text_path = tmp_path / "input.txt"
        text_path.write_text("江城\n", encoding="utf-8")
        code, out = run(capsys, "tag", "-c", str(cfg_path),
                        "-o", f"checkpoint_path={bad}", str(text_path))
        assert code == 2 and out == ""
        assert "Traceback" not in capsys.readouterr().err

    def test_tag_rejects_zero_sized_entry_numpy_cannot_hold(self, workspace, capsys):
        tmp_path, cfg_path, *_ = workspace
        bad = tmp_path / "bad.ckpt"
        dims = (0, 2 ** 32 - 1, 2 ** 32 - 1)
        bad.write_bytes(b"LXC1" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<IH", 1, 1)
                        + b"x" + struct.pack("<BB", 1, 3) + struct.pack("<3I", *dims))
        text_path = tmp_path / "input.txt"
        text_path.write_text("江城\n", encoding="utf-8")
        code, out = run(capsys, "tag", "-c", str(cfg_path),
                        "-o", f"checkpoint_path={bad}", str(text_path))
        assert code == 2 and out == ""
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(MALFORMED_META))
    def test_tag_rejects_malformed_checkpoint_metadata(self, workspace, capsys,
                                                       checkpoint_contents, case):
        tmp_path, cfg_path, *_ = workspace
        arrays, meta = checkpoint_contents
        meta = copy.deepcopy(meta)
        MALFORMED_META[case](meta, arrays)
        bad = tmp_path / "bad.ckpt"
        save_arrays(bad, arrays, meta)
        text_path = tmp_path / "input.txt"
        text_path.write_text("江城\n", encoding="utf-8")
        code, out = run(capsys, "tag", "-c", str(cfg_path),
                        "-o", f"checkpoint_path={bad}", str(text_path))
        assert code == 2 and out == ""
        assert "Traceback" not in capsys.readouterr().err

    def test_dump_attention_runs_one_forward_per_sentence(self, trained, capsys, monkeypatch):
        tmp_path, cfg_path, text_path, *_ = trained
        calls, encodes = [], []
        forward, encode_chars = model._forward, encoder.encode_chars

        def counting(store, inputs, *args, **kwargs):
            calls.append(inputs.sid)
            return forward(store, inputs, *args, **kwargs)

        def counting_encode(*args):
            encodes.append(1)
            return encode_chars(*args)

        monkeypatch.setattr(model, "_forward", counting)
        monkeypatch.setattr(encoder, "encode_chars", counting_encode)
        code, out = run(capsys, "tag", "-c", str(cfg_path), str(text_path),
                        "--dump-attention")
        monkeypatch.undo()
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4 and calls == [rec["id"] for rec in records]
        assert len(encodes) == len(records)   # the encoder runs once per sentence
        # the weights recomputed position by position from the checkpoint,
        # with the encoder and the word projection run on their own
        ckpt = Checkpoint.load(tmp_path / "model.ckpt")
        store, config = ckpt.store, ckpt.config
        index = {w: i for i, w in enumerate(ckpt.words)}
        W_u, b_u = store.value("fusion.W_u"), store.value("fusion.b_u")
        seen_words = False
        for rec in records:
            chars = [ckpt.char_vocab.get(c, ckpt.char_vocab["<unk>"]) for c in rec["chars"]]
            H, _ = encoder.encode_chars(store.value("char_emb")[chars],
                                        store.values_with_prefix("gru_fwd."),
                                        store.values_with_prefix("gru_bwd."))
            g = encoder.global_feature(H, config.d_h, config.g_mode)
            assert [pos["char"] for pos in rec["attention"]] == rec["chars"]
            for pos in rec["attention"]:
                assert len(pos["alphas"]) == len(pos["words"])
                if not pos["words"]:
                    continue
                seen_words = True
                scores = (store.value("word_emb")[[index[w] for w in pos["words"]]]
                          @ W_u.T + b_u) @ g
                e = np.exp(scores - scores.max())
                assert np.allclose(pos["alphas"], e / e.sum(), rtol=0, atol=1e-12)
        assert seen_words

    def test_eval_with_checkpoint(self, trained, capsys):
        _, cfg_path, *_ = trained
        code, out = run(capsys, "eval", "-c", str(cfg_path))
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["overall"]["f1"] <= 1.0
        assert "buckets" in report and "per_type" in report

    def test_missing_checkpoint_exits_2(self, workspace, capsys):
        _, cfg_path, *_ = workspace
        code, _ = run(capsys, "eval", "-c", str(cfg_path))
        assert code == 2


class TestLexiconInspect:
    def test_bridge_sentence_sets(self, tmp_path, capsys):
        lex_path = tmp_path / "words.txt"
        lex_path.write_text("南京\n南京市\n市长\n长江\n大桥\n长江大桥\n", encoding="utf-8")
        text = tmp_path / "text.txt"
        text.write_text("南京市长江大桥\n", encoding="utf-8")
        code, out = run(capsys, "lexicon-inspect",
                        "-o", f"lexicon_path={lex_path}", str(text))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 7
        by_char = {r["pos"]: r for r in records}
        assert set(by_char[2]["slk"]) == {"南京", "南京市"}
        assert set(by_char[5]["slk"]) == {"长江", "长江大桥"}
        assert set(by_char[6]["slk"]) == {"长江大桥", "大桥"}
        assert by_char[2]["bwd"] == ["南京"]


class TestGradcheck:
    def test_reports_small_error(self, capsys):
        code, out = run(capsys, "gradcheck", "-o", "seed=3")
        assert code == 0
        report = json.loads(out)
        assert report["max_rel_err"] < report["threshold"] == 1e-4

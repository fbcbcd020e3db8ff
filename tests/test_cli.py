import copy
import io
import json
import random
import struct
import sys

import numpy as np
import pytest

from lexner import (Checkpoint, TrainConfig, build_lexicon, cli, encoder,
                    make_synthetic_corpus, model, restore, train, trainer, write_conll)
from lexner.cli import main
from lexner.params import load_arrays, save_arrays
from lexner.trainer import MAX_DIM


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


def _same_length_pair(words) -> int:
    """Index i of the first adjacent words i and i + 1 of one length."""
    return next(i for i in range(len(words) - 1) if len(words[i]) == len(words[i + 1]))


def _swap_neighbours(words):
    i = _same_length_pair(words)
    words[i:i + 2] = words[i + 1], words[i]


def _repeat_neighbour(words):
    i = _same_length_pair(words)
    words[i + 1] = words[i]


# each edit leaves a well-formed container whose checkpoint metadata is wrong
MALFORMED_META = {
    "config-unknown-key": lambda meta, arrays: meta["config"].update(bogus=1),
    "config-not-a-dict": lambda meta, arrays: meta.update(config=[1]),
    "words-hold-ints": lambda meta, arrays: meta.update(words=list(range(len(meta["words"])))),
    "one-word-is-an-int": lambda meta, arrays: meta["words"].__setitem__(0, 7),
    "unk-id-is-false": lambda meta, arrays: meta["char_vocab"].update({"<unk>": False}),
    "char-vocab-is-a-list": lambda meta, arrays: meta.update(char_vocab=sorted(meta["char_vocab"])),
    "labels-is-an-int": lambda meta, arrays: meta.update(labels=3),
    "epoch-is-a-string": lambda meta, arrays: meta.update(epoch="x"),
    "one-word-removed": lambda meta, arrays: meta.update(words=meta["words"][1:]),
    "char-id-beyond-table": lambda meta, arrays: meta["char_vocab"].update(
        extra=len(arrays["char_emb"])),
    "config-epochs-is-a-bool": lambda meta, arrays: meta["config"].update(epochs=True),
    "config-clip-norm-is-a-string": lambda meta, arrays: meta["config"].update(clip_norm="1"),
    "config-g-mode-is-bogus": lambda meta, arrays: meta["config"].update(g_mode="bogus"),
    "config-seed-is-negative": lambda meta, arrays: meta["config"].update(seed=-1),
    "config-d-w-is-too-large": lambda meta, arrays: meta["config"].update(d_w=10**18),
    "words-out-of-order": lambda meta, arrays: _swap_neighbours(meta["words"]),
    "word-repeated": lambda meta, arrays: _repeat_neighbour(meta["words"]),
}


def _replace(arrays, name, value):
    for suffix in ("", "!m", "!v"):
        arrays.pop(name + suffix)
        if value is not None:
            arrays[name + suffix] = value


# each edit leaves well-formed metadata whose config the parameters do not fit;
# the error names the parameter given first
MISFIT_PARAMS = {
    "crf-T-missing": ("crf.T", lambda arrays: _replace(arrays, "crf.T", None)),
    "crf-T-is-2x2": ("crf.T", lambda arrays: _replace(arrays, "crf.T", np.zeros((2, 2)))),
    "word-emb-is-float32": ("word_emb", lambda arrays: _replace(
        arrays, "word_emb", arrays["word_emb"].astype(np.float32))),
    "extra-parameter": ("extra", lambda arrays: arrays.update(extra=np.zeros(3))),
    "moment-of-the-wrong-shape": ("crf.b_o", lambda arrays: arrays.update(
        {"crf.b_o!v": np.zeros(2)})),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def illegal_transitions(conll: str, scheme) -> list[tuple]:
    """The scheme-illegal transitions, from the start and to the end of each
    sentence included, in `char tag` output."""
    bad = []
    for block in conll.strip("\n").split("\n\n"):
        path = [None] + [scheme.index_of(line.split()[1]) for line in block.splitlines()] + [None]
        bad += [(a, b) for a, b in zip(path, path[1:]) if not scheme.legal_transition(a, b)]
    return bad


def plain_lines(sentences, n: int, seed: int = 0) -> list[str]:
    """n lines of 5-30 characters cut at seeded places from the sentences' text."""
    text, rng = "".join("".join(s.chars) for s in sentences), random.Random(seed)
    starts = [(rng.randrange(len(text) - 30), rng.randint(5, 30)) for _ in range(n)]
    return [text[a:a + k] + "\n" for a, k in starts]


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

    def test_workers_is_no_configuration_key(self, capsys, caplog, tmp_path, monkeypatch):
        code, out = run(capsys, "echo-config")
        assert code == 0 and "workers" not in json.loads(out)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("workers=2\n")
        code, _ = run(capsys, "echo-config", "-c", str(cfg_path))
        assert code == 1
        code, _ = run(capsys, "echo-config", "-o", "workers=2")
        assert code == 1
        monkeypatch.setenv("LEXNER_WORKERS", "2")
        code, _ = run(capsys, "echo-config")
        assert code == 1
        assert caplog.text.count("unknown configuration key 'workers'") == 3

    def test_every_config_key_overridable(self, capsys):
        # every key in the default config must have a caster
        from lexner.cli import _CASTERS, default_config
        assert set(default_config()) == set(_CASTERS)
        code, out = run(capsys, "echo-config", "-o", "precision=float32")
        assert code == 0 and json.loads(out)["precision"] == "float32"

    def test_casters_follow_the_field_annotations(self, capsys):
        code, out = run(capsys, "echo-config", "-o", "g_mode=LAST", "-o", "clip_norm=none",
                        "-o", "decode_mask=yes", "-o", "lr=1", "-o", "epochs=3")
        cfg = json.loads(out)
        assert code == 0
        assert (cfg["g_mode"], cfg["clip_norm"], cfg["decode_mask"]) == ("last", None, True)
        assert type(cfg["lr"]) is float and type(cfg["epochs"]) is int


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

    def test_logs_the_lexicon_counts(self, workspace, capsys, caplog):
        tmp_path, cfg_path, _, words, _ = workspace
        lex_path, vec_path = tmp_path / "words.txt", tmp_path / "vectors.txt"
        # one word too short and one too long to keep; vectors for two kept words
        lex_path.write_text("\n".join([*words, "甲", "甲" * 11]) + "\n", encoding="utf-8")
        vec_path.write_text("".join(f"{w} {' '.join(['0.5'] * 8)}\n" for w in words[:2]),
                            encoding="utf-8")
        caplog.set_level("INFO")
        code, _ = run(capsys, "train", "-c", str(cfg_path), "-o", f"embeddings_path={vec_path}")
        assert code == 0
        kept = len(set(words))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("lexicon")]
        assert lines == [f"lexicon loaded: {kept} words kept, 2 skipped (length), "
                         f"{kept - 2} randomly initialised"]

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

    @pytest.mark.parametrize("case", ["words-out-of-order", "word-repeated"])
    def test_eval_rejects_a_stored_word_list_out_of_order(self, workspace, capsys, caplog,
                                                          checkpoint_contents, case):
        tmp_path, cfg_path, *_ = workspace
        arrays, meta = checkpoint_contents
        meta = copy.deepcopy(meta)
        MALFORMED_META[case](meta, arrays)
        bad = tmp_path / "bad.ckpt"
        save_arrays(bad, arrays, meta)
        code, out = run(capsys, "eval", "-c", str(cfg_path), "-o", f"checkpoint_path={bad}")
        assert code == 2 and out == ""
        assert "Traceback" not in capsys.readouterr().err
        assert str(bad) in caplog.text and "order" in caplog.text

    @pytest.mark.parametrize("case", list(MISFIT_PARAMS))
    def test_tag_rejects_parameters_that_do_not_fit_the_config(self, workspace, capsys, caplog,
                                                               checkpoint_contents, case):
        tmp_path, cfg_path, *_ = workspace
        arrays, meta = checkpoint_contents
        arrays = dict(arrays)
        named, edit = MISFIT_PARAMS[case]
        edit(arrays)
        bad = tmp_path / "bad.ckpt"
        save_arrays(bad, arrays, meta)
        text_path = tmp_path / "input.txt"
        text_path.write_text("江城\n", encoding="utf-8")
        code, out = run(capsys, "tag", "-c", str(cfg_path),
                        "-o", f"checkpoint_path={bad}", str(text_path))
        assert code == 2 and out == ""
        assert "Traceback" not in capsys.readouterr().err
        assert named in caplog.text

    def test_tag_loads_a_checkpoint_whose_config_stores_workers(self, workspace, capsys,
                                                                checkpoint_contents):
        # checkpoints written before `workers` left the config store it
        tmp_path, cfg_path, *_ = workspace
        arrays, meta = checkpoint_contents
        old = copy.deepcopy(meta)
        old["config"]["workers"] = 2
        text_path = tmp_path / "input.txt"
        text_path.write_text("江城\n他在江城里看\n", encoding="utf-8")
        outs = []
        for name, stored in (("new.ckpt", meta), ("old.ckpt", old)):
            save_arrays(tmp_path / name, arrays, stored)
            outs.append(run(capsys, "tag", "-c", str(cfg_path),
                            "-o", f"checkpoint_path={tmp_path / name}", str(text_path)))
        assert outs[0][0] == 0 and outs[1] == outs[0]

    def test_tag_names_a_mistyped_config_field(self, workspace, capsys, caplog,
                                               checkpoint_contents):
        tmp_path, cfg_path, *_ = workspace
        arrays, meta = checkpoint_contents
        meta = copy.deepcopy(meta)
        meta["config"]["seed"] = "x"
        bad = tmp_path / "bad.ckpt"
        save_arrays(bad, arrays, meta)
        text_path = tmp_path / "input.txt"
        text_path.write_text("江城\n", encoding="utf-8")
        code, _ = run(capsys, "tag", "-c", str(cfg_path),
                      "-o", f"checkpoint_path={bad}", str(text_path))
        assert code == 2 and "seed must be of type int" in caplog.text

    @pytest.mark.parametrize("command", ["tag", "eval"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_transition_exits_3(self, workspace, capsys, caplog,
                                           checkpoint_contents, command, value):
        tmp_path, cfg_path, *_ = workspace
        arrays, meta = checkpoint_contents
        T = arrays["crf.T"].copy()
        T[0, 1] = value
        bad = tmp_path / "bad.ckpt"
        save_arrays(bad, {**arrays, "crf.T": T}, meta)
        text_path = tmp_path / "input.txt"
        text_path.write_text("江城\n他在江城里看\n", encoding="utf-8")
        args = [str(text_path)] if command == "tag" else []
        code, out = run(capsys, command, "-c", str(cfg_path),
                        "-o", f"checkpoint_path={bad}", *args)
        assert code == 3 and out == ""
        assert "Traceback" not in capsys.readouterr().err
        assert "transition" in caplog.text

    def test_dump_attention_runs_one_encoder_call_per_chunk(self, trained, capsys,
                                                            monkeypatch):
        tmp_path, cfg_path, text_path, *_ = trained
        calls, encodes = [], []
        forward, encode_chars = model._forward, encoder.encode_chars

        def counting(store, items, *args, **kwargs):
            calls.append([item.sid for item in items])
            return forward(store, items, *args, **kwargs)

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
        # the four sentences fit in one chunk: one forward, one encoder call,
        # longest first; the records keep the input order
        assert [rec["id"] for rec in records] == ["t0", "t1", "t2", "t3"]
        lengths = {rec["id"]: len(rec["chars"]) for rec in records}
        assert len(calls) == 1 and sorted(calls[0]) == sorted(lengths)
        assert [lengths[sid] for sid in calls[0]] == sorted(lengths.values(), reverse=True)
        assert len(encodes) == 1
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

    @pytest.mark.parametrize("command", ["tag", "eval"])
    def test_verbose_prints_a_json_summary_to_stderr(self, trained, capsys, command):
        _, cfg_path, text_path, ds, _ = trained
        args = ["-c", str(cfg_path)] + ([str(text_path)] if command == "tag" else [])
        sentences = ds.sentences[:4] if command == "tag" else ds.sentences
        code, quiet = run(capsys, command, *args)
        assert code == 0
        assert main(["-v", command, *args]) == 0
        captured = capsys.readouterr()
        assert captured.out == quiet
        summaries = []
        for line in captured.err.splitlines():
            try:
                summaries.append(json.loads(line))
            except ValueError:
                continue
        assert len(summaries) == 1
        summary = summaries[0]
        assert set(summary) == {"sentences", "chars", "seconds", "setup_seconds", "chars_per_s",
                                "peak_rss_mb"}
        assert summary["sentences"] == len(sentences)
        assert summary["chars"] == sum(len(s.chars) for s in sentences)
        assert summary["seconds"] > 0 and summary["setup_seconds"] > 0
        assert summary["chars_per_s"] == pytest.approx(summary["chars"] / summary["seconds"])
        assert summary["peak_rss_mb"] > 0

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_tag_input_of_invalid_utf8_exits_2(self, trained, capsys, caplog, monkeypatch,
                                               source):
        tmp_path, cfg_path, *_ = trained
        data = "江城\n".encode("utf-8") + b"\xff\n"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            path, name = "-", "standard input"
        else:
            path = name = str(tmp_path / "bad.txt")
            (tmp_path / "bad.txt").write_bytes(data)
        code, out = run(capsys, "tag", "-c", str(cfg_path), path)
        assert code == 2 and out == ""
        assert f"{name}: not valid UTF-8" in caplog.text

    @pytest.mark.parametrize("command", ["tag", "lexicon-inspect"])
    def test_a_stdout_that_cannot_encode_the_output_exits_2(self, trained, capsys, caplog,
                                                           monkeypatch, command):
        _, cfg_path, text_path, *_ = trained
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        assert main([command, "-c", str(cfg_path), str(text_path)]) == 2
        assert "UnicodeEncodeError" in caplog.text

    def test_tag_output_reads_back_in_eval_with_whitespace_inside_lines(self, workspace, capsys):
        tmp_path, cfg_path, ds, *_ = workspace
        # a prediction file must hold legal transitions, which decode_mask guarantees
        assert run(capsys, "train", "-c", str(cfg_path), "-o", "decode_mask=true")[0] == 0
        plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
        plain.write_text("".join("".join(s.chars) + "\n" for s in ds.sentences), encoding="utf-8")
        spaced.write_text("".join(" " + " ".join(s.chars[:2]) + "\u3000" + "".join(s.chars[2:])
                                  + "\t\n" for s in ds.sentences), encoding="utf-8")
        outputs = []
        for text in (plain, spaced):
            outputs.append(tmp_path / f"{text.stem}.conll")
            assert main(["tag", "-c", str(cfg_path), str(text), "--output", str(outputs[-1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        code, out = run(capsys, "eval", "-c", str(cfg_path), "-o", f"pred_path={outputs[1]}")
        assert code == 0 and 0.0 <= json.loads(out)["overall"]["f1"] <= 1.0

    def test_tag_and_eval_restore_through_the_library(self, trained, capsys, monkeypatch):
        tmp_path, cfg_path, text_path, *_ = trained
        ckpt, lexicon = restore(tmp_path / "model.ckpt")
        assert lexicon.words == ckpt.words
        assert lexicon.embeddings.shape == (len(ckpt.words), ckpt.config.d_w)
        assert lexicon.embeddings is ckpt.store.value("word_emb")   # no table drawn
        paths = []
        monkeypatch.setattr(cli, "restore", lambda path: paths.append(path) or restore(path))
        assert main(["tag", "-c", str(cfg_path), str(text_path)]) == 0
        assert main(["eval", "-c", str(cfg_path)]) == 0
        assert paths == [str(tmp_path / "model.ckpt")] * 2
        assert not hasattr(cli, "_restore")

    @pytest.mark.parametrize("case", ["one-char-word", "eleven-char-word", "no-word-kept"])
    def test_restore_and_tag_a_lexicon_outside_the_default_length_range(self, tmp_path, capsys,
                                                                        case):
        ds, words, _ = make_synthetic_corpus(n_sentences=6, seed=3)
        words, lengths, special = {
            "one-char-word": (words + ["江"], dict(min_word_len=1), {"江"}),
            "eleven-char-word": (words + ["江城长河大桥南山市东湖"], dict(max_word_len=11),
                                 {"江城长河大桥南山市东湖"}),
            "no-word-kept": (["江", "城"], {}, set()),
        }[case]
        lex = build_lexicon(words, None, dim=8, rng=np.random.default_rng(0), **lengths)
        assert special <= set(lex.words) and bool(lex.words) == bool(special)
        config = TrainConfig(lr=1e-2, d_c=8, d_w=8, bigru_total=16, epochs=1, seed=5)
        path = tmp_path / "model.ckpt"
        train(ds, ds, lex, config).best.save(path)
        ckpt, lexicon = restore(path)
        assert lexicon.words == ckpt.words == lex.words
        assert list(lexicon.word_index.items()) == list(lex.word_index.items())
        assert (lexicon.shortest, lexicon.longest) == (lex.shortest, lex.longest)
        text_path = tmp_path / "input.txt"
        text_path.write_text("他在江城长河大桥南山市东湖里\n", encoding="utf-8")
        code, out = run(capsys, "tag", "-o", f"checkpoint_path={path}", "--dump-attention",
                        str(text_path))
        assert code == 0
        attention = json.loads(out)["attention"]
        matched = {w for position in attention for w in position["words"]}
        assert special <= matched and bool(matched) == bool(special)

    def test_settings_the_checkpoint_fixes_are_named_in_one_warning(self, trained, capsys,
                                                                    caplog):
        tmp_path, cfg_path, text_path, *_ = trained
        plain, changed = tmp_path / "plain.conll", tmp_path / "changed.conll"
        assert main(["tag", "-c", str(cfg_path), str(text_path), "--output", str(plain)]) == 0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        assert main(["tag", "-c", str(cfg_path), "-o", "knowledge_mode=none", str(text_path),
                     "--output", str(changed)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "knowledge_mode='none' (checkpoint: 'slk')" in warnings[0]
        assert changed.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("command", ["tag", "eval"])
    def test_char_vectors_path_with_a_table_mode_checkpoint_is_named_and_not_read(
            self, trained, capsys, caplog, monkeypatch, command):
        tmp_path, cfg_path, text_path, ds, _ = trained
        nan_path = tmp_path / "nan.lxc"
        save_arrays(nan_path, {s.id: np.full((len(s), 8), np.nan) for s in ds.sentences})
        reads = []
        monkeypatch.setattr(cli, "load_arrays", lambda *a: reads.append(a) or load_arrays(*a))
        argv = [command, "-c", str(cfg_path)] + ([str(text_path)] if command == "tag" else [])
        code, plain = run(capsys, *argv)
        assert code == 0 and not [r for r in caplog.records if r.levelname == "WARNING"]
        code, given = run(capsys, *argv, "-o", f"char_vectors_path={nan_path}")
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert code == 0 and given == plain and reads == []
        assert len(warnings) == 1
        assert f"char_vectors_path={str(nan_path)!r} (checkpoint: table mode)" in warnings[0]

    @pytest.mark.parametrize("command", ["tag", "eval"])
    def test_a_missing_char_vectors_file_stops_only_a_file_mode_checkpoint(
            self, trained, capsys, caplog, command):
        tmp_path, cfg_path, text_path, ds, _ = trained
        missing = tmp_path / "missing.lxc"
        argv = [command, "-c", str(cfg_path), "-o", f"char_vectors_path={missing}"]
        argv += [str(text_path)] if command == "tag" else []
        caplog.clear()
        code, _ = run(capsys, *argv)   # table mode: the setting is named and never read
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert code == 0 and len(warnings) == 1
        assert f"char_vectors_path={str(missing)!r} (checkpoint: table mode)" in warnings[0]
        vectors = tmp_path / "chars.lxc"   # keyed by the ids read_conll gives the training file
        save_arrays(vectors, {f"s{n}": np.full((len(s), 8), 0.5)
                              for n, s in enumerate(ds.sentences)})
        assert main(["train", "-c", str(cfg_path), "-o", f"char_vectors_path={vectors}"]) == 0
        assert model.char_source(Checkpoint.load(tmp_path / "model.ckpt").store) == "file"
        caplog.clear()
        code, _ = run(capsys, *argv)
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert code == 2 and len(errors) == 1
        assert errors[0] == f"char_vectors_path file does not exist: {missing}"

    def test_eval_of_a_prediction_file_needs_no_char_vectors_file(self, workspace, capsys):
        tmp_path, cfg_path, *_ = workspace
        code, out = run(capsys, "eval", "-c", str(cfg_path), "-o",
                        f"pred_path={tmp_path / 'train.conll'}", "-o",
                        f"char_vectors_path={tmp_path / 'missing.lxc'}")
        assert code == 0 and json.loads(out)["overall"]["f1"] == 1.0

    def test_a_setting_given_at_its_default_is_named_too(self, workspace, capsys, caplog):
        tmp_path, cfg_path, ds, *_ = workspace
        assert main(["train", "-c", str(cfg_path), "-o", "knowledge_mode=none"]) == 0
        text_path = tmp_path / "input.txt"
        text_path.write_text("".join("".join(s.chars) + "\n" for s in ds.sentences[:4]),
                             encoding="utf-8")
        plain, changed = tmp_path / "plain.conll", tmp_path / "changed.conll"
        caplog.clear()
        assert main(["tag", "-c", str(cfg_path), str(text_path), "--output", str(plain)]) == 0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        assert main(["tag", "-c", str(cfg_path), "-o", "knowledge_mode=slk", str(text_path),
                     "--output", str(changed)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "knowledge_mode='slk' (checkpoint: 'none')" in warnings[0]
        assert changed.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("command", ["tag", "eval"])
    def test_a_config_equal_to_the_checkpoints_warns_about_nothing(self, trained, capsys,
                                                                   caplog, command):
        tmp_path, cfg_path, text_path, *_ = trained
        settings = Checkpoint.load(tmp_path / "model.ckpt").config.to_dict()
        equal = tmp_path / "equal.cfg"
        equal.write_text(cfg_path.read_text(encoding="utf-8") + "".join(
            f"{key}={'none' if value is None else value}\n" for key, value in settings.items()),
            encoding="utf-8")
        argv = [command, "-c", str(equal)] + ([str(text_path)] if command == "tag" else [])
        assert run(capsys, *argv)[0] == 0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_decode_mask_set_on_the_command_line_keeps_transitions_legal(self, workspace,
                                                                         capsys):
        tmp_path, cfg_path, ds, *_ = workspace
        assert run(capsys, "train", "-c", str(cfg_path))[0] == 0   # without decode_mask
        scheme = Checkpoint.load(tmp_path / "model.ckpt").scheme()
        text = tmp_path / "all.txt"
        text.write_text("".join("".join(s.chars) + "\n" for s in ds.sentences), encoding="utf-8")
        outputs, reports = [], []
        for extra in ([], ["-o", "decode_mask=true"]):
            code, out = run(capsys, "tag", "-c", str(cfg_path), *extra, str(text))
            assert code == 0
            outputs.append(out)
            code, out = run(capsys, "eval", "-c", str(cfg_path), *extra)
            assert code == 0
            reports.append(json.loads(out))
        # this model breaks the grammar unless the mask forbids it
        assert illegal_transitions(outputs[0], scheme) and reports[0]["malformed"] > 0
        assert not illegal_transitions(outputs[1], scheme) and reports[1]["malformed"] == 0

    def test_eval_scores_tag_output_that_breaks_the_grammar(self, workspace, capsys):
        tmp_path, cfg_path, ds, *_ = workspace
        assert run(capsys, "train", "-c", str(cfg_path))[0] == 0   # without decode_mask
        scheme = Checkpoint.load(tmp_path / "model.ckpt").scheme()
        text, pred = tmp_path / "all.txt", tmp_path / "pred.conll"
        text.write_text("".join("".join(s.chars) + "\n" for s in ds.sentences), encoding="utf-8")
        assert main(["tag", "-c", str(cfg_path), str(text), "--output", str(pred)]) == 0
        assert illegal_transitions(pred.read_text(encoding="utf-8"), scheme)
        code, from_file = run(capsys, "eval", "-c", str(cfg_path), "-o", f"pred_path={pred}")
        assert code == 0
        code, from_model = run(capsys, "eval", "-c", str(cfg_path))
        assert code == 0
        # one scoring function: the same tags give the same report, malformed runs included
        assert json.loads(from_file) == json.loads(from_model)
        # predictions are cut where gold is cut
        code, _ = run(capsys, "eval", "-c", str(cfg_path), "-o", f"pred_path={pred}",
                      "-o", "max_len=4")
        assert code == 0

    def test_eval_counts_a_dangling_inside_tag_as_malformed(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text("甲 B-LOC\n乙 E-LOC\n丙 O\n\n", encoding="utf-8")
        pred.write_text("甲 O\n乙 I-LOC\n丙 O\n\n", encoding="utf-8")
        code, out = run(capsys, "eval", "-o", f"test_path={gold}", "-o", f"pred_path={pred}")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"overall", "per_type", "buckets", "malformed"}
        assert report["malformed"] == 1
        assert report["overall"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_tag_reads_prepares_and_tags_a_window_at_a_time(self, trained, capsys, monkeypatch):
        tmp_path, cfg_path, _, ds, _ = trained
        window = cli.TAG_WINDOW
        assert window % model.TAG_CHUNK == 0
        lines = plain_lines(ds.sentences, 2 * window + 3)
        whole = tmp_path / "whole.txt"
        whole.write_text("".join(lines), encoding="utf-8")
        sizes, prepare = [], cli.prepare_sentences
        monkeypatch.setattr(cli, "prepare_sentences",
                            lambda sentences, *args: sizes.append(len(sentences))
                            or prepare(sentences, *args))
        code, out = run(capsys, "tag", "-c", str(cfg_path), str(whole))
        assert code == 0 and sizes == [window, window, 3]
        parts = []
        for at in range(0, len(lines), window):
            part = tmp_path / f"part{at}.txt"
            part.write_text("".join(lines[at:at + window]), encoding="utf-8")
            code, part_out = run(capsys, "tag", "-c", str(cfg_path), str(part))
            assert code == 0
            parts.append(part_out)
        assert out == "".join(parts)

    @pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
    def test_invalid_utf8_after_the_first_window(self, trained, capsys, caplog, monkeypatch,
                                                 to_file):
        tmp_path, cfg_path, _, ds, _ = trained
        window = cli.TAG_WINDOW
        bad = tmp_path / "bad.txt"
        bad.write_bytes("".join(plain_lines(ds.sentences, 2 * window)).encode("utf-8")
                        + b"\xff\n")
        sizes, prepare = [], cli.prepare_sentences
        monkeypatch.setattr(cli, "prepare_sentences",
                            lambda sentences, *args: sizes.append(len(sentences))
                            or prepare(sentences, *args))
        output = tmp_path / "out" / "tagged.conll"
        output.parent.mkdir()
        extra = ["--output", str(output)] if to_file else []
        code, out = run(capsys, "tag", "-c", str(cfg_path), str(bad), *extra)
        assert code == 2 and f"{bad}: not valid UTF-8" in caplog.text
        assert sizes[0] == window   # the error came after a window was tagged
        assert list(output.parent.iterdir()) == []   # no output file, no temporary file
        # on stdout, the windows tagged before the error have been written
        assert out.count("\n\n") == (0 if to_file else window * len(sizes))

    def test_missing_checkpoint_exits_2(self, workspace, capsys):
        _, cfg_path, *_ = workspace
        code, _ = run(capsys, "eval", "-c", str(cfg_path))
        assert code == 2


class TestInputErrors:
    @pytest.mark.parametrize("case", ["config", "lexicon", "inspected-text", "train-corpus",
                                      "dev-corpus", "embeddings", "pred"])
    def test_invalid_utf8_exits_2_naming_the_file(self, workspace, capsys, caplog, case):
        tmp_path, cfg_path, *_ = workspace
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\n")
        text = tmp_path / "text.txt"
        text.write_text("江城\n", encoding="utf-8")
        argv = {
            "config": ["echo-config", "-c", str(bad)],
            "lexicon": ["lexicon-inspect", "-o", f"lexicon_path={bad}", str(text)],
            "inspected-text": ["lexicon-inspect", "-c", str(cfg_path), str(bad)],
            "train-corpus": ["train", "-c", str(cfg_path), "-o", f"train_path={bad}"],
            "dev-corpus": ["train", "-c", str(cfg_path), "-o", f"dev_path={bad}"],
            "embeddings": ["train", "-c", str(cfg_path), "-o", f"embeddings_path={bad}"],
            "pred": ["eval", "-c", str(cfg_path), "-o", f"pred_path={bad}"],
        }[case]
        code, out = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"{bad}: not valid UTF-8" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_a_nul_character_in_a_setting_exits_1(self, workspace, capsys, caplog):
        tmp_path, cfg_path, *_ = workspace
        nul_cfg = tmp_path / "nul.cfg"
        nul_cfg.write_text(cfg_path.read_text(encoding="utf-8") + "checkpoint_path=a\0b\n",
                           encoding="utf-8")
        code, out = run(capsys, "train", "-c", str(nul_cfg))
        assert code == 1 and out == ""
        assert "'checkpoint_path'" in caplog.text and "NUL" in caplog.text

    @pytest.mark.parametrize("setting", ["scheme=BIOX", "entity_types=,,"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_scheme_setting_exits_1(self, workspace, capsys, caplog, command, setting):
        tmp_path, cfg_path, *_ = workspace
        extra = ["-o", f"pred_path={tmp_path / 'train.conll'}"] if command == "eval" else []
        code, out = run(capsys, command, "-c", str(cfg_path), "-o", setting, *extra)
        assert code == 1 and out == ""
        assert "bad scheme or entity_types" in caplog.text

    def test_eval_of_a_prediction_file_checks_max_len(self, workspace, capsys, caplog):
        tmp_path, cfg_path, *_ = workspace
        code, out = run(capsys, "eval", "-c", str(cfg_path), "-o", "max_len=0",
                        "-o", f"pred_path={tmp_path / 'train.conll'}")
        assert code == 1 and out == ""
        assert "max_len must be positive, got 0" in caplog.text


class TestExitCodes:
    @pytest.mark.parametrize("command, setting, message", [
        ("train", "seed=-1", "seed must be >= 0, got -1"),
        ("gradcheck", "seed=-1", "seed must be >= 0, got -1"),
        ("lexicon-inspect", "seed=-1", "seed must be >= 0, got -1"),
        ("lexicon-inspect", "d_w=0", "d_w must be positive, got 0"),
        # numpy cannot shape arrays this large: refused before any is made
        ("train", f"d_c={10**18}", f"d_c must be at most {MAX_DIM}, got {10**18}"),
        ("train", f"bigru_total={2**62}", f"bigru_total must be at most {MAX_DIM}"),
        ("lexicon-inspect", f"d_w={10**18}", f"d_w must be at most {MAX_DIM}, got {10**18}"),
    ])
    def test_a_bad_setting_exits_1_naming_it(self, workspace, capsys, caplog, command, setting,
                                             message):
        tmp_path, cfg_path, *_ = workspace
        text = tmp_path / "text.txt"
        text.write_text("江城\n", encoding="utf-8")
        extra = [str(text)] if command == "lexicon-inspect" else []
        code, out = run(capsys, command, "-c", str(cfg_path), "-o", setting, *extra)
        assert code == 1 and out == ""
        assert message in caplog.text

    def test_a_failed_allocation_exits_2_without_a_traceback(self, workspace, capsys, caplog,
                                                             monkeypatch):
        _, cfg_path, *_ = workspace

        def init_params(*args):
            raise MemoryError("Unable to allocate 30.6 TiB for an array")

        monkeypatch.setattr(trainer, "init_params", init_params)
        code, out = run(capsys, "train", "-c", str(cfg_path))
        assert code == 2 and out == ""
        assert "MemoryError: Unable to allocate" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_any_other_exception_is_a_bug_and_propagates(self, monkeypatch):
        def cmd_echo_config(cfg):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "cmd_echo_config", cmd_echo_config)
        with pytest.raises(ValueError, match="a bug"):
            main(["echo-config"])


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

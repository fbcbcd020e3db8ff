"""Command-line interface.

Subcommands: train, tag, eval, lexicon-inspect, gradcheck, echo-config.
Configuration comes from a key=value file (-c), LEXNER_* environment
variables, and repeatable -o KEY=VALUE overrides, with precedence
override > environment > file > built-in default. Unknown keys are
rejected. Exit codes: 0 ok, 1 configuration, 2 data/IO, 3 numeric fault.
Each error class carries its code (`errors.LexnerError.exit_code`), and
`main` returns it; a failed file operation, allocation or output encoding
exits 2. Any other exception is a bug and keeps its traceback.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from contextlib import nullcontext

import numpy as np

from .corpus import Sentence, TagScheme, load_embeddings, read_conll, read_lines
from .diagnostics import end_to_end_grad_check
from .errors import ConfigError, DataError, LexnerError, SchemeError
from .evaluation import evaluation_report
from .lexicon import build_lexicon, match_sentence
from .model import prepare_sentences, tag_sentences
from .trainer import Checkpoint, TrainConfig, gold_spans, predict_spans, train

log = logging.getLogger(__name__)

ENV_PREFIX = "LEXNER_"

_PATH_KEYS = (
    "train_path", "dev_path", "test_path", "lexicon_path", "embeddings_path",
    "char_vectors_path", "checkpoint_path", "log_path", "pred_path",
)


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _opt_float(text: str):
    low = text.strip().lower()
    return None if low in ("", "none") else float(text)


def default_config() -> dict:
    cfg = {key: None for key in _PATH_KEYS}
    cfg.update(dataclasses.asdict(TrainConfig()))
    cfg["scheme"] = "BIOES"
    cfg["entity_types"] = ""
    return cfg


# the caster of each TrainConfig field, by its annotation
_ANNOTATION_CASTERS = {"int": int, "float": float, "float | None": _opt_float,
                       "bool": _bool, "str": str.lower}
_CASTERS = {f.name: _ANNOTATION_CASTERS[f.type] for f in dataclasses.fields(TrainConfig)}
_CASTERS.update({key: str for key in _PATH_KEYS + ("scheme", "entity_types")})


def parse_kv_file(path) -> dict:
    """key=value lines; blank lines and # comments are skipped."""
    out = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def merge_config(file_path=None, overrides=()) -> dict:
    cfg = default_config()

    def apply(key: str, raw: str, source: str):
        if key not in cfg:
            raise ConfigError(f"unknown configuration key {key!r} (from {source})")
        if "\0" in raw:   # no value holds one, and open() refuses a path with one
            raise ConfigError(f"bad value for {key!r} (from {source}): a NUL character")
        try:
            cfg[key] = _CASTERS[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r} (from {source}): {exc}") from None

    if file_path:
        for key, raw in parse_kv_file(file_path).items():
            apply(key, raw, str(file_path))
    for name, raw in sorted(os.environ.items()):
        if name.startswith(ENV_PREFIX):
            apply(name[len(ENV_PREFIX):].lower(), raw, f"env {name}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        apply(key.strip(), raw, "command line")
    return cfg


def _train_config(cfg: dict) -> TrainConfig:
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    return TrainConfig(**{k: v for k, v in cfg.items() if k in fields})


def _require_keys(cfg: dict, *keys: str) -> None:
    for key in keys:
        if not cfg.get(key):
            raise ConfigError(f"required configuration key {key!r} is not set")


def _check_input_files(cfg: dict, *keys: str) -> None:
    """Every referenced input path must exist at command start."""
    for key in keys:
        value = cfg.get(key)
        if value and not os.path.exists(value):
            raise DataError(f"{key} file does not exist: {value}")


def _scheme_from_config(cfg: dict, train_path=None) -> TagScheme:
    if cfg["entity_types"]:
        labels = tuple(t.strip() for t in cfg["entity_types"].split(",") if t.strip())
    elif train_path is None:
        raise ConfigError("entity_types is not set and there is no corpus to infer it from")
    else:
        labels = infer_entity_types(train_path)
    try:
        return TagScheme(cfg["scheme"], labels)
    except SchemeError as exc:   # the configured values are at fault, not the data
        raise ConfigError(f"bad scheme or entity_types: {exc}") from None


def infer_entity_types(path) -> tuple[str, ...]:
    """The entity types in a corpus file's tag column, sorted."""
    types = set()
    for line in read_lines(path):
        parts = line.split()
        if len(parts) == 2 and parts[1] != "O" and "-" in parts[1]:
            types.add(parts[1].split("-", 1)[1])
    if not types:
        raise DataError(f"{path}: no entity tags found to infer a scheme from")
    return tuple(sorted(types))


def _read_words(path) -> list[str]:
    words = [line.strip() for line in read_lines(path) if line.strip()]
    if not words:
        raise DataError(f"{path}: empty lexicon word list")
    return words


def _load_char_vectors(cfg: dict):
    if not cfg.get("char_vectors_path"):
        return None
    from .params import load_arrays
    arrays, _ = load_arrays(cfg["char_vectors_path"])
    return arrays


def _restore(cfg: dict):
    """Load a checkpoint and rebuild the lexicon over its word list."""
    ckpt = Checkpoint.load(cfg["checkpoint_path"])
    rng = np.random.default_rng(ckpt.config.seed)
    lexicon = build_lexicon(ckpt.words, None, dim=ckpt.config.d_w, rng=rng)
    if lexicon.words != ckpt.words:
        raise DataError("checkpoint word list does not round-trip through build_lexicon")
    return ckpt, lexicon


def cmd_train(cfg: dict) -> int:
    _require_keys(cfg, "train_path", "dev_path", "lexicon_path", "checkpoint_path")
    _check_input_files(cfg, "train_path", "dev_path", "lexicon_path",
                       "embeddings_path", "char_vectors_path")
    tc = _train_config(cfg)
    scheme = _scheme_from_config(cfg, cfg["train_path"])
    train_set = read_conll(cfg["train_path"], scheme, "train", tc.max_len)
    dev_set = read_conll(cfg["dev_path"], scheme, "valid", tc.max_len)
    table = load_embeddings(cfg["embeddings_path"]) if cfg.get("embeddings_path") else None
    lexicon = build_lexicon(_read_words(cfg["lexicon_path"]), table, dim=tc.d_w,
                            rng=np.random.default_rng(tc.seed))
    char_vectors = _load_char_vectors(cfg)
    log_path = cfg.get("log_path") or cfg["checkpoint_path"] + ".log"
    result = train(train_set, dev_set, lexicon, tc,
                   char_vectors=char_vectors, log_path=log_path)
    result.best.save(cfg["checkpoint_path"])
    result.last.save(cfg["checkpoint_path"] + ".last")
    print(json.dumps({
        "best_epoch": result.best.epoch,
        "best_dev_f1": result.best.best_dev_f1,
        "epochs_run": len(result.history),
        "checkpoint": cfg["checkpoint_path"],
    }))
    return 0


def _read_plain_sentences(path) -> list[Sentence]:
    """One sentence per non-blank line; whitespace is dropped, so the CoNLL
    `char tag` lines that `tag` writes can be read back."""
    sentences = []
    for line in read_lines(path):
        text = "".join(line.split())
        if text:
            sentences.append(Sentence(tuple(text), None, f"t{len(sentences)}"))
    return sentences


def _print_summary(sentences, seconds: float, setup_seconds: float) -> None:
    """One JSON line on stderr: how much text a command tagged, how fast, and
    how long the checkpoint load and lexicon rebuild took before it."""
    chars = sum(len(s.chars) for s in sentences)
    print(json.dumps({"sentences": len(sentences), "chars": chars, "seconds": seconds,
                      "setup_seconds": setup_seconds,
                      "chars_per_s": chars / seconds if seconds > 0 else 0.0}),
          file=sys.stderr)


def cmd_tag(cfg: dict, input_path, output_path=None, dump_attention=False,
            verbose=False) -> int:
    _require_keys(cfg, "checkpoint_path")
    _check_input_files(cfg, "checkpoint_path", "char_vectors_path")
    if input_path != "-" and not os.path.exists(input_path):
        raise DataError(f"input file does not exist: {input_path}")
    t0 = time.perf_counter()
    ckpt, lexicon = _restore(cfg)
    setup_seconds = time.perf_counter() - t0
    scheme = ckpt.scheme()
    mcfg = ckpt.model_config()
    legal = scheme.legal_mask() if ckpt.config.decode_mask else None
    sentences = _read_plain_sentences(input_path)
    t0 = time.perf_counter()
    inputs = prepare_sentences(sentences, lexicon, ckpt.char_vocab,
                               ckpt.config.knowledge_mode, _load_char_vectors(cfg))
    tagged = tag_sentences(ckpt.store, inputs, mcfg, legal)
    seconds = time.perf_counter() - t0

    with open(output_path, "w", encoding="utf-8") if output_path else nullcontext(sys.stdout) as out:
        for sent, item, (tags, alphas) in zip(sentences, inputs, tagged):
            if dump_attention:
                ids, offsets = item.words.ids, item.words.offsets
                record = {
                    "id": sent.id,
                    "chars": list(sent.chars),
                    "tags": [scheme.tag_of(t) for t in tags],
                    "attention": [
                        {
                            "pos": i + 1,
                            "char": sent.chars[i],
                            "words": [lexicon.words[w] for w in ids[a:b]],
                            "alphas": [float(x) for x in alphas[a:b]],
                        }
                        for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:]))
                    ],
                }
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
            else:
                for ch, t in zip(sent.chars, tags):
                    out.write(f"{ch} {scheme.tag_of(t)}\n")
                out.write("\n")
    if verbose:
        _print_summary(sentences, seconds, setup_seconds)
    return 0


def _format_report_table(report: dict) -> str:
    rows = [("overall", report["overall"])]
    rows += [(f"type {t}", m) for t, m in report["per_type"].items()]
    rows += [(f"len {b['min_length']}-{b['max_length']}", b) for b in report["buckets"]]
    lines = [f"{'':<14}{'P':>8}{'R':>8}{'F1':>8}"]
    for label, m in rows:
        lines.append(f"{label:<14}{m['precision']:>8.4f}{m['recall']:>8.4f}{m['f1']:>8.4f}")
    return "\n".join(lines)


def cmd_eval(cfg: dict, text_table: bool = False, verbose: bool = False) -> int:
    _require_keys(cfg, "test_path")
    _check_input_files(cfg, "test_path", "pred_path", "char_vectors_path")
    t0, setup_seconds = time.perf_counter(), 0.0
    if cfg.get("pred_path"):
        max_len = _train_config(cfg).max_len   # checks the settings as `train` does
        scheme = _scheme_from_config(cfg, cfg["test_path"])
        gold_set = read_conll(cfg["test_path"], scheme, "test", max_len)
        pred_set = read_conll(cfg["pred_path"], scheme, "test", max_len)
        if len(pred_set.sentences) != len(gold_set.sentences):
            raise DataError(
                f"prediction file has {len(pred_set.sentences)} sentences, "
                f"gold has {len(gold_set.sentences)}"
            )
        for gold, pred in zip(gold_set.sentences, pred_set.sentences):
            if pred.chars != gold.chars:
                raise DataError(f"prediction sentence {pred.id!r} does not have the "
                                f"characters of gold sentence {gold.id!r}")
        report = evaluation_report(gold_set.sentences, gold_spans(gold_set),
                                   gold_spans(pred_set))
    else:
        _require_keys(cfg, "checkpoint_path")
        _check_input_files(cfg, "checkpoint_path")
        ckpt, lexicon = _restore(cfg)
        setup_seconds = time.perf_counter() - t0
        scheme = ckpt.scheme()
        gold_set = read_conll(cfg["test_path"], scheme, "test", ckpt.config.max_len)
        t0 = time.perf_counter()   # the summary leaves out the checkpoint load
        inputs = prepare_sentences(gold_set.sentences, lexicon, ckpt.char_vocab,
                                   ckpt.config.knowledge_mode, _load_char_vectors(cfg))
        pred = predict_spans(ckpt.store, inputs, scheme, ckpt.model_config(),
                             ckpt.config.decode_mask)
        report = evaluation_report(gold_set.sentences, gold_spans(gold_set), pred)
    if verbose:
        _print_summary(gold_set.sentences, time.perf_counter() - t0, setup_seconds)
    if text_table:
        print(_format_report_table(report))
    else:
        print(json.dumps(report, ensure_ascii=False, indent=2))
    return 0


def cmd_lexicon_inspect(cfg: dict, input_path) -> int:
    _require_keys(cfg, "lexicon_path")
    _check_input_files(cfg, "lexicon_path", "embeddings_path")
    if input_path != "-" and not os.path.exists(input_path):
        raise DataError(f"input file does not exist: {input_path}")
    tc = _train_config(cfg)
    table = load_embeddings(cfg["embeddings_path"]) if cfg.get("embeddings_path") else None
    lexicon = build_lexicon(_read_words(cfg["lexicon_path"]), table, dim=tc.d_w,
                            rng=np.random.default_rng(tc.seed))
    for sent in _read_plain_sentences(input_path):
        sets = match_sentence(lexicon, sent)
        for i, ch in enumerate(sent.chars):
            record = {
                "pos": i + 1,
                "char": ch,
                "fwd": [lexicon.words[w] for w in sets.fwd[i]],
                "bwd": [lexicon.words[w] for w in sets.bwd[i]],
                "flk": [lexicon.words[w] for w in sets.flk[i]],
                "slk": [lexicon.words[w] for w in sets.slk[i]],
            }
            print(json.dumps(record, ensure_ascii=False))
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    err = end_to_end_grad_check(_train_config(cfg).seed)
    threshold = 1e-4
    print(json.dumps({"max_rel_err": err, "threshold": threshold}))
    return 0 if err < threshold else 3


def cmd_echo_config(cfg: dict) -> int:
    print(json.dumps(cfg, sort_keys=True, ensure_ascii=False, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lexner")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", help="key=value configuration file")
        p.add_argument("-o", "--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override one configuration key")

    common(sub.add_parser("train", help="train a model and write checkpoints"))
    p_tag = sub.add_parser("tag", help="decode plain text with a checkpoint")
    common(p_tag)
    p_tag.add_argument("input", help="text file, one sentence per line ('-' for stdin)")
    p_tag.add_argument("--output", help="write here instead of stdout")
    p_tag.add_argument("--dump-attention", action="store_true",
                       help="emit JSON lines with per-position mixing weights")
    p_eval = sub.add_parser("eval", help="entity P/R/F1 of a checkpoint or prediction file")
    common(p_eval)
    p_eval.add_argument("--text", action="store_true",
                        help="plain-text table instead of JSON")
    p_ins = sub.add_parser("lexicon-inspect", help="dump per-character match sets as JSON lines")
    common(p_ins)
    p_ins.add_argument("input", help="text file, one sentence per line ('-' for stdin)")
    common(sub.add_parser("gradcheck", help="finite-difference check of a seeded tiny model"))
    common(sub.add_parser("echo-config", help="print the merged configuration"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = merge_config(args.config, args.override)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "tag":
            return cmd_tag(cfg, args.input, args.output, args.dump_attention, args.verbose)
        if args.command == "eval":
            return cmd_eval(cfg, args.text, args.verbose)
        if args.command == "lexicon-inspect":
            return cmd_lexicon_inspect(cfg, args.input)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        return cmd_echo_config(cfg)
    except LexnerError as exc:
        log.error("%s", exc)
        return exc.exit_code
    # UnicodeEncodeError, the one ValueError here: an output stream that cannot hold Chinese
    except (OSError, MemoryError, UnicodeEncodeError) as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

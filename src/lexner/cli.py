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
import json
import logging
import os
import resource
import sys
import time
from collections import ChainMap, Counter
from contextlib import nullcontext
from itertools import islice

import numpy as np

from .corpus import Dataset, Sentence, TagScheme, load_embeddings, read_conll, read_lines
from .diagnostics import end_to_end_grad_check
from .errors import ConfigError, DataError, LexnerError, SchemeError
from .evaluation import evaluation_report, extract_entities
from .lexicon import Lexicon, build_lexicon, match_sentence
from .model import char_source, prepare_sentences, tag_sentences
from .params import load_arrays, replacing
from .trainer import FIELD_PARSERS, Checkpoint, TrainConfig, gold_spans, restore, train

log = logging.getLogger(__name__)

ENV_PREFIX = "LEXNER_"
TAG_WINDOW = 256   # sentences that `tag` and `eval` read, prepare and tag at a time

_PATH_KEYS = (
    "train_path", "dev_path", "test_path", "lexicon_path", "embeddings_path",
    "char_vectors_path", "checkpoint_path", "log_path", "pred_path",
)


def default_config() -> dict:
    cfg = {key: None for key in _PATH_KEYS}
    cfg.update(TrainConfig().to_dict())
    cfg["scheme"] = "BIOES"
    cfg["entity_types"] = ""
    return cfg


_CASTERS = {**FIELD_PARSERS, **dict.fromkeys(_PATH_KEYS + ("scheme", "entity_types"), str)}


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


def merge_config(file_path=None, overrides=()) -> ChainMap:
    """The built-in defaults under the settings given; `maps[0]` holds the given ones."""
    given, defaults = {}, default_config()

    def apply(key: str, raw: str, source: str):
        if key not in defaults:
            raise ConfigError(f"unknown configuration key {key!r} (from {source})")
        if "\0" in raw:   # no value holds one, and open() refuses a path with one
            raise ConfigError(f"bad value for {key!r} (from {source}): a NUL character")
        try:
            given[key] = _CASTERS[key](raw)
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
    return ChainMap(given, defaults)


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**{key: cfg[key] for key in FIELD_PARSERS})


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


def _lexicon(cfg: dict, tc: TrainConfig) -> Lexicon:
    """The lexicon over lexicon_path's words, with embeddings_path's vectors if set."""
    table = load_embeddings(cfg["embeddings_path"]) if cfg.get("embeddings_path") else None
    words = [line.strip() for line in read_lines(cfg["lexicon_path"]) if line.strip()]
    if not words:
        raise DataError(f"{cfg['lexicon_path']}: empty lexicon word list")
    return build_lexicon(words, table, dim=tc.d_w, rng=np.random.default_rng(tc.seed))


def _load_char_vectors(cfg: dict):
    """char_vectors_path's container, or None if unset. `tag` and `eval` read it for a
    file-mode checkpoint only, so the file is checked here and not at command start."""
    if not cfg.get("char_vectors_path"):
        return None
    _check_input_files(cfg, "char_vectors_path")
    arrays, _ = load_arrays(cfg["char_vectors_path"])
    return arrays


def cmd_train(cfg: dict) -> int:
    _require_keys(cfg, "train_path", "dev_path", "lexicon_path", "checkpoint_path")
    _check_input_files(cfg, "train_path", "dev_path", "lexicon_path",
                       "embeddings_path", "char_vectors_path")
    tc = _train_config(cfg)
    scheme = _scheme_from_config(cfg, cfg["train_path"])
    train_set = read_conll(cfg["train_path"], scheme, "train", tc.max_len)
    dev_set = read_conll(cfg["dev_path"], scheme, "valid", tc.max_len)
    lexicon = _lexicon(cfg, tc)
    log.info("lexicon loaded: %d words kept, %d skipped (length), %d randomly initialised",
             len(lexicon), lexicon.n_skipped, lexicon.n_random_init)
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


def _read_plain_sentences(path):
    """One sentence per non-blank line, read as needed; whitespace is dropped,
    so the CoNLL `char tag` lines that `tag` writes can be read back."""
    if path != "-" and not os.path.exists(path):
        raise DataError(f"input file does not exist: {path}")
    texts = filter(None, ("".join(line.split()) for line in read_lines(path)))
    return (Sentence(tuple(text), None, f"t{n}") for n, text in enumerate(texts))


def _tally(summary: Counter, sentences, t0: float) -> None:
    """Add the sentences, their characters and the seconds since t0 to a summary."""
    summary.update(sentences=len(sentences), chars=sum(map(len, sentences)),
                   seconds=time.perf_counter() - t0)


def _print_summary(summary: Counter) -> None:
    """One JSON line on stderr: how much text a command tagged, how fast, how long
    the checkpoint load and word index took before it, and the peak memory in MB."""
    out = {key: summary[key] for key in ("sentences", "chars", "seconds", "setup_seconds")}
    out["chars_per_s"] = out["chars"] / out["seconds"] if out["seconds"] > 0 else 0.0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), file=sys.stderr)


def _decode(cfg: ChainMap, ckpt: Checkpoint, lexicon: Lexicon, sentences, summary: Counter):
    """(sentence, inputs, (tags, alphas)) of each sentence in input order, read, prepared and
    tagged TAG_WINDOW at a time, with the legal mask if the checkpoint or cfg sets decode_mask.
    One warning names each other setting given in cfg whose value differs from the checkpoint's,
    and char_vectors_path if the checkpoint has its own character table."""
    given, table = cfg.maps[0], char_source(ckpt.store) == "table"
    ignored = [f"{k}={given[k]!r} (checkpoint: {v!r})" for k, v in ckpt.config.to_dict().items()
               if k != "decode_mask" and given.get(k, v) != v]
    if table and cfg.get("char_vectors_path"):
        ignored.append(f"char_vectors_path={cfg['char_vectors_path']!r} (checkpoint: table mode)")
    if ignored:
        log.warning("the checkpoint fixes these settings; ignoring %s", ", ".join(ignored))
    legal = ckpt.scheme().legal_mask() if ckpt.config.decode_mask or cfg["decode_mask"] else None
    char_vectors, sentences = None if table else _load_char_vectors(cfg), iter(sentences)
    while window := list(islice(sentences, TAG_WINDOW)):
        t0 = time.perf_counter()
        inputs = prepare_sentences(window, lexicon, ckpt.char_vocab,
                                   ckpt.config.knowledge_mode, char_vectors)
        tagged = tag_sentences(ckpt.store, inputs, ckpt.config, legal)
        _tally(summary, window, t0)
        yield from zip(window, inputs, tagged)


def cmd_tag(cfg: dict, input_path, output_path=None, dump_attention=False,
            verbose=False) -> int:
    _require_keys(cfg, "checkpoint_path")
    _check_input_files(cfg, "checkpoint_path")
    sentences = _read_plain_sentences(input_path)
    t0 = time.perf_counter()
    ckpt, lexicon = restore(cfg["checkpoint_path"])
    summary, scheme = Counter(setup_seconds=time.perf_counter() - t0), ckpt.scheme()
    decoded = _decode(cfg, ckpt, lexicon, sentences, summary)
    with replacing(output_path) if output_path else nullcontext(sys.stdout) as out:
        for sent, item, (tags, alphas) in decoded:
            names = [scheme.tag_of(t) for t in tags]
            if not dump_attention:
                out.write("".join(f"{ch} {name}\n" for ch, name in zip(sent.chars, names)) + "\n")
                continue
            ids, offsets = item.words.ids, item.words.offsets
            attention = [{"pos": i + 1, "char": sent.chars[i],
                          "words": [lexicon.words[w] for w in ids[a:b]],
                          "alphas": [float(x) for x in alphas[a:b]]}
                         for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:]))]
            record = dict(id=sent.id, chars=list(sent.chars), tags=names, attention=attention)
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    if verbose:
        _print_summary(summary)
    return 0


def _format_report_table(report: dict) -> str:
    rows = [("overall", report["overall"])]
    rows += [(f"type {t}", m) for t, m in report["per_type"].items()]
    rows += [(f"len {b['min_length']}-{b['max_length']}", b) for b in report["buckets"]]
    lines = [f"{'':<14}{'P':>8}{'R':>8}{'F1':>8}"]
    for label, m in rows:
        lines.append(f"{label:<14}{m['precision']:>8.4f}{m['recall']:>8.4f}{m['f1']:>8.4f}")
    return "\n".join(lines)


def _score(gold_set: Dataset, predicted) -> dict:
    """eval's report on the predicted tags of each gold sentence, in order, with
    the count of "malformed" predicted runs (see `extract_entities`)."""
    found = {s.id: extract_entities(tags, gold_set.scheme)
             for s, tags in zip(gold_set.sentences, predicted)}
    pred = {sid: spans for sid, (spans, _) in found.items()}
    report = evaluation_report(gold_set.sentences, gold_spans(gold_set), pred)
    return {**report, "malformed": sum(bad for _, bad in found.values())}


def cmd_eval(cfg: dict, text_table: bool = False, verbose: bool = False) -> int:
    _require_keys(cfg, "test_path")
    _check_input_files(cfg, "test_path", "pred_path")
    t0, summary = time.perf_counter(), Counter(setup_seconds=0.0)
    if cfg.get("pred_path"):
        max_len = _train_config(cfg).max_len   # checks the settings as `train` does
        scheme = _scheme_from_config(cfg, cfg["test_path"])
        gold_set = read_conll(cfg["test_path"], scheme, "test", max_len)
        pred_set = read_conll(cfg["pred_path"], scheme, "test", max_len, gold=False)
        if len(pred_set) != len(gold_set):
            raise DataError(f"prediction file has {len(pred_set)} sentences, "
                            f"gold has {len(gold_set)}")
        for gold, pred in zip(gold_set.sentences, pred_set.sentences):
            if pred.chars != gold.chars:
                raise DataError(f"prediction sentence {pred.id!r} does not have the "
                                f"characters of gold sentence {gold.id!r}")
        report = _score(gold_set, [pred.tags for pred in pred_set.sentences])
        _tally(summary, gold_set.sentences, t0)
    else:
        _require_keys(cfg, "checkpoint_path")
        _check_input_files(cfg, "checkpoint_path")
        ckpt, lexicon = restore(cfg["checkpoint_path"])
        summary["setup_seconds"] = time.perf_counter() - t0
        gold_set = read_conll(cfg["test_path"], ckpt.scheme(), "test", ckpt.config.max_len)
        decoded = _decode(cfg, ckpt, lexicon, gold_set.sentences, summary)
        report = _score(gold_set, (tags for _, _, (tags, _) in decoded))
    if verbose:
        _print_summary(summary)
    if text_table:
        print(_format_report_table(report))
    else:
        print(json.dumps(report, ensure_ascii=False, indent=2))
    return 0


def cmd_lexicon_inspect(cfg: dict, input_path) -> int:
    _require_keys(cfg, "lexicon_path")
    _check_input_files(cfg, "lexicon_path", "embeddings_path")
    sentences = _read_plain_sentences(input_path)
    lexicon = _lexicon(cfg, _train_config(cfg))
    for sent in sentences:
        sets = vars(match_sentence(lexicon, sent))   # fwd, bwd, flk, slk
        for i, ch in enumerate(sent.chars):
            record = {"pos": i + 1, "char": ch}
            record.update({kind: [lexicon.words[w] for w in at[i]] for kind, at in sets.items()})
            print(json.dumps(record, ensure_ascii=False))
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    err = end_to_end_grad_check(_train_config(cfg).seed)
    threshold = 1e-4
    print(json.dumps({"max_rel_err": err, "threshold": threshold}))
    return 0 if err < threshold else 3


def cmd_echo_config(cfg: dict) -> int:
    print(json.dumps(dict(cfg), sort_keys=True, ensure_ascii=False, indent=2))
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

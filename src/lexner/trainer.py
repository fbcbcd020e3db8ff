"""Mini-batch Adam training with dev-F1 model selection and checkpointing.

Each mini-batch is one `batch_loss` call: the whole graph runs once over
the batch, forward and backward, and adds the batch's gradients straight
into the store's gradients (`Param.grad`), so a rerun gives the same bits.
The CRF checks each sentence's loss; `adam_step` checks the gradients,
applies them (to an embedding table's live rows only, with the bits of a
dense update) and zeroes them. Dropout randomness is drawn as one child
seed per sentence from the main generator, in batch order, which keeps
resumed runs on the exact trajectory of uninterrupted ones.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import operator
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import DEFAULT_MAX_LEN, UNK, Dataset, TagScheme, build_char_vocab
from .encoder import G_MODES
from .errors import ConfigError, FormatError, NumericError, SchemeError
from .evaluation import extract_entities, prf1
from .fusion import STRATEGIES
from .lexicon import KNOWLEDGE_MODES, Lexicon
from .model import (TABLES, SentenceInputs, batch_loss, char_source, init_params,
                    param_shapes, prepare_sentences, tag_sentences)
from .params import ParamStore

log = logging.getLogger(__name__)
MAX_DIM = 1 << 20   # far above any real model, far below where numpy array sizes overflow
# the settings that fix what the parameters mean, which a resume must keep
_MODEL_SETTINGS = ("d_c", "d_w", "bigru_total", "layers", "precision", "knowledge_mode",
                   "fusion_strategy", "g_mode")


@dataclass
class TrainConfig:
    """Hyper-parameters; the defaults are the reference configuration."""

    lr: float = 5e-5
    batch_size: int = 32
    dropout: float = 0.1
    max_len: int = DEFAULT_MAX_LEN
    d_c: int = 64
    d_w: int = 50
    bigru_total: int = 512
    layers: int = 1
    epochs: int = 100
    patience: int = 10
    seed: int = 1
    knowledge_mode: str = "slk"
    fusion_strategy: str = "global_attention"
    freeze_word_emb: bool = False
    clip_norm: float | None = None
    workers: dataclasses.InitVar[int] = 1   # taken so old callers and checkpoints work; ignored
    g_mode: str = "last"
    decode_mask: bool = False
    precision: str = "float64"

    def __post_init__(self, workers):
        if self.layers != 1:
            raise ConfigError(f"only 1 recurrent layer is supported, got {self.layers}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(f"precision must be float64 or float32, got {self.precision!r}")
        if self.bigru_total % 2 != 0 or self.bigru_total < 2:
            raise ConfigError(f"bigru_total must be a positive even number, got {self.bigru_total}")
        for name in ("batch_size", "max_len", "d_c", "d_w", "epochs", "patience"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("d_c", "d_w", "bigru_total"):
            if getattr(self, name) > MAX_DIM:
                raise ConfigError(f"{name} must be at most {MAX_DIM}, got {getattr(self, name)}")
        if self.seed < 0:   # numpy's generators take no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr <= 1.0:   # false for NaN too; Adam moves a weight by about lr a step
            raise ConfigError(f"lr must be in (0, 1], got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.knowledge_mode not in KNOWLEDGE_MODES:
            raise ConfigError(f"knowledge_mode {self.knowledge_mode!r} not in {KNOWLEDGE_MODES}")
        if self.fusion_strategy not in STRATEGIES:
            raise ConfigError(f"fusion_strategy {self.fusion_strategy!r} not in {STRATEGIES}")
        if self.g_mode not in G_MODES:
            raise ConfigError(f"g_mode {self.g_mode!r} not in {G_MODES}")
        # a clip of 0 freezes every weight, and a negative one turns descent into ascent
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive or none, got {self.clip_norm}")

    @property
    def d_h(self) -> int:   # per direction
        return self.bigru_total // 2

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.precision)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Rebuild a config from `to_dict` output; every value must have its field's type."""
        for f in dataclasses.fields(cls):
            if f.name in d:
                kinds, value = _FIELD_KINDS[f.type][0], d[f.name]
                # bool is an int to isinstance, but no int field takes one
                if not isinstance(value, kinds) or isinstance(value, bool) != (bool in kinds):
                    raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        return cls(**d)


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


# each annotation of a TrainConfig field: the JSON types `from_dict` accepts, and the text parser
_FIELD_KINDS = {"int": ((int,), int), "float": ((int, float), float),
                "float | None": ((int, float, type(None)), _opt_float),
                "str": ((str,), str.lower), "bool": ((bool,), _bool)}
# each field's parser of a value given as text (a config file, LEXNER_*, -o)
FIELD_PARSERS = {f.name: _FIELD_KINDS[f.type][1] for f in dataclasses.fields(TrainConfig)}


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, t: int = 1, clip_norm: float | None = None,
              skip=()) -> int:
    """Bias-corrected Adam update; zeroes the gradients after.

    Returns the number of values it updated. A tensor with a live-row mask
    is updated on its live rows only: they are gathered, updated and
    scattered back. Every other row has zero gradient and zero moments, where
    the full update keeps m = v = 0 and subtracts 0.0 from the value (for
    lr > 0 and eps > 0), so skipping it gives the same bits. The finite check
    and the zeroing run on the live rows too; the `clip_norm` total is summed
    over the full gradients, so clipping rounds as a dense update would.
    Works in place, in the operation order of the textbook expressions, so
    the bits match them. The scratch space is the gradient and one array.
    """
    if t < 1:
        raise ValueError(f"Adam step count must be >= 1, got {t}")
    parts = []
    for name, p in store.items():
        rows = ... if p.live is None else np.flatnonzero(p.live)
        g = p.grad[rows]   # a view of the whole gradient, or a copy of the live rows
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        parts.append((name, p, rows, g))
    if clip_norm is not None:
        total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for _, p in store.items()))
        if total > clip_norm:
            scale = clip_norm / total
            for *_, g in parts:
                g *= scale
    scratch = np.empty(max((g.nbytes for *_, g in parts), default=0), np.uint8)
    updated = 0
    for name, p, rows, g in parts:
        if name not in skip:
            m, v, value = p.m[rows], p.v[rows], p.value[rows]
            tmp = scratch[:g.nbytes].view(g.dtype).reshape(g.shape)
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(m, beta1, out=m)
            np.multiply(g, 1.0 - beta1, out=tmp)
            np.add(m, tmp, out=m)
            # v = beta2 * v + (1 - beta2) * g ** 2
            np.multiply(v, beta2, out=v)
            np.square(g, out=g)
            np.multiply(g, 1.0 - beta2, out=g)
            np.add(v, g, out=v)
            # value = value - (lr * m_hat) / (sqrt(v_hat) + eps)
            np.divide(v, 1.0 - beta2 ** t, out=g)
            np.sqrt(g, out=g)
            np.add(g, eps, out=g)
            np.divide(m, 1.0 - beta1 ** t, out=tmp)
            np.multiply(tmp, lr, out=tmp)
            np.divide(tmp, g, out=tmp)
            np.subtract(value, tmp, out=value)
            if rows is not ...:
                p.m[rows], p.v[rows], p.value[rows] = m, v, value
            updated += g.size
        p.grad[rows] = 0.0
    return updated


# (field, JSON type, type of each item or value) of the checkpoint metadata
_CHECKPOINT_META = (
    ("config", dict, None), ("epoch", int, None), ("best_dev_f1", (int, float), None),
    ("rng_state", dict, None), ("adam_t", int, None), ("char_vocab", dict, int),
    ("scheme_kind", str, None), ("labels", list, str), ("words", list, str),
)


@dataclass
class Checkpoint:
    """Everything needed to evaluate, tag, or resume training; `train` keeps its state in one."""

    store: ParamStore
    config: TrainConfig
    epoch: int
    best_dev_f1: float
    rng_state: dict
    adam_t: int
    char_vocab: dict[str, int]
    scheme_kind: str
    labels: tuple[str, ...]
    words: tuple[str, ...]

    def scheme(self) -> TagScheme:
        return TagScheme(self.scheme_kind, self.labels)

    def model_config(self) -> TrainConfig:
        return self.config   # the graph reads the TrainConfig itself

    def save(self, path) -> None:
        meta = {key: getattr(self, key) for key, *_ in _CHECKPOINT_META}
        meta.update(kind="checkpoint", config=self.config.to_dict())
        self.store.save(path, meta)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        store, meta = ParamStore.load(path)
        if not isinstance(meta, dict) or meta.get("kind") != "checkpoint":
            raise FormatError(f"{path}: not a checkpoint container")
        wrong = [key for key, kind, item in _CHECKPOINT_META
                 if key not in meta or not isinstance(meta[key], kind) or isinstance(meta[key], bool)
                 or item and not set(map(type, meta[key].values() if kind is dict
                                         else meta[key])) <= {item}]
        if wrong:
            raise FormatError(f"{path}: checkpoint metadata lacks or mistypes {', '.join(wrong)}")
        try:
            config = TrainConfig.from_dict(meta["config"])
        except (TypeError, ConfigError) as exc:
            raise FormatError(f"{path}: bad checkpoint config ({exc})") from None
        words, char_vocab = tuple(meta["words"]), meta["char_vocab"]
        if UNK not in char_vocab or min(char_vocab.values()) < 0:
            raise FormatError(f"{path}: checkpoint char_vocab lacks {UNK!r} or has a negative id")
        if max(char_vocab.values()) >= len(char_vocab):
            raise FormatError(f"{path}: checkpoint char_vocab ids reach beyond its size")
        fields = {key: meta[key] for key, *_ in _CHECKPOINT_META}
        fields.update(config=config, best_dev_f1=float(meta["best_dev_f1"]),
                      labels=tuple(meta["labels"]), words=words)
        ckpt, source = cls(store=store, **fields), char_source(store)
        try:
            num_tags = ckpt.scheme().size
        except SchemeError as exc:
            raise FormatError(f"{path}: bad checkpoint tag scheme ({exc})") from None
        want = {name: f"{config.dtype} {shape}" for name, shape in
                param_shapes(config, num_tags, source, len(char_vocab), len(words)).items()}
        got = {name: f"{p.value.dtype} {p.value.shape}" for name, p in store.items()}
        if got != want:
            bad = [f"{name}: {got.get(name, 'none')}, expected {want.get(name, 'none')}"
                   for name in dict.fromkeys([*want, *got]) if got.get(name) != want.get(name)]
            raise FormatError(f"{path}: checkpoint parameters do not fit its config "
                              f"({source} mode, {len(words)} words): {'; '.join(bad)}")
        return ckpt


def restore(path) -> tuple[Checkpoint, Lexicon]:
    """Load a checkpoint and index its words over their trained vectors (`word_emb`);
    the words must be distinct and in (length, word) order, as `build_lexicon` keeps them."""
    ckpt = Checkpoint.load(path)
    keys = list(zip(map(len, ckpt.words), ckpt.words))
    if not all(map(operator.lt, keys, keys[1:])):
        raise FormatError(f"{path}: checkpoint words are not distinct and in (length, word) order")
    return ckpt, Lexicon(ckpt.words, ckpt.store.value("word_emb"))


@dataclass
class TrainResult:
    best: Checkpoint
    last: Checkpoint
    history: list[dict] = field(default_factory=list)


def gold_spans(dataset: Dataset) -> dict:
    return {s.id: extract_entities(s.tags, dataset.scheme)[0] for s in dataset.sentences}


def evaluate(store: ParamStore, inputs: list[SentenceInputs], gold: dict,
             scheme: TagScheme, config: TrainConfig):
    """Decode every sentence (with the legal mask if config.decode_mask); micro (P, R, F1)."""
    tagged = tag_sentences(store, inputs, config, scheme.legal_mask() if config.decode_mask else None)
    return prf1(gold, {item.sid: extract_entities(tags, scheme)[0]
                       for item, (tags, _) in zip(inputs, tagged)})


def _resumable(store: ParamStore) -> ParamStore:
    """A copy of a loaded store to train on. Each table first reads its live rows from its
    moments, so that the copy's moments and the gradients hold only those (`params._zeros`)."""
    for name in TABLES:
        if name in store:
            store[name].mark_live()
    return store.copy()


def train(train_set: Dataset, dev_set: Dataset, lexicon: Lexicon,
          config: TrainConfig, *, char_vectors: dict | None = None,
          resume: Checkpoint | None = None, log_path=None) -> TrainResult:
    """Train from scratch or continue from a checkpoint.

    Each epoch: seeded shuffle, batched forward/backward, one Adam step
    per batch, then dev entity-F1 for model selection. Stops early after
    `patience` epochs without dev improvement. A resume that would change
    the checkpoint's model raises ConfigError before the first epoch.
    """
    if not train_set.sentences:
        raise ConfigError("training set is empty")
    if not dev_set.sentences:
        raise ConfigError("validation set is empty")
    scheme = train_set.scheme
    source = "file" if char_vectors is not None else "table"

    rng = np.random.default_rng(config.seed)
    if resume is not None:
        differ = [key for key in _MODEL_SETTINGS if getattr(config, key) != getattr(resume.config, key)]
        differ += [key for key, same in (
            ("lexicon words", tuple(lexicon.words) == tuple(resume.words)),
            ("character source", source == char_source(resume.store)),
            ("tag scheme", (scheme.kind, scheme.labels) == (resume.scheme_kind, tuple(resume.labels))),
        ) if not same]
        if differ:
            raise ConfigError(f"cannot resume: {', '.join(differ)} differ from the checkpoint's")
        run = dataclasses.replace(resume, store=_resumable(resume.store), config=config)
        rng.bit_generator.state = run.rng_state
    char_vocab = run.char_vocab if resume is not None else build_char_vocab(train_set.sentences)

    inputs = prepare_sentences(train_set.sentences, lexicon, char_vocab,
                               config.knowledge_mode, char_vectors)
    dev_inputs = prepare_sentences(dev_set.sentences, lexicon, char_vocab,
                                   config.knowledge_mode, char_vectors)
    dev_gold = gold_spans(dev_set)
    # lexicon coverage: the share of training characters with at least one word in their set
    train_chars = sum(map(len, inputs))
    covered = sum(int(np.count_nonzero(np.diff(item.words.offsets))) for item in inputs)

    if resume is None:   # the run's state: what a snapshot saves, rng_state aside
        run = Checkpoint(init_params(config, scheme.size, source, len(char_vocab),
                                     lexicon.embeddings, rng),
                         config, epoch=0, best_dev_f1=-1.0, rng_state={}, adam_t=0,
                         char_vocab=char_vocab, scheme_kind=scheme.kind, labels=scheme.labels,
                         words=lexicon.words)
    skip = ("word_emb",) if config.freeze_word_emb else ()

    def snapshot():
        return dataclasses.replace(run, store=run.store.copy(),
                                   rng_state=json.loads(json.dumps(rng.bit_generator.state)))

    # a fresh run needs no starting snapshot: the first epoch's F1 (>= 0) beats -1
    best = snapshot() if resume is not None else None
    history: list[dict] = []
    stale = 0
    # a fresh run starts its log over, and a resume continues it
    with (open(log_path, "w" if resume is None else "a", encoding="utf-8") if log_path
          else contextlib.nullcontext()) as log_fh:
        for run.epoch in range(run.epoch + 1, config.epochs + 1):
            t0 = time.perf_counter()
            order = rng.permutation(len(inputs))
            total_nll, adam_values = 0.0, 0
            for at in range(0, len(order), config.batch_size):
                batch = [inputs[i] for i in order[at:at + config.batch_size]]
                rngs = [np.random.default_rng(int(rng.integers(0, 2 ** 63))) for _ in batch]
                for loss in batch_loss(run.store, batch, config, train=True, rngs=rngs):
                    total_nll += loss   # in batch order; the CRF has checked each loss
                run.adam_t += 1
                adam_values += adam_step(run.store, config.lr, t=run.adam_t,
                                         clip_norm=config.clip_norm, skip=skip)
            train_s = time.perf_counter() - t0
            p, r, f1 = evaluate(run.store, dev_inputs, dev_gold, scheme, config)
            record = {
                "epoch": run.epoch,
                "train_nll": total_nll / len(inputs),
                "dev_p": p,
                "dev_r": r,
                "dev_f1": f1,
                "seconds": time.perf_counter() - t0,
                "adam_values": adam_values,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "train_chars_per_s": train_chars / train_s,
                "lexicon_coverage": covered / train_chars,
            }
            history.append(record)
            if log_fh:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            log.info("epoch %d: train_nll %.4f dev_f1 %.4f", run.epoch, record["train_nll"], f1)
            if f1 > run.best_dev_f1:
                run.best_dev_f1 = f1
                best = snapshot()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    log.info("no dev improvement for %d epochs; stopping", stale)
                    break
    # nothing changes after a best epoch's snapshot, so a last best epoch is shared
    last = best if best.epoch == run.epoch else snapshot()
    return TrainResult(best=best, last=last, history=history)

"""Mini-batch Adam training with dev-F1 model selection and checkpointing.

Per-sentence gradients go into private buffers and are summed in sentence
order before the optimizer step, so results are bit-identical for any
worker count. Dropout randomness is drawn as one child seed per sentence
from the main generator, in batch order, which keeps resumed runs on the
exact trajectory of uninterrupted ones.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, TagScheme, build_char_vocab
from .errors import ConfigError, FormatError, NumericError
from .evaluation import extract_entities, prf1
from .fusion import STRATEGIES
from .lexicon import KNOWLEDGE_MODES, Lexicon
from .model import (UNK, ModelConfig, SentenceInputs, decode_sentence, init_params,
                    prepare_sentences, sentence_loss)
from .params import ParamStore

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Hyper-parameters; the defaults are the reference configuration."""

    lr: float = 5e-5
    batch_size: int = 32
    dropout: float = 0.1
    max_len: int = 250
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
    workers: int = 1
    g_mode: str = "last"
    decode_mask: bool = False
    precision: str = "float64"

    def __post_init__(self):
        if self.layers != 1:
            raise ConfigError(f"only 1 recurrent layer is supported, got {self.layers}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(f"precision must be float64 or float32, got {self.precision!r}")
        if self.bigru_total % 2 != 0 or self.bigru_total < 2:
            raise ConfigError(f"bigru_total must be a positive even number, got {self.bigru_total}")
        for name in ("lr", "batch_size", "max_len", "d_c", "d_w", "epochs", "workers"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.knowledge_mode not in KNOWLEDGE_MODES:
            raise ConfigError(f"knowledge_mode {self.knowledge_mode!r} not in {KNOWLEDGE_MODES}")
        if self.fusion_strategy not in STRATEGIES:
            raise ConfigError(f"fusion_strategy {self.fusion_strategy!r} not in {STRATEGIES}")

    @property
    def d_h(self) -> int:
        return self.bigru_total // 2

    def model_config(self, num_tags: int, char_source: str = "table") -> ModelConfig:
        return ModelConfig(d_c=self.d_c, d_h=self.d_h, d_w=self.d_w,
                           num_tags=num_tags, dropout=self.dropout,
                           fusion_strategy=self.fusion_strategy,
                           g_mode=self.g_mode, char_source=char_source,
                           precision=self.precision)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, t: int = 1, clip_norm: float | None = None,
              skip=()) -> None:
    """Bias-corrected Adam update over every parameter; zeroes gradients after.

    Works in place, in the operation order of the textbook expressions, so the
    bits match them. The scratch space is the gradient and one shared array.
    """
    if t < 1:
        raise ValueError(f"Adam step count must be >= 1, got {t}")
    for name, p in store.items():
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    if clip_norm is not None:
        total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for _, p in store.items()))
        if total > clip_norm:
            scale = clip_norm / total
            for _, p in store.items():
                p.grad *= scale
    scratch = np.empty(max((p.value.nbytes for _, p in store.items()), default=0), np.uint8)
    for name, p in store.items():
        g = p.grad
        if name in skip:
            g[...] = 0.0
            continue
        tmp = scratch[:g.nbytes].view(g.dtype).reshape(g.shape)
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(p.m, beta1, out=p.m)
        np.multiply(g, 1.0 - beta1, out=tmp)
        np.add(p.m, tmp, out=p.m)
        # v = beta2 * v + (1 - beta2) * g ** 2
        np.multiply(p.v, beta2, out=p.v)
        np.square(g, out=g)
        np.multiply(g, 1.0 - beta2, out=g)
        np.add(p.v, g, out=p.v)
        # value = value - (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(p.v, 1.0 - beta2 ** t, out=g)
        np.sqrt(g, out=g)
        np.add(g, eps, out=g)
        np.divide(p.m, 1.0 - beta1 ** t, out=tmp)
        np.multiply(tmp, lr, out=tmp)
        np.divide(tmp, g, out=tmp)
        np.subtract(p.value, tmp, out=p.value)
        g[...] = 0.0


# (field, JSON type, type of each item or value) of the checkpoint metadata
_CHECKPOINT_META = (
    ("config", dict, None), ("epoch", int, None), ("best_dev_f1", (int, float), None),
    ("rng_state", dict, None), ("adam_t", int, None), ("char_vocab", dict, int),
    ("scheme_kind", str, None), ("labels", list, str), ("words", list, str),
)


@dataclass
class Checkpoint:
    """Everything needed to evaluate, tag, or resume training."""

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

    def model_config(self):
        """ModelConfig matching the stored parameters (table vs file mode)."""
        source = "table" if "char_emb" in self.store else "file"
        return self.config.model_config(self.scheme().size, source)

    def save(self, path) -> None:
        meta = {
            "kind": "checkpoint",
            "config": self.config.to_dict(),
            "epoch": self.epoch,
            "best_dev_f1": self.best_dev_f1,
            "rng_state": self.rng_state,
            "adam_t": self.adam_t,
            "char_vocab": self.char_vocab,
            "scheme_kind": self.scheme_kind,
            "labels": list(self.labels),
            "words": list(self.words),
        }
        tmp = str(path) + ".tmp"
        self.store.save(tmp, meta)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        store, meta = ParamStore.load(path)
        if not isinstance(meta, dict) or meta.get("kind") != "checkpoint":
            raise FormatError(f"{path}: not a checkpoint container")
        wrong = [key for key, kind, item in _CHECKPOINT_META
                 if key not in meta or not isinstance(meta[key], kind) or isinstance(meta[key], bool)
                 or item and not all(type(x) is item for x in
                                     (meta[key].values() if kind is dict else meta[key]))]
        if wrong:
            raise FormatError(f"{path}: checkpoint metadata lacks or mistypes {', '.join(wrong)}")
        try:
            config = TrainConfig.from_dict(meta["config"])
        except (TypeError, ConfigError) as exc:
            raise FormatError(f"{path}: bad checkpoint config ({exc})") from None
        words, char_vocab = tuple(meta["words"]), meta["char_vocab"]
        if UNK not in char_vocab or min(char_vocab.values()) < 0:
            raise FormatError(f"{path}: checkpoint char_vocab lacks {UNK!r} or has a negative id")
        emb = store.value("word_emb") if "word_emb" in store else None
        if emb is None or emb.shape != (len(words), config.d_w):
            raise FormatError(f"{path}: word_emb does not hold one row of {config.d_w} "
                              f"values for each of the {len(words)} words")
        if "char_emb" in store and max(char_vocab.values()) >= len(store.value("char_emb")):
            raise FormatError(f"{path}: char_vocab ids reach beyond the char_emb rows")
        fields = {key: meta[key] for key, *_ in _CHECKPOINT_META}
        fields.update(config=config, best_dev_f1=float(meta["best_dev_f1"]),
                      labels=tuple(meta["labels"]), words=words)
        return cls(store=store, **fields)


@dataclass
class TrainResult:
    best: Checkpoint
    last: Checkpoint
    history: list[dict] = field(default_factory=list)


def gold_spans(dataset: Dataset) -> dict:
    return {s.id: extract_entities(s.tags, dataset.scheme)[0] for s in dataset.sentences}


def predict_spans(store: ParamStore, inputs: list[SentenceInputs], scheme: TagScheme,
                  mcfg: ModelConfig, decode_mask: bool = False) -> dict:
    """Decode every sentence; its entity spans by sentence id."""
    legal = scheme.legal_mask() if decode_mask else None
    pred = {}
    for item in inputs:
        tags = decode_sentence(store, item, mcfg, legal)
        pred[item.sid] = extract_entities(tags, scheme)[0]
    return pred


def evaluate(store: ParamStore, inputs: list[SentenceInputs], gold: dict,
             scheme: TagScheme, mcfg: ModelConfig, decode_mask: bool = False):
    """Decode every sentence and return micro (P, R, F1)."""
    return prf1(gold, predict_spans(store, inputs, scheme, mcfg, decode_mask))


def _batch_losses(store, batch, mcfg, seeds, workers):
    def run(args):
        item, seed = args
        return sentence_loss(store, item, mcfg, train=True,
                             rng=np.random.default_rng(seed))
    jobs = list(zip(batch, seeds))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, jobs))
    return [run(job) for job in jobs]


def train(train_set: Dataset, dev_set: Dataset, lexicon: Lexicon,
          config: TrainConfig, *, char_vectors: dict | None = None,
          resume: Checkpoint | None = None, log_path=None) -> TrainResult:
    """Train from scratch or continue from a checkpoint.

    Each epoch: seeded shuffle, batched forward/backward, one Adam step
    per batch, then dev entity-F1 for model selection. Stops early after
    `patience` epochs without dev improvement.
    """
    if not train_set.sentences:
        raise ConfigError("training set is empty")
    if not dev_set.sentences:
        raise ConfigError("validation set is empty")
    scheme = train_set.scheme
    char_source = "file" if char_vectors is not None else "table"

    rng = np.random.default_rng(config.seed)
    if resume is not None:
        store = resume.store.copy()
        char_vocab = resume.char_vocab
        rng.bit_generator.state = resume.rng_state
        adam_t = resume.adam_t
        start_epoch = resume.epoch + 1
        best_f1 = resume.best_dev_f1
    else:
        char_vocab = build_char_vocab(train_set.sentences)
        adam_t = 0
        start_epoch = 1
        best_f1 = -1.0

    mcfg = config.model_config(scheme.size, char_source)

    inputs = prepare_sentences(train_set.sentences, lexicon, char_vocab,
                               config.knowledge_mode, char_vectors)
    dev_inputs = prepare_sentences(dev_set.sentences, lexicon, char_vocab,
                                   config.knowledge_mode, char_vectors)
    dev_gold = gold_spans(dev_set)

    if resume is None:
        store = init_params(mcfg, len(char_vocab), lexicon.embeddings, rng)
    skip = ("word_emb",) if config.freeze_word_emb else ()

    def snapshot(epoch, f1):
        return Checkpoint(store.copy(), config, epoch, f1,
                          json.loads(json.dumps(rng.bit_generator.state)), adam_t,
                          char_vocab, scheme.kind, scheme.labels, lexicon.words)

    # a fresh run needs no starting snapshot: the first epoch's F1 (>= 0) beats -1
    best = snapshot(start_epoch - 1, best_f1) if resume is not None else None
    history: list[dict] = []
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
    stale = 0
    epoch = start_epoch - 1
    try:
        for epoch in range(start_epoch, config.epochs + 1):
            t0 = time.perf_counter()
            order = rng.permutation(len(inputs))
            total_nll = 0.0
            for at in range(0, len(order), config.batch_size):
                batch = [inputs[i] for i in order[at:at + config.batch_size]]
                seeds = [int(rng.integers(0, 2 ** 63)) for _ in batch]
                results = _batch_losses(store, batch, mcfg, seeds, config.workers)
                for loss, grads in results:
                    if not np.isfinite(loss) or loss < -1e-9:
                        raise NumericError(f"bad batch loss {loss}")
                    total_nll += loss
                    grads.reduce_into(store)
                adam_t += 1
                adam_step(store, config.lr, t=adam_t,
                          clip_norm=config.clip_norm, skip=skip)
            p, r, f1 = evaluate(store, dev_inputs, dev_gold, scheme, mcfg,
                                config.decode_mask)
            record = {
                "epoch": epoch,
                "train_nll": total_nll / len(inputs),
                "dev_p": p,
                "dev_r": r,
                "dev_f1": f1,
                "seconds": time.perf_counter() - t0,
            }
            history.append(record)
            if log_fh:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            log.info("epoch %d: train_nll %.4f dev_f1 %.4f", epoch,
                     record["train_nll"], f1)
            if f1 > best_f1:
                best_f1 = f1
                best = snapshot(epoch, f1)
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    log.info("no dev improvement for %d epochs; stopping", stale)
                    break
        # nothing changes after a best epoch's snapshot, so a last best epoch is shared
        last = best if best.epoch == epoch else snapshot(epoch, best_f1)
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(best=best, last=last, history=history)

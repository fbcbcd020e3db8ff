"""End-to-end computation: embed, encode, fuse, score, decode.

The encoder runs once over a batch of sentences (a training mini-batch or a
chunk of sentences to tag); embedding, dropout, fusion and the CRF run per
sentence.

Parameter names in the store:

    char_emb                     (V_c, d_c)   absent in precomputed-vector mode
    gru_fwd.W_z ... gru_bwd.b_h  recurrent gates, both directions
    fusion.W_u, fusion.b_u       word projection
    word_emb                     (V_w, d_w)
    crf.W_o, crf.b_o, crf.T      emission projection and transitions
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import crf, encoder, fusion
from .corpus import UNK, uniform_bound
from .errors import DataError, ShapeError
from .lexicon import Lexicon, knowledge_select, match_sentence
from .numerics import dropout, dropout_backward, fan_in_uniform
from .params import ParamStore

TAG_CHUNK = 8   # sentences per encoder call in tag_sentences


@dataclass
class ModelConfig:
    """Dimensions and behavior switches needed to run the graph."""

    d_c: int = 64
    d_h: int = 256            # per direction; the paired size is 2*d_h
    d_w: int = 50
    num_tags: int = 0
    dropout: float = 0.1
    fusion_strategy: str = "global_attention"
    g_mode: str = "last"
    char_source: str = "table"   # "table" or "file"
    precision: str = "float64"   # "float32" trades gradient-check headroom for speed

    @property
    def dtype(self):
        return np.dtype(self.precision)


@dataclass
class SentenceInputs:
    """One sentence, ready for the graph."""

    sid: str
    char_ids: np.ndarray
    words: fusion.WordSets
    gold: np.ndarray | None = None
    char_vectors: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.char_ids)


def param_shapes(cfg: ModelConfig, char_vocab_size: int, n_words: int) -> dict[str, tuple]:
    """Name -> shape of every parameter `init_params` makes, in store order."""
    two_dh = 2 * cfg.d_h
    shapes = {"char_emb": (char_vocab_size, cfg.d_c)} if cfg.char_source == "table" else {}
    for direction in ("fwd", "bwd"):
        for name, shape in encoder.gate_shapes(cfg.d_c, cfg.d_h).items():
            shapes[f"gru_{direction}.{name}"] = shape
    shapes.update({
        "fusion.W_u": (two_dh, cfg.d_w), "fusion.b_u": (two_dh,),
        "word_emb": (n_words, cfg.d_w),
        "crf.W_o": (cfg.num_tags, cfg.d_w + two_dh), "crf.b_o": (cfg.num_tags,),
        "crf.T": (cfg.num_tags + 2, cfg.num_tags + 2),
    })
    return shapes


def init_params(cfg: ModelConfig, char_vocab_size: int, word_init: np.ndarray,
                rng: np.random.Generator) -> ParamStore:
    """Fresh parameters; embeddings and weights use the uniform +-sqrt(3/fan) rule.

    The two embedding tables get their gradients by rows (see `batch_loss`).
    """
    word_init = np.asarray(word_init)
    if word_init.ndim != 2 or word_init.shape[1] != cfg.d_w:
        raise ShapeError(f"word embedding matrix {word_init.shape} does not match d_w={cfg.d_w}")
    shapes = param_shapes(cfg, char_vocab_size, len(word_init))
    store = ParamStore()

    def add(name, arr, table=False):
        # np.array copies, so the store never aliases caller-owned buffers
        store.add(name, np.array(arr, dtype=cfg.dtype), table)

    if cfg.char_source == "table":
        b = uniform_bound(cfg.d_c)
        add("char_emb", rng.uniform(-b, b, shapes["char_emb"]), table=True)
    for direction in ("fwd", "bwd"):
        for name, arr in encoder.init_gru_gates(cfg.d_c, cfg.d_h, rng).items():
            add(f"gru_{direction}.{name}", arr)
    add("fusion.W_u", fan_in_uniform(shapes["fusion.W_u"], rng))
    add("fusion.b_u", np.zeros(shapes["fusion.b_u"]))
    add("word_emb", word_init, table=True)
    add("crf.W_o", fan_in_uniform(shapes["crf.W_o"], rng))
    add("crf.b_o", np.zeros(shapes["crf.b_o"]))
    add("crf.T", crf.init_transitions(cfg.num_tags))
    return store


def prepare_sentence(sentence, lexicon: Lexicon, char_vocab: dict[str, int],
                     knowledge_mode: str,
                     char_vectors: np.ndarray | None = None) -> SentenceInputs:
    """Resolve characters to ids and lexicon matches to per-position word sets."""
    sets = knowledge_select(match_sentence(lexicon, sentence), knowledge_mode)
    lens = [[len(lexicon.words[w]) for w in s] for s in sets]
    char_ids = np.array([char_vocab.get(c, char_vocab[UNK]) for c in sentence.chars],
                        dtype=np.int64)
    gold = np.array(sentence.tags, dtype=np.int64) if sentence.tags is not None else None
    return SentenceInputs(sentence.id, char_ids, fusion.WordSets.from_sets(sets, lens),
                          gold, char_vectors)


def prepare_sentences(sentences, lexicon: Lexicon, char_vocab: dict[str, int],
                      knowledge_mode: str,
                      char_vectors: dict | None = None) -> list[SentenceInputs]:
    """prepare_sentence over a corpus; char_vectors maps sentence ids to vectors."""
    out = []
    for s in sentences:
        vec = char_vectors.get(s.id) if char_vectors is not None else None
        if char_vectors is not None and vec is None:
            raise DataError(f"no precomputed character vectors for sentence {s.id!r}")
        out.append(prepare_sentence(s, lexicon, char_vocab, knowledge_mode, vec))
    return out


def _char_rows(store: ParamStore, inputs: SentenceInputs, cfg: ModelConfig) -> np.ndarray:
    if cfg.char_source == "file":
        if inputs.char_vectors is None:
            raise DataError(f"sentence {inputs.sid!r}: no precomputed character vectors")
        X = np.asarray(inputs.char_vectors, dtype=cfg.dtype)
        if X.shape != (len(inputs), cfg.d_c):
            raise DataError(
                f"sentence {inputs.sid!r}: character vectors {X.shape} != ({len(inputs)}, {cfg.d_c})"
            )
        return X
    return store.value("char_emb")[inputs.char_ids]


def _forward(store: ParamStore, items: list[SentenceInputs], cfg: ModelConfig,
             train: bool, rngs):
    """One encoder call over the batch; dropout, fusion and the CRF per sentence.

    rngs holds each sentence's dropout generator (None in eval mode). Returns
    (results, enc_cache): results[b] is (lattice, alphas, cache) of items[b];
    alphas are the flat fusion weights.
    """
    lengths = [len(item) for item in items]
    X = np.concatenate([_char_rows(store, item, cfg) for item in items])
    fwd_gates = store.values_with_prefix("gru_fwd.")
    bwd_gates = store.values_with_prefix("gru_bwd.")
    H_all, enc_cache = encoder.encode_chars(X, fwd_gates, bwd_gates, lengths)
    word_emb, W_u, b_u = (store.value(n) for n in ("word_emb", "fusion.W_u", "fusion.b_u"))
    W_o, b_o, T = (store.value(n) for n in ("crf.W_o", "crf.b_o", "crf.T"))
    results = []
    at = 0
    for item, rng in zip(items, rngs):
        H, mask_h = dropout(H_all[at:at + len(item)], cfg.dropout, train, rng)
        at += len(item)
        g = encoder.global_feature(H, cfg.d_h, cfg.g_mode)
        Hsw_raw, alphas, fuse_cache = fusion.fuse_sentence(
            item.words, word_emb, g, W_u, b_u, cfg.fusion_strategy)
        Hsw, mask_sw = dropout(Hsw_raw, cfg.dropout, train, rng)
        R = np.hstack([Hsw, H])
        O = crf.emissions(R, W_o, b_o)
        results.append((crf.TagLattice(O, T), alphas, (mask_h, fuse_cache, mask_sw, R)))
    return results, enc_cache


def _require_gold(items) -> None:
    for item in items:
        if item.gold is None:
            raise DataError(f"sentence {item.sid!r} has no gold tags")


def _add_rows(store: ParamStore, name: str, ids: np.ndarray, d: np.ndarray) -> None:
    """Add d[k], the gradient of row ids[k], into table `name`; those rows become live."""
    p, (rows, local) = store[name], np.unique(ids, return_inverse=True)
    block = np.zeros((len(rows), p.grad.shape[1]), dtype=p.grad.dtype)
    np.add.at(block, local, d)   # rows are unique in the block: no update is lost
    p.grad[rows] += block
    p.mark_live(rows)


def batch_loss(store: ParamStore, items: list[SentenceInputs], cfg: ModelConfig,
               train: bool = True, rngs=None) -> list[float]:
    """NLL of each sentence's gold tags; adds their gradients into the store.

    The encoder runs once, forward and backward, over the whole batch.
    rngs holds one dropout generator per sentence (needed in train mode).
    Each sentence's part is added into `store[name].grad` in batch order.
    This module owns both embedding tables' rows: fusion hands back each
    matched word's gradient and the encoder each character's, and `_add_rows`
    adds them at their rows (per sentence for words, per batch for chars).
    The gradients are not checked here: `adam_step` checks them first.
    """
    _require_gold(items)
    results, enc_cache = _forward(store, items, cfg, train, rngs or [None] * len(items))
    grad = {name: p.grad for name, p in store.items()}
    W_o, W_u = store.value("crf.W_o"), store.value("fusion.W_u")
    char_ids = np.concatenate([item.char_ids for item in items])
    losses, dH_all = [], np.empty((len(char_ids), 2 * cfg.d_h), dtype=cfg.dtype)
    at = 0
    for item, (lattice, _, (mask_h, fuse_cache, mask_sw, R)) in zip(items, results):
        loss, dO, dT = crf.nll(lattice, item.gold)
        losses.append(loss)
        # the CRF works in float64; the backward pass below stays in cfg.dtype
        dO = dO.astype(cfg.dtype, copy=False)
        grad["crf.T"] += dT
        dR, dW_o, db_o = crf.emissions_backward(dO, R, W_o)
        grad["crf.W_o"] += dW_o
        grad["crf.b_o"] += db_o

        dHsw_raw = dropout_backward(dR[:, :cfg.d_w], mask_sw)
        dX_words, dg = fusion.fuse_sentence_backward(dHsw_raw, fuse_cache, W_u,
                                                     grad["fusion.W_u"], grad["fusion.b_u"])
        _add_rows(store, "word_emb", item.words.ids, dX_words)
        dH = dR[:, cfg.d_w:].copy()
        encoder.global_feature_backward(dg, dH, cfg.d_h, cfg.g_mode)
        dH_all[at:at + len(item)] = dropout_backward(dH, mask_h)
        at += len(item)

    fwd_gates = store.values_with_prefix("gru_fwd.")
    bwd_gates = store.values_with_prefix("gru_bwd.")
    fwd_grads = {name: grad[f"gru_fwd.{name}"] for name in encoder.GATE_NAMES}
    bwd_grads = {name: grad[f"gru_bwd.{name}"] for name in encoder.GATE_NAMES}
    dX = encoder.encode_backward(dH_all, enc_cache, fwd_gates, bwd_gates,
                                 fwd_grads, bwd_grads)
    if cfg.char_source == "table":
        _add_rows(store, "char_emb", char_ids, dX)
    return losses


def sentence_loss(store: ParamStore, inputs: SentenceInputs, cfg: ModelConfig,
                  train: bool = True, rng: np.random.Generator | None = None) -> float:
    """`batch_loss` of a batch of one: the NLL, its gradient added into the store."""
    return batch_loss(store, [inputs], cfg, train, [rng])[0]


def sentence_nll(store: ParamStore, inputs: SentenceInputs, cfg: ModelConfig) -> float:
    """NLL of the gold tags in eval mode, with no backward pass.

    Equals the loss of `sentence_loss(..., train=False)` bit for bit; gradient
    checks use it to evaluate the loss at perturbed parameters.
    """
    _require_gold([inputs])
    (lattice, _, _), = _forward(store, [inputs], cfg, train=False, rngs=[None])[0]
    return crf.nll_loss(lattice, inputs.gold)


def tag_sentences(store: ParamStore, items: list[SentenceInputs], cfg: ModelConfig,
                  legal: np.ndarray | None = None) -> list:
    """(Viterbi tag indices, flat fusion weights) of every item, in input order.

    Eval mode. The items run longest first in chunks of TAG_CHUNK, one
    encoder call per chunk. A sentence's scores can differ from those of a
    batch of one in the last bits, since the recurrent products then run
    as GEMMs over several rows. An item's alphas[words.offsets[i]:
    words.offsets[i + 1]] weigh the words of its position i.
    """
    order = sorted(range(len(items)), key=lambda i: -len(items[i]))
    out = [None] * len(items)
    for at in range(0, len(order), TAG_CHUNK):
        chunk = order[at:at + TAG_CHUNK]
        results, _ = _forward(store, [items[i] for i in chunk], cfg, train=False,
                              rngs=[None] * len(chunk))
        for i, (lattice, alphas, _) in zip(chunk, results):
            out[i] = (crf.viterbi(lattice, legal)[0], alphas)
    return out


def decode_sentence(store: ParamStore, inputs: SentenceInputs, cfg: ModelConfig,
                    legal: np.ndarray | None = None) -> list[int]:
    """Viterbi tag indices for one sentence (eval mode, no dropout)."""
    return tag_sentences(store, [inputs], cfg, legal)[0][0]

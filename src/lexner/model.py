"""End-to-end computation: embed, encode, fuse, score, decode.

The whole graph runs once over a batch of sentences (a training mini-batch
or a chunk of sentences to tag), each stage taking them one after another;
the encoder and the CRF share one length-ranked layout (`encoder.Layout`).
Settings come from the run's `TrainConfig`; shapes and character source from the store.

Parameter names in the store:

    char_emb                     (V_c, d_c)   absent in precomputed-vector mode
    gru_fwd.W_z ... gru_bwd.b_h  recurrent gates, both directions
    fusion.W_u, fusion.b_u       word projection
    word_emb                     (V_w, d_w)
    crf.W_o, crf.b_o, crf.T      emission projection and transitions
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import crf, encoder, fusion
from .corpus import UNK, uniform_bound
from .errors import DataError, ShapeError
from .lexicon import Lexicon, knowledge_select, match_sentence
from .numerics import dropout, dropout_backward, fan_in_uniform
from .params import ParamStore

if TYPE_CHECKING:
    from .trainer import TrainConfig

TAG_CHUNK = 32   # sentences per pass through the graph in tag_sentences
TABLES = ("char_emb", "word_emb")   # embedding tables: their gradients arrive by rows (`_add_rows`)


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


def char_source(store: ParamStore) -> str:
    """The character source a store implies: "table" iff it holds `char_emb`, else "file"."""
    return "table" if "char_emb" in store else "file"


def param_shapes(cfg: TrainConfig, num_tags: int, source: str, char_vocab_size: int,
                 n_words: int) -> dict[str, tuple]:
    """Name -> shape of every parameter `init_params` makes, in store order."""
    two_dh = 2 * cfg.d_h
    shapes = {"char_emb": (char_vocab_size, cfg.d_c)} if source == "table" else {}
    for direction in ("fwd", "bwd"):
        for name, shape in encoder.gate_shapes(cfg.d_c, cfg.d_h).items():
            shapes[f"gru_{direction}.{name}"] = shape
    shapes.update({
        "fusion.W_u": (two_dh, cfg.d_w), "fusion.b_u": (two_dh,),
        "word_emb": (n_words, cfg.d_w),
        "crf.W_o": (num_tags, cfg.d_w + two_dh), "crf.b_o": (num_tags,),
        "crf.T": (num_tags + 2, num_tags + 2),
    })
    return shapes


def init_params(cfg: TrainConfig, num_tags: int, source: str, char_vocab_size: int,
                word_init: np.ndarray, rng: np.random.Generator) -> ParamStore:
    """Fresh parameters; embeddings and weights use the uniform +-sqrt(3/fan) rule.

    The two embedding tables get their gradients by rows (see `batch_loss`).
    """
    word_init = np.asarray(word_init)
    if word_init.ndim != 2 or word_init.shape[1] != cfg.d_w:
        raise ShapeError(f"word embedding matrix {word_init.shape} does not match d_w={cfg.d_w}")
    shapes = param_shapes(cfg, num_tags, source, char_vocab_size, len(word_init))
    store = ParamStore()

    def add(name, arr):
        # np.array copies, so the store never aliases caller-owned buffers
        store.add(name, np.array(arr, dtype=cfg.dtype), table=name in TABLES)

    if source == "table":
        b = uniform_bound(cfg.d_c)
        add("char_emb", rng.uniform(-b, b, shapes["char_emb"]))
    for direction in ("fwd", "bwd"):
        for name, arr in encoder.init_gru_gates(cfg.d_c, cfg.d_h, rng).items():
            add(f"gru_{direction}.{name}", arr)
    add("fusion.W_u", fan_in_uniform(shapes["fusion.W_u"], rng))
    add("fusion.b_u", np.zeros(shapes["fusion.b_u"]))
    add("word_emb", word_init)
    add("crf.W_o", fan_in_uniform(shapes["crf.W_o"], rng))
    add("crf.b_o", np.zeros(shapes["crf.b_o"]))
    add("crf.T", crf.init_transitions(num_tags))
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


def _char_rows(store: ParamStore, inputs: SentenceInputs, cfg: TrainConfig) -> np.ndarray:
    if char_source(store) == "file":
        if inputs.char_vectors is None:
            raise DataError(f"sentence {inputs.sid!r}: no precomputed character vectors")
        X = np.asarray(inputs.char_vectors, dtype=cfg.dtype)
        if X.shape != (len(inputs), cfg.d_c):
            raise DataError(
                f"sentence {inputs.sid!r}: character vectors {X.shape} != ({len(inputs)}, {cfg.d_c})"
            )
        return X
    return store.value("char_emb")[inputs.char_ids]


def _forward(store: ParamStore, items: list[SentenceInputs], cfg: TrainConfig,
             train: bool, rngs):
    """The whole graph, once over the batch; rngs holds each sentence's dropout
    generator (None in eval mode). Returns the batch's CRF lattice, the flat
    fusion weights of its word sets, and what `batch_loss` needs."""
    lay = encoder.Layout.of([len(item) for item in items])
    X = np.concatenate([_char_rows(store, item, cfg) for item in items])
    H, enc_cache = encoder.encode_chars(X, store.values_with_prefix("gru_fwd."),
                                        store.values_with_prefix("gru_bwd."), lay)
    H, mask_h = dropout(H, cfg.dropout, train, rngs, lay.lengths)
    g = encoder.global_feature(H, cfg.d_h, cfg.g_mode, lay.lengths)
    words = fusion.WordSets.concat([item.words for item in items])
    word_emb, W_u, b_u = (store.value(n) for n in ("word_emb", "fusion.W_u", "fusion.b_u"))
    Hsw, alphas, fuse_cache = fusion.fuse_sentence(words, word_emb, g, W_u, b_u,
                                                   cfg.fusion_strategy, lay.lengths)
    Hsw, mask_sw = dropout(Hsw, cfg.dropout, train, rngs, lay.lengths)
    R = np.hstack([Hsw, H])
    O = crf.emissions(R, store.value("crf.W_o"), store.value("crf.b_o"))
    lattice = crf.TagLattice(O, store.value("crf.T"), lay)
    return lattice, alphas, (enc_cache, mask_h, words, fuse_cache, mask_sw, R)


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


def batch_loss(store: ParamStore, items: list[SentenceInputs], cfg: TrainConfig,
               train: bool = True, rngs=None) -> list[float]:
    """NLL of each sentence's gold tags; adds their gradients into the store.

    The whole graph runs once, forward and backward, over the batch; rngs
    holds one dropout generator per sentence (needed in train mode). This
    module owns both embedding tables' rows: fusion hands back each matched
    word's gradient and the encoder each character's, and `_add_rows` adds
    them at their rows, once per table. `adam_step` checks the gradients.
    """
    _require_gold(items)
    lattice, _, (enc_cache, mask_h, words, fuse_cache, mask_sw, R) = _forward(
        store, items, cfg, train, rngs)
    grad = {name: p.grad for name, p in store.items()}
    losses, dO, dT = crf.nll(lattice, np.concatenate([item.gold for item in items]))
    grad["crf.T"] += dT
    dR, dW_o, db_o = crf.emissions_backward(dO, R, store.value("crf.W_o"))
    grad["crf.W_o"] += dW_o
    grad["crf.b_o"] += db_o
    dX_words, dg = fusion.fuse_sentence_backward(
        dropout_backward(dR[:, :cfg.d_w], mask_sw), fuse_cache, store.value("fusion.W_u"),
        grad["fusion.W_u"], grad["fusion.b_u"])
    _add_rows(store, "word_emb", words.ids, dX_words)
    dH = dR[:, cfg.d_w:]
    encoder.global_feature_backward(dg, dH, cfg.d_h, cfg.g_mode, lattice.layout.lengths)
    dX = encoder.encode_backward(
        dropout_backward(dH, mask_h), enc_cache,
        store.values_with_prefix("gru_fwd."), store.values_with_prefix("gru_bwd."),
        {name: grad[f"gru_fwd.{name}"] for name in encoder.GATE_NAMES},
        {name: grad[f"gru_bwd.{name}"] for name in encoder.GATE_NAMES})
    if char_source(store) == "table":
        _add_rows(store, "char_emb", np.concatenate([item.char_ids for item in items]), dX)
    return losses.tolist()


def sentence_loss(store: ParamStore, inputs: SentenceInputs, cfg: TrainConfig,
                  train: bool = True, rng: np.random.Generator | None = None) -> float:
    """`batch_loss` of a batch of one: the NLL, its gradient added into the store."""
    return batch_loss(store, [inputs], cfg, train, [rng])[0]


def sentence_nll(store: ParamStore, inputs: SentenceInputs, cfg: TrainConfig) -> float:
    """NLL of the gold tags in eval mode, with no backward pass.

    Equals the loss of `sentence_loss(..., train=False)` bit for bit; gradient
    checks use it to evaluate the loss at perturbed parameters.
    """
    _require_gold([inputs])
    lattice, _, _ = _forward(store, [inputs], cfg, train=False, rngs=None)
    return float(crf.nll_loss(lattice, inputs.gold)[0])


def tag_sentences(store: ParamStore, items: list[SentenceInputs], cfg: TrainConfig,
                  legal: np.ndarray | None = None) -> list:
    """(Viterbi tag indices, flat fusion weights) of every item, in input order.

    Eval mode. The items run longest first in chunks of TAG_CHUNK, one pass
    through the graph and one Viterbi call per chunk; scores can differ from a
    batch of one's in the last bits (recurrent GEMMs over several rows). An
    item's alphas[words.offsets[i]:words.offsets[i + 1]] weigh position i's words.
    """
    order = sorted(range(len(items)), key=lambda i: -len(items[i]))
    ranked = [items[i] for i in order]
    paths, alphas = [], [np.empty(0, dtype=cfg.dtype)]   # an empty list of items concatenates
    for at in range(0, len(ranked), TAG_CHUNK):
        lattice, chunk_alphas, _ = _forward(store, ranked[at:at + TAG_CHUNK], cfg,
                                            train=False, rngs=None)
        paths += crf.viterbi(lattice, legal)[0]
        alphas.append(chunk_alphas)
    alphas = np.concatenate(alphas)
    ends = np.cumsum([0, *map(len, ranked)])
    word_ends = np.cumsum([0, *(len(item.words.ids) for item in ranked)])
    tagged = [(paths[a:b], alphas[c:d])
              for a, b, c, d in zip(ends, ends[1:], word_ends, word_ends[1:])]
    return [tagged[r] for r in np.argsort(order)]   # back in input order


def decode_sentence(store: ParamStore, inputs: SentenceInputs, cfg: TrainConfig,
                    legal: np.ndarray | None = None) -> list[int]:
    """Viterbi tag indices for one sentence (eval mode, no dropout)."""
    return tag_sentences(store, [inputs], cfg, legal)[0][0]

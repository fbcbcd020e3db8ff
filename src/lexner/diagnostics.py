"""End-to-end gradient fidelity check of the batched graph on a seeded miniature model."""
from __future__ import annotations

import numpy as np

from .corpus import Sentence, TagScheme, build_char_vocab
from .lexicon import build_lexicon
from .model import init_params, prepare_sentence, sentence_loss, sentence_nll
from .numerics import grad_check
from .trainer import TrainConfig

_ALPHABET = "甲乙丙丁戊"


def tiny_problem(seed: int, n_sentences: int = 2, max_n: int = 5,
                 d_c: int = 4, d_h: int = 4, d_w: int = 3,
                 fusion_strategy: str = "global_attention",
                 g_mode: str = "last", precision: str = "float64"):
    """A miniature model plus sentences whose lexicon matches are non-empty.

    Dictionary words are substrings of the sentences themselves, so every
    part of the graph (both GRU directions, the word projection, the word
    table, the CRF) participates in the loss.
    """
    rng = np.random.default_rng(seed)
    scheme = TagScheme("BIO", ("X",))
    sentences = []
    words = set()
    for k in range(n_sentences):
        n = int(rng.integers(3, max_n + 1))
        chars = tuple(rng.choice(list(_ALPHABET), size=n))
        tags = tuple(int(t) for t in rng.integers(0, scheme.size, size=n))
        sentences.append(Sentence(chars, tags, f"g{k}"))
        text = "".join(chars)
        for L in (2, 3):
            for i in range(len(text) - L + 1):
                words.add(text[i:i + L])
    words = sorted(words)
    keep = max(3, len(words) // 2)
    words = [words[i] for i in rng.choice(len(words), size=keep, replace=False)]

    lexicon = build_lexicon(words, None, dim=d_w, rng=rng)
    char_vocab = build_char_vocab(sentences)
    cfg = TrainConfig(d_c=d_c, bigru_total=2 * d_h, d_w=d_w, dropout=0.0,
                      fusion_strategy=fusion_strategy, g_mode=g_mode, precision=precision)
    store = init_params(cfg, scheme.size, "table", len(char_vocab), lexicon.embeddings, rng)
    inputs = [prepare_sentence(s, lexicon, char_vocab, "both") for s in sentences]
    return store, inputs, cfg


def end_to_end_grad_check(seed: int, eps: float = 1e-5,
                          denom_floor: float = 1e-5, **kwargs) -> float:
    """Max relative error of the full-model NLL gradients vs central differences.

    The analytic gradients come from one `sentence_loss` pass (the whole
    graph on a batch of one) per sentence, each adding into the store's
    gradients; the central-difference probes evaluate the same loss with
    `sentence_nll`, which skips the backward pass.

    For float32 models use a coarser step and floor (eps ~ 1e-2,
    denom_floor ~ 1e-3): finite differences through a float32 forward
    carry ~1e-6 absolute noise.
    """
    store, inputs, cfg = tiny_problem(seed, **kwargs)

    def f():
        return sum(sentence_loss(store, item, cfg, train=False) for item in inputs)

    def loss_only():
        return sum(sentence_nll(store, item, cfg) for item in inputs)

    return grad_check(f, store, eps=eps, denom_floor=denom_floor, loss_only=loss_only)

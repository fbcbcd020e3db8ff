"""Train on the synthetic corpus and decode a conflict sentence.

Fifty generated sentences whose entities coincide with dictionary words,
including the planted bridge-style boundary conflicts. A tiny model
memorizes them in a few dozen epochs; the decode below shows the learned
tags over one of the conflict sentences.
"""
import numpy as np

from lexner import TrainConfig, build_lexicon, make_synthetic_corpus, train
from lexner.evaluation import extract_entities
from lexner.model import prepare_sentences, tag_sentences


def main():
    dataset, words, scheme = make_synthetic_corpus(50, seed=7)
    lexicon = build_lexicon(words, None, dim=8, rng=np.random.default_rng(0))
    print(f"{len(dataset)} sentences, {len(lexicon)} dictionary words\n")

    config = TrainConfig(lr=1e-2, batch_size=32, dropout=0.1, d_c=16, d_w=8,
                         bigru_total=16, epochs=40, patience=10, seed=11,
                         knowledge_mode="slk")
    result = train(dataset, dataset, lexicon, config)
    for rec in result.history[::5]:
        print(f"epoch {rec['epoch']:>3}  nll {rec['train_nll']:>7.3f}  "
              f"F1 {rec['dev_f1']:.3f}")
    print(f"\nbest F1 {result.best.best_dev_f1:.3f} at epoch {result.best.epoch}\n")

    ckpt = result.best
    sent = dataset.sentences[0]   # the bridge-style conflict sentence
    items = prepare_sentences([sent], lexicon, ckpt.char_vocab, config.knowledge_mode)
    (tags, _), = tag_sentences(ckpt.store, items, ckpt.config)
    print("decoded:", "".join(sent.chars))
    print("        ", " ".join(scheme.tag_of(t) for t in tags))
    spans, _ = extract_entities(tags, scheme)
    for span in sorted(spans):
        print(f"  {span.type}: {''.join(sent.chars[span.start - 1:span.end])}")


if __name__ == "__main__":
    main()

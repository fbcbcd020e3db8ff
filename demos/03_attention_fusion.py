"""How the fusion strategies weigh one character's matched words.

A character with three candidate words gets one summary vector per
strategy. The attention strategies produce soft weights; the word-pick
strategies are one-hot; the average ignores the context entirely.
"""
import numpy as np

from lexner.fusion import STRATEGIES, WordSets, fuse_sentence

WORDS = ["大桥", "长江", "长江大桥"]
LENGTHS = [2, 2, 4]


def main():
    rng = np.random.default_rng(12)
    d_w, d_g = 6, 8
    word_emb = rng.normal(size=(len(WORDS), d_w))
    W_u = rng.normal(size=(d_g, d_w)) * 0.6
    b_u = rng.normal(size=d_g) * 0.1
    g = rng.normal(size=d_g)

    print(f"candidate words: {WORDS}\n")
    print(f"{'strategy':<18}" + "".join(f"{w:>12}" for w in WORDS))
    print("-" * (18 + 12 * len(WORDS)))
    # one character whose word set holds all three words
    words = WordSets.from_sets([range(len(WORDS))], [LENGTHS])
    for strategy in STRATEGIES:
        _, alphas, _ = fuse_sentence(words, word_emb, g, W_u, b_u, strategy)
        row = "".join(f"{a:>12.4f}" for a in alphas)
        print(f"{strategy:<18}{row}")

    h, _, _ = fuse_sentence(WordSets.from_sets([[]], [[]]), word_emb, g, W_u, b_u,
                            "global_attention")
    print(f"\nempty word set -> zero vector of size {h.shape[1]}: {np.all(h == 0)}")


if __name__ == "__main__":
    main()

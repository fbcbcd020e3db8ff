from unittest import mock

import numpy as np
import pytest

from lexner import TagScheme, build_lexicon, encoder

BRIDGE_WORDS = ["南京", "南京市", "市长", "长江", "大桥", "长江大桥"]
BRIDGE_SENTENCE = tuple("南京市长江大桥")


@pytest.fixture
def bridge_lexicon():
    return build_lexicon(BRIDGE_WORDS, None, dim=4, rng=np.random.default_rng(0))


@pytest.fixture
def bioes_scheme():
    return TagScheme("BIOES", ("LOC", "PER"))


def naive_match_oracle(words, chars, min_len=2, max_len=10):
    """Brute-force per-position match sets: test every substring."""
    wordset = {w for w in words if min_len <= len(w) <= max_len}
    n = len(chars)
    fwd = [set() for _ in range(n)]
    bwd = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, min(n, i + max_len) + 1):
            cand = "".join(chars[i:j])
            if cand in wordset:
                fwd[i].add(cand)
                bwd[j - 1].add(cand)
    flk = [fwd[i] | bwd[i] for i in range(n)]
    slk = [
        (fwd[i - 1] if i > 0 else set()) | (bwd[i + 1] if i + 1 < n else set())
        for i in range(n)
    ]
    return fwd, bwd, flk, slk


def encoder_worker(on):
    """Run the encoder's backward direction on its worker thread (`on`) or on the caller's,
    whatever the model's size and the CPUs this process may use."""
    return mock.patch.multiple(encoder, OVERLAP_MIN_BYTES=0 if on else 2 ** 62, _cpus=lambda: 2)

"""Malformed input leaves `main` through an exit code, never an exception.

Each example mutates the bytes of one input file, or sets one configuration
key to an arbitrary value, runs commands that read it in-process, and checks
that `main` returns one of the documented exit codes (0 ok, 1 configuration,
2 data/IO, 3 numeric) instead of raising.
"""
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexner import make_synthetic_corpus, write_conll
from lexner.cli import default_config, main
from lexner.params import save_arrays

# the training sizes stay tiny whatever a mutated file says; the output goes aside,
# so every example reads the same checkpoint
TRAIN = ["train", "-c", "run.cfg", "-o", "d_c=8", "-o", "d_w=8", "-o", "bigru_total=16",
         "-o", "epochs=1", "-o", "checkpoint_path=out.ckpt"]

# each input kind: the file it starts from, and the commands that read it
# ("{}" stands for the mutated copy)
READERS = {
    "config": ("run.cfg", [TRAIN[:2] + ["{}"] + TRAIN[3:],
                           ["eval", "-c", "{}", "-o", "pred_path=train.conll"]]),
    "corpus": ("train.conll", [TRAIN + ["-o", "train_path={}"],
                               ["eval", "-c", "run.cfg", "-o", "pred_path={}"]]),
    "lexicon": ("words.txt", [TRAIN + ["-o", "lexicon_path={}"],
                              ["lexicon-inspect", "-c", "run.cfg", "-o", "lexicon_path={}",
                               "input.txt"]]),
    "embeddings": ("vectors.txt", [TRAIN + ["-o", "embeddings_path={}"]]),
    "checkpoint": ("model.ckpt", [["tag", "-c", "run.cfg", "-o", "checkpoint_path={}",
                                   "input.txt"],
                                  ["eval", "-c", "run.cfg", "-o", "checkpoint_path={}"]]),
    "char-vectors": ("chars.bin", [TRAIN + ["-o", "char_vectors_path={}"]]),
    "tag-input": ("input.txt", [["tag", "-c", "run.cfg", "{}"],
                                ["tag", "-c", "run.cfg", "--dump-attention", "{}"],
                                ["lexicon-inspect", "-c", "run.cfg", "{}"]]),
}

# the commands a configuration value is tried with
COMMANDS = [TRAIN, ["tag", "-c", "run.cfg", "input.txt"], ["eval", "-c", "run.cfg"],
            ["eval", "-c", "run.cfg", "-o", "pred_path=train.conll"],
            ["lexicon-inspect", "-c", "run.cfg", "input.txt"]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every kind of input file, and a checkpoint trained from them, in the working directory."""
    root = tmp_path_factory.mktemp("inputs")
    ds, words, scheme = make_synthetic_corpus(n_sentences=6, seed=3)
    write_conll(ds.sentences, scheme, root / "train.conll")
    write_conll(ds.sentences, scheme, root / "spare.conll")   # a path value; may be overwritten
    (root / "words.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
    rows = [w + "".join(f" {0.1 * k - 0.3:.1f}" for k in range(8)) for w in words[:4]]
    (root / "vectors.txt").write_text("4 8\n" + "\n".join(rows) + "\n", encoding="utf-8")
    save_arrays(root / "chars.bin", {s.id: np.full((len(s), 8), 0.5) for s in ds.sentences})
    (root / "input.txt").write_text("".join("".join(s.chars) + "\n" for s in ds.sentences[:3]),
                                    encoding="utf-8")
    (root / "run.cfg").write_text(
        "train_path=train.conll\ndev_path=train.conll\ntest_path=train.conll\n"
        "lexicon_path=words.txt\nembeddings_path=vectors.txt\ncheckpoint_path=model.ckpt\n"
        "lr=0.01\nseed=5\nbatch_size=4\n", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(TRAIN + ["-o", "checkpoint_path=model.ckpt"]) == 0
        yield root
    finally:
        os.chdir(cwd)


def run_main(argv) -> None:
    code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)


# bytes that delimit or end fields, start multi-byte characters or are not UTF-8
_BYTES = st.one_of(st.sampled_from(b"\x00\n\r\t -=.0159e#{}[]\",:\x80\xe4\xff"),
                   st.integers(0, 255))


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """`data` after one to four byte edits, biased toward the first 2 KB, which hold
    the metadata of a container."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.one_of(st.integers(0, min(len(data), 2048)), st.integers(0, len(data))))
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "truncate":
            del data[at:]
        elif op == "delete":
            del data[at:at + 1]
        elif op == "insert" or at == len(data):
            data[at:at] = bytes([draw(_BYTES)])
        else:
            data[at] = draw(_BYTES)
    return bytes(data)


@pytest.mark.parametrize("kind", list(READERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_mutated_input_file_exits_with_a_documented_code(inputs, kind, data):
    name, commands = READERS[kind]
    mutated = "mutated-" + name
    (inputs / mutated).write_bytes(data.draw(mutations((inputs / name).read_bytes())))
    for argv in commands:
        run_main([arg.replace("{}", mutated) for arg in argv])


def _harmless(text: str) -> bool:
    """False for a path outside the working directory, where `train` would write, and
    for an integer large enough to make a dimension or an epoch count costly (the
    dimensions too large for numpy to shape are tried below)."""
    if "/" in text:
        return False
    try:
        return int(text) <= 12
    except ValueError:
        return True


VALUES = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["", "none", "nan", "inf", "-inf", "1e-3", "0.5", "-0.5", "1e300", "true",
                     "BIO", "bioes", "slk", "average", "LOC,,PER", ".", "spare.conll"]),
    st.text(max_size=6).filter(_harmless),
)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(default_config())), value=VALUES,
       command=st.sampled_from(COMMANDS))
def test_any_configuration_value_exits_with_a_documented_code(inputs, key, value, command):
    run_main(command + ["-o", f"{key}={value}"])


@pytest.mark.parametrize("value", [10**18, 2**62, 2**64])
@pytest.mark.parametrize("key", ["d_c", "d_w", "bigru_total"])
def test_a_dimension_numpy_cannot_shape_exits_with_a_documented_code(inputs, key, value):
    # fails before any array is allocated, so it is cheap to try with every command; without
    # the embeddings, whose width differs, `d_w` reaches the lexicon's draw
    for command in COMMANDS:
        for extra in ([], ["-o", "embeddings_path="]):
            run_main(command + extra + ["-o", f"{key}={value}"])

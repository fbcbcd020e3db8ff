import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexner
from conftest import encoder_worker
from lexner import ParamStore, encoder
from lexner.encoder import (GATE_NAMES, Layout, encode_backward, encode_chars, gate_shapes,
                            global_feature, global_feature_backward)
from lexner.errors import ShapeError
from lexner.numerics import fan_in_uniform, grad_check


def make_gates(rng, d_in, d_h):
    """LeCun-uniform weights and zero biases, as `init_params` makes them."""
    return {name: np.zeros(shape) if len(shape) == 1 else fan_in_uniform(shape, rng)
            for name, shape in gate_shapes(d_in, d_h).items()}


def hand_gru_step(x, h, gates):
    """Plain-python re-statement of the update rule."""
    def sig(v):
        return [1.0 / (1.0 + math.exp(-t)) for t in v]

    def mv(M, v):
        return [sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M))]

    W_z, U_z, b_z = gates["W_z"].tolist(), gates["U_z"].tolist(), gates["b_z"].tolist()
    W_r, U_r, b_r = gates["W_r"].tolist(), gates["U_r"].tolist(), gates["b_r"].tolist()
    W_h, U_h, b_h = gates["W_h"].tolist(), gates["U_h"].tolist(), gates["b_h"].tolist()
    x, h = list(x), list(h)
    z = sig([a + b + c for a, b, c in zip(mv(W_z, x), mv(U_z, h), b_z)])
    r = sig([a + b + c for a, b, c in zip(mv(W_r, x), mv(U_r, h), b_r)])
    rh = [ri * hi for ri, hi in zip(r, h)]
    c = [math.tanh(a + b + d) for a, b, d in zip(mv(W_h, x), mv(U_h, rh), b_h)]
    return [(1 - zi) * hi + zi * ci for zi, hi, ci in zip(z, h, c)]


def hand_encode(X, fwd, bwd):
    """Both directions by chaining hand_gru_step from zero states."""
    d_h = fwd["b_z"].shape[0]
    hf, hb = [0.0] * d_h, [0.0] * d_h
    out_f, out_b = [], []
    for x in X:
        hf = hand_gru_step(x, hf, fwd)
        out_f.append(hf)
    for x in X[::-1]:
        hb = hand_gru_step(x, hb, bwd)
        out_b.append(hb)
    return np.hstack([np.array(out_f), np.array(out_b[::-1])])


class TestGruStep:
    """One recurrence step: encode_chars over 1-char sentences."""

    def test_matches_hand_computation(self):
        rng = np.random.default_rng(0)
        fwd, bwd = make_gates(rng, 3, 4), make_gates(rng, 3, 4)
        for gates in (fwd, bwd):
            for b in ("b_z", "b_r", "b_h"):
                gates[b][...] = rng.normal(size=4)
        # n > 1 chains steps, so the recurrent weights see non-zero states
        for n in (1, 4):
            X = rng.normal(size=(n, 3))
            H, _ = encode_chars(X, fwd, bwd)
            assert np.allclose(H, hand_encode(X, fwd, bwd), atol=1e-12)

    def test_closed_update_gate_keeps_state(self):
        rng = np.random.default_rng(1)
        fwd, bwd = make_gates(rng, 3, 4), make_gates(rng, 3, 4)
        for gates in (fwd, bwd):
            gates["b_z"][...] = -50.0   # z ~ 0 -> h ~ h_prev, the zero start state
        H, _ = encode_chars(rng.normal(size=(1, 3)), fwd, bwd)
        assert np.max(np.abs(H)) < 1e-12

    def test_zero_state_reduces(self):
        rng = np.random.default_rng(2)
        fwd, bwd = make_gates(rng, 3, 4), make_gates(rng, 3, 4)
        x = rng.normal(size=3)
        H, _ = encode_chars(x[None, :], fwd, bwd)
        for half, gates in ((H[0, :4], fwd), (H[0, 4:], bwd)):
            z = 1.0 / (1.0 + np.exp(-(gates["W_z"] @ x + gates["b_z"])))
            expected = z * np.tanh(gates["W_h"] @ x + gates["b_h"])
            assert np.allclose(half, expected, atol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        gates = make_gates(rng, 3, 4)
        for X in (np.zeros((1, 5)), np.zeros(3)):
            with pytest.raises(ShapeError):
                encode_chars(X, gates, gates)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        store.add("X", rng.normal(size=(1, 3)))
        for d in ("fwd", "bwd"):
            for name, arr in make_gates(rng, 3, 4).items():
                store.add(f"{d}.{name}", arr)
        up = rng.normal(size=(1, 8))

        def f():
            fwd = store.values_with_prefix("fwd.")
            bwd = store.values_with_prefix("bwd.")
            H, cache = encode_chars(store.value("X"), fwd, bwd)
            fg = {name: np.zeros_like(arr) for name, arr in fwd.items()}
            bg = {name: np.zeros_like(arr) for name, arr in bwd.items()}
            store["X"].grad += encode_backward(up, cache, fwd, bwd, fg, bg)
            for name in GATE_NAMES:
                store[f"fwd.{name}"].grad += fg[name]
                store[f"bwd.{name}"].grad += bg[name]
            return float(np.sum(H * up))

        assert grad_check(f, store) < 1e-4


class TestEncodeChars:
    def test_shapes_and_global_feature(self):
        rng = np.random.default_rng(5)
        fwd, bwd = make_gates(rng, 3, 4), make_gates(rng, 3, 4)
        for n in (1, 2, 7):
            X = rng.normal(size=(n, 3))
            H, _ = encode_chars(X, fwd, bwd)
            assert H.shape == (n, 8)
            assert np.array_equal(global_feature(H, 4, "last"), H[-1])
            alt = global_feature(H, 4, "fwd_last_bwd_first")
            assert np.array_equal(alt, np.concatenate([H[-1, :4], H[0, 4:]]))

    def test_single_char_is_one_step(self):
        rng = np.random.default_rng(6)
        fwd, bwd = make_gates(rng, 3, 4), make_gates(rng, 3, 4)
        X = rng.normal(size=(1, 3))
        H, _ = encode_chars(X, fwd, bwd)
        hf = hand_gru_step(X[0], [0.0] * 4, fwd)
        hb = hand_gru_step(X[0], [0.0] * 4, bwd)
        assert np.allclose(H[0], np.concatenate([hf, hb]), atol=1e-12)

    def test_zero_inputs_zero_weights(self):
        gates = {name: np.zeros_like(arr)
                 for name, arr in make_gates(np.random.default_rng(0), 3, 4).items()}
        H, _ = encode_chars(np.zeros((5, 3)), gates, dict(gates))
        assert np.all(H == 0.0)
        assert np.all(global_feature(H, 4) == 0.0)

    def test_states_bounded(self):
        rng = np.random.default_rng(7)
        fwd, bwd = make_gates(rng, 3, 4), make_gates(rng, 3, 4)
        # strictly inside (-1, 1) at moderate magnitudes
        H, _ = encode_chars(rng.uniform(-3, 3, size=(20, 3)), fwd, bwd)
        assert np.all(np.abs(H) < 1.0)
        # at extreme magnitudes tanh saturates to 1.0 exactly in float64,
        # but never beyond, and never goes non-finite
        H, _ = encode_chars(rng.uniform(-1000, 1000, size=(20, 3)), fwd, bwd)
        assert np.all(np.abs(H) <= 1.0) and np.all(np.isfinite(H))

    def test_reversal_symmetry(self):
        # reversing the sentence and swapping direction parameters reverses
        # H and swaps its halves
        rng = np.random.default_rng(8)
        fwd, bwd = make_gates(rng, 3, 4), make_gates(rng, 3, 4)
        X = rng.normal(size=(4, 3))
        H, _ = encode_chars(X, fwd, bwd)
        H2, _ = encode_chars(X[::-1], bwd, fwd)
        swapped = np.hstack([H2[:, 4:], H2[:, :4]])[::-1]
        assert np.allclose(H, swapped, atol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        fwd, bwd = make_gates(rng, 3, 4), make_gates(rng, 3, 4)
        X = rng.normal(size=(5, 3))
        H1, _ = encode_chars(X, fwd, bwd)
        H2, _ = encode_chars(X, fwd, bwd)
        assert H1.tobytes() == H2.tobytes()

    def test_backward_gradients(self):
        rng = np.random.default_rng(10)
        store = ParamStore()
        store.add("X", rng.normal(size=(4, 3)))
        for d in ("fwd", "bwd"):
            for name, arr in make_gates(rng, 3, 4).items():
                store.add(f"{d}.{name}", arr)
        up = rng.normal(size=(4, 8))
        upg = rng.normal(size=8)

        def f():
            fwd = store.values_with_prefix("fwd.")
            bwd = store.values_with_prefix("bwd.")
            H, cache = encode_chars(store.value("X"), fwd, bwd)
            g = global_feature(H, 4, "last")
            dH = up.copy()
            global_feature_backward(upg, dH, 4, "last")
            fg = {name: np.zeros_like(arr) for name, arr in fwd.items()}
            bg = {name: np.zeros_like(arr) for name, arr in bwd.items()}
            dX = encode_backward(dH, cache, fwd, bwd, fg, bg)
            store["X"].grad += dX
            for name in GATE_NAMES:
                store[f"fwd.{name}"].grad += fg[name]
                store[f"bwd.{name}"].grad += bg[name]
            return float(np.sum(H * up) + np.dot(g, upg))

        assert grad_check(f, store) < 1e-4

    def test_alternate_g_mode_gradients(self):
        rng = np.random.default_rng(11)
        store = ParamStore()
        store.add("X", rng.normal(size=(3, 2)))
        for name, arr in make_gates(rng, 2, 3).items():
            store.add(f"fwd.{name}", arr)
        for name, arr in make_gates(rng, 2, 3).items():
            store.add(f"bwd.{name}", arr)
        upg = rng.normal(size=6)

        def f():
            fwd = store.values_with_prefix("fwd.")
            bwd = store.values_with_prefix("bwd.")
            H, cache = encode_chars(store.value("X"), fwd, bwd)
            g = global_feature(H, 3, "fwd_last_bwd_first")
            dH = np.zeros_like(H)
            global_feature_backward(upg, dH, 3, "fwd_last_bwd_first")
            fg = {name: np.zeros_like(v) for name, v in fwd.items()}
            bg = {name: np.zeros_like(v) for name, v in bwd.items()}
            store["X"].grad += encode_backward(dH, cache, fwd, bwd, fg, bg)
            for name in GATE_NAMES:
                store[f"fwd.{name}"].grad += fg[name]
                store[f"bwd.{name}"].grad += bg[name]
            return float(np.dot(g, upg))

        assert grad_check(f, store) < 1e-4


def batch_grads(X, lengths, dH, fwd, bwd):
    """(H, dX, fwd grads, bwd grads) of one encoder call over a batch."""
    H, cache = encode_chars(X, fwd, bwd, lengths)
    fg = {name: np.zeros_like(arr) for name, arr in fwd.items()}
    bg = {name: np.zeros_like(arr) for name, arr in bwd.items()}
    dX = encode_backward(dH, cache, fwd, bwd, fg, bg)
    return H, dX, fg, bg


def random_gates(rng, d_in, d_h, dtype=np.float64):
    gates = make_gates(rng, d_in, d_h)
    for b in ("b_z", "b_r", "b_h"):
        gates[b][...] = rng.normal(size=d_h)
    return {name: arr.astype(dtype) for name, arr in gates.items()}


def assert_batch_is_per_sentence(rng, lengths, d_in=3, d_h=4):
    """One call over the batch against one call per sentence, both passes."""
    fwd, bwd = random_gates(rng, d_in, d_h), random_gates(rng, d_in, d_h)
    X = rng.normal(size=(sum(lengths), d_in))
    dH = rng.normal(size=(sum(lengths), 2 * d_h))
    H, dX, fg, bg = batch_grads(X, lengths, dH, fwd, bwd)
    assert H.shape == (len(X), 2 * d_h) and dX.shape == X.shape
    sums = ({name: np.zeros_like(a) for name, a in fwd.items()},
            {name: np.zeros_like(a) for name, a in bwd.items()})
    at = 0
    for n in lengths:
        rows = slice(at, at + n)
        H1, dX1, fg1, bg1 = batch_grads(X[rows], None, dH[rows], fwd, bwd)
        assert np.allclose(H[rows], H1, rtol=0, atol=1e-12)
        assert np.allclose(dX[rows], dX1, rtol=0, atol=1e-12)
        for total, part in zip(sums, (fg1, bg1)):
            for name in GATE_NAMES:
                total[name] += part[name]
        at += n
    for got, want in zip((fg, bg), sums):
        for name in GATE_NAMES:
            assert np.allclose(got[name], want[name], rtol=0, atol=1e-12), name
    return X, H, fwd, bwd


class TestBatch:
    """One call over several sentences of mixed lengths."""

    def test_matches_hand_chains(self):
        rng = np.random.default_rng(12)
        # unsorted, with ties and single characters
        lengths = [3, 1, 5, 3, 1, 6, 2]
        X, H, fwd, bwd = assert_batch_is_per_sentence(rng, lengths)
        at = 0
        for n in lengths:
            want = hand_encode(X[at:at + n], fwd, bwd)
            assert np.allclose(H[at:at + n], want, rtol=0, atol=1e-12)
            at += n

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
    def test_any_lengths_match_per_sentence_calls(self, lengths, seed):
        assert_batch_is_per_sentence(np.random.default_rng(seed), lengths)

    def test_single_sentence_is_a_batch_of_one(self):
        rng = np.random.default_rng(13)
        fwd, bwd = random_gates(rng, 3, 4), random_gates(rng, 3, 4)
        X, dH = rng.normal(size=(6, 3)), rng.normal(size=(6, 8))
        a = batch_grads(X, None, dH, fwd, bwd)
        b = batch_grads(X, [6], dH, fwd, bwd)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(14)
        fwd = random_gates(rng, 3, 4, np.float32)
        bwd = random_gates(rng, 3, 4, np.float32)
        X = rng.normal(size=(9, 3)).astype(np.float32)
        dH = rng.normal(size=(9, 8)).astype(np.float32)
        H, dX, fg, bg = batch_grads(X, [4, 2, 3], dH, fwd, bwd)
        assert H.dtype == dX.dtype == np.float32
        assert all(g.dtype == np.float32 for grads in (fg, bg) for g in grads.values())
        H64, *_ = batch_grads(X.astype(np.float64), [4, 2, 3], dH,
                              *({n: a.astype(np.float64) for n, a in g.items()}
                                for g in (fwd, bwd)))
        assert np.allclose(H, H64, rtol=0, atol=1e-5)

    def test_lengths_must_cover_the_rows(self):
        rng = np.random.default_rng(15)
        fwd, bwd = random_gates(rng, 3, 4), random_gates(rng, 3, 4)
        with pytest.raises(ShapeError):
            encode_chars(rng.normal(size=(5, 3)), fwd, bwd, [2, 2])


class TestLayout:
    """The packed layout that the encoder and the CRF both run over."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    def test_steps_rows_and_predecessors(self, lengths):
        lay, n = Layout.of(lengths), sum(lengths)
        ran = [j for k, o, _ in lay.steps for j in range(o, o + k)]
        assert sorted(ran) == list(range(n))   # every packed row runs exactly once
        for t, (k, o, p) in enumerate(lay.steps):
            assert p == -lay.k0 if t == 0 else p >= 0
            assert lay.pred[o:o + k].tolist() == list(range(p, p + k))
        starts = np.cumsum([0, *lengths])
        for d in (0, 1):
            assert np.array_equal(lay.rows[d][lay.pos[d]], np.arange(n))
            assert np.array_equal(lay.pos[d][lay.rows[d]], np.arange(n))
            for a, b in zip(starts, starts[1:]):
                # the sentence's packed rows in direction d's order of positions
                packed = lay.pos[d][np.arange(a, b)[::1 if d == 0 else -1]]
                assert np.array_equal(lay.pred[packed[1:]], packed[:-1])
                assert np.all(lay.pred[packed[:1]] < 0) and np.all(lay.pred[packed[1:]] >= 0)


def encoded_bits(on, X, fwd, bwd, lengths):
    """H and the cache's arrays of both directions, with the worker thread on or off."""
    with encoder_worker(on):
        H, (_, _, cf, cb) = encode_chars(X, fwd, bwd, lengths)
    return [a.tobytes() for a in (H, *cf, *cb)]


def recording_threads(monkeypatch, fail=None):
    """Record the thread each direction's recurrence runs on, keyed by id(gates);
    a direction whose gates are `fail` raises instead."""
    threads, run = {}, encoder._run_direction

    def recorded(X, lay, rows, gates):
        threads[id(gates)] = threading.get_ident()
        if gates is fail:
            raise FloatingPointError("backward direction failed")
        return run(X, lay, rows, gates)

    monkeypatch.setattr(encoder, "_run_direction", recorded)
    return threads


class TestTwoThreads:
    """The backward direction may run on one worker thread; the bits are the same."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=9), st.sampled_from([4, 33]),
           st.integers(0, 2 ** 32 - 1))
    def test_both_paths_give_the_same_bits(self, lengths, d_h, seed):
        rng = np.random.default_rng(seed)
        fwd, bwd = random_gates(rng, 5, d_h), random_gates(rng, 5, d_h)
        X = rng.normal(size=(sum(lengths), 5))
        assert encoded_bits(True, X, fwd, bwd, lengths) == encoded_bits(False, X, fwd, bwd, lengths)

    @pytest.mark.parametrize("d_h, cpus, worker", [(256, 2, True), (128, 2, True), (64, 2, False),
                                                   (256, 1, False)])
    def test_worker_runs_the_backward_direction_of_large_models_on_two_cpus(
            self, monkeypatch, d_h, cpus, worker):
        threads = recording_threads(monkeypatch)
        monkeypatch.setattr(encoder, "_cpus", lambda: cpus)
        rng = np.random.default_rng(16)
        fwd, bwd = make_gates(rng, 3, d_h), make_gates(rng, 3, d_h)
        encode_chars(rng.normal(size=(5, 3)), fwd, bwd, [3, 2])
        assert threads[id(fwd)] == threading.get_ident()
        assert (threads[id(bwd)] != threading.get_ident()) == worker

    def test_an_error_in_the_backward_direction_reaches_the_caller(self, monkeypatch):
        rng = np.random.default_rng(17)
        fwd, bwd = random_gates(rng, 3, 4), random_gates(rng, 3, 4)
        X = rng.normal(size=(6, 3))
        threads = recording_threads(monkeypatch, fail=bwd)
        with encoder_worker(True), pytest.raises(FloatingPointError, match="backward"):
            encode_chars(X, fwd, bwd, [4, 2])
        assert threads[id(bwd)] != threading.get_ident()
        monkeypatch.undo()   # the worker still serves the next call
        assert encoded_bits(True, X, fwd, bwd, [4, 2]) == encoded_bits(False, X, fwd, bwd, [4, 2])

    def test_a_forked_child_encodes(self):
        # The parent's worker thread does not exist in a forked child; a child that queued
        # work for it would wait forever, so the parent gives it a minute, then kills it.
        script = (
            "import os, signal, sys, time\n"
            "import numpy as np\n"
            "from lexner import encoder\n"
            "encoder._cpus = lambda: 2   # the worker even where this process may use one CPU\n"
            "rng = np.random.default_rng(0)\n"
            "fwd, bwd = ({name: rng.uniform(-0.1, 0.1, shape)\n"
            "             for name, shape in encoder.gate_shapes(8, 256).items()} for _ in range(2))\n"
            "X = rng.normal(size=(30, 8))\n"
            "H, _ = encoder.encode_chars(X, fwd, bwd)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if encoder.encode_chars(X, fwd, bwd)[0].tobytes() == H.tobytes() else 1)\n"
            "deadline = time.monotonic() + 60\n"
            "while time.monotonic() < deadline:\n"
            "    done, status = os.waitpid(pid, os.WNOHANG)\n"
            "    if done:\n"
            "        sys.exit(os.waitstatus_to_exitcode(status))\n"
            "    time.sleep(0.02)\n"
            "os.kill(pid, signal.SIGKILL)\n"
            "os.waitpid(pid, 0)\n"
            "sys.exit('the forked child did not finish encoding')\n"
        )
        src = str(Path(lexner.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}   # no BLAS thread at fork
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=env)
        assert done.returncode == 0, done.stderr


def written_out_direction(X, lay, rows, gates):
    """One direction's forward recurrence written out: the input terms in the rows of X,
    then permuted into packed order, and every step on 2-D slices of k rows."""
    d_h = gates["b_z"].shape[0]
    A = np.empty((len(X), 3 * d_h), dtype=X.dtype)
    for i, (g, scale) in enumerate((("z", 0.5), ("r", 0.5), ("h", 1.0))):
        part = A[:, i * d_h:(i + 1) * d_h]
        np.matmul(X, (scale * gates[f"W_{g}"]).T, out=part)
        np.add(part, scale * gates[f"b_{g}"], out=part)
    A = A[rows]
    U_zr = 0.5 * np.vstack([gates["U_z"], gates["U_r"]])
    U_zT, U_rT, U_hT = (np.ascontiguousarray(U.T) for U in (U_zr[:d_h], U_zr[d_h:], gates["U_h"]))
    k0 = lay.k0
    S = np.zeros((k0 + len(A), d_h), dtype=X.dtype)
    RH = np.empty((len(A), d_h), dtype=X.dtype)
    P = np.empty((k0, 2 * d_h), dtype=X.dtype)
    for k, o, p in lay.steps:
        h, rh, h_new = S[k0 + p:k0 + p + k], RH[o:o + k], S[k0 + o:k0 + o + k]
        zr, c = A[o:o + k, :2 * d_h], A[o:o + k, 2 * d_h:]
        z, r = zr[:, :d_h], zr[:, d_h:]
        q, q_h = P[:k], P[:k, :d_h]
        if k == 1:   # one matrix-vector product for z and r
            np.matmul(h, U_zr.T, out=q)
        else:
            np.matmul(h, U_zT, out=q_h)
            np.matmul(h, U_rT, out=q[:, d_h:])
        np.add(zr, q, out=zr)
        np.tanh(zr, out=zr)
        np.add(zr, 1.0, out=zr)
        np.multiply(zr, 0.5, out=zr)
        np.multiply(r, h, out=rh)
        np.matmul(rh, gates["U_h"].T if k == 1 else U_hT, out=q_h)
        np.add(c, q_h, out=c)
        np.tanh(c, out=c)
        np.subtract(1.0, z, out=h_new)
        np.multiply(h_new, h, out=h_new)
        np.multiply(z, c, out=q_h)
        np.add(h_new, q_h, out=h_new)
    return S, A, RH


class TestForwardLoop:
    """The forward loop: 2-D steps, then a one-row tail of its own on rows iterated in C."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=6), st.sampled_from([4, 33]),
           st.sampled_from([np.float64, np.float32]), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example([25], 33, np.float64, True, 0)           # one sentence: every step has one row
    @example([6, 9, 2, 9], 4, np.float32, False, 1)   # tied longest: no one-row tail
    @example([30, 3, 1], 33, np.float32, True, 2)     # a long one-row tail after a batch
    @example([40], 256, np.float64, True, 3)          # the gemv sizes that tagging runs
    @example([40], 256, np.float32, True, 4)
    def test_gives_the_bits_of_the_written_out_loop(self, lengths, d_h, dtype, worker, seed):
        rng = np.random.default_rng(seed)
        fwd, bwd = random_gates(rng, 5, d_h, dtype), random_gates(rng, 5, d_h, dtype)
        X = rng.normal(size=(sum(lengths), 5)).astype(dtype)
        with encoder_worker(worker):
            H, (_, lay, cf, cb) = encode_chars(X, fwd, bwd, lengths)
        want = [written_out_direction(X, lay, lay.rows[d], gates) for d, gates in ((0, fwd), (1, bwd))]
        want_H = np.hstack([want[d][0][lay.k0 + lay.pos[d]] for d in (0, 1)])
        assert H.dtype == dtype
        assert [a.tobytes() for a in (H, *cf, *cb)] == \
            [a.tobytes() for a in (want_H, *want[0][:2], *want[1][:2])]   # S and A; r * h is scratch

    def test_keeps_no_copy_of_the_input_terms(self):
        # numpy traces its data buffers, so the peak counts every array the call makes
        rng = np.random.default_rng(19)
        n, d_in, d_h = 512, 4, 32
        gates, X = random_gates(rng, d_in, d_h), rng.normal(size=(n, d_in))
        lay = Layout.of([n])
        tracemalloc.start()
        try:
            S, A = encoder._run_direction(X, lay, lay.rows[0], gates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond what it returns, the call holds X in packed order (N x d_in, d_in < d_h),
        # the scaled weights, one step's scratch rows and ufunc buffers. No N x d_h array
        # fits besides S and A: not r * h of every step, nor a copy of the input terms.
        assert peak - (S.nbytes + A.nbytes) < n * d_h * X.itemsize


def written_out_direction_backward(dH, X, lay, rows, cache, gates, grads):
    """One direction's backward recurrence written out: every step on 2-D slices of k rows,
    with np.matmul, the one-row steps' z and r products stacked. Returns dX in packed rows."""
    S, A, RH = cache
    d_h = S.shape[1]
    Z, R, C = A[:, :d_h], A[:, d_h:2 * d_h], A[:, 2 * d_h:]
    H_prev = S[lay.k0 + lay.pred]
    K_z, K_r = (C - H_prev) * Z * (1.0 - Z), H_prev * R * (1.0 - R)
    K_c, keep = Z * (1.0 - C * C), 1.0 - Z
    U_zr = np.vstack([gates["U_z"], gates["U_r"]])
    G = np.empty_like(A)
    carry = np.zeros((lay.k0, d_h), dtype=A.dtype)
    drh, tmp = np.empty_like(carry), np.empty_like(carry)
    for k, o, _ in reversed(lay.steps):
        dh = dH[o:o + k]
        np.add(dh, carry[:k], out=dh)
        g_zr, g_c = G[o:o + k, :2 * d_h], G[o:o + k, 2 * d_h:]
        g_z, g_r = g_zr[:, :d_h], g_zr[:, d_h:]
        d_rh, t, cy = drh[:k], tmp[:k], carry[:k]
        np.multiply(dh, K_c[o:o + k], out=g_c)
        np.matmul(g_c, gates["U_h"], out=d_rh)
        np.multiply(dh, K_z[o:o + k], out=g_z)
        np.multiply(d_rh, K_r[o:o + k], out=g_r)
        np.multiply(dh, keep[o:o + k], out=cy)
        np.multiply(d_rh, R[o:o + k], out=t)
        np.add(cy, t, out=cy)
        if k == 1:
            np.matmul(g_zr, U_zr, out=t)
        else:
            np.matmul(g_z, gates["U_z"], out=t)
            np.add(cy, t, out=cy)
            np.matmul(g_r, gates["U_r"], out=t)
        np.add(cy, t, out=cy)
    dW, dU_zr, db = G.T @ X[rows], G[:, :2 * d_h].T @ H_prev, G.sum(axis=0)
    for i, g in enumerate("zrh"):
        part = slice(i * d_h, (i + 1) * d_h)
        grads[f"W_{g}"] += dW[part]
        grads[f"b_{g}"] += db[part]
        if g != "h":
            grads[f"U_{g}"] += dU_zr[part]
    grads["U_h"] += G[:, 2 * d_h:].T @ RH
    return G @ np.vstack([gates["W_z"], gates["W_r"], gates["W_h"]])


class TestBackwardLoop:
    """The backward loop gives the bits of the written-out one; C3 checks only a tolerance."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=6), st.sampled_from([4, 33]),
           st.sampled_from([np.float64, np.float32]), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example([25], 33, np.float64, True, 0)           # one sentence: every step has one row
    @example([6, 9, 2, 9], 4, np.float32, False, 1)   # tied longest: no one-row tail
    @example([30, 3, 1], 33, np.float32, True, 2)     # a long one-row tail after a batch
    @example([40], 256, np.float64, False, 3)         # the gemv sizes of the reference model
    def test_gives_the_bits_of_the_written_out_loop(self, lengths, d_h, dtype, worker, seed):
        rng = np.random.default_rng(seed)
        fwd, bwd = random_gates(rng, 5, d_h, dtype), random_gates(rng, 5, d_h, dtype)
        X = rng.normal(size=(sum(lengths), 5)).astype(dtype)
        with encoder_worker(worker):
            H, cache = encode_chars(X, fwd, bwd, lengths)
        lay = cache[1]
        dH = rng.normal(size=H.shape).astype(dtype)
        grads = [{name: np.zeros_like(a) for name, a in gates.items()} for gates in (fwd, bwd)]
        dX = encode_backward(dH, cache, fwd, bwd, *grads)
        want = [{name: np.zeros_like(a) for name, a in gates.items()} for gates in (fwd, bwd)]
        # the written-out forward's own (S, A, r * h): dU_h checks the r * h that the
        # backward pass re-forms against the one the forward recurrence made
        parts = [written_out_direction_backward(dH[lay.rows[d], half], X, lay, lay.rows[d],
                                                written_out_direction(X, lay, lay.rows[d], gates),
                                                gates, want[d])[lay.pos[d]]
                 for d, half, gates in ((0, np.s_[:d_h], fwd), (1, np.s_[d_h:], bwd))]
        want_dX = parts[0]
        want_dX += parts[1]
        assert dX.dtype == dtype
        assert dX.tobytes() == want_dX.tobytes()
        for got, exp in zip(grads, want):   # all nine gate gradients of each direction
            assert {n: a.tobytes() for n, a in got.items()} == \
                {n: a.tobytes() for n, a in exp.items()}

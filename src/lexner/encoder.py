"""Bidirectional GRU over per-character vectors, one call per batch of sentences.

One step (the update gate drives the candidate):

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * c

A call takes the character rows of one or more sentences, one sentence
after another, with their lengths; one sentence is a batch of one. The
sentences are ranked by length, longest first, and step t runs position t
(counted from the end for the backward direction) of the k_t sentences
that are still that long. They are the first k_t ranks, so every step
works on a prefix of rows and needs no mask. The rows of all steps are
packed one step after another (`Layout`), as `pack_padded_sequence` does.

The input terms X W_g^T + b_g do not depend on the recurrence: X's rows are
gathered into packed order, and one GEMM per gate computes the terms there
before the loop. A step then does only the recurrent products, over its k_t
rows at once, and the gate arithmetic in place, on 2-D slices while k_t > 1.
The one-row steps that end every layout (all of one sentence's) run in a loop
of their own on 1-D rows that iterating the arrays yields in C, with np.dot
for their products (see the worker thread below). The logistic function is
computed by the identity sigmoid(a) = 0.5 * (1 + tanh(a / 2)), which cannot
overflow; the halving is folded into the z and r weights and biases, which
is exact, so z and r share one tanh. With one row, z and r also share one
matrix-vector product with the stacked [U_z; U_r]; with more rows two
separate GEMMs are faster. States are rows of one array that starts with k_0
zero rows, the initial states; the forward pass keeps it and the gates for
the backward pass, which re-forms r * h: a step keeps it only as scratch.

The gates lie in one buffer of 3 N d_h values as two blocks: z | r (N, 2 d_h),
then c (N, d_h). A step of k > 1 rows then runs its in-place ufuncs on a
contiguous (k, 2 d_h) and a contiguous (k, d_h) slice; on a column block of
one (N, 3 d_h) array, numpy sends them through its buffered iterator, which
cost 1.5-1.7x the contiguous call at d_h 256. A one-row step still reads a
contiguous z | r row and c row. Gate-major (3, N, d_h) blocks were slower
for the one-row steps, whose z | r became a (2, d_h) view across two planes:
in a prototype, one-sentence tagging ran 8-25% slower.

The backward loop carries d loss / d h for the running rows from step to
step and stores the gradients of the three gate pre-activations. After the
loop, every weight and bias gradient, and dX, is a few GEMMs over them.
Every buffer takes the dtype of the input X.

Both directions start from zero states; position i's hidden state is the
concatenation [fwd_i ; bwd_i]. The global sentence feature g defaults to
the last position's full state (g_mode="last"); g_mode="fwd_last_bwd_first"
takes the forward state at the last position and the backward state at the
first instead. Over a batch, g has one row per sentence.

The directions share no state until H is assembled. On two CPUs, with
recurrent weights large enough to pay for the hand-off, the backward one
runs on a worker thread while the caller runs the forward one; numpy
releases the GIL in BLAS calls and large loops, so they overlap, and each
runs the same operations either way, so the bits are the same. Between
those calls the two loops take turns on the GIL, so the one-row loop holds
it as briefly as it can. np.matmul and np.dot reach the same gemv and both
release the GIL around it, but matmul's gufunc dispatch (override and dtype
resolution, an iterator, its overlap check) holds it 0.7 us longer per call
(1.25 against 0.53 us on a 2 x 4 product). Best guess, not proven: the
other thread waits that out at each hand-off, so with the worker the gap
cost about 2 ms per 120-character sentence at d_h 256. With one BLAS thread,
120 one-sentence calls of 40-200 characters at d_h 256 ran 1.17-1.38x faster
with the worker than without, for 15-47% more CPU time and 24k-27k voluntary
context switches per pass (OVERLAP_MIN_BYTES has the batch figures).
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

GATE_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")
G_MODES = ("last", "fwd_last_bwd_first")
# Bytes of one direction's U_z, U_r and U_h from which the directions run on two threads.
# On 2 CPUs, one BLAS thread, float64, sequential over overlapped time (median of 21, range
# over three runs): one 60-character sentence 0.58-0.62x at d_h 64, 0.89-0.99x at 128 and
# 1.27-1.44x at 256 (1.24-1.40x at 200 characters); 8 of 10-120 characters 0.74-0.88x,
# 0.88-0.90x and 1.29-1.54x; 32 of them 0.86-1.13x, 1.36-1.38x and 1.35-1.72x.
OVERLAP_MIN_BYTES = 3 * 128 * 128 * 8

_worker = (None, None)   # (pid that started it, its ThreadPoolExecutor)
_worker_lock = threading.Lock()


def gate_shapes(d_in: int, d_h: int) -> dict[str, tuple]:
    """Shape of each of one direction's gates, in GATE_NAMES order."""
    return {name: {"W": (d_h, d_in), "U": (d_h, d_h), "b": (d_h,)}[name[0]] for name in GATE_NAMES}


@dataclass(frozen=True)
class Layout:
    """Where the rows of a batch run.

    The sentences, `lengths` (int64) long, lie one after another in the rows
    of an array; sentence b ends before row ends[b]. Each step is one (k, o, p)
    of `steps`: it runs packed rows o:o + k, one per running sentence in rank
    order, continuing rows p:p + k of the step before (p = -k0 at step 0).
    pred[j] is the packed row before packed row j in its sentence, negative
    in step 0. pos[d][j] is the packed row of input row j in direction d (0
    forward, 1 backward), and rows[d] is the inverse map. The CRF runs its
    recursions over the same packed rows.
    """

    lengths: np.ndarray
    ends: np.ndarray
    steps: list
    pred: np.ndarray
    pos: tuple
    rows: tuple

    @classmethod
    def of(cls, lengths) -> "Layout":
        """Pack sentences of these lengths; a Layout passes through, one per batch."""
        if isinstance(lengths, cls):
            return lengths
        L = np.asarray(lengths, dtype=np.int64)
        B, T = len(L), int(L.max(initial=0))
        rank = np.empty(B, dtype=np.int64)
        rank[np.argsort(-L, kind="stable")] = np.arange(B)
        k = B - np.cumsum(np.bincount(L, minlength=T + 1))[:T]   # sentences longer than t
        o = np.cumsum(k) - k
        p = np.concatenate([-k[:1], o[:-1]])   # -k0 at step 0: pred stays negative there
        sent, ends = np.repeat(np.arange(B), L), np.cumsum(L)
        at = np.arange(L.sum()) - np.repeat(ends - L, L)   # position in its sentence
        pos = (o[at] + rank[sent], o[L[sent] - 1 - at] + rank[sent])
        rows = tuple(np.argsort(q) for q in pos)   # the inverse permutations
        pred = np.repeat(p - o, k) + np.arange(len(at))
        return cls(L, ends, list(zip(k.tolist(), o.tolist(), p.tolist())), pred, pos, rows)

    @property
    def k0(self) -> int:
        """Rows of the first step: the batch's sentences that are not empty."""
        return self.steps[0][0] if self.steps else 0


def _check(X, gates):
    d_h, d_in = gates["W_z"].shape
    if X.ndim != 2 or X.shape[1] != d_in or gates["U_z"].shape != (d_h, d_h):
        raise ShapeError(f"encoder shapes do not conform: X {X.shape}, "
                         f"W_z {gates['W_z'].shape}, U_z {gates['U_z'].shape}")


def _run_direction(X, lay, rows, gates):
    """Forward recurrence of one direction over the packed rows.

    Returns (S, ZR, C): the state array S ((k_0 + N, d_h), the packed states
    after k_0 zero rows), and the gates as two blocks of one buffer of 3 N d_h
    values, z | r in ZR (N, 2 d_h), then c in C (N, d_h).
    """
    d_h, dt, n = gates["b_z"].shape[0], X.dtype, len(rows)
    X = X[rows]   # packed order, so the input terms need no permuting
    A = np.empty(3 * n * d_h, dtype=dt)   # two blocks, so k > 1 steps run on contiguous slices
    ZR, C = A[:2 * n * d_h].reshape(n, 2 * d_h), A[2 * n * d_h:].reshape(n, d_h)
    for out, g, scale in ((ZR[:, :d_h], "z", 0.5), (ZR[:, d_h:], "r", 0.5), (C, "h", 1.0)):
        # one GEMM per gate: a wider product rounds some small batches differently
        np.matmul(X, (scale * gates[f"W_{g}"]).T, out=out)
    np.add(ZR, 0.5 * np.concatenate([gates["b_z"], gates["b_r"]]), out=ZR)
    np.add(C, gates["b_h"], out=C)
    U_zr = np.vstack([gates["U_z"], gates["U_r"]])
    np.multiply(U_zr, 0.5, out=U_zr)
    U_h, k0 = gates["U_h"], lay.k0
    if k0 > 1:   # a GEMM is fastest with contiguous right operands
        U_zT, U_rT, U_hT = (np.ascontiguousarray(U.T) for U in (U_zr[:d_h], U_zr[d_h:], U_h))
    S = np.zeros((k0 + n, d_h), dtype=dt)
    # step scratch: r * h, and the recurrent products of z | r and of c
    RH, P, Q = (np.empty((k0, w), dtype=dt) for w in (d_h, 2 * d_h, d_h))
    for k, o, p in lay.steps:
        if k == 1:   # the one-row tail runs below, from this step (k, o, p) on
            break
        h, rh, h_new = S[k0 + p:k0 + p + k], RH[:k], S[k0 + o:k0 + o + k]
        zr, c, q, q_c = ZR[o:o + k], C[o:o + k], P[:k], Q[:k]
        z, r = zr[:, :d_h], zr[:, d_h:]
        np.matmul(h, U_zT, out=q[:, :d_h])
        np.matmul(h, U_rT, out=q[:, d_h:])
        np.add(zr, q, out=zr)
        np.tanh(zr, out=zr)
        np.add(zr, 1.0, out=zr)
        np.multiply(zr, 0.5, out=zr)
        np.multiply(r, h, out=rh)
        np.matmul(rh, U_hT, out=q_c)
        np.add(c, q_c, out=c)
        np.tanh(c, out=c)
        np.subtract(1.0, z, out=h_new)
        np.multiply(h_new, h, out=h_new)
        np.multiply(z, c, out=q_c)
        np.add(h_new, q_c, out=h_new)
    else:
        return S, ZR, C
    dot, add, multiply, subtract, tanh = np.dot, np.add, np.multiply, np.subtract, np.tanh
    h, rh, q, q_h = S[k0 + p], RH[0], P[0], P[0, :d_h]
    U_zr1, U_h1 = U_zr.T, U_h.T   # views: dot(h, U.T) is U @ h's gemv
    for zr, z, r, c, h_new in zip(ZR[o:], ZR[o:, :d_h], ZR[o:, d_h:], C[o:], S[k0 + o:]):
        dot(h, U_zr1, out=q)
        add(zr, q, out=zr)
        tanh(zr, out=zr)
        add(zr, 1.0, out=zr)
        multiply(zr, 0.5, out=zr)
        multiply(r, h, out=rh)
        dot(rh, U_h1, out=q_h)
        add(c, q_h, out=c)
        tanh(c, out=c)
        subtract(1.0, z, out=h_new)
        multiply(h_new, h, out=h_new)
        multiply(z, c, out=q_h)
        add(h_new, q_h, out=h_new)
        h = h_new
    return S, ZR, C


def _run_direction_backward(dH, X, lay, rows, cache, gates, grads):
    """Backward recurrence of one direction; dH holds packed rows and is consumed.

    Returns dX for the packed rows.
    """
    S, ZR, C = cache
    d_h = S.shape[1]
    Z, R = ZR[:, :d_h], ZR[:, d_h:]
    H_prev = S[lay.k0 + lay.pred]
    # per-row factors of the pre-activation gradients; only dh varies. Each is formed in
    # one temporary, in the order (C - H_prev) * Z * keep, RH * (1 - R), Z * (1 - C * C).
    RH, keep = H_prev * R, 1.0 - Z   # r * h: the forward step's product of the same operands
    K_z = C - H_prev
    K_z *= Z
    K_z *= keep
    K_r = 1.0 - R
    K_r *= RH
    K_c = C * C
    np.subtract(1.0, K_c, out=K_c)
    K_c *= Z
    U_z, U_r, U_h = gates["U_z"], gates["U_r"], gates["U_h"]
    U_zr = np.vstack([U_z, U_r])
    G = np.empty((len(C), 3 * d_h), dtype=C.dtype)   # [g_z | g_r | g_c]
    carry = np.zeros((lay.k0, d_h), dtype=C.dtype)
    drh, tmp = np.empty_like(carry), np.empty_like(carry)
    for k, o, _ in reversed(lay.steps):
        dh = dH[o:o + k]
        np.add(dh, carry[:k], out=dh)   # rows that end at this step carry 0
        g_zr, g_c = G[o:o + k, :2 * d_h], G[o:o + k, 2 * d_h:]
        g_z, g_r = g_zr[:, :d_h], g_zr[:, d_h:]
        d_rh, t, cy = drh[:k], tmp[:k], carry[:k]
        np.multiply(dh, K_c[o:o + k], out=g_c)
        np.matmul(g_c, U_h, out=d_rh)
        np.multiply(dh, K_z[o:o + k], out=g_z)
        np.multiply(d_rh, K_r[o:o + k], out=g_r)
        np.multiply(dh, keep[o:o + k], out=cy)
        np.multiply(d_rh, R[o:o + k], out=t)
        np.add(cy, t, out=cy)
        if k == 1:
            np.dot(g_zr, U_zr, out=t)
        else:
            np.matmul(g_z, U_z, out=t)
            np.add(cy, t, out=cy)
            np.matmul(g_r, U_r, out=t)
        np.add(cy, t, out=cy)
    dW = G.T @ X[rows]
    dU_zr = G[:, :2 * d_h].T @ H_prev
    db = G.sum(axis=0)
    for i, g in enumerate("zrh"):
        part = slice(i * d_h, (i + 1) * d_h)
        grads[f"W_{g}"] += dW[part]
        grads[f"b_{g}"] += db[part]
        if g != "h":
            grads[f"U_{g}"] += dU_zr[part]
    grads["U_h"] += G[:, 2 * d_h:].T @ RH
    return G @ np.vstack([gates["W_z"], gates["W_r"], gates["W_h"]])


def encode_chars(X, fwd_gates, bwd_gates, lengths=None):
    """Run both directions over the character rows X (N, d_c) of a batch.

    X holds the sentences one after another, `lengths` their lengths or
    `Layout` (by default X is one sentence). Returns (H, cache), H (N, 2*d_h)
    in the rows of X; row i is [fwd_i ; bwd_i] of its sentence.
    """
    _check(X, fwd_gates)
    _check(X, bwd_gates)
    lay = Layout.of([len(X)] if lengths is None else lengths)
    if len(lay.pred) != len(X):
        raise ShapeError(f"sentence lengths sum to {len(lay.pred)}, X has {len(X)} rows")
    if 3 * fwd_gates["U_z"].nbytes < OVERLAP_MIN_BYTES or _cpus() < 2:
        cf = _run_direction(X, lay, lay.rows[0], fwd_gates)
        cb = _run_direction(X, lay, lay.rows[1], bwd_gates)
    else:
        pending = _pool().submit(_run_direction, X, lay, lay.rows[1], bwd_gates)
        try:
            cf = _run_direction(X, lay, lay.rows[0], fwd_gates)
        finally:   # never return with the worker still writing
            cb = pending.result()
    d_h = fwd_gates["b_z"].shape[0]
    H = np.empty((len(X), 2 * d_h), dtype=X.dtype)
    np.take(cf[0][lay.k0:], lay.pos[0], axis=0, out=H[:, :d_h])
    np.take(cb[0][lay.k0:], lay.pos[1], axis=0, out=H[:, d_h:])
    return H, (X, lay, cf, cb)


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _pool() -> ThreadPoolExecutor:
    """The one worker thread, started on first use; a forked child starts its own,
    because the parent's thread does not exist there."""
    global _worker
    with _worker_lock:
        if _worker[0] != os.getpid():
            _worker = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="lexner-gru"))
        return _worker[1]


def encode_backward(dH, cache, fwd_gates, bwd_gates, fwd_grads, bwd_grads):
    """Backprop through both directions; returns dX of shape (N, d_c)."""
    X, lay, cf, cb = cache
    d_h = fwd_gates["b_z"].shape[0]
    dH = np.asarray(dH, dtype=X.dtype)
    dX = _run_direction_backward(dH[lay.rows[0], :d_h], X, lay, lay.rows[0], cf,
                                 fwd_gates, fwd_grads)[lay.pos[0]]
    dX += _run_direction_backward(dH[lay.rows[1], d_h:], X, lay, lay.rows[1], cb,
                                  bwd_gates, bwd_grads)[lay.pos[1]]
    return dX


def _g_rows(n, mode, lengths):
    """The state rows g reads, per sentence: (forward half's row, backward half's row)."""
    if mode not in G_MODES:
        raise ValueError(f"g_mode {mode!r} not in {G_MODES}")
    last = np.cumsum([n] if lengths is None else lengths) - 1
    return last, (last if mode == "last" else np.append(0, last[:-1] + 1))


def global_feature(H, d_h, mode="last", lengths=None):
    """Sentence-level context vector g read off the states; with `lengths`, one row each."""
    last, back = _g_rows(len(H), mode, lengths)
    g = np.concatenate([H[last, :d_h], H[back, d_h:]], axis=1)
    return g if lengths is not None else g[0]


def global_feature_backward(dg, dH, d_h, mode="last", lengths=None):
    """Accumulate d loss / d g into the encoder-state gradient dH."""
    last, back = _g_rows(len(dH), mode, lengths)
    dg = np.reshape(dg, (len(last), -1))
    dH[last, :d_h] += dg[:, :d_h]
    dH[back, d_h:] += dg[:, d_h:]

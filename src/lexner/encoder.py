"""Bidirectional GRU over per-character vectors.

One step (the update gate drives the candidate):

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * c

Each direction runs over the whole sentence. The input terms X W_g^T + b_g
do not depend on the recurrence, so they are computed for every position
before the loop, one GEMM per gate; a step then does only the three U
matvecs and the gate arithmetic. The forward pass caches the previous
states and z, r, c as (n, d_h) arrays.

The backward loop carries only d loss / d h from step to step and stores
the gradients of the three gate pre-activations, each (n, d_h). After the
loop, every weight and bias gradient, and dX, is a few GEMMs over them.
Every buffer takes the dtype of the input X.

Both directions start from zero states; position i's hidden state is the
concatenation [fwd_i ; bwd_i]. The global sentence feature g defaults to
the last position's full state (g_mode="last"); g_mode="fwd_last_bwd_first"
takes the forward state at the last position and the backward state at the
first instead.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .numerics import sigmoid, tanh

GATE_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")
G_MODES = ("last", "fwd_last_bwd_first")


def gate_shapes(d_in: int, d_h: int) -> dict[str, tuple]:
    """Shape of each of one direction's gates, in GATE_NAMES order."""
    shapes = {}
    for g in ("z", "r", "h"):
        shapes.update({f"W_{g}": (d_h, d_in), f"U_{g}": (d_h, d_h), f"b_{g}": (d_h,)})
    return shapes


def init_gru_gates(d_in: int, d_h: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """LeCun-uniform weights (fan-in = columns), zero biases."""
    return {name: np.zeros(shape) if len(shape) == 1
            else rng.uniform(-1, 1, shape) * np.sqrt(3.0 / shape[1])
            for name, shape in gate_shapes(d_in, d_h).items()}


def _run_direction(X, gates, reverse):
    d_h, d_in = gates["W_z"].shape
    if X.ndim != 2 or X.shape[1] != d_in or gates["U_z"].shape != (d_h, d_h):
        raise ShapeError(
            f"encoder shapes do not conform: X {X.shape}, "
            f"W_z {gates['W_z'].shape}, U_z {gates['U_z'].shape}"
        )
    n = X.shape[0]
    A_z = X @ gates["W_z"].T + gates["b_z"]
    A_r = X @ gates["W_r"].T + gates["b_r"]
    A_c = X @ gates["W_h"].T + gates["b_h"]
    U_z, U_r, U_h = gates["U_z"], gates["U_r"], gates["U_h"]
    H, H_prev, Z, R, C = (np.empty((n, d_h), dtype=X.dtype) for _ in range(5))
    h = np.zeros(d_h, dtype=X.dtype)
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        H_prev[t] = h
        z = Z[t] = sigmoid(A_z[t] + U_z @ h)
        r = R[t] = sigmoid(A_r[t] + U_r @ h)
        c = C[t] = tanh(A_c[t] + U_h @ (r * h))
        h = H[t] = (1.0 - z) * h + z * c
    return H, (X, H_prev, Z, R, C)


def _run_direction_backward(dH, cache, gates, grads, reverse):
    X, H_prev, Z, R, C = cache
    # per-position factors of the pre-activation gradients; only dh varies
    K_z = (C - H_prev) * Z * (1.0 - Z)
    K_r = H_prev * R * (1.0 - R)
    K_c = Z * (1.0 - C * C)
    keep = 1.0 - Z
    U_z, U_r, U_h = gates["U_z"], gates["U_r"], gates["U_h"]
    G_z, G_r, G_c = (np.empty_like(Z) for _ in range(3))
    carry = np.zeros(Z.shape[1], dtype=Z.dtype)
    for t in (range(Z.shape[0]) if reverse else range(Z.shape[0] - 1, -1, -1)):
        dh = dH[t] + carry
        g_c = G_c[t] = dh * K_c[t]
        drh = g_c @ U_h
        g_z = G_z[t] = dh * K_z[t]
        g_r = G_r[t] = drh * K_r[t]
        carry = dh * keep[t] + drh * R[t] + g_z @ U_z + g_r @ U_r
    for g, G, inputs in (("z", G_z, H_prev), ("r", G_r, H_prev), ("h", G_c, R * H_prev)):
        grads[f"W_{g}"] += G.T @ X
        grads[f"U_{g}"] += G.T @ inputs
        grads[f"b_{g}"] += G.sum(axis=0)
    return G_z @ gates["W_z"] + G_r @ gates["W_r"] + G_c @ gates["W_h"]


def encode_chars(X, fwd_gates, bwd_gates):
    """Run both directions over row vectors X (n, d_c).

    Returns (H, cache) with H of shape (n, 2*d_h); row i is [fwd_i ; bwd_i].
    """
    Hf, cf = _run_direction(X, fwd_gates, reverse=False)
    Hb, cb = _run_direction(X, bwd_gates, reverse=True)
    return np.hstack([Hf, Hb]), (cf, cb)


def encode_backward(dH, cache, fwd_gates, bwd_gates, fwd_grads, bwd_grads):
    """Backprop through both directions; returns dX of shape (n, d_c)."""
    cf, cb = cache
    d_h = fwd_gates["b_z"].shape[0]
    dH = np.asarray(dH, dtype=cf[0].dtype)
    dX = _run_direction_backward(dH[:, :d_h], cf, fwd_gates, fwd_grads, reverse=False)
    dX += _run_direction_backward(dH[:, d_h:], cb, bwd_gates, bwd_grads, reverse=True)
    return dX


def global_feature(H, d_h, mode="last"):
    """Sentence-level context vector g read off the encoder states."""
    if mode == "last":
        return H[-1]
    if mode == "fwd_last_bwd_first":
        return np.concatenate([H[-1, :d_h], H[0, d_h:]])
    raise ValueError(f"g_mode {mode!r} not in {G_MODES}")


def global_feature_backward(dg, dH, d_h, mode="last"):
    """Accumulate d loss / d g into the encoder-state gradient dH."""
    if mode == "last":
        dH[-1] += dg
    elif mode == "fwd_last_bwd_first":
        dH[-1, :d_h] += dg[:d_h]
        dH[0, d_h:] += dg[d_h:]
    else:
        raise ValueError(f"g_mode {mode!r} not in {G_MODES}")

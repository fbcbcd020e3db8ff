"""Dense float ops with hand-derived backward passes.

Arrays are plain numpy ndarrays, float64 unless the caller opts into
float32 training. The model graph is static, so reverse-mode gradients
are written out per operation instead of going through a tape. Backward
functions take the upstream gradient plus whatever the forward pass
cached and return gradients in the same order as the forward inputs.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError


def check_finite(name: str, arr) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")


def fan_in_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """LeCun-uniform weights: uniform over +-sqrt(3 / fan-in), the fan-in being the columns."""
    return rng.uniform(-1, 1, shape) * np.sqrt(3.0 / shape[1])


def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x W^T + b for x of shape (in,) or (rows, in), W of shape (out, in)."""
    if W.ndim != 2 or x.shape[-1] != W.shape[1] or b.shape != (W.shape[0],):
        raise ShapeError(f"affine shapes do not conform: x {x.shape}, W {W.shape}, b {b.shape}")
    return x @ W.T + b


def affine_backward(dy: np.ndarray, x: np.ndarray, W: np.ndarray):
    """Gradients (dx, dW, db) for affine."""
    if x.ndim == 1:
        return dy @ W, np.outer(dy, x), dy.copy()
    return dy @ W, dy.T @ x, dy.sum(axis=0)


def softmax(v: np.ndarray, starts=(0,)) -> np.ndarray:
    """Numerically stable softmax (max-subtracted) of each segment of a vector.

    Segment k is v[starts[k]:starts[k + 1]], the last one running to the end;
    `starts` rises strictly from 0. By default the whole vector is one segment.
    """
    v = np.asarray(v)
    if v.ndim != 1 or (v.size > 0) != (len(starts) > 0):
        raise ValueError(f"softmax expects non-empty segments, got shape {v.shape}")
    sizes = np.diff(starts, append=v.size)
    e = np.exp(v - np.repeat(np.maximum.reduceat(v, starts), sizes))
    return e / np.repeat(np.add.reduceat(e, starts), sizes)


def softmax_backward(dp: np.ndarray, p: np.ndarray, starts=(0,)) -> np.ndarray:
    # dv_j = p_j * (dp_j - sum_k p_k dp_k), k over the segment of j
    sizes = np.diff(starts, append=p.size)
    return p * (dp - np.repeat(np.add.reduceat(p * dp, starts), sizes))


def dropout(x: np.ndarray, p: float, train: bool, rng=None, lengths=None):
    """Inverted dropout: survivors are scaled by 1/(1-p); identity in eval mode.

    Returns (y, mask); backward is dy * mask. With `lengths`, x holds blocks of
    rows and `rng` one generator per block, which draws that block's mask.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x, np.ones_like(x)
    rngs, sizes = ([rng], [len(x)]) if lengths is None else (rng, lengths)
    if rngs is None or any(r is None for r in rngs):
        raise ValueError("dropout in train mode needs an rng")
    u = np.concatenate([r.random((n, *x.shape[1:])) for r, n in zip(rngs, sizes)])
    mask = ((u >= p) / (1.0 - p)).astype(x.dtype)
    return x * mask, mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


def grad_check(f, store, eps: float = 1e-5, denom_floor: float = 1e-5,
               loss_only=None) -> float:
    """Compare the store's analytic gradients of f against central differences.

    `f()` must return a scalar computed from the store's current parameter
    values and leave d f / d theta, which must be finite, accumulated in
    the store's gradients. `f` runs once, at the unperturbed values. The
    difference probes call `loss_only()` when it is given, else `f()`: it
    must compute the same scalar as `f` from the same parameters and must
    not touch the gradients, so the probes skip the backward pass.
    Returns the max relative error, where the relative error of a pair
    (a, fd) is |a - fd| / max(|a|, |fd|, denom_floor) so that components
    at roundoff scale do not dominate.
    """
    store.zero_grads()
    loss = float(f())
    if not np.isfinite(loss):
        raise NumericError(f"grad_check: non-finite loss {loss}")
    analytic = {name: store[name].grad.copy() for name in store.names()}
    for name, a in analytic.items():   # a NaN would compare as no error at all
        check_finite(f"the gradient of {name}", a)
    probe = f if loss_only is None else loss_only

    worst = 0.0
    for name in store.names():
        value = store[name].value
        flat = value.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            store.zero_grads()
            fp = float(probe())
            flat[i] = orig - eps
            store.zero_grads()
            fm = float(probe())
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError(f"grad_check: non-finite loss while perturbing {name}")
            fd = (fp - fm) / (2.0 * eps)
            a = a_flat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), denom_floor)
            if rel > worst:
                worst = rel
    store.zero_grads()
    return worst

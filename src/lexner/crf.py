"""Linear-chain CRF: scoring, exact log-partition, marginals, Viterbi.

Transitions live in a (K+2) x (K+2) matrix whose last two rows/columns
are synthetic start and stop states (indices K and K+1). Entries into
start and out of stop are pinned at FORBIDDEN; because no recurrence ever
reads them their gradients are structurally zero and Adam leaves them
untouched. Everything here runs in float64 log space regardless of the
training precision.

Log-sum-exp is a local numpy helper (shift by the max, then
log(sum(exp))). It expects finite inputs, which holds here: TagLattice
rejects non-finite emissions and forbidden transitions sit at a finite
FORBIDDEN rather than -inf.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .numerics import affine, affine_backward

FORBIDDEN = -1e4


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))) along `axis` (all of `a` when None); `a` must be finite."""
    m = np.max(a, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def start_index(num_tags: int) -> int:
    return num_tags


def stop_index(num_tags: int) -> int:
    return num_tags + 1


def init_transitions(num_tags: int) -> np.ndarray:
    """Fresh transition matrix: trainable entries 0, forbidden entries pinned."""
    T = np.zeros((num_tags + 2, num_tags + 2), dtype=np.float64)
    T[:, start_index(num_tags)] = FORBIDDEN
    T[stop_index(num_tags), :] = FORBIDDEN
    return T


@dataclass
class TagLattice:
    """Emission matrix (n x K) plus the shared transition matrix, held in float64."""

    emissions: np.ndarray
    transitions: np.ndarray

    def __post_init__(self):
        self.transitions = T = np.asarray(self.transitions, dtype=np.float64)
        O = self.emissions
        if O.ndim != 2 or O.shape[0] < 1:
            raise ShapeError(f"emissions must be (n >= 1, K), got {O.shape}")
        if T.shape != (O.shape[1] + 2, O.shape[1] + 2):
            raise ShapeError(
                f"transitions {T.shape} do not match {O.shape[1]} tags (+2 boundary states)"
            )
        if not np.all(np.isfinite(O)):
            raise NumericError("non-finite emission score")

    @property
    def n(self) -> int:
        return self.emissions.shape[0]

    @property
    def num_tags(self) -> int:
        return self.emissions.shape[1]


def emissions(R: np.ndarray, W_o: np.ndarray, b_o: np.ndarray) -> np.ndarray:
    """Per-position tag scores O = R W_o^T + b_o, for R of shape (n, |r|)."""
    return affine(np.asarray(R, dtype=np.float64), W_o, b_o)


def emissions_backward(dO, R, W_o):
    return affine_backward(dO, R, W_o)


def _check_tags(lattice: TagLattice, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (lattice.n,):
        raise ValueError(f"tag sequence length {y.shape} does not match n={lattice.n}")
    if y.min() < 0 or y.max() >= lattice.num_tags:
        raise ValueError(f"tag index out of range 0..{lattice.num_tags - 1}")
    return y


def score_sequence(lattice: TagLattice, y) -> float:
    """Unnormalized path score: emissions plus transitions incl. boundaries."""
    y = _check_tags(lattice, y)
    O, T = lattice.emissions, lattice.transitions
    start, stop = start_index(lattice.num_tags), stop_index(lattice.num_tags)
    s = O[np.arange(lattice.n), y].sum()
    s += T[start, y[0]] + T[y[-1], stop]
    if lattice.n > 1:
        s += T[y[:-1], y[1:]].sum()
    return float(s)


def _forward_scores(lattice: TagLattice) -> np.ndarray:
    """log alpha[t, k]: log-sum over paths through position t ending in tag k."""
    O, T = lattice.emissions, lattice.transitions
    K = lattice.num_tags
    inner = T[:K, :K]
    alpha = np.empty_like(O)
    alpha[0] = O[0] + T[start_index(K), :K]
    for t in range(1, lattice.n):
        alpha[t] = O[t] + _logsumexp(alpha[t - 1][:, None] + inner, axis=0)
    return alpha


def log_partition(lattice: TagLattice) -> float:
    alpha = _forward_scores(lattice)
    K = lattice.num_tags
    return float(_logsumexp(alpha[-1] + lattice.transitions[:K, stop_index(K)]))


def _forward_backward(lattice: TagLattice):
    """Log forward and backward scores and the log-partition: (alpha, beta, logz).

    log beta[t, k]: log-sum over completions from tag k at position t.
    """
    alpha = _forward_scores(lattice)
    O, T = lattice.emissions, lattice.transitions
    K = lattice.num_tags
    inner = T[:K, :K]
    beta = np.empty_like(O)
    beta[-1] = T[:K, stop_index(K)]
    for t in range(lattice.n - 2, -1, -1):
        beta[t] = _logsumexp(inner + (O[t + 1] + beta[t + 1])[None, :], axis=1)
    return alpha, beta, float(_logsumexp(alpha[-1] + T[:K, stop_index(K)]))


def marginals(lattice: TagLattice) -> np.ndarray:
    """Posterior tag probabilities p(y_t = k), shape (n, K)."""
    alpha, beta, logz = _forward_backward(lattice)
    return np.exp(alpha + beta - logz)


def _nll_value(logz: float, gold: float) -> float:
    if not np.isfinite(logz):
        raise NumericError("non-finite log-partition")
    loss = logz - gold
    if loss < 0.0:
        # the partition dominates every path, so anything below roundoff is a bug
        if loss < -1e-9:
            raise NumericError(f"negative NLL {loss}")
        loss = 0.0
    return loss


def nll_loss(lattice: TagLattice, y) -> float:
    """The loss that `nll` returns, without its gradients or backward scores."""
    y = _check_tags(lattice, y)
    return _nll_value(log_partition(lattice), score_sequence(lattice, y))


def nll(lattice: TagLattice, y):
    """Negative log-likelihood of the gold path, with exact gradients.

    Returns (loss, dO, dT) where dO is (n, K) and dT is the full
    (K+2, K+2) gradient: node marginals minus the gold one-hot, and edge
    marginals minus gold transition indicators.
    """
    y = _check_tags(lattice, y)
    O, T = lattice.emissions, lattice.transitions
    n, K = lattice.n, lattice.num_tags
    start, stop = start_index(K), stop_index(K)

    alpha, beta, logz = _forward_backward(lattice)
    loss = _nll_value(logz, score_sequence(lattice, y))

    node = np.exp(alpha + beta - logz)
    dO = node.copy()
    dO[np.arange(n), y] -= 1.0

    dT = np.zeros_like(T)
    if n > 1:
        # edge marginals p(y_t = j, y_{t+1} = k), summed over t
        edges = np.exp(
            alpha[:-1, :, None] + T[None, :K, :K]
            + (O[1:] + beta[1:])[:, None, :] - logz
        )
        dT[:K, :K] = edges.sum(axis=0)
        np.subtract.at(dT, (y[:-1], y[1:]), 1.0)
    dT[start, :K] = node[0]
    dT[start, y[0]] -= 1.0
    dT[:K, stop] += node[-1]
    dT[y[-1], stop] -= 1.0
    return loss, dO, dT


def viterbi(lattice: TagLattice, legal: np.ndarray | None = None):
    """Highest-scoring tag sequence and its score.

    Ties are broken toward the lowest tag index at every backtrack step.
    `legal` is an optional (K+2, K+2) boolean mask; illegal transitions
    are clamped to FORBIDDEN before decoding.
    """
    O = lattice.emissions
    T = lattice.transitions
    K = lattice.num_tags
    if legal is not None:
        T = np.where(legal, T, FORBIDDEN)
    start, stop = start_index(K), stop_index(K)
    inner = T[:K, :K]

    delta = O[0] + T[start, :K]
    backptr = np.empty((lattice.n, K), dtype=np.int64)
    for t in range(1, lattice.n):
        cand = delta[:, None] + inner          # cand[j, k]
        backptr[t] = np.argmax(cand, axis=0)   # first max = lowest index
        delta = O[t] + cand[backptr[t], np.arange(K)]

    final = delta + T[:K, stop]
    last = int(np.argmax(final))
    path = [last]
    for t in range(lattice.n - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    path.reverse()
    # re-score the decoded path (against the masked T) so the returned
    # score equals score_sequence of the path exactly, not just up to
    # DP summation order
    return path, score_sequence(TagLattice(O, T), path)

"""Linear-chain CRF over a batch: scoring, exact log-partition, marginals, Viterbi.

Transitions live in a (K+2) x (K+2) matrix whose last two rows/columns
are synthetic start and stop states (indices K and K+1). Entries into
start and out of stop are pinned at FORBIDDEN; because no recurrence ever
reads them their gradients are structurally zero and Adam leaves them
untouched. Everything here runs in float64 log space regardless of the
training precision.

A lattice holds the emission rows of one or more sentences one after
another: the lattice of independent chains laid end to end. Its rows are
packed by length rank as the encoder packs them (`encoder.Layout`), so
the forward/backward recursion and Viterbi each run once over the batch.

Log-sum-exp (`_logsumexp`) expects finite inputs, which holds here:
TagLattice rejects non-finite scores, and forbidden transitions sit at a
finite FORBIDDEN rather than -inf.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import Layout
from .errors import NumericError, ShapeError
from .numerics import affine, affine_backward, check_finite

FORBIDDEN = -1e4


def _logsumexp(a: np.ndarray, axis: int):
    """log(sum(exp(a))) along `axis`; `a` must be finite."""
    m = np.max(a, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def init_transitions(num_tags: int) -> np.ndarray:
    """Fresh transition matrix: trainable entries 0, forbidden entries pinned."""
    T = np.zeros((num_tags + 2, num_tags + 2), dtype=np.float64)
    T[:, num_tags] = FORBIDDEN
    T[num_tags + 1, :] = FORBIDDEN
    return T


@dataclass
class TagLattice:
    """Emission rows (n x K) of the sentences of `lengths` (their lengths or
    `Layout`; one sentence by default), and the transitions, held in float64."""

    emissions: np.ndarray
    transitions: np.ndarray
    lengths: object = None
    layout: Layout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.transitions = T = np.asarray(self.transitions, dtype=np.float64)
        O = self.emissions
        if O.ndim != 2 or O.shape[0] < 1:
            raise ShapeError(f"emissions must be (n >= 1, K), got {O.shape}")
        if T.shape != (O.shape[1] + 2, O.shape[1] + 2):
            raise ShapeError(f"transitions {T.shape} do not match {O.shape[1]} tags "
                             "(+2 boundary states)")
        self.layout = lay = Layout.of([len(O)] if self.lengths is None else self.lengths)
        if lay.lengths.sum() != len(O) or np.any(lay.lengths < 1):
            raise ShapeError(f"sentence lengths must be >= 1 and sum to {len(O)} rows")
        check_finite("the emission scores", O)
        check_finite("the transition scores", T)

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


def _check_tags(lattice: TagLattice, y):
    """y as int64, and each row's previous tag (the start state K at a sentence's first row)."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (lattice.n,):
        raise ValueError(f"tag sequence length {y.shape} does not match n={lattice.n}")
    if y.min() < 0 or y.max() >= lattice.num_tags:
        raise ValueError(f"tag index out of range 0..{lattice.num_tags - 1}")
    prev = np.concatenate([[0], y[:-1]])
    prev[lattice.layout.ends - lattice.layout.lengths] = lattice.num_tags
    return y, prev


def _path_scores(lattice: TagLattice, T, y, prev) -> np.ndarray:
    """Each sentence's unnormalized path score under transitions T, incl. boundaries."""
    lay, K = lattice.layout, lattice.num_tags
    rows = lattice.emissions[np.arange(len(y)), y] + T[prev, y]
    return np.add.reduceat(rows, lay.ends - lay.lengths) + T[y[lay.ends - 1], K + 1]


def score_sequence(lattice: TagLattice, y) -> float:
    """Unnormalized path score, summed over the lattice's sentences."""
    return float(_path_scores(lattice, lattice.transitions, *_check_tags(lattice, y)).sum())


def _steps(lay: Layout):
    """(k, o, p) of each step after the first: packed rows o:o + k continue p:p + k."""
    return zip(lay.k[1:], lay.off[1:], lay.off)


def _forward(lattice: TagLattice):
    """Packed emissions, log alpha over the packed rows (log-sum over the paths
    through a row ending in each tag), and each sentence's log-partition."""
    lay, T, K = lattice.layout, lattice.transitions, lattice.num_tags
    inner = T[:K, :K]
    E = lattice.emissions[lay.rows[0]]
    A = np.empty_like(E)
    A[:lay.k0] = E[:lay.k0] + T[K, :K]
    for k, o, p in _steps(lay):
        A[o:o + k] = E[o:o + k] + _logsumexp(A[p:p + k, :, None] + inner, axis=1)
    return E, A, _logsumexp(A[lay.pos[0][lay.ends - 1]] + T[:K, K + 1], axis=1)


def log_partition(lattice: TagLattice) -> float:
    """log Z, summed over the lattice's sentences."""
    return float(_forward(lattice)[2].sum())


def _marginals(lattice: TagLattice):
    """The forward pass, log beta (log-sum over completions from each tag at a
    row) and the node marginals p(y_t = k), all over the packed rows."""
    lay, T, K = lattice.layout, lattice.transitions, lattice.num_tags
    inner = T[:K, :K]
    E, A, logz = _forward(lattice)
    Bt = np.empty_like(E)
    Bt[:] = T[:K, K + 1]                  # kept by each sentence's last row
    for k, o, p in reversed(list(_steps(lay))):
        Bt[p:p + k] = _logsumexp(inner + (E[o:o + k] + Bt[o:o + k])[:, None, :], axis=2)
    z = np.repeat(logz, lay.lengths)[lay.rows[0]]   # each packed row's log-partition
    return E, A, Bt, logz, z, np.exp(A + Bt - z[:, None])


def marginals(lattice: TagLattice) -> np.ndarray:
    """Posterior tag probabilities p(y_t = k), shape (n, K)."""
    return _marginals(lattice)[-1][lattice.layout.pos[0]]


def _nll_value(logz: np.ndarray, gold: np.ndarray) -> np.ndarray:
    loss = logz - gold
    # the partition dominates every path, so a loss below roundoff is a bug
    if not np.all(np.isfinite(loss) & (loss >= -1e-9)):
        raise NumericError(f"non-finite or negative NLL in {loss}")
    return np.maximum(loss, 0.0)


def nll_loss(lattice: TagLattice, y) -> np.ndarray:
    """The losses that `nll` returns, without its gradients or backward scores."""
    gold = _path_scores(lattice, lattice.transitions, *_check_tags(lattice, y))
    return _nll_value(_forward(lattice)[2], gold)


def nll(lattice: TagLattice, y):
    """Negative log-likelihood of each sentence's gold path, with exact gradients.

    Returns (loss, dO, dT): loss (B,) holds one NLL per sentence, dO (n, K)
    is the gradient of the summed loss in the rows of the emissions, and dT
    the full (K+2, K+2) one: node marginals minus the gold one-hot, and edge
    marginals minus gold transition indicators, summed over the batch.
    """
    y, prev = _check_tags(lattice, y)
    lay, T, K = lattice.layout, lattice.transitions, lattice.num_tags
    E, A, Bt, logz, z, node = _marginals(lattice)
    loss = _nll_value(logz, _path_scores(lattice, T, y, prev))

    dO = node[lay.pos[0]]
    dO[np.arange(len(y)), y] -= 1.0
    # edge marginals p(y_t = j, y_{t+1} = k): each row after step 0 and its
    # predecessor, whose packed row is its state row less the k0 zero states
    o = lay.k0
    dT = np.zeros_like(T)
    dT[:K, :K] = np.exp(A[lay.prev_rows()[o:] - o][:, :, None] + T[:K, :K]
                        + (E[o:] + Bt[o:] - z[o:, None])[:, None, :]).sum(axis=0)
    dT[K, :K] = node[:o].sum(axis=0)
    dT[:K, K + 1] = node[lay.pos[0][lay.ends - 1]].sum(axis=0)
    np.subtract.at(dT, (prev, y), 1.0)
    np.subtract.at(dT, (y[lay.ends - 1], K + 1), 1.0)
    return loss, dO, dT


def viterbi(lattice: TagLattice, legal: np.ndarray | None = None):
    """Each sentence's highest-scoring tag sequence, laid end to end, and their summed score.

    Ties are broken toward the lowest tag index at every backtrack step.
    `legal` is an optional (K+2, K+2) boolean mask; illegal transitions
    are clamped to FORBIDDEN before decoding.
    """
    lay, T, K = lattice.layout, lattice.transitions, lattice.num_tags
    if legal is not None:
        T = np.where(legal, T, FORBIDDEN)
    inner = T[:K, :K]
    E = lattice.emissions[lay.rows[0]]
    D = np.empty_like(E)                      # best score of a path ending in each tag
    back = np.empty(E.shape, dtype=np.int64)  # its previous tag
    D[:lay.k0] = E[:lay.k0] + T[K, :K]
    for k, o, p in _steps(lay):
        cand = D[p:p + k, :, None] + inner               # cand[b, j, k]
        cand.argmax(axis=1, out=back[o:o + k])           # first max = lowest index
        np.add(E[o:o + k], np.maximum.reduce(cand, axis=1), out=D[o:o + k])
    # backtrack over flat indices row * K + tag: `back` now holds the best
    # predecessor's flat index, so one take per step follows every path
    back[lay.k0:] += K * (lay.prev_rows()[lay.k0:, None] - lay.k0)
    last, flat = lay.pos[0][lay.ends - 1], back.ravel()
    F = np.empty(len(E), dtype=np.int64)
    F[last] = K * last + np.argmax(D[last] + T[:K, K + 1], axis=1)
    for k, o, p in reversed(list(_steps(lay))):
        F[p:p + k] = flat[F[o:o + k]]
    path = F[lay.pos[0]] % K
    # re-score the paths against the masked T, so the score equals
    # score_sequence of the path exactly, not just up to DP summation order
    return path.tolist(), float(_path_scores(lattice, T, *_check_tags(lattice, path)).sum())

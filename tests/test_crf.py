import itertools
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexner.crf import (FORBIDDEN, TagLattice, emissions, emissions_backward,
                        init_transitions, log_partition, marginals, nll,
                        nll_loss, score_sequence, viterbi)
from lexner.errors import NumericError, ShapeError


def random_lattice(rng, n=None, K=None):
    n = n or int(rng.integers(1, 5))
    K = K or int(rng.integers(1, 4))
    T = init_transitions(K)
    T[:K, :K] = rng.normal(size=(K, K))
    T[K, :K] = rng.normal(size=K)
    T[:K, K + 1] = rng.normal(size=K)
    return TagLattice(rng.normal(size=(n, K)), T)


def enumerate_scores(lattice):
    """Straight-line oracle: direct indexing over every tag sequence."""
    O, T = lattice.emissions, lattice.transitions
    n, K = lattice.n, lattice.num_tags
    out = {}
    for y in itertools.product(range(K), repeat=n):
        s = T[K, y[0]] + O[0, y[0]]
        for t in range(1, n):
            s += T[y[t - 1], y[t]] + O[t, y[t]]
        s += T[y[-1], K + 1]
        out[y] = float(s)
    return out


def brute_logz(lattice):
    scores = list(enumerate_scores(lattice).values())
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_viterbi(lattice):
    # max score; ties resolved like backtracking with lowest index: the
    # winner is minimal under reversed-tuple comparison
    scores = enumerate_scores(lattice)
    best = max(scores.items(),
               key=lambda kv: (kv[1], tuple(-t for t in reversed(kv[0]))))
    return list(best[0]), best[1]


class TestEmissions:
    def test_zero_weight_rows_equal_bias(self):
        R = np.arange(12.0).reshape(3, 4)
        v = np.array([1.0, -2.0])
        O = emissions(R, np.zeros((2, 4)), v)
        assert np.array_equal(O, np.tile(v, (3, 1)))

    def test_single_row_is_affine(self):
        rng = np.random.default_rng(0)
        R = rng.normal(size=(1, 4))
        W, b = rng.normal(size=(3, 4)), rng.normal(size=3)
        assert np.allclose(emissions(R, W, b)[0], W @ R[0] + b)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(1)
        R = rng.normal(size=(3, 4))
        W, b = rng.normal(size=(2, 4)), rng.normal(size=2)
        up = rng.normal(size=(3, 2))
        loss = lambda: float(np.sum(emissions(R, W, b) * up))
        dR, dW, db = emissions_backward(up, R, W)
        for arr, grad in ((R, dR), (W, dW), (b, db)):
            eps = 1e-6
            flat, gf = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = loss()
                flat[i] = orig - eps
                fm = loss()
                flat[i] = orig
                assert abs((fp - fm) / (2 * eps) - gf[i]) < 1e-6


class TestScoreSequence:
    def test_single_position_zero_boundary(self):
        T = init_transitions(3)
        lat = TagLattice(np.array([[1.0, 5.0, -2.0]]), T)
        for y in range(3):
            assert score_sequence(lat, [y]) == lat.emissions[0, y]

    def test_all_zero(self):
        T = init_transitions(2)
        lat = TagLattice(np.zeros((3, 2)), T)
        for y in itertools.product(range(2), repeat=3):
            assert score_sequence(lat, list(y)) == 0.0

    def test_matches_direct_indexing(self):
        rng = np.random.default_rng(2)
        for _ in range(30)        :
            lat = random_lattice(rng, n=4, K=3)
            oracle = enumerate_scores(lat)
            for y, expected in oracle.items():
                assert abs(score_sequence(lat, list(y)) - expected) < 1e-12

    def test_invalid_tag_rejected(self):
        lat = TagLattice(np.zeros((2, 2)), init_transitions(2))
        with pytest.raises(ValueError):
            score_sequence(lat, [0, 5])
        with pytest.raises(ValueError):
            score_sequence(lat, [0])


class TestLogPartition:
    def test_closed_form_n1(self):
        lat = TagLattice(np.array([[1.0, 3.0]]), init_transitions(2))
        assert abs(log_partition(lat) - math.log(math.e + math.e ** 3)) < 1e-12

    def test_zero_scores_count_paths(self):
        lat = TagLattice(np.zeros((2, 3)), init_transitions(3))
        assert abs(log_partition(lat) - math.log(9.0)) < 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lat = random_lattice(rng)
            assert abs(log_partition(lat) - brute_logz(lat)) < 1e-8

    def test_dominates_any_path_score(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            lat = random_lattice(rng)
            logz = log_partition(lat)
            for y in itertools.product(range(lat.num_tags), repeat=lat.n):
                assert logz >= score_sequence(lat, list(y)) - 1e-12


class TestNll:
    def test_dominant_gold_path(self):
        K, n = 3, 3
        T = init_transitions(K)
        y = [0, 1, 2]
        O = np.full((n, K), -50.0)
        O[np.arange(n), y] = 50.0
        loss, _, _ = nll(TagLattice(O, T), y)
        assert 0.0 <= loss < 1e-8

    def test_uniform_lattice(self):
        for n, K in ((1, 2), (2, 3), (4, 2)):
            lat = TagLattice(np.zeros((n, K)), init_transitions(K))
            loss, _, _ = nll(lat, [0] * n)
            assert abs(loss - n * math.log(K)) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lat = random_lattice(rng)
            y = list(rng.integers(0, lat.num_tags, size=lat.n))
            loss, _, _ = nll(lat, y)
            assert loss >= 0.0

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            lat = random_lattice(rng, n=3, K=3)
            y = list(rng.integers(0, 3, size=3))
            loss, dO, dT = nll(lat, y)
            eps = 1e-6
            for arr, grad in ((lat.emissions, dO), (lat.transitions, dT)):
                flat, gf = arr.reshape(-1), grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    if orig <= FORBIDDEN:   # structurally unused entries
                        continue
                    flat[i] = orig + eps
                    fp = nll(lat, y)[0]
                    flat[i] = orig - eps
                    fm = nll(lat, y)[0]
                    flat[i] = orig
                    assert abs((fp - fm) / (2 * eps) - gf[i]) < 1e-6

    def test_emission_shift_invariance(self):
        rng = np.random.default_rng(7)
        lat = random_lattice(rng, n=4, K=3)
        y = [0, 1, 2, 0]
        loss, _, _ = nll(lat, y)
        c = 3.7
        shifted = TagLattice(lat.emissions + c, lat.transitions)
        loss2, _, _ = nll(shifted, y)
        assert abs(log_partition(shifted) - log_partition(lat) - lat.n * c) < 1e-9
        assert abs(loss2 - loss) < 1e-9

    def test_marginals_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lat = random_lattice(rng)
            assert np.max(np.abs(marginals(lat).sum(axis=1) - 1.0)) < 1e-10

    def test_nll_loss_equals_nll_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lat = random_lattice(rng)
            y = list(rng.integers(0, lat.num_tags, size=lat.n))
            assert nll_loss(lat, y) == nll(lat, y)[0]

    def test_non_finite_emission_rejected(self):
        with pytest.raises(NumericError):
            TagLattice(np.array([[np.nan, 0.0]]), init_transitions(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            TagLattice(np.zeros((2, 3)), init_transitions(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_transition_rejected(self, value):
        T = init_transitions(2)
        T[0, 1] = value
        with pytest.raises(NumericError):
            TagLattice(np.zeros((2, 2)), T)

    def test_minus_inf_on_the_gold_path_raises(self):
        # the lattice is checked when built; a later edit reaches the loss check
        lat = TagLattice(np.zeros((2, 2)), init_transitions(2))
        lat.transitions[0, 1] = -np.inf
        for f in (nll, nll_loss):
            with pytest.raises(NumericError):
                f(lat, [0, 1])

    def test_lengths_must_cover_the_rows(self):
        for lengths in ([2, 2], [3, 0], [4]):
            with pytest.raises(ShapeError):
                TagLattice(np.zeros((3, 2)), init_transitions(2), lengths)


class TestLargeScores:
    """Scores near 1e3, where exp without the max shift overflows."""

    def lattices(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            lat = random_lattice(rng)
            yield TagLattice(lat.emissions * 1e3, lat.transitions)

    def test_log_partition_matches_enumeration(self):
        for lat in self.lattices(10):
            with np.errstate(over="raise"):
                logz = log_partition(lat)
            assert abs(logz - brute_logz(lat)) < 1e-8

    def test_marginals_sum_to_one(self):
        for lat in self.lattices(11):
            with np.errstate(over="raise"):
                p = marginals(lat)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-10

    def test_nll_finite_and_nonnegative(self):
        rng = np.random.default_rng(12)
        for lat in self.lattices(13):
            y = list(rng.integers(0, lat.num_tags, size=lat.n))
            with np.errstate(over="raise"):
                loss, dO, dT = nll(lat, y)
            assert np.isfinite(loss) and loss >= 0.0
            assert np.all(np.isfinite(dO)) and np.all(np.isfinite(dT))


class TestViterbi:
    def test_n1_argmax(self):
        T = init_transitions(3)
        T[3, :3] = [0.5, 0.0, -0.5]
        lat = TagLattice(np.array([[0.0, 1.0, 0.0]]), T)
        path, score = viterbi(lat)
        assert path == [1] and abs(score - 1.0) < 1e-12

    def test_forbidden_transition_avoided(self):
        # O weakly prefers O -> I-X, but that transition carries FORBIDDEN
        K = 3  # tags: 0=O, 1=B, 2=I
        T = init_transitions(K)
        T[0, 2] = FORBIDDEN
        O = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.5]])
        path, _ = viterbi(TagLattice(O, T))
        assert (path[0], path[1]) != (0, 2)

    def test_tie_breaks_to_lowest_tag(self):
        lat = TagLattice(np.zeros((3, 3)), init_transitions(3))
        path, score = viterbi(lat)
        assert path == [0, 0, 0] and score == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lat = random_lattice(rng)
            path, score = viterbi(lat)
            bpath, bscore = brute_viterbi(lat)
            assert path == bpath
            assert abs(score - bscore) < 1e-9

    def test_self_consistency(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            lat = random_lattice(rng)
            path, score = viterbi(lat)
            assert score == score_sequence(lat, path)

    def test_legal_mask_applied(self):
        K = 2
        T = init_transitions(K)
        T[0, 1] = 5.0   # attractive but will be masked off
        legal = np.ones((K + 2, K + 2), dtype=bool)
        legal[0, 1] = False
        lat = TagLattice(np.zeros((2, K)), T)
        path, _ = viterbi(lat, legal)
        assert (path[0], path[1]) != (0, 1)


def test_init_transitions_pins_boundary():
    T = init_transitions(4)
    assert np.all(T[:, 4] == FORBIDDEN)   # into start
    assert np.all(T[5, :] == FORBIDDEN)   # out of stop
    assert np.all(T[:4, :4] == 0.0)


_score = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def masked_lattices(draw):
    """A lattice with n <= 4 positions and K <= 3 tags plus a random legal mask."""
    n, K = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    T = init_transitions(K)
    T[:K, :K] = draw(hnp.arrays(np.float64, (K, K), elements=_score))
    T[K, :K] = draw(hnp.arrays(np.float64, K, elements=_score))
    T[:K, K + 1] = draw(hnp.arrays(np.float64, K, elements=_score))
    O = draw(hnp.arrays(np.float64, (n, K), elements=_score))
    legal = draw(hnp.arrays(np.bool_, (K + 2, K + 2)))
    return TagLattice(O, T), legal


@st.composite
def packed_batches(draw):
    """1-6 sentences of 1-6 positions over K <= 4 tags, with gold tags and,
    drawn or not, a random legal mask."""
    K = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    T = init_transitions(K)
    T[:K, :K] = draw(hnp.arrays(np.float64, (K, K), elements=_score))
    T[K, :K] = draw(hnp.arrays(np.float64, K, elements=_score))
    T[:K, K + 1] = draw(hnp.arrays(np.float64, K, elements=_score))
    O = draw(hnp.arrays(np.float64, (sum(lengths), K), elements=_score))
    y = draw(hnp.arrays(np.int64, sum(lengths), elements=st.integers(0, K - 1)))
    legal = draw(st.none() | hnp.arrays(np.bool_, (K + 2, K + 2)))
    return O, T, lengths, y, legal


class TestPackedBatch:
    """A lattice of several sentences is their lattices laid end to end."""

    @settings(max_examples=100, deadline=None)
    @given(case=packed_batches())
    def test_batch_equals_its_sentences_one_at_a_time(self, case):
        O, T, lengths, y, legal = case
        if legal is not None:
            T = np.where(legal, T, FORBIDDEN)
        loss, dO, dT = nll(TagLattice(O, T, lengths), y)
        path, _ = viterbi(TagLattice(O, T, lengths), legal)
        assert loss.shape == (len(lengths),)
        assert np.array_equal(nll_loss(TagLattice(O, T, lengths), y), loss)
        cuts = np.cumsum(lengths)[:-1]
        dT_sum, paths = np.zeros_like(T), []
        for b, (O_b, y_b, dO_b) in enumerate(zip(*(np.split(a, cuts) for a in (O, y, dO)))):
            one = TagLattice(O_b, T)
            [loss_b], dO_one, dT_one = nll(one, y_b)
            assert abs(loss[b] - loss_b) <= 1e-12
            assert np.allclose(dO_b, dO_one, rtol=0, atol=1e-12)
            dT_sum += dT_one
            paths += viterbi(one, legal)[0]
            # the batch's own log-partition of sentence b, against enumeration
            logz_b = loss[b] + score_sequence(one, y_b)
            assert abs(logz_b - brute_logz(one)) <= 1e-8
        assert np.allclose(dT, dT_sum, rtol=0, atol=1e-12)
        assert path == paths


class TestEnumerationProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=masked_lattices())
    def test_log_partition_matches_enumeration(self, case):
        lat, legal = case
        masked = TagLattice(lat.emissions, np.where(legal, lat.transitions, FORBIDDEN))
        for lattice in (lat, masked):
            want = brute_logz(lattice)
            assert abs(log_partition(lattice) - want) <= 1e-9 * max(1.0, abs(want))

    @settings(max_examples=200, deadline=None)
    @given(case=masked_lattices())
    def test_viterbi_matches_enumeration(self, case):
        lat, legal = case
        masked = TagLattice(lat.emissions, np.where(legal, lat.transitions, FORBIDDEN))
        for mask, lattice in ((None, lat), (legal, masked)):
            path, score = viterbi(lat, mask)
            assert score == score_sequence(lattice, path)
            scores = sorted(enumerate_scores(lattice).values(), reverse=True)
            assert abs(score - scores[0]) <= 1e-9 * max(1.0, abs(scores[0]))
            if len(scores) == 1 or scores[1] < scores[0] - 1e-6:
                assert path == brute_viterbi(lattice)[0]   # a clear winner

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexner import build_lexicon, knowledge_select, match_sentence
from lexner.lexicon import KNOWLEDGE_MODES
from lexner.errors import DataError

from conftest import BRIDGE_SENTENCE, BRIDGE_WORDS, naive_match_oracle


def words_of(lexicon, indices):
    return {lexicon.words[w] for w in indices}


class TestBuildLexicon:
    def test_six_words(self, bridge_lexicon):
        assert len(bridge_lexicon) == 6
        assert set(bridge_lexicon.words) == set(BRIDGE_WORDS)

    def test_short_word_skipped(self):
        lex = build_lexicon(["南"], None, dim=4)
        assert len(lex) == 0 and lex.n_skipped == 1

    def test_long_word_skipped(self):
        lex = build_lexicon(["南京", "一二三四五六七八九十并"], None, dim=4)
        assert len(lex) == 1 and lex.n_skipped == 1

    def test_duplicates_stored_once(self):
        lex = build_lexicon(["南京", "南京", "长江"], None, dim=4)
        assert len(lex) == 2

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            build_lexicon([], None, dim=4)

    def test_index_order_is_length_then_lex(self, bridge_lexicon):
        assert list(bridge_lexicon.words) == sorted(
            bridge_lexicon.words, key=lambda w: (len(w), w))

    def test_table_rows_used(self, tmp_path):
        from lexner import EmbeddingTable
        table = EmbeddingTable({"南京": 0}, np.array([[1.0, 2.0, 3.0]]))
        lex = build_lexicon(["南京", "长江"], table)
        assert np.array_equal(lex.embeddings[lex.word_index["南京"]], [1, 2, 3])
        assert lex.n_random_init == 1
        assert lex.embeddings.shape == (2, 3)

    @pytest.mark.parametrize("covered", [(), ("长江", "南京市", "大桥")], ids=["no-table", "table"])
    def test_random_rows_equal_per_row_draws(self, covered):
        from lexner import EmbeddingTable, uniform_bound
        d = 5
        table_rows = np.arange(len(covered) * d, dtype=np.float64).reshape(-1, d) + 10.0
        table = EmbeddingTable({w: k for k, w in enumerate(covered)}, table_rows) if covered else None
        lex = build_lexicon(BRIDGE_WORDS, table, dim=d, rng=np.random.default_rng(11))
        # reference: one Generator.uniform call per uncovered word, in word-index order
        rng, b = np.random.default_rng(11), uniform_bound(d)
        for k, w in enumerate(lex.words):
            if w in covered:
                expected = table_rows[covered.index(w)]
            else:
                expected = rng.uniform(-b, b, size=d)
            assert lex.embeddings[k].tobytes() == expected.tobytes(), w
        assert lex.n_random_init == len(BRIDGE_WORDS) - len(covered)

    def test_longest_is_longest_kept_word(self):
        lex = build_lexicon(["南京", "长江大桥", "一二三四五六七八九十并"], None, dim=4)
        assert lex.longest == 4
        assert build_lexicon(["南"], None, dim=4).longest == 0

    def test_duplicates_in_sorted_list_keep_index_order(self):
        words = sorted(BRIDGE_WORDS * 2, key=lambda w: (len(w), w))
        lex = build_lexicon(words, None, dim=4, rng=np.random.default_rng(0))
        ref = build_lexicon(BRIDGE_WORDS, None, dim=4, rng=np.random.default_rng(0))
        assert lex.words == ref.words and lex.n_skipped == 0
        assert lex.embeddings.tobytes() == ref.embeddings.tobytes()


class TestMatchSentence:
    def test_bridge_slk_sets(self, bridge_lexicon):
        ms = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        lex = bridge_lexicon
        assert words_of(lex, ms.slk[1]) == {"南京", "南京市"}      # 京
        assert words_of(lex, ms.slk[4]) == {"长江", "长江大桥"}    # 江
        assert words_of(lex, ms.slk[5]) == {"长江大桥", "大桥"}    # 大

    def test_bridge_flk(self, bridge_lexicon):
        ms = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        assert words_of(bridge_lexicon, ms.fwd[1]) == set()
        assert words_of(bridge_lexicon, ms.bwd[1]) == {"南京"}
        assert words_of(bridge_lexicon, ms.flk[1]) == {"南京"}

    def test_empty_lexicon(self):
        lex = build_lexicon(["南"], None, dim=4)   # everything skipped
        ms = match_sentence(lex, BRIDGE_SENTENCE)
        assert all(s == () for s in ms.fwd + ms.bwd + ms.flk + ms.slk)

    def test_boundary_identities(self, bridge_lexicon):
        ms = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        n = len(BRIDGE_SENTENCE)
        assert ms.slk[0] == ms.bwd[1]
        assert ms.slk[n - 1] == ms.fwd[n - 2]

    def test_determinism(self, bridge_lexicon):
        a = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        b = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        assert a == b

    def test_set_ordering(self, bridge_lexicon):
        ms = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        for sets in (ms.fwd, ms.bwd, ms.flk, ms.slk):
            for s in sets:
                words = [bridge_lexicon.words[w] for w in s]
                assert words == sorted(words, key=lambda w: (len(w), w))

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(123)
        alphabet = list("abcde")
        for _ in range(200):
            n_words = 50
            words = {"".join(rng.choice(alphabet, size=rng.integers(2, 5)))
                     for _ in range(n_words)}
            lex = build_lexicon(sorted(words), None, dim=3, rng=rng)
            chars = tuple(rng.choice(alphabet, size=rng.integers(1, 16)))
            ms = match_sentence(lex, chars)
            fwd, bwd, flk, slk = naive_match_oracle(words, chars)
            for i in range(len(chars)):
                assert words_of(lex, ms.fwd[i]) == fwd[i]
                assert words_of(lex, ms.bwd[i]) == bwd[i]
                assert words_of(lex, ms.flk[i]) == flk[i]
                assert words_of(lex, ms.slk[i]) == slk[i]

    def test_slk_coverage_identity(self):
        # every word in slk[i] starts at i-1 or ends at i+1
        rng = np.random.default_rng(7)
        alphabet = list("abcd")
        for _ in range(50):
            words = {"".join(rng.choice(alphabet, size=rng.integers(2, 4)))
                     for _ in range(20)}
            lex = build_lexicon(sorted(words), None, dim=3, rng=rng)
            chars = tuple(rng.choice(alphabet, size=rng.integers(2, 12)))
            text = "".join(chars)
            ms = match_sentence(lex, chars)
            for i in range(len(chars)):
                for w in ms.slk[i]:
                    word = lex.words[w]
                    starts_at_prev = i >= 1 and text.startswith(word, i - 1)
                    ends_at_next = i + 2 >= len(word) and text[max(0, i + 2 - len(word)):i + 2] == word
                    assert starts_at_prev or ends_at_next

    def test_rejects_items_longer_than_one_character(self, bridge_lexicon):
        with pytest.raises(DataError):
            match_sentence(bridge_lexicon, ("南京", "市"))

    def test_accepts_sentence_objects(self, bridge_lexicon):
        from lexner import Sentence
        sent = Sentence(BRIDGE_SENTENCE, None, "x")
        assert match_sentence(bridge_lexicon, sent) == match_sentence(bridge_lexicon, BRIDGE_SENTENCE)


class TestKnowledgeSelect:
    def test_none_mode(self, bridge_lexicon):
        ms = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        sets = knowledge_select(ms, "none")
        assert all(s == () for s in sets)

    def test_slk_mode_is_definition(self, bridge_lexicon):
        ms = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        assert knowledge_select(ms, "slk") == ms.slk

    def test_both_mode_at_jing(self, bridge_lexicon):
        # flk(京) = {南京}, slk(京) = {南京, 南京市} -> union
        ms = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        sets = knowledge_select(ms, "both")
        assert words_of(bridge_lexicon, sets[1]) == {"南京", "南京市"}

    def test_unknown_mode(self, bridge_lexicon):
        ms = match_sentence(bridge_lexicon, BRIDGE_SENTENCE)
        with pytest.raises(ValueError):
            knowledge_select(ms, "third-order")


@st.composite
def matcher_cases(draw):
    """A lexicon, its length range and a sentence over one small alphabet.

    Characters are arbitrary Unicode code points (surrogates excluded);
    word lengths reach outside the kept range on both sides.
    """
    alphabet = draw(st.lists(st.characters(exclude_categories=("Cs",)),
                             min_size=1, max_size=4, unique=True))
    min_len = draw(st.integers(1, 3))
    max_len = draw(st.integers(min_len, 5))
    words = draw(st.lists(st.text(st.sampled_from(alphabet), min_size=1, max_size=7),
                          min_size=1, max_size=20))
    chars = tuple(draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=16)))
    return words, min_len, max_len, chars


class TestMatcherProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=matcher_cases())
    def test_matches_oracle_in_every_mode(self, case):
        words, min_len, max_len, chars = case
        lex = build_lexicon(words, None, dim=2, min_word_len=min_len, max_word_len=max_len)
        ms = match_sentence(lex, chars)
        fwd, bwd, flk, slk = naive_match_oracle(words, chars, min_len, max_len)
        expected = {"fwd": fwd, "bwd": bwd, "flk": flk, "slk": slk}
        expected["both"] = [a | b for a, b in zip(slk, flk)]
        expected["none"] = [set()] * len(chars)
        got = {"fwd": ms.fwd, "bwd": ms.bwd}
        got.update((mode, knowledge_select(ms, mode)) for mode in KNOWLEDGE_MODES)
        assert set(got) == set(expected)
        for key, sets in got.items():
            assert len(sets) == len(chars), key
            for i, s in enumerate(sets):
                assert list(s) == sorted(set(s)), (key, i)   # ascending, no repeats
                assert words_of(lex, s) == expected[key][i], (key, i)

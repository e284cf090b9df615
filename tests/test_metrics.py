from __future__ import annotations

import gc
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import (
    MeteorParams,
    MetricConfig,
    bleu,
    edit_distance_norm,
    evaluate_pair,
    exact_match,
    lcs_length,
    levenshtein,
    meteor,
    ngrams,
    rouge_l,
    rouge_n,
)
from evalkit.metrics import (
    _EXACT_ALIGN_NODE_BUDGET,
    CANONICAL_METRICS,
    _align,
    _align_greedy,
    _align_path,
    canonical_subset,
)
from evalkit.errors import ConfigError

from conftest import NL_MARKER
from oracles import (
    align_enumerate,
    align_memo,
    lcs_enumerate,
    lev_recursive,
    ngrams_nested_loop,
)

tokens = st.lists(st.sampled_from("abc"), max_size=8)


class TestNgrams:
    def test_bigrams_by_definition(self):
        grams = ngrams(["a", "b", "c"], 2)
        assert grams == {("a", "b"): 1, ("b", "c"): 1}

    def test_too_short_gives_empty(self):
        assert ngrams(["a", "b"], 4) == {}

    def test_counts_repeats(self):
        assert ngrams(["a", "a", "a"], 1) == {("a",): 3}

    def test_window_count(self):
        seq = list("abcdef")
        for n in range(1, 5):
            assert sum(ngrams(seq, n).values()) == max(0, len(seq) - n + 1)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)

    @given(seq=tokens, n=st.integers(1, 4))
    def test_matches_nested_loop_enumeration(self, seq, n):
        assert ngrams(seq, n) == ngrams_nested_loop(seq, n)


class TestRougeN:
    def test_identical_sequences(self):
        seq = list("abcdef")
        for n in range(1, 5):
            assert rouge_n(seq, seq, n) == (1.0, 1.0, 1.0)

    def test_one_token_difference_unigram(self):
        ref = ["if", "count", "%", "2", "!=", "0:"]
        pred = ["if", "count", "%", "2", "==", "0:"]
        p, r, f1 = rouge_n(pred, ref, 1)
        assert p == r == f1 == pytest.approx(5 / 6)

    def test_both_too_short(self):
        assert rouge_n(["a"], ["b"], 4) == (0.0, 0.0, 0.0)

    def test_clipping_uses_multiset_intersection(self):
        p, r, _ = rouge_n(["a", "a", "a"], ["a"], 1)
        assert p == pytest.approx(1 / 3)
        assert r == 1.0

    def test_swap_exchanges_p_and_r(self):
        pred, ref = list("abca"), list("acb")
        p1, r1, f1 = rouge_n(pred, ref, 1)
        p2, r2, f2 = rouge_n(ref, pred, 1)
        assert (p1, r1) == (r2, p2)
        assert f1 == pytest.approx(f2)


class TestLcs:
    def test_identity(self):
        seq = list("abcab")
        assert lcs_length(seq, seq) == len(seq)

    def test_disjoint_alphabets(self):
        assert lcs_length(list("aaa"), list("bbb")) == 0

    def test_symmetry(self):
        a, b = list("abcb"), list("bca")
        assert lcs_length(a, b) == lcs_length(b, a)

    @given(a=st.lists(st.sampled_from("abc"), max_size=10),
           b=st.lists(st.sampled_from("abc"), max_size=10))
    def test_matches_enumeration_oracle(self, a, b):
        assert lcs_length(a, b) == lcs_enumerate(a, b)


class TestRougeL:
    def test_push_pop_fixture(self):
        pred = f"push EAX{NL_MARKER}pop EDX".split()
        ref = "mov EDX, EAX".split()
        assert pred == ["push", "EAX", "\\n", "pop", "EDX"]
        p, r, f1 = rouge_l(pred, ref)
        assert f1 == pytest.approx(0.25)

    def test_identical(self):
        seq = list("abc")
        assert rouge_l(seq, seq) == (1.0, 1.0, 1.0)

    def test_single_byte_register_fixture(self):
        ref = f"xor EDX, EDX{NL_MARKER}mov DL, 5".split()
        pred = f"xor EDX, EDX{NL_MARKER}mov BL, 5".split()
        assert len(pred) == 7
        p, r, f1 = rouge_l(pred, ref)
        assert f1 == pytest.approx(6 / 7)

    def test_empty_operand_gives_zeros(self):
        assert rouge_l([], list("ab")) == (0.0, 0.0, 0.0)
        assert rouge_l(list("ab"), []) == (0.0, 0.0, 0.0)


class TestBleu:
    def test_identical_any_order_up_to_len(self):
        seq = list("abcd")
        for n in range(1, 5):
            assert bleu(seq, seq, max_n=n) == pytest.approx(1.0)

    def test_identical_shorter_than_max_n_still_one(self):
        seq = list("abc")
        assert bleu(seq, seq, max_n=4) == pytest.approx(1.0)

    def test_no_common_unigram_is_zero(self):
        assert bleu(list("abc"), list("xyz"), max_n=4) == 0.0
        assert bleu(list("abc"), list("xyz"), max_n=4, smoothing="epsilon") == 0.0

    def test_empty_prediction_is_zero(self):
        assert bleu([], list("abc"), max_n=4) == 0.0

    def test_push_pop_fixture_epsilon(self):
        pred = f"push EAX{NL_MARKER}pop EDX".split()
        ref = "mov EDX, EAX".split()
        score = bleu(pred, ref, max_n=4, smoothing="epsilon")
        # p1 = 1/5, p2..p4 smoothed to 0.1, BP = 1
        assert score == pytest.approx((0.2 * 0.1 ** 3) ** 0.25)
        assert score == pytest.approx(0.11, abs=0.03)

    def test_no_smoothing_zeroes_on_missing_ngram(self):
        pred = f"push EAX{NL_MARKER}pop EDX".split()
        ref = "mov EDX, EAX".split()
        assert bleu(pred, ref, max_n=4, smoothing="none") == 0.0

    def test_brevity_penalty(self):
        pred, ref = list("ab"), list("abcd")
        expected_bp = math.exp(1 - 4 / 2)
        assert bleu(pred, ref, max_n=1) == pytest.approx(expected_bp * 1.0)

    def test_max_n_one_equals_clipped_unigram_precision(self):
        rng = random.Random(13)
        for _ in range(200):
            pred = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
            ref = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
            if len(pred) < len(ref):
                continue
            pg, rg = ngrams(pred, 1), ngrams(ref, 1)
            clipped = sum((pg & rg).values()) / len(pred)
            if clipped == 0:
                assert bleu(pred, ref, max_n=1) == 0.0
            else:
                assert bleu(pred, ref, max_n=1) == pytest.approx(clipped)

    def test_bad_max_n_rejected(self):
        with pytest.raises(ValueError):
            bleu(list("ab"), list("ab"), max_n=5)

    def test_unknown_smoothing_rejected(self):
        with pytest.raises(ConfigError):
            bleu(list("ab"), list("ab"), smoothing="laplace")


class TestMeteor:
    def test_no_common_unigrams(self):
        assert meteor(list("abc"), list("xyz")) == 0.0

    def test_identical_six_tokens_closed_form(self):
        seq = ["t0", "t1", "t2", "t3", "t4", "t5"]
        expected = 1 - 0.5 * (1 / 6) ** 3
        assert meteor(seq, seq, MeteorParams(0.9, 3.0, 0.5)) == pytest.approx(expected)

    def test_push_pop_fixture(self):
        # punctuation-splitting tokenization, as the metric's usual tooling does
        pred = ["push", "EAX", "\\", "n", "pop", "EDX"]
        ref = ["mov", "EDX", ",", "EAX"]
        assert meteor(pred, ref) == pytest.approx(0.24, abs=0.04)

    def test_score_in_unit_interval_and_identity_floor(self):
        params = MeteorParams()
        for n in range(1, 9):
            seq = [f"t{i}" for i in range(n)]
            score = meteor(seq, seq, params)
            assert 1 - params.gamma <= score <= 1.0

    def test_alignment_prefers_fewer_chunks(self):
        # greedy first-unmatched pairing would split this into two chunks
        pred = ["b", "a"]
        ref = ["a", "b", "a"]
        m, chunks = _align(pred, ref)
        assert (m, chunks) == (2, 1)

    @settings(max_examples=300, deadline=None)
    @given(pred=st.lists(st.sampled_from("ab"), max_size=6),
           ref=st.lists(st.sampled_from("ab"), max_size=6))
    def test_alignment_matches_exhaustive_enumeration(self, pred, ref):
        assert _align(pred, ref) == align_enumerate(pred, ref)

    @settings(max_examples=200, deadline=None)
    @given(pair=st.sampled_from(["abc", "abcd"]).flatmap(
        lambda alphabet: st.tuples(st.lists(st.sampled_from(alphabet), max_size=8),
                                   st.lists(st.sampled_from(alphabet), max_size=8))))
    def test_alignment_matches_enumeration_on_three_or_four_symbols(self, pair):
        pred, ref = pair
        assert _align(pred, ref) == align_enumerate(pred, ref)

    # a 14-token repetitive pair and one-token edits of it; each filled the
    # former 10,000-state memo cap, whose greedy fallback counted up to 13 chunks
    _MOV = ["mov", "eax", ",", "eax"] * 3 + ["push", "eax"]

    @pytest.mark.parametrize("pred, ref", [
        (_MOV, _MOV),
        (_MOV[:1] + _MOV[2:], _MOV),
        (_MOV, _MOV[:1] + _MOV[2:]),
        (_MOV, _MOV[:3] + _MOV[4:]),
        (_MOV, _MOV[:1] + ["push"] + _MOV[2:]),
        (["eax"] + _MOV[1:], _MOV),
        (_MOV[:2] + ["eax"] + _MOV[2:], _MOV),
    ])
    def test_alignment_matches_uncapped_memo_oracle(self, pred, ref):
        assert _align(pred, ref) == align_memo(pred, ref)

    def test_alignment_matches_uncapped_memo_oracle_on_random_pairs(self):
        rng = random.Random(4)
        for _ in range(60):
            alphabet = rng.choice(["ab", "abc", "abcd"])
            pred = [rng.choice(alphabet) for _ in range(rng.randint(0, 11))]
            ref = [rng.choice(alphabet) for _ in range(rng.randint(0, 11))]
            assert _align(pred, ref) == align_memo(pred, ref), (pred, ref)

    def test_node_budget_returns_a_deterministic_maximal_alignment(self):
        # runs of "a a" can each link only two of the 16 reference copies, so
        # the optimum is 8 links below the bigram bound of 15; the search
        # cannot prove that within the budget
        pred = ["a", "a", "b"] * 133
        ref = ["a"] * 16
        result = _align_path(pred, ref)
        assert result[2] == "budget"
        assert _align_path(pred, ref) == result
        greedy_m, greedy_chunks = _align_greedy(pred, ref)
        assert result[0] == greedy_m == 16
        assert result[1] <= greedy_chunks
        assert _EXACT_ALIGN_NODE_BUDGET == 200_000

    def test_greedy_fallback_still_maximizes_matches(self):
        # references longer than the exact-search bound take the greedy path
        rng = random.Random(19)
        from collections import Counter

        for _ in range(50):
            pred = [rng.choice("abcd") for _ in range(rng.randint(1, 30))]
            ref = [rng.choice("abcd") for _ in range(rng.randint(17, 30))]
            cp, cr = Counter(pred), Counter(ref)
            expected_m = sum(min(c, cr[t]) for t, c in cp.items())
            m, chunks = _align(pred, ref)
            assert m == expected_m
            assert 1 <= chunks <= m
            assert 0.0 <= meteor(pred, ref) <= 1.0

    def test_exact_search_memo_is_freed_without_the_cyclic_collector(self):
        # a repetitive pair fills the exact search's memo (and overflows its cap)
        tokens = ["mov", "eax", ",", "eax"] * 3 + ["push", "eax"]
        gc.collect()
        gc.disable()
        try:
            assert _align(tokens, list(tokens)) == (14, 1)
            leftover = gc.collect()
        finally:
            gc.enable()
        assert leftover < 100

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            MeteorParams(alpha=1.0)
        with pytest.raises(ConfigError):
            MeteorParams(beta=0)
        with pytest.raises(ConfigError):
            MeteorParams(gamma=1.0)


class TestEditDistance:
    def test_modulo_fixture(self):
        score = edit_distance_norm("if count % 2 == 0:", "if count % 2 != 0:")
        assert score == pytest.approx(1 - 1 / 18)
        assert score == pytest.approx(0.94, abs=0.01)

    def test_identical(self):
        assert edit_distance_norm("mov eax, 5", "mov eax, 5") == 1.0

    def test_both_empty(self):
        assert edit_distance_norm("", "") == 1.0

    def test_one_empty(self):
        assert edit_distance_norm("", "abc") == 0.0
        assert edit_distance_norm("abc", "") == 0.0

    def test_symmetry_and_identity(self):
        rng = random.Random(5)
        for _ in range(100):
            a = "".join(rng.choice("ab,x ") for _ in range(rng.randint(0, 10)))
            b = "".join(rng.choice("ab,x ") for _ in range(rng.randint(0, 10)))
            assert edit_distance_norm(a, b) == edit_distance_norm(b, a)
            assert edit_distance_norm(a, a) == 1.0

    def test_length_lower_bound(self):
        rng = random.Random(6)
        for _ in range(200):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            if not a and not b:
                continue
            bound = abs(len(a) - len(b)) / max(len(a), len(b))
            assert 1 - edit_distance_norm(a, b) >= bound - 1e-12

    @given(a=st.text(alphabet="abc", max_size=8), b=st.text(alphabet="abc", max_size=8))
    def test_levenshtein_matches_recursive_definition(self, a, b):
        assert levenshtein(a, b) == lev_recursive(a, b)


class TestExactMatch:
    def test_identical(self):
        assert exact_match("mov eax, 5", "mov eax, 5") == 1

    def test_byte_vs_bytes(self):
        assert exact_match("for bytes in encoder:", "for byte in encoder:") == 0

    def test_empty_pair(self):
        assert exact_match("", "") == 1

    def test_trailing_whitespace_per_line_ignored(self):
        assert exact_match("mov eax, 5  \npop ebx", "mov eax, 5\npop ebx") == 1

    def test_leading_whitespace_matters(self):
        assert exact_match("  mov eax, 5", "mov eax, 5") == 0


class TestEvaluatePair:
    def test_identity_bundle(self, default_config):
        snippet = "xor EAX, EAX\nmov AL, 1"  # 7 tokens, so every order applies
        v = evaluate_pair(snippet, snippet, "assembly", default_config)
        assert v["EM"] == 1.0 and v["ED"] == 1.0 and v["CA"] == 1.0
        for name in CANONICAL_METRICS:
            if name.startswith(("ROUGE", "BLEU")):
                assert v[name] == 1.0, name
        assert v["METEOR"] >= 1 - default_config.meteor_params.gamma

    def test_empty_prediction_bundle(self, default_config):
        v = evaluate_pair("", "mov eax, 5", "assembly", default_config)
        assert v["EM"] == 0.0 and v["ED"] == 0.0
        for name in CANONICAL_METRICS:
            if name.startswith(("ROUGE", "BLEU")) or name == "METEOR":
                assert v[name] == 0.0, name

    def test_break_vs_sys_exit_row(self, default_config):
        v = evaluate_pair("sys.exit()", "break", "python-like", default_config)
        assert v["ROUGE-4-F1"] == 0.0
        assert v["EM"] == 0.0
        assert v["ED"] == pytest.approx(0.1, abs=0.03)

    def test_canonical_order_and_count(self, default_config):
        v = evaluate_pair("a", "a", "other", default_config)
        assert list(v) == list(CANONICAL_METRICS)
        assert len(v) == 23

    def test_metric_subset_config(self):
        cfg = MetricConfig(metrics=("ED", "EM"))
        v = evaluate_pair("a", "b", "other", cfg)
        assert list(v) == ["EM", "ED"]  # canonical order, not request order

    def test_ca_disabled_when_checker_none(self):
        cfg = MetricConfig(checker=None)
        v = evaluate_pair("a", "a", "other", cfg)
        assert "CA" not in v
        assert len(v) == 22

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            canonical_subset(("ED", "WER"))

    def test_all_scores_in_unit_interval(self, epsilon_config):
        rng = random.Random(17)
        chars = "abX5, \n()%!=0x"
        for _ in range(300):
            pred = "".join(rng.choice(chars) for _ in range(rng.randint(0, 14)))
            ref = "".join(rng.choice(chars) for _ in range(rng.randint(0, 14)))
            language = rng.choice(("assembly", "python-like", "other"))
            for value in evaluate_pair(pred, ref, language, epsilon_config).values():
                assert 0.0 <= value <= 1.0


class TestPublishedRows:
    """Remaining cherry-picked example rows with published scores."""

    def test_mul_register_row(self, default_config):
        ref = f"xor ECX, ECX{NL_MARKER}mul ECX"
        pred = f"xor ECX, ECX{NL_MARKER}mul EBX"
        v = evaluate_pair(pred, ref, "assembly", default_config)
        assert v["ED"] == pytest.approx(0.95, abs=0.01)
        assert v["ROUGE-4-F1"] == pytest.approx(0.66, abs=0.01)
        assert v["EM"] == 0.0

    def test_quote_style_row(self, default_config):
        ref = 'encoded = "\\\\x"'
        pred = "encoded = '\\\\x'"
        v = evaluate_pair(pred, ref, "python-like", default_config)
        assert v["ED"] == pytest.approx(0.87, abs=0.01)
        assert v["EM"] == 0.0
        assert v["ROUGE-4-F1"] == 0.0


class TestMonotoneContainment:
    @settings(max_examples=200, deadline=None)
    @given(pred=st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
           ref=st.lists(st.sampled_from("abc"), min_size=1, max_size=6))
    def test_appending_nonmatching_token_never_raises_rouge_precision(self, pred, ref):
        extended = pred + ["zzz"]  # token absent from ref: no new match
        for n in range(1, 5):
            p_before, _, _ = rouge_n(pred, ref, n)
            p_after, _, _ = rouge_n(extended, ref, n)
            assert p_after <= p_before + 1e-12

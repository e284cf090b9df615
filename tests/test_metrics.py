from __future__ import annotations

import concurrent.futures
import gc
import hashlib
import math
import random
import re
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import (
    MeteorParams,
    MetricConfig,
    bleu,
    edit_distance_norm,
    evaluate_corpus,
    evaluate_pair,
    exact_match,
    lcs_length,
    levenshtein,
    meteor,
    ngrams,
    rouge_l,
    rouge_n,
)
from evalkit import metrics
from evalkit.metrics import (
    BLEU_SMOOTHING_MODES,
    CANONICAL_METRICS,
    _align_greedy,
    _align_path,
    canonical_subset,
)
from evalkit.checkers import ASSEMBLY_CHECKER, PYTHON_LIKE_CHECKER, CheckResult, SyntaxChecker
from evalkit.corpus import LANGUAGES, Corpus
from evalkit.errors import CheckerError, ConfigError
from evalkit.textprep import CODE_TOKENIZER

from conftest import NL_MARKER, make_sample
from oracles import (
    align_enumerate,
    align_greedy_scan,
    align_memo,
    bleu_textbook,
    lcs_enumerate,
    lev_recursive,
    ngrams_nested_loop,
    rouge_n_textbook,
)

tokens = st.lists(st.sampled_from("abc"), max_size=8)

_ASM_REF = ["push", "ebp", "\n", "mov", "ebp", ",", "esp", "\n",
            "xor", "eax", ",", "eax", "\n", "pop", "ebp", "ret"]


def _pathological_pairs() -> list[tuple[list[str], list[str]]]:
    """Pairs with 16-token references that defeat greedy alignment: "a a b"
    repeated against 16 "a"s; 83 predictions of 20-400 tokens made of
    fragments of one assembly reference, as degenerate repetition in model
    output makes them; and 120 random 400 x 16 pairs over 5-12 symbols."""
    rng = random.Random(5)
    pairs = [(["a", "a", "b"] * 133, ["a"] * 16)]
    for _ in range(83):
        size = rng.randint(20, 400)
        pred: list[str] = []
        while len(pred) < size:
            a = rng.randrange(16)
            pred += _ASM_REF[a:a + rng.randint(1, 6)]
        pairs.append((pred[:size], _ASM_REF))
    for _ in range(120):
        symbols = "abcdefghijkl"[:rng.randint(5, 12)]
        pairs.append(([rng.choice(symbols) for _ in range(400)],
                      [rng.choice(symbols) for _ in range(16)]))
    return pairs


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

    @given(pred=tokens, ref=tokens, n=st.integers(1, 6))
    def test_matches_textbook_at_any_order(self, pred, ref, n):
        assert rouge_n(pred, ref, n) == rouge_n_textbook(pred, ref, n)

    def test_order_below_one_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                rouge_n(["a"], ["a"], n)

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

    @pytest.mark.parametrize("epsilon", [0, -0.1, 5, math.nan, math.inf])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(ConfigError, match="bleu epsilon must be in"):
            MetricConfig(bleu_smoothing="epsilon", bleu_epsilon=epsilon)
        with pytest.raises(ConfigError, match="bleu epsilon must be in"):
            bleu(list("abcd"), list("abxd"), smoothing="epsilon", epsilon=epsilon)

    def test_epsilon_of_one_accepted(self):
        assert MetricConfig(bleu_smoothing="epsilon", bleu_epsilon=1).bleu_epsilon == 1


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
        m, chunks = _align_path(pred, ref)[:2]
        assert (m, chunks) == (2, 1)

    @settings(max_examples=300, deadline=None)
    @given(pred=st.lists(st.sampled_from("ab"), max_size=6),
           ref=st.lists(st.sampled_from("ab"), max_size=6))
    def test_alignment_matches_exhaustive_enumeration(self, pred, ref):
        assert _align_path(pred, ref)[:2] == align_enumerate(pred, ref)

    @settings(max_examples=200, deadline=None)
    @given(pair=st.sampled_from(["abc", "abcd"]).flatmap(
        lambda alphabet: st.tuples(st.lists(st.sampled_from(alphabet), max_size=8),
                                   st.lists(st.sampled_from(alphabet), max_size=8))))
    def test_alignment_matches_enumeration_on_three_or_four_symbols(self, pair):
        pred, ref = pair
        assert _align_path(pred, ref)[:2] == align_enumerate(pred, ref)

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
        assert _align_path(pred, ref)[:2] == align_memo(pred, ref)

    def test_alignment_matches_uncapped_memo_oracle_on_random_pairs(self):
        rng = random.Random(4)
        for _ in range(60):
            alphabet = rng.choice(["ab", "abc", "abcd"])
            pred = [rng.choice(alphabet) for _ in range(rng.randint(0, 11))]
            ref = [rng.choice(alphabet) for _ in range(rng.randint(0, 11))]
            assert _align_path(pred, ref)[:2] == align_memo(pred, ref), (pred, ref)

    @settings(max_examples=150, deadline=None)
    @given(pair=st.sampled_from(["ab", "abc", "abcd"]).flatmap(
        lambda alphabet: st.tuples(st.lists(st.sampled_from(alphabet), max_size=12),
                                   st.lists(st.sampled_from(alphabet), max_size=12))))
    def test_alignment_matches_uncapped_memo_oracle_up_to_twelve_tokens(self, pair):
        pred, ref = pair
        assert _align_path(pred, ref)[:2] == align_memo(pred, ref)

    def test_repetitive_prediction_is_aligned_exactly(self):
        # runs of "a a" can each link only two of the 16 reference copies, so
        # the optimum is 8 links below the bigram bound of 15
        assert _align_path(["a", "a", "b"] * 133, ["a"] * 16) == (16, 8, "exact")

    # 16-token two-symbol pairs on which a search capped at 200,000 nodes
    # stopped above the fewest chunks; the expected values are align_memo's,
    # written out because that oracle takes over 10 s on each
    @pytest.mark.parametrize("pred, ref, expected", [
        ("babbabaabbabbabbbaaabbaa", "babbbabaaaaabbbb", (16, 4)),
        ("bababaabbbbaaaaaaabbbaab", "aabbbabaabaaabba", (16, 4)),
        ("aabbbaaabbaaabababbbaaba", "aaabbbbaababbabb", (16, 4)),
        ("abaababaaabbbabaabaaabab", "babababbababbbaa", (16, 5)),
        ("babaabbaabbaaababbbaabaa", "aaabbbbaabaaabaa", (16, 3)),
        # runs of equal segments at different reference positions, which the
        # search once tried again for each position
        ("aaaababbabbbbaaa", "abababbabbababab", (14, 6)),
        ("bbaaaaabbbabbbbabbababba", "aaabababaaaaaaaa", (13, 5)),
    ])
    def test_alignment_matches_memo_oracle_on_sixteen_token_pairs(self, pred, ref, expected):
        assert _align_path(list(pred), list(ref)) == (*expected, "exact")

    # sha256 of repr() of the list of (m, chunks, path) of _pathological_pairs,
    # as the search computed them before it skipped repeated segment multisets
    PATHOLOGICAL_SHA256 = "7fef6b4e618e695f1f0fc7f4a508ef3f6408e13044a89d31d1c2572bfa8c5e8b"

    def test_pathological_pairs_are_aligned_exactly_and_no_worse_than_greedy(self):
        from collections import Counter

        pairs = _pathological_pairs()
        assert len(pairs) == 204
        aligned = []
        for pred, ref in pairs:
            m, chunks, path = _align_path(pred, ref)
            greedy_m, greedy_chunks = _align_greedy(pred, ref)
            assert path == "exact"
            assert m == greedy_m == sum((Counter(pred) & Counter(ref)).values())
            assert 1 <= chunks <= greedy_chunks
            aligned.append((m, chunks, path))
        assert hashlib.sha256(repr(aligned).encode()).hexdigest() == self.PATHOLOGICAL_SHA256

    def test_greedy_fallback_still_maximizes_matches(self):
        # references longer than the exact-search bound take the greedy path
        rng = random.Random(19)
        from collections import Counter

        for _ in range(50):
            pred = [rng.choice("abcd") for _ in range(rng.randint(1, 30))]
            ref = [rng.choice("abcd") for _ in range(rng.randint(17, 30))]
            cp, cr = Counter(pred), Counter(ref)
            expected_m = sum(min(c, cr[t]) for t, c in cp.items())
            m, chunks = _align_path(pred, ref)[:2]
            assert m == expected_m
            assert 1 <= chunks <= m
            assert 0.0 <= meteor(pred, ref) <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(pair=st.sampled_from(["a", "ab", "abc"]).flatmap(
        lambda alphabet: st.tuples(st.lists(st.sampled_from(alphabet), max_size=60),
                                   st.lists(st.sampled_from(alphabet), max_size=60))))
    def test_greedy_alignment_matches_the_rescanning_form(self, pair):
        pred, ref = pair
        assert _align_greedy(pred, ref) == align_greedy_scan(pred, ref)

    def test_exact_search_memo_is_freed_without_the_cyclic_collector(self):
        # a pair that greedy cannot settle, so the exact search builds its tables
        pred, ref = list("babaabbaabbaaababbbaabaa"), list("aaabbbbaabaaabaa")
        gc.collect()
        gc.disable()
        try:
            assert _align_path(pred, ref) == (16, 3, "exact")
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

    @pytest.mark.parametrize("params", [
        {"beta": math.nan}, {"alpha": "x"}, {"beta": "3"}, {"gamma": None}, {"beta": True},
    ], ids=["nan-beta", "string-alpha", "string-beta", "null-gamma", "bool-beta"])
    def test_nan_and_non_numbers_rejected(self, params):
        with pytest.raises(ConfigError):
            MeteorParams(**params)


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

    @pytest.mark.parametrize("subset", [("BLEU-4",), ("ROUGE-2-R", "BLEU-1")])
    def test_ngram_subset_matches_full_vector(self, subset):
        full_cfg = MetricConfig(checker="none")
        cfg = MetricConfig(metrics=subset, checker="none")
        for pred, ref in (
            ("mov eax, 1\nmov ebx, 2\nint 0x80", "mov eax, 1\nmov ebx, 3\nint 0x80"),
            ("push eax\npop edx", "mov edx, eax"),
            ("a b a b a", "a b a"),
            ("", "a"),
        ):
            full = evaluate_pair(pred, ref, "assembly", full_cfg)
            assert evaluate_pair(pred, ref, "assembly", cfg) == {m: full[m] for m in subset}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), smoothing=st.sampled_from(BLEU_SMOOTHING_MODES))
    def test_ngram_metrics_equal_oracles_and_public_functions(self, data, smoothing):
        alphabet = "abc"[: data.draw(st.integers(2, 3), label="alphabet size")]
        side = st.lists(st.sampled_from(alphabet), max_size=12)
        pred, ref = data.draw(side, label="pred"), data.draw(side, label="ref")
        cfg = MetricConfig(bleu_smoothing=smoothing, checker="none")
        v = evaluate_pair(" ".join(pred), " ".join(ref), "other", cfg)
        for n in range(1, 5):
            got = tuple(v[f"ROUGE-{n}-{part}"] for part in ("P", "R", "F1"))
            assert got == rouge_n(pred, ref, n) == rouge_n_textbook(pred, ref, n), n
            expected = bleu_textbook(pred, ref, n, smoothing, cfg.bleu_epsilon)
            assert v[f"BLEU-{n}"] == bleu(pred, ref, n, smoothing, cfg.bleu_epsilon) == expected, n

    def test_ca_disabled_when_checker_none(self):
        cfg = MetricConfig(checker=None)
        v = evaluate_pair("a", "a", "other", cfg)
        assert "CA" not in v
        assert len(v) == 22

    @pytest.mark.parametrize("selector, expected", [
        ("none", (None, None, None)),
        (None, (None, None, None)),
        ("auto", (ASSEMBLY_CHECKER, PYTHON_LIKE_CHECKER, PYTHON_LIKE_CHECKER)),
        ("assembly", (ASSEMBLY_CHECKER,) * 3),
        ("python", (PYTHON_LIKE_CHECKER,) * 3),
        (ASSEMBLY_CHECKER, (ASSEMBLY_CHECKER,) * 3),
    ])
    def test_checker_resolved_per_language(self, selector, expected):
        cfg = MetricConfig(checker=selector)
        assert tuple(cfg.checker_for(lang) for lang in LANGUAGES) == expected

    def test_cmd_checker_resolved_for_every_language(self):
        cfg = MetricConfig(checker="cmd:true {file}")
        assert {(c.kind, c.command) for c in map(cfg.checker_for, LANGUAGES)} == {
            ("external-command", "true {file}")}

    @pytest.mark.parametrize("checker, message", [
        (5, "got 5"),
        (True, "got True"),
        (["auto"], "got ['auto']"),
        ("bogus", "unknown checker selector 'bogus'"),
        ("cmd:true", "{file}"),
    ])
    def test_bad_checker_rejected_at_construction(self, checker, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            MetricConfig(checker=checker)

    @pytest.mark.parametrize("tokenizers, message", [
        ({"asembly": CODE_TOKENIZER}, "tokenizers.asembly: not a corpus language"),
        ({"assembly": {"lowercase": True}}, "tokenizers.assembly must be a TokenizerConfig"),
        ({"other": None}, "tokenizers.other must be a TokenizerConfig"),
        ([("assembly", CODE_TOKENIZER)], "tokenizers must map languages"),
    ])
    def test_bad_tokenizers_rejected_at_construction(self, tokenizers, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            MetricConfig(tokenizers=tokenizers)

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


class TestEvaluateCorpus:
    @pytest.mark.parametrize("cfg, pools", [
        (MetricConfig(), 0),
        (MetricConfig(checker="python"), 0),
        (MetricConfig(metrics=("EM", "ED"), checker="cmd:false {file}"), 0),
        (MetricConfig(checker="cmd:true {file}"), 1),
    ], ids=["auto", "python", "external-checker-without-CA", "external-checker"])
    def test_samples_score_on_the_calling_thread_for_every_jobs(
        self, mini_corpus, monkeypatch, cfg, pools
    ):
        threads = []
        made = []
        original = metrics.evaluate_sample
        real_pool = concurrent.futures.ThreadPoolExecutor

        def recording(sample, cfg):
            threads.append(threading.get_ident())
            return original(sample, cfg)

        def counted_pool(*args, **kwargs):
            if not pools:
                raise AssertionError("a thread pool was made with no external check to run")
            made.append(args or kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(metrics, "evaluate_sample", recording)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted_pool)
        serial = evaluate_corpus(mini_corpus, cfg, jobs=1)
        assert evaluate_corpus(mini_corpus, cfg, jobs=3) == serial
        assert threads == [threading.get_ident()] * (2 * len(mini_corpus))
        assert made == [{"max_workers": 3}] * pools

    @staticmethod
    def _failing_checks(monkeypatch, fails, slow=()):
        """Patch the external check to take 20 ms (300 ms for snippets in
        slow) and to raise CheckerError when fails(snippet, call number) holds;
        returns the list of checked snippets."""
        calls = []
        lock = threading.Lock()

        def check(self, snippet):
            with lock:
                calls.append(snippet)
                number = len(calls)
            time.sleep(0.3 if snippet in slow else 0.02)
            if fails(snippet, number):
                raise CheckerError("checker failed to run")
            return CheckResult(True)

        monkeypatch.setattr(SyntaxChecker, "_check_external", check)
        return calls

    _external = MetricConfig(checker="cmd:true {file}")
    _samples = Corpus(tuple(
        make_sample(i, prediction=f"mov eax, {i}", language="assembly") for i in range(50)
    ))

    def test_a_failing_check_cancels_the_checks_not_yet_started(self, monkeypatch):
        calls = self._failing_checks(monkeypatch, lambda snippet, number: number == 1)
        with pytest.raises(CheckerError):
            evaluate_corpus(self._samples, self._external, jobs=2)
        assert len(calls) < 10

    def test_a_check_failing_behind_a_slow_one_cancels_at_once(self, monkeypatch):
        # this thread waits on sample 0's check while sample 1's fails: the
        # checks queued behind sample 1 must not start in the meantime
        calls = self._failing_checks(
            monkeypatch, lambda snippet, number: snippet == "mov eax, 1", slow={"mov eax, 0"})
        with pytest.raises(CheckerError):
            evaluate_corpus(self._samples, self._external, jobs=2)
        assert len(calls) < 10

    def test_a_failing_score_cancels_the_checks_not_yet_started(self, monkeypatch):
        calls = self._failing_checks(monkeypatch, lambda snippet, number: False)
        cfg = MetricConfig(tokenizers={"other": CODE_TOKENIZER}, checker="cmd:true {file}")
        with pytest.raises(ConfigError, match="no tokenizer configured"):
            evaluate_corpus(self._samples, cfg, jobs=2)
        assert len(calls) < 10

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, mini_corpus, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            evaluate_corpus(mini_corpus, MetricConfig(), jobs=jobs)


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

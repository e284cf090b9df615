"""The kernels against brute-force and textbook-DP oracles.

A Python int bit vector has no word size, but the carries and shifts of the
update must still be right across 30- and 64-bit digit boundaries, so lengths
around those boundaries (and past a few of them) are covered explicitly.
Levenshtein's diagonal-transition path is checked on edited strings, with
budgets on both sides of the distance, and at its switch to the bit-parallel
path.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evalkit
from evalkit import _kernels

from oracles import lcs_dp, lcs_enumerate, lev_dp, lev_recursive

# 0, 1, both sides of the 30-bit CPython digit and the 32/64/128-bit words, and a long case
BOUNDARY_LENGTHS = (0, 1, 2, 29, 30, 31, 59, 60, 61, 62, 63, 64, 65, 127, 128, 129, 300)

# ASCII code, newlines, a non-Latin letter and a non-BMP character
CHARS = "ab(): \n\t_=ïβ\U0001F600"

# repeated tokens and distinct-but-similar ones that only equal when concatenated
TOKENS = ("a", "b", "ab", "bc", "c", "(", ")", "\n", "\U0001F600", "x\U0001F600")


def _text(rng: random.Random, n: int, chars: str = CHARS) -> str:
    return "".join(rng.choice(chars) for _ in range(n))


def _apply_edits(text: str, edits) -> str:
    """`text` after (op, position, char) edits: s substitutes, i inserts, d deletes."""
    chars = list(text)
    for op, pos, ch in edits:
        p = pos % (len(chars) + 1)
        if op == "i":
            chars.insert(p, ch)
        elif p < len(chars):
            if op == "d":
                del chars[p]
            else:
                chars[p] = ch
    return "".join(chars)


def _check_lev(a: str, b: str) -> None:
    expected = lev_dp(a, b)
    assert _kernels.levenshtein(a, b) == expected, (a, b)
    assert _kernels.levenshtein(b, a) == expected, (b, a)


def _check_lcs(a: list[str], b: list[str]) -> None:
    expected = lcs_dp(a, b)
    assert _kernels.lcs_length(a, b) == expected, (a, b)
    assert _kernels.lcs_length(b, a) == expected, (b, a)


def test_backend_reports_a_known_name():
    assert evalkit.kernel_backend() == "python"


def test_levenshtein_against_recursive_definition():
    rng = random.Random(3)
    for _ in range(150):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        assert _kernels.levenshtein(a, b) == lev_recursive(a, b)


def test_lcs_against_enumeration():
    rng = random.Random(4)
    for _ in range(150):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 7))]
        b = [rng.choice("abc") for _ in range(rng.randint(0, 7))]
        assert _kernels.lcs_length(a, b) == lcs_enumerate(a, b)


def test_unicode_levenshtein():
    assert _kernels.levenshtein("naïve", "naive") == 1
    assert _kernels.levenshtein("αβγ", "αγ") == 1


def test_token_interning_does_not_conflate_tokens():
    # distinct strings must stay distinct ids even when equal-ish
    assert _kernels.lcs_length(["ab", "c"], ["a", "bc"]) == 0
    assert _kernels.lcs_length(["ab"], ["ab"]) == 1


def test_levenshtein_at_word_boundaries():
    rng = random.Random(11)
    for n in BOUNDARY_LENGTHS:
        for m in BOUNDARY_LENGTHS:
            _check_lev(_text(rng, n), _text(rng, m))


def test_lcs_at_word_boundaries():
    rng = random.Random(12)
    for n in BOUNDARY_LENGTHS:
        for m in BOUNDARY_LENGTHS:
            _check_lcs([rng.choice(TOKENS) for _ in range(n)], [rng.choice(TOKENS) for _ in range(m)])


def test_single_repeated_character():
    for n in BOUNDARY_LENGTHS:
        for m in BOUNDARY_LENGTHS:
            assert _kernels.levenshtein("a" * n, "a" * m) == abs(n - m)
            assert _kernels.levenshtein("a" * n, "b" * m) == max(n, m)
            assert _kernels.lcs_length(["a"] * n, ["a"] * m) == min(n, m)
            assert _kernels.lcs_length(["a"] * n, ["b"] * m) == 0
    _check_lev("a" * 129, "a" * 64 + "b" + "a" * 64)
    _check_lcs(["ab"] * 65, ["ab"] * 30 + ["a", "b"] + ["ab"] * 30)


def test_newline_heavy_code():
    rng = random.Random(13)
    lines = ["import socket", "    s.send(buf)", "", "for i in range(4):", "\tpass", "x = 0x41"]
    for _ in range(20):
        a = "\n".join(rng.choice(lines) for _ in range(rng.randint(0, 40)))
        chars = list(a)
        for _ in range(rng.randint(0, 12)):
            op = rng.randrange(3)
            p = rng.randrange(len(chars) + 1)
            if op == 0:
                chars.insert(p, rng.choice("\n \t:"))
            elif chars and p < len(chars):
                if op == 1:
                    del chars[p]
                else:
                    chars[p] = "\n"
        b = "".join(chars)
        _check_lev(a, b)
        _check_lcs(a.split(" "), b.split(" "))


def test_non_bmp_characters_count_as_one():
    smile, wink = "\U0001F600", "\U0001F609"
    assert _kernels.levenshtein(smile * 70, wink * 70) == 70
    assert _kernels.levenshtein("x" + smile, smile) == 1
    _check_lev(smile * 33 + "a", "a" + smile * 64)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet=CHARS, max_size=300), st.text(alphabet=CHARS, max_size=300))
def test_levenshtein_matches_dp(a, b):
    _check_lev(a, b)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=300), st.lists(st.sampled_from(TOKENS), max_size=300))
def test_lcs_matches_dp(a, b):
    _check_lcs(a, b)


# levenshtein sends unrelated strings, and short edited ones, to the
# bit-parallel path, so the edited case also calls diagonal transition directly.
EDITS = st.lists(st.tuples(st.sampled_from("sid"), st.integers(0, 10**6), st.sampled_from(CHARS)),
                 max_size=40)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=CHARS, max_size=600), EDITS)
def test_levenshtein_of_edited_strings_matches_dp(text, edits):
    edited = _apply_edits(text, edits)
    expected = lev_dp(text, edited)
    for a, b in ((text, edited), (edited, text)):
        assert _kernels.levenshtein(a, b) == expected
        # each operation makes at most one edit, so this budget always suffices
        assert _kernels._diagonal_transition(a, b, len(edits)) == expected


def test_diagonal_transition_is_exact_within_its_budget_and_none_past_it():
    rng = random.Random(21)
    pairs = []
    for _ in range(60):
        a = _text(rng, rng.randint(0, 200))
        edits = [(rng.choice("sid"), rng.randrange(10**6), rng.choice(CHARS)) for _ in range(rng.randint(0, 25))]
        pairs.append((a, _apply_edits(a, edits)))
        pairs.append((_text(rng, rng.randint(0, 40), "ab"), _text(rng, rng.randint(0, 40), "ab")))
    for a, b in pairs:
        dist = lev_dp(a, b)
        for budget in {0, 1, max(dist - 1, 0), dist, 50}:
            expected = dist if dist <= budget else None
            assert _kernels._diagonal_transition(a, b, budget) == expected, (a, b, budget)
            assert _kernels._diagonal_transition(b, a, budget) == expected, (b, a, budget)


@pytest.mark.parametrize("n", [30, 100, 460])
def test_pairs_that_differ_only_in_a_prefix_a_suffix_or_their_length(n):
    rng = random.Random(n)
    common = _text(rng, n)
    budget = _kernels._diagonal_budget(n, n)
    # the last k also takes the length difference past the budget of every pair below
    for k in sorted({1, budget, budget + 1, budget + 9}):
        head_a, head_b = _text(rng, k), _text(rng, k)
        _check_lev(head_a + common, head_b + common)
        _check_lev(common + head_a, common + head_b)
        _check_lev(common, common + head_a)
        _check_lev(head_a + common, common)
        _check_lev(common[: n // 2] + head_a + common[n // 2 :], common)

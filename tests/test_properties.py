"""Cross-cutting invariants checked with hypothesis."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import (
    MeteorParams,
    bleu,
    edit_distance_norm,
    exact_match,
    lcs_length,
    levenshtein,
    meteor,
    rouge_l,
    rouge_n,
)
from evalkit.corpus import LANGUAGES
from evalkit.metrics import (
    NGRAM_ORDERS,
    MetricConfig,
    _align_path,
    _clipped,
    _identical_counts,
    evaluate_pair,
)
from evalkit.textprep import TOKENIZER_MODES, TokenizerConfig, tokenize

snippet_text = st.text(alphabet="abX5,(%!= \n)", max_size=24)
token_lists = st.lists(st.sampled_from(["mov", "eax,", "ebx", "5", "\n", "push"]), max_size=10)


@given(pred=snippet_text, ref=snippet_text)
def test_every_string_metric_in_unit_interval(pred, ref):
    assert 0.0 <= edit_distance_norm(pred, ref) <= 1.0
    assert exact_match(pred, ref) in (0, 1)


@given(pred=token_lists, ref=token_lists, n=st.integers(1, 4))
def test_rouge_components_in_unit_interval(pred, ref, n):
    for value in (*rouge_n(pred, ref, n), *rouge_l(pred, ref)):
        assert 0.0 <= value <= 1.0


@given(pred=token_lists, ref=token_lists, max_n=st.integers(1, 4),
       smoothing=st.sampled_from(("none", "epsilon")))
def test_bleu_in_unit_interval(pred, ref, max_n, smoothing):
    assert 0.0 <= bleu(pred, ref, max_n=max_n, smoothing=smoothing) <= 1.0


@given(pred=token_lists, ref=token_lists)
def test_meteor_in_unit_interval(pred, ref):
    assert 0.0 <= meteor(pred, ref, MeteorParams()) <= 1.0


@given(pred=token_lists, ref=token_lists, n=st.integers(1, 4))
def test_rouge_swap_exchanges_precision_and_recall(pred, ref, n):
    p1, r1, f1 = rouge_n(pred, ref, n)
    p2, r2, f2 = rouge_n(ref, pred, n)
    assert p1 == r2 and r1 == p2
    assert abs(f1 - f2) < 1e-12
    lp1, lr1, lf1 = rouge_l(pred, ref)
    lp2, lr2, lf2 = rouge_l(ref, pred)
    assert lp1 == lr2 and lr1 == lp2
    assert abs(lf1 - lf2) < 1e-12


@given(a=snippet_text, b=snippet_text)
def test_edit_distance_symmetric(a, b):
    assert edit_distance_norm(a, b) == edit_distance_norm(b, a)
    assert levenshtein(a, b) == levenshtein(b, a)


@given(a=snippet_text)
def test_identity_scores(a):
    assert edit_distance_norm(a, a) == 1.0
    assert exact_match(a, a) == 1


@given(a=token_lists, b=token_lists)
def test_lcs_bounds_and_symmetry(a, b):
    value = lcs_length(a, b)
    assert 0 <= value <= min(len(a), len(b))
    assert value == lcs_length(b, a)
    assert lcs_length(a, a) == len(a)


@settings(max_examples=300)
@given(seq=st.lists(st.sampled_from("ab"), min_size=1, max_size=8))
def test_self_pair_identity_bundle(seq):
    for n in range(1, 5):
        p, r, f1 = rouge_n(seq, seq, n)
        if len(seq) >= n:
            assert p == r == f1 == 1.0
        else:
            assert p == r == f1 == 0.0  # no n-grams exist: zero-division rule
        assert bleu(seq, seq, max_n=n) == 1.0
    assert meteor(seq, seq) >= 1 - MeteorParams().gamma


TOKENIZERS = [TokenizerConfig(mode, newline, lower)
              for mode, newline, lower in product(TOKENIZER_MODES, (False, True), (False, True))]
METEOR_PARAMS = [MeteorParams(), MeteorParams(0.5, 1.0, 0.0), MeteorParams(0.1, 0.25, 0.99)]
# empty, whitespace only, every line ending and separator, and more than 16
# METEOR tokens
EDGE_TEXTS = ["", " ", " \t ", "\n", "\n\n", "\r", "\r\n", "a\r\nb", "\f", "\v", "x\f\vy\r",
              "MOV eax, [esp+4] ; push ebx , pop ecx xor eax eax int 0x80 ret dword (x) + 1"]
snippet_lines = st.lists(
    st.sampled_from(["mov", "MOV", "eax,", "(x)", "+=", "0x80", "a", "a", " ", "\t", "\f", "\v",
                     "\n", "\r\n", "\r", "\xa0"]),
    max_size=60,
).map("".join)


class _Unequal(str):
    """A string unequal to every string, so that evaluate_pair scores a pair
    of equal texts on the general path."""

    def __eq__(self, other):
        return False

    __hash__ = str.__hash__


def _assert_closed_form(text, tok, m_tok, smoothing, params):
    toks, m_toks = tokenize(text, tok), tokenize(text, m_tok)
    assert _identical_counts(len(toks)) == _clipped(toks, toks, NGRAM_ORDERS)
    assert lcs_length(toks, toks) == len(toks)
    assert _align_path(m_toks, m_toks)[:2] == (len(m_toks), min(len(m_toks), 1))
    assert levenshtein(text, text) == 0 and exact_match(text, text) == 1
    cfg = MetricConfig(tokenizers=dict.fromkeys(LANGUAGES, tok), meteor_tokenizer=m_tok,
                       bleu_smoothing=smoothing, meteor_params=params, checker="none")
    closed = evaluate_pair(text, text, "assembly", cfg)
    general = evaluate_pair(text, _Unequal(text), "assembly", cfg)
    assert list(closed) == list(general) and len(closed) == 22
    for name, value in closed.items():  # ==, not approx: the same formulas on the same counts
        assert value == general[name], (name, value, general[name])


@pytest.mark.parametrize("tok", TOKENIZERS, ids=repr)
def test_closed_form_counts_and_scores_on_edge_texts(tok):
    for text, m_tok, smoothing, params in product(
        EDGE_TEXTS, TOKENIZERS, ("none", "epsilon"), METEOR_PARAMS
    ):
        _assert_closed_form(text, tok, m_tok, smoothing, params)


@pytest.mark.parametrize("tok", TOKENIZERS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(text=snippet_lines, m_tok=st.sampled_from(TOKENIZERS),
       smoothing=st.sampled_from(("none", "epsilon")), params=st.sampled_from(METEOR_PARAMS))
def test_closed_form_counts_and_scores_equal_the_general_path(tok, text, m_tok, smoothing, params):
    _assert_closed_form(text, tok, m_tok, smoothing, params)

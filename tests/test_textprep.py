from __future__ import annotations

import logging
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import ConfigError, StandardizationMap, TokenizerConfig
from evalkit.cli import main
from evalkit.textprep import (
    compile_rules,
    default_rules,
    default_stopwords,
    destandardize,
    filter_stopwords,
    load_rules,
    load_stopwords,
    standardize,
    tokenize,
)
from evalkit.textprep import TOKENIZER_MODES

from oracles import tokenize_by_lines

WS = TokenizerConfig(mode="whitespace")
WS_NL = TokenizerConfig(mode="whitespace", newline_is_token=True)
PUNCT = TokenizerConfig(mode="code-punct")


class TestTokenize:
    def test_whitespace_splits_code_line_into_six_tokens(self):
        seq = tokenize("if count % 2 != 0:", WS)
        assert list(seq) == ["if", "count", "%", "2", "!=", "0:"]

    def test_empty_text_gives_empty_seq(self):
        for cfg in (WS, WS_NL, PUNCT):
            assert len(tokenize("", cfg)) == 0

    def test_newline_as_token_emits_marker(self):
        seq = tokenize("xor EDX, EDX\nmov DL, 5", WS_NL)
        assert list(seq) == ["xor", "EDX,", "EDX", "\n", "mov", "DL,", "5"]
        assert len(seq) == 7

    def test_newline_without_flag_acts_as_whitespace(self):
        assert list(tokenize("a\nb", WS)) == ["a", "b"]

    def test_consecutive_newlines_each_emit_a_token(self):
        assert list(tokenize("a\n\nb", WS_NL)) == ["a", "\n", "\n", "b"]

    def test_code_punct_splits_commas_and_operators(self):
        assert list(tokenize("mov EDX, EAX", PUNCT)) == ["mov", "EDX", ",", "EAX"]
        assert list(tokenize("if count % 2 != 0:", PUNCT)) == \
            ["if", "count", "%", "2", "!=", "0", ":"]
        assert list(tokenize("sys.exit()", PUNCT)) == ["sys", ".", "exit", "(", ")"]

    def test_code_punct_keeps_hex_literals_whole(self):
        assert list(tokenize("push 0x68732f2f", PUNCT)) == ["push", "0x68732f2f"]

    def test_lowercase_flag(self):
        assert list(tokenize("MOV EAX", TokenizerConfig(mode="whitespace", lowercase=True))) == \
            ["mov", "eax"]

    def test_crlf_normalized(self):
        assert list(tokenize("a\r\nb", WS_NL)) == ["a", "\n", "b"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            TokenizerConfig(mode="bytes")

    @pytest.mark.parametrize("flags", [
        {"lowercase": "false"}, {"newline_is_token": 1}, {"lowercase": None},
    ], ids=["string-lowercase", "int-newline", "null-lowercase"])
    def test_non_boolean_flags_rejected(self, flags):
        with pytest.raises(ConfigError, match="must be true or false"):
            TokenizerConfig(**flags)

    def test_returns_a_plain_tuple(self):
        assert tokenize("mov eax, 1", PUNCT) == ("mov", "eax", ",", "1")
        assert type(tokenize("ab", WS_NL)) is tuple

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=80))
    def test_never_emits_empty_tokens(self, text):
        for cfg in (WS, WS_NL, PUNCT):
            assert all(tok for tok in tokenize(text, cfg))

    @given(st.text(alphabet="ab c\t\n,(=!", max_size=60))
    def test_whitespace_join_retokenize_fixed_point(self, text):
        for cfg in (WS, WS_NL):
            once = list(tokenize(text, cfg))
            again = list(tokenize(" ".join(once), cfg))
            assert once == again

    # CR, LF, the four separators of "whitespace" tokens, characters that
    # str.split() or \s would also treat as space (NBSP, NEL, U+2028, U+3000,
    # U+001C), word, operator and bracket characters, and case pairs whose
    # lowercase differs in length
    _MIXED = st.lists(st.sampled_from(
        list("ab_Z09 \t\f\v\n\r,.:()[]+-*=<>!'\"#")
        + ["\r\n", "\xa0", "\x85", " ", "　", "\x1c", "İ", "\xdf", "\xe9"]
    ), max_size=60).map("".join) | st.text(alphabet=st.characters(codec="utf-8"), max_size=40)

    @settings(max_examples=300)
    @given(text=_MIXED)
    def test_one_scan_matches_the_line_by_line_tokenizer(self, text):
        for mode in TOKENIZER_MODES:
            for newline_is_token in (False, True):
                for lowercase in (False, True):
                    cfg = TokenizerConfig(mode, newline_is_token, lowercase)
                    expected = tokenize_by_lines(text, mode, newline_is_token, lowercase)
                    assert tokenize(text, cfg) == expected, cfg


class TestStopwords:
    def test_filter_preserves_order(self):
        stop = frozenset({"the", "to"})
        seq = tokenize("jump to the label", WS)
        assert list(filter_stopwords(seq, stop)) == ["jump", "label"]

    def test_idempotent(self):
        stop = frozenset({"the"})
        seq = filter_stopwords(tokenize("the a the b", WS), stop)
        assert list(filter_stopwords(seq, stop)) == list(seq)

    def test_all_stopwords_gives_empty(self):
        stop = frozenset({"a", "b"})
        assert list(filter_stopwords(tokenize("a b A B", WS), stop)) == []

    def test_matching_is_case_insensitive(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\n", encoding="utf-8")
        stop = load_stopwords(path)
        assert list(filter_stopwords(tokenize("THE end", WS), stop)) == ["end"]

    def test_from_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\neach  \n\nonto # trailing\n", encoding="utf-8")
        assert load_stopwords(path) == {"the", "each", "onto"}

    def test_file_of_only_comments_rejected(self, tmp_path, capsys):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\n\n   \n  # another\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="contains no words"):
            load_stopwords(path)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "intent": "the x", "reference": "r", "prediction": "p", '
                          '"language": "other"}\n', encoding="utf-8")
        assert main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     "--filter-stopwords", str(path)]) == 1
        assert capsys.readouterr().err == f"error: stopword file {path} contains no words\n"

    def test_default_stopwords_are_a_lowercase_set(self):
        stop = default_stopwords()
        assert type(stop) is frozenset and "the" in stop
        assert all(word == word.lower() for word in stop)


NUMERIC_RULE = compile_rules([("numeric-literal", r"(?<![\w.])\d+(?![\w.])")])
HEX_RULE = compile_rules([("hex-literal", r"0[xX][0-9a-fA-F]+")])


class TestStandardize:
    def test_numeric_literal_replaced(self):
        text, smap = standardize("move 5 in the lowest byte", NUMERIC_RULE)
        assert text == "move var0 in the lowest byte"
        assert dict(smap.entries) == {"var0": "5"}

    def test_no_match_is_identity_with_empty_map(self):
        text, smap = standardize("compare s1 with s2", compile_rules([("never", r"zzz")]))
        assert text == "compare s1 with s2"
        assert smap.entries == ()

    def test_two_hex_literals_in_textual_order(self):
        intent = "push 0x68732f2f then push 0x6e69622f"
        expected = [m.group() for m in HEX_RULE[0][1].finditer(intent)]
        text, smap = standardize(intent, HEX_RULE)
        assert text == "push var0 then push var1"
        assert [lit for _, lit in smap.entries] == expected

    def test_repeated_literal_reuses_placeholder(self):
        text, smap = standardize("push 0x1 then push 0x1", HEX_RULE)
        assert text == "push var0 then push var0"
        assert dict(smap.entries) == {"var0": "0x1"}

    def test_first_match_wins_among_rules(self):
        rules = compile_rules([("hex", r"0x[0-9a-f]+"), ("dec", r"\d+")])
        text, smap = standardize("use 0x10 now", rules)
        assert text == "use var0 now"
        assert dict(smap.entries) == {"var0": "0x10"}

    def test_invalid_regex_raises_config_error(self):
        with pytest.raises(ConfigError, match="rule 'bad': invalid regex"):
            compile_rules([("bad", "(")])

    def test_empty_matching_rule_rejected(self):
        with pytest.raises(ConfigError, match="rule 'weak': regex matches the empty string$"):
            compile_rules([("weak", "z*")])

    @pytest.mark.parametrize("rule, intent, offset", [
        (r"\b", "mov eax", 0),
        (r"(?<=i)", "i", 1),
    ], ids=["word-boundary", "lookbehind"])
    def test_rule_matching_empty_only_in_context_rejected(self, rule, intent, offset):
        # compile_rules lets these through; the scan must not loop or map ""
        rules = compile_rules([("ctx", rule)])
        with pytest.raises(ConfigError) as info:
            standardize(intent, rules)
        assert str(info.value) == f"rule 'ctx': regex matches the empty string at offset {offset}"

    @pytest.mark.parametrize("rules", [
        [("r", r"\d")],
        [*compile_rules([("hex", r"0x[0-9a-f]+")]), ("r", r"\d")],
    ], ids=["alone", "after-a-compiled-rule"])
    def test_uncompiled_rule_raises_type_error_naming_it(self, rules):
        with pytest.raises(TypeError) as info:
            standardize("x 1", rules)
        assert str(info.value) == "rule 'r' is not compiled (see compile_rules)"

    def test_precompiled_pattern_keeps_flags(self):
        rule = compile_rules([("reg", re.compile(r"\beax\b", re.IGNORECASE))])
        text, smap = standardize("move EAX here", rule)
        assert text == "move var0 here"
        assert dict(smap.entries) == {"var0": "EAX"}

    def test_placeholder_indices_are_dense(self):
        text, smap = standardize("mov eax, 1 and ebx, 2 and ecx, 3", NUMERIC_RULE)
        assert [ph for ph, _ in smap.entries] == ["var0", "var1", "var2"]
        for k in range(len(smap.entries)):
            assert f"var{k}" in text


class TestDestandardize:
    def test_basic_replacement(self):
        smap = StandardizationMap((("var0", "5"),))
        assert destandardize("mov eax, var0", smap) == "mov eax, 5"

    def test_snippet_without_placeholders_unchanged(self):
        smap = StandardizationMap((("var0", "5"),))
        assert destandardize("ret", smap) == "ret"

    def test_unknown_placeholder_left_intact_and_logged(self, caplog):
        smap = StandardizationMap((("var0", "5"),))
        with caplog.at_level(logging.WARNING, logger="evalkit.textprep"):
            out = destandardize("mov var0, var3", smap)
        assert out == "mov 5, var3"
        assert "var3" in caplog.text

    def test_var10_not_confused_with_var1(self):
        smap = StandardizationMap(
            tuple((f"var{i}", f"L{i}") for i in range(11))
        )
        assert destandardize("jmp var10 var1", smap) == "jmp L10 L1"

    def test_round_trip_on_random_rule_matching_intents(self):
        rng = random.Random(11)
        rules = default_rules()
        words = ["move", "the", "value", "into", "register", "label", "stack"]
        for _ in range(1000):
            parts = []
            for _ in range(rng.randint(1, 8)):
                kind = rng.random()
                if kind < 0.3:
                    parts.append(str(rng.randint(0, 99999)))
                elif kind < 0.5:
                    parts.append(hex(rng.randint(0, 2**32)))
                elif kind < 0.6:
                    parts.append(rng.choice(["eax", "EBX", "dl", "esp"]))
                else:
                    parts.append(rng.choice(words))
            intent = " ".join(parts)
            standardized, smap = standardize(intent, rules)
            assert destandardize(standardized, smap) == intent


class TestRulesFile:
    def test_load_rules_ordered(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# built-ins\nhex=0x[0-9a-f]+\ndec=\\d+\n", encoding="utf-8")
        rules = load_rules(path)
        assert [name for name, _ in rules] == ["hex", "dec"]

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("just-a-name\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_rules(path)

    def test_bad_regex_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("broken=(\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_rules(path)

    def test_default_rules_compile(self):
        assert [name for name, _ in default_rules()] == [
            "quoted-string", "hex-literal", "decimal-literal", "register-name"]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(["mov", "eax,", "5", "\n", "the"]), max_size=12))
def test_filter_stopwords_is_a_subsequence(tokens):
    stop = frozenset({"the", "5"})
    filtered = list(filter_stopwords(tuple(tokens), stop))
    it = iter(tokens)
    assert all(tok in it for tok in filtered)

"""The value types' public behaviour, pinned to what the frozen dataclasses
they once were did: equality, hashing, repr, immutability, copying and the
errors their constructors raise."""

from __future__ import annotations

import copy
import pickle

import pytest

from evalkit import (
    ASSEMBLY_CHECKER,
    CheckResult,
    ConfigError,
    Corpus,
    CorrelationRow,
    DataError,
    DescriptiveStats,
    MeteorParams,
    MetricConfig,
    OffsetRow,
    Partition,
    Sample,
    StandardizationMap,
    SyntaxChecker,
    TokenizerConfig,
)


def config_repr(smoothing: str, metrics: str, checker: str) -> str:
    code = "TokenizerConfig(mode='whitespace', newline_is_token=True, lowercase=False)"
    return (
        f"MetricConfig(tokenizers={{'assembly': {code}, 'python-like': {code}, 'other': {code}}}, "
        "meteor_tokenizer=TokenizerConfig(mode='code-punct', newline_is_token=True, "
        f"lowercase=False), bleu_smoothing='{smoothing}', bleu_epsilon=0.1, "
        "meteor_params=MeteorParams(alpha=0.9, beta=3.0, gamma=0.5), "
        f"metrics={metrics}, checker={checker})"
    )


ALL_METRICS = (
    "('CA', 'ROUGE-1-P', 'ROUGE-1-R', 'ROUGE-1-F1', 'ROUGE-2-P', 'ROUGE-2-R', 'ROUGE-2-F1', "
    "'ROUGE-3-P', 'ROUGE-3-R', 'ROUGE-3-F1', 'ROUGE-4-P', 'ROUGE-4-R', 'ROUGE-4-F1', "
    "'ROUGE-L-P', 'ROUGE-L-R', 'ROUGE-L-F1', 'BLEU-1', 'BLEU-2', 'BLEU-3', 'BLEU-4', 'EM', "
    "'METEOR', 'ED')"
)
SAMPLE = "Sample(id='a', intent='i', reference='r', prediction='p', sc=1, language='assembly')"

# name: (a factory, a factory of an instance unequal to its result, the repr
# of its result)
VALUES = {
    "Sample": (
        lambda: Sample("a", "i", "r", "p", 1, "assembly"),
        lambda: Sample("a", "i", "r", "p", 0, "assembly"),
        SAMPLE,
    ),
    "Sample-defaults": (
        lambda: Sample(id="x", intent="", reference="mov eax, 1", prediction="ret"),
        lambda: Sample(id="x", intent="", reference="mov eax, 1", prediction="ret", sc=0),
        "Sample(id='x', intent='', reference='mov eax, 1', prediction='ret', sc=None, "
        "language='other')",
    ),
    "Corpus": (
        lambda: Corpus((Sample("a", "i", "r", "p", 1, "assembly"),), {"source": "c.jsonl"}),
        lambda: Corpus((Sample("a", "i", "r", "p", 1, "assembly"),)),
        f"Corpus(samples=({SAMPLE},), provenance={{'source': 'c.jsonl'}})",
    ),
    "Corpus-defaults": (
        lambda: Corpus(()),
        lambda: Corpus((), {"split": "test"}),
        "Corpus(samples=(), provenance={})",
    ),
    "CheckResult": (
        lambda: CheckResult(False, "line 1: bad"),
        lambda: CheckResult(False),
        "CheckResult(accepted=False, diagnostic='line 1: bad')",
    ),
    "CheckResult-defaults": (
        lambda: CheckResult(True),
        lambda: CheckResult(False),
        "CheckResult(accepted=True, diagnostic='')",
    ),
    "SyntaxChecker": (
        lambda: SyntaxChecker("external-command", "as {file}", 2),
        lambda: SyntaxChecker("external-command", "as {file}", 3),
        "SyntaxChecker(kind='external-command', command='as {file}', timeout=2)",
    ),
    "SyntaxChecker-defaults": (
        lambda: SyntaxChecker(kind="builtin-assembly-subset"),
        lambda: SyntaxChecker(kind="builtin-python-like"),
        "SyntaxChecker(kind='builtin-assembly-subset', command='', timeout=10.0)",
    ),
    "TokenizerConfig": (
        lambda: TokenizerConfig("code-punct", True, False),
        lambda: TokenizerConfig("code-punct", True, True),
        "TokenizerConfig(mode='code-punct', newline_is_token=True, lowercase=False)",
    ),
    "TokenizerConfig-defaults": (
        lambda: TokenizerConfig(),
        lambda: TokenizerConfig("code-punct"),
        "TokenizerConfig(mode='whitespace', newline_is_token=False, lowercase=False)",
    ),
    "StandardizationMap": (
        lambda: StandardizationMap((("var0", "0x10"), ("var1", "eax"))),
        lambda: StandardizationMap((("var0", "0x10"),)),
        "StandardizationMap(entries=(('var0', '0x10'), ('var1', 'eax')))",
    ),
    "StandardizationMap-defaults": (
        lambda: StandardizationMap(),
        lambda: StandardizationMap((("var0", "1"),)),
        "StandardizationMap(entries=())",
    ),
    "MeteorParams": (
        lambda: MeteorParams(0.5, 2, 0.25),
        lambda: MeteorParams(0.5, 2, 0.5),
        "MeteorParams(alpha=0.5, beta=2, gamma=0.25)",
    ),
    "MeteorParams-defaults": (
        lambda: MeteorParams(),
        lambda: MeteorParams(alpha=0.5),
        "MeteorParams(alpha=0.9, beta=3.0, gamma=0.5)",
    ),
    "MetricConfig-defaults": (
        lambda: MetricConfig(),
        lambda: MetricConfig(checker="assembly"),
        config_repr("none", ALL_METRICS, "'auto'"),
    ),
    "MetricConfig-no-checker": (
        lambda: MetricConfig(metrics=("ED", "CA", "BLEU-1"), checker="none"),
        lambda: MetricConfig(metrics=("ED", "BLEU-1"), checker="none", bleu_epsilon=0.2),
        config_repr("none", "('BLEU-1', 'ED')", "None"),
    ),
    "MetricConfig-checker-object": (
        lambda: MetricConfig(checker=ASSEMBLY_CHECKER, bleu_smoothing="epsilon"),
        lambda: MetricConfig(checker=ASSEMBLY_CHECKER),
        config_repr(
            "epsilon", ALL_METRICS,
            "SyntaxChecker(kind='builtin-assembly-subset', command='', timeout=10.0)",
        ),
    ),
    "Partition": (
        lambda: Partition("whole", ("a", "b")),
        lambda: Partition("correct", ("a", "b")),
        "Partition(kind='whole', ids=('a', 'b'))",
    ),
    "OffsetRow": (
        lambda: OffsetRow("BLEU-1", 0.25, 0.5),
        lambda: OffsetRow("BLEU-1", 0.25, 0.75),
        "OffsetRow(metric='BLEU-1', mean_value=0.25, offset=0.5)",
    ),
    "CorrelationRow": (
        lambda: CorrelationRow("ED", None, 0.125, 7),
        lambda: CorrelationRow("ED", None, 0.125, 8),
        "CorrelationRow(metric='ED', pearson_r=None, kendall_tau=0.125, n=7)",
    ),
    "DescriptiveStats": (
        lambda: DescriptiveStats(0.0, 0.25, 0.5, 0.75, 1.0, 0.5, 0.125),
        lambda: DescriptiveStats(0.0, 0.25, 0.5, 0.75, 1.0, 0.5, 0.25),
        "DescriptiveStats(min=0.0, q1=0.25, median=0.5, q3=0.75, max=1.0, mean=0.5, std=0.125)",
    ),
}
# the types that hold a dict, so that hashing an instance raises TypeError
UNHASHABLE = (Corpus, MetricConfig)


@pytest.mark.parametrize("name", VALUES)
def test_equality_and_hashing_follow_the_fields(name):
    make, make_other, _ = VALUES[name]
    a, b, other = make(), make(), make_other()
    assert a == b and not a != b
    assert a != other and not a == other
    assert a.__eq__(object()) is NotImplemented
    assert a != (*vars(a).values(),)
    if isinstance(a, UNHASHABLE):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", VALUES)
def test_repr_names_every_field(name):
    make, _, expected = VALUES[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name][0]()
    field = next(iter(vars(value)))
    before = repr(value)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", VALUES)
def test_pickle_and_deepcopy_round_trip(name):
    value = VALUES[name][0]()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value
        assert repr(copied) == repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_replace_without_changes_gives_an_equal_copy(name):
    value = VALUES[name][0]()
    copied = value._replace()
    assert copied == value and copied is not value


def test_replace_changes_only_the_named_fields_and_runs_the_checks():
    sample = Sample("a", "i", "r", "p", 1, "assembly")
    assert repr(sample._replace(intent="x", prediction="q")) == (
        "Sample(id='a', intent='x', reference='r', prediction='q', sc=1, language='assembly')"
    )
    with pytest.raises(DataError, match="invalid sc 2"):
        sample._replace(sc=2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        sample._replace(bogus=1)


def test_metric_config_equality_ignores_the_resolved_checkers():
    a, b = MetricConfig(), MetricConfig()
    object.__setattr__(b, "_checkers", {})
    object.__setattr__(b, "_wanted", frozenset())
    assert a == b
    assert "_checkers" not in repr(a) and "_wanted" not in repr(a)
    assert pickle.loads(pickle.dumps(a)).checker_for("assembly") == ASSEMBLY_CHECKER


def test_syntax_checker_fields_are_the_ones_a_check_reads():
    assert SyntaxChecker._fields == ("kind", "command", "timeout")


def test_default_mappings_are_not_shared():
    assert MetricConfig().tokenizers is not MetricConfig().tokenizers
    assert Corpus(()).provenance is not Corpus(()).provenance


BAD_ARGUMENTS = [
    (lambda: Sample(), TypeError,
     "missing 4 required positional arguments: 'id', 'intent', 'reference', and 'prediction'"),
    (lambda: Sample("", "i", "r", "p"), DataError, "sample id must be nonempty"),
    (lambda: Sample("a", "i", "r", "p", 2), DataError, "sample 'a': invalid sc 2 (must be 0 or 1)"),
    (lambda: Sample("a", "i", "r", "p", None, "x"), DataError,
     "sample 'a': unknown language 'x' (expected one of assembly, python-like, other)"),
    (lambda: Sample("a", "i", "r", "p", None, "other", 1), TypeError,
     "takes from 5 to 7 positional arguments but 8 were given"),
    (lambda: Sample("a", "i", "r", "p", bogus=1), TypeError,
     "got an unexpected keyword argument 'bogus'"),
    (lambda: Corpus(), TypeError, "missing 1 required positional argument: 'samples'"),
    (lambda: Corpus((Sample("a", "", "", ""), Sample("a", "", "", ""))), DataError,
     "duplicate sample id 'a'"),
    (lambda: CheckResult(), TypeError, "missing 1 required positional argument: 'accepted'"),
    (lambda: SyntaxChecker("bogus"), ConfigError, "unknown checker kind 'bogus'"),
    (lambda: SyntaxChecker("external-command", "as"), ConfigError,
     "external checker needs a command template with {file}"),
    (lambda: SyntaxChecker("external-command", 'echo "{file}'), ConfigError,
     """external checker template 'echo "{file}': No closing quotation"""),
    (lambda: SyntaxChecker("external-command", "echo {file"), ConfigError,
     "external checker template 'echo {file': expected '}' before end of string"),
    (lambda: SyntaxChecker("external-command", "echo {x} {file}"), ConfigError,
     "no other replacement field, got 'echo {x} {file}'"),
    (lambda: SyntaxChecker("external-command", "echo {} {file}"), ConfigError,
     "no other replacement field, got 'echo {} {file}'"),
    (lambda: SyntaxChecker("external-command", "echo {{file}}"), ConfigError,
     "external checker needs a command template with {file} and no other replacement field, "
     "got 'echo {{file}}'"),
    (lambda: SyntaxChecker("external-command", None), ConfigError,
     "external checker template must be a string, got None"),
    (lambda: SyntaxChecker("external-command", "as {file}", float("nan")), ConfigError,
     "external checker needs a finite timeout > 0 seconds, got nan"),
    (lambda: SyntaxChecker("external-command", "as {file}", True), ConfigError,
     "external checker needs a finite timeout > 0 seconds, got True"),
    (lambda: TokenizerConfig("bogus"), ConfigError, "unknown tokenizer mode 'bogus'"),
    (lambda: TokenizerConfig("whitespace", 1), ConfigError,
     "tokenizer newline_is_token must be true or false, got 1"),
    (lambda: TokenizerConfig("whitespace", False, "yes"), ConfigError,
     "tokenizer lowercase must be true or false, got 'yes'"),
    (lambda: StandardizationMap((("var1", "a"),)), ValueError,
     "placeholder 'var1' breaks dense var0.. numbering"),
    (lambda: StandardizationMap((("var0", ""),)), ValueError,
     "placeholder 'var0' maps to an empty literal"),
    (lambda: StandardizationMap((("var0", "a"), ("var1", "a"))), ValueError,
     "placeholder map is not injective"),
    (lambda: MeteorParams(1.0), ConfigError, "meteor alpha must be in (0,1), got 1.0"),
    (lambda: MeteorParams(0.5, float("nan")), ConfigError, "meteor beta must be > 0, got nan"),
    (lambda: MeteorParams(0.5, 1, 1), ConfigError, "meteor gamma must be in [0,1), got 1"),
    (lambda: MeteorParams("0.5"), ConfigError, "meteor alpha must be a number, got '0.5'"),
    (lambda: MeteorParams(0.5, True), ConfigError, "meteor beta must be a number, got True"),
    (lambda: MetricConfig(metrics=("BOGUS",)), ConfigError, "unknown metric name(s): BOGUS"),
    (lambda: MetricConfig(bleu_smoothing="x"), ConfigError, "unknown BLEU smoothing 'x'"),
    (lambda: MetricConfig(bleu_epsilon=0), ConfigError, "bleu epsilon must be in (0, 1], got 0"),
    (lambda: MetricConfig(bleu_epsilon="x"), ConfigError, "bleu epsilon must be a number, got 'x'"),
    (lambda: MetricConfig(bleu_epsilon=None), ConfigError, "bleu epsilon must be a number, got None"),
    (lambda: MetricConfig(bleu_epsilon=True), ConfigError, "bleu epsilon must be a number, got True"),
    (lambda: MetricConfig(metrics=[1]), ConfigError, "metrics must be a list of metric names, got [1]"),
    (lambda: MetricConfig(metrics="EM"), ConfigError,
     "metrics must be a list of metric names, got 'EM'"),
    (lambda: MetricConfig(meteor_tokenizer="x"), ConfigError,
     "meteor_tokenizer must be a TokenizerConfig, got 'x'"),
    (lambda: MetricConfig(meteor_params="x"), ConfigError,
     "meteor_params must be a MeteorParams, got 'x'"),
    (lambda: MetricConfig(tokenizers=None), ConfigError,
     "tokenizers must map languages to TokenizerConfigs, got None"),
    (lambda: MetricConfig(tokenizers={"c": TokenizerConfig()}), ConfigError,
     "tokenizers.c: not a corpus language (expected one of assembly, python-like, other)"),
    (lambda: MetricConfig(tokenizers={"other": "x"}), ConfigError,
     "tokenizers.other must be a TokenizerConfig, got 'x'"),
    (lambda: MetricConfig(checker=5), ConfigError,
     "checker must be none, auto, assembly, python, cmd:<template>, a SyntaxChecker or None, "
     "got 5"),
    (lambda: MetricConfig(checker="bogus"), ConfigError, "unknown checker selector 'bogus'"),
    (lambda: MetricConfig(_checkers={}), TypeError, "got an unexpected keyword argument '_checkers'"),
    (lambda: Partition("whole"), TypeError, "missing 1 required positional argument: 'ids'"),
    (lambda: OffsetRow("x", 1), TypeError, "missing 1 required positional argument: 'offset'"),
    (lambda: CorrelationRow("x"), TypeError,
     "missing 3 required positional arguments: 'pearson_r', 'kendall_tau', and 'n'"),
    (lambda: DescriptiveStats(1, 2, 3), TypeError,
     "missing 4 required positional arguments: 'q3', 'max', 'mean', and 'std'"),
    (lambda: MetricConfig(metrics=("ED", "EM", "ED")), ConfigError, "metric 'ED' appears twice"),
    (lambda: SyntaxChecker("builtin-assembly-subset", suffix=".s"), TypeError,
     "got an unexpected keyword argument 'suffix'"),
]


@pytest.mark.parametrize("make, error, message", BAD_ARGUMENTS)
def test_bad_arguments_raise_as_before(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert message in str(info.value)  # Python 3.13 appends suggestions to some


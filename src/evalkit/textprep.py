"""Text preparation: tokenization, stopword filtering and intent standardization.

Tokenization is explicit and configurable because every token-based metric
depends on it; tokens come back as a plain tuple of strings. Standardization
replaces entity-like spans (numbers, hex literals, quoted strings, register
names) in natural-language intents with dense "var#" placeholders and is
inverted by destandardization on model output.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from pathlib import Path

from ._record import Record
from .corpus import open_utf8
from .errors import ConfigError

TOKENIZER_MODES = ("whitespace", "code-punct")

# A "whitespace" token is a run of anything but space, tab, \f, \v and
# newline; a "code-punct" token is a word run, an operator run or any other
# single non-space character. Tokens never span a newline, so one scan of the
# whole text finds them, each newline being a "\n" token when so configured.
_TOKEN = {
    "whitespace": r"[^ \t\f\v\n]+",
    "code-punct": r"[A-Za-z0-9_]+|[+\-*/%=!<>&|^~]+|\S",
}
_TOKEN_PATTERNS = {
    (mode, newline_is_token): re.compile(r"\n|" * newline_is_token + pattern)
    for mode, pattern in _TOKEN.items()
    for newline_is_token in (False, True)
}


class TokenizerConfig(Record):
    """How raw text is turned into tokens.

    mode "whitespace" splits on runs of spaces, tabs, form feeds and vertical
    tabs, and on nothing else; newlines either act as whitespace or emit a
    "\\n" token per newline_is_token. mode "code-punct" additionally splits
    commas, brackets and operator runs into standalone tokens.
    """

    _fields = ("mode", "newline_is_token", "lowercase")

    def __init__(
        self, mode: str = "whitespace", newline_is_token: bool = False, lowercase: bool = False
    ) -> None:
        if mode not in TOKENIZER_MODES:
            raise ConfigError(f"unknown tokenizer mode {mode!r}")
        for name, value in (("newline_is_token", newline_is_token), ("lowercase", lowercase)):
            if not isinstance(value, bool):
                raise ConfigError(f"tokenizer {name} must be true or false, got {value!r}")
        self.__dict__.update(mode=mode, newline_is_token=newline_is_token, lowercase=lowercase)


# Default for code snippets: keep case and newline structure.
CODE_TOKENIZER = TokenizerConfig(mode="whitespace", newline_is_token=True)


def tokenize(text: str, cfg: TokenizerConfig) -> tuple[str, ...]:
    """Split text into non-empty tokens according to cfg. Empty text yields none."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if cfg.lowercase:
        text = text.lower()
    return tuple(_TOKEN_PATTERNS[cfg.mode, cfg.newline_is_token].findall(text))


def load_stopwords(path) -> frozenset[str]:
    """Read a stopword file: one word per line, '#' starting a comment; the
    words come back lowercased. A file with no words raises ConfigError."""
    with open_utf8(path, error=ConfigError) as fh:
        words = frozenset(w for line in fh if (w := line.split("#", 1)[0].strip().lower()))
    if not words:
        raise ConfigError(f"stopword file {path} contains no words")
    return words


def filter_stopwords(seq: Iterable[str], stop: frozenset[str]) -> tuple[str, ...]:
    """Drop tokens whose lowercase form is in the lowercase set `stop`; order preserved."""
    return tuple(t for t in seq if t.lower() not in stop)


_PLACEHOLDER = re.compile(r"\bvar(\d+)\b")


class StandardizationMap(Record):
    """Ordered placeholder -> literal pairs for one intent.

    Placeholders are dense ("var0", "var1", ...) and the mapping is injective:
    repeated occurrences of the same literal share one placeholder.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[str, str], ...] = ()) -> None:
        for i, (ph, lit) in enumerate(entries):
            if ph != f"var{i}":
                raise ValueError(f"placeholder {ph!r} breaks dense var0.. numbering")
            if not lit:
                raise ValueError(f"placeholder {ph!r} maps to an empty literal")
        literals = [lit for _, lit in entries]
        if len(set(literals)) != len(literals):
            raise ValueError("placeholder map is not injective")
        self.__dict__.update(entries=entries)


def compile_rules(
    rules: Sequence[tuple[str, re.Pattern | str]]
) -> list[tuple[str, re.Pattern]]:
    """Compile (name, regex) pairs, rejecting bad patterns with a ConfigError.

    Already-compiled patterns pass through unchanged (flags preserved). Rules
    that match the empty string are rejected: they would standardize nothing
    while stalling the left-to-right scan. One that matches it only in
    context, such as \\b, passes here and is rejected by `standardize`.
    """
    compiled = []
    for name, pattern in rules:
        if not isinstance(pattern, re.Pattern):
            try:
                pattern = re.compile(pattern)
            except re.error as exc:
                raise ConfigError(f"rule {name!r}: invalid regex: {exc}") from exc
        if pattern.fullmatch(""):
            raise ConfigError(f"rule {name!r}: regex matches the empty string")
        compiled.append((name, pattern))
    return compiled


def load_rules(path) -> list[tuple[str, re.Pattern]]:
    """Read an ordered name=regex rules file ('#' starts a comment line)."""
    rules = []
    with open_utf8(path, error=ConfigError) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected name=regex, got {line!r}")
            name, pattern = line.split("=", 1)
            rules.append((name.strip(), pattern.strip()))
    if not rules:
        raise ConfigError(f"rules file {path} contains no rules")
    return compile_rules(rules)


_DATA = Path(__file__).parent / "data"  # the files installed with the package


def default_rules() -> list[tuple[str, re.Pattern]]:
    """The built-in entity rules of `data/rules_default.txt`, in priority order."""
    return load_rules(_DATA / "rules_default.txt")


def default_stopwords() -> frozenset[str]:
    """The built-in stopwords of `data/stopwords.txt`."""
    return load_stopwords(_DATA / "stopwords.txt")


def standardize(
    intent: str, rules: Sequence[tuple[str, re.Pattern]]
) -> tuple[str, StandardizationMap]:
    """Replace entity spans in `intent` with var0, var1, ... placeholders.

    `rules` are compiled (name, pattern) pairs, as `compile_rules`,
    `load_rules` and `default_rules` return them. Matching is left-to-right,
    first-match-wins: at each position the earliest match starts a
    replacement; among rules matching at the same position the one listed
    first wins. Identical literals reuse their placeholder. Returns the
    rewritten intent plus the map needed to invert the rewrite. A chosen
    match that is empty raises ConfigError naming the rule and the offset.
    """
    out: list[str] = []
    index: dict[str, int] = {}  # literal -> placeholder number, in order of first appearance
    pos = 0
    while pos < len(intent):
        best: re.Match | None = None
        try:
            for name, pattern in rules:
                m = pattern.search(intent, pos)
                if m is not None and (best is None or m.start() < best.start()):
                    best, rule = m, name
        except AttributeError:  # checked only on this path, so the scan pays nothing
            raise TypeError(f"rule {name!r} is not compiled (see compile_rules)") from None
        if best is None:
            out.append(intent[pos:])
            break
        if best.end() == best.start():
            raise ConfigError(
                f"rule {rule!r}: regex matches the empty string at offset {best.start()}"
            )
        out.append(intent[pos : best.start()])
        out.append(f"var{index.setdefault(best.group(), len(index))}")
        pos = best.end()
    smap = StandardizationMap(tuple((f"var{i}", lit) for i, lit in enumerate(index)))
    return "".join(out), smap


def destandardize(snippet: str, smap: StandardizationMap) -> str:
    """Replace every known var# placeholder in `snippet` with its literal.

    Placeholders without a map entry are left intact and logged; replacement is
    single-pass, so literals containing "var#" are never re-expanded.
    """
    mapping = dict(smap.entries)
    unknown: list[str] = []

    def sub(m: re.Match) -> str:
        ph = m.group()
        if ph in mapping:
            return mapping[ph]
        unknown.append(ph)
        return ph

    result = _PLACEHOLDER.sub(sub, snippet)
    if unknown:
        import logging  # the one use; most runs never load it

        logging.getLogger(__name__).warning("destandardize: no mapping for %s", ", ".join(sorted(set(unknown))))
    return result

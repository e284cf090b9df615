"""Syntax checkers behind the compilation-accuracy metric.

The builtin checkers are deliberately shallow line-shape grammars; real
toolchain checking is delegated to external commands run on a temp file with a
mandatory timeout. A snippet failing a check scores 0; checker infrastructure
problems (missing binary, sandbox failure) raise CheckerError instead.
"""

from __future__ import annotations

import math
import numbers
import os
import re
from pathlib import Path

from ._record import Record
from .errors import CheckerError, ConfigError

CHECKER_KINDS = ("builtin-assembly-subset", "builtin-python-like", "external-command")


class CheckResult(Record):
    _fields = ("accepted", "diagnostic")

    def __init__(self, accepted: bool, diagnostic: str = "") -> None:
        self.__dict__.update(accepted=accepted, diagnostic=diagnostic)


_LABEL = re.compile(r"[A-Za-z_.$][\w.$]*:")
_OPCODE = re.compile(r"[A-Za-z.][\w.]*$")

_PY_BLOCK_HEADS = frozenset(
    ("if", "elif", "else", "for", "while", "def", "class", "try", "except", "finally", "with")
)
_BRACKETS = {")": "(", "]": "[", "}": "{"}
# A string literal up to its closing quote, a backslash escaping any one
# character; else a bracket, or a quote that no closing quote follows.
_PY_SCAN = re.compile(r"""'(?:[^'\\]|\\[\s\S])*'|"(?:[^"\\]|\\[\s\S])*"|['"()\[\]{}]""")
# the word characters a line starts with
_PY_HEAD = re.compile(r"\w*")


def _check_assembly_line(line: str) -> str | None:
    """None when the line fits `label:`? `opcode (operand (, operand)*)?`."""
    line = line.split(";", 1)[0].strip()
    if not line:
        return None
    m = _LABEL.match(line)
    if m:
        line = line[m.end() :].strip()
        if not line:
            return None
    parts = line.split(None, 1)
    opcode = parts[0]
    if not _OPCODE.match(opcode):
        return f"bad opcode {opcode!r}"
    if len(parts) == 1:
        return None
    operands = parts[1]
    for operand in operands.split(","):
        if not operand.strip():
            return "empty operand"
    return None


def _check_python_like(snippet: str) -> str | None:
    """Bracket/quote balance plus colon endings on block-statement heads."""
    stack: list[str] = []
    # finditer, not findall: scanning on past an unterminated quote could try
    # every later quote to the end of the snippet
    for match in _PY_SCAN.finditer(snippet):
        token = match.group()
        if len(token) > 1:  # a whole string literal
            continue
        if token in "'\"":
            return "unterminated string"
        if token in "([{":
            stack.append(token)
        elif not stack or stack[-1] != _BRACKETS[token]:
            return f"unbalanced {token!r}"
        else:
            stack.pop()
    if stack:
        return f"unclosed {stack[-1]!r}"
    for line in snippet.split("\n"):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head = _PY_HEAD.match(stripped).group()
        if head in _PY_BLOCK_HEADS and not stripped.endswith(":"):
            return f"{head!r} statement missing ':'"
    return None


class SyntaxChecker(Record):
    """A named syntax check: builtin grammar or an external command template.

    External commands get the snippet path substituted for `{file}`, the one
    replacement field a template may hold, run under `timeout` seconds, and
    accept the snippet iff they exit 0.
    """

    _fields = ("name", "kind", "command", "timeout", "suffix")

    def __init__(
        self, name: str, kind: str, command: str = "", timeout: float = 10.0,
        suffix: str = ".txt",
    ) -> None:
        if kind not in CHECKER_KINDS:
            raise ConfigError(f"unknown checker kind {kind!r}")
        if kind == "external-command":
            import shlex
            import string

            if not isinstance(command, str):  # shlex.split(None) would read stdin
                raise ConfigError(f"external checker template must be a string, got {command!r}")
            try:  # every replacement field of every argument, as str.format reads it
                fields = {field[1:] for part in shlex.split(command)
                          for field in string.Formatter().parse(part) if field[1] is not None}
            except ValueError as exc:
                raise ConfigError(f"external checker template {command!r}: {exc}") from None
            if fields != {("file", "", None)}:
                raise ConfigError(
                    "external checker needs a command template with {file} and no other "
                    f"replacement field, got {command!r}"
                )
            if isinstance(timeout, bool) or not isinstance(timeout, numbers.Real) or not (
                0 < timeout < math.inf  # also rejects NaN
            ):
                raise ConfigError(
                    f"external checker needs a finite timeout > 0 seconds, got {timeout!r}"
                )
        self.__dict__.update(name=name, kind=kind, command=command, timeout=timeout, suffix=suffix)

    def check(self, snippet: str) -> CheckResult:
        if self.kind == "builtin-assembly-subset":
            for lineno, line in enumerate(snippet.split("\n"), 1):
                problem = _check_assembly_line(line)
                if problem:
                    return CheckResult(False, f"line {lineno}: {problem}")
            return CheckResult(True)
        if self.kind == "builtin-python-like":
            problem = _check_python_like(snippet)
            return CheckResult(problem is None, problem or "")
        return self._check_external(snippet)

    def _check_external(self, snippet: str) -> CheckResult:
        # imported here, so that a run with a builtin checker never loads them
        import shlex
        import subprocess
        import tempfile

        with tempfile.NamedTemporaryFile(
            "w", suffix=self.suffix, delete=False, encoding="utf-8"
        ) as fh:
            fh.write(snippet)
            path = Path(fh.name)
        try:
            argv = [part.format(file=str(path)) for part in shlex.split(self.command)]
            # stderr goes to a file, not a pipe, so a background child that
            # inherits it cannot hold the check open past the command's exit;
            # the command's own session lets the whole group be killed after
            with tempfile.TemporaryFile() as err:
                try:
                    proc = subprocess.Popen(
                        argv, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True
                    )
                except FileNotFoundError as exc:
                    raise CheckerError(f"checker command not found: {argv[0]!r}") from exc
                except OSError as exc:
                    raise CheckerError(f"checker failed to run: {exc}") from exc
                try:
                    returncode = proc.wait(timeout=self.timeout)
                except subprocess.TimeoutExpired:
                    return CheckResult(False, f"checker timed out after {self.timeout}s")
                finally:
                    _kill_group(proc)
                err.seek(0)
                stderr = err.read().decode("utf-8", "replace").strip()
            if returncode == 0:
                return CheckResult(True, stderr)
            return CheckResult(False, stderr or f"exit status {returncode}")
        finally:
            path.unlink(missing_ok=True)


def _kill_group(proc) -> None:
    """Kill every process left in the session group of `proc`, a
    subprocess.Popen, then reap `proc`."""
    import signal

    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


ASSEMBLY_CHECKER = SyntaxChecker(name="assembly-subset", kind="builtin-assembly-subset")
PYTHON_LIKE_CHECKER = SyntaxChecker(name="python-like", kind="builtin-python-like")


def checker_for_language(selector: str, language: str) -> SyntaxChecker | None:
    """Resolve a checker selector: none | auto | assembly | python | cmd:<template>."""
    if selector == "none":
        return None
    if selector == "assembly":
        return ASSEMBLY_CHECKER
    if selector == "python":
        return PYTHON_LIKE_CHECKER
    if selector == "auto":
        return ASSEMBLY_CHECKER if language == "assembly" else PYTHON_LIKE_CHECKER
    if selector.startswith("cmd:"):
        return SyntaxChecker(name="external", kind="external-command", command=selector[4:])
    raise ConfigError(f"unknown checker selector {selector!r}")

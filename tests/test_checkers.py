from __future__ import annotations

import os
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import ASSEMBLY_CHECKER, PYTHON_LIKE_CHECKER, CheckerError, SyntaxChecker
from evalkit.checkers import checker_for_language
from evalkit.errors import ConfigError
from evalkit.metrics import compilation_accuracy

from oracles import check_python_like_scan


def _running(pid: int) -> bool:
    """Whether `pid` is a live process (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: ask the kernel directly
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _gone(pid: int, grace: float = 1.0) -> bool:
    """True once `pid` has exited; a SIGKILL lands asynchronously, so allow a grace period."""
    deadline = time.monotonic() + grace
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestAssemblySubset:
    @pytest.mark.parametrize("snippet", [
        "mov eax, 5",
        "push 0x68732f2f",
        "ret",
        "loop: dec ecx",
        "xor EDX, EDX\nmov DL, 5",
        "cmp eax, ebx ; compare",
        "",
        "mov eax, dword [esp + 4]",
    ])
    def test_accepts(self, snippet):
        assert compilation_accuracy(snippet, ASSEMBLY_CHECKER) == 1

    @pytest.mark.parametrize("snippet", [
        "mov eax,",
        "mov , eax",
        ", eax",
        "mov eax,, ebx",
        "1stop eax",
    ])
    def test_rejects(self, snippet):
        assert compilation_accuracy(snippet, ASSEMBLY_CHECKER) == 0

    def test_diagnostic_names_line(self):
        result = ASSEMBLY_CHECKER.check("mov eax, 5\nmov eax,")
        assert not result.accepted
        assert "line 2" in result.diagnostic


class TestPythonLike:
    @pytest.mark.parametrize("snippet", [
        "if count % 2 != 0:",
        "for byte in encoder:",
        "break",
        "encoded = '\\\\x'",
        "val2 = int( chunk[i].encode('hex'), 16 ) ^ xor_byte",
        "x = {'a': [1, 2]}",
    ])
    def test_accepts(self, snippet):
        assert compilation_accuracy(snippet, PYTHON_LIKE_CHECKER) == 1

    @pytest.mark.parametrize("snippet", [
        "print(",
        "if x > 0",
        "x = 'unterminated",
        "x = [1, 2)",
        "for i in r:]",
    ])
    def test_rejects(self, snippet):
        assert compilation_accuracy(snippet, PYTHON_LIKE_CHECKER) == 0

    def test_escaped_quote_inside_string(self):
        assert compilation_accuracy("x = 'it\\'s'", PYTHON_LIKE_CHECKER) == 1

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(
        list("'\"\\()[]{}:#\n\t ab") + ["if ", "else", "for x in y", "def f", "x = ", "\\'"]
    ), max_size=30).map("".join))
    def test_scan_matches_the_character_loop(self, snippet):
        result = PYTHON_LIKE_CHECKER.check(snippet)
        problem = check_python_like_scan(snippet)
        assert (result.accepted, result.diagnostic) == (problem is None, problem or "")

    @pytest.mark.parametrize("snippet, diagnostic", [
        ("x = 'a\\'", "unterminated string"),
        ('x = ("a\\\\")', ""),
        ('x = ("a\\")', "unterminated string"),
        ('s = """\nfor x in y:\n"""', ""),
        # line heads are checked inside multi-line strings too: the grammar is shallow
        ('s = """\nfor x in y\n"""', "'for' statement missing ':'"),
        ("x = ')' + (\"[\"", "unclosed '('"),
        ("x = (1]", "unbalanced ']'"),
        ("for(x) in y", "'for' statement missing ':'"),
        ("  else", "'else' statement missing ':'"),
    ])
    def test_diagnostics(self, snippet, diagnostic):
        assert PYTHON_LIKE_CHECKER.check(snippet).diagnostic == diagnostic
        assert check_python_like_scan(snippet) == (diagnostic or None)


class TestExternal:
    def test_always_accepting_command(self):
        checker = SyntaxChecker(
            name="yes", kind="external-command",
            command=f"{sys.executable} -c pass {{file}}", timeout=30,
        )
        assert compilation_accuracy("anything at all", checker) == 1

    def test_rejecting_command_scores_zero_with_diagnostic(self):
        code = "import sys; sys.stderr.write('nope'); sys.exit(1)"
        checker = SyntaxChecker(
            name="no", kind="external-command",
            command=f'{sys.executable} -c "{code}" {{file}}', timeout=30,
        )
        result = checker.check("snippet")
        assert not result.accepted
        assert "nope" in result.diagnostic

    def test_snippet_lands_in_temp_file(self, tmp_path):
        # the checker compiles the snippet file itself: accepts iff valid python
        checker = SyntaxChecker(
            name="pyc", kind="external-command",
            command=f"{sys.executable} -m py_compile {{file}}", timeout=30, suffix=".py",
        )
        assert checker.check("x = 1\n").accepted
        assert not checker.check("x = = 1\n").accepted

    def test_timeout_scores_zero(self):
        checker = SyntaxChecker(
            name="slow", kind="external-command",
            command=f'{sys.executable} -c "import time; time.sleep(30)" {{file}}',
            timeout=0.2,
        )
        result = checker.check("snippet")
        assert not result.accepted
        assert "timed out" in result.diagnostic

    def test_background_child_neither_delays_nor_outlives_the_check(self, tmp_path):
        # the command exits 0 at once but leaves a child holding its stderr
        pidfile = tmp_path / "child.pid"
        checker = SyntaxChecker(
            name="bg", kind="external-command",
            command=f"sh -c 'sleep 3 & echo $! > {pidfile}; exit 0' {{file}}", timeout=1,
        )
        start = time.monotonic()
        result = checker.check("snippet")
        assert time.monotonic() - start < 0.5
        assert result.accepted
        assert _gone(int(pidfile.read_text()))

    def test_hanging_command_times_out_and_leaves_no_process(self, tmp_path):
        pidfile = tmp_path / "child.pid"
        checker = SyntaxChecker(
            name="hang", kind="external-command",
            command=f"sh -c 'sleep 30 & echo $! > {pidfile}; wait' {{file}}", timeout=0.5,
        )
        result = checker.check("snippet")
        assert not result.accepted
        assert result.diagnostic == "checker timed out after 0.5s"
        assert _gone(int(pidfile.read_text()))

    @pytest.mark.parametrize("template", [
        """sh -c 'test -s "$1"' sh {file}""",
        'sh -c \'test -s "$1"\' sh "{file}"',
        """sh -c 'test "$1" = "$2"' sh {file} {file}""",
        """sh -c 'case "$1" in --in=/*) test -s "${{1#--in=}}";; *) exit 1;; esac' sh --in={file}""",
    ], ids=["bare", "quoted", "twice", "inside-an-argument"])
    def test_template_with_only_file_fields_gets_the_snippet_file(self, template):
        # doubled braces are literal ones, as str.format reads them
        checker = SyntaxChecker(name="sh", kind="external-command", command=template, timeout=5)
        result = checker.check("snippet")
        assert result.accepted, result.diagnostic

    def test_missing_binary_raises_checker_error(self):
        checker = SyntaxChecker(
            name="ghost", kind="external-command",
            command="definitely-not-a-real-binary-anywhere {file}", timeout=5,
        )
        with pytest.raises(CheckerError):
            checker.check("snippet")

    def test_template_requires_file_placeholder(self):
        with pytest.raises(ConfigError):
            SyntaxChecker(name="bad", kind="external-command", command="true", timeout=5)

    def test_timeout_mandatory(self):
        # NaN would turn the timeout off, and True would pass for 1 second
        for timeout in (0, -1, None, float("nan"), float("inf"), True, "5"):
            with pytest.raises(ConfigError):
                SyntaxChecker(name="bad", kind="external-command", command="x {file}",
                              timeout=timeout)


class TestSelector:
    def test_auto_maps_by_language(self):
        assert checker_for_language("auto", "assembly") is ASSEMBLY_CHECKER
        assert checker_for_language("auto", "python-like") is PYTHON_LIKE_CHECKER
        assert checker_for_language("auto", "other") is PYTHON_LIKE_CHECKER

    def test_none_disables(self):
        assert checker_for_language("none", "assembly") is None

    def test_cmd_selector(self):
        checker = checker_for_language("cmd:nasm -f elf32 {file}", "assembly")
        assert checker.kind == "external-command"

    def test_unknown_selector_rejected(self):
        with pytest.raises(ConfigError):
            checker_for_language("fancy", "assembly")

"""Every module-level name in evalkit is used somewhere.

A def, class or assignment at the top level of a `src/evalkit` module must be
named again, outside its own statement, in `src/`, `tests/` or `perfbench/`.
A name counts as code or as a word inside a string, since the package
exports and perfbench's traced functions are listed by name in strings; a
comment does not count.
"""

from __future__ import annotations

import ast
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evalkit"


def _word_lines(path: Path) -> dict[str, set[int]]:
    """The lines on which each word of path's code and strings occurs."""
    lines: dict[str, set[int]] = defaultdict(set)
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in (tokenize.COMMENT, tokenize.ENCODING):
                continue
            for m in re.finditer(r"\w+", tok.string):
                lines[m.group()].add(tok.start[0] + tok.string.count("\n", 0, m.start()))
    return lines


def _definitions(path: Path):
    """(name, first line, last line) of each top-level def, class and assignment."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno


def test_every_module_level_name_is_named_again():
    words = {
        path: _word_lines(path)
        for tree in ("src", "tests", "perfbench")
        for path in sorted((ROOT / tree).rglob("*.py"))
    }
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(module):
            if name.startswith("__") and name.endswith("__"):
                continue
            # main runs a subcommand as globals()[f"cmd_{args.command}"], so
            # no cmd_* function is ever named in full
            if module.name == "cli.py" and name.startswith("cmd_"):
                continue
            if not any(
                path != module or not first <= line <= last
                for path, lines in words.items()
                for line in lines.get(name, ())
            ):
                dead.append(f"{module.relative_to(ROOT)}:{first}: {name}")
    assert dead == []

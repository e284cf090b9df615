"""Every module-level name in evalkit is used somewhere, and every name an
annotation reads is defined.

A def, class or assignment at the top level of a `src/evalkit` module must be
named again, outside its own statement, in `src/`, `tests/` or `perfbench/`.
A name counts as code or as a word inside a string, since the package
exports and perfbench's traced functions are listed by name in strings; a
comment does not count.
"""

from __future__ import annotations

import ast
import builtins
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


def test_every_annotation_reads_module_level_names():
    # the package postpones annotations, and typing.get_type_hints evaluates
    # one in its module's globals, nested functions' annotations included
    undefined = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        bound = set(dir(builtins))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        bound.update(name for name, _, _ in _definitions(module))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                notes = [arg.annotation for arg in every if arg is not None] + [node.returns]
            elif isinstance(node, ast.AnnAssign):
                notes = [node.annotation]
            else:
                continue
            for note in filter(None, notes):
                undefined.extend(
                    f"{module.relative_to(ROOT)}:{name.lineno}: {name.id}"
                    for name in ast.walk(note)
                    if isinstance(name, ast.Name) and name.id not in bound
                )
    assert undefined == []

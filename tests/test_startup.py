"""What importing evalkit loads, and what each command loads on first use.

Each check runs in a fresh interpreter, since the test process has long
imported everything. `-S` leaves out `site` and whatever it imports, so the
module set is evalkit's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import evalkit
from conftest import DATA_DIR

SRC = str(Path(evalkit.__file__).resolve().parent.parent)

# Modules that `eval` with a builtin checker never uses: dataclasses (and the
# inspect it loads), what the external checker and destandardize's warning
# use, fractions and random (with the decimal that fractions loads), and typing.
NOT_AT_IMPORT = (
    "dataclasses", "inspect", "subprocess", "tempfile", "signal", "shlex", "logging",
    "fractions", "decimal", "random", "typing",
)

# A fresh interpreter's report on the evalkit modules that have not run yet:
# `evalkit.stats` and `evalkit.report` sit in sys.modules unrun until an
# attribute is read.
UNRUN = (
    "unrun = sorted(name for name, module in sys.modules.items()\n"
    "               if name.startswith('evalkit') and type(module) is not types.ModuleType)\n"
)


def run_python(code: str, *args: str) -> dict:
    """Run `code` under `python -S` with evalkit importable; its last line of
    output, which must be JSON, parsed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_cli_loads_only_what_eval_runs():
    result = run_python(
        "import json, sys, types\n"
        "import evalkit.cli\n" + UNRUN +
        "print(json.dumps({'modules': sorted(sys.modules), 'unrun': unrun}))\n"
    )
    assert [m for m in NOT_AT_IMPORT if m in result["modules"]] == []
    # in sys.modules, where perfbench's tracer looks them up, but not run
    assert result["unrun"] == ["evalkit.report", "evalkit.stats"]


def test_eval_imports_nothing_after_import(tmp_path):
    corpus = DATA_DIR / "mini_corpus.jsonl"
    result = run_python(
        "import contextlib, io, json, sys\n"
        "import evalkit.cli\n"
        "added = []\n"
        "for jobs in ('1', '2'):\n"
        "    before = set(sys.modules)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = evalkit.cli.main(['eval', '--corpus', sys.argv[1], '--out', sys.argv[2],\n"
        "                                 '--jobs', jobs])\n"
        "    assert code == 0, code\n"
        "    added.append(sorted(set(sys.modules) - before))\n"
        "print(json.dumps(added))\n",
        str(corpus), str(tmp_path / "run"),
    )
    assert result == [[], []]


def test_preprocess_imports_nothing_after_import(tmp_path):
    corpus = DATA_DIR / "mini_corpus.jsonl"
    result = run_python(
        "import contextlib, io, json, sys\n"
        "import evalkit.cli\n"
        "corpus, out = sys.argv[1], sys.argv[2]\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [evalkit.cli.main(['preprocess', '--corpus', corpus, '--out', out,\n"
        "                               '--filter-stopwords']),\n"
        "             evalkit.cli.main(['preprocess', '--corpus', out + '/corpus.jsonl',\n"
        "                               '--out', out + '/back', '--destandardize',\n"
        "                               '--sidecar', out + '/standardization_maps.jsonl'])]\n"
        "print(json.dumps({'codes': codes, 'added': sorted(set(sys.modules) - before)}))\n",
        str(corpus), str(tmp_path / "std"),
    )
    assert result == {"codes": [0, 0], "added": []}


def test_analyze_and_external_checks_load_what_they_need(tmp_path):
    corpus = DATA_DIR / "mini_corpus.jsonl"
    result = run_python(
        "import contextlib, io, json, sys, types\n"
        "from evalkit.cli import main\n"
        "corpus, out = sys.argv[1], sys.argv[2]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['eval', '--corpus', corpus, '--out', out, '--jobs', '2',\n"
        "                   '--checker', 'cmd:true {file}']),\n"
        "             main(['analyze', '--corpus', corpus, '--results', out + '/results.csv',\n"
        "                   '--out', out + '/analysis'])]\n" + UNRUN +
        "print(json.dumps({'codes': codes, 'unrun': unrun,\n"
        "                  'loaded': [m for m in ('subprocess', 'tempfile') if m in sys.modules]}))\n",
        str(corpus), str(tmp_path / "run"),
    )
    assert result == {"codes": [0, 0], "unrun": [], "loaded": ["subprocess", "tempfile"]}
    with open(tmp_path / "run" / "results.csv", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    assert header.split(",")[1] == "CA"
    assert all(row.split(",")[1] == "1.000000" for row in rows)  # `true` accepts all
    assert (tmp_path / "run" / "analysis" / "correlation.csv").is_file()


def test_package_exports_resolve_on_first_access():
    result = run_python(
        "import json, sys\n"
        "from evalkit import correlate, OffsetRow, kendall_tau\n"
        "import evalkit\n"
        "missing = [name for name in evalkit.__all__ if not hasattr(evalkit, name)]\n"
        "try:\n"
        "    evalkit.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({'where': [correlate.__module__, OffsetRow.__module__,\n"
        "                            kendall_tau.__module__],\n"
        "                  'missing': missing,\n"
        "                  'unknown': unknown, 'in_dir': 'correlate' in dir(evalkit)}))\n"
    )
    assert result == {
        "where": ["evalkit.stats"] * 3,
        "missing": [],
        "unknown": "module 'evalkit' has no attribute 'no_such_name'",
        "in_dir": True,
    }

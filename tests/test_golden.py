"""Every output of the CLI pipeline, pinned by sha256 in tests/data/golden.json.

Each case builds one benchmark corpus with perfbench's generator (read, not
changed), writes it as perfbench's run.py does, and runs eval (--jobs 1 and
2), analyze, preprocess --filter-stopwords and --destandardize, and eval
with an external checker on the first 100 records. The manifest holds the
digest of every file in the case's directory, the corpora included (so a
change to the generator is told apart from a change to evalkit), and of
each command's exit status and stdout.

A change that alters an output on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py

and names each changed file and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from evalkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).parent / "data" / "golden.json"

# (workload, corpus size) of each generated corpus; each is built for seeds 1 and 2
SIZES = (("shellcode-asm", 1000), ("python-multiline", 60), ("asm-toolchain", 400))
CASES = [f"{workload}-{seed}" for workload, _ in SIZES for seed in (1, 2)]

# run in the case's directory, so every path an output records is relative
COMMANDS = (
    "eval --corpus corpus.jsonl --out e1 --jobs 1",
    "eval --corpus corpus.jsonl --out e2 --jobs 2",
    "analyze --corpus corpus.jsonl --results e1/results.csv --out a",
    "preprocess --corpus corpus.jsonl --out p --filter-stopwords",
    "preprocess --corpus p/corpus.jsonl --out d --destandardize --sidecar p/standardization_maps.jsonl",
    'eval --corpus head.jsonl --out c --jobs 2 --checker "cmd:test -s {file}"',
)


def _generators() -> dict:
    """perfbench's corpus generators, imported from its directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from gen import GENERATORS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return GENERATORS


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digests(case: str) -> dict[str, str]:
    """Build the case's corpus in the current directory, which must be empty,
    run its commands there, and return the digest of every file and command."""
    workload, seed = case.rsplit("-", 1)
    records, _ = _generators()[workload](dict(SIZES)[workload], int(seed))
    for name, part in (("corpus.jsonl", records), ("head.jsonl", records[:100])):
        with open(name, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(json.dumps(r, ensure_ascii=False) + "\n" for r in part)
    digests = {}
    for command in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main(shlex.split(command))
        digests[f"$ {command}"] = _sha256(f"{status}\n{stdout.getvalue()}".encode())
    for path in sorted(Path().rglob("*")):
        if path.is_file():
            digests[path.as_posix()] = _sha256(path.read_bytes())
    return digests


@pytest.mark.parametrize("case", CASES)
def test_golden_outputs(case, tmp_path, monkeypatch):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))[case]
    monkeypatch.chdir(tmp_path)
    got = case_digests(case)
    differ = sorted(key for key in {*expected, *got} if expected.get(key) != got.get(key))
    assert differ == [], f"{case}: outputs differ from {MANIFEST.name}"


if __name__ == "__main__":
    manifest = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            manifest[case] = case_digests(case)
            os.chdir(ROOT)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({sum(map(len, manifest.values()))} digests)")

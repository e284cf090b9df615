"""Every bad input ends in a documented exit code, never a traceback.

Small valid input files get bytes inserted, deleted or cut off, or go
missing, and `eval`, `analyze` or `preprocess` runs on them through `main`,
in-process. A data error (exit 2) prints one `error: ` line, which names one
of the input files. The `--checker` values are the builtin ones and
malformed `cmd:` templates, which are rejected before a command starts, so
no process runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.cli import main
from evalkit.metrics import CANONICAL_METRICS

RECORDS = [
    {"id": "a", "intent": "move 0x10 into eax", "reference": "mov eax, 0x10",
     "prediction": "mov eax, 16", "sc": 1, "language": "assembly"},
    {"id": "b", "intent": "if the 'count' is 2", "reference": "if count == 2:",
     "prediction": "if count = 2", "sc": 0, "language": "python-like"},
    {"id": "c", "intent": "return", "reference": "ret", "prediction": "ret", "language": "other"},
]


def _csv_line(values) -> str:
    return ",".join('"%s"' % str(v).replace('"', '""') for v in values) + "\n"


FILES = {
    "corpus.jsonl": "".join(json.dumps(r) + "\n" for r in RECORDS),
    "corpus.csv": _csv_line(RECORDS[0]) + "".join(
        _csv_line(r.get(k, "") for k in RECORDS[0]) for r in RECORDS
    ),
    "results.csv": ",".join(["id", *CANONICAL_METRICS]) + "\n" + "".join(
        ",".join([r["id"], *(f"{k / 40:.6f}" for k in range(len(CANONICAL_METRICS)))]) + "\n"
        for r in RECORDS
    ),
    "metrics.json": json.dumps({
        "metrics": ["CA", "BLEU-4", "METEOR", "ED"],
        "bleu": {"smoothing": "epsilon", "epsilon": 0.1},
        "meteor": {"alpha": 0.9, "beta": 3, "gamma": 0.5},
        "tokenizers": {"assembly": {"mode": "code-punct", "newline_is_token": True}},
    }),
    "rules.txt": "# name=regex\nhex=0[xX][0-9a-fA-F]+\nquoted='[^']*'\nreg=\\b(?:eax|ebx)\\b\n",
    "stopwords.txt": "the\nis\ninto\n",
    "maps.jsonl": '{"id": "a", "map": {"var0": "0x10", "var1": "eax"}}\n'
                  '{"id": "b", "map": {"var0": "\'count\'"}}\n',
}
INSERTS = [b"\xef\xbb\xbf", b"NaN", b"Infinity", b"1e400", b'"', b"'", b"\x00", b"\xff", b"\xc3",
           b"\\ud800", b","]
# each is rejected when the configuration is built, before any check runs
BAD_TEMPLATES = ['cmd:echo "{file}', "cmd:echo {x} {file}", "cmd:echo {} {file}",
                 "cmd:echo {{file}}"]

at = st.integers(0, 1000)
edits = st.lists(st.one_of(
    st.tuples(st.just("insert"), at, st.sampled_from(INSERTS)),
    st.tuples(st.just("delete"), at, st.integers(1, 12)),
    st.tuples(st.just("truncate"), at, st.just(None)),
), max_size=3)


def mutate(data: bytes, changes) -> bytes:
    for kind, position, arg in changes:
        position %= len(data) + 1
        if kind == "insert":
            data = data[:position] + arg + data[position:]
        elif kind == "delete":
            data = data[:position] + data[position + arg:]
        else:
            data = data[:position]
    return data


def command(choose) -> list[str]:
    """An argv naming the files of FILES and an `out` directory, built from
    what `choose(options)` picks out of each list of options."""
    corpus = ["--corpus", choose(["corpus.jsonl", "corpus.csv"]), "--out", "out"]
    name = choose(["eval", "analyze", "preprocess"])
    if name == "eval":
        return ["eval", *corpus, *choose([[], ["--metrics-config", "metrics.json"]]),
                "--checker", choose(["none", "auto", *BAD_TEMPLATES]),
                "--jobs", choose(["1", "2"])]
    if name == "analyze":
        return ["analyze", *corpus, "--results", "results.csv"]
    if choose([False, True]):
        return ["preprocess", *corpus, "--destandardize", "--sidecar", "maps.jsonl"]
    return ["preprocess", *corpus, *choose([[], ["--rules", "rules.txt"]]),
            *choose([[], ["--filter-stopwords"], ["--filter-stopwords", "stopwords.txt"]])]


@st.composite
def commands(draw) -> list[str]:
    return command(lambda options: draw(st.sampled_from(options)))


def every_command():
    """Each argv that `command` can build: every sequence of its choices is
    replayed once, a first pick of 0 queueing the other picks at that point."""
    queue = [()]
    while queue:
        path = queue.pop()
        taken: list[int] = []

        def choose(options):
            if len(taken) < len(path):
                pick = path[len(taken)]
            else:
                pick = 0
                queue.extend((*taken, other) for other in range(1, len(options)))
            taken.append(pick)
            return options[pick]

        yield command(choose)


def run_on(root: Path, argv: list[str]) -> tuple[int, str]:
    """main's exit status and stderr for `argv`, its file names taken in `root`."""
    args = [str(root / arg) if arg in FILES or arg == "out" else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(args)
    return code, err.getvalue()


def test_every_command_succeeds_on_the_unmutated_files():
    # so that no flag change leaves the fuzz test below only exercising argparse
    argvs = list(every_command())
    assert len(argvs) == 64 and {argv[0] for argv in argvs} == {"eval", "analyze", "preprocess"}
    for argv in argvs:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in FILES.items():
                (root / name).write_text(text, encoding="utf-8")
            code, err = run_on(root, argv)
        # a bad template, or a config asking for CA under `--checker none`, exits 1
        config_error = set(argv) & set(BAD_TEMPLATES) or {"metrics.json", "none"} <= set(argv)
        assert code == (1 if config_error else 0), (argv, err)


# a JSON value of another type for a field that takes a string, or a true/false sc
RETYPINGS = st.one_of(
    st.tuples(st.sampled_from(["intent", "reference", "prediction", "language"]),
              st.sampled_from([["mov", "eax"], 16, 0.5, {"text": "ret"}, True, False])),
    st.tuples(st.just("sc"), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(argv=commands(), changes=st.fixed_dictionaries({name: edits for name in FILES}),
       missing=st.sets(st.sampled_from(sorted(FILES)), max_size=1))
def test_malformed_inputs_exit_with_a_code_not_a_traceback(argv, changes, missing):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in FILES.items():
            if name not in missing:
                (root / name).write_bytes(mutate(text.encode("utf-8"), changes[name]))
        code, err = run_on(root, argv)
        assert code in (0, 1, 2, 3), (code, err)
        if code == 2:  # a data error: one message, naming the input file at fault
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1, err
            assert any(str(root / name) in errors[0] for name in FILES if name in argv), err


def reads_the_jsonl_corpus(argv) -> bool:
    """Whether `argv` gets as far as reading corpus.jsonl: a bad template, or
    CA under `--checker none`, is a configuration error reported first."""
    return ("corpus.jsonl" in argv and not set(argv) & set(BAD_TEMPLATES)
            and not {"metrics.json", "none"} <= set(argv))


@settings(max_examples=100, deadline=None)
@given(argv=commands().filter(reads_the_jsonl_corpus), record=st.integers(0, len(RECORDS) - 1),
       retyping=RETYPINGS)
def test_a_retyped_corpus_value_exits_2_naming_the_corpus(argv, record, retyping):
    key, value = retyping
    records = [dict(r, **{key: value}) if k == record else r for k, r in enumerate(RECORDS)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in FILES.items():
            (root / name).write_text(text, encoding="utf-8")
        (root / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records),
                                           encoding="utf-8")
        code, err = run_on(root, argv)
    assert code == 2, (code, err)
    assert err.startswith(f"error: {root / 'corpus.jsonl'}:{record + 1}"), err

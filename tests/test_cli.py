from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import random
import re
import shlex
import threading

import pytest

from evalkit import CheckerError, ConfigError, DataError, cli
from evalkit.checkers import SyntaxChecker
from evalkit.cli import main
from evalkit.metrics import CANONICAL_METRICS

from conftest import DATA_DIR


def run(*argv) -> int:
    return main([str(a) for a in argv])


def write_corpus_file(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return path


def corpus_text(name, records) -> str:
    """`records` as the text of a corpus file whose suffix is `name`'s."""
    if name.endswith(".csv"):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        return buf.getvalue()
    return "".join(json.dumps(r) + "\n" for r in records)


GOOD = [
    {"id": "a", "intent": "i1", "reference": "mov eax, 1", "prediction": "mov eax, 1",
     "sc": 1, "language": "assembly"},
    {"id": "b", "intent": "i2", "reference": "mov eax, 2", "prediction": "mov ebx, 2",
     "sc": 0, "language": "assembly"},
    {"id": "c", "intent": "i3", "reference": "ret", "prediction": "ret",
     "sc": 1, "language": "assembly"},
]


class TestEval:
    def test_three_sample_corpus_gives_three_rows(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("id,CA,ROUGE-1-P")
        assert (out / "run_config.json").exists()

    def test_invalid_sc_exits_2_naming_sample(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, [dict(GOOD[0], sc=2)])
        assert run("eval", "--corpus", corpus, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "invalid sc" in err and "'a'" in err

    @pytest.mark.parametrize("name, bad_line", [("corpus.jsonl", 2), ("corpus.csv", 3)])
    def test_non_utf8_corpus_exits_2_naming_line(self, tmp_path, capsys, name, bad_line):
        corpus = tmp_path / name
        text = corpus_text(name, GOOD)
        corpus.write_bytes(text.encode("utf-8").replace(b"mov ebx, 2", b"mov ebx, \xff2"))
        assert run("eval", "--corpus", corpus, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{corpus}:{bad_line}:" in err and "UTF-8" in err

    @pytest.mark.parametrize("name", ["corpus.jsonl", "corpus.csv"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys, name):
        # as a spreadsheet program writes a file saved as "CSV UTF-8"
        data = corpus_text(name, GOOD).encode("utf-8")
        for run_dir, prefix in ((tmp_path / "plain", b""), (tmp_path / "bom", b"\xef\xbb\xbf")):
            run_dir.mkdir()
            (run_dir / name).write_bytes(prefix + data)
            assert run("eval", "--corpus", run_dir / name, "--out", run_dir / "out") == 0
        for output in ("results.csv", "run_config.json"):
            plain = (tmp_path / "plain" / "out" / output).read_bytes()
            assert (tmp_path / "bom" / "out" / output).read_bytes() == plain
        assert capsys.readouterr().err == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run("eval", "--corpus", corpus, "--out", out1) == 0
        assert run("eval", "--corpus", corpus, "--out", out2) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    # sha256 of results.csv for the corpus below, the same for --jobs 1 and 2:
    # the bytes written when each line was tokenized on its own and each
    # n-gram order counted apart
    RESULTS_SHA256 = "c0f365caef7a8f7f86ad7f2d177504a5b0da47c04e84c4636dfaaccafc8ff532"

    @staticmethod
    def _mixed_records(rng: random.Random) -> list[dict]:
        """Assembly, python-like and other snippets with every line ending
        (LF, CRLF, lone CR), every separator the tokenizers treat apart (space,
        tab, \\f, \\v, NBSP), empty predictions, references of more than 16
        METEOR tokens and python-like strings with escaped quotes."""
        words = ["mov", "eax", "ebx,", "ecx", ",", "push", "pop", "xor", "0x80", "int",
                 "[esp+4]", "dword", "ret", "x", "=", "(", ")", "+", "1"]
        python = ["x = 'it\\'s'", 's = "a\\"b\\\\"', "if x:", "for i in r:", "print(x, 'a\\'(')",
                  "y = [1, 2]", "def f(a):", "return a", "else", "z = {'k': \"v\"}", "w = 'open"]
        seps = [" ", " ", "\t", "\f", "\v", "\xa0", "  "]
        records = []
        for i in range(150):
            language = rng.choice(("assembly", "python-like", "other"))
            if language == "python-like":
                lines = [" " * rng.choice((0, 4)) + rng.choice(python)
                         for _ in range(rng.randint(1, 7))]
            else:
                lines = [rng.choice(seps).join(rng.choice(words) for _ in range(rng.randint(1, 5)))
                         for _ in range(rng.randint(1, 7))]
            pred_lines = list(lines)
            for _ in range(rng.randint(0, 3)):
                k = rng.randrange(len(pred_lines))
                if rng.random() < 0.5:
                    pred_lines.insert(k, pred_lines[k])
                else:
                    pred_lines[k] = rng.choice(words) + rng.choice(seps) + pred_lines[k]
            if rng.random() < 0.3:
                rng.shuffle(pred_lines)
            reference = rng.choice(("\n", "\r\n", "\r")).join(lines)
            prediction = rng.choice(("\n", "\r\n", "\r")).join(pred_lines)
            if i % 23 == 5:
                prediction = ""
            sample_id = f"s{i:03d}" if i % 50 else f"odd,id {i} \"q\""
            records.append({"id": sample_id, "intent": "i", "reference": reference,
                            "prediction": prediction, "sc": rng.choice((0, 1)),
                            "language": language})
        return records

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_bytes_pinned(self, tmp_path, jobs):
        records = self._mixed_records(random.Random(10))
        assert any(len(r["reference"].split()) > 16 for r in records)
        corpus = write_corpus_file(tmp_path, records)
        assert run("eval", "--corpus", corpus, "--out", tmp_path / "out", "--jobs", jobs) == 0
        digest = hashlib.sha256((tmp_path / "out" / "results.csv").read_bytes()).hexdigest()
        assert digest == self.RESULTS_SHA256

    # sha256 of results.csv for the corpus below under the default config and
    # under epsilon smoothing, the same for --jobs 1 and 2: the bytes written
    # when every pair went through the alignment and the kernels
    IDENTICAL_SHA256 = {
        "default": "23bd903103cbbff06a817380b0734c0e07ebb703ef0c5a2947bef21bd550c6ef",
        "epsilon": "93bb42c5edd782dded06d4cf1ec3e17d49ce3222c6b1b2f6921f759cd1cc3d2c",
        "external": "927265f214cedcaad25160aef188b32956d2bda2f8fd1028fce5eac34d1a9add",
    }

    @staticmethod
    def _identical_records() -> list[dict]:
        """Pairs whose prediction equals the reference: empty, whitespace-only,
        one token, a repeated token, more than 16 tokens and multi-line
        python-like; and near-identical pairs that differ only in trailing
        whitespace or in LF against CRLF."""
        asm = "mov eax, 1 ; push ebx , pop ecx xor eax eax int 0x80 ret [esp+4] dword ( x ) + 1"
        python = "def f(a):\n    x = 'it\\'s'\n    if x:\n        return a\n    print(x, [1, 2])"
        same = ["", " ", "\t \f\v", "\n", "\n\n", "\r", "\r\n", " \r\n \n", "ret", "ret\n",
                "x", "0x80", "(", "int int", "push push push push push", "a\na\na\na\na",
                asm, asm.replace(" ", "\n"), asm + "\r\n" + asm, " ".join(["nop"] * 40),
                python, python.replace("\n", "\r\n"), python.replace("\n", "\r"),
                python + "\n", "\n".join([python] * 3), "s = \"a\\\"b\\\\\"\n\tz = {'k': 1}"]
        near = [("ret ", "ret"), ("mov eax, 1\t\nret", "mov eax, 1\nret"), ("x\n", "x"),
                ("a \n b ", "a\n b"), ("mov eax, 1\r\nret", "mov eax, 1\nret"),
                (python.replace("\n", "\r\n"), python), ("\r\n", "\n"), ("", " ")]
        records = []
        for k, text in enumerate(same):
            for language in ("assembly", "python-like"):
                records.append({"id": f"same{k:02d}-{language}", "reference": text,
                                "prediction": text, "language": language})
        for k, (prediction, reference) in enumerate(near):
            records.append({"id": f"near{k:02d}", "reference": reference,
                            "prediction": prediction, "language": "python-like"})
        return [dict(r, intent="i", sc=k % 2) for k, r in enumerate(records)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_identical_pairs_results_bytes_pinned(self, tmp_path, jobs):
        corpus = write_corpus_file(tmp_path, self._identical_records())
        config = tmp_path / "epsilon.json"
        config.write_text('{"bleu": {"smoothing": "epsilon"}}')
        # with --jobs 2, an external checker sends CA to the thread pool and
        # the other metrics to the scorer without CA
        for name, extra in (("default", ()), ("epsilon", ("--metrics-config", config)),
                            ("external", ("--checker", "cmd:test -s {file}"))):
            out = tmp_path / name
            assert run("eval", "--corpus", corpus, "--out", out, "--jobs", jobs, *extra) == 0
            digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
            assert digest == self.IDENTICAL_SHA256[name], name

    def test_rows_sorted_by_id_even_with_jobs(self, tmp_path):
        records = [dict(GOOD[0], id=f"z{9 - i}") for i in range(3)]
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out, "--jobs", 3) == 0
        ids = [line.split(",")[0] for line in (out / "results.csv").read_text().splitlines()[1:]]
        assert ids == sorted(ids)

    def test_missing_metrics_config_exits_1(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        code = run("eval", "--corpus", corpus, "--out", tmp_path / "o",
                   "--metrics-config", tmp_path / "nope.json")
        assert code == 1
        assert capsys.readouterr().err == f"error: file not found: {tmp_path / 'nope.json'}\n"

    def test_bad_config_keys_exit_1(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        for payload in (
            {"meteor": {"alpha": 0.9, "delta": 1}},
            {"bleu": {"mode": "x"}},
            {"surprise": True},
            {"metrics": ["EM", "WER"]},
        ):
            cfg = tmp_path / "m.json"
            cfg.write_text(json.dumps(payload))
            code = run("eval", "--corpus", corpus, "--out", tmp_path / "o",
                       "--metrics-config", cfg)
            assert code == 1, payload

    @pytest.mark.parametrize("epsilon", ["0", "-0.1", "5", "NaN", '"x"', "null", '"0.1"', "true"])
    def test_bad_bleu_epsilon_exits_1(self, tmp_path, capsys, epsilon):
        corpus = write_corpus_file(tmp_path, GOOD)
        cfg = tmp_path / "m.json"
        cfg.write_text('{"bleu": {"smoothing": "epsilon", "epsilon": %s}}' % epsilon)
        code = run("eval", "--corpus", corpus, "--out", tmp_path / "o", "--metrics-config", cfg)
        assert code == 1
        assert "bleu epsilon must be" in capsys.readouterr().err
        assert not (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize("payload, key", [
        ("5", "top level"),
        ('{"metrics": 5}', "metrics"),
        ('{"bleu": 5}', "bleu"),
        ('{"tokenizers": {"assembly": 5}}', "tokenizers.assembly"),
        ('{"meteor": {"alpha": "x"}}', "meteor alpha"),
        ('{"checker": 5}', "unknown config key(s): checker"),
        ('{"tokenizers": {"assembly": {"lowercase": "false"}}}', "lowercase"),
        ('{"meteor": {"beta": NaN}}', "meteor beta must be > 0"),
        ('{"tokenizers": {"asembly": {"lowercase": true}}}', "tokenizers.asembly"),
        ('{"meteor_tokenizer": {"case": "lower"}}', "unknown meteor_tokenizer option(s): case"),
        ('{"metrics": ["EM",]}', "invalid JSON"),
        ('{"bleu": {"epsilon": 0.5}}', 'bleu epsilon needs "smoothing": "epsilon", got "none"'),
        ('{"bleu": {"smoothing": "none", "epsilon": 0.5}}', 'bleu epsilon needs "smoothing"'),
    ], ids=["top-level", "metrics", "bleu", "tokenizer", "meteor-alpha", "checker",
            "lowercase-string", "nan-beta", "tokenizer-language-typo", "meteor-tokenizer-key",
            "invalid-json", "epsilon-without-smoothing", "epsilon-with-no-smoothing"])
    def test_config_value_of_wrong_type_exits_1(self, tmp_path, capsys, payload, key):
        corpus = write_corpus_file(tmp_path, GOOD)
        cfg = tmp_path / "m.json"
        cfg.write_text(payload)
        code = run("eval", "--corpus", corpus, "--out", tmp_path / "o", "--metrics-config", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}: " in err and key in err
        assert not (tmp_path / "o" / "results.csv").exists()

    def test_config_asking_for_ca_under_checker_none_exits_1(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        cfg = tmp_path / "m.json"
        cfg.write_text('{"metrics": ["CA", "EM"]}')
        out = tmp_path / "o"
        argv = ["eval", "--corpus", corpus, "--out", out, "--metrics-config", cfg, "--checker", "none"]
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: metrics: CA needs a checker, but --checker is none\n")
        assert not out.exists()
        # without a metrics key, --checker none drops CA from the default set
        cfg.write_text("{}")
        assert run(*argv) == 0
        assert (out / "results.csv").read_text().startswith("id,ROUGE-1-P,")

    @pytest.mark.parametrize("checker, message", [
        ("bogus", "unknown checker selector 'bogus'"),
        ("cmd:true", "{file}"),
        ('cmd:echo "{file}', """template 'echo "{file}': No closing quotation"""),
        ("cmd:echo {x} {file}", "no other replacement field, got 'echo {x} {file}'"),
        ("cmd:echo {} {file}", "no other replacement field, got 'echo {} {file}'"),
        ("cmd:echo {{file}}", "no other replacement field, got 'echo {{file}}'"),
        ("cmd:echo {file:d}", "no other replacement field, got 'echo {file:d}'"),
        ("cmd:echo {file!r}", "no other replacement field, got 'echo {file!r}'"),
        ("cmd:echo {file.x}", "no other replacement field, got 'echo {file.x}'"),
    ])
    def test_bad_checker_option_exits_1_on_an_empty_corpus(self, tmp_path, capsys, checker, message):
        corpus = write_corpus_file(tmp_path, [])
        cfg = tmp_path / "m.json"
        cfg.write_text("{}")
        for extra in ((), ("--metrics-config", cfg)):
            code = run("eval", "--corpus", corpus, "--out", tmp_path / "o", "--checker", checker, *extra)
            assert code == 1
            err = capsys.readouterr().err
            assert message in err and str(cfg) not in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1_with_usage(self, tmp_path, capsys, jobs):
        corpus = write_corpus_file(tmp_path, GOOD)
        code = run("eval", "--corpus", corpus, "--out", tmp_path / "o", "--jobs", jobs)
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--jobs" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("metrics", [None, ["CA"], ["CA", "EM", "METEOR"]],
                             ids=["all", "CA", "CA-EM-METEOR"])
    def test_external_checker_runs_in_a_pool_of_jobs_threads(self, tmp_path, monkeypatch, metrics):
        records = [dict(GOOD[i % 3], id=f"s{i}") for i in range(9)]
        corpus = write_corpus_file(tmp_path, records)
        config = tmp_path / "metrics.json"
        config.write_text(json.dumps({} if metrics is None else {"metrics": metrics}))
        alive, log = tmp_path / "alive", tmp_path / "alive.log"
        alive.mkdir()
        # each checker process marks itself alive, logs how many are, and
        # accepts the snippet iff it mentions eax
        script = (f"touch {alive}/$$; ls {alive} | wc -l >> {log}; sleep 0.02; "
                  f'rm {alive}/$$; grep -q eax "$1"')
        checker = f"cmd:sh -c '{script}' sh {{file}}"
        threads = set()
        original = SyntaxChecker.check

        def recording(self, snippet):
            threads.add(threading.get_ident())
            return original(self, snippet)

        monkeypatch.setattr(SyntaxChecker, "check", recording)
        out1, out3 = tmp_path / "o1", tmp_path / "o3"
        assert run("eval", "--corpus", corpus, "--out", out1, "--checker", checker,
                   "--metrics-config", config, "--jobs", 1) == 0
        assert threads == {threading.get_ident()}
        threads.clear()
        assert run("eval", "--corpus", corpus, "--out", out3, "--checker", checker,
                   "--metrics-config", config, "--jobs", 3) == 0
        assert threading.get_ident() not in threads and 1 <= len(threads) <= 3
        assert (out1 / "results.csv").read_bytes() == (out3 / "results.csv").read_bytes()
        header = (out1 / "results.csv").read_text().splitlines()[0]
        assert header == ",".join(["id", *(metrics or CANONICAL_METRICS)])
        ca = [line.split(",")[1] for line in (out1 / "results.csv").read_text().splitlines()[1:]]
        assert set(ca) == {"0.000000", "1.000000"}
        counts = [int(n) for n in log.read_text().split()]
        assert len(counts) == 2 * len(records) and max(counts) <= 3

    def test_metrics_config_applies(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        cfg = tmp_path / "metrics.json"
        cfg.write_text(json.dumps({"metrics": ["EM", "ED"]}))
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out, "--metrics-config", cfg,
                   "--checker", "none") == 0
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "id,EM,ED"

    def test_meteor_tokenizer_and_number_types_echoed(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        cfg = tmp_path / "metrics.json"
        cfg.write_text(json.dumps({
            "meteor_tokenizer": {"mode": "whitespace"},
            "bleu": {"smoothing": "epsilon", "epsilon": 1},
            "meteor": {"beta": 2},
        }))
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out, "--metrics-config", cfg) == 0
        echo = (out / "run_config.json").read_text()
        assert json.loads(echo)["meteor_tokenizer"] == {
            "lowercase": False, "mode": "whitespace", "newline_is_token": False,
        }
        assert '"epsilon": 1.0,' in echo  # echoed as a float, as written before
        assert '"beta": 2,' in echo and '"alpha": 0.9,' in echo

    @pytest.mark.parametrize("name, text, line, message", [
        ("corpus.jsonl", json.dumps(GOOD[0]) + "\n{oops\n", 2, "JSON parse error"),
        ("corpus.jsonl", json.dumps(GOOD[0]) + "\n[1, 2]\n", 2, "expected an object per line"),
        ("corpus.jsonl", json.dumps(dict(GOOD[0], sc="yes")) + "\n", 1,
         "(sample 'a'): invalid sc 'yes'"),
        ("corpus.jsonl", json.dumps(dict(GOOD[0], sc=float("inf"))) + "\n", 1,
         "(sample 'a'): invalid sc inf"),
        ("corpus.csv", "", 1, "empty CSV file"),
        ("corpus.csv", "id,intent,reference,prediction,sc\na,i,r,p,1\n", 1,
         "missing columns: language"),
        ("corpus.csv", 'id,intent,reference,prediction,sc,language\na,"%s",r,p,1,other\n'
         % ("x" * (2**17 + 1)), 2, "field larger than field limit"),
        ("corpus.csv", 'id,intent,reference,prediction,sc,language\na,"x\ny\nz",r,p,1,other\n'
         "\nb,i,r,p,2,other\n", 6, "(sample 'b'): invalid sc '2'"),
    ], ids=["jsonl-parse-error", "jsonl-not-an-object", "jsonl-invalid-sc", "jsonl-infinite-sc",
            "csv-empty", "csv-missing-column", "csv-field-over-the-limit",
            "csv-invalid-sc-after-a-multiline-field"])
    def test_bad_corpus_exits_2_naming_file_and_line(self, tmp_path, capsys, name, text, line,
                                                     message):
        corpus = tmp_path / name
        corpus.write_text(text, encoding="utf-8")
        code = run("eval", "--corpus", corpus, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}:{line}") and message in err
        assert not (tmp_path / "o").exists()

    def test_corpus_format_follows_the_suffix_only(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("id,intent,reference,prediction,sc,language\n"
                          "a,i,mov eax,mov eax,1,assembly\nb,i,ret,nop,,assembly\n")
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out) == 2  # read as jsonl
        assert "JSON parse error" in capsys.readouterr().err
        corpus = corpus.rename(tmp_path / "corpus.CSV")
        assert run("eval", "--corpus", corpus, "--out", out) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["id", "a", "b"]

    def test_checker_infrastructure_failure_exits_3(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        code = run("eval", "--corpus", corpus, "--out", tmp_path / "o",
                   "--checker", "cmd:no-such-binary-exists {file}")
        assert code == 3


class TestAnalyze:
    def _eval_then_analyze(self, tmp_path, records):
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out) == 0
        code = run("analyze", "--corpus", corpus, "--results", out / "results.csv",
                   "--out", out / "analysis")
        return code, out / "analysis"

    def test_results_file_with_a_byte_order_mark(self, tmp_path):
        code, plain = self._eval_then_analyze(tmp_path, GOOD)
        assert code == 0
        results = tmp_path / "bom.csv"
        results.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "out" / "results.csv").read_bytes())
        assert run("analyze", "--corpus", tmp_path / "corpus.jsonl", "--results", results,
                   "--out", tmp_path / "bom") == 0
        for path in sorted(plain.iterdir()):
            assert (tmp_path / "bom" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_identity_corpus_offsets(self, tmp_path):
        records = [dict(GOOD[0], id=f"s{i}") for i in range(3)]
        code, outdir = self._eval_then_analyze(tmp_path, records)
        assert code == 0
        offsets = (outdir / "offsets.csv").read_text().splitlines()
        em_row = [line for line in offsets if line.startswith("EM,")][0]
        assert em_row.split(",")[1] == "1.000"
        assert em_row.split(",")[2] == "0.000"

    def test_unlabeled_corpus_exits_2(self, tmp_path, capsys):
        records = [{k: v for k, v in r.items() if k != "sc"} for r in GOOD]
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out) == 0
        code = run("analyze", "--corpus", corpus, "--results", out / "results.csv",
                   "--out", out / "analysis")
        assert code == 2
        assert "labeled" in capsys.readouterr().err

    @pytest.mark.parametrize("results_text, labeled, message", [
        ("id,EM\na,1.000000\n", True, "no scores for sample id(s): b"),
        ("id,EM\na,1.000000\nb,0.000000\n", False,
         "no labeled samples: every sample is missing the sc field"),
    ], ids=["missing-scores", "unlabeled"])
    def test_corpus_and_results_that_do_not_fit_exit_2_naming_both(
        self, tmp_path, capsys, results_text, labeled, message
    ):
        records = [r if labeled else {k: v for k, v in r.items() if k != "sc"} for r in GOOD[:2]]
        corpus = write_corpus_file(tmp_path, records)
        results = tmp_path / "results.csv"
        results.write_text(results_text)
        assert run("analyze", "--corpus", corpus, "--results", results, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {corpus} and {results}: {message}\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1.5", "-0.000001", "x", ""])
    def test_non_finite_or_out_of_range_score_exits_2(self, tmp_path, capsys, bad):
        corpus = write_corpus_file(tmp_path, GOOD)
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out) == 0
        lines = (out / "results.csv").read_text().splitlines()
        row = lines[2].split(",")
        row[5] = bad
        lines[2] = ",".join(row)
        (out / "results.csv").write_text("\n".join(lines) + "\n")
        code = run("analyze", "--corpus", corpus, "--results", out / "results.csv",
                   "--out", out / "analysis")
        assert code == 2
        assert f"{out / 'results.csv'}:3:" in capsys.readouterr().err
        assert not (out / "analysis" / "offsets.csv").exists()

    @pytest.mark.parametrize("header, problem", [
        ("id", "no metric column"),
        ("id,FOO", "no metric column"),
        ("id,EM,EM", "column 'EM' appears twice in the header"),
    ], ids=["id-only", "unknown-column", "repeated-column"])
    def test_results_without_a_metric_column_each_exit_2(self, tmp_path, capsys, header, problem):
        corpus = write_corpus_file(tmp_path, GOOD)
        results = tmp_path / "results.csv"
        cells = ",1.000000" * header.count(",")
        results.write_text(header + "\n" + "".join(f"{r['id']}{cells}\n" for r in GOOD))
        code = run("analyze", "--corpus", corpus, "--results", results,
                   "--out", tmp_path / "analysis")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {results}:1: ") and problem in err
        assert not (tmp_path / "analysis").exists()

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "empty results file"),
        ("ID,EM\na,1.000000\n", 1, "malformed results header"),
        ("id,EM,ED\na,1.000000,1.000000\nb,1.000000\n", 3, "expected 3 columns"),
        ('id,EM\n"%s",1.000000\n' % ("x" * (2**17 + 1)), 2,
         "field larger than field limit (131072)"),
    ], ids=["empty", "header", "column-count", "field-over-the-limit"])
    def test_malformed_results_exit_2_naming_file_and_line(self, tmp_path, capsys, text, line,
                                                           message):
        corpus = write_corpus_file(tmp_path, GOOD)
        results = tmp_path / "results.csv"
        results.write_text(text)
        code = run("analyze", "--corpus", corpus, "--results", results,
                   "--out", tmp_path / "analysis")
        assert code == 2
        assert capsys.readouterr().err == f"error: {results}:{line}: {message}\n"
        assert not (tmp_path / "analysis").exists()

    def test_all_partitions_and_documents_written(self, tmp_path):
        code, outdir = self._eval_then_analyze(tmp_path, GOOD)
        assert code == 0
        for name in ("offsets.txt", "offsets.csv", "offsets.md",
                     "correlation.txt", "correlation.csv", "correlation.md",
                     "boxplot.csv", "sc_marker.csv", "analysis_meta.json"):
            assert (outdir / name).exists(), name

    # sha256 of every analyze output for the corpus below: the bytes written
    # when each metric is correlated through the general pearson and kendall_tau
    ANALYZE_SHA256 = {
        "analysis_meta.json": "23461e6e101714c4b6bc5ffe716304a7934facea2c8518e6785d1ccf15684cc5",
        "boxplot.csv": "3720b9c1ae2317b66dc4076ec2673bfd5d1b35ce409eb1a41123c0362fa28706",
        "correlation.csv": "3de386add2a6a0ce805033b74e2cfbb74cfeb557e59199f804c19a7b63693d28",
        "correlation.md": "69bae771ac2e841147e75a707c4e6e7c1e5b0c92d11c93315d60820ff19e9161",
        "correlation.txt": "5f84579bdc4375c5d5c521d21acec8d1fb291cc117c22740e3be678d204df763",
        "offsets.csv": "71cb77fdca360d577756a67b9c52335b105dc7ca5d361b667bdb0b59de991c64",
        "offsets.md": "e73d6e35766a32e596fb4ee269bb423cd9e3a0874cf12b69fc8a564db0559be9",
        "offsets.txt": "c25e78b03ea1c7fa8721ff49e630a7bcfcc8dc746faf8a9396a3e4f50796290a",
        "sc_marker.csv": "cb6baabf9ea73a027ba8c0a93fda6858a048160166d51b17c7f86d618d74c565",
    }
    # and for the identity corpus of test_identity_corpus_offsets
    IDENTITY_SHA256 = {
        "analysis_meta.json": "3b9c20594f1606b820c82b11ba2710b9d5ccb428f99fd217dc0ff349218b0809",
        "boxplot.csv": "5f5a2e5f812895e075119c9d124549003e80abd491a5fc1b98f6ba8d85f30886",
        "correlation.csv": "2fe2cc9c9b1e31a459105f81b4cc021de7694f7845d94796362a0e6b7d728cad",
        "correlation.md": "82ee5945f0ce6353c28675cbbaa791886174ce723eb2ef4dedee5e757096e98e",
        "correlation.txt": "cd1e0e4e8eccdedbb25d6d64143732c02f07c9c41c2deca38e2fb321e687c8a0",
        "offsets.csv": "895daa22b1d0ca9534156dd8003b17ba0ccd6c701efa9e49e384196a2831f6fd",
        "offsets.md": "5ae4cafe6276aeb96ca3a4e483464edb750c2b3f5afb07afc538fcf4b7e353de",
        "offsets.txt": "0a83d2ea3f100a9c8aff3a1b646dda3d748473ffffe7e206cd228f55753eeb8d",
        "sc_marker.csv": "c870bee00b49e485b51a1b50252fd436eb3e7515b468334c97f526e2818f0c2d",
    }

    def test_output_bytes_pinned(self, tmp_path, monkeypatch):
        rng = random.Random(6)
        records, rows = [], []
        for i in range(200):
            sc = None if i % 40 == 7 else rng.choice((0, 1))
            records.append({"id": f"s{i:03d}", "intent": "i", "reference": "r",
                            "prediction": "p", "language": "assembly",
                            **({} if sc is None else {"sc": sc})})
            pool = [0.0, 0.25, 0.5, 0.75, 1.0, 1.0 if sc else 0.0, round(rng.random(), 6)]
            rows.append([f"s{i:03d}"] + [
                "0.500000" if metric == "CA" else f"{rng.choice(pool):.6f}"
                for metric in CANONICAL_METRICS])
        write_corpus_file(tmp_path, records)
        with open(tmp_path / "results.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([["id", *CANONICAL_METRICS], *rows])
        monkeypatch.chdir(tmp_path)
        assert run("analyze", "--corpus", "corpus.jsonl", "--results", "results.csv",
                   "--out", "analysis") == 0
        assert self._digests(tmp_path / "analysis") == self.ANALYZE_SHA256
        # every sample correct: the wrong columns are n/a, every correlation undef
        identity = tmp_path / "identity"
        identity.mkdir()
        write_corpus_file(identity, [dict(GOOD[0], id=f"s{i}") for i in range(3)])
        monkeypatch.chdir(identity)
        assert run("eval", "--corpus", "corpus.jsonl", "--out", "run") == 0
        assert run("analyze", "--corpus", "corpus.jsonl", "--results", "run/results.csv",
                   "--out", "analysis") == 0
        assert self._digests(identity / "analysis") == self.IDENTITY_SHA256

    @staticmethod
    def _digests(directory) -> dict[str, str]:
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(directory.iterdir())}

    def test_fixture_corpus_report_values(self, tmp_path):
        out = tmp_path / "out"
        assert run("eval", "--corpus", DATA_DIR / "mini_corpus.jsonl", "--out", out) == 0
        code = run("analyze", "--corpus", DATA_DIR / "mini_corpus.jsonl",
                   "--results", out / "results.csv", "--out", out / "analysis")
        assert code == 0
        meta = json.loads((out / "analysis" / "analysis_meta.json").read_text())
        assert meta["labeled"] == "10"
        assert float(meta["sc_mean"]) == pytest.approx(0.6)
        # EM never matches on the wrong partition of the fixture corpus
        offsets = (out / "analysis" / "offsets.csv").read_text().splitlines()
        header = offsets[0].split(",")
        em_row = [line for line in offsets if line.startswith("EM,")][0].split(",")
        wrong_value = em_row[header.index("wrong_value")]
        assert wrong_value == "0.000"
        # the offset table's whole-partition value is the results-column mean
        results = (out / "results.csv").read_text().splitlines()
        ed_col = results[0].split(",").index("ED")
        ed_mean = sum(float(r.split(",")[ed_col]) for r in results[1:]) / (len(results) - 1)
        ed_row = [line for line in offsets if line.startswith("ED,")][0].split(",")
        assert ed_row[header.index("whole_value")] == f"{ed_mean:.3f}"


class TestPreprocess:
    def test_standardize_then_destandardize_round_trip(self, tmp_path):
        records = [
            {"id": "a", "intent": "push 0x68732f2f then push 0x6e69622f",
             "reference": "r", "prediction": "p", "language": "assembly"},
            {"id": "b", "intent": "move 5 in the lowest byte",
             "reference": "r", "prediction": "p", "language": "assembly"},
        ]
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "std"
        assert run("preprocess", "--corpus", corpus, "--out", out) == 0
        standardized = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
        assert standardized[0]["intent"] == "push var0 then push var1"
        sidecar = [json.loads(line) for line in
                   (out / "standardization_maps.jsonl").read_text().splitlines()]
        assert sidecar[0]["map"] == {"var0": "0x68732f2f", "var1": "0x6e69622f"}

        back = tmp_path / "back"
        code = run("preprocess", "--corpus", out / "corpus.jsonl", "--out", back,
                   "--destandardize", "--sidecar", out / "standardization_maps.jsonl")
        assert code == 0
        restored = [json.loads(line) for line in (back / "corpus.jsonl").read_text().splitlines()]
        assert [r["intent"] for r in restored] == [r["intent"] for r in records]

    @pytest.mark.parametrize("line, message", [
        ('{"id": "a", "map": {', "JSON parse error"),
        ('{"x": 1}', "'id' and 'map'"),
        ('{"id": "a"}', "'id' and 'map'"),
        ('["a", {}]', "'id' and 'map'"),
        ('{"id": "a", "map": ["var0", "5"]}', "'map' must be an object"),
        ('{"id": "a", "map": {"var0": 5}}', "'map' must be an object"),
        ('{"id": "a", "map": {"var1": "5"}}', "dense var0"),
    ], ids=["bad-json", "no-id", "no-map", "not-an-object", "map-is-a-list",
            "literal-not-a-string", "placeholders-not-dense"])
    def test_malformed_sidecar_exits_2_naming_line(self, tmp_path, capsys, line, message):
        corpus = write_corpus_file(tmp_path, GOOD)
        sidecar = tmp_path / "maps.jsonl"
        sidecar.write_text('{"id": "c", "map": {}}\n' + line + "\n", encoding="utf-8")
        code = run("preprocess", "--corpus", corpus, "--out", tmp_path / "o",
                   "--destandardize", "--sidecar", sidecar)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sidecar}:2:" in err and message in err

    @pytest.mark.parametrize("command, flags, bad, line, escape", [
        ("eval", [], "corpus.jsonl", 2, "\\ud800"),
        ("preprocess", [], "corpus.jsonl", 2, "\\ud800"),
        ("preprocess", ["--destandardize", "--sidecar", "maps.jsonl"], "maps.jsonl", 1, "\\udc00"),
    ], ids=["eval-corpus", "preprocess-corpus", "destandardize-sidecar"])
    def test_lone_surrogate_escape_exits_2_naming_line(self, tmp_path, capsys, command, flags,
                                                       bad, line, escape):
        # no UTF-8 output can hold U+D800..U+DFFF, so the reader rejects it
        records = [dict(GOOD[0], intent="mov var0")]
        if bad == "corpus.jsonl":
            records.append(dict(GOOD[1], id="b\ud800"))
        write_corpus_file(tmp_path, records)
        (tmp_path / "maps.jsonl").write_text('{"id": "a", "map": {"var0": "x\\udc00"}}\n')
        flags = [tmp_path / flag if "." in flag else flag for flag in flags]
        out = tmp_path / "o"
        assert run(command, "--corpus", tmp_path / "corpus.jsonl", "--out", out, *flags) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / bad}:{line}: a string holds the lone surrogate '{escape}'\n"
        )
        assert not out.exists() or not any(out.iterdir())

    def test_surrogate_pair_escape_is_one_character(self, tmp_path):
        corpus = write_corpus_file(tmp_path, [dict(GOOD[0], id="a\U0001f600")])
        assert "\\ud83d\\ude00" in corpus.read_text()
        assert run("preprocess", "--corpus", corpus, "--out", tmp_path / "o") == 0
        assert json.loads((tmp_path / "o" / "corpus.jsonl").read_text())["id"] == "a\U0001f600"

    def test_sidecar_directory_is_created(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, [dict(GOOD[0], intent="push 0x1")])
        sidecar = tmp_path / "nodir" / "maps.jsonl"
        assert run("preprocess", "--corpus", corpus, "--out", tmp_path / "o",
                   "--sidecar", sidecar) == 0
        assert sidecar.read_text() == '{"id": "a", "map": {"var0": "0x1"}}\n'
        assert not (tmp_path / "o" / "standardization_maps.jsonl").exists()

    def test_destandardize_with_a_missing_sidecar_exits_1(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        sidecar = tmp_path / "nodir" / "maps.jsonl"
        code = run("preprocess", "--corpus", corpus, "--out", tmp_path / "o",
                   "--destandardize", "--sidecar", sidecar)
        assert code == 1
        assert capsys.readouterr().err == f"error: file not found: {sidecar}\n"
        assert not sidecar.parent.exists()

    @pytest.mark.parametrize("rule, offset", [(r"word=\b", 0), ("a=(?<=i)", 1)],
                             ids=["word-boundary", "lookbehind"])
    def test_rule_matching_empty_only_in_context_exits_1(self, tmp_path, capsys, rule, offset):
        corpus = write_corpus_file(tmp_path, GOOD)
        rules = tmp_path / "rules.txt"
        rules.write_text(rule + "\n")
        code = run("preprocess", "--corpus", corpus, "--out", tmp_path / "o", "--rules", rules)
        assert code == 1
        name = rule.split("=")[0]
        assert capsys.readouterr().err == (
            f"error: rule {name!r}: regex matches the empty string at offset {offset}\n"
        )

    def test_missing_rules_file_exits_1(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        code = run("preprocess", "--corpus", corpus, "--out", tmp_path / "o",
                   "--rules", tmp_path / "missing-rules.txt")
        assert code == 1

    def test_invalid_regex_exits_1(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        rules = tmp_path / "rules.txt"
        rules.write_text("bad=(\n")
        assert run("preprocess", "--corpus", corpus, "--out", tmp_path / "o",
                   "--rules", rules) == 1

    def test_stopword_filtering_with_a_stopword_file(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("the\nto\n")
        records = [{"id": "a", "intent": "jump to the label", "reference": "r",
                    "prediction": "p", "language": "assembly"}]
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "o"
        assert run("preprocess", "--corpus", corpus, "--out", out, "--filter-stopwords", stop) == 0
        got = json.loads((out / "corpus.jsonl").read_text().splitlines()[0])
        assert got["intent"] == "jump label"

    def test_stopword_filtering_with_the_built_in_list(self, tmp_path):
        records = [{"id": "a", "intent": "Jump to the label at 0x10 then return",
                    "reference": "r", "prediction": "p", "language": "assembly"}]
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "o"
        assert run("preprocess", "--corpus", corpus, "--out", out, "--filter-stopwords") == 0
        got = json.loads((out / "corpus.jsonl").read_text().splitlines()[0])
        assert got["intent"] == "Jump label var0 return"

    def test_stopwords_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        # only --filter-stopwords FILE names a stopword file
        stop = tmp_path / "stop.txt"
        stop.write_text("jump\nlabel\n")
        monkeypatch.setenv("EVALKIT_STOPWORDS", str(stop))
        self.test_stopword_filtering_with_the_built_in_list(tmp_path)


class TestExitCodes:
    def test_usage_error_is_config_error(self, capsys):
        assert run("eval") == 1  # missing required flags

    def test_unknown_command_is_config_error(self):
        assert run("frobnicate") == 1

    @pytest.mark.parametrize("error, code", [
        (ConfigError, 1),
        (DataError, 2),
        (CheckerError, 3),
        (type("CorpusGone", (DataError,), {}), 2),
    ], ids=["config", "data", "checker", "data-subclass"])
    def test_an_error_from_a_command_exits_with_its_class_code(
            self, tmp_path, capsys, monkeypatch, error, code):
        def fail(args):
            raise error("it went wrong")
        monkeypatch.setattr(cli, "cmd_eval", fail)
        assert error.exit_code == code
        assert run("eval", "--corpus", tmp_path / "c.jsonl", "--out", tmp_path / "o") == code
        assert capsys.readouterr().err == "error: it went wrong\n"

    def test_split_is_not_a_command(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        assert run("split", "--corpus", corpus, "--out", tmp_path / "splits") == 1
        assert "invalid choice: 'split'" in capsys.readouterr().err
        assert not (tmp_path / "splits").exists()

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--format", "jsonl"]),
        ("analyze", ["--results", "results.csv", "--partition", "whole"]),
        ("preprocess", ["--filter-stopwords", "--stopwords", "stop.txt"]),
    ], ids=["format", "partition", "stopwords"])
    def test_deleted_flag_exits_1_with_usage(self, tmp_path, capsys, command, flags):
        corpus = write_corpus_file(tmp_path, GOOD)
        assert run(command, "--corpus", corpus, "--out", tmp_path / "o", *flags) == 1
        err = capsys.readouterr().err
        # with the usage of the command the flag was given to
        assert err.startswith(f"usage: evalkit {command} [-h] --corpus CORPUS --out OUT")
        assert err.endswith(f"\nerror: unrecognized arguments: {' '.join(flags[-2:])}\n")
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_before_the_command_gets_the_top_level_usage(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        assert run("--bogus", "eval", "--corpus", corpus, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: evalkit [-h] [--version] {eval,analyze,preprocess}")
        assert err.endswith("\nerror: unrecognized arguments: --bogus\n")

    def test_a_stopword_file_that_is_not_there_exits_1(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path, GOOD)
        missing = tmp_path / "nonexistent"
        for flags in (["--stopwords", missing], ["--filter-stopwords", missing]):
            assert run("preprocess", "--corpus", corpus, "--out", tmp_path / "o", *flags) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --stopwords" in err
        assert err.endswith(f"error: file not found: {missing}\n")

    def test_readme_cli_lines_parse(self):
        # a README line that names a deleted or misspelled flag fails here
        readme = (DATA_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
        lines = "".join(blocks).replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("evalkit ")]
        assert {argv[0] for argv in argvs} == {"eval", "analyze", "preprocess"}
        for argv in argvs:
            cli.build_parser().parse_args(argv)

    def test_missing_corpus_file_exits_config(self, tmp_path):
        assert run("eval", "--corpus", tmp_path / "none.jsonl", "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--corpus"), ("eval", "--metrics-config"), ("preprocess", "--rules"),
    ], ids=["corpus", "metrics-config", "rules"])
    def test_directory_for_an_input_file_exits_1(self, tmp_path, capsys, command, flag):
        directory = tmp_path / "dir"
        directory.mkdir()
        flags = {"--corpus": write_corpus_file(tmp_path, GOOD), flag: directory}
        assert run(command, *[x for pair in flags.items() for x in pair], "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {directory}: {os.strerror(errno.EISDIR)}\n"

    def test_existing_file_for_out_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert run("eval", "--corpus", write_corpus_file(tmp_path, GOOD), "--out", out) == 1
        assert capsys.readouterr().err == f"error: {out}: {os.strerror(errno.EEXIST)}\n"

    @pytest.mark.parametrize("command, flags, text", [
        ("eval", ["--metrics-config"], b'{\n"metrics": ["EM", "ED\xff"]\n}\n'),
        ("preprocess", ["--rules"], b"# rules\nhex=0x\xff[0-9]+\n"),
        ("preprocess", ["--filter-stopwords"], b"the\n\xffto\n"),
    ], ids=["metrics-config", "rules", "stopwords"])
    def test_non_utf8_config_file_exits_1_naming_line(self, tmp_path, capsys, command, flags, text):
        corpus = write_corpus_file(tmp_path, GOOD)
        config = tmp_path / "config.txt"
        config.write_bytes(text)
        assert run(command, "--corpus", corpus, "--out", tmp_path / "o", *flags, config) == 1
        err = capsys.readouterr().err
        assert f"{config}:2:" in err and "UTF-8" in err


    @pytest.mark.parametrize("command, flags, text, code, message", [
        ("eval", ["--metrics-config"], '{"bogus": 1}\n', 1, "{config}: unknown config key(s): bogus"),
        ("preprocess", ["--filter-stopwords"], "# only a comment\n", 1,
         "stopword file {config} contains no words"),
        ("preprocess", ["--rules"], "hex 0x\n", 1, "{config}:1: expected name=regex, got 'hex 0x'"),
        ("preprocess", ["--destandardize", "--sidecar"], "[]\n", 2,
         "{config}:1: expected an object with 'id' and 'map'"),
    ], ids=["metrics-config", "stopwords", "rules", "sidecar"])
    def test_a_config_file_is_read_before_the_corpus(self, tmp_path, capsys, command, flags, text,
                                                     code, message):
        # the corpus is bad too, but the configuration file's error is the one shown
        corpus = write_corpus_file(tmp_path, [{k: v for k, v in GOOD[0].items() if k != "language"}])
        config = tmp_path / "config.txt"
        config.write_text(text)
        assert run(command, "--corpus", corpus, "--out", tmp_path / "o", *flags, config) == code
        assert capsys.readouterr().err == "error: " + message.format(config=config) + "\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flags, text", [
        ("eval", ["--metrics-config"], '{"metrics": ["EM", "ED"]}\n'),
        ("preprocess", ["--rules"], "# rules\nhex=0x[0-9a-f]+\n"),
        ("preprocess", ["--filter-stopwords"], "the\nto\n"),
        ("preprocess", ["--destandardize", "--sidecar"], '{"id": "a", "map": {"var0": "eax"}}\n'),
    ], ids=["metrics-config", "rules", "stopwords", "sidecar"])
    def test_leading_byte_order_mark_in_a_config_file_is_ignored(self, tmp_path, capsys, command,
                                                                 flags, text):
        # each file's first line would read otherwise with a BOM in front
        records = [dict(GOOD[0], intent="mov var0 to the 0x1f"), *GOOD[1:]]
        corpus = write_corpus_file(tmp_path, records)
        for run_dir, prefix in ((tmp_path / "plain", b""), (tmp_path / "bom", b"\xef\xbb\xbf")):
            run_dir.mkdir()
            (run_dir / "config").write_bytes(prefix + text.encode("utf-8"))
            assert run(command, "--corpus", corpus, "--out", run_dir / "out", *flags,
                       run_dir / "config") == 0
        plain = sorted((tmp_path / "plain" / "out").iterdir())
        assert [path.name for path in plain] == sorted(os.listdir(tmp_path / "bom" / "out"))
        for path in plain:
            assert (tmp_path / "bom" / "out" / path.name).read_bytes() == path.read_bytes(), path.name
        assert capsys.readouterr().err == ""


class TestRepeatedMain:
    """main builds its parser once per process; no call's options may reach the next."""

    def test_jobs_from_one_call_does_not_reach_the_next(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        assert run("eval", "--corpus", corpus, "--out", tmp_path / "o3", "--jobs", 3) == 0
        assert run("eval", "--corpus", corpus, "--out", tmp_path / "o") == 0
        assert json.loads((tmp_path / "o3" / "run_config.json").read_text())["jobs"] == 3
        assert json.loads((tmp_path / "o" / "run_config.json").read_text())["jobs"] == 1

    def test_stopwords_from_one_call_do_not_reach_the_next(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("jump\nlabel\n")
        records = [{"id": "a", "intent": "jump to the label", "reference": "r",
                    "prediction": "p", "language": "assembly"}]
        corpus = write_corpus_file(tmp_path, records)
        calls = {"file": ["--filter-stopwords", stop], "built-in": ["--filter-stopwords"],
                 "none": []}
        for name, flags in calls.items():  # in this order, on one parser
            assert run("preprocess", "--corpus", corpus, "--out", tmp_path / "seq" / name,
                       *flags) == 0
        for name, flags in calls.items():  # each on a parser of its own
            cli.build_parser.cache_clear()
            assert run("preprocess", "--corpus", corpus, "--out", tmp_path / "alone" / name,
                       *flags) == 0
        intents = {}
        for name in calls:
            written = (tmp_path / "seq" / name / "corpus.jsonl").read_bytes()
            assert written == (tmp_path / "alone" / name / "corpus.jsonl").read_bytes(), name
            intents[name] = json.loads(written)["intent"]
        assert intents == {"file": "to the", "built-in": "jump label", "none": "jump to the label"}

    def test_a_command_replaced_after_the_first_call_is_the_one_run(self, tmp_path, monkeypatch):
        # a tracer wraps cmd_* on the module after main has already run once
        corpus = write_corpus_file(tmp_path, GOOD)
        assert run("eval", "--corpus", corpus, "--out", tmp_path / "o") == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.out) or 0)
        assert run("eval", "--corpus", corpus, "--out", tmp_path / "p") == 0
        assert seen == [str(tmp_path / "p")] and not (tmp_path / "p").exists()

from __future__ import annotations

import csv
import io
import json

import pytest

from evalkit.cli import main

from conftest import DATA_DIR


def run(*argv) -> int:
    return main([str(a) for a in argv])


def write_corpus_file(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return path


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
        if name.endswith(".csv"):
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(GOOD[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(GOOD)
            text = buf.getvalue()
        else:
            text = "".join(json.dumps(r) + "\n" for r in GOOD)
        corpus = tmp_path / name
        corpus.write_bytes(text.encode("utf-8").replace(b"mov ebx, 2", b"mov ebx, \xff2"))
        assert run("eval", "--corpus", corpus, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{corpus}:{bad_line}:" in err and "UTF-8" in err

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run("eval", "--corpus", corpus, "--out", out1) == 0
        assert run("eval", "--corpus", corpus, "--out", out2) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

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

    def test_metrics_config_applies(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        cfg = tmp_path / "metrics.json"
        cfg.write_text(json.dumps({"metrics": ["EM", "ED"], "checker": "none"}))
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out, "--metrics-config", cfg) == 0
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "id,EM,ED"

    def test_checker_infrastructure_failure_exits_3(self, tmp_path):
        corpus = write_corpus_file(tmp_path, GOOD)
        code = run("eval", "--corpus", corpus, "--out", tmp_path / "o",
                   "--checker", "cmd:no-such-binary-exists {file}")
        assert code == 3


class TestAnalyze:
    def _eval_then_analyze(self, tmp_path, records, partition="all"):
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "out"
        assert run("eval", "--corpus", corpus, "--out", out) == 0
        code = run("analyze", "--corpus", corpus, "--results", out / "results.csv",
                   "--out", out / "analysis", "--partition", partition)
        return code, out / "analysis"

    def test_identity_corpus_offsets(self, tmp_path):
        records = [dict(GOOD[0], id=f"s{i}") for i in range(3)]
        code, outdir = self._eval_then_analyze(tmp_path, records, partition="whole")
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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1.5", "-0.000001"])
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

    def test_all_partitions_and_documents_written(self, tmp_path):
        code, outdir = self._eval_then_analyze(tmp_path, GOOD)
        assert code == 0
        for name in ("offsets.txt", "offsets.csv", "offsets.md",
                     "correlation.txt", "correlation.csv", "correlation.md",
                     "boxplot.csv", "sc_marker.csv", "analysis_meta.json"):
            assert (outdir / name).exists(), name

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

    def test_stopword_filtering_via_env(self, tmp_path, monkeypatch):
        stop = tmp_path / "stop.txt"
        stop.write_text("the\nto\n")
        monkeypatch.setenv("EVALKIT_STOPWORDS", str(stop))
        records = [{"id": "a", "intent": "jump to the label", "reference": "r",
                    "prediction": "p", "language": "assembly"}]
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "o"
        assert run("preprocess", "--corpus", corpus, "--out", out, "--filter-stopwords") == 0
        got = json.loads((out / "corpus.jsonl").read_text().splitlines()[0])
        assert got["intent"] == "jump label"


class TestSplit:
    def test_split_files_written(self, tmp_path):
        records = [dict(GOOD[0], id=f"s{i}") for i in range(10)]
        corpus = write_corpus_file(tmp_path, records)
        out = tmp_path / "splits"
        assert run("split", "--corpus", corpus, "--out", out, "--seed", 7) == 0
        sizes = [len((out / f"{n}.jsonl").read_text().splitlines())
                 for n in ("train", "valid", "test")]
        assert sizes == [8, 1, 1]

    def test_same_seed_identical_files(self, tmp_path):
        records = [dict(GOOD[0], id=f"s{i}") for i in range(20)]
        corpus = write_corpus_file(tmp_path, records)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("split", "--corpus", corpus, "--out", out1, "--seed", 3) == 0
        assert run("split", "--corpus", corpus, "--out", out2, "--seed", 3) == 0
        for name in ("train", "valid", "test"):
            assert (out1 / f"{name}.jsonl").read_bytes() == (out2 / f"{name}.jsonl").read_bytes()


class TestExitCodes:
    def test_usage_error_is_config_error(self, capsys):
        assert run("eval") == 1  # missing required flags

    def test_unknown_command_is_config_error(self):
        assert run("frobnicate") == 1

    def test_missing_corpus_file_exits_config(self, tmp_path):
        assert run("eval", "--corpus", tmp_path / "none.jsonl", "--out", tmp_path / "o") == 1

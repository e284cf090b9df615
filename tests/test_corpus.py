from __future__ import annotations

import csv
import json

import pytest

from evalkit import CANONICAL_METRICS, Corpus, DataError, Sample
from evalkit.corpus import load_corpus, load_results, write_corpus, write_results

from conftest import make_sample, random_corpus


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


GOOD = [
    {"id": "s1", "intent": "a", "reference": "x", "prediction": "y", "sc": 1, "language": "assembly"},
    {"id": "s2", "intent": "b", "reference": "x", "prediction": "", "sc": 0, "language": "python-like"},
    {"id": "s3", "intent": "c", "reference": "x", "prediction": "x", "language": "other"},
]


class TestLoadCorpus:
    def test_well_formed_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, GOOD)
        corpus = load_corpus(path, "jsonl")
        assert len(corpus) == 3
        by_id = {s.id: s for s in corpus}
        assert by_id["s2"].sc == 0
        assert by_id["s3"].sc is None
        assert [s.id for s in corpus] == ["s1", "s2", "s3"]

    def test_invalid_sc_rejected_with_location_and_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [dict(GOOD[0]), dict(GOOD[1], sc=2)]
        _write_jsonl(path, records)
        with pytest.raises(DataError, match=r"invalid sc") as err:
            load_corpus(path, "jsonl")
        assert ":2" in str(err.value)  # line number
        assert "s2" in str(err.value)  # offending sample id

    def test_duplicate_id_rejected_by_name(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [GOOD[0], dict(GOOD[1], id="s1")])
        with pytest.raises(DataError, match="s1"):
            load_corpus(path, "jsonl")

    @pytest.mark.parametrize("name, text, where, sample_id", [
        ("c.jsonl", "".join(json.dumps(r) + "\n" for r in GOOD[:2]) + "\n"
         + json.dumps(dict(GOOD[2], id="s1")) + "\n", "c.jsonl:4", "s1"),
        ("c.jsonl", json.dumps(dict(GOOD[0], id=7)) + "\n" + json.dumps(dict(GOOD[1], id="7")) + "\n",
         "c.jsonl:2", "7"),
        ("c.csv", "id,intent,reference,prediction,language\n"
         's1,a,x,y,other\ns2,b,"x\ny",y,other\ns1,c,x,y,other\n', "c.csv:5", "s1"),
    ], ids=["jsonl-after-a-blank-line", "jsonl-number-and-string", "csv-after-a-multiline-field"])
    def test_duplicate_id_names_the_line_of_the_second_copy(self, tmp_path, name, text, where,
                                                            sample_id):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == f"{tmp_path / where}: duplicate sample id {sample_id!r}"

    def test_duplicate_id_is_reported_before_a_later_malformed_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        no_intent = {k: v for k, v in GOOD[2].items() if k != "intent"}
        _write_jsonl(path, [GOOD[0], dict(GOOD[1], id="s1"), no_intent])
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}:2: duplicate sample id 's1'"

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "s1"}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=r":1|:2"):
            load_corpus(path, "jsonl")

    def test_byte_order_mark_leaves_line_numbers_as_they_are(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(GOOD[0]).encode() + b"\n{\"id\": \"\xff\"}\n")
        with pytest.raises(DataError, match=r"c\.jsonl:2: not valid UTF-8"):
            load_corpus(path, "jsonl")

    def test_csv_round_trip_with_embedded_newline(self, tmp_path):
        # evalkit writes only jsonl; the csv module writes this as a
        # spreadsheet exports it, quoting the newline, comma and quotes
        path = tmp_path / "c.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "intent", "reference", "prediction", "sc", "language"])
            writer.writerow(["s0", "intent 0", 'x,"y"', "a\nb", 1, "assembly"])
        reloaded = load_corpus(path, "csv")
        assert reloaded.samples[0].prediction == "a\nb"
        assert reloaded.samples[0].reference == 'x,"y"'
        assert reloaded.samples[0].sc == 1

    @pytest.mark.parametrize("name, format", [
        ("c.csv", "csv"), ("c.CSV", "csv"), ("c.jsonl", "jsonl"), ("corpus", "jsonl"),
        ("c.csv.jsonl", "jsonl"),
    ])
    def test_format_follows_the_suffix_by_default(self, tmp_path, name, format):
        path = tmp_path / name
        if format == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(GOOD[0]))
                writer.writeheader()
                writer.writerows(GOOD)
        else:
            _write_jsonl(path, GOOD)
        corpus = load_corpus(path)
        assert corpus == load_corpus(path, format)
        assert corpus.provenance["format"] == format
        assert [s.sc for s in corpus] == [1, 0, None]

    @pytest.mark.parametrize("name, text", [
        ("c.csv", "id,intent,reference,prediction,sc,language\n"
         "s1,a,x,y,1.0,assembly\ns2,b,x,,0.0,python-like\ns3,c,x,x,,other\n"),
        ("c.jsonl", "".join(json.dumps(dict(r, sc=sc)) + "\n"
                            for r, sc in zip(GOOD, ("1.0", "0.0", None)))),
    ], ids=["csv-as-pandas-writes-it", "jsonl-text"])
    def test_labels_written_with_a_decimal_point_load_as_integers(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert [s.sc for s in load_corpus(path)] == [1, 0, None]

    @pytest.mark.parametrize("sc, label", [
        ("1", 1), (" 1 ", 1), ("1.0", 1), ("0.0", 0), (1, 1), (1.0, 1), (0, 0),
    ], ids=["text-1", "padded-text-1", "text-1.0", "text-0.0", "int-1", "float-1.0", "int-0"])
    def test_text_and_number_labels_read_alike(self, tmp_path, sc, label):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [dict(GOOD[0], sc=sc)])
        assert load_corpus(path).samples[0].sc == label

    @pytest.mark.parametrize("sc", ["2", "1.5", 1.5, "nan", "inf", [1]], ids=[
        "text-2", "text-1.5", "float-1.5", "text-nan", "text-inf", "array"])
    def test_a_label_that_is_not_0_or_1_rejected(self, tmp_path, sc):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [dict(GOOD[0], sc=sc)])
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}:1 (sample 's1'): invalid sc {sc!r}"

    def test_csv_blank_sc_is_unlabeled(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "id,intent,reference,prediction,sc,language\n"
            "s1,i,r,p,,other\n",
            encoding="utf-8",
        )
        assert load_corpus(path, "csv").samples[0].sc is None

    def test_csv_record_longer_than_the_header_rejected(self, tmp_path):
        # the long record starts on line 4, after a field that holds a newline
        path = tmp_path / "c.csv"
        path.write_text(
            "id,intent,reference,prediction,language,sc\n"
            's1,"i\nj",r,p,other,1\n'
            "s2,i,mov eax,mov eax,assembly,1,junk\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}:4: expected 6 columns, got 7"

    def test_csv_record_shorter_than_the_header_without_sc_is_unlabeled(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,intent,reference,prediction,language,sc\ns1,i,r,p,other\n",
                        encoding="utf-8")
        assert load_corpus(path).samples[0].sc is None

    def test_jsonl_round_trip(self, tmp_path):
        corpus = random_corpus(20, seed=5)
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path)
        assert load_corpus(path, "jsonl").samples == corpus.samples

    def test_unknown_language_rejected(self):
        with pytest.raises(DataError, match="language"):
            make_sample(0, language="cobol")

    def test_empty_id_rejected(self):
        with pytest.raises(DataError):
            make_sample(0, id="")

    @pytest.mark.parametrize("key, value, kind", [
        ("prediction", ["mov", "eax"], "a string"),
        ("reference", 16, "a string"),
        ("intent", {"text": "i"}, "a string"),
        ("language", False, "a string"),
        ("id", True, "a string or an integer"),
        ("id", 7.0, "a string or an integer"),
    ], ids=["array-prediction", "number-reference", "object-intent", "boolean-language",
            "boolean-id", "float-id"])
    def test_jsonl_value_of_another_type_names_the_line_and_field(self, tmp_path, key, value, kind):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [GOOD[0], dict(GOOD[1], **{key: value})])
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}:2: field {key!r} must be {kind}, got {json.dumps(value)}"

    @pytest.mark.parametrize("sc", [True, False])
    def test_jsonl_boolean_sc_rejected(self, tmp_path, sc):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [dict(GOOD[0], sc=sc)])
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}:1 (sample 's1'): invalid sc {sc!r}"

    @pytest.mark.parametrize("sc", [True, False])
    def test_sample_rejects_a_boolean_sc(self, sc):
        with pytest.raises(DataError) as info:
            make_sample(0, sc=sc)
        assert str(info.value) == f"sample 's0000': invalid sc {sc!r} (must be 0 or 1)"

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, GOOD)
        with pytest.raises(DataError) as info:
            load_corpus(path, "xml")
        assert str(info.value) == "unknown corpus format 'xml' (expected jsonl or csv)"


def _vector(seed: float) -> dict[str, float]:
    # values already at 6-decimal precision, the fixed point of the file format
    return {m: float(f"{(seed + i) % 101 / 101:.6f}") for i, m in enumerate(CANONICAL_METRICS)}


class TestResults:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([], path)
        assert path.read_text(encoding="utf-8") == "id\n"

    def test_header_without_a_metric_column_rejected(self, tmp_path):
        # what write_results writes for no rows
        path = tmp_path / "r.csv"
        write_results([], path)
        with pytest.raises(DataError) as info:
            load_results(path)
        expected = ", ".join(CANONICAL_METRICS)
        assert str(info.value) == f"{path}:1: no metric column (expected any of {expected})"

    def test_column_count(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([("a", _vector(1)), ("b", _vector(2))], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert all(len(line.split(",")) == 24 for line in lines)

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [("a", _vector(3)), ("b", _vector(4))]
        write_results(rows, path)
        loaded = load_results(path)
        write_results(loaded, tmp_path / "r2.csv")
        assert path.read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert loaded == [(i, v) for i, v in rows]

    def test_six_decimal_formatting(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([("a", {"EM": 1.0, "ED": 0.5})], path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == "a,1.000000,0.500000"

    def test_heterogeneous_metric_sets_rejected(self, tmp_path):
        rows = [("a", {"EM": 1.0}), ("b", {"ED": 1.0})]
        with pytest.raises(DataError, match="heterogeneous"):
            write_results(rows, tmp_path / "r.csv")

    def test_duplicate_result_ids_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("id,EM\na,1.000000\nb,1.000000\na,0.000000\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_results(path)
        assert str(info.value) == f"{path}:4: duplicate result row for id 'a'"

    def test_messages_name_the_line_where_the_record_starts(self, tmp_path):
        # the id of the first row holds a newline, so the second row is on line 4
        path = tmp_path / "r.csv"
        path.write_text('id,EM\n"a\nb",1.000000\nc,2.0\n', encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_results(path)
        assert str(info.value) == f"{path}:4: score EM = 2.0 is not in [0, 1]"

    def test_csv_error_names_the_line_where_the_record_starts(self, tmp_path):
        # the third record starts on line 4 and passes the field limit on line 7
        path = tmp_path / "r.csv"
        path.write_text('id,EM\n"a\nb",1.000000\n"c\n\n\nlong id",1.0\n', encoding="utf-8")
        limit = csv.field_size_limit(8)
        try:
            with pytest.raises(DataError) as info:
                load_results(path)
        finally:
            csv.field_size_limit(limit)
        assert str(info.value).startswith(f"{path}:4: field larger than field limit")

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import CANONICAL_METRICS, Corpus, DataError, Sample, SplitSpec, split_corpus
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
        assert corpus.by_id("s2").sc == 0
        assert corpus.by_id("s3").sc is None
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

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "s1"}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=r":1|:2"):
            load_corpus(path, "jsonl")

    def test_csv_round_trip_with_embedded_newline(self, tmp_path):
        sample = make_sample(0, prediction="a\nb", reference='x,"y"', sc=1)
        corpus = Corpus((sample,))
        path = tmp_path / "c.csv"
        write_corpus(corpus, path, "csv")
        reloaded = load_corpus(path, "csv")
        assert reloaded.samples[0].prediction == "a\nb"
        assert reloaded.samples[0].reference == 'x,"y"'
        assert reloaded.samples[0].sc == 1

    def test_csv_blank_sc_is_unlabeled(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "id,intent,reference,prediction,sc,language\n"
            "s1,i,r,p,,other\n",
            encoding="utf-8",
        )
        assert load_corpus(path, "csv").samples[0].sc is None

    def test_jsonl_round_trip(self, tmp_path):
        corpus = random_corpus(20, seed=5)
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path, "jsonl")
        assert load_corpus(path, "jsonl").samples == corpus.samples

    def test_unknown_language_rejected(self):
        with pytest.raises(DataError, match="language"):
            make_sample(0, language="cobol")

    def test_empty_id_rejected(self):
        with pytest.raises(DataError):
            make_sample(0, id="")


class TestSplit:
    def test_sizes_floor_with_remainder_to_train(self):
        corpus = random_corpus(10, seed=7)
        train, valid, test = split_corpus(corpus, SplitSpec(0.8, 0.1, 0.1, seed=7))
        assert (len(train), len(valid), len(test)) == (8, 1, 1)

    def test_same_seed_same_split(self):
        corpus = random_corpus(50, seed=1)
        spec = SplitSpec(0.8, 0.1, 0.1, seed=7)
        first = [tuple(s.id for s in part) for part in split_corpus(corpus, spec)]
        second = [tuple(s.id for s in part) for part in split_corpus(corpus, spec)]
        assert first == second

    def test_different_seed_usually_differs(self):
        corpus = random_corpus(50, seed=1)
        a = split_corpus(corpus, SplitSpec(0.8, 0.1, 0.1, seed=1))
        b = split_corpus(corpus, SplitSpec(0.8, 0.1, 0.1, seed=2))
        assert [s.id for s in a[1]] != [s.id for s in b[1]]

    def test_partition_exhaustive_and_disjoint(self):
        corpus = random_corpus(100, seed=3)
        parts = split_corpus(corpus, SplitSpec(0.8, 0.1, 0.1, seed=11))
        ids = [set(s.id for s in part) for part in parts]
        assert ids[0] | ids[1] | ids[2] == {s.id for s in corpus}
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=3, max_value=1000), seed=st.integers(0, 2**16))
    def test_partition_property_random_sizes(self, n, seed):
        corpus = random_corpus(n, seed=seed % 97)
        try:
            parts = split_corpus(corpus, SplitSpec(0.8, 0.1, 0.1, seed=seed))
        except DataError:
            assert n < 10  # a nonzero fraction floored to zero samples
            return
        sizes = tuple(len(p) for p in parts)
        assert sum(sizes) == n
        all_ids = [s.id for part in parts for s in part]
        assert len(all_ids) == len(set(all_ids))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(DataError):
            SplitSpec(0.8, 0.1, 0.2)

    def test_float_fractions_sum_exactly(self):
        # 0.8 + 0.1 + 0.1 != 1.0 in binary floats; rational handling must cope
        SplitSpec(0.8, 0.1, 0.1)

    def test_negative_fraction_rejected(self):
        with pytest.raises(DataError):
            SplitSpec(1.2, -0.1, -0.1)

    def test_too_small_corpus(self):
        with pytest.raises(DataError):
            split_corpus(random_corpus(2), SplitSpec(0.8, 0.1, 0.1))

    def test_nonzero_fraction_yielding_zero_errors(self):
        with pytest.raises(DataError, match="too small"):
            split_corpus(random_corpus(5), SplitSpec(0.8, 0.1, 0.1))


def _vector(seed: float) -> dict[str, float]:
    # values already at 6-decimal precision, the fixed point of the file format
    return {m: float(f"{(seed + i) % 101 / 101:.6f}") for i, m in enumerate(CANONICAL_METRICS)}


class TestResults:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([], path, "csv")
        assert path.read_text(encoding="utf-8") == "id\n"

    def test_column_count(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([("a", _vector(1)), ("b", _vector(2))], path, "csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert all(len(line.split(",")) == 24 for line in lines)

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [("a", _vector(3)), ("b", _vector(4))]
        write_results(rows, path, "csv")
        loaded = load_results(path, "csv")
        write_results(loaded, tmp_path / "r2.csv", "csv")
        assert path.read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert loaded == [(i, v) for i, v in rows]

    def test_six_decimal_formatting(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([("a", {"EM": 1.0, "ED": 0.5})], path, "csv")
        assert path.read_text(encoding="utf-8").splitlines()[1] == "a,1.000000,0.500000"

    def test_heterogeneous_metric_sets_rejected(self, tmp_path):
        rows = [("a", {"EM": 1.0}), ("b", {"ED": 1.0})]
        with pytest.raises(DataError, match="heterogeneous"):
            write_results(rows, tmp_path / "r.csv", "csv")

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        rows = [("a", _vector(5))]
        write_results(rows, path, "jsonl")
        loaded = load_results(path, "jsonl")
        assert loaded[0][0] == "a"
        assert loaded[0][1] == rows[0][1]

    @pytest.mark.parametrize("line", [
        '{"scores": {"EM": 1.0}}',
        '{"id": "a"}',
        '{"id": "a", "scores": [1.0]}',
        '["a", {"EM": 1.0}]',
        '{"id": "a", "scores": {"EM": NaN}}',
        '{"id": "a", "scores": {"EM": "x"}}',
    ], ids=["no-id", "no-scores", "scores-not-an-object", "not-an-object", "nan", "not-a-number"])
    def test_malformed_jsonl_result_row_rejected_with_line(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "b", "scores": {"EM": 1.0}}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"r\.jsonl:2:"):
            load_results(path, "jsonl")

    def test_duplicate_result_ids_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("id,EM\na,1.000000\na,0.000000\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_results(path, "csv")

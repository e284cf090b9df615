from __future__ import annotations

import pytest

from evalkit import Corpus, DataError
from evalkit.report import (
    build_report,
    render_boxplot_data,
    render_correlation_table,
    render_offset_table,
    render_sc_marker,
)
from evalkit.stats import CorrelationRow, OffsetRow

from conftest import make_sample


def offset_rows(metric_values):
    return [OffsetRow(m, v, abs(v - 0.5)) for m, v in metric_values]


class TestOffsetTable:
    def test_identity_corpus_em_row(self):
        rows = {"whole": [OffsetRow("EM", 1.0, 0.0)]}
        doc = render_offset_table(rows, "txt")
        assert "1.000" in doc and "0.000" in doc and "EM" in doc

    def test_average_footer_is_hand_arithmetic(self):
        rows = {"whole": [OffsetRow("EM", 0.6, 0.1), OffsetRow("ED", 0.8, 0.3)]}
        doc = render_offset_table(rows, "csv")
        footer = doc.strip().splitlines()[-1].split(",")
        assert footer[0] == "Average"
        assert footer[1] == "0.700" and footer[2] == "0.200"

    def test_empty_partition_renders_na(self):
        rows = {
            "whole": [OffsetRow("EM", 1.0, 0.0)],
            "wrong": None,
        }
        doc = render_offset_table(rows, "csv")
        assert ",n/a,n/a," in doc

    def test_best_and_worst_flags(self):
        rows = {"whole": [
            OffsetRow("EM", 0.5, 0.0),
            OffsetRow("ED", 0.9, 0.4),
            OffsetRow("CA", 0.7, 0.2),
        ]}
        doc = render_offset_table(rows, "csv")
        lines = {line.split(",")[0]: line for line in doc.splitlines()}
        assert lines["EM"].split(",")[3] == "best"
        assert lines["ED"].split(",")[3] == "worst"
        assert lines["CA"].split(",")[3] == ""

    def test_tied_offsets_flagged_jointly(self):
        rows = {"whole": [
            OffsetRow("EM", 0.5, 0.0),
            OffsetRow("ED", 0.5, 0.0),
            OffsetRow("CA", 0.7, 0.2),
        ]}
        doc = render_offset_table(rows, "csv")
        lines = {line.split(",")[0]: line.split(",") for line in doc.splitlines()}
        assert lines["EM"][3] == "best" and lines["ED"][3] == "best"

    def test_mismatched_metric_sets_rejected(self):
        rows = {
            "whole": [OffsetRow("EM", 1.0, 0.0)],
            "correct": [OffsetRow("ED", 1.0, 0.0)],
        }
        with pytest.raises(DataError, match="disagree"):
            render_offset_table(rows, "txt")

    def test_empty_metric_set_rejected(self):
        for rows in ({"whole": []}, {"whole": [], "wrong": None}):
            with pytest.raises(DataError, match="at least one metric"):
                render_offset_table(rows, "txt")

    def test_empty_partitions_fill_every_row_and_the_footer(self):
        rows = {"correct": None, "whole": offset_rows([("EM", 0.4), ("ED", 0.9)]), "wrong": None}
        assert render_offset_table(rows, "csv").splitlines() == [
            "metric,correct_value,correct_offset,correct_flag,whole_value,whole_offset,"
            "whole_flag,wrong_value,wrong_offset,wrong_flag",
            "EM,n/a,n/a,,0.400,0.100,best,n/a,n/a,",
            "ED,n/a,n/a,,0.900,0.400,worst,n/a,n/a,",
            "Average,n/a,n/a,,0.650,0.250,,n/a,n/a,",
        ]

    def test_deterministic_rendering(self):
        rows = {"whole": offset_rows([("EM", 0.4), ("ED", 0.9)])}
        for fmt in ("txt", "csv", "md"):
            assert render_offset_table(rows, fmt) == render_offset_table(rows, fmt)

    def test_numeric_cells_reparse_at_three_decimals(self):
        value = 0.123456789
        rows = {"whole": [OffsetRow("EM", value, abs(value - 0.5))]}
        doc = render_offset_table(rows, "csv")
        cell = doc.splitlines()[1].split(",")[1]
        assert float(cell) == round(value, 3)


class TestCorrelationTable:
    def test_single_perfect_metric_flagged_best(self):
        rows = [CorrelationRow("EM", 1.0, 1.0, 10)]
        doc = render_correlation_table(rows, "csv")
        assert "EM,1.000,best,1.000,best,10" in doc

    def test_undefined_rendered_and_excluded_from_average(self):
        rows = [
            CorrelationRow("EM", 1.0, 1.0, 10),
            CorrelationRow("ED", None, None, 10),
        ]
        doc = render_correlation_table(rows, "csv")
        assert "ED,undef,,undef,,10" in doc
        footer = [line for line in doc.splitlines() if line.startswith("Average")][0]
        assert footer.split(",")[1] == "1.000"  # only the defined row averaged
        assert "1 metric(s) undefined" in doc

    def test_column_averages_hand_computed(self):
        rows = [
            CorrelationRow("EM", 0.8, 0.6, 5),
            CorrelationRow("ED", 0.4, 0.2, 5),
        ]
        doc = render_correlation_table(rows, "csv")
        footer = [line for line in doc.splitlines() if line.startswith("Average")][0]
        cells = footer.split(",")
        assert cells[1] == "0.600" and cells[3] == "0.400"

    def test_markdown_shape(self):
        rows = [CorrelationRow("EM", 0.5, 0.5, 3)]
        doc = render_correlation_table(rows, "md")
        assert doc.startswith("| metric")
        assert "| EM" in doc


class TestBoxplotData:
    def test_degenerate_box(self):
        doc = render_boxplot_data({"EM": 0.5, "ED": 0.5})
        line = doc.splitlines()[1].split(",")
        assert line[0] == "all-metrics"
        assert line[1:7] == ["0.500"] * 6
        assert line[7] == "0.000"

    def test_five_number_summary_matches_describe(self):
        from evalkit import describe

        means = {f"m{i}": v for i, v in enumerate([0.1, 0.4, 0.5, 0.9])}
        stats = describe(list(means.values()))
        line = render_boxplot_data(means).splitlines()[1].split(",")
        assert line[1] == f"{stats.min:.3f}"
        assert line[3] == f"{stats.median:.3f}"
        assert line[5] == f"{stats.max:.3f}"

    def test_marker_file(self):
        assert render_sc_marker(0.53) == "sc_mean\n0.530\n"


class TestBuildReport:
    def _corpus_and_scores(self):
        labels = [1, 0, 1, 0]
        corpus = Corpus(tuple(make_sample(i, sc=sc) for i, sc in enumerate(labels)))
        scores = {
            s.id: {"EM": float(s.sc), "ED": 0.25 * (i + 1)}
            for i, s in enumerate(corpus)
        }
        return corpus, scores

    def test_marker_equals_corpus_sc_mean(self):
        corpus, scores = self._corpus_and_scores()
        report = build_report(corpus, scores)
        assert report.sc_marker == pytest.approx(0.5)
        assert report.metadata["labeled"] == "4"

    def test_offsets_cover_three_partitions(self):
        corpus, scores = self._corpus_and_scores()
        report = build_report(corpus, scores)
        assert set(report.offset_rows) == {"whole", "correct", "wrong"}

    def test_unlabeled_counted(self):
        corpus, scores = self._corpus_and_scores()
        extra = make_sample(99, sc=None)
        corpus = Corpus(corpus.samples + (extra,))
        scores[extra.id] = {"EM": 0.0, "ED": 0.0}
        report = build_report(corpus, scores)
        assert report.metadata["unlabeled_skipped"] == "1"

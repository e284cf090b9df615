"""Deterministic rendering of analyses as plain-text, CSV and Markdown tables.

Numbers are printed with three decimals (two significant report digits plus a
guard digit) and flags live in their own columns, so every numeric cell
re-parses to the value that produced it. Identical inputs produce byte-identical
documents.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence

from .corpus import Corpus
from .errors import DataError
from .stats import (
    CorrelationRow,
    OffsetRow,
    correlate,
    describe,
    offsets,
    partition_by_sc,
    sc_mean,
)

NA = "n/a"
UNDEF = "undef"


def _fmt(value: float | None) -> str:
    return UNDEF if value is None else f"{value:.3f}"


def _render_rows(header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    if fmt == "md":
        out = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |"]
        out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in rows:
            out.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
        return "\n".join(out) + "\n"
    if fmt == "txt":
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        out.append("  ".join("-" * w for w in widths))
        for row in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(out) + "\n"
    raise DataError(f"unknown render format {fmt!r} (expected txt, csv or md)")


def _column(values: Sequence[float | None], lower_is_better: bool) -> tuple[list[str], list[str]]:
    """The cells of a table column of `values` ending in their Average, and
    the column of their flags: "best" at the better end and "worst" at the
    other, ties sharing a flag. None is undefined: it renders "undef", is left
    out of the Average ("undef" if nothing is defined) and gets no flag."""
    defined = [v for v in values if v is not None]
    lo, hi = min(defined, default=None), max(defined, default=None)
    best, worst = (lo, hi) if lower_is_better else (hi, lo)
    cells = [*map(_fmt, values), _fmt(sum(defined) / len(defined)) if defined else UNDEF]
    flags = ["" if v is None else "best" if v == best else "worst" if v == worst else ""
             for v in values]
    return cells, [*flags, ""]


def render_offset_table(
    rows_by_partition: Mapping[str, Sequence[OffsetRow] | None], fmt: str = "txt"
) -> str:
    """One row per metric with (value, offset, flag) per partition plus an
    Average footer; empty partitions render as n/a columns."""
    metric_sets = {
        tuple(r.metric for r in rows) for rows in rows_by_partition.values() if rows is not None
    }
    if not metric_sets:
        raise DataError("offset table needs at least one non-empty partition")
    if len(metric_sets) != 1:
        raise DataError("partitions disagree on the metric set")
    (metrics,) = metric_sets
    if not metrics:
        raise DataError("offset table needs at least one metric")

    # Built a column at a time, each ending in its footer cell, then transposed.
    header = ["metric"]
    columns = [[*metrics, "Average"]]
    height = len(columns[0])
    for part, rows in rows_by_partition.items():
        header += [f"{part}_value", f"{part}_offset", f"{part}_flag"]
        if rows is None:
            columns += [[NA] * height, [NA] * height, [""] * height]
            continue
        values, _ = _column([r.mean_value for r in rows], lower_is_better=True)
        columns += [values, *_column([r.offset for r in rows], lower_is_better=True)]
    return _render_rows(header, list(zip(*columns)), fmt)


def render_correlation_table(rows: Sequence[CorrelationRow], fmt: str = "txt") -> str:
    """Per-metric r and tau with an Average footer; undefined cells render
    "undef" and are excluded from the averages, with a note saying how many."""
    if not rows:
        raise DataError("correlation table needs at least one row")
    header = ["metric", "pearson_r", "r_flag", "kendall_tau", "tau_flag", "n"]
    columns = [
        [*(r.metric for r in rows), "Average"],
        *_column([r.pearson_r for r in rows], lower_is_better=False),
        *_column([r.kendall_tau for r in rows], lower_is_better=False),
        [*(str(r.n) for r in rows), str(rows[0].n)],
    ]
    doc = _render_rows(header, list(zip(*columns)), fmt)
    n_undef = sum(1 for r in rows if r.pearson_r is None or r.kendall_tau is None)
    if n_undef:
        note = f"note: {n_undef} metric(s) undefined, excluded from the average"
        doc += f"# {note}\n" if fmt == "csv" else f"{note}\n"
    return doc


def render_boxplot_data(per_metric_means: Mapping[str, float]) -> str:
    """Plot-ready CSV summary of the distribution of the per-metric means."""
    if not per_metric_means:
        raise DataError("boxplot data needs at least one metric mean")
    stats = describe(list(per_metric_means.values()))
    row = ["all-metrics", *(_fmt(getattr(stats, name)) for name in stats._fields)]
    return _render_rows(["metric", *stats._fields], [row], "csv")


def render_sc_marker(value: float) -> str:
    """One-row CSV file carrying the SC mean, the reference marker for the boxplot."""
    return _render_rows(["sc_mean"], [[_fmt(value)]], "csv")


def build_report(corpus: Corpus, scores: Mapping[str, Mapping[str, float]]) -> dict[str, str]:
    """The documents of the analysis by file name: the offset and correlation
    tables as txt, csv and md, the boxplot data and SC marker as csv, and
    the run metadata as JSON."""
    whole, correct, wrong = partition_by_sc(corpus)
    offset_rows: dict[str, Sequence[OffsetRow] | None] = {}
    for part in (whole, correct, wrong):
        offset_rows[part.kind] = offsets(corpus, scores, part) if len(part) else None
    correlation_rows = correlate(corpus, scores)
    per_metric_means = {r.metric: r.mean_value for r in offset_rows["whole"]}
    marker = sc_mean(corpus, whole)
    metadata = {
        "samples": str(len(corpus)),
        "labeled": str(len(whole)),
        "unlabeled_skipped": str(len(corpus) - len(whole)),
        "sc_mean": f"{marker:.6f}",
    }
    for key, value in corpus.provenance.items():
        metadata[f"corpus_{key}"] = str(value)
    documents = {}
    for fmt in ("txt", "csv", "md"):
        documents[f"offsets.{fmt}"] = render_offset_table(offset_rows, fmt)
        documents[f"correlation.{fmt}"] = render_correlation_table(correlation_rows, fmt)
    documents["boxplot.csv"] = render_boxplot_data(per_metric_means)
    documents["sc_marker.csv"] = render_sc_marker(marker)
    documents["analysis_meta.json"] = json.dumps(metadata, indent=2, sort_keys=True) + "\n"
    return documents

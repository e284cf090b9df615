"""Deterministic rendering of analyses as plain-text, CSV and Markdown tables.

Numbers are printed with three decimals (two significant report digits plus a
guard digit) and flags live in their own columns, so every numeric cell
re-parses to the value that produced it. Identical inputs produce byte-identical
documents.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ._record import Record
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

FORMATS = ("txt", "csv", "md")

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


def _flags(values: Mapping[str, float | None], lower_is_better: bool) -> dict[str, str]:
    """Flag the metrics at the better end "best" and those at the other end
    "worst"; ties share flags, and metrics whose value is None get none."""
    defined = {metric: value for metric, value in values.items() if value is not None}
    if not defined:
        return {}
    lo = min(defined.values())
    hi = max(defined.values())
    best, worst = (lo, hi) if lower_is_better else (hi, lo)
    return {
        metric: "best" if value == best else "worst" if value == worst else ""
        for metric, value in defined.items()
    }


def render_offset_table(
    rows_by_partition: Mapping[str, Sequence[OffsetRow] | None], fmt: str = "txt"
) -> str:
    """One row per metric with (value, offset, flag) per partition plus an
    Average footer; empty partitions render as n/a columns."""
    partitions = tuple(rows_by_partition)
    metric_sets = []
    for part in partitions:
        rows = rows_by_partition[part]
        if rows is not None:
            metric_sets.append(tuple(r.metric for r in rows))
    if not metric_sets:
        raise DataError("offset table needs at least one non-empty partition")
    if len(set(metric_sets)) != 1:
        raise DataError("partitions disagree on the metric set")
    metrics = metric_sets[0]

    by_part: dict[str, dict[str, OffsetRow]] = {}
    flags: dict[str, dict[str, str]] = {}
    for part in partitions:
        rows = rows_by_partition[part]
        if rows is None:
            continue
        by_part[part] = {r.metric: r for r in rows}
        flags[part] = _flags({r.metric: r.offset for r in rows}, lower_is_better=True)

    header = ["metric"]
    for part in partitions:
        header += [f"{part}_value", f"{part}_offset", f"{part}_flag"]
    table: list[list[str]] = []
    for metric in metrics:
        row = [metric]
        for part in partitions:
            if part not in by_part:
                row += [NA, NA, ""]
            else:
                entry = by_part[part][metric]
                row += [_fmt(entry.mean_value), _fmt(entry.offset), flags[part][metric]]
        table.append(row)
    footer = ["Average"]
    for part in partitions:
        if part not in by_part:
            footer += [NA, NA, ""]
        else:
            rows = list(by_part[part].values())
            footer += [
                _fmt(sum(r.mean_value for r in rows) / len(rows)),
                _fmt(sum(r.offset for r in rows) / len(rows)),
                "",
            ]
    table.append(footer)
    return _render_rows(header, table, fmt)


def render_correlation_table(rows: Sequence[CorrelationRow], fmt: str = "txt") -> str:
    """Per-metric r and tau with an Average footer; undefined cells render
    "undef" and are excluded from the averages, with a note saying how many."""
    if not rows:
        raise DataError("correlation table needs at least one row")
    r_flags = _flags({r.metric: r.pearson_r for r in rows}, lower_is_better=False)
    t_flags = _flags({r.metric: r.kendall_tau for r in rows}, lower_is_better=False)
    header = ["metric", "pearson_r", "r_flag", "kendall_tau", "tau_flag", "n"]
    table = []
    for row in rows:
        table.append(
            [
                row.metric,
                _fmt(row.pearson_r),
                r_flags.get(row.metric, ""),
                _fmt(row.kendall_tau),
                t_flags.get(row.metric, ""),
                str(row.n),
            ]
        )
    defined_r = [r.pearson_r for r in rows if r.pearson_r is not None]
    defined_t = [r.kendall_tau for r in rows if r.kendall_tau is not None]
    n_undef = sum(1 for r in rows if r.pearson_r is None or r.kendall_tau is None)
    table.append(
        [
            "Average",
            _fmt(sum(defined_r) / len(defined_r)) if defined_r else UNDEF,
            "",
            _fmt(sum(defined_t) / len(defined_t)) if defined_t else UNDEF,
            "",
            str(rows[0].n),
        ]
    )
    doc = _render_rows(header, table, fmt)
    if n_undef:
        note = f"note: {n_undef} metric(s) undefined, excluded from the average"
        if fmt == "csv":
            doc += f"# {note}\n"
        else:
            doc += f"{note}\n"
    return doc


def render_boxplot_data(per_metric_means: Mapping[str, float], fmt: str = "csv") -> str:
    """Plot-ready summary of the distribution of the per-metric means."""
    if not per_metric_means:
        raise DataError("boxplot data needs at least one metric mean")
    stats = describe(list(per_metric_means.values()))
    header = ["metric", "min", "q1", "median", "q3", "max", "mean", "std"]
    row = [
        "all-metrics",
        _fmt(stats.min),
        _fmt(stats.q1),
        _fmt(stats.median),
        _fmt(stats.q3),
        _fmt(stats.max),
        _fmt(stats.mean),
        _fmt(stats.std),
    ]
    return _render_rows(header, [row], fmt)


def render_sc_marker(value: float, fmt: str = "csv") -> str:
    """One-row file carrying the SC mean, the reference marker for the boxplot."""
    return _render_rows(["sc_mean"], [[_fmt(value)]], fmt)


class AnalysisReport(Record):
    """Everything the analysis stage derives from a corpus and its scores."""

    _fields = ("metadata", "offset_rows", "correlation_rows", "per_metric_means", "sc_marker")

    def __init__(
        self,
        metadata: Mapping[str, str],
        offset_rows: Mapping[str, Sequence[OffsetRow] | None],
        correlation_rows: Sequence[CorrelationRow],
        per_metric_means: Mapping[str, float],
        sc_marker: float,
    ) -> None:
        self.__dict__.update(
            metadata=metadata, offset_rows=offset_rows, correlation_rows=correlation_rows,
            per_metric_means=per_metric_means, sc_marker=sc_marker,
        )


def build_report(corpus: Corpus, scores: Mapping[str, Mapping[str, float]]) -> AnalysisReport:
    """Run partitioning, offsets and correlation."""
    whole, correct, wrong = partition_by_sc(corpus)
    offset_rows: dict[str, Sequence[OffsetRow] | None] = {}
    for part in (whole, correct, wrong):
        offset_rows[part.kind] = offsets(corpus, scores, part) if len(part) else None
    correlation_rows = correlate(corpus, scores)
    whole_rows = offset_rows["whole"]
    per_metric_means = {r.metric: r.mean_value for r in whole_rows}
    marker = sc_mean(corpus, whole)
    metadata = {
        "samples": str(len(corpus)),
        "labeled": str(len(whole)),
        "unlabeled_skipped": str(len(corpus) - len(whole)),
        "sc_mean": f"{marker:.6f}",
    }
    for key, value in corpus.provenance.items():
        metadata[f"corpus_{key}"] = str(value)
    return AnalysisReport(
        metadata=metadata,
        offset_rows=offset_rows,
        correlation_rows=correlation_rows,
        per_metric_means=per_metric_means,
        sc_marker=marker,
    )

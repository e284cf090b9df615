"""Spans around evalkit's public functions, recorded from outside evalkit.

`Tracer.install()` replaces each traced function with a wrapper in every
evalkit module that holds it (evalkit modules import each other's functions
by name), and `SyntaxChecker.check` on its class. A span records its name,
start, end, parent span and the benchmark stage it ran in; spans are kept in
memory and summarized into the per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict

# (layer, module, attribute) of every traced function.
TRACED = [
    ("cli", "evalkit.cli", "cmd_eval"),
    ("cli", "evalkit.cli", "cmd_analyze"),
    ("cli", "evalkit.cli", "cmd_preprocess"),
    ("corpus", "evalkit.corpus", "load_corpus"),
    ("corpus", "evalkit.corpus", "write_corpus"),
    ("corpus", "evalkit.corpus", "write_results"),
    ("corpus", "evalkit.corpus", "load_results"),
    ("textprep", "evalkit.textprep", "tokenize"),
    ("textprep", "evalkit.textprep", "standardize"),
    ("textprep", "evalkit.textprep", "destandardize"),
    ("metrics", "evalkit.metrics", "evaluate_corpus"),
    ("metrics", "evalkit.metrics", "evaluate_pair"),
    ("metrics", "evalkit.metrics", "rouge_n"),
    ("metrics", "evalkit.metrics", "rouge_l"),
    ("metrics", "evalkit.metrics", "bleu"),
    ("metrics", "evalkit.metrics", "meteor"),
    ("metrics", "evalkit.metrics", "exact_match"),
    ("metrics", "evalkit.metrics", "edit_distance_norm"),
    ("metrics", "evalkit.metrics", "compilation_accuracy"),
    ("kernels", "evalkit._kernels", "levenshtein"),
    ("kernels", "evalkit._kernels", "lcs_length"),
    ("stats", "evalkit.stats", "partition_by_sc"),
    ("stats", "evalkit.stats", "offsets"),
    ("stats", "evalkit.stats", "correlate"),
    ("stats", "evalkit.stats", "describe"),
    ("report", "evalkit.report", "build_report"),
    ("report", "evalkit.report", "render_offset_table"),
    ("report", "evalkit.report", "render_correlation_table"),
    ("report", "evalkit.report", "render_boxplot_data"),
    ("report", "evalkit.report", "render_sc_marker"),
]
LAYERS = ("cli", "corpus", "textprep", "metrics", "kernels", "checkers", "stats", "report")

# Percentiles tried for a tail, highest first; the first one with ten or more
# values beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent span, stage], plus the verdict for checker spans
        self.spans: list[list] = []
        self.stage = ""
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            label = name
            if name == "textprep.tokenize" and args[1].mode == "code-punct":
                label = "textprep.tokenize_punct"
            span = [label, time.perf_counter_ns(), 0, stack[-1] if stack else None, tracer.stage]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if name == "checkers.check":
                span.append(result.accepted)
            return result

        return traced

    def install(self) -> None:
        from evalkit.checkers import SyntaxChecker

        modules = [m for key, m in sys.modules.items() if key.startswith("evalkit") and m]
        for layer, module, attr in TRACED:
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(f"{layer}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        self._undo.append((SyntaxChecker, "check", SyntaxChecker.check))
        SyntaxChecker.check = self._wrap("checkers.check", SyntaxChecker.check)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self) -> list[list]:
        """Spans as [name, start_ns, end_ns, parent index, stage, (verdict)] rows."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [[s[0], s[1], s[2], index.get(id(s[3])), *s[4:]] for s in self.spans]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 values beyond it."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        if len(ordered) * (100 - pct) / 100 >= 10:
            rank = max(1, -(-len(ordered) * pct // 100))
            return pct, ordered[int(rank) - 1]
    return 50.0, statistics.median(ordered)


def summarize(spans: list[list], n: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the spans of a traced round over n samples.

    Returns ({name: (value, unit)}, notes); the notes state each tail's
    percentile and sample count.
    """
    ns = 1e-9
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])].append(span)

    def dur(span) -> float:
        return (span[2] - span[1]) * ns

    def of(name: str, stage: str | None = "eval") -> list:
        return [s for s in spans if s[0] == name and (stage is None or s[4] == stage)]

    def med(values: list[float], scale: float) -> float:
        return statistics.median(values) * scale if values else 0.0

    def ancestor(span, name: str):
        while span is not None and span[0] != name:
            span = span[3]
        return span

    def per_parent(name: str, parent: str, stage: str) -> list[float]:
        """Summed duration of `name` spans under each `parent` span."""
        totals: dict[int, float] = defaultdict(float)
        for top in of(parent, stage):
            totals[id(top)] = 0.0
        for span in of(name, stage):
            top = ancestor(span[3], parent)
            if top is not None:
                totals[id(top)] += dur(span)
        return list(totals.values())

    out: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    us, ms = 1e6, 1e3
    pairs = of("metrics.evaluate_pair")
    pair_times = [dur(s) for s in pairs]
    meteor_times = [dur(s) for s in of("metrics.meteor")]

    out["cli.eval_s"] = (sum(dur(s) for s in of("cli.cmd_eval")), "s")
    out["cli.analyze_ms"] = (med([dur(s) for s in of("cli.cmd_analyze", "analyze")], ms), "ms")
    pre = sorted(of("cli.cmd_preprocess", "preprocess"), key=lambda s: s[1])
    out["cli.preprocess_ms"] = (med([dur(s) for s in pre[0::2]], ms)
                                + med([dur(s) for s in pre[1::2]], ms), "ms")
    out["corpus.load_corpus_us_per_sample"] = (
        med([dur(s) for s in of("corpus.load_corpus", None)], us / n), "us")
    out["corpus.write_corpus_us_per_sample"] = (
        med([dur(s) for s in of("corpus.write_corpus", "preprocess")], us / n), "us")
    out["corpus.write_results_us_per_row"] = (
        med([dur(s) for s in of("corpus.write_results")], us / n), "us")
    out["corpus.load_results_us_per_row"] = (
        med([dur(s) for s in of("corpus.load_results", "analyze")], us / n), "us")
    out["textprep.tokenize_us_per_snippet"] = (med([dur(s) for s in of("textprep.tokenize")], us), "us")
    out["textprep.tokenize_punct_us_per_snippet"] = (
        med([dur(s) for s in of("textprep.tokenize_punct")], us), "us")
    out["textprep.standardize_us_per_intent"] = (
        med([dur(s) for s in of("textprep.standardize", "preprocess")], us), "us")
    out["textprep.destandardize_us_per_snippet"] = (
        med([dur(s) for s in of("textprep.destandardize", "preprocess")], us), "us")
    out["metrics.evaluate_pair_p50_us"] = (med(pair_times, us), "us")
    pct, value = tail(pair_times)
    out["metrics.evaluate_pair_tail_us"] = (value * us, "us")
    notes.append(f"metrics.evaluate_pair_tail_us is p{pct:g} of {len(pair_times)} pairs")
    out["metrics.evaluate_pair_self_us"] = (
        med([dur(s) - sum(dur(c) for c in children[id(s)]) for s in pairs], us), "us")
    out["metrics.meteor_us_per_pair"] = (med(meteor_times, us), "us")
    pct, value = tail(meteor_times)
    out["metrics.meteor_tail_us"] = (value * us, "us")
    notes.append(f"metrics.meteor_tail_us is p{pct:g} of {len(meteor_times)} pairs")
    out["metrics.meteor_total_ms"] = (sum(meteor_times) * ms, "ms")
    for metric, name in (("rouge_n", "metrics.rouge_n"), ("bleu", "metrics.bleu"),
                         ("rouge_l", "metrics.rouge_l"), ("exact_match", "metrics.exact_match"),
                         ("edit_distance", "metrics.edit_distance_norm")):
        out[f"metrics.{metric}_us_per_pair"] = (
            med(per_parent(name, "metrics.evaluate_pair", "eval"), us), "us")
    out["metrics.evaluate_corpus_s"] = (sum(dur(s) for s in of("metrics.evaluate_corpus")), "s")
    out["metrics.evaluate_corpus_parallel_s"] = (
        sum(dur(s) for s in of("metrics.evaluate_corpus", "eval_parallel")), "s")
    lev = [dur(s) for s in of("kernels.levenshtein")]
    out["kernels.levenshtein_us_per_pair"] = (med(lev, us), "us")
    out["kernels.levenshtein_total_ms"] = (sum(lev) * ms, "ms")
    out["kernels.lcs_length_us_per_pair"] = (med([dur(s) for s in of("kernels.lcs_length")], us), "us")
    checks = of("checkers.check")
    out["checkers.check_us_per_snippet"] = (med([dur(s) for s in checks], us), "us")
    out["checkers.calls"] = (len(checks), "count")
    out["checkers.accepted"] = (sum(s[5] for s in checks), "count")
    for name, key in (("stats.offsets", "stats.offsets_ms"), ("stats.correlate", "stats.correlate_ms"),
                      ("report.build_report", "report.build_report_ms")):
        out[key] = (med(per_parent(name, "cli.cmd_analyze", "analyze"), ms), "ms")
    render = [s for s in spans if s[0].startswith("report.render_") and s[4] == "analyze"]
    per_call: dict[int, float] = defaultdict(float)
    for span in render:
        per_call[id(ancestor(span, "cli.cmd_analyze"))] += dur(span)
    out["report.render_ms"] = (med(list(per_call.values()), ms), "ms")

    # Time busy per layer: self time summed over the single-threaded stages.
    busy: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        if span[4] != "eval_parallel":
            busy[span[0].split(".")[0]] += dur(span) - sum(dur(c) for c in children[id(span)])
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (busy[layer] * ms, "ms")
    return out, notes

"""Command-line entry point: eval -> analyze pipeline plus preprocess and split.

The pipeline is file-mediated (eval writes a result table, analyze reads it
back) so human labels can be added to the corpus between the two stages. Exit
codes: 0 success, 1 configuration error, 2 data error, 3 checker infrastructure
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

# argparse imports these when the parser is built (locale for its gettext
# lookup, shutil for the help width), so the first command would load them
import locale  # noqa: F401
import shutil  # noqa: F401

from . import __version__
from .checkers import SyntaxChecker
from .corpus import (
    Corpus,
    Sample,
    SplitSpec,
    load_corpus,
    load_results,
    open_utf8,
    split_corpus,
    write_corpus,
    write_results,
)
from .errors import CheckerError, ConfigError, DataError
from .metrics import (
    CANONICAL_METRICS,
    DEFAULT_BLEU_EPSILON,
    MeteorParams,
    MetricConfig,
    evaluate_corpus,
)
from .textprep import (
    StandardizationMap,
    StopwordList,
    TokenizerConfig,
    default_rules,
    default_stopwords,
    destandardize,
    filter_stopwords,
    load_rules,
    standardize,
    tokenize,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_CHECKER = 3

STOPWORDS_ENV = "EVALKIT_STOPWORDS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _corpus_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "csv" if Path(path).suffix.lower() == ".csv" else "jsonl"


def _object(value, where: str) -> dict:
    """`value` if it is a JSON object, else a ConfigError naming `where`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {json.dumps(value)}")
    return value


def _tokenizer_from_dict(obj, where: str) -> TokenizerConfig:
    unknown = set(_object(obj, where)) - {"mode", "newline_is_token", "lowercase"}
    if unknown:
        raise ConfigError(f"unknown {where} option(s): {', '.join(sorted(unknown))}")
    try:
        return TokenizerConfig(**obj)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _config_kwargs(obj) -> dict:
    """MetricConfig keyword arguments from a parsed metrics config file."""
    allowed = {"metrics", "tokenizers", "meteor_tokenizer", "bleu", "meteor", "checker"}
    unknown = set(_object(obj, "the top level")) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    kwargs: dict = {}
    if "metrics" in obj:
        metrics = obj["metrics"]
        if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
            raise ConfigError(f"metrics must be a list of metric names, got {json.dumps(metrics)}")
        kwargs["metrics"] = tuple(metrics)
    if "tokenizers" in obj:
        base = dict(MetricConfig().tokenizers)
        for language, tok in _object(obj["tokenizers"], "tokenizers").items():
            base[language] = _tokenizer_from_dict(tok, f"tokenizers.{language}")
        kwargs["tokenizers"] = base
    if "meteor_tokenizer" in obj:
        kwargs["meteor_tokenizer"] = _tokenizer_from_dict(
            obj["meteor_tokenizer"], "meteor_tokenizer"
        )
    if "bleu" in obj:
        bleu = _object(obj["bleu"], "bleu")
        bad = set(bleu) - {"smoothing", "epsilon"}
        if bad:
            raise ConfigError(f"unknown bleu option(s): {', '.join(sorted(bad))}")
        kwargs["bleu_smoothing"] = bleu.get("smoothing", "none")
        epsilon = bleu.get("epsilon", DEFAULT_BLEU_EPSILON)
        if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
            raise ConfigError(f"bleu epsilon must be a number, got {json.dumps(epsilon)}")
        kwargs["bleu_epsilon"] = float(epsilon)
    if "meteor" in obj:
        meteor = _object(obj["meteor"], "meteor")
        bad = set(meteor) - {"alpha", "beta", "gamma"}
        if bad:
            raise ConfigError(f"unknown meteor option(s): {', '.join(sorted(bad))}")
        kwargs["meteor_params"] = MeteorParams(**meteor)
    if "checker" in obj:
        if not isinstance(obj["checker"], str):
            raise ConfigError(f"checker must be a string, got {json.dumps(obj['checker'])}")
        kwargs["checker"] = obj["checker"]
    return kwargs


def load_metric_config(path: str | None, checker: str | None = None) -> MetricConfig:
    """Build a MetricConfig from a JSON file plus an optional checker override.

    A problem with the file's contents raises ConfigError naming the file.
    """
    override = {} if checker is None else {"checker": checker}
    cfg = MetricConfig(**override)  # so a bad --checker is not reported as the file's
    if path is None:
        return cfg
    try:
        with open_utf8(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"metrics config not found: {path}") from None
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    try:
        return MetricConfig(**{**_config_kwargs(obj), **override})
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _config_echo(cfg: MetricConfig, jobs: int) -> str:
    """Stable JSON description of the effective run configuration."""

    def tok(t: TokenizerConfig) -> dict:
        return {"mode": t.mode, "newline_is_token": t.newline_is_token, "lowercase": t.lowercase}

    checker = cfg.checker
    if isinstance(checker, SyntaxChecker):
        checker = f"{checker.kind}:{checker.name}"
    obj = {
        "bleu": {"smoothing": cfg.bleu_smoothing, "epsilon": cfg.bleu_epsilon},
        "checker": checker,
        "jobs": jobs,
        "meteor": {
            "alpha": cfg.meteor_params.alpha,
            "beta": cfg.meteor_params.beta,
            "gamma": cfg.meteor_params.gamma,
        },
        "meteor_tokenizer": tok(cfg.meteor_tokenizer),
        "metrics": list(cfg.metrics),
        "tokenizers": {lang: tok(t) for lang, t in sorted(cfg.tokenizers.items())},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus, _corpus_format(args.corpus, args.format))
    cfg = load_metric_config(args.metrics_config, args.checker)
    rows = evaluate_corpus(corpus, cfg, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_results(rows, out / "results.csv")
    _write_text(out / "run_config.json", _config_echo(cfg, args.jobs))
    print(f"evaluated {len(rows)} samples -> {out / 'results.csv'}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .report import (
        build_report,
        render_boxplot_data,
        render_correlation_table,
        render_offset_table,
        render_sc_marker,
    )

    corpus = load_corpus(args.corpus, _corpus_format(args.corpus, args.format))
    report = build_report(corpus, dict(load_results(args.results)))
    wanted = tuple(report.offset_rows) if args.partition == "all" else (args.partition,)
    offset_rows = {k: report.offset_rows[k] for k in wanted}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for fmt in ("txt", "csv", "md"):
        _write_text(out / f"offsets.{fmt}", render_offset_table(offset_rows, fmt))
        _write_text(out / f"correlation.{fmt}", render_correlation_table(report.correlation_rows, fmt))
    _write_text(out / "boxplot.csv", render_boxplot_data(report.per_metric_means, "csv"))
    _write_text(out / "sc_marker.csv", render_sc_marker(report.sc_marker, "csv"))
    _write_text(
        out / "analysis_meta.json",
        json.dumps(dict(report.metadata), indent=2, sort_keys=True) + "\n",
    )
    skipped = report.metadata["unlabeled_skipped"]
    print(f"analyzed {report.metadata['labeled']} labeled samples "
          f"({skipped} unlabeled skipped) -> {out}")
    return EXIT_OK


def _stopword_list(args) -> StopwordList | None:
    if not args.filter_stopwords:
        return None
    path = args.stopwords or os.environ.get(STOPWORDS_ENV)
    return StopwordList.from_file(path) if path else default_stopwords()


def _load_sidecar(path: Path) -> dict[str, StandardizationMap]:
    """Read a standardization sidecar: one {"id": ..., "map": {...}} per line."""
    maps: dict[str, StandardizationMap] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: JSON parse error: {exc}") from None
            if not (isinstance(record, dict) and isinstance(record.get("id"), str)
                    and "map" in record):
                raise DataError(f"{where}: expected an object with 'id' and 'map'")
            smap = record["map"]
            if not isinstance(smap, dict) or not all(isinstance(v, str) for v in smap.values()):
                raise DataError(f"{where}: 'map' must be an object of placeholder -> literal")
            try:
                maps[record["id"]] = StandardizationMap(tuple(smap.items()))
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
    return maps


def cmd_preprocess(args) -> int:
    corpus = load_corpus(args.corpus, _corpus_format(args.corpus, args.format))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sidecar_path = Path(args.sidecar) if args.sidecar else out / "standardization_maps.jsonl"

    if args.destandardize:
        maps = _load_sidecar(sidecar_path)
        restored = []
        for s in corpus:
            smap = maps.get(s.id, StandardizationMap())
            restored.append(
                Sample(
                    id=s.id,
                    intent=destandardize(s.intent, smap),
                    reference=s.reference,
                    prediction=destandardize(s.prediction, smap),
                    sc=s.sc,
                    language=s.language,
                )
            )
        write_corpus(Corpus(tuple(restored), corpus.provenance), out / "corpus.jsonl", "jsonl")
        print(f"destandardized {len(restored)} samples -> {out / 'corpus.jsonl'}")
        return EXIT_OK

    rules = load_rules(args.rules) if args.rules else default_rules()
    stopwords = _stopword_list(args)
    processed = []
    with open(sidecar_path, "w", encoding="utf-8", newline="\n") as side:
        for s in corpus:
            intent = s.intent
            if stopwords is not None:
                seq = tokenize(intent, TokenizerConfig(mode="whitespace"))
                intent = " ".join(filter_stopwords(seq, stopwords))
            intent, smap = standardize(intent, rules)
            side.write(
                json.dumps({"id": s.id, "map": dict(smap.entries)}, ensure_ascii=False) + "\n"
            )
            processed.append(
                Sample(
                    id=s.id,
                    intent=intent,
                    reference=s.reference,
                    prediction=s.prediction,
                    sc=s.sc,
                    language=s.language,
                )
            )
    write_corpus(Corpus(tuple(processed), corpus.provenance), out / "corpus.jsonl", "jsonl")
    print(f"standardized {len(processed)} samples -> {out / 'corpus.jsonl'} (+ sidecar)")
    return EXIT_OK


def cmd_split(args) -> int:
    corpus = load_corpus(args.corpus, _corpus_format(args.corpus, args.format))
    spec = SplitSpec(args.train, args.valid, args.test, seed=args.seed)
    train, valid, test = split_corpus(corpus, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        write_corpus(part, out / f"{name}.jsonl", "jsonl")
    print(f"split {len(corpus)} -> {len(train)}/{len(valid)}/{len(test)} in {out}")
    return EXIT_OK


def _job_count(text: str) -> int:
    """argparse type of --jobs: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use; callers must not
    change it."""
    parser = _Parser(prog="evalkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"evalkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_args(p):
        p.add_argument("--corpus", required=True, help="corpus file (jsonl or csv)")
        p.add_argument("--format", choices=("jsonl", "csv"), default=None,
                       help="corpus format (default: by file extension)")
        p.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="score every sample and write a result table")
    add_corpus_args(p_eval)
    p_eval.add_argument("--metrics-config", default=None, help="metric configuration JSON")
    p_eval.add_argument("--checker", default=None,
                        help="syntax checker: none | auto | assembly | python | cmd:<template>")
    p_eval.add_argument("--jobs", type=_job_count, default=1,
                        help="external-checker commands run at once (an integer >= 1)")

    p_an = sub.add_parser("analyze", help="offset, correlation and boxplot reports")
    add_corpus_args(p_an)
    p_an.add_argument("--results", required=True, help="result table written by eval")
    p_an.add_argument("--partition", choices=("all", "whole", "correct", "wrong"),
                      default="all", help="which offset partitions to report")

    p_pre = sub.add_parser("preprocess", help="standardize intents (or invert with --destandardize)")
    add_corpus_args(p_pre)
    p_pre.add_argument("--rules", default=None, help="entity rules file (name=regex per line)")
    p_pre.add_argument("--stopwords", default=None,
                       help=f"stopword file (default: ${STOPWORDS_ENV} or the built-in list)")
    p_pre.add_argument("--filter-stopwords", action="store_true",
                       help="drop stopwords from intents before standardizing")
    p_pre.add_argument("--destandardize", action="store_true",
                       help="invert a previous run using its sidecar")
    p_pre.add_argument("--sidecar", default=None, help="standardization sidecar path")

    p_split = sub.add_parser("split", help="deterministic train/valid/test split")
    add_corpus_args(p_split)
    p_split.add_argument("--train", type=float, default=0.8)
    p_split.add_argument("--valid", type=float, default=0.1)
    p_split.add_argument("--test", type=float, default=0.1)
    p_split.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # looked up on each call, not bound into the cached parser, so a
        # cmd_* function replaced on this module (as a tracer does) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKER


if __name__ == "__main__":
    sys.exit(main())

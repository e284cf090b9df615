"""Command-line entry point: eval -> analyze pipeline plus preprocess.

The pipeline is file-mediated (eval writes a result table, analyze reads it
back) so human labels can be added to the corpus between the two stages. Exit
codes: 0 success, 1 configuration error, 2 data error, 3 checker infrastructure
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

# argparse imports these when the parser is built (locale for its gettext
# lookup, shutil for the help width), so the first command would load them
import locale  # noqa: F401
import shutil  # noqa: F401

from . import __version__
from .corpus import (
    Corpus,
    _json_lines,
    _to_json,
    _unique_keys,
    load_corpus,
    load_results,
    open_utf8,
    write_corpus,
    write_results,
)
from .errors import ConfigError, DataError, EvalkitError
from .metrics import MeteorParams, MetricConfig, evaluate_corpus
from .textprep import (
    StandardizationMap,
    TokenizerConfig,
    default_rules,
    default_stopwords,
    destandardize,
    filter_stopwords,
    load_rules,
    load_stopwords,
    standardize,
    tokenize,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        self.print_usage(sys.stderr)
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        # a command's parser runs this on the arguments after the command, so
        # one it does not know is reported with that command's usage
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _object(value, where: str, keys=None, what: str | None = None) -> dict:
    """`value` if it is a JSON object with no key outside `keys` (when given),
    else a ConfigError naming `where`, or `what` for an unknown key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {json.dumps(value)}")
    unknown = set(value).difference(value if keys is None else keys)
    if unknown:
        raise ConfigError(f"unknown {what or where + ' option(s)'}: {', '.join(sorted(unknown))}")
    return value


def _record(cls, obj, where: str):
    """`cls(**obj)` for a JSON object whose keys are fields of `cls`; a bad key
    or value raises ConfigError naming `where`."""
    _object(obj, where, cls._fields)
    try:
        return cls(**obj)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _config_kwargs(obj) -> dict:
    """MetricConfig keyword arguments from a parsed metrics config file."""
    keys = ("metrics", "tokenizers", "meteor_tokenizer", "bleu", "meteor")
    _object(obj, "the top level", keys, "config key(s)")
    kwargs: dict = {}
    if "metrics" in obj:
        kwargs["metrics"] = obj["metrics"]
    if "tokenizers" in obj:
        kwargs["tokenizers"] = {
            language: _record(TokenizerConfig, tok, f"tokenizers.{language}")
            for language, tok in _object(obj["tokenizers"], "tokenizers").items()
        }
    if "meteor_tokenizer" in obj:
        kwargs["meteor_tokenizer"] = _record(
            TokenizerConfig, obj["meteor_tokenizer"], "meteor_tokenizer"
        )
    if "bleu" in obj:
        bleu = _object(obj["bleu"], "bleu", ("smoothing", "epsilon"))
        smoothing = bleu.get("smoothing", "none")
        if "epsilon" in bleu and smoothing != "epsilon":  # it would change no score
            raise ConfigError(f'bleu epsilon needs "smoothing": "epsilon", got {json.dumps(smoothing)}')
        kwargs.update({f"bleu_{key}": value for key, value in bleu.items()})
    if "meteor" in obj:
        kwargs["meteor_params"] = _record(MeteorParams, obj["meteor"], "meteor")
    return kwargs


def load_metric_config(path: str | None, checker: str | None = None) -> MetricConfig:
    """Build a MetricConfig from a JSON file and a checker selector (None
    meaning auto).

    A problem with the file's contents raises ConfigError naming the file;
    a missing file raises FileNotFoundError, as every input file does.
    """
    checker = "auto" if checker is None else checker
    cfg = MetricConfig(checker=checker)  # so a bad --checker is not reported as the file's
    if path is None:
        return cfg
    with open_utf8(path, error=ConfigError) as fh:
        try:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        except DataError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    try:
        kwargs = _config_kwargs(obj)
        cfg = MetricConfig(**kwargs, checker=checker)
        if "CA" in kwargs.get("metrics", ()) and checker == "none":  # CA would be dropped
            raise ConfigError("metrics: CA needs a checker, but --checker is none")
        if not cfg.metrics:  # results.csv would hold only ids
            raise ConfigError("metrics: the list is empty")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def _config_echo(cfg: MetricConfig, jobs: int) -> str:
    """Stable JSON description of the effective run configuration."""

    def fields(value) -> dict:
        return {name: getattr(value, name) for name in value._fields}

    obj = {
        "bleu": {"smoothing": cfg.bleu_smoothing, "epsilon": float(cfg.bleu_epsilon)},
        "checker": cfg.checker,
        "jobs": jobs,
        "meteor": fields(cfg.meteor_params),
        "meteor_tokenizer": fields(cfg.meteor_tokenizer),
        "metrics": list(cfg.metrics),
        "tokenizers": {lang: fields(t) for lang, t in cfg.tokenizers.items()},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_eval(args) -> int:
    cfg = load_metric_config(args.metrics_config, args.checker)
    corpus = load_corpus(args.corpus)
    rows = evaluate_corpus(corpus, cfg, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_results(rows, out / "results.csv")
    _write_text(out / "run_config.json", _config_echo(cfg, args.jobs))
    print(f"evaluated {len(rows)} samples -> {out / 'results.csv'}")
    return 0


def cmd_analyze(args) -> int:
    from .report import build_report

    corpus = load_corpus(args.corpus)
    results = load_results(args.results)
    try:
        documents = build_report(corpus, dict(results))
    except DataError as exc:  # the corpus and the results do not fit together
        raise DataError(f"{args.corpus} and {args.results}: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in documents.items():
        _write_text(out / name, text)
    labeled = sum(s.labeled for s in corpus)
    print(f"analyzed {labeled} labeled samples ({len(corpus) - labeled} unlabeled skipped) -> {out}")
    return 0


def _load_sidecar(path: Path) -> dict[str, StandardizationMap]:
    """Read a standardization sidecar: one {"id": ..., "map": {...}} per line."""
    maps: dict[str, StandardizationMap] = {}
    for line, record in _json_lines(path):
        if not (isinstance(record, dict) and isinstance(record.get("id"), str)
                and "map" in record):
            raise DataError(f"{path}:{line}: expected an object with 'id' and 'map'")
        if record["id"] in maps:
            raise DataError(f"{path}:{line}: duplicate map for id {record['id']!r}")
        smap = record["map"]
        if not isinstance(smap, dict) or not all(isinstance(v, str) for v in smap.values()):
            raise DataError(f"{path}:{line}: 'map' must be an object of placeholder -> literal")
        try:
            maps[record["id"]] = StandardizationMap(tuple(smap.items()))
        except ValueError as exc:
            raise DataError(f"{path}:{line}: {exc}") from None
    return maps


def cmd_preprocess(args) -> int:
    out = Path(args.out)
    sidecar_path = Path(args.sidecar) if args.sidecar else out / "standardization_maps.jsonl"
    samples = []
    # configuration files are read before the corpus, so a corpus error cannot hide theirs
    if args.destandardize:
        for flag, value in (("--rules", args.rules), ("--filter-stopwords", args.filter_stopwords)):
            if value is not None:  # it would be ignored
                raise ConfigError(f"argument {flag}: not allowed with argument --destandardize")
        maps = _load_sidecar(sidecar_path)
        corpus = load_corpus(args.corpus)
        for s in corpus:
            smap = maps.get(s.id, StandardizationMap())
            samples.append(s._replace(intent=destandardize(s.intent, smap),
                                      prediction=destandardize(s.prediction, smap)))
        done, note = "destandardized", ""
    else:
        rules = load_rules(args.rules) if args.rules else default_rules()
        stopwords = args.filter_stopwords  # None: keep them; True: the built-in list
        if stopwords is not None:
            stopwords = default_stopwords() if stopwords is True else load_stopwords(stopwords)
        whitespace = TokenizerConfig(mode="whitespace")
        corpus = load_corpus(args.corpus)
        sidecar_path.parent.mkdir(parents=True, exist_ok=True)
        with open(sidecar_path, "w", encoding="utf-8", newline="\n") as side:
            for s in corpus:
                intent = s.intent
                if stopwords is not None:
                    seq = tokenize(intent, whitespace)
                    intent = " ".join(filter_stopwords(seq, stopwords))
                intent, smap = standardize(intent, rules)
                side.write(_to_json({"id": s.id, "map": dict(smap.entries)}) + "\n")
                samples.append(s._replace(intent=intent))
        done, note = "standardized", " (+ sidecar)"
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(Corpus(tuple(samples), corpus.provenance), out / "corpus.jsonl")
    print(f"{done} {len(samples)} samples -> {out / 'corpus.jsonl'}{note}")
    return 0


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
        p.add_argument("--corpus", required=True, help="corpus file (csv if named *.csv, else jsonl)")
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

    p_pre = sub.add_parser("preprocess", help="standardize intents (or invert with --destandardize)")
    add_corpus_args(p_pre)
    p_pre.add_argument("--rules", default=None, help="entity rules file (name=regex per line)")
    p_pre.add_argument("--filter-stopwords", nargs="?", const=True, default=None, metavar="FILE",
                       help="drop stopwords from intents before standardizing: "
                            "those of FILE, or of the built-in list")
    p_pre.add_argument("--destandardize", action="store_true",
                       help="invert a previous run using its sidecar")
    p_pre.add_argument("--sidecar", default=None, help="standardization sidecar path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # looked up on each call, not bound into the cached parser, so a
        # cmd_* function replaced on this module (as a tracer does) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except EvalkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return ConfigError.exit_code
    except OSError as exc:  # a directory for a file, a file for --out, ...
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())

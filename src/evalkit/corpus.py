"""Evaluation data model plus corpus and result-table I/O.

JSONL is the canonical corpus format (snippets contain commas and newlines that
CSV handles poorly); CSV is accepted for spreadsheet-born labels. Result tables
are written with a fixed column order and fixed 6-decimal float formatting so
reruns are byte-identical and reloading reproduces the written values exactly.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import DataError

LANGUAGES = ("assembly", "python-like", "other")

CORPUS_FIELDS = ("id", "intent", "reference", "prediction", "sc", "language")


@dataclass(frozen=True)
class Sample:
    """One evaluation record: an intent, its reference snippet and a model
    prediction, with an optional human semantic-correctness label."""

    id: str
    intent: str
    reference: str
    prediction: str
    sc: int | None = None
    language: str = "other"

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("sample id must be nonempty")
        if self.sc is not None and self.sc not in (0, 1):
            raise DataError(f"sample {self.id!r}: invalid sc {self.sc!r} (must be 0 or 1)")
        if self.language not in LANGUAGES:
            raise DataError(
                f"sample {self.id!r}: unknown language {self.language!r} "
                f"(expected one of {', '.join(LANGUAGES)})"
            )

    @property
    def labeled(self) -> bool:
        return self.sc is not None


@dataclass(frozen=True)
class Corpus:
    """Immutable ordered collection of samples with unique ids."""

    samples: tuple[Sample, ...]
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for s in self.samples:
            if s.id in seen:
                raise DataError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def by_id(self, sample_id: str) -> Sample:
        for s in self.samples:
            if s.id == sample_id:
                return s
        raise KeyError(sample_id)

    @property
    def labeled_samples(self) -> tuple[Sample, ...]:
        return tuple(s for s in self.samples if s.labeled)


def _sample_from_record(record: Mapping, where: str) -> Sample:
    for key in ("id", "intent", "reference", "prediction", "language"):
        if key not in record or record[key] is None:
            raise DataError(f"{where}: missing field {key!r}")
    where = f"{where} (sample {record['id']!r})"
    sc = record.get("sc")
    if sc is not None:
        if isinstance(sc, str):
            sc = sc.strip()
            if sc == "":
                sc = None
        if sc is not None:
            try:
                value = int(sc)
            except (TypeError, ValueError):
                raise DataError(f"{where}: invalid sc {record.get('sc')!r}") from None
            if value not in (0, 1) or (isinstance(sc, float) and sc != value):
                raise DataError(f"{where}: invalid sc {record.get('sc')!r}")
            sc = value
    try:
        return Sample(
            id=str(record["id"]),
            intent=str(record["intent"]),
            reference=str(record["reference"]),
            prediction=str(record["prediction"]),
            sc=sc,
            language=str(record["language"]),
        )
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def open_utf8(path, newline: str | None = None) -> io.StringIO:
    """The text of a UTF-8 file as a stream, as `open(path, encoding="utf-8",
    newline=newline)` reads it, except that a byte sequence that is not UTF-8
    raises DataError naming the path and line."""
    data = Path(path).read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None


def load_corpus(path, format: str = "jsonl") -> Corpus:
    """Read a corpus file (one record per sample) in jsonl or csv format."""
    path = Path(path)
    samples: list[Sample] = []
    if format == "jsonl":
        with open_utf8(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: JSON parse error: {exc}") from None
                if not isinstance(record, dict):
                    raise DataError(f"{path}:{lineno}: expected an object per line")
                samples.append(_sample_from_record(record, f"{path}:{lineno}"))
    elif format == "csv":
        with open_utf8(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty CSV file")
            missing = {"id", "intent", "reference", "prediction", "language"} - set(reader.fieldnames)
            if missing:
                raise DataError(f"{path}: missing columns: {', '.join(sorted(missing))}")
            for rownum, row in enumerate(reader, 2):
                samples.append(_sample_from_record(row, f"{path}:row {rownum}"))
    else:
        raise DataError(f"unknown corpus format {format!r} (expected jsonl or csv)")
    return Corpus(tuple(samples), provenance={"source": str(path), "format": format})


def write_corpus(corpus: Corpus, path, format: str = "jsonl") -> None:
    """Write a corpus back to disk in jsonl or csv format."""
    path = Path(path)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for s in corpus:
                record = {
                    "id": s.id,
                    "intent": s.intent,
                    "reference": s.reference,
                    "prediction": s.prediction,
                }
                if s.sc is not None:
                    record["sc"] = s.sc
                record["language"] = s.language
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CORPUS_FIELDS)
            for s in corpus:
                writer.writerow(
                    [s.id, s.intent, s.reference, s.prediction,
                     "" if s.sc is None else s.sc, s.language]
                )
    else:
        raise DataError(f"unknown corpus format {format!r} (expected jsonl or csv)")


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions (must sum to exactly 1) plus a shuffle seed."""

    train_frac: Fraction
    valid_frac: Fraction
    test_frac: Fraction
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_frac", _as_fraction(self.train_frac))
        object.__setattr__(self, "valid_frac", _as_fraction(self.valid_frac))
        object.__setattr__(self, "test_frac", _as_fraction(self.test_frac))
        fracs = (self.train_frac, self.valid_frac, self.test_frac)
        if any(f < 0 for f in fracs):
            raise DataError("split fractions must be nonnegative")
        if sum(fracs) != 1:
            raise DataError(f"split fractions sum to {sum(fracs)}, expected exactly 1")


def split_corpus(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic shuffle-split into train/valid/test.

    Sizes are floor-rounded from the fractions; remainder rows go to train.
    A nonzero fraction that floors to zero samples is an error.
    """
    n = len(corpus)
    if n < 3:
        raise DataError(f"corpus of size {n} is too small to split")
    n_valid = int(n * spec.valid_frac)
    n_test = int(n * spec.test_frac)
    n_train = n - n_valid - n_test
    for name, frac, size in (
        ("train", spec.train_frac, n_train),
        ("valid", spec.valid_frac, n_valid),
        ("test", spec.test_frac, n_test),
    ):
        if frac > 0 and size == 0:
            raise DataError(f"corpus too small: {name} fraction {frac} yields no samples")
    indices = list(range(n))
    random.Random(spec.seed).shuffle(indices)
    buckets = (
        indices[:n_train],
        indices[n_train : n_train + n_valid],
        indices[n_train + n_valid :],
    )
    parts = []
    for name, bucket in zip(("train", "valid", "test"), buckets):
        provenance = dict(corpus.provenance)
        provenance["split"] = name
        provenance["seed"] = str(spec.seed)
        # keep original corpus order inside each split
        samples = tuple(corpus.samples[i] for i in sorted(bucket))
        parts.append(Corpus(samples, provenance))
    return parts[0], parts[1], parts[2]


def _format_score(value: float) -> str:
    return f"{value:.6f}"


def _check_homogeneous(rows: Sequence[tuple[str, Mapping[str, float]]]) -> list[str]:
    first: list[str] | None = None
    for sample_id, vector in rows:
        names = list(vector)
        if first is None:
            first = names
        elif names != first:
            raise DataError(
                f"heterogeneous metric sets: row {sample_id!r} differs from first row"
            )
    return first or []


def write_results(
    rows: Sequence[tuple[str, Mapping[str, float]]], path, format: str = "csv"
) -> None:
    """Write per-sample metric vectors with stable column order and formatting.

    Every vector must cover the same metric set. Floats are printed with six
    decimal digits so output is bit-stable and reloads exactly.
    """
    path = Path(path)
    metrics = _check_homogeneous(rows)
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", *metrics])
            for sample_id, vector in rows:
                writer.writerow([sample_id, *(_format_score(vector[m]) for m in metrics)])
    elif format == "jsonl":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for sample_id, vector in rows:
                scores = ", ".join(
                    f'"{m}": {_format_score(vector[m])}' for m in metrics
                )
                fh.write('{"id": %s, "scores": {%s}}\n' % (json.dumps(sample_id), scores))
    else:
        raise DataError(f"unknown results format {format!r} (expected csv or jsonl)")


def _score_vector(items, where: str) -> dict[str, float]:
    try:
        vector = {m: float(v) for m, v in items}
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: bad score: {exc}") from None
    for m, value in vector.items():
        if not 0.0 <= value <= 1.0:  # also rejects nan
            raise DataError(f"{where}: score {m} = {value} is not in [0, 1]")
    return vector


def load_results(path, format: str = "csv") -> list[tuple[str, dict[str, float]]]:
    """Read a result table written by write_results.

    Every score must be a number in [0, 1]; nan and inf are rejected.
    """
    path = Path(path)
    rows: list[tuple[str, dict[str, float]]] = []
    if format == "csv":
        with open_utf8(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty results file") from None
            if not header or header[0] != "id":
                raise DataError(f"{path}: malformed results header")
            metrics = header[1:]
            for lineno, row in enumerate(reader, 2):
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} columns")
                rows.append((row[0], _score_vector(zip(metrics, row[1:]), f"{path}:{lineno}")))
    elif format == "jsonl":
        with open_utf8(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: JSON parse error: {exc}") from None
                if not (isinstance(record, dict) and isinstance(record.get("id"), str)
                        and isinstance(record.get("scores"), dict)):
                    raise DataError(f"{path}:{lineno}: expected an object with 'id' and 'scores'")
                rows.append((record["id"], _score_vector(record["scores"].items(), f"{path}:{lineno}")))
    else:
        raise DataError(f"unknown results format {format!r} (expected csv or jsonl)")
    seen: set[str] = set()
    for sample_id, _ in rows:
        if sample_id in seen:
            raise DataError(f"{path}: duplicate result row for id {sample_id!r}")
        seen.add(sample_id)
    return rows


def results_as_mapping(
    rows: Iterable[tuple[str, Mapping[str, float]]]
) -> dict[str, dict[str, float]]:
    """Convenience view of result rows keyed by sample id."""
    return {sample_id: dict(vector) for sample_id, vector in rows}

"""Evaluation data model plus corpus and result-table I/O.

JSONL is the canonical corpus format (snippets contain commas and newlines that
CSV handles poorly); CSV is accepted for spreadsheet-born labels. Result tables
are CSV, written with a fixed column order and fixed 6-decimal float formatting
so reruns are byte-identical and reloading reproduces the written values
exactly.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Mapping, Sequence
from pathlib import Path
from types import MappingProxyType

from ._record import Record
from .errors import DataError

LANGUAGES = ("assembly", "python-like", "other")

CORPUS_FIELDS = ("id", "intent", "reference", "prediction", "sc", "language")


class Sample(Record):
    """One evaluation record: an intent, its reference snippet and a model
    prediction, with an optional human semantic-correctness label."""

    _fields = ("id", "intent", "reference", "prediction", "sc", "language")

    def __init__(
        self, id: str, intent: str, reference: str, prediction: str,
        sc: int | None = None, language: str = "other",
    ) -> None:
        if not id:
            raise DataError("sample id must be nonempty")
        if sc is not None and sc not in (0, 1):
            raise DataError(f"sample {id!r}: invalid sc {sc!r} (must be 0 or 1)")
        if language not in LANGUAGES:
            raise DataError(
                f"sample {id!r}: unknown language {language!r} "
                f"(expected one of {', '.join(LANGUAGES)})"
            )
        self.__dict__.update(
            id=id, intent=intent, reference=reference, prediction=prediction, sc=sc,
            language=language,
        )

    @property
    def labeled(self) -> bool:
        return self.sc is not None


_NO_PROVENANCE: Mapping[str, str] = MappingProxyType({})


class Corpus(Record):
    """Immutable ordered collection of samples with unique ids."""

    _fields = ("samples", "provenance")

    def __init__(
        self, samples: tuple[Sample, ...], provenance: Mapping[str, str] = _NO_PROVENANCE
    ) -> None:
        seen: set[str] = set()
        for s in samples:
            if s.id in seen:
                raise DataError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
        if provenance is _NO_PROVENANCE:  # a dict of its own
            provenance = {}
        self.__dict__.update(samples=samples, provenance=provenance)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

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
    from fractions import Fraction  # split alone needs it, and it loads decimal

    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


class SplitSpec(Record):
    """Train/valid/test fractions (must sum to exactly 1) plus a shuffle seed;
    each fraction is stored as a Fraction, a float by its shortest repr."""

    _fields = ("train_frac", "valid_frac", "test_frac", "seed")

    def __init__(self, train_frac, valid_frac, test_frac, seed: int = 0) -> None:
        fracs = (_as_fraction(train_frac), _as_fraction(valid_frac), _as_fraction(test_frac))
        if any(f < 0 for f in fracs):
            raise DataError("split fractions must be nonnegative")
        if sum(fracs) != 1:
            raise DataError(f"split fractions sum to {sum(fracs)}, expected exactly 1")
        self.__dict__.update(
            train_frac=fracs[0], valid_frac=fracs[1], test_frac=fracs[2], seed=seed
        )


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
    import random

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


# A field that csv writes as it is, whatever the Python version.
_PLAIN_FIELD = re.compile(r'[^,"\r\n]+')


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


def write_results(rows: Sequence[tuple[str, Mapping[str, float]]], path) -> None:
    """Write per-sample metric vectors as CSV with stable column order and formatting.

    Every vector must cover the same metric set. Floats are printed with six
    decimal digits so output is bit-stable and reloads exactly.
    """
    metrics = _check_homogeneous(rows)
    line = "%s" + ",%.6f" * len(metrics) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", *metrics])
        for sample_id, vector in rows:
            scores = [vector[m] for m in metrics]
            if isinstance(sample_id, str) and _PLAIN_FIELD.fullmatch(sample_id):
                fh.write(line % (sample_id, *scores))
            else:  # csv quotes it
                writer.writerow([sample_id, *["%.6f" % score for score in scores]])


def load_results(path) -> list[tuple[str, dict[str, float]]]:
    """Read a CSV result table written by write_results.

    Every score must be a number in [0, 1]; nan and inf are rejected.
    """
    rows: list[tuple[str, dict[str, float]]] = []
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
            try:
                vector = {m: float(v) for m, v in zip(metrics, row[1:])}
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad score: {exc}") from None
            for m, value in vector.items():
                if not 0.0 <= value <= 1.0:  # also rejects nan
                    raise DataError(f"{path}:{lineno}: score {m} = {value} is not in [0, 1]")
            rows.append((row[0], vector))
    seen: set[str] = set()
    for sample_id, _ in rows:
        if sample_id in seen:
            raise DataError(f"{path}: duplicate result row for id {sample_id!r}")
        seen.add(sample_id)
    return rows

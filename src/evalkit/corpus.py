"""Evaluation data model plus corpus and result-table I/O.

JSONL is the canonical corpus format and the only one written (snippets contain
commas and newlines that CSV handles poorly); CSV is read for spreadsheet-born
labels. Result tables are CSV, written with a fixed column order and fixed
6-decimal float formatting so reruns are byte-identical and reloading
reproduces the written values exactly.
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
from .errors import DataError, EvalkitError

LANGUAGES = ("assembly", "python-like", "other")


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


# The fields a corpus record must have; "sc" may be absent or empty.
_REQUIRED = tuple(name for name in Sample._fields if name != "sc")


def _sample_from_record(record: Mapping, path, line: int) -> Sample:
    fields = {}
    for key in _REQUIRED:
        value = record.get(key)
        if value is None:
            raise DataError(f"{path}:{line}: missing field {key!r}")
        fields[key] = str(value)
    try:
        sc = record.get("sc")
        if isinstance(sc, str):
            sc = sc.strip() or None
        if sc is not None:
            try:
                label = int(sc)
            except (TypeError, ValueError, OverflowError):  # OverflowError: an infinite float
                label = None
            if label not in (0, 1) or (isinstance(sc, float) and sc != label):
                raise DataError(f"invalid sc {record['sc']!r}")
            sc = label
        return Sample(**fields, sc=sc)
    except DataError as exc:
        raise DataError(f"{path}:{line} (sample {record['id']!r}): {exc}") from None


def open_utf8(path, newline: str | None = None, error: type[EvalkitError] = DataError) -> io.StringIO:
    """The text of a UTF-8 file as a stream, as `open(path, encoding="utf-8",
    newline=newline)` reads it, except that a leading byte-order mark is
    dropped and a byte sequence that is not UTF-8 raises `error` naming the
    path and line."""
    # not the utf-8-sig codec: its error offsets do not count the mark
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None


# json.dumps(value, ensure_ascii=False), without building an encoder per call
_to_json = json.JSONEncoder(ensure_ascii=False).encode


def _json_lines(path):
    """(line number, value) for each nonblank line of a JSON-lines file; a line
    that does not parse, or a string in it that holds a lone surrogate (which
    no UTF-8 file can hold, so no output could), raises DataError naming it."""
    with open_utf8(path) as fh:
        for line, text in enumerate(fh, 1):
            if not text.strip():
                continue
            try:
                value = json.loads(text)
                if "\\u" in text:  # only an escape decodes to a surrogate
                    _to_json(value).encode("utf-8")
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line}: JSON parse error: {exc}") from None
            except UnicodeEncodeError as exc:
                char = exc.object[exc.start]
                raise DataError(f"{path}:{line}: a string holds the lone surrogate {char!r}") from None
            yield line, value


def _csv_rows(path):
    """(line number, fields) for each row of a CSV file, numbered by the line
    where the row starts, since a quoted field may hold newlines; a row that
    does not parse raises DataError naming that line."""
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        line = 1
        try:
            for row in reader:
                yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise DataError(f"{path}:{line}: {exc}") from None


def _records(path: Path, format: str):
    """(line number, record) for each record of a corpus file, numbered by
    the line where the record starts."""
    if format == "jsonl":
        for line, record in _json_lines(path):
            if not isinstance(record, dict):
                raise DataError(f"{path}:{line}: expected an object per line")
            yield line, record
    elif format == "csv":
        rows = _csv_rows(path)
        _, header = next(rows, (1, None))
        if header is None:
            raise DataError(f"{path}:1: empty CSV file")
        missing = set(_REQUIRED) - set(header)
        if missing:
            raise DataError(f"{path}:1: missing columns: {', '.join(sorted(missing))}")
        for line, row in rows:
            if row:  # a blank line holds no record
                yield line, dict(zip(header, row))
    else:
        raise DataError(f"unknown corpus format {format!r} (expected jsonl or csv)")


def load_corpus(path, format: str | None = None) -> Corpus:
    """Read a corpus file (one record per sample) in jsonl or csv format; by
    default csv for a `.csv` suffix in any case, else jsonl."""
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    samples = tuple(_sample_from_record(record, path, line) for line, record in _records(path, format))
    try:
        return Corpus(samples, provenance={"source": str(path), "format": format})
    except DataError as exc:  # a repeated id: name the second copy's line, found only now
        seen: set[str] = set()
        for line, record in _records(path, format):
            if str(record["id"]) in seen:
                raise DataError(f"{path}:{line}: {exc}") from None
            seen.add(str(record["id"]))
        raise


def write_corpus(corpus: Corpus, path) -> None:
    """Write a corpus as jsonl, one record per sample; an unlabeled sample's
    record has no "sc"."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in corpus:
            attrs = s.__dict__
            record = {name: attrs[name] for name in Sample._fields}
            if record["sc"] is None:
                del record["sc"]
            fh.write(_to_json(record) + "\n")


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
    rows: dict[str, dict[str, float]] = {}
    lines = _csv_rows(path)
    _, header = next(lines, (1, None))
    if header is None:
        raise DataError(f"{path}:1: empty results file")
    if not header or header[0] != "id":
        raise DataError(f"{path}:1: malformed results header")
    for k, column in enumerate(header):
        if column in header[:k]:
            raise DataError(f"{path}:1: column {column!r} appears twice in the header")
    metrics = header[1:]
    for line, row in lines:
        if len(row) != len(header):
            raise DataError(f"{path}:{line}: expected {len(header)} columns")
        try:
            vector = {m: float(v) for m, v in zip(metrics, row[1:])}
        except ValueError as exc:
            raise DataError(f"{path}:{line}: bad score: {exc}") from None
        for m, value in vector.items():
            if not 0.0 <= value <= 1.0:  # also rejects nan
                raise DataError(f"{path}:{line}: score {m} = {value} is not in [0, 1]")
        if row[0] in rows:
            raise DataError(f"{path}:{line}: duplicate result row for id {row[0]!r}")
        rows[row[0]] = vector
    return list(rows.items())

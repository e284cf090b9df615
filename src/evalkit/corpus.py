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

    def __init__(
        self, id: str, intent: str, reference: str, prediction: str,
        sc: int | None = None, language: str = "other",
    ) -> None:
        if not id:
            raise DataError("sample id must be nonempty")
        if sc is not None and (sc not in (0, 1) or isinstance(sc, bool)):
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
        if not isinstance(value, str):
            if key != "id" or type(value) is not int:  # not a bool, which JSON true and false give
                kind = "a string or an integer" if key == "id" else "a string"
                raise DataError(f"{path}:{line}: field {key!r} must be {kind}, got {_to_json(value)}")
            value = str(value)
        fields[key] = value
    try:
        sc = record.get("sc")
        if isinstance(sc, str):
            sc = sc.strip() or None
        if sc is not None:
            try:  # text is read as a number, so "1.0" is the label that 1.0 is
                number = float(sc) if isinstance(sc, str) else sc
                label = int(number)
            except (TypeError, ValueError, OverflowError):  # OverflowError: an infinite float
                label = None
            if label not in (0, 1) or isinstance(sc, bool) or number != label:
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


def _unique_keys(pairs: list) -> dict:
    """The object_pairs_hook of every JSON input: the object of `pairs`, or
    DataError for a key given twice, of which json would keep only the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for k, key in enumerate(keys) if key in keys[:k])
        raise DataError(f"key {repeated!r} appears twice")
    return obj


def _json_lines(path):
    """(line number, value) for each nonblank line of a JSON-lines file; a line
    that does not parse, repeats a key or holds a string with a lone surrogate
    (which no UTF-8 file can hold, so no output could) raises DataError naming it."""
    decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode
    with open_utf8(path) as fh:
        for line, text in enumerate(fh, 1):
            if not text.strip():
                continue
            try:
                value = decode(text)
                if "\\u" in text:  # only an escape decodes to a surrogate
                    _to_json(value).encode("utf-8")
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line}: JSON parse error: {exc}") from None
            except DataError as exc:
                raise DataError(f"{path}:{line}: {exc}") from None
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


def _csv_table(path, what: str):
    """The header of a CSV file and the (line number, fields) of its other
    rows; an empty file (a `what`) or a column named twice raises DataError
    at line 1."""
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise DataError(f"{path}:1: empty {what}")
    for k, column in enumerate(header):
        if column in header[:k]:
            raise DataError(f"{path}:1: column {column!r} appears twice in the header")
    return header, rows


def _records(path: Path, format: str):
    """(line number, record) for each record of a corpus file, numbered by
    the line where the record starts."""
    if format == "jsonl":
        for line, record in _json_lines(path):
            if not isinstance(record, dict):
                raise DataError(f"{path}:{line}: expected an object per line")
            yield line, record
    elif format == "csv":
        header, rows = _csv_table(path, "CSV file")
        missing = set(_REQUIRED) - set(header)
        if missing:
            raise DataError(f"{path}:1: missing columns: {', '.join(sorted(missing))}")
        for line, row in rows:
            if len(row) > len(header):  # zip would drop the fields past the header
                raise DataError(f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
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
    samples: dict[str, Sample] = {}
    for line, record in _records(path, format):
        sample = _sample_from_record(record, path, line)
        if sample.id in samples:
            raise DataError(f"{path}:{line}: duplicate sample id {sample.id!r}")
        samples[sample.id] = sample
    return Corpus(tuple(samples.values()), provenance={"source": str(path), "format": format})


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


def write_results(rows: Sequence[tuple[str, Mapping[str, float]]], path) -> None:
    """Write per-sample metric vectors as CSV with stable column order and formatting.

    Every vector must cover the same metric set. Floats are printed with six
    decimal digits so output is bit-stable and reloads exactly.
    """
    metrics = list(rows[0][1]) if rows else []
    for sample_id, vector in rows:
        if list(vector) != metrics:
            raise DataError(f"heterogeneous metric sets: row {sample_id!r} differs from first row")
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

    Every column after `id` must be a metric name, and there must be one.
    Every score must be a number in [0, 1]; nan and inf are rejected.
    """
    rows: dict[str, dict[str, float]] = {}
    header, lines = _csv_table(path, "results file")
    if not header or header[0] != "id":
        raise DataError(f"{path}:1: malformed results header")
    # imported here, not at the top, because metrics imports this module
    from .metrics import CANONICAL_METRICS

    metrics = header[1:]
    if not set(CANONICAL_METRICS).intersection(metrics):
        raise DataError(f"{path}:1: no metric column (expected any of {', '.join(CANONICAL_METRICS)})")
    unknown = [column for column in metrics if column not in CANONICAL_METRICS]
    if unknown:  # it would be left out of every report
        raise DataError(f"{path}:1: unknown metric column(s): {', '.join(map(repr, unknown))}")
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

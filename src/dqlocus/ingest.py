"""Dataset manifests and immutable typed snapshots of tabular extracts.

A manifest declares what each column means (semantic type, entry mode,
generating actor, constraints) and which extract stage the table sits at
(pre- or post-transformation). Loading reads the CSV a chunk of rows at a
time and builds each manifest column with the one coercer of its semantic
type; values that fail coercion are recorded as data for conformance
checks, never as load errors. Dates and timestamps parse as ISO-8601 only,
which keeps loading deterministic across platforms. A Timestamp column holds
exact int microseconds in one ``array('q')``, not one object per cell.
"""

from __future__ import annotations

import csv
import io
import re
from array import array
from collections import deque
from dataclasses import dataclass, fields as dataclass_fields
from datetime import date, datetime, timezone
from enum import Enum
from itertools import chain, islice, repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (
    DanglingColumnReference,
    DuplicateFieldName,
    HeaderMalformed,
    MissingColumn,
    Reader,
    SchemaViolation,
    UnknownField,
    list_of,
    load_json,
    non_empty,
    nullable,
    object_of,
    read_bool,
    read_enum,
    read_str,
    reads,
    shown,
)

DEFAULT_MISSING_SENTINELS = frozenset({"", "NULL", "NA"})


class SemanticType(str, Enum):
    CODE = "Code"
    CATEGORY = "Category"
    TEXT = "Text"
    NUMBER = "Number"
    DATE = "Date"
    TIMESTAMP = "Timestamp"


class EntryMode(str, Enum):
    EHR_ENFORCED = "EhrEnforced"
    FREE_ENTRY = "FreeEntry"
    AUTO_GENERATED = "AutoGenerated"
    DEVICE_GENERATED = "DeviceGenerated"


class Stage(str, Enum):
    SOURCE = "SourceExtract"
    TRANSFORMED = "TransformedExtract"


# --- documents ----------------------------------------------------------------
#
# A document class's fields are the keys of its JSON object, each with the
# reader that ``object_of`` reads it with; null reads as absent for every
# optional key but ``required``. The classes check their own rules when built.


@dataclass(frozen=True)
class Predicate:
    """Rows where ``field`` takes one of ``values``: where a field is
    required (its policy condition), or the rows a check keeps (its subset).
    A str ``field`` and a non-empty frozenset of str ``values``, else SchemaViolation."""

    field: str = reads(non_empty(read_str))
    values: frozenset[str] = reads(non_empty(list_of(read_str, frozenset)))

    def __post_init__(self) -> None:
        if type(self.field) is not str:
            raise SchemaViolation(f"field must be a string, got {shown(self.field)}")
        if type(self.values) is not frozenset or not self.values or not {str}.issuperset(map(type, self.values)):
            raise SchemaViolation(f"values must be a non-empty frozenset of strings, got {shown(self.values)}")

    def __str__(self) -> str:
        """``field = v`` for one value, ``field in [a, b]`` for more."""
        vals = sorted(self.values)
        return f"{self.field} = {vals[0]}" if len(vals) == 1 else f"{self.field} in [{', '.join(vals)}]"


read_predicate: Reader = object_of(Predicate)


def _read_number(value: Any, where: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value == value:  # NaN is unequal to itself
        try:
            return float(value)
        except OverflowError:  # an integer beyond float's range
            pass
    raise SchemaViolation(f"{where} must be a number")


def _read_range(value: Any, where: str) -> tuple[float, float]:
    bounds = list_of(_read_number)(value, where)
    if len(bounds) != 2:
        raise SchemaViolation(f"{where} must be [min, max]")
    return bounds


@dataclass(frozen=True)
class FieldSpec:
    name: str = reads(non_empty(read_str))
    semantic_type: SemanticType = reads(read_enum(SemanticType))
    entry_mode: EntryMode = reads(read_enum(EntryMode))
    generating_actor: str = reads(non_empty(read_str))
    allowed_values: frozenset[str] | None = reads(nullable(list_of(read_str, frozenset)), default=None)
    numeric_range: tuple[float, float] | None = reads(nullable(_read_range), default=None)
    format_pattern: str | None = reads(nullable(read_str), default=None)
    required: bool = reads(read_bool, default=False)
    policy_condition: Predicate | None = reads(nullable(read_predicate), default=None)

    def __post_init__(self) -> None:
        # a typed field's format is its coercion, so only an untyped one has a pattern
        where = f"field {shown(self.name)}"
        if self.entry_mode == EntryMode.EHR_ENFORCED and self.allowed_values is None and self.format_pattern is None:
            raise SchemaViolation(f"{where} must have allowed_values or format_pattern, as it is EhrEnforced")
        if self.format_pattern is None:
            return
        if self.semantic_type in COERCERS:
            raise SchemaViolation(f"{where} may have a format_pattern only if it is Code, Category or Text")
        try:
            re.compile(self.format_pattern)
        except (re.error, OverflowError, RecursionError) as e:  # a repeat count or nesting too large
            raise SchemaViolation(f"{where} must have a regular expression as its format_pattern: {e}") from None


@dataclass(frozen=True)
class DatasetManifest:
    """An extract's manifest. Each key whose name ends in ``_column`` names
    one of its fields."""

    dataset_id: str = reads(non_empty(read_str))
    stage: Stage = reads(read_enum(Stage))
    fields: tuple[FieldSpec, ...] = reads(non_empty(list_of(object_of(FieldSpec))))
    actor_id_column: str | None = reads(nullable(read_str), default=None)
    record_timestamp_column: str | None = reads(nullable(read_str), default=None)
    availability_timestamp_column: str | None = reads(nullable(read_str), default=None)
    key_column: str | None = reads(nullable(read_str), default=None)
    missing_sentinels: frozenset[str] = reads(nullable(list_of(read_str, frozenset), DEFAULT_MISSING_SENTINELS),
                                              default=DEFAULT_MISSING_SENTINELS)

    def __post_init__(self) -> None:
        # the one field-name table: not a dataclass field, so equality, hash and repr leave it out
        by_name: dict[str, FieldSpec] = {}
        object.__setattr__(self, "_fields_by_name", by_name)
        for f in self.fields:
            if f.name in by_name:
                raise DuplicateFieldName(f"field {shown(f.name)} defined more than once")
            by_name[f.name] = f
        for label in (f.name for f in dataclass_fields(self) if f.name.endswith("_column")):
            ref = getattr(self, label)
            if ref is not None and ref not in by_name:
                raise DanglingColumnReference(f"manifest: {label} references unknown field {shown(ref)}")
        for f in self.fields:
            if f.policy_condition is not None and (ref := f.policy_condition.field) not in by_name:
                where = f"field {shown(f.name)}: policy_condition"
                raise DanglingColumnReference(f"{where} references unknown field {ref!r}")

    def get_field(self, name: str) -> FieldSpec | None:
        return self._fields_by_name.get(name)


#: The instant a Timestamp value counts its microseconds from, naive UTC
#: as every Timestamp value is.
EPOCH = datetime(1970, 1, 1)


@dataclass(frozen=True)
class Column:
    """One snapshot column: typed values plus explicit missing/failure sets.

    The rows of a column are missing, failed coercion, or typed, and the
    three states partition them exactly. Only ``missing`` and ``failures``
    say which rows are absent (missing or failed); ``values`` holds one
    value for every row, which at an absent row means nothing. A Timestamp
    column's ``values`` is one ``array('q')`` of exact int microseconds
    since ``EPOCH`` (naive UTC), 0 at absent rows; any other column's is a
    tuple of texts, floats (Number) or dates (Date), None at absent rows.
    """

    values: tuple[Any, ...] | array[int]
    missing: frozenset[int]
    failures: tuple[tuple[int, str], ...] = ()  # (row index, raw text)

    @property
    def absent(self) -> frozenset[int]:
        """Rows without a typed value (missing or malformed), built anew on each read."""
        return self.missing.union(i for i, _ in self.failures)


@dataclass(frozen=True)
class DatasetSnapshot:
    """A loaded extract: one column per manifest field, each of
    ``row_count`` rows. A snapshot however built holds to the ``Column``
    contract; breaking it raises SchemaViolation naming the field."""

    manifest: DatasetManifest
    row_count: int
    columns: dict[str, Column]

    def __post_init__(self) -> None:
        n = self.row_count
        if type(n) is not int or n < 0:
            raise SchemaViolation(f"row_count must be a non-negative integer, got {shown(n)}")
        if type(self.columns) is not dict:
            raise SchemaViolation(f"columns must be a dict, got {type(self.columns).__name__}")
        for name in self.columns:
            if self.manifest.get_field(name) is None:
                raise SchemaViolation(f"column {shown(name)} must name a manifest field")
        for f in self.manifest.fields:
            if f.name not in self.columns:
                raise SchemaViolation(f"field {shown(f.name)} must have a column")
            _check_column(self.columns[f.name], f, n)

    def column(self, name: str) -> Column:
        if name not in self.columns:
            raise UnknownField(f"field {shown(name)} is not in manifest {shown(self.manifest.dataset_id)}")
        return self.columns[name]


def _check_column(col: Column, spec: FieldSpec, n: int) -> None:
    """Raise SchemaViolation, naming the field, unless ``col`` holds ``n``
    values in its type's container, and its missing and failed rows are
    distinct rows of ``range(n)``."""
    where = f"column {shown(spec.name)}"
    values = col.values
    if spec.semantic_type is SemanticType.TIMESTAMP:
        if type(values) is not array or values.typecode != "q":
            raise SchemaViolation(f"{where} must hold its values in an array('q'), got {type(values).__name__}")
    elif type(values) is not tuple:
        raise SchemaViolation(f"{where} must hold its values in a tuple, got {type(values).__name__}")
    if len(values) != n:
        raise SchemaViolation(f"{where} must hold {n} values, one per row, got {len(values)}")
    missing, failures = col.missing, col.failures
    if type(missing) is not frozenset or type(failures) is not tuple:
        raise SchemaViolation(f"{where} must hold its missing rows in a frozenset and its failures in a tuple")
    try:
        failed = [row for row, _ in failures]
    except (TypeError, ValueError):  # a failure that does not unpack into two
        raise SchemaViolation(f"{where} must hold each failure as a (row, raw text) pair") from None
    for rows in (missing, failed):
        if rows and (not {int}.issuperset(map(type, rows)) or min(rows) < 0 or max(rows) >= n):
            raise SchemaViolation(f"{where} must name missing and failed rows from range({n})")
    if failed and (len(set(failed)) != len(failed) or not missing.isdisjoint(failed)):
        raise SchemaViolation(f"{where} must name each missing or failed row once")


# --- manifest loading -----------------------------------------------------


def load_manifest(text: str | bytes) -> DatasetManifest:
    """Parse and validate a manifest document (strict: unknown keys rejected)."""
    return object_of(DatasetManifest)(load_json(text, "manifest"), "manifest")


# --- dataset loading --------------------------------------------------------

#: Rows read, transposed and coerced at a time, and characters of text
#: handed to the line reader at a time: together they bound what a load
#: holds beyond the text and the columns it builds.
_CHUNK_ROWS = 4096
_SLICE_CHARS = 1 << 20


#: Looked up once: finding the classmethod on ``datetime`` for each cell
#: costs about a tenth of a Timestamp column's build.
_fromisoformat = datetime.fromisoformat


def _timestamp(raw: str) -> int:
    """ISO-8601 timestamp as exact int microseconds since ``EPOCH``; an
    aware value is normalized to naive UTC first, so all values in a column
    compare consistently."""
    value = _fromisoformat(raw)
    if value.tzinfo is not None:
        value = value.astimezone(timezone.utc).replace(tzinfo=None)
    since = value - EPOCH  # summed: faster than since // timedelta(microseconds=1)
    return (since.days * 86_400 + since.seconds) * 1_000_000 + since.microseconds


#: The coercer of each typed semantic type; the others keep their text.
COERCERS: dict[SemanticType, Callable[[str], Any]] = {
    SemanticType.NUMBER: float,
    SemanticType.DATE: date.fromisoformat,
    SemanticType.TIMESTAMP: _timestamp,
}


def _nones(values: list[Any]) -> Iterator[int]:
    """The indices of the Nones in ``values``, each found by ``list.index``,
    which scans in C: no typed value equals None."""
    i = 0
    while True:
        try:
            i = values.index(None, i)
        except ValueError:
            return
        yield i
        i += 1


class _ColumnBuilder:
    """One column's typed values, missing rows and coercion failures,
    appended a chunk of raw cells at a time. ``judge`` is the one rule
    that gives a cell its value: None for a sentinel (missing) or a text
    its type's coercer rejects (failed). A Timestamp's values go into one
    ``array('q')`` with ``blank`` (0) at absent rows, any other's into a
    list with ``blank`` (None) there.

    While a column's texts repeat, ``table`` maps each text seen to its
    value: each distinct text is judged once, and every cell that holds it
    shares the one value object. At the first chunk after which the
    column has more distinct texts than half its cells, the table is
    dropped and each cell is judged on its own from then on."""

    def __init__(self, semantic: SemanticType, sentinels: frozenset[str]) -> None:
        self.coerce = COERCERS.get(semantic)
        self.sentinels = sentinels
        timestamp = semantic is SemanticType.TIMESTAMP
        self.values: list[Any] | array[int] = array("q") if timestamp else []
        self.blank = 0 if timestamp else None
        self.missing: list[int] = []
        self.failures: list[tuple[int, str]] = []
        self.table: dict[str, Any] | None = {}

    def judge(self, cells: Iterable[str]) -> list[Any]:
        """The value of each cell, or None where it is a sentinel (tested
        first: a sentinel may look typed) or its type's coercer rejects it."""
        coerce = self.coerce
        values = [None if raw in self.sentinels else raw for raw in cells]
        if coerce is not None:
            for i, raw in enumerate(values):
                if raw is not None:
                    try:
                        values[i] = coerce(raw)
                    except (ValueError, OverflowError):  # overflow: an offset at datetime's range edge
                        values[i] = None
        return values

    def extend(self, cells: Sequence[str], first_row: int) -> None:
        table = self.table
        if table is not None:
            new = set(cells).difference(table)
            if 2 * (len(table) + len(new)) > len(self.values) + len(cells):  # the texts no longer repeat
                self.table = table = None
            else:
                table.update(zip(new, self.judge(new)))
        values = self.judge(cells) if table is None else list(map(table.__getitem__, cells))
        for i in _nones(values):
            values[i] = self.blank
            if (raw := cells[i]) in self.sentinels:
                self.missing.append(first_row + i)
            else:
                self.failures.append((first_row + i, raw))
        # an array built from the list at once: extending one by a list
        # converts each int about twice as slowly
        self.values += array("q", values) if type(self.values) is array else values

    def build(self) -> Column:
        values = self.values
        return Column(
            values=tuple(values) if type(values) is list else values,
            missing=frozenset(self.missing),
            failures=tuple(self.failures),
        )


def _slices(text: str) -> Iterator[str]:
    """``text`` in slices of about ``_SLICE_CHARS`` characters that each end
    a line, so that what is split or read from it at a time stays small."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` as ``io.StringIO(text, newline="")`` gives them."""
    for piece in _slices(text):
        yield from io.StringIO(piece, newline="")


def _quote_free_slices(text: str, limit: int) -> Iterator[list[str]]:
    """The lines of each slice of a ``text`` that holds no quote, CR or NUL.
    A cell (text between commas) longer than ``limit`` raises once the
    lines before its own are taken, with its line's number, as it does in
    the csv reader."""
    number = 0  # lines before this slice
    for piece in _slices(text):
        lines = piece.removesuffix("\n").split("\n")
        if max(map(len, lines)) <= limit:
            yield lines
        else:
            for n, line in enumerate(lines, number + 1):
                if max(map(len, line.split(","))) > limit:
                    raise SchemaViolation(f"dataset row at line {n}: field larger than field limit ({limit})")
                yield [line]
        number += len(lines)


def _split_lines(text: str) -> Iterator[list[str] | str]:
    """The header's cells, then each later line, of a ``text`` that holds no
    quote, CR or NUL."""
    lines = chain.from_iterable(_quote_free_slices(text, csv.field_size_limit()))
    header = next(lines, None)
    if header is None:
        return lines
    return chain([header.split(",") if header else []], lines)  # [] as the csv reader reads a blank line


def _reader_chunk(rows: list[list[str]], width: int) -> tuple[list[int], list[tuple[str, ...]]]:
    """The cell count of each csv row, and the rows' columns."""
    return list(map(len, rows)), list(zip(*rows))


def _split_chunk(lines: list[str], width: int) -> tuple[list[int], list[list[str]]]:
    """The cell count of each quote-free line, and the lines' ``width``
    columns: all cells split at once, then one stride of them per column."""
    cells = ",".join(lines).split(",")
    return [c + 1 for c in map(str.count, lines, repeat(","))], [cells[j::width] for j in range(width)]


def load_dataset(text: str | bytes, manifest: DatasetManifest) -> DatasetSnapshot:
    """Load a CSV extract against its manifest into an immutable snapshot.

    The header must name a superset of the manifest fields. Sentinel cells
    become missing; cells that fail type coercion are retained as
    coercion failures. Rows are read a chunk at a time and appended to
    one builder per manifest column, which picks its type's coercer once,
    so the raw rows of the whole extract are never held at once; while a
    column's texts repeat, the cells of one text share one value, and a
    Timestamp column fills one array of int microseconds. One
    leading UTF-8 byte-order mark is skipped. Bytes that are not UTF-8 and
    rows the csv reader rejects (a field over its size limit) raise
    SchemaViolation.

    A text with no quote, CR or NUL is split on commas and newlines; any
    other goes through ``csv.reader``. Both give the same snapshot and the
    same errors. NUL goes to the reader as Python 3.10's rejects it.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise SchemaViolation(f"dataset is not UTF-8 text: {e}") from None
    text = text.removeprefix("\ufeff")
    if '"' not in text and "\r" not in text and "\0" not in text:
        return _read_snapshot(_split_lines(text), _split_chunk, manifest)
    reader = csv.reader(_lines(text))
    try:
        return _read_snapshot(reader, _reader_chunk, manifest)
    except csv.Error as e:
        raise SchemaViolation(f"dataset row at line {reader.line_num}: {e}") from None


def _read_snapshot(
    rows: Iterator[Any],
    split: Callable[[list[Any], int], tuple[list[int], list[Sequence[str]]]],
    manifest: DatasetManifest,
) -> DatasetSnapshot:
    """The snapshot of the rows ``rows`` yields, after the header's cells:
    ``split`` gives the cell count of each row of a chunk and the chunk's
    columns. An empty row is a blank line. A ragged row raises only once
    every row is read, so that a row the reader rejects anywhere in the
    text is what raises, whatever the chunk size."""
    try:
        header = next(rows)
    except StopIteration:
        raise HeaderMalformed("dataset has no header row") from None
    if any(not h for h in header):
        raise HeaderMalformed("header contains an empty column name")
    if len(set(header)) != len(header):
        raise HeaderMalformed("header contains duplicate column names")

    positions = {name: i for i, name in enumerate(header)}
    for f in manifest.fields:
        if f.name not in positions:
            raise MissingColumn(f"dataset is missing manifest column {shown(f.name)}")

    sentinels = manifest.missing_sentinels
    builders = {f.name: _ColumnBuilder(f.semantic_type, sentinels) for f in manifest.fields}
    rows = filter(None, rows)  # RFC-4180: ignore blank lines
    width = len(header)
    row_count = 0
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        counts, cells = split(chunk, width)
        if counts.count(width) != len(counts):
            k = next(k for k, c in enumerate(counts) if c != width)
            deque(rows, maxlen=0)  # read to the end: a later reader error wins
            raise HeaderMalformed(f"row {row_count + k} has {counts[k]} cells, header has {width}")
        for name, builder in builders.items():
            builder.extend(cells[positions[name]], row_count)
        row_count += len(chunk)

    # each builder is dropped once its column is built, so no more than one
    # column is held both as a list and as a tuple
    columns = {name: builders.pop(name).build() for name in list(builders)}
    return DatasetSnapshot(manifest=manifest, row_count=row_count, columns=columns)

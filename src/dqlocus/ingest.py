"""Dataset manifests and immutable typed snapshots of tabular extracts.

A manifest declares what each column means (semantic type, entry mode,
generating actor, constraints) and which extract stage the table sits at
(pre- or post-transformation). Loading reads the CSV a chunk of rows at a
time and builds each manifest column with the one coercer of its semantic
type; values that fail coercion are recorded as data for conformance
checks, never as load errors. Dates and timestamps parse as ISO-8601 only,
which keeps loading deterministic across platforms.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Any, Callable, Iterator

from .errors import (
    DanglingColumnReference,
    DuplicateFieldName,
    HeaderMalformed,
    MissingColumn,
    SchemaViolation,
    load_json,
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


@dataclass(frozen=True)
class PolicyCondition:
    """Field is required only on rows where ``field`` takes one of ``values``."""

    field: str
    values: frozenset[str]

    def describe(self, required_field: str) -> str:
        vals = sorted(self.values)
        where = f"{self.field} = {vals[0]}" if len(vals) == 1 else f"{self.field} in [{', '.join(vals)}]"
        return f"states {required_field} required only where {where}"


@dataclass(frozen=True)
class FieldSpec:
    name: str
    semantic_type: SemanticType
    entry_mode: EntryMode
    generating_actor: str
    allowed_values: frozenset[str] | None = None
    numeric_range: tuple[float, float] | None = None
    format_pattern: str | None = None
    required: bool = False
    policy_condition: PolicyCondition | None = None


@dataclass(frozen=True)
class DatasetManifest:
    dataset_id: str
    stage: Stage
    fields: tuple[FieldSpec, ...]
    actor_id_column: str | None = None
    record_timestamp_column: str | None = None
    availability_timestamp_column: str | None = None
    key_column: str | None = None
    missing_sentinels: frozenset[str] = DEFAULT_MISSING_SENTINELS

    def get_field(self, name: str) -> FieldSpec | None:
        return self._fields_by_name.get(name)

    @cached_property
    def _fields_by_name(self) -> dict[str, FieldSpec]:
        # reversed, so that the first of two specs with one name wins
        return {f.name: f for f in reversed(self.fields)}


@dataclass(frozen=True)
class Column:
    """One snapshot column: typed values plus explicit missing/failure sets.

    ``values[i]`` is the typed value, or None when row ``i`` is missing or
    failed coercion; the three states partition the rows exactly.
    """

    name: str
    values: tuple[Any, ...]
    missing: frozenset[int]
    failures: tuple[tuple[int, str], ...] = ()  # (row index, raw text)

    def typed_count(self) -> int:
        return len(self.values) - len(self.missing) - len(self.failures)

    @cached_property
    def absent(self) -> frozenset[int]:
        """Rows without a typed value (missing or malformed), built on first use."""
        return self.missing.union(i for i, _ in self.failures)


@dataclass(frozen=True)
class DatasetSnapshot:
    manifest: DatasetManifest
    row_count: int
    columns: dict[str, Column]

    def column(self, name: str) -> Column:
        return self.columns[name]


# --- manifest loading -----------------------------------------------------

#: Manifest keys whose value names one of the manifest's fields.
_COLUMN_REFS = (
    "actor_id_column",
    "record_timestamp_column",
    "availability_timestamp_column",
    "key_column",
)
_MANIFEST_KEYS = {
    "dataset_id",
    "stage",
    "fields",
    *_COLUMN_REFS,
    "missing_sentinels",
}
_FIELD_KEYS = {
    "name",
    "semantic_type",
    "entry_mode",
    "generating_actor",
    "allowed_values",
    "numeric_range",
    "format_pattern",
    "required",
    "policy_condition",
}


def _require_str(doc: dict, key: str, where: str) -> str:
    value = doc.get(key)
    if not isinstance(value, str) or not value:
        raise SchemaViolation(f"{where}: {key!r} must be a non-empty string")
    return value


def _optional_str(doc: dict, key: str, where: str) -> str | None:
    value = doc.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise SchemaViolation(f"{where}: {key!r} must be a string")
    return value


def _parse_field(doc: Any, index: int) -> FieldSpec:
    where = f"fields[{index}]"
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{where}: field must be an object")
    unknown = set(doc) - _FIELD_KEYS
    if unknown:
        raise SchemaViolation(f"{where}: unknown keys {sorted(unknown)}")
    name = _require_str(doc, "name", where)
    try:
        semantic = SemanticType(_require_str(doc, "semantic_type", where))
        entry = EntryMode(_require_str(doc, "entry_mode", where))
    except ValueError as e:
        raise SchemaViolation(f"{where}: {e}") from None
    actor = _require_str(doc, "generating_actor", where)

    allowed = doc.get("allowed_values")
    if allowed is not None:
        if not isinstance(allowed, list) or not all(isinstance(v, str) for v in allowed):
            raise SchemaViolation(f"{where}: 'allowed_values' must be a list of strings")
        allowed = frozenset(allowed)

    rng = doc.get("numeric_range")
    if rng is not None:
        if (
            not isinstance(rng, list)
            or len(rng) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in rng)
        ):
            raise SchemaViolation(f"{where}: 'numeric_range' must be [min, max]")
        rng = (float(rng[0]), float(rng[1]))

    pattern = _optional_str(doc, "format_pattern", where)
    if pattern is not None:
        try:
            re.compile(pattern)
        except re.error as e:
            raise SchemaViolation(f"{where}: bad format_pattern: {e}") from None

    required = doc.get("required", False)
    if not isinstance(required, bool):
        raise SchemaViolation(f"{where}: 'required' must be a boolean")

    policy = doc.get("policy_condition")
    if policy is not None:
        if not isinstance(policy, dict) or set(policy) - {"field", "values"}:
            raise SchemaViolation(f"{where}: 'policy_condition' must be {{field, values}}")
        pc_field = _require_str(policy, "field", f"{where}.policy_condition")
        pc_values = policy.get("values")
        if not isinstance(pc_values, list) or not pc_values or not all(
            isinstance(v, str) for v in pc_values
        ):
            raise SchemaViolation(
                f"{where}: 'policy_condition.values' must be a non-empty list of strings"
            )
        policy = PolicyCondition(pc_field, frozenset(pc_values))

    if entry is EntryMode.EHR_ENFORCED and allowed is None and pattern is None:
        raise SchemaViolation(
            f"{where}: EhrEnforced field {name!r} needs 'allowed_values' or 'format_pattern'"
        )

    return FieldSpec(
        name=name,
        semantic_type=semantic,
        entry_mode=entry,
        generating_actor=actor,
        allowed_values=allowed,
        numeric_range=rng,
        format_pattern=pattern,
        required=required,
        policy_condition=policy,
    )


def load_manifest(text: str | bytes) -> DatasetManifest:
    """Parse and validate a manifest document (strict: unknown keys rejected)."""
    doc = load_json(text, "manifest")
    if not isinstance(doc, dict):
        raise SchemaViolation("manifest must be a JSON object")
    unknown = set(doc) - _MANIFEST_KEYS
    if unknown:
        raise SchemaViolation(f"manifest: unknown keys {sorted(unknown)}")

    dataset_id = _require_str(doc, "dataset_id", "manifest")
    try:
        stage = Stage(_require_str(doc, "stage", "manifest"))
    except ValueError as e:
        raise SchemaViolation(f"manifest: {e}") from None

    raw_fields = doc.get("fields")
    if not isinstance(raw_fields, list) or not raw_fields:
        raise SchemaViolation("manifest: 'fields' must be a non-empty list")
    fields = tuple(_parse_field(f, i) for i, f in enumerate(raw_fields))

    names = [f.name for f in fields]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateFieldName(f"field {name!r} defined more than once")
        seen.add(name)

    sentinels = doc.get("missing_sentinels")
    if sentinels is None:
        sentinels = DEFAULT_MISSING_SENTINELS
    else:
        if not isinstance(sentinels, list) or not all(isinstance(s, str) for s in sentinels):
            raise SchemaViolation("manifest: 'missing_sentinels' must be a list of strings")
        sentinels = frozenset(sentinels)

    refs = {key: _optional_str(doc, key, "manifest") for key in _COLUMN_REFS}
    manifest = DatasetManifest(
        dataset_id=dataset_id,
        stage=stage,
        fields=fields,
        missing_sentinels=sentinels,
        **refs,
    )

    field_names = set(names)
    for label, ref in refs.items():
        if ref is not None and ref not in field_names:
            raise DanglingColumnReference(f"manifest: {label} references unknown field {ref!r}")
    for f in fields:
        if f.policy_condition is not None and f.policy_condition.field not in field_names:
            raise DanglingColumnReference(
                f"field {f.name!r}: policy_condition references unknown field"
                f" {f.policy_condition.field!r}"
            )
    return manifest


def serialize_manifest(manifest: DatasetManifest) -> str:
    """Render a manifest back to its JSON document form."""
    doc: dict[str, Any] = {
        "dataset_id": manifest.dataset_id,
        "stage": manifest.stage.value,
        "fields": [],
    }
    for f in manifest.fields:
        entry: dict[str, Any] = {
            "name": f.name,
            "semantic_type": f.semantic_type.value,
            "entry_mode": f.entry_mode.value,
            "generating_actor": f.generating_actor,
        }
        if f.allowed_values is not None:
            entry["allowed_values"] = sorted(f.allowed_values)
        if f.numeric_range is not None:
            entry["numeric_range"] = list(f.numeric_range)
        if f.format_pattern is not None:
            entry["format_pattern"] = f.format_pattern
        if f.required:
            entry["required"] = True
        if f.policy_condition is not None:
            entry["policy_condition"] = {
                "field": f.policy_condition.field,
                "values": sorted(f.policy_condition.values),
            }
        doc["fields"].append(entry)
    for key in _COLUMN_REFS:
        if getattr(manifest, key) is not None:
            doc[key] = getattr(manifest, key)
    if manifest.missing_sentinels != DEFAULT_MISSING_SENTINELS:
        doc["missing_sentinels"] = sorted(manifest.missing_sentinels)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# --- dataset loading --------------------------------------------------------

#: Rows read, transposed and coerced at a time, and characters of text
#: handed to the line reader at a time: together they bound what a load
#: holds beyond the text and the columns it builds.
_CHUNK_ROWS = 4096
_SLICE_CHARS = 1 << 20


def _timestamp(raw: str) -> datetime:
    """ISO-8601 timestamp; aware values are normalized to naive UTC so all
    values in a column compare consistently."""
    value = datetime.fromisoformat(raw)
    if value.tzinfo is not None:
        value = value.astimezone(timezone.utc).replace(tzinfo=None)
    return value


#: The coercer of each typed semantic type; the others keep their text.
_COERCERS: dict[SemanticType, Callable[[str], Any]] = {
    SemanticType.NUMBER: float,
    SemanticType.DATE: date.fromisoformat,
    SemanticType.TIMESTAMP: _timestamp,
}


class _ColumnBuilder:
    """One column's typed values, missing rows and coercion failures,
    appended a chunk of raw cells at a time with the coercer of its type."""

    def __init__(self, semantic: SemanticType, sentinels: frozenset[str]) -> None:
        self.coerce = _COERCERS.get(semantic)
        self.sentinels = sentinels
        self.values: list[Any] = []
        self.missing: list[int] = []
        self.failures: list[tuple[int, str]] = []

    def extend(self, cells: tuple[str, ...], first_row: int) -> None:
        sentinels, coerce = self.sentinels, self.coerce
        if coerce is None:
            missing = [i for i, raw in enumerate(cells, first_row) if raw in sentinels]
            self.values += cells
            for i in missing:
                self.values[i] = None
            self.missing += missing
            return
        append = self.values.append
        for i, raw in enumerate(cells, first_row):
            if raw in sentinels:  # before parsing: a sentinel may look typed
                append(None)
                self.missing.append(i)
                continue
            try:
                append(coerce(raw))
            except (ValueError, OverflowError):  # overflow: an offset at datetime's range edge
                append(None)
                self.failures.append((i, raw))

    def build(self, name: str) -> Column:
        return Column(
            name=name,
            values=tuple(self.values),
            missing=frozenset(self.missing),
            failures=tuple(self.failures),
        )


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` as ``io.StringIO(text, newline="")`` gives them,
    read from slices of about ``_SLICE_CHARS`` characters that each end a
    line, so that the reader's copy of the text stays small."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE_CHARS) + 1 or len(text)
        yield from io.StringIO(text[start:end], newline="")
        start = end


def load_dataset(text: str | bytes, manifest: DatasetManifest) -> DatasetSnapshot:
    """Load a CSV extract against its manifest into an immutable snapshot.

    The header must name a superset of the manifest fields. Sentinel cells
    become missing; cells that fail type coercion are retained as
    coercion failures. Rows are read a chunk at a time and appended to
    one builder per manifest column, which picks its type's coercer once,
    so the raw rows of the whole extract are never held at once. Bytes
    that are not UTF-8 and rows the csv reader rejects (a field over its
    size limit) raise SchemaViolation.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise SchemaViolation(f"dataset is not UTF-8 text: {e}") from None
    reader = csv.reader(_lines(text))
    try:
        return _read_snapshot(reader, manifest)
    except csv.Error as e:
        raise SchemaViolation(f"dataset row at line {reader.line_num}: {e}") from None


def _read_snapshot(reader: Iterator[list[str]], manifest: DatasetManifest) -> DatasetSnapshot:
    """The snapshot of the CSV rows ``reader`` yields, header first."""
    try:
        header = next(reader)
    except StopIteration:
        raise HeaderMalformed("dataset has no header row") from None
    if any(not h for h in header):
        raise HeaderMalformed("header contains an empty column name")
    if len(set(header)) != len(header):
        raise HeaderMalformed("header contains duplicate column names")

    positions = {name: i for i, name in enumerate(header)}
    for f in manifest.fields:
        if f.name not in positions:
            raise MissingColumn(f"dataset is missing manifest column {f.name!r}")

    sentinels = manifest.missing_sentinels
    builders = {f.name: _ColumnBuilder(f.semantic_type, sentinels) for f in manifest.fields}
    rows = filter(None, reader)  # RFC-4180: ignore blank lines
    row_count = 0
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        for k, row in enumerate(chunk):
            if len(row) != len(header):
                raise HeaderMalformed(
                    f"row {row_count + k} has {len(row)} cells, header has {len(header)}"
                )
        cells = list(zip(*chunk))
        for name, builder in builders.items():
            builder.extend(cells[positions[name]], row_count)
        row_count += len(chunk)

    # each builder is dropped once its column is built, so no more than one
    # column is held both as a list and as a tuple
    columns = {name: builders.pop(name).build(name) for name in list(builders)}
    return DatasetSnapshot(manifest=manifest, row_count=row_count, columns=columns)

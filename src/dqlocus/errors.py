"""Exception hierarchy shared by all dqlocus modules.

Every error the toolkit raises deliberately derives from ``DqError`` so
callers can distinguish tool-level failures from ordinary Python bugs.
``load_json`` decodes every JSON document the toolkit takes and
``read_object`` reads each object in it through a table that maps each
key to its reader, so that a document which cannot be decoded or does
not fit its schema is a ``SchemaViolation`` too. A reader takes a value
and its path in the document, such as ``manifest.fields[2].name``, and
returns the value to use or raises ``SchemaViolation`` saying
``<path> must be ...``.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Any, Callable


class DqError(Exception):
    """Base class for all errors raised by dqlocus."""


# --- taxonomy -----------------------------------------------------------

class InvalidPhaseForOrganization(DqError):
    """The (organization, phase) pair is not part of the lifecycle model."""


class UnknownActor(DqError):
    """Actor name resolves to nothing in the registry."""


class ActorPhaseMismatch(DqError):
    """Actor exists but is not allowed at the requested organization/phase."""


class DuplicateActor(DqError):
    """Actor name is already registered."""


class AliasCollision(DqError):
    """Alias collides with an existing canonical name or alias."""


class EmptyAllowedPhases(DqError):
    """Actor registration carried no allowed organization/phase pairs."""


class InvalidActorName(DqError):
    """Actor name does not fit the notation's identifier grammar."""


# --- notation -----------------------------------------------------------

class NotationSyntaxError(DqError):
    """Assertion text does not match the grammar.

    ``offset`` is the byte offset into the input at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class PercentOutOfRange(DqError):
    """Percent literal exceeds 100%."""


class UnresolvedLabel(DqError):
    """Label does not map to a core parameter (strict parsing only)."""


# --- ingest -------------------------------------------------------------

class SchemaViolation(DqError):
    """Document does not match the expected schema."""


class DanglingColumnReference(DqError):
    """Manifest references a column that is not defined as a field."""


class DuplicateFieldName(DqError):
    """Two manifest fields share a name."""


class MissingColumn(DqError):
    """Dataset lacks a column the manifest requires."""


class HeaderMalformed(DqError):
    """Dataset header row is absent, empty, or has duplicate names."""


# --- assess -------------------------------------------------------------

class CheckConfigError(DqError):
    """A check definition cannot be evaluated against the snapshot."""


class UnknownField(CheckConfigError):
    """Check targets a field the manifest does not define."""


class MissingConfig(CheckConfigError):
    """Check kind requires configuration the field/definition lacks."""


class InvalidRange(CheckConfigError):
    """Plausibility range has min greater than max."""


class NonNumericField(CheckConfigError):
    """Range check targets a field that is not numeric or date-valued."""


class NonTemporalField(CheckConfigError):
    """Temporal check targets a field that is not date/timestamp-valued."""


class NoActorColumn(CheckConfigError):
    """Stratified check requested but the manifest declares no actor column."""


class NoTimestampColumns(CheckConfigError):
    """Timeliness check requires record and availability timestamp fields."""


class StageMismatch(CheckConfigError):
    """A snapshot in another lifecycle stage's slot, or a paired check
    without one source and one transformed snapshot of the same dataset."""


class KeyColumnMissing(CheckConfigError):
    """Paired-snapshot check requires a key column declared in both manifests."""


class KeyMismatch(CheckConfigError):
    """Key values do not align rows one-to-one across paired snapshots."""


def load_json(text: str | bytes, what: str) -> Any:
    """Decode a JSON document; invalid JSON, bytes that do not decode and
    nesting too deep for the decoder each raise SchemaViolation naming
    ``what`` and the cause."""
    try:
        return json.loads(text)
    except UnicodeDecodeError as e:
        raise SchemaViolation(f"{what} is not UTF-8, UTF-16 or UTF-32 text: {e}") from None
    except ValueError as e:  # a JSONDecodeError, or an integer too long to convert
        raise SchemaViolation(f"{what} is not valid JSON: {e}") from None
    except RecursionError:
        raise SchemaViolation(f"{what} is nested too deeply to decode") from None


Reader = Callable[[Any, str], Any]


def read_object(
    doc: Any, readers: dict[str, Reader], where: str, required: tuple[str, ...] = ()
) -> dict[str, Any]:
    """Each key of the JSON object ``doc`` read by its reader, in the order
    of ``readers``. A value that is not an object, a key without a reader
    and a missing ``required`` key raise SchemaViolation. Every other key
    is optional and, when absent, stays absent."""
    unknown = read_dict(doc, where).keys() - readers.keys()
    if unknown:
        raise SchemaViolation(f"{where} must not have the keys {sorted(unknown, key=str)}")
    for key in required:
        if key not in doc:
            raise SchemaViolation(f"{where}.{key} must be given")
    return {key: read(doc[key], f"{where}.{key}") for key, read in readers.items() if key in doc}


def read_str(value: Any, where: str) -> str:
    if isinstance(value, str):
        return value
    raise SchemaViolation(f"{where} must be a string")


def read_bool(value: Any, where: str) -> bool:
    if isinstance(value, bool):
        return value
    raise SchemaViolation(f"{where} must be a boolean")


def read_int(value: Any, where: str) -> int:
    if type(value) is int:  # not a bool
        return value
    raise SchemaViolation(f"{where} must be an integer")


def read_dict(value: Any, where: str) -> dict[str, Any]:
    """A JSON object whose keys and values are the caller's to check."""
    if isinstance(value, dict):
        return value
    raise SchemaViolation(f"{where} must be an object")


def dict_of(reader: Reader) -> Reader:
    """Reader of a JSON object of string keys whose values ``reader`` reads at ``<where>['key']``."""
    def read(value: Any, where: str) -> dict[str, Any]:
        if keys := [key for key in read_dict(value, where) if not isinstance(key, str)]:
            raise SchemaViolation(f"{where} must have string keys, got {keys[0]!r}")
        return {key: reader(item, f"{where}[{key!r}]") for key, item in value.items()}
    return read


def object_of(readers: dict[str, Reader], into: Callable[..., Any] = dict) -> Reader:
    """Reader of a JSON object of every key of ``readers`` and no other, built by ``into``."""
    return lambda value, where: into(**read_object(value, readers, where, tuple(readers)))


def read_enum(cls: type[Enum]) -> Reader:
    """Reader of the value of one of ``cls``'s members."""
    def read(value: Any, where: str) -> Any:
        try:
            return cls(read_str(value, where))
        except ValueError:
            raise SchemaViolation(f"{where} must be one of {[m.value for m in cls]}, got {value!r}") from None
    return read


def list_of(reader: Reader, into: Callable[[Any], Any] = tuple) -> Reader:
    """Reader of a JSON list whose items ``reader`` reads, collected by ``into``."""
    def read(value: Any, where: str) -> Any:
        if not isinstance(value, list):
            raise SchemaViolation(f"{where} must be a list")
        return into(reader(item, f"{where}[{i}]") for i, item in enumerate(value))
    return read


def non_empty(reader: Reader) -> Reader:
    """``reader``, rejecting an empty string or list."""
    def read(value: Any, where: str) -> Any:
        result = reader(value, where)
        if not result:
            raise SchemaViolation(f"{where} must be non-empty")
        return result
    return read


def nullable(reader: Reader, default: Any = None) -> Reader:
    """``reader``, reading null as ``default``: the value of an absent key."""
    return lambda value, where: default if value is None else reader(value, where)

"""Exception hierarchy shared by all dqlocus modules.

Every error the toolkit raises deliberately derives from ``DqError`` so
callers (and the CLI) can distinguish tool-level failures from ordinary
Python bugs. ``load_json`` reads every JSON document the toolkit takes,
so that one which cannot be decoded is a ``SchemaViolation`` too.
"""

from __future__ import annotations

import json
from typing import Any


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


class BuiltinActorImmutable(DqError):
    """Builtin actors cannot be removed or redefined."""


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
    """Paired-snapshot check got snapshots at the wrong lifecycle stages."""


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
    except json.JSONDecodeError as e:
        raise SchemaViolation(f"{what} is not valid JSON: {e}") from None
    except UnicodeDecodeError as e:
        raise SchemaViolation(f"{what} is not UTF-8, UTF-16 or UTF-32 text: {e}") from None
    except RecursionError:
        raise SchemaViolation(f"{what} is nested too deeply to decode") from None

"""Deterministic data quality checks over dataset snapshots.

All rates are exact rationals built from integer counts, so stratified
sums reconcile with overall counts exactly and results never depend on
row order or evaluation order. A check with an empty denominator is
NotAssessable, a distinct state that is never rendered as 0% or 100%.

Missing and nonconforming are disjoint: missing cells never enter a
conformance denominator, and coercion failures (present but malformed)
count against conformance, not completeness numerators.
"""

from __future__ import annotations

import json
import math
import re
import sys
from array import array
from collections import Counter
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence

from .errors import (
    CheckConfigError,
    DqError,
    InvalidRange,
    KeyColumnMissing,
    KeyMismatch,
    MissingConfig,
    NoActorColumn,
    NonNumericField,
    NonTemporalField,
    NoTimestampColumns,
    Reader,
    SchemaViolation,
    StageMismatch,
    dict_of,
    list_of,
    load_json,
    non_empty,
    nullable,
    object_of,
    read_bool,
    read_dict,
    read_enum,
    read_int,
    read_object,
    read_str,
)
from .ingest import (
    COERCERS,
    EPOCH,
    Column,
    DatasetManifest,
    DatasetSnapshot,
    FieldSpec,
    Predicate,
    SemanticType,
    Stage,
    read_predicate,
)
from .taxonomy import LABEL_PARAMETERS, DQParameter

#: Stratum key for rows whose actor id cell is missing.
UNATTRIBUTED_STRATUM = "<unattributed>"

#: Reserved subset token: restrict a completeness check to rows where the
#: field is required (per its policy condition).
WHERE_REQUIRED = "where-required"


class CheckKind(str, Enum):
    COMPLETENESS = "Completeness"
    CONFORMANCE_VALUE = "ConformanceValue"
    CONFORMANCE_FORMAT = "ConformanceFormat"
    PLAUSIBILITY_RANGE = "PlausibilityRange"
    PLAUSIBILITY_TEMPORAL = "PlausibilityTemporal"
    DEGENERACY_BY_ACTOR = "DegeneracyByActor"
    TIMELINESS = "Timeliness"
    MAPPING_SUCCESS = "MappingSuccess"


class CheckStatus(str, Enum):
    OK = "Ok"
    NOT_ASSESSABLE = "NotAssessable"
    ERRORED = "Errored"


class DegeneracyFlag(str, Enum):
    NEVER_RECORDS = "NeverRecords"
    ALWAYS_SAME = "AlwaysSame"


#: The types an identifying attribute may take, and how a message names them.
_STRING, _OPTIONAL_STRING = ((str,), "a string"), ((str, type(None)), "a string or None")
_KIND, _STAGE = ((CheckKind,), "a CheckKind"), ((Stage, type(None)), "a Stage or None")


def _check_types(obj: Any, rules: dict[str, tuple[tuple[type, ...], str]]) -> None:
    """Raise SchemaViolation naming the first attribute of ``rules`` not of its types."""
    for key, (types, what) in rules.items():
        if type(value := getattr(obj, key)) not in types:
            raise SchemaViolation(f"{key} must be {what}, got {value!r}")


@dataclass(frozen=True)
class CheckDefinition:
    """One check to run: a str ``id``, a ``CheckKind``, a ``Stage`` or None and a
    tuple or list of str target fields, however built, else SchemaViolation."""

    id: str
    kind: CheckKind
    target_fields: tuple[str, ...]
    subset: Predicate | str | None = None  # predicate or WHERE_REQUIRED
    stratify_by_actor: bool = False
    stage: Stage | None = None
    config: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_types(self, {"id": _STRING, "kind": _KIND, "stage": _STAGE})
        fields = self.target_fields
        if type(fields) not in (tuple, list) or not {str}.issuperset(map(type, fields)):
            raise SchemaViolation(f"target_fields must be a tuple or list of strings, got {fields!r}")


@dataclass(frozen=True)
class StratumOutcome:
    numerator: int
    denominator: int
    flags: tuple[DegeneracyFlag, ...] = ()


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one check: exact counts, violations, optional strata.

    It stores what the check measured, or the error that stopped it;
    ``status``, ``parameter`` and ``rate`` are derived from those. ``rate``
    is numerator/denominator, and None (not 0, not 1) unless Ok. ``check_id``
    is a str, ``kind`` a ``CheckKind``, ``stage`` a ``Stage`` or None,
    ``subset`` and ``error`` strs or None, each count an int, each numerator
    (overall and per stratum) in ``0..denominator``, the strata sum to the
    counts, ``target_fields`` a tuple of strs, ``violations`` a tuple of
    (row, reason) pairs whose rows are distinct ints ascending from 0 and
    whose reasons are strs, ``details`` a dict that its kind's
    ``KindSpec.details`` table reads, and an errored outcome holds no
    measurement. What ``outcomes_to_json`` must write it can: no int
    (count, row or detail) has more digits than Python prints
    (``sys.get_int_max_str_digits()``). Breaking a rule raises
    SchemaViolation naming the attribute.
    """

    check_id: str
    kind: CheckKind
    numerator: int = 0
    denominator: int = 0
    target_fields: tuple[str, ...] = ()
    stage: Stage | None = None
    subset: str | None = None
    strata: dict[str, StratumOutcome] | None = None
    violations: tuple[tuple[int, str], ...] = ()  # (row, reason), rows ascending
    details: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    def __post_init__(self) -> None:
        _check_types(self, {"check_id": _STRING, "kind": _KIND, "stage": _STAGE,
                            "subset": _OPTIONAL_STRING, "error": _OPTIONAL_STRING})
        for key, container in (("target_fields", tuple), ("violations", tuple), ("details", dict)):
            if type(value := getattr(self, key)) is not container:
                raise SchemaViolation(f"{key} must be a {container.__name__}, got {type(value).__name__}")
        for i, name in enumerate(self.target_fields):
            if type(name) is not str:
                raise SchemaViolation(f"target_fields[{i}] must be a string, got {name!r}")
        if self.error is not None:
            for key, empty in _ERRORED.items():
                if (value := getattr(self, key)) != empty:
                    raise SchemaViolation(f"{key} must be {empty!r} in an errored outcome, got {value!r}")
        read_object(self.details, CHECK_KINDS[self.kind].details, "details")
        strata = self.strata or {}
        for counts, at in [(self, ""), *((s, f"strata[{sid!r}].") for sid, s in strata.items())]:
            for key in ("numerator", "denominator"):
                _read_printable_int(getattr(counts, key), f"{at}{key}")
            if not 0 <= counts.numerator <= counts.denominator:
                raise SchemaViolation(
                    f"{at}numerator must be from 0 to the denominator {counts.denominator}, got {counts.numerator}"
                )
        sums = (sum(s.numerator for s in strata.values()), sum(s.denominator for s in strata.values()))
        if self.strata is not None and sums != (self.numerator, self.denominator):
            raise SchemaViolation(
                f"strata must sum to the numerator {self.numerator} and the denominator {self.denominator},"
                f" got {sums[0]} and {sums[1]}"
            )
        before = -1
        for i, violation in enumerate(self.violations):
            if type(violation) is not tuple or len(violation) != 2:
                raise SchemaViolation(f"violations[{i}] must be a (row, reason) pair, got {violation!r}")
            row, reason = violation
            if type(row) is not int:
                raise SchemaViolation(f"violations[{i}][0] must be an integer, got {row!r}")
            if type(reason) is not str:
                raise SchemaViolation(f"violations[{i}][1] must be a string, got {reason!r}")
            if row <= before:
                raise SchemaViolation(f"violations[{i}][0] must be above {before}: rows ascend from 0, got {row}")
            before = row
        if self.violations:  # the last row is the largest
            _read_printable_int(before, f"violations[{len(self.violations) - 1}][0]")

    @property
    def status(self) -> CheckStatus:
        if self.error is not None:
            return CheckStatus.ERRORED
        return CheckStatus.OK if self.denominator else CheckStatus.NOT_ASSESSABLE

    @property
    def parameter(self) -> DQParameter | None:
        return None if self.error is not None else LABEL_PARAMETERS[CHECK_KINDS[self.kind].label]

    @property
    def rate(self) -> Fraction | None:
        return Fraction(self.numerator, self.denominator) if self.status is CheckStatus.OK else None


def _read_printable_int(value: Any, where: str) -> int:
    """``value``, or SchemaViolation naming ``where`` unless it is an int
    (not a bool) of at most the decimal digits Python prints
    (``sys.get_int_max_str_digits()``, 0: no limit)."""
    if type(value) is not int:
        raise SchemaViolation(f"{where} must be an integer, got {value!r}")
    digits = sys.get_int_max_str_digits()
    # an int of up to 3 * digits bits has fewer than digits digits
    if digits and value.bit_length() > 3 * digits and abs(value) >= 10**digits:
        raise SchemaViolation(f"{where} must be an integer of at most {digits} digits")
    return value


#: What ``run_suite`` holds in an errored outcome: nothing was measured.
_ERRORED = {"numerator": 0, "denominator": 0, "strata": None, "violations": (), "details": {}}


def _field(snapshot: DatasetSnapshot, name: str) -> tuple[Column, FieldSpec]:
    """A snapshot column and its manifest spec (every column has one)."""
    return snapshot.column(name), snapshot.manifest.get_field(name)  # type: ignore[return-value]


#: One microsecond, the unit of a Timestamp value; the ordinal of
#: ``EPOCH``'s day; and the microseconds of one day.
_MICROSECOND = timedelta(microseconds=1)
_EPOCH_DAY = EPOCH.toordinal()
_DAY = 86_400_000_000


def _render(col: Column) -> Callable[[Any], str]:
    """The one function that gives each value of ``col`` its text, wherever
    a check prints a value or matches it against a text: ``str``, but for a
    Timestamp's microseconds ``_timestamp_text``."""
    return _timestamp_text if type(col.values) is array else str


def _timestamp_text(microseconds: int) -> str:
    """The naive UTC ``datetime`` of a Timestamp value, as ``str()`` gives
    it: ``2024-01-01 00:00:00``, and ``2024-01-01 00:00:00.500000`` with a
    fraction of a second."""
    return str(EPOCH + _MICROSECOND * microseconds)


def _rows_where(snapshot: DatasetSnapshot, predicate: Predicate) -> list[int]:
    """Rows on which the predicate's field has a typed value whose text is
    one of its values."""
    col = snapshot.column(predicate.field)
    values, absent = predicate.values, col.absent
    return [i for i, text in enumerate(map(_render(col), col.values)) if text in values and i not in absent]


def _required_rows(snapshot: DatasetSnapshot, field_name: str) -> Rows:
    """Rows on which the field is required, honoring its policy condition."""
    spec = _field(snapshot, field_name)[1]
    if spec.policy_condition is not None:
        return _rows_where(snapshot, spec.policy_condition)
    if spec.required:
        return range(snapshot.row_count)
    return []


def _subset_rows(snapshot: DatasetSnapshot, field_name: str, subset: Predicate | str) -> Rows:
    if subset == WHERE_REQUIRED:
        return _required_rows(snapshot, field_name)
    if not isinstance(subset, Predicate):
        raise MissingConfig(f"unknown subset token {subset!r}")
    return _rows_where(snapshot, subset)


def _eligible(snapshot: DatasetSnapshot, scope: Scope, absent: AbstractSet[int]) -> Rows:
    """Rows in scope (every row when ``scope`` is None) that are not in
    ``absent``; the scope itself, or a ``range``, when nothing is excluded."""
    rows = range(snapshot.row_count) if scope is None else scope
    return list(filterfalse(absent.__contains__, rows)) if absent else rows


def _in_scope(failing: Failing, scope: Scope) -> Failing:
    """``failing`` restricted to the rows of ``scope`` (all of it when None)."""
    return failing if scope is None else {i: failing[i] for i in failing.keys() & scope}


def _actor_ids(snapshot: DatasetSnapshot) -> list[str]:
    """Actor id of every row; missing ids map to the unattributed stratum."""
    actor_col_name = snapshot.manifest.actor_id_column
    if actor_col_name is None:
        raise NoActorColumn(
            f"manifest {snapshot.manifest.dataset_id!r} declares no actor_id_column"
        )
    col = snapshot.column(actor_col_name)
    ids = list(map(_render(col), col.values))
    for i in col.absent:
        ids[i] = UNATTRIBUTED_STRATUM
    return ids


def _stratify(actors: list[str], rows: Rows, failing: Failing) -> dict[str, StratumOutcome]:
    den = Counter(map(actors.__getitem__, rows))
    failed = Counter(map(actors.__getitem__, failing))
    return {sid: StratumOutcome(den[sid] - failed[sid], den[sid]) for sid in sorted(den)}


# --- the checks -------------------------------------------------------------
#
# A row kind's function takes (snapshot, target fields, config, scope), where
# scope is the subset's rows or None for every row. It returns the rows it
# judges (the denominator), a mapping from each failing row among them to its
# violation reason, and the outcome details; ``run_check`` does the rest.
# Each kind does only the work its failures need: completeness reads the
# column's missing and failed rows, a typed format check reads only the
# failed rows, and a value or pattern test runs once per present cell. A
# paired kind's function takes the ``Snapshots`` in place of one snapshot.
# A strata kind's function takes (snapshot, target fields, config, actor
# ids), where actor ids gives a snapshot's per-row actor ids, and returns
# the strata, the failing rows with their reasons, and the details.

Fields = tuple[str, ...]
Config = dict[str, Any]
#: The rows a check judges: a range, a subset's rows, or either less the
#: rows the check excludes.
Rows = "range | list[int]"
Scope = "Rows | None"
#: Each failing row and its violation reason.
Failing = dict[int, str]
RowCheck = tuple[Rows, Failing, dict[str, Any]]
StrataCheck = tuple[dict[str, StratumOutcome], Failing, dict[str, Any]]
ActorIds = Callable[[DatasetSnapshot], "list[str]"]
#: The key column, and for each transformed row the source row of its key.
KeyJoin = tuple[str, list[int]]


def _completeness(snapshot: DatasetSnapshot, fields: Fields, cfg: Config, scope: Scope) -> RowCheck:
    """Fraction of rows (in the subset) carrying a typed value.

    With the ``where-required`` subset token, the denominator is the rows
    on which the field is required per its policy condition. For a full
    check over a policy-conditioned field, the outcome details record
    whether all missingness falls outside the required rows
    (``policy_explained``), which attribution rules consume.
    """
    name = fields[0]
    col, spec = _field(snapshot, name)
    failing = dict.fromkeys(col.missing, "missing")
    failing.update(dict.fromkeys((i for i, _ in col.failures), "malformed"))

    details: dict[str, Any] = {}
    if scope is None and spec.policy_condition is not None:
        required = _required_rows(snapshot, name)
        details["policy_explained"] = bool(absent := col.absent) and absent.isdisjoint(required)
        details["policy_text"] = f"states {name} required only where {spec.policy_condition}"
    return _eligible(snapshot, scope, frozenset()), _in_scope(failing, scope), details


def _present_cells(
    snapshot: DatasetSnapshot, name: str, scope: Scope, test: Callable[[Any], str | None] | None
) -> RowCheck:
    """Judge every non-missing cell: coercion failures are violations, typed
    values go to ``test`` (when there is one)."""
    col = snapshot.column(name)
    rows = _eligible(snapshot, scope, col.missing)
    failing = _in_scope(dict.fromkeys((i for i, _ in col.failures), "malformed"), scope)
    if test is not None:  # a malformed cell failed above
        values = col.values
        typed = _eligible(snapshot, scope, col.absent) if col.failures else rows
        failing.update({i: reason for i in typed if (reason := test(values[i])) is not None})
    return rows, failing, {}


def _conformance_value(snapshot: DatasetSnapshot, fields: Fields, cfg: Config, scope: Scope) -> RowCheck:
    """Fraction of non-missing cells whose value is in the field's allowed set."""
    col, spec = _field(snapshot, fields[0])
    if (allowed := spec.allowed_values) is None:
        raise MissingConfig(f"field {fields[0]!r} has no allowed_values for a Value check")
    render = _render(col)
    return _present_cells(
        snapshot, fields[0], scope,
        lambda value: None if (text := render(value)) in allowed else f"value not allowed: {text}",
    )


def _conformance_format(snapshot: DatasetSnapshot, fields: Fields, cfg: Config, scope: Scope) -> RowCheck:
    """Fraction of non-missing cells that coerced, for a typed field, or that
    match the field's format pattern, for an untyped one."""
    spec = _field(snapshot, fields[0])[1]
    if spec.semantic_type in COERCERS:
        return _present_cells(snapshot, fields[0], scope, None)
    if spec.format_pattern is None:
        raise MissingConfig(f"field {fields[0]!r} has no format_pattern and is not a typed column")
    pattern = re.compile(spec.format_pattern)
    return _present_cells(
        snapshot, fields[0], scope, lambda value: None if pattern.fullmatch(value) else f"pattern mismatch: {value}"
    )


def _plausibility_range(snapshot: DatasetSnapshot, fields: Fields, cfg: Config, scope: Scope) -> RowCheck:
    """Fraction of typed values inside [min, max], inclusive."""
    if "min" not in cfg or "max" not in cfg:
        raise MissingConfig("range check requires 'min' and 'max' in config")
    col, spec = _field(snapshot, fields[0])
    if spec.semantic_type not in COERCERS:
        raise NonNumericField(f"field {fields[0]!r} is not numeric or date-valued")
    lo, hi = _coerce_bound(cfg["min"], spec.semantic_type), _coerce_bound(cfg["max"], spec.semantic_type)
    if lo > hi:
        raise InvalidRange(f"range minimum {cfg['min']!r} exceeds maximum {cfg['max']!r}")
    values, render = col.values, _render(col)
    rows = _eligible(snapshot, scope, col.absent)
    failing = {i: f"out of range: {render(v)}" for i in rows if not lo <= (v := values[i]) <= hi}
    return rows, failing, {"min": str(cfg["min"]), "max": str(cfg["max"])}


def _coerce_bound(bound: Any, semantic: SemanticType) -> Any:
    """A number bound of a Number field, or an ISO-8601 bound of a Date or
    Timestamp field, parsed once by the coercer that loads the field's
    cells (so a Timestamp bound is microseconds); a date or datetime given
    in code is read as its ISO-8601 text."""
    text = bound.isoformat() if isinstance(bound, date) else bound
    accepted = (int, float) if semantic is SemanticType.NUMBER else str
    if isinstance(text, accepted) and not isinstance(text, bool):
        try:
            return COERCERS[semantic](text)
        except (ValueError, OverflowError):  # overflow: an offset at datetime's range edge
            pass
    raise InvalidRange(f"bound {bound!r} does not fit a {semantic.value} field")


def _microseconds(col: Column) -> Sequence[int]:
    """A Date or Timestamp column's values as microseconds since ``EPOCH``,
    each date's at its midnight and converted once, so that the two kinds
    compare; 0 at an absent row of a Date column."""
    if type(col.values) is array:
        return col.values
    return [0 if day is None else (day.toordinal() - _EPOCH_DAY) * _DAY for day in col.values]


def _plausibility_temporal(snapshot: DatasetSnapshot, fields: Fields, cfg: Config, scope: Scope) -> RowCheck:
    """Fraction of complete pairs with before <= after (equality counts); a
    date counts as its midnight."""
    for name in fields:
        if _field(snapshot, name)[1].semantic_type not in (SemanticType.DATE, SemanticType.TIMESTAMP):
            raise NonTemporalField(f"field {name!r} is not date/timestamp-valued")
    before, after = snapshot.column(fields[0]), snapshot.column(fields[1])
    early, late = _microseconds(before), _microseconds(after)
    reason = f"{fields[0]} after {fields[1]}"
    rows = _eligible(snapshot, scope, before.absent | after.absent)
    return rows, {i: reason for i in rows if early[i] > late[i]}, {}


def _timeliness(snapshot: DatasetSnapshot, fields: Fields, cfg: Config, scope: Scope) -> RowCheck:
    """Fraction of complete timestamp pairs available within max_lag.

    A record available before it was recorded is a NegativeLag violation
    and does not count as timely. There is no default max_lag: timeliness
    requirements are use-case context.
    """
    max_lag = cfg.get("max_lag")
    if max_lag is None or max_lag <= timedelta(0):
        raise MissingConfig("timeliness requires a positive max_lag")
    for name in fields:
        if _field(snapshot, name)[1].semantic_type is not SemanticType.TIMESTAMP:
            raise NoTimestampColumns(f"field {name!r} is not a Timestamp column")
    rec, avail = snapshot.column(fields[0]), snapshot.column(fields[1])
    rows = _eligible(snapshot, scope, rec.absent | avail.absent)
    recorded, available = rec.values, avail.values
    lags = [available[i] - recorded[i] for i in rows]  # microseconds
    most, exceeds = max_lag // _MICROSECOND, f" exceeds {max_lag}"
    failing = {
        i: "NegativeLag" if lag < 0 else f"lag {_MICROSECOND * lag}{exceeds}"
        for i, lag in zip(rows, lags)
        if not 0 <= lag <= most
    }

    details: dict[str, Any] = {"max_lag_seconds": max_lag.total_seconds()}
    if lags:
        ordered, n = sorted(lags), len(lags)
        # a timedelta halves to the nearest microsecond, a half to the even one
        median = _MICROSECOND * (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
        details["lag_seconds"] = {
            "min": (_MICROSECOND * ordered[0]).total_seconds(),
            "median": median.total_seconds(),
            "max": (_MICROSECOND * ordered[-1]).total_seconds(),
        }
    return rows, failing, details


def _mapping_success(snapshots: Snapshots, fields: Fields, cfg: Config, scope: Scope) -> RowCheck:
    """Fraction of source-present values still present after transformation.

    Rows correspond through the key column declared in both manifests
    (``Snapshots.key_join``). The second target field names the
    transformed column (default: the first).
    """
    key, source_row = snapshots.key_join
    source: DatasetSnapshot = snapshots.source  # type: ignore[assignment]
    src_missing = source.column(fields[0]).missing
    dst_missing = snapshots.transformed.column(fields[-1]).missing  # type: ignore[union-attr]
    key_col = source.column(key)
    keys, render = key_col.values, _render(key_col)
    # a row whose value is absent at source is outside the denominator: the
    # transformation owes nothing for it
    unmapped = {
        i: f"unmapped (key {render(keys[i])})"
        for i in map(source_row.__getitem__, dst_missing)
        if i not in src_missing
    }
    return _eligible(source, None, src_missing), unmapped, {"key_column": key}


def _join_keys(source: DatasetSnapshot | None, transformed: DatasetSnapshot | None) -> KeyJoin:
    """The key column, and for each transformed row the source row with its
    key; raises when the two snapshots cannot be joined."""
    if source is None or transformed is None:
        raise StageMismatch("mapping check needs both source and transformed snapshots")
    if source.manifest.dataset_id != transformed.manifest.dataset_id:
        raise StageMismatch(
            f"snapshots describe different datasets: {source.manifest.dataset_id!r}"
            f" vs {transformed.manifest.dataset_id!r}"
        )
    key = source.manifest.key_column
    if key is None or transformed.manifest.key_column != key:
        raise KeyColumnMissing("both manifests must declare the same key_column")

    src_rows = _key_index(source, key)
    dst_rows = _key_index(transformed, key)
    if src_rows.keys() != dst_rows.keys():
        unmatched_src = sorted(src_rows.keys() - dst_rows.keys())
        unmatched_dst = sorted(dst_rows.keys() - src_rows.keys())
        raise KeyMismatch(
            f"keys only in source: {unmatched_src[:10]}; only in transformed: {unmatched_dst[:10]}"
        )
    return key, list(map(src_rows.__getitem__, dst_rows))  # dst_rows holds keys in row order


def _key_index(snapshot: DatasetSnapshot, key: str) -> dict[str, int]:
    """The row of each key text; raises unless every row has a distinct key."""
    col = snapshot.column(key)
    if absent := col.absent:  # missing, or a typed key that failed coercion
        raise KeyMismatch(f"row {min(absent)} has no key value in {snapshot.manifest.stage.value}")
    texts = list(map(_render(col), col.values))
    index = dict(zip(texts, range(len(texts))))
    if len(index) < len(texts):
        duplicates = sorted(text for text, n in Counter(texts).items() if n > 1)
        raise KeyMismatch(f"duplicate key values: {duplicates[:10]}")
    return index


def _degeneracy_by_actor(
    snapshot: DatasetSnapshot, fields: Fields, cfg: Config, actor_ids: ActorIds
) -> StrataCheck:
    """Per-actor capture screening: flag authors who never record the field
    or always record the same value.

    Rate semantics are inverted relative to the other checks: the rate is
    flagged actors over eligible actors, so lower is better. Strata are
    always present; per-stratum counts are (flagged, eligible) so they sum
    to the overall counts exactly.
    """
    min_records = cfg.get("min_records", 10)
    max_dominant_share = cfg.get("max_dominant_share", Fraction(1))
    col = snapshot.column(fields[0])
    rows_by_actor: dict[str, list[int]] = {}
    for i, sid in enumerate(actor_ids(snapshot)):
        rows_by_actor.setdefault(sid, []).append(i)

    absent, render = col.absent, _render(col)
    strata: dict[str, StratumOutcome] = {}
    failing: Failing = {}
    per_actor_detail: dict[str, Any] = {}
    for sid in sorted(rows_by_actor):
        rows = rows_by_actor[sid]
        if sid == UNATTRIBUTED_STRATUM or len(rows) < min_records:
            strata[sid] = StratumOutcome(0, 0)
            continue
        recorded = [col.values[i] for i in rows if i not in absent]
        flag: DegeneracyFlag | None = None
        if not recorded:
            flag = DegeneracyFlag.NEVER_RECORDS
        else:
            counts = Counter(map(render, recorded))
            top_value, top_count = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
            share = Fraction(top_count, len(recorded))
            if share >= max_dominant_share:
                flag = DegeneracyFlag.ALWAYS_SAME
                per_actor_detail[sid] = {"dominant_value": top_value, "share": str(share)}
        if flag is not None:
            failing.update(dict.fromkeys(rows, f"{sid}: {flag.value}"))
        strata[sid] = StratumOutcome(0, 1) if flag is None else StratumOutcome(1, 1, (flag,))
    details = {"min_records": min_records, "max_dominant_share": str(max_dominant_share)}
    return strata, failing, {**details, "flagged_actors": per_actor_detail}


# --- config and details readers: each returns the value or raises SchemaViolation --

_DURATION_RE = re.compile(r"(\d+)([smhd])")
_DURATION_UNIT = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def parse_duration(text: str | int | float, where: str = "duration") -> timedelta:
    """Parse durations like '30d', '12h', '15m', '45s' (or raw seconds)."""
    try:
        if isinstance(text, (int, float)) and not isinstance(text, bool):
            return timedelta(seconds=float(text))
        if isinstance(text, str) and (m := _DURATION_RE.fullmatch(text.strip())):
            return timedelta(seconds=int(m.group(1)) * _DURATION_UNIT[m.group(2)])
    except (ValueError, OverflowError):  # NaN, beyond timedelta's range, or too many digits
        raise SchemaViolation(f"{where} must be a duration in range, got {text!r}") from None
    raise SchemaViolation(f"{where} must be '<integer><s|m|h|d>' or seconds, got {text!r}")


def _read_bound(value: Any, where: str) -> Any:
    if isinstance(value, (int, float, str, date)) and not isinstance(value, bool) and value == value:
        return value  # the equality test rejects NaN, the one value unequal to itself
    raise SchemaViolation(f"{where} must be a number or an ISO-8601 string, got {value!r}")


def _read_share(value: Any, where: str) -> Fraction:
    if isinstance(value, (int, float, str, Fraction)) and not isinstance(value, bool):
        try:
            share = Fraction(str(value))
            str(share)  # a share the details cannot print, such as 1e5000, raises here
            return share
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaViolation(f"{where} must be a number, got {value!r}")


def _read_seconds(value: Any, where: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    raise SchemaViolation(f"{where} must be a finite float, got {value!r}")


#: Timeliness's ``lag_seconds`` and DegeneracyByActor's ``flagged_actors``.
_read_lags = object_of(dict.fromkeys(("min", "median", "max"), _read_seconds))
_read_flagged = dict_of(object_of(dict.fromkeys(("dominant_value", "share"), read_str)))


# --- the kind table and the evaluator ----------------------------------------

@dataclass(frozen=True)
class KindSpec:
    """How ``run_check`` evaluates one check kind.

    ``label`` is the notation label of the kind's findings; through
    ``LABEL_PARAMETERS`` it names the Kahn et al. 2016 parameter every
    outcome of the kind carries. ``arity`` lists the allowed numbers of
    target fields; ``config`` maps each config key the kind reads to its
    reader, and ``details`` each key its outcomes' details may hold to
    the reader ``CheckOutcome`` checks the value with (none: ``{}``). A
    row kind has ``rows``; DegeneracyByActor has ``strata`` instead. A
    ``paired`` kind reads both snapshots. Row kinds that are not paired
    honour ``subset`` and ``stratify_by_actor``; the others reject them.
    """

    label: str
    arity: tuple[int, ...]
    config: dict[str, Reader]
    details: dict[str, Reader] = field(default_factory=dict)
    rows: Callable[..., RowCheck] | None = None
    strata: Callable[..., StrataCheck] | None = None
    paired: bool = False


CHECK_KINDS: dict[CheckKind, KindSpec] = {
    CheckKind.COMPLETENESS: KindSpec(
        "Completeness", (1,), {}, {"policy_explained": read_bool, "policy_text": read_str}, rows=_completeness
    ),
    CheckKind.CONFORMANCE_VALUE: KindSpec("Conformance", (1,), {}, rows=_conformance_value),
    CheckKind.CONFORMANCE_FORMAT: KindSpec("Conformance", (1,), {}, rows=_conformance_format),
    CheckKind.PLAUSIBILITY_RANGE: KindSpec(
        "Plausibility", (1,), {"min": _read_bound, "max": _read_bound}, dict.fromkeys(("min", "max"), read_str),
        rows=_plausibility_range,
    ),
    CheckKind.PLAUSIBILITY_TEMPORAL: KindSpec("Plausibility", (2,), {}, rows=_plausibility_temporal),
    CheckKind.DEGENERACY_BY_ACTOR: KindSpec(
        "Plausibility", (1,), {"min_records": read_int, "max_dominant_share": _read_share},
        {"min_records": _read_printable_int, "max_dominant_share": read_str, "flagged_actors": _read_flagged},
        strata=_degeneracy_by_actor,
    ),
    CheckKind.TIMELINESS: KindSpec(
        "Timeliness", (2,), {"max_lag": parse_duration}, {"max_lag_seconds": _read_seconds, "lag_seconds": _read_lags},
        rows=_timeliness,
    ),
    CheckKind.MAPPING_SUCCESS: KindSpec(
        "Mapping", (1, 2), {}, {"key_column": read_str}, rows=_mapping_success, paired=True
    ),
}


@dataclass(frozen=True)
class Snapshots:
    """The snapshots a suite runs against, keyed by lifecycle stage. Each
    slot holds only a snapshot at its own stage, else StageMismatch.

    What checks derive from the snapshots rather than from one definition,
    the key join and the per-row actor ids, is built on first use and kept
    for the life of this object, so a suite builds each once.
    """

    source: DatasetSnapshot | None = None
    transformed: DatasetSnapshot | None = None

    def __post_init__(self) -> None:
        for slot, stage in (("source", Stage.SOURCE), ("transformed", Stage.TRANSFORMED)):
            snapshot = getattr(self, slot)
            if snapshot is not None and snapshot.manifest.stage is not stage:
                raise StageMismatch(f"{slot} snapshot is at stage {snapshot.manifest.stage.value}, not {stage.value}")

    def at_stage(self, stage: Stage | None) -> DatasetSnapshot:
        """The snapshot at ``stage``; with no stage, the one snapshot loaded."""
        if stage is None:
            if self.source is not None and self.transformed is not None:
                raise CheckConfigError("check must name a stage when two snapshots are loaded")
            if self.source is None and self.transformed is None:
                raise CheckConfigError("no snapshot is loaded")
            return self.transformed if self.source is None else self.source
        chosen = self.source if stage is Stage.SOURCE else self.transformed
        if chosen is None:
            raise CheckConfigError(f"no snapshot loaded at stage {stage.value}")
        return chosen

    @cached_property
    def key_join(self) -> KeyJoin:
        """The source and transformed snapshots joined on their shared key
        column (see ``_join_keys``). A pair that cannot be joined raises on
        every read, since nothing is cached for it."""
        return _join_keys(self.source, self.transformed)

    def actor_ids(self, snapshot: DatasetSnapshot) -> list[str]:
        """Actor id of every row of ``snapshot``, one of this object's
        snapshots; missing ids map to the unattributed stratum."""
        cache = self._actor_ids_by_snapshot
        if id(snapshot) not in cache:
            cache[id(snapshot)] = _actor_ids(snapshot)
        return cache[id(snapshot)]

    @cached_property
    def _actor_ids_by_snapshot(self) -> dict[int, list[str]]:
        return {}


def run_check(definition: CheckDefinition, snapshots: Snapshots) -> CheckOutcome:
    """Evaluate one definition; configuration problems raise a DqError
    (CheckConfigError, or SchemaViolation for a malformed config value)."""
    kind, fields = definition.kind, definition.target_fields
    spec = CHECK_KINDS[kind]
    if spec.paired:
        target: Any = snapshots
        stage = Stage.TRANSFORMED
    else:
        target = snapshots.at_stage(definition.stage)
        stage = target.manifest.stage
    if len(fields) not in spec.arity:
        counts = " or ".join(str(n) for n in spec.arity)
        raise MissingConfig(f"{kind.value} check must list {counts} target fields, got {len(fields)}")
    scoped = spec.rows is not None and not spec.paired
    if not scoped and (definition.subset is not None or definition.stratify_by_actor):
        raise MissingConfig(f"{kind.value} check takes no subset or stratify_by_actor")
    # absent keys stay absent, for the kind to default or require
    cfg = read_object(definition.config, spec.config, f"{kind.value} config")

    if spec.strata is not None:
        strata, failing, details = spec.strata(target, fields, cfg, snapshots.actor_ids)
        numerator = sum(s.numerator for s in strata.values())
        denominator = sum(s.denominator for s in strata.values())
    else:
        scope = None if definition.subset is None else _subset_rows(target, fields[0], definition.subset)
        rows, failing, details = spec.rows(target, fields, cfg, scope)  # type: ignore[misc]
        numerator, denominator = len(rows) - len(failing), len(rows)
        if definition.stratify_by_actor:
            strata = _stratify(snapshots.actor_ids(target), rows, failing) or None
        else:
            strata = None
    subset = None if definition.subset is None else str(definition.subset)
    return CheckOutcome(
        check_id=definition.id, kind=kind, numerator=numerator, denominator=denominator,
        target_fields=tuple(fields), stage=stage, subset=subset, strata=strata,
        violations=tuple(sorted(failing.items())), details=details,
    )


def run_suite(definitions: list[CheckDefinition], snapshots: Snapshots) -> list[CheckOutcome]:
    """Run every definition; per-check failures become Errored outcomes."""
    outcomes = []
    for definition in definitions:
        try:
            outcomes.append(run_check(definition, snapshots))
        except DqError as e:
            outcomes.append(CheckOutcome(
                check_id=definition.id, kind=definition.kind, target_fields=tuple(definition.target_fields),
                stage=definition.stage, error=f"{type(e).__name__}: {e}",
            ))
    return outcomes


def standard_suite(manifest: DatasetManifest, *, max_lag: timedelta | None = None) -> list[CheckDefinition]:
    """The default per-extract suite: completeness for every field,
    where-required completeness for policy-conditioned fields, conformance
    where configured, and range plausibility where bounded.

    Degeneracy screening is not included: its rate is inverted (lower is
    better), so it is run as an explicit, targeted check. Timeliness joins
    only when a max_lag is supplied.
    """
    stage = manifest.stage
    defs: list[CheckDefinition] = []

    def add(name: str, kind: CheckKind, targets: tuple[str, ...], **extra: Any) -> None:
        defs.append(
            CheckDefinition(
                id=f"{name}@{stage.value}", kind=kind, target_fields=targets, stage=stage, **extra
            )
        )

    for f in manifest.fields:
        add(f"completeness:{f.name}", CheckKind.COMPLETENESS, (f.name,))
        if f.policy_condition is not None:
            add(f"completeness-required:{f.name}", CheckKind.COMPLETENESS, (f.name,), subset=WHERE_REQUIRED)
        if f.allowed_values is not None:
            add(f"conformance-value:{f.name}", CheckKind.CONFORMANCE_VALUE, (f.name,))
        elif f.format_pattern is not None or f.semantic_type in COERCERS:
            add(f"conformance-format:{f.name}", CheckKind.CONFORMANCE_FORMAT, (f.name,))
        if f.numeric_range is not None:
            bounds = {"min": f.numeric_range[0], "max": f.numeric_range[1]}
            add(f"plausibility-range:{f.name}", CheckKind.PLAUSIBILITY_RANGE, (f.name,), config=bounds)
    record, available = manifest.record_timestamp_column, manifest.availability_timestamp_column
    if max_lag is not None and record and available:
        lag = {"max_lag": max_lag.total_seconds()}
        add("timeliness", CheckKind.TIMELINESS, (record, available), config=lag)
    return defs


def mapping_suite(source: DatasetManifest, transformed: DatasetManifest) -> list[CheckDefinition]:
    """Mapping-success checks for every non-key field present at both stages."""
    shared = {f.name for f in source.fields} & {f.name for f in transformed.fields}
    shared.discard(source.key_column or "")
    return [
        CheckDefinition(
            id=f"mapping:{name}",
            kind=CheckKind.MAPPING_SUCCESS,
            target_fields=(name, name),
        )
        for name in sorted(shared)
    ]


# --- suite/outcome (de)serialization ---------------------------------------

def _read_subset(value: Any, where: str) -> Predicate | str:
    if value == WHERE_REQUIRED:
        return value
    if isinstance(value, str):
        raise SchemaViolation(f"{where} must be {WHERE_REQUIRED!r} or {{field, values}}")
    return read_predicate(value, where)


_DEFINITION_READERS: dict[str, Reader] = {
    "id": non_empty(read_str),
    "kind": read_enum(CheckKind),
    "target_fields": list_of(read_str),
    "subset": nullable(_read_subset),
    "stratify_by_actor": read_bool,
    "stage": nullable(read_enum(Stage)),
    "config": read_dict,  # read again by the kind's readers, as run_check reads it
}


def _read_definition(value: Any, where: str) -> CheckDefinition:
    definition = CheckDefinition(**read_object(value, _DEFINITION_READERS, where, ("id", "kind", "target_fields")))
    read_object(definition.config, CHECK_KINDS[definition.kind].config, f"{where}.config")
    return definition


def load_suite(text: str | bytes) -> list[CheckDefinition]:
    """Load a check-suite document: a JSON list of check definitions with
    distinct ids."""
    defs = list_of(_read_definition, list)(load_json(text, "suite"), "suite")
    seen_ids: set[str] = set()
    for i, definition in enumerate(defs):
        if definition.id in seen_ids:
            raise SchemaViolation(f"suite[{i}].id must be unique, got {definition.id!r} again")
        seen_ids.add(definition.id)
    return defs


def _outcome_fields(outcome: CheckOutcome) -> dict[str, Any]:
    """Every key ``outcome_to_dict`` writes but ``"violations"``."""
    return {
        "check_id": outcome.check_id,
        "kind": outcome.kind.value,
        "parameter": outcome.parameter.name if outcome.parameter else None,
        "status": outcome.status.value,
        "numerator": outcome.numerator,
        "denominator": outcome.denominator,
        "rate": str(outcome.rate) if outcome.rate is not None else None,
        "target_fields": list(outcome.target_fields),
        "stage": outcome.stage.value if outcome.stage else None,
        "subset": outcome.subset,
        "details": outcome.details,
        "error": outcome.error,
        "strata": None if outcome.strata is None else {
            sid: {"numerator": s.numerator, "denominator": s.denominator, "flags": [f.value for f in s.flags]}
            for sid, s in outcome.strata.items()
        },
    }


def outcome_to_dict(outcome: CheckOutcome) -> dict[str, Any]:
    """The outcome as a JSON document object, its violations as
    ``[row, reason]`` lists."""
    return {**_outcome_fields(outcome), "violations": [list(v) for v in outcome.violations]}


def _as_is(value: Any, where: str) -> Any:
    """The value as JSON decoded it, for ``CheckOutcome`` to judge."""
    return value


def _tuples(value: Any, where: str) -> Any:
    """A list as a tuple, and each list in it too, as ``CheckOutcome``
    holds target fields and violations; any other value as it is."""
    return tuple(tuple(v) if type(v) is list else v for v in value) if type(value) is list else value


_STRATUM_READERS: dict[str, Reader] = {
    **dict.fromkeys(("numerator", "denominator"), _as_is), "flags": list_of(read_enum(DegeneracyFlag))
}
_read_strata = dict_of(object_of(_STRATUM_READERS, StratumOutcome))


#: The keys ``outcome_to_dict`` writes from what an outcome derives.
_DERIVED = ("parameter", "status", "rate")

#: The reader of each key ``outcome_to_dict`` writes. It only decodes:
#: ``CheckOutcome`` judges the values; the derived keys are read as written.
_OUTCOME_READERS: dict[str, Reader] = {
    **dict.fromkeys(("check_id", "numerator", "denominator", "subset", "details", "error", *_DERIVED), _as_is),
    "kind": read_enum(CheckKind),
    "stage": nullable(read_enum(Stage)),
    "strata": nullable(_read_strata),
    **dict.fromkeys(("target_fields", "violations"), _tuples),
}


def outcome_from_dict(doc: Any, where: str) -> CheckOutcome:
    """The outcome ``outcome_to_dict`` wrote as ``doc``, at path ``where``:
    every key is required, so that no count reads as a default. A broken
    ``CheckOutcome`` rule or derived key raises SchemaViolation at its path."""
    attributes = read_object(doc, _OUTCOME_READERS, where, tuple(_OUTCOME_READERS))
    written = {key: attributes.pop(key) for key in _DERIVED}
    try:
        outcome = CheckOutcome(**attributes)
    except SchemaViolation as e:
        raise SchemaViolation(f"{where}.{e}") from None
    derived = _outcome_fields(outcome)
    for key, value in written.items():
        if value != derived[key]:
            raise SchemaViolation(f"{where}.{key} must be {derived[key]!r}, got {value!r}")
    return outcome


#: What ``json.dumps(indent=2)`` writes in an outcomes document between a
#: violation's row and its reason, and between two violations.
_ROW_REASON = ",\n" + " " * 10
_NEXT_VIOLATION = "\n" + " " * 8 + "],\n" + " " * 8 + "[\n" + " " * 10


def _violations_json(violations: tuple[tuple[int, str], ...]) -> tuple[str, ...]:
    """The pieces of the ``[row, reason]`` pairs of one outcome as
    ``json.dumps(indent=2)`` writes them in an outcomes document.
    ``CheckOutcome`` holds int rows and str reasons, so a row prints as
    JSON writes it, and each distinct reason is encoded once, by the
    function ``json.dumps`` encodes a string with."""
    if not violations:
        return ("[]",)
    encoded = {reason: encode_basestring_ascii(reason) for reason in {reason for _, reason in violations}}
    body = _NEXT_VIOLATION.join([f"{row}{_ROW_REASON}{encoded[reason]}" for row, reason in violations])
    return f"[\n{' ' * 8}[\n{' ' * 10}", body, f"\n{' ' * 8}]\n{' ' * 6}]"


def outcomes_to_json(outcomes: list[CheckOutcome]) -> str:
    """The outcomes document, byte for byte ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` of ``{"schema_version": "1", "outcomes":
    [outcome_to_dict(o), ...]}``. ``json.dumps`` writes each outcome but its
    violations, ``_violations_json`` writes those, and one join over all the
    pieces makes the document, so that it is held once while it is written."""
    pieces = ['{\n  "outcomes": [']
    separator = "\n    "
    for outcome in outcomes:
        # "violations" sorts after every other key, so it closes the object,
        # and the object sits two levels (4 spaces) deep in the document
        rest = json.dumps(_outcome_fields(outcome), indent=2, sort_keys=True)[:-2].replace("\n", "\n    ")
        pieces += (separator, rest, ',\n      "violations": ', *_violations_json(outcome.violations), "\n    }")
        separator = ",\n    "
    pieces += ("\n  ]" if outcomes else "]", ',\n  "schema_version": "1"\n}\n')
    return "".join(pieces)


def _read_schema_version(value: Any, where: str) -> str:
    if value != "1":
        raise SchemaViolation(f"{where} must be '1'")
    return value


def outcomes_from_json(text: str | bytes) -> list[CheckOutcome]:
    """The outcomes of a document ``outcomes_to_json`` wrote."""
    readers = {"schema_version": _read_schema_version, "outcomes": list_of(outcome_from_dict, list)}
    doc = load_json(text, "outcomes document")
    return read_object(doc, readers, "outcomes document", tuple(readers))["outcomes"]

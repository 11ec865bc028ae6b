"""The texts a Timestamp value renders to wherever a check reads it as text.

A Timestamp cell is normalized to naive UTC when loaded, and every check
that prints it, or matches it against a text, reads it as ``str()`` of
that naive ``datetime``: ``YYYY-MM-DD HH:MM:SS``, with ``.ffffff`` only
when the microseconds are not zero. These tests pin those texts on one
two-row extract: an aware value, ``2024-01-01T00:00:00+01:00``, which is
``2023-12-31 23:00:00`` in UTC, and a fractional one,
``2024-01-01T00:00:00.5``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from dqlocus.assess import (
    UNATTRIBUTED_STRATUM,
    CheckDefinition,
    CheckKind,
    DegeneracyFlag,
    Snapshots,
    StratumOutcome,
    run_check,
    run_suite,
)
from dqlocus.ingest import Predicate, load_dataset, load_manifest

AWARE, FRACTIONAL = "2024-01-01T00:00:00+01:00", "2024-01-01T00:00:00.5"
AWARE_TEXT, FRACTIONAL_TEXT = "2023-12-31 23:00:00", "2024-01-01 00:00:00.500000"


def field(name, semantic_type, **extra):
    return {"name": name, "semantic_type": semantic_type, "entry_mode": "AutoGenerated",
            "generating_actor": "EHRSystem", **extra}


def snapshot(columns, *, stage="SourceExtract", fields=None, **manifest):
    """A snapshot of ``columns`` (name to cells, in order): each column a
    Timestamp unless ``fields`` gives its spec."""
    fields = fields or {}
    doc = {"dataset_id": "ts", "stage": stage, **manifest,
           "fields": [fields.get(name) or field(name, "Timestamp") for name in columns]}
    rows = zip(*columns.values(), strict=True)
    text = ",".join(columns) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    return load_dataset(text, load_manifest(json.dumps(doc)))


def check(snap, kind, *fields, transformed=None, **extra):
    definition = CheckDefinition(id="t", kind=kind, target_fields=fields, **extra)
    return run_check(definition, Snapshots(source=snap, transformed=transformed))


#: The two-row extract: both values in ``ts``, with a Date column and a
#: second Timestamp column beside them.
TWO_ROWS = {
    "ts": [AWARE, FRACTIONAL],
    "day": ["2024-01-01", "2024-01-01"],
    "available_at": ["2023-12-30T23:00:00", "2024-01-01T01:00:01"],
}
TWO_ROW_FIELDS = {"day": field("day", "Date")}


@pytest.fixture
def two_rows():
    return snapshot(TWO_ROWS, fields=TWO_ROW_FIELDS)


def test_a_range_violation_prints_the_naive_utc_value(two_rows):
    outcome = check(two_rows, CheckKind.PLAUSIBILITY_RANGE, "ts",
                    config={"min": "2024-01-01T00:00:00", "max": "2024-01-02T00:00:00"})
    assert (outcome.numerator, outcome.denominator) == (1, 2)
    assert outcome.violations == ((0, f"out of range: {AWARE_TEXT}"),)


def test_a_range_bound_with_an_offset_is_normalized_as_a_cell_is(two_rows):
    outcome = check(two_rows, CheckKind.PLAUSIBILITY_RANGE, "ts",
                    config={"min": "2024-01-01T00:00:00+01:00", "max": "2024-01-01T00:00:00.5"})
    assert (outcome.numerator, outcome.denominator, outcome.violations) == (2, 2, ())


def test_timeliness_prints_each_lag_as_a_timedelta(two_rows):
    outcome = check(two_rows, CheckKind.TIMELINESS, "ts", "available_at", config={"max_lag": "1h"})
    assert outcome.violations == ((0, "NegativeLag"), (1, "lag 1:00:00.500000 exceeds 1:00:00"))
    assert outcome.details == {
        "max_lag_seconds": 3600.0,
        "lag_seconds": {"min": -86400.0, "median": -41399.75, "max": 3600.5},
    }


@pytest.mark.parametrize("available, median", [
    (["2024-01-01T00:00:00.000001", "2024-01-01T00:00:00.000002"], 2e-06),  # 1.5 µs rounds up to even
    (["2024-01-01T00:00:00", "2024-01-01T00:00:00.000001"], 0.0),  # 0.5 µs rounds down to even
    (["2024-01-01T00:00:00.000003", "2024-01-01T00:00:00.000004"], 4e-06),  # 3.5 µs rounds up to even
])
def test_the_median_lag_rounds_half_to_even_microseconds(available, median):
    snap = snapshot({"recorded_at": ["2024-01-01T00:00:00"] * 2, "available_at": available})
    outcome = check(snap, CheckKind.TIMELINESS, "recorded_at", "available_at", config={"max_lag": "1h"})
    assert outcome.details["lag_seconds"]["median"] == median


def test_a_date_compares_as_its_midnight_with_a_timestamp(two_rows):
    outcome = check(two_rows, CheckKind.PLAUSIBILITY_TEMPORAL, "day", "ts")
    assert outcome.violations == ((0, "day after ts"),)
    later = check(two_rows, CheckKind.PLAUSIBILITY_TEMPORAL, "ts", "day")
    assert later.violations == ((1, "ts after day"),)


def test_the_dominant_value_prints_the_naive_utc_value():
    snap = snapshot({**TWO_ROWS, "actor": ["a", "a"]},
                    fields={**TWO_ROW_FIELDS, "actor": field("actor", "Code")}, actor_id_column="actor")
    outcome = check(snap, CheckKind.DEGENERACY_BY_ACTOR, "ts",
                    config={"min_records": 1, "max_dominant_share": 0.5})
    assert outcome.strata == {"a": StratumOutcome(1, 1, (DegeneracyFlag.ALWAYS_SAME,))}
    assert outcome.details["flagged_actors"] == {"a": {"dominant_value": FRACTIONAL_TEXT, "share": "1/2"}}


def test_a_timestamp_actor_column_names_each_stratum_by_its_text():
    snap = snapshot(TWO_ROWS, fields=TWO_ROW_FIELDS, actor_id_column="ts")
    outcome = check(snap, CheckKind.COMPLETENESS, "day", stratify_by_actor=True)
    assert outcome.strata == {AWARE_TEXT: StratumOutcome(1, 1), FRACTIONAL_TEXT: StratumOutcome(1, 1)}


def test_an_absent_timestamp_actor_is_unattributed_not_the_epoch():
    snap = snapshot({"ts": [AWARE, "", "soon", "1970-01-01T00:00:00"], "day": ["2024-01-01"] * 4},
                    fields=TWO_ROW_FIELDS, actor_id_column="ts")
    outcome = check(snap, CheckKind.COMPLETENESS, "day", stratify_by_actor=True)
    assert outcome.strata == {
        "1970-01-01 00:00:00": StratumOutcome(1, 1),
        AWARE_TEXT: StratumOutcome(1, 1),
        UNATTRIBUTED_STRATUM: StratumOutcome(2, 2),
    }


def test_a_predicate_matches_the_naive_utc_text(two_rows):
    outcome = check(two_rows, CheckKind.COMPLETENESS, "day", subset=Predicate("ts", frozenset({AWARE_TEXT})))
    assert (outcome.numerator, outcome.denominator, outcome.subset) == (1, 1, f"ts = {AWARE_TEXT}")
    fraction = check(two_rows, CheckKind.COMPLETENESS, "day", subset=Predicate("ts", frozenset({FRACTIONAL_TEXT})))
    assert fraction.denominator == 1
    assert check(two_rows, CheckKind.COMPLETENESS, "day", subset=Predicate("ts", frozenset({AWARE}))).denominator == 0


def test_a_predicate_never_matches_an_absent_timestamp():
    snap = snapshot({"ts": ["", "soon", "1970-01-01T00:00:00"], "day": ["2024-01-01"] * 3}, fields=TWO_ROW_FIELDS)
    outcome = check(snap, CheckKind.COMPLETENESS, "day", subset=Predicate("ts", frozenset({"1970-01-01 00:00:00"})))
    assert outcome.denominator == 1


def test_the_value_check_reads_the_naive_utc_text():
    spec = field("ts", "Timestamp", allowed_values=[FRACTIONAL_TEXT])
    snap = snapshot({"ts": [AWARE, FRACTIONAL, "soon"]}, fields={"ts": spec})
    outcome = check(snap, CheckKind.CONFORMANCE_VALUE, "ts")
    assert outcome.violations == ((0, f"value not allowed: {AWARE_TEXT}"), (2, "malformed"))


KEYED = {"key_column": "ts"}


def paired(source_keys, transformed_keys, transformed_code):
    source = snapshot({"ts": source_keys, "code": ["A"] * len(source_keys)},
                      fields={"code": field("code", "Code")}, **KEYED)
    transformed = snapshot({"ts": transformed_keys, "code": transformed_code}, stage="TransformedExtract",
                           fields={"code": field("code", "Code")}, **KEYED)
    return Snapshots(source=source, transformed=transformed)


def mapping(snapshots):
    definition = CheckDefinition(id="m", kind=CheckKind.MAPPING_SUCCESS, target_fields=("code",))
    return run_suite([definition], snapshots)[0]


def test_a_timestamp_key_joins_and_prints_by_its_naive_utc_text():
    # the same two instants, written another way in the transformed extract
    outcome = mapping(paired([AWARE, FRACTIONAL], ["2024-01-01T00:00:00.500", "2023-12-31T23:00:00"], ["", "A"]))
    assert (outcome.numerator, outcome.denominator) == (1, 2)
    assert outcome.violations == ((1, f"unmapped (key {FRACTIONAL_TEXT})"),)


def test_unmatched_timestamp_keys_are_listed_by_their_texts():
    outcome = mapping(paired([AWARE, FRACTIONAL], [AWARE, "2024-01-01T00:00:00.25"], ["A", "A"]))
    assert outcome.error == (
        f"KeyMismatch: keys only in source: ['{FRACTIONAL_TEXT}'];"
        " only in transformed: ['2024-01-01 00:00:00.250000']"
    )


def test_duplicate_timestamp_keys_are_listed_by_their_texts():
    outcome = mapping(paired([AWARE, "2023-12-31T23:00:00"], [AWARE, FRACTIONAL], ["A", "A"]))
    assert outcome.error == f"KeyMismatch: duplicate key values: ['{AWARE_TEXT}']"


@pytest.mark.parametrize("absent", ["", "soon"])
def test_an_absent_timestamp_key_is_a_key_mismatch(absent):
    outcome = mapping(paired([AWARE, FRACTIONAL], [AWARE, absent], ["A", "A"]))
    assert outcome.error == "KeyMismatch: row 1 has no key value in TransformedExtract"


def test_the_share_of_the_dominant_value_counts_texts():
    """Two cells that print alike are one value to degeneracy screening."""
    snap = snapshot({"ts": [AWARE, "2023-12-31T23:00:00", FRACTIONAL], "actor": ["a"] * 3},
                    fields={"actor": field("actor", "Code")}, actor_id_column="actor")
    outcome = check(snap, CheckKind.DEGENERACY_BY_ACTOR, "ts", config={"min_records": 1, "max_dominant_share": 0.6})
    assert outcome.details["flagged_actors"] == {"a": {"dominant_value": AWARE_TEXT, "share": str(Fraction(2, 3))}}

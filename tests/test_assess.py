from __future__ import annotations

import csv
import io
import json
import re
import statistics
import sys
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dqlocus.assess import (
    CHECK_KINDS,
    CheckDefinition,
    CheckKind,
    CheckStatus,
    DegeneracyFlag,
    Snapshots,
    UNATTRIBUTED_STRATUM,
    WHERE_REQUIRED,
    load_suite,
    mapping_suite,
    outcomes_from_json,
    outcomes_to_json,
    parse_duration,
    run_check,
    run_suite,
    standard_suite,
)
from dqlocus.errors import (
    InvalidRange,
    KeyMismatch,
    MissingConfig,
    NoActorColumn,
    NonNumericField,
    SchemaViolation,
    StageMismatch,
    UnknownField,
)
from dqlocus.ingest import Predicate, Stage, load_dataset, load_manifest
from dqlocus.taxonomy import LABEL_PARAMETERS


def make_snapshot(field_rows: dict[str, list[str]], *, manifest_extra: dict | None = None,
                  fields_extra: list[dict] | None = None, stage: str = "SourceExtract"):
    names = list(field_rows)
    count = len(next(iter(field_rows.values())))
    default_specs = {
        "record_id": {"semantic_type": "Code", "entry_mode": "AutoGenerated", "generating_actor": "EHRSystem"},
        "actor_id": {"semantic_type": "Code", "entry_mode": "AutoGenerated", "generating_actor": "EHRSystem"},
        "billable": {"semantic_type": "Category", "entry_mode": "AutoGenerated", "generating_actor": "EHRSystem"},
        "code": {
            "semantic_type": "Code",
            "entry_mode": "EhrEnforced",
            "generating_actor": "Clinician",
            "allowed_values": ["A", "B", "C", "D", "E"],
        },
        "side": {"semantic_type": "Category", "entry_mode": "FreeEntry", "generating_actor": "Clinician"},
        "age": {"semantic_type": "Number", "entry_mode": "FreeEntry", "generating_actor": "Clinician"},
        "injury_date": {"semantic_type": "Date", "entry_mode": "FreeEntry", "generating_actor": "Clinician"},
        "visit_date": {"semantic_type": "Date", "entry_mode": "AutoGenerated", "generating_actor": "EHRSystem"},
        "recorded_at": {"semantic_type": "Timestamp", "entry_mode": "AutoGenerated", "generating_actor": "EHRSystem"},
        "available_at": {"semantic_type": "Timestamp", "entry_mode": "AutoGenerated", "generating_actor": "EHRSystem"},
    }
    fields = []
    for name in names:
        spec = {"name": name}
        spec.update(default_specs.get(name, {"semantic_type": "Text", "entry_mode": "FreeEntry", "generating_actor": "Clinician"}))
        fields.append(spec)
    for extra in fields_extra or []:
        for spec in fields:
            if spec["name"] == extra["name"]:
                spec.update(extra)
    doc = {"dataset_id": "t", "stage": stage, "fields": fields}
    doc.update(manifest_extra or {})
    manifest = load_manifest(json.dumps(doc))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for i in range(count):
        writer.writerow([field_rows[n][i] for n in names])
    return load_dataset(buffer.getvalue(), manifest)


def check(snapshot, kind, *fields, subset=None, stratify=False, transformed=None, **config):
    """Evaluate one check of ``kind`` over ``fields`` through ``run_check``."""
    definition = CheckDefinition(
        id="t", kind=kind, target_fields=fields, subset=subset, stratify_by_actor=stratify,
        config=config,
    )
    return run_check(definition, Snapshots(source=snapshot, transformed=transformed))


def test_completeness_counts_missing():
    snapshot = make_snapshot({"code": ["A"] * 9 + [""]})
    outcome = check(snapshot, CheckKind.COMPLETENESS, "code")
    assert (outcome.numerator, outcome.denominator) == (9, 10)
    assert outcome.rate == Fraction(9, 10)


def test_completeness_fifteen_percent_missing():
    values = ["A"] * 85 + [""] * 15
    snapshot = make_snapshot({"code": values})
    outcome = check(snapshot, CheckKind.COMPLETENESS, "code")
    assert outcome.rate == Fraction(85, 100)


def test_completeness_where_required_ignores_non_required_gaps():
    snapshot = make_snapshot(
        {
            "billable": ["Y"] * 8 + ["N"] * 4,
            "code": ["A"] * 8 + [""] * 3 + ["B"],
        },
        fields_extra=[
            {"name": "code", "required": True, "policy_condition": {"field": "billable", "values": ["Y"]}}
        ],
    )
    full = check(snapshot, CheckKind.COMPLETENESS, "code")
    assert full.rate == Fraction(9, 12)
    assert full.details["policy_explained"] is True
    assert full.details["policy_text"] == "states code required only where billable = Y"
    required_only = check(snapshot, CheckKind.COMPLETENESS, "code", subset=WHERE_REQUIRED)
    assert required_only.rate == Fraction(1)


def test_completeness_policy_not_explained_when_required_rows_missing():
    snapshot = make_snapshot(
        {
            "billable": ["Y", "Y", "N"],
            "code": ["A", "", ""],
        },
        fields_extra=[
            {"name": "code", "required": True, "policy_condition": {"field": "billable", "values": ["Y"]}}
        ],
    )
    outcome = check(snapshot, CheckKind.COMPLETENESS, "code")
    assert outcome.details["policy_explained"] is False


def test_completeness_unknown_field():
    snapshot = make_snapshot({"code": ["A"]})
    with pytest.raises(UnknownField):
        check(snapshot, CheckKind.COMPLETENESS, "nope")


def test_completeness_empty_denominator_not_assessable():
    snapshot = make_snapshot({"billable": ["N"], "code": [""]},
                             fields_extra=[{"name": "code", "policy_condition": {"field": "billable", "values": ["Y"]}}])
    outcome = check(snapshot, CheckKind.COMPLETENESS, "code", subset=WHERE_REQUIRED)
    assert outcome.status is CheckStatus.NOT_ASSESSABLE
    assert outcome.rate is None


def test_conformance_value_counts_out_of_set():
    snapshot = make_snapshot({"code": ["A", "B", "C", "D", "Z"]})
    outcome = check(snapshot, CheckKind.CONFORMANCE_VALUE, "code")
    assert (outcome.numerator, outcome.denominator) == (4, 5)


def test_conformance_format_counts_coercion_failures():
    values = ["2024-01-0" + str(i + 1) for i in range(6)] + ["bad", "worse", "", ""]
    snapshot = make_snapshot({"injury_date": values})
    outcome = check(snapshot, CheckKind.CONFORMANCE_FORMAT, "injury_date")
    assert (outcome.numerator, outcome.denominator) == (6, 8)
    assert len(outcome.violations) == 2


def test_conformance_all_missing_not_assessable():
    snapshot = make_snapshot({"code": ["", "", ""]})
    outcome = check(snapshot, CheckKind.CONFORMANCE_VALUE, "code")
    assert outcome.status is CheckStatus.NOT_ASSESSABLE


def test_conformance_value_requires_allowed_values():
    snapshot = make_snapshot({"side": ["Left"]})
    with pytest.raises(MissingConfig):
        check(snapshot, CheckKind.CONFORMANCE_VALUE, "side")


def test_plausibility_range_inclusive_bounds():
    snapshot = make_snapshot({"age": ["30", "45", "212"]})
    outcome = check(snapshot, CheckKind.PLAUSIBILITY_RANGE, "age", min=0, max=120)
    assert (outcome.numerator, outcome.denominator) == (2, 3)
    assert [row for row, _ in outcome.violations] == [2]
    at_boundary = make_snapshot({"age": ["0", "0", "0"]})
    assert check(at_boundary, CheckKind.PLAUSIBILITY_RANGE, "age", min=0, max=120).rate == Fraction(1)


def test_plausibility_range_invalid():
    snapshot = make_snapshot({"age": ["30"]})
    with pytest.raises(InvalidRange):
        check(snapshot, CheckKind.PLAUSIBILITY_RANGE, "age", min=120, max=0)


def test_plausibility_range_bounds_are_read_as_cells_are():
    snapshot = make_snapshot({"recorded_at": ["2024-01-01T00:00:00"]})
    suite = load_suite(json.dumps([{
        "id": "edge", "kind": "PlausibilityRange", "target_fields": ["recorded_at"],
        "config": {"min": "0001-01-01T00:00:00+01:00", "max": "2030-01-01T00:00:00"},
    }]))
    outcome, = run_suite(suite, Snapshots(source=snapshot))
    assert outcome.status is CheckStatus.ERRORED
    assert outcome.error == "InvalidRange: bound '0001-01-01T00:00:00+01:00' does not fit a Timestamp field"
    # an aware bound given in code is normalized to naive UTC, as cells are
    one_am = datetime(2024, 1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
    aware = check(snapshot, CheckKind.PLAUSIBILITY_RANGE, "recorded_at", min=one_am, max=datetime(2030, 1, 1))
    assert (aware.numerator, aware.denominator) == (1, 1)


def test_plausibility_range_non_numeric_field():
    snapshot = make_snapshot({"side": ["Left"]})
    with pytest.raises(NonNumericField):
        check(snapshot, CheckKind.PLAUSIBILITY_RANGE, "side", min=0, max=1)


def test_plausibility_temporal_ordering():
    injuries = [f"2024-01-0{i + 1}" for i in range(9)] + ["2024-02-10"]
    visits = [f"2024-01-0{i + 2}" for i in range(8)] + ["2024-01-09", "2024-02-01"]
    snapshot = make_snapshot({"injury_date": injuries, "visit_date": visits})
    outcome = check(snapshot, CheckKind.PLAUSIBILITY_TEMPORAL, "injury_date", "visit_date")
    assert (outcome.numerator, outcome.denominator) == (9, 10)


def test_plausibility_temporal_missing_excluded_and_equal_ok():
    snapshot = make_snapshot(
        {"injury_date": ["2024-01-05", "2024-01-05"], "visit_date": ["", "2024-01-05"]}
    )
    outcome = check(snapshot, CheckKind.PLAUSIBILITY_TEMPORAL, "injury_date", "visit_date")
    assert (outcome.numerator, outcome.denominator) == (1, 1)


def test_degeneracy_flags_always_same_and_never_records():
    rows_a = [("a1", "Left")] * 50
    rows_b = [("b1", "Left"), ("b1", "Right")] * 25
    rows_c = [("c1", "")] * 40
    actor, side = zip(*(rows_a + rows_b + rows_c))
    snapshot = make_snapshot(
        {"actor_id": list(actor), "side": list(side)},
        manifest_extra={"actor_id_column": "actor_id"},
    )
    outcome = check(snapshot, CheckKind.DEGENERACY_BY_ACTOR, "side")
    flags = {sid: s.flags for sid, s in outcome.strata.items() if s.flags}
    assert flags == {
        "a1": (DegeneracyFlag.ALWAYS_SAME,),
        "c1": (DegeneracyFlag.NEVER_RECORDS,),
    }
    assert outcome.rate == Fraction(2, 3)


def test_degeneracy_min_records_threshold():
    rows = [("tiny", "Left")] * 2 + [("big", "Left"), ("big", "Right")] * 10
    actor, side = zip(*rows)
    snapshot = make_snapshot(
        {"actor_id": list(actor), "side": list(side)},
        manifest_extra={"actor_id_column": "actor_id"},
    )
    outcome = check(snapshot, CheckKind.DEGENERACY_BY_ACTOR, "side", min_records=10)
    assert outcome.strata["tiny"].denominator == 0
    assert outcome.rate == Fraction(0, 1)


def test_degeneracy_requires_actor_column():
    snapshot = make_snapshot({"side": ["Left"]})
    with pytest.raises(NoActorColumn):
        check(snapshot, CheckKind.DEGENERACY_BY_ACTOR, "side")


TIMESTAMPS = ("recorded_at", "available_at")


def timeliness_snapshot():
    recorded = ["2024-01-01T00:00:00"] * 3
    available = ["2024-01-01T01:00:00", "2024-01-01T02:00:00", "2024-02-10T00:00:00"]
    return make_snapshot(
        {"recorded_at": recorded, "available_at": available},
        manifest_extra={
            "record_timestamp_column": "recorded_at",
            "availability_timestamp_column": "available_at",
        },
    )


def test_timeliness_threshold():
    snapshot = timeliness_snapshot()
    outcome = check(snapshot, CheckKind.TIMELINESS, *TIMESTAMPS, max_lag="30d")
    assert (outcome.numerator, outcome.denominator) == (2, 3)
    tight = check(snapshot, CheckKind.TIMELINESS, *TIMESTAMPS, max_lag="1h")
    assert (tight.numerator, tight.denominator) == (1, 3)


def test_timeliness_negative_lag_is_violation():
    snapshot = make_snapshot(
        {"recorded_at": ["2024-01-02T00:00:00"], "available_at": ["2024-01-01T00:00:00"]},
        manifest_extra={
            "record_timestamp_column": "recorded_at",
            "availability_timestamp_column": "available_at",
        },
    )
    outcome = check(snapshot, CheckKind.TIMELINESS, *TIMESTAMPS, max_lag="30d")
    assert [reason for _, reason in outcome.violations] == ["NegativeLag"]
    assert outcome.numerator == 0


@pytest.mark.parametrize("seconds", [[5], [2, 1], [3, 9, 1], [4, 1, 8, 3], [7, 7, 1, 2, 30]])
def test_timeliness_median_lag_is_the_middle_lag_or_the_mean_of_the_two(seconds):
    snapshot = make_snapshot(
        {"recorded_at": ["2024-01-01T00:00:00"] * len(seconds),
         "available_at": [f"2024-01-01T00:00:{s:02d}" for s in seconds]},
    )
    outcome = check(snapshot, CheckKind.TIMELINESS, *TIMESTAMPS, max_lag="1d")
    assert outcome.details["lag_seconds"]["median"] == statistics.median(seconds)


def test_timeliness_requires_max_lag():
    with pytest.raises(MissingConfig):
        check(timeliness_snapshot(), CheckKind.TIMELINESS, *TIMESTAMPS)


def paired_snapshots(source_codes: list[str], transformed_codes: list[str]):
    n = len(source_codes)
    ids = [f"r{i}" for i in range(n)]
    source = make_snapshot(
        {"record_id": ids, "code": source_codes},
        manifest_extra={"key_column": "record_id"},
    )
    transformed = make_snapshot(
        {"record_id": ids, "code": transformed_codes},
        manifest_extra={"key_column": "record_id"},
        stage="TransformedExtract",
    )
    return source, transformed


def test_mapping_success_92_of_100():
    source_codes = ["A"] * 100
    transformed_codes = ["A"] * 92 + [""] * 8
    source, transformed = paired_snapshots(source_codes, transformed_codes)
    outcome = check(source, CheckKind.MAPPING_SUCCESS, "code", transformed=transformed)
    assert outcome.rate == Fraction(92, 100)
    assert outcome.parameter is not None and outcome.parameter.name == "Interoperability"


def test_mapping_identity_transform_full_rate():
    source, transformed = paired_snapshots(["A", "B"], ["A", "B"])
    assert check(source, CheckKind.MAPPING_SUCCESS, "code", transformed=transformed).rate == Fraction(1)


def test_mapping_source_missing_excluded():
    source, transformed = paired_snapshots(["A", ""], ["A", ""])
    outcome = check(source, CheckKind.MAPPING_SUCCESS, "code", transformed=transformed)
    assert (outcome.numerator, outcome.denominator) == (1, 1)


def test_mapping_stage_mismatch():
    source, _ = paired_snapshots(["A"], ["A"])
    with pytest.raises(StageMismatch):
        check(source, CheckKind.MAPPING_SUCCESS, "code", transformed=source)


@pytest.mark.parametrize("slot, stage, error", [
    ("source", "TransformedExtract", "source snapshot is at stage TransformedExtract, not SourceExtract"),
    ("transformed", "SourceExtract", "transformed snapshot is at stage SourceExtract, not TransformedExtract"),
])
def test_snapshots_holds_a_snapshot_only_in_its_own_stages_slot(slot, stage, error):
    with pytest.raises(StageMismatch, match=f"^{re.escape(error)}$"):
        Snapshots(**{slot: keyed(stage)})
    # the other slot, holding a snapshot at its own stage, changes nothing
    with pytest.raises(StageMismatch, match=f"^{re.escape(error)}$"):
        Snapshots(**{slot: keyed(stage), ("transformed" if slot == "source" else "source"): keyed(stage)})


@pytest.mark.parametrize("slots, error", [
    ({"source": 5}, "source must be a DatasetSnapshot or None, got 5"),
    ({"transformed": "snapshot"}, "transformed must be a DatasetSnapshot or None, got 'snapshot'"),
], ids=["int-source", "str-transformed"])
def test_snapshots_holds_a_snapshot_or_none_in_each_slot(slots, error):
    with pytest.raises(SchemaViolation, match=f"^{re.escape(error)}$"):
        Snapshots(**slots)


@pytest.mark.parametrize("stage, error", [
    (None, None),
    (Stage.TRANSFORMED, None),
    (Stage.SOURCE, "MissingConfig: MappingSuccess check takes no stage but TransformedExtract, got SourceExtract"),
], ids=["no-stage", "transformed", "source"])
def test_a_paired_check_takes_no_stage_but_transformed(stage, error):
    """A MappingSuccess check outcome sits at TransformedExtract, so a
    definition that names another stage is errored, not run there."""
    source, transformed = paired_snapshots(["A", "B"], ["A", ""])
    definition = CheckDefinition("m", CheckKind.MAPPING_SUCCESS, ("code",), stage=stage)
    outcome, = run_suite([definition], Snapshots(source=source, transformed=transformed))
    assert (outcome.error, outcome.stage) == (error, stage if error else Stage.TRANSFORMED)
    if error is None:
        assert (outcome.numerator, outcome.denominator) == (1, 2)


def test_mapping_key_mismatch():
    source = make_snapshot(
        {"record_id": ["r0", "r1"], "code": ["A", "B"]},
        manifest_extra={"key_column": "record_id"},
    )
    transformed = make_snapshot(
        {"record_id": ["r0", "r9"], "code": ["A", "B"]},
        manifest_extra={"key_column": "record_id"},
        stage="TransformedExtract",
    )
    with pytest.raises(KeyMismatch):
        check(source, CheckKind.MAPPING_SUCCESS, "code", transformed=transformed)


def test_stratified_counts_sum_to_overall():
    snapshot = make_snapshot(
        {
            "actor_id": ["a", "a", "b", "b", ""],
            "code": ["A", "", "B", "Z", "C"],
        },
        manifest_extra={"actor_id_column": "actor_id"},
    )
    outcome = check(snapshot, CheckKind.COMPLETENESS, "code", stratify=True)
    assert outcome.strata is not None and UNATTRIBUTED_STRATUM in outcome.strata
    assert sum(s.numerator for s in outcome.strata.values()) == outcome.numerator
    assert sum(s.denominator for s in outcome.strata.values()) == outcome.denominator


@pytest.mark.parametrize("codes", [["A", ""], []])
def test_stratify_without_actor_column_fails_whatever_the_rows(codes):
    snapshot = make_snapshot({"code": codes})
    with pytest.raises(NoActorColumn):
        check(snapshot, CheckKind.COMPLETENESS, "code", stratify=True)


def test_subset_predicate_splits_counts():
    snapshot = make_snapshot(
        {
            "billable": ["Y", "Y", "N", "N"],
            "code": ["A", "", "B", ""],
        }
    )
    on_y = check(snapshot, CheckKind.COMPLETENESS, "code", subset=Predicate("billable", frozenset({"Y"})))
    on_n = check(snapshot, CheckKind.COMPLETENESS, "code", subset=Predicate("billable", frozenset({"N"})))
    full = check(snapshot, CheckKind.COMPLETENESS, "code")
    assert on_y.numerator + on_n.numerator == full.numerator
    assert on_y.denominator + on_n.denominator == full.denominator


def mixed_snapshot():
    """Eight rows with two actors, a billable flag and every typed column."""
    return make_snapshot(
        {
            "actor_id": ["a", "a", "b", "b", "a", "b", "", "a"],
            "billable": ["Y", "Y", "N", "Y", "N", "Y", "N", ""],
            "age": ["30", "212", "40", "bad", "", "-1", "50", "60"],
            "injury_date": ["2024-01-02", "2024-01-01", "2024-01-09", "2024-01-01",
                            "2024-01-05", "", "2024-01-03", "2024-01-01"],
            "visit_date": ["2024-01-01", "2024-01-02", "2024-01-03", "nope",
                           "2024-01-05", "2024-01-06", "2024-01-02", "2024-01-08"],
            "recorded_at": ["2024-01-01T00:00:00"] * 8,
            "available_at": ["2024-01-01T01:00:00", "2024-01-09T00:00:00", "2023-12-31T00:00:00",
                             "2024-01-01T02:00:00", "", "2024-01-03T00:00:00",
                             "2024-01-01T00:00:00", "2024-02-01T00:00:00"],
        },
        manifest_extra={"actor_id_column": "actor_id"},
    )


ROW_KIND_CASES = [
    (CheckKind.COMPLETENESS, ("age",), {}),
    (CheckKind.CONFORMANCE_FORMAT, ("age",), {}),
    (CheckKind.PLAUSIBILITY_RANGE, ("age",), {"min": 0, "max": 120}),
    (CheckKind.PLAUSIBILITY_TEMPORAL, ("injury_date", "visit_date"), {}),
    (CheckKind.TIMELINESS, TIMESTAMPS, {"max_lag": "1d"}),
]


@pytest.mark.parametrize("kind, fields, config", ROW_KIND_CASES)
def test_every_row_kind_honours_subset_and_strata(kind, fields, config):
    snapshot = mixed_snapshot()
    full = check(snapshot, kind, *fields, **config)
    parts = [
        check(snapshot, kind, *fields, subset=Predicate("billable", frozenset({v})),
              stratify=True, **config)
        for v in ("Y", "N")
    ]
    assert [p.subset for p in parts] == ["billable = Y", "billable = N"]
    assert 0 < parts[0].denominator < full.denominator
    both = check(snapshot, kind, *fields, subset=Predicate("billable", frozenset({"Y", "N"})), **config)
    assert both.subset == "billable in [N, Y]"
    assert both.denominator == sum(p.denominator for p in parts)
    # the row with no billable value falls in neither subset
    rest = check(snapshot, kind, *fields, subset=Predicate("billable", frozenset({""})), **config)
    assert rest.denominator == 0
    unflagged = [v for v in full.violations if v[0] != 7]
    assert sorted(v for p in parts for v in p.violations) == unflagged
    for p in parts:
        assert sum(s.numerator for s in p.strata.values()) == p.numerator
        assert sum(s.denominator for s in p.strata.values()) == p.denominator


def test_every_key_of_every_details_table_is_written_by_some_check():
    """``CheckOutcome`` checks its details against its kind's
    ``KindSpec.details`` table, so every outcome these checks give builds,
    and each kind, with its details at their fullest (a policy text, lag
    seconds, flagged actors), writes every key its table lists: the table
    lists exactly what the kinds write."""
    mixed = mixed_snapshot()
    policy = make_snapshot(
        {"billable": ["Y", "Y", "N", "N"], "code": ["A", "", "", "B"]},
        fields_extra=[{"name": "code", "required": True, "policy_condition": {"field": "billable", "values": ["Y"]}}],
    )
    source, transformed = paired_snapshots(["A", "B", "Z"], ["A", "", "Z"])
    outcomes = [check(mixed, kind, *fields, **config) for kind, fields, config in ROW_KIND_CASES] + [
        check(policy, CheckKind.COMPLETENESS, "code"),
        check(source, CheckKind.CONFORMANCE_VALUE, "code"),
        check(mixed, CheckKind.DEGENERACY_BY_ACTOR, "recorded_at", min_records=1, max_dominant_share="1/2"),
        check(source, CheckKind.MAPPING_SUCCESS, "code", transformed=transformed),
    ]
    assert all(o.status is not CheckStatus.ERRORED for o in outcomes), [o.error for o in outcomes]
    written = {kind: set() for kind in CheckKind}
    for o in outcomes:
        written[o.kind] |= o.details.keys()
    assert written == {kind: set(spec.details) for kind, spec in CHECK_KINDS.items()}
    assert any(o.details.get("flagged_actors") for o in outcomes)


@pytest.mark.parametrize("kind", [CheckKind.MAPPING_SUCCESS, CheckKind.DEGENERACY_BY_ACTOR])
@pytest.mark.parametrize("scope", [
    {"subset": Predicate("code", frozenset({"A"}))},
    {"subset": WHERE_REQUIRED},
    {"stratify": True},
])
def test_mapping_and_degeneracy_reject_subset_and_strata(kind, scope):
    source, transformed = paired_snapshots(["A", "B"], ["A", ""])
    if kind is CheckKind.DEGENERACY_BY_ACTOR:
        transformed = None
    with pytest.raises(MissingConfig):
        check(source, kind, "code", transformed=transformed, **scope)


def test_mapping_without_target_fields_is_errored():
    source, transformed = paired_snapshots(["A"], ["A"])
    definition = CheckDefinition(id="m", kind=CheckKind.MAPPING_SUCCESS, target_fields=())
    outcome, = run_suite([definition], Snapshots(source=source, transformed=transformed))
    assert outcome.status is CheckStatus.ERRORED
    assert outcome.error.startswith("MissingConfig")


BAD_CONFIGS = [
    (CheckKind.DEGENERACY_BY_ACTOR, ("age",), {"min_records": "1"}),
    (CheckKind.TIMELINESS, TIMESTAMPS, {"max_lag": ["3d"]}),
    (CheckKind.DEGENERACY_BY_ACTOR, ("age",), {"max_dominant_share": "abc"}),
    (CheckKind.PLAUSIBILITY_RANGE, ("age",), {"mx": 1}),
    (CheckKind.PLAUSIBILITY_RANGE, ("age",), {"min": [0], "max": 120}),
    (CheckKind.PLAUSIBILITY_RANGE, ("age",), {"min": float("nan"), "max": 120}),
]


@pytest.mark.parametrize("kind, fields, config", BAD_CONFIGS)
def test_bad_config_built_in_code_is_errored(kind, fields, config):
    definition = CheckDefinition(id="bad", kind=kind, target_fields=fields, config=config)
    good = CheckDefinition(id="good", kind=CheckKind.COMPLETENESS, target_fields=("age",))
    bad, ok = run_suite([definition, good], Snapshots(source=mixed_snapshot()))
    assert bad.status is CheckStatus.ERRORED and bad.error.startswith("SchemaViolation")
    assert ok.status is CheckStatus.OK


@pytest.mark.parametrize("kind, fields, config", BAD_CONFIGS)
def test_load_suite_rejects_bad_config(kind, fields, config):
    entry = {"id": "bad", "kind": kind.value, "target_fields": list(fields), "config": config}
    with pytest.raises(SchemaViolation):
        load_suite(json.dumps([entry]))


@pytest.mark.parametrize("flag", ["no", 1, None])
def test_load_suite_requires_boolean_stratify_by_actor(flag):
    entry = {"id": "c", "kind": "Completeness", "target_fields": ["age"], "stratify_by_actor": flag}
    with pytest.raises(SchemaViolation):
        load_suite(json.dumps([entry]))


def test_load_suite_accepts_each_kind_config():
    text = json.dumps([
        {"id": "d", "kind": "DegeneracyByActor", "target_fields": ["age"],
         "config": {"min_records": 5, "max_dominant_share": "0.9"}},
        {"id": "t", "kind": "Timeliness", "target_fields": list(TIMESTAMPS), "config": {"max_lag": 3600}},
        {"id": "r", "kind": "PlausibilityRange", "target_fields": ["injury_date"],
         "config": {"min": "2020-01-01", "max": "2030-01-01"}, "stratify_by_actor": True},
    ])
    outcomes = run_suite(load_suite(text), Snapshots(source=mixed_snapshot()))
    assert [o.status for o in outcomes] == [CheckStatus.NOT_ASSESSABLE, CheckStatus.OK, CheckStatus.OK]
    assert outcomes[0].details["max_dominant_share"] == "9/10"


def test_readme_kind_table_matches_check_kinds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip().replace("`", "") for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and cells[0] in {k.value for k in CheckKind}:
            rows[CheckKind(cells[0])] = cells[1:]
    expected = {
        kind: [
            spec.label,
            LABEL_PARAMETERS[spec.label].name,
            " or ".join(map(str, spec.arity)),
            ", ".join(spec.config) or "none",
            "yes" if spec.rows is not None and not spec.paired else "no",
        ]
        for kind, spec in CHECK_KINDS.items()
    }
    assert rows == expected


def test_run_suite_isolates_errors():
    snapshot = make_snapshot({"code": ["A", "B"]})
    defs = [
        CheckDefinition(id="ok1", kind=CheckKind.COMPLETENESS, target_fields=("code",)),
        CheckDefinition(id="broken", kind=CheckKind.COMPLETENESS, target_fields=("missing-field",)),
        CheckDefinition(id="ok2", kind=CheckKind.CONFORMANCE_VALUE, target_fields=("code",)),
    ]
    outcomes = run_suite(defs, Snapshots(source=snapshot))
    assert [o.check_id for o in outcomes] == ["ok1", "broken", "ok2"]
    assert outcomes[1].status is CheckStatus.ERRORED
    assert outcomes[0].status is CheckStatus.OK and outcomes[2].status is CheckStatus.OK


def keyed(stage: str = "SourceExtract", **manifest_extra):
    """Two rows of a record id and a code, at ``stage``."""
    return make_snapshot({"record_id": ["r0", "r1"], "code": ["A", "B"]}, stage=stage,
                         manifest_extra=manifest_extra)


def one_row():
    """One row of a Category, a Number, two Date and a Timestamp column."""
    return make_snapshot({"side": ["Left"], "age": ["30"], "injury_date": ["2024-01-01"],
                          "visit_date": ["2024-01-02"], "available_at": ["2024-01-01T00:00:00"]})


#: A check's kind, target fields and other keys, the snapshots it runs
#: against, and the error of its Errored outcome.
CONFIG_ERRORS = [
    (CheckKind.COMPLETENESS, ("code",), {"subset": "everywhere"}, lambda: Snapshots(source=keyed()),
     "MissingConfig: unknown subset token 'everywhere'"),
    # a subset of neither kind is an unknown token too, not a stray AttributeError
    (CheckKind.COMPLETENESS, ("code",), {"subset": 5}, lambda: Snapshots(source=keyed()),
     "MissingConfig: unknown subset token 5"),
    (CheckKind.COMPLETENESS, ("nope",), {}, lambda: Snapshots(source=keyed()),
     "UnknownField: field 'nope' is not in manifest 't'"),
    (CheckKind.CONFORMANCE_FORMAT, ("side",), {}, lambda: Snapshots(source=one_row()),
     "MissingConfig: field 'side' has no format_pattern and is not a typed column"),
    (CheckKind.PLAUSIBILITY_RANGE, ("age",), {"config": {"min": 0}}, lambda: Snapshots(source=one_row()),
     "MissingConfig: range check requires 'min' and 'max' in config"),
    (CheckKind.PLAUSIBILITY_TEMPORAL, ("age", "visit_date"), {}, lambda: Snapshots(source=one_row()),
     "NonTemporalField: field 'age' is not date/timestamp-valued"),
    (CheckKind.TIMELINESS, ("injury_date", "available_at"), {"config": {"max_lag": "1d"}},
     lambda: Snapshots(source=one_row()), "NoTimestampColumns: field 'injury_date' is not a Timestamp column"),
    (CheckKind.MAPPING_SUCCESS, ("code",), {}, lambda: Snapshots(source=keyed(key_column="record_id")),
     "StageMismatch: mapping check needs both source and transformed snapshots"),
    (CheckKind.MAPPING_SUCCESS, ("code",), {},
     lambda: Snapshots(source=keyed(key_column="record_id"),
                       transformed=keyed("TransformedExtract", key_column="record_id", dataset_id="u")),
     "StageMismatch: snapshots describe different datasets: 't' vs 'u'"),
    (CheckKind.MAPPING_SUCCESS, ("code",), {},
     lambda: Snapshots(source=keyed(key_column="record_id"), transformed=keyed("TransformedExtract")),
     "KeyColumnMissing: both manifests must declare the same key_column"),
    (CheckKind.COMPLETENESS, ("code",), {}, lambda: Snapshots(source=keyed(), transformed=keyed("TransformedExtract")),
     "CheckConfigError: check must name a stage when two snapshots are loaded"),
    # the strata kind is handed the actor ids, so a missing actor column is
    # found before the kind reads its unknown target field
    (CheckKind.DEGENERACY_BY_ACTOR, ("nope",), {}, lambda: Snapshots(source=keyed()),
     "NoActorColumn: manifest 't' declares no actor_id_column"),
    # a config built in code, as no document can carry an int of more digits than Python prints
    (CheckKind.DEGENERACY_BY_ACTOR, ("code",), {"config": {"min_records": 10**5000}},
     lambda: Snapshots(source=keyed(actor_id_column="record_id")),
     "SchemaViolation: DegeneracyByActor config.min_records must be an integer of at most"
     f" {sys.get_int_max_str_digits()} digits"),
    # configs built in code whose bound or share Python cannot print: the
    # message shows a stand-in, where printing the value once raised a
    # stray ValueError out of run_suite
    (CheckKind.DEGENERACY_BY_ACTOR, ("code",), {"config": {"max_dominant_share": 10**5000}},
     lambda: Snapshots(source=keyed(actor_id_column="record_id")),
     "SchemaViolation: DegeneracyByActor config.max_dominant_share must be a number, got <unprintable int>"),
    (CheckKind.TIMELINESS, ("available_at", "available_at"), {"config": {"max_lag": 10**5000}},
     lambda: Snapshots(source=one_row()),
     "SchemaViolation: Timeliness config.max_lag must be a duration in range, got <unprintable int>"),
    (CheckKind.PLAUSIBILITY_RANGE, ("age",), {"config": {"min": 10**5000, "max": 10**5001}},
     lambda: Snapshots(source=one_row()), "InvalidRange: bound <unprintable int> does not fit a Number field"),
]


@pytest.mark.parametrize("kind, fields, keys, snapshots, error", CONFIG_ERRORS)
def test_each_config_error_names_its_class_and_cause(kind, fields, keys, snapshots, error):
    definition = CheckDefinition(id="c", kind=kind, target_fields=fields, **keys)
    outcome, = run_suite([definition], snapshots())
    assert (outcome.status, outcome.error) == (CheckStatus.ERRORED, error)


# --- hand-built definitions ------------------------------------------------------

class LongInt(int):
    """An int subclass: no reader takes it for an int, and of more digits
    than Python prints, its ``repr`` raises."""


def test_an_errored_check_of_listed_target_fields_holds_them_as_a_tuple():
    definition = CheckDefinition("c", CheckKind.COMPLETENESS, ["nope"])
    outcome, = run_suite([definition], Snapshots(source=keyed()))
    assert (outcome.status, outcome.target_fields) == (CheckStatus.ERRORED, ("nope",))
    assert outcome.error == "UnknownField: field 'nope' is not in manifest 't'"
    assert outcomes_from_json(outcomes_to_json([outcome])) == [outcome]


@pytest.mark.parametrize("attributes, message", [
    (dict(id=1), "id must be a string, got 1"),
    (dict(kind="Completeness"), "kind must be a CheckKind, got 'Completeness'"),
    (dict(stage="SourceExtract"), "stage must be a Stage or None, got 'SourceExtract'"),
    (dict(target_fields="code"), "target_fields must be a tuple or list of strings, got 'code'"),
    (dict(target_fields=("code", 1)), "target_fields must be a tuple or list of strings, got ('code', 1)"),
    (dict(stratify_by_actor="no"), "stratify_by_actor must be a boolean, got 'no'"),
    (dict(id=LongInt(10**5000)), "id must be a string, got <unprintable LongInt>"),
], ids=["int-id", "str-kind", "str-stage", "str-target-fields", "int-target-field", "str-stratify-by-actor",
        "unprintable-id"])
def test_a_definition_of_the_wrong_types_does_not_build(attributes, message):
    with pytest.raises(SchemaViolation) as exc:
        CheckDefinition(**{"id": "c", "kind": CheckKind.COMPLETENESS, "target_fields": ("code",), **attributes})
    assert str(exc.value) == message


@pytest.mark.parametrize("field, values, message", [
    ("code", frozenset({1, 2}), "values must be a non-empty frozenset of strings, got frozenset({1, 2})"),
    (["code"], frozenset({"A"}), "field must be a string, got ['code']"),
    ("code", "AB", "values must be a non-empty frozenset of strings, got 'AB'"),
    ("code", frozenset(), "values must be a non-empty frozenset of strings, got frozenset()"),
    ("code", frozenset({LongInt(10**5000)}),
     "values must be a non-empty frozenset of strings, got <unprintable frozenset>"),
], ids=["int-values", "list-field", "str-values", "no-values", "unprintable-values"])
def test_a_predicate_of_the_wrong_types_does_not_build(field, values, message):
    """Each of these once reached ``run_suite`` as a Completeness subset:
    int values and a list field raised a stray TypeError there, and a str
    of values or no values ran as ``code in [A, B]`` and ``code in []``."""
    with pytest.raises(SchemaViolation) as exc:
        CheckDefinition("c", CheckKind.COMPLETENESS, ("code",), subset=Predicate(field, values), stage=Stage.SOURCE)
    assert str(exc.value) == message


def every_kind_snapshots() -> Snapshots:
    """A source and a transformed snapshot of one dataset with an actor, a
    key and every semantic type, some cells missing and some malformed."""
    rows = {
        "record_id": ["r0", "r1", "r2", "r3"],
        "actor_id": ["a", "a", "", "b"],
        "code": ["A", "", "Z", "B"],
        "age": ["30", "x", "", "120"],
        "injury_date": ["2024-01-01", "2024-02-30", "", "2024-03-01"],
        "visit_date": ["2024-01-02", "2024-01-01", "2024-01-05", ""],
        "recorded_at": ["2024-01-01T00:00:00", "", "bad", "2024-01-02T00:00:00"],
        "available_at": ["2024-01-01T01:00:00", "2024-01-01T00:00:00", "", "2024-01-01T00:00:00"],
    }
    extra = {"actor_id_column": "actor_id", "key_column": "record_id",
             "record_timestamp_column": "recorded_at", "availability_timestamp_column": "available_at"}
    fields = [{"name": "code", "policy_condition": {"field": "actor_id", "values": ["a"]}}]
    source = make_snapshot(rows, manifest_extra=extra, fields_extra=fields)
    transformed = make_snapshot(dict(rows, code=["A", "B", "", ""]), manifest_extra=extra, fields_extra=fields,
                                stage="TransformedExtract")
    return Snapshots(source=source, transformed=transformed)


EVERY_KIND = every_kind_snapshots()


@pytest.mark.parametrize("share", ["1e5000", "1e-5000"])
def test_a_dominant_share_the_details_cannot_print_is_a_schema_violation(share):
    """Its numerator or denominator has more digits than Python prints."""
    config = {"max_dominant_share": share}
    definition = CheckDefinition("c", CheckKind.DEGENERACY_BY_ACTOR, ("code",), stage=Stage.SOURCE, config=config)
    outcome, = run_suite([definition], EVERY_KIND)
    message = f"DegeneracyByActor config.max_dominant_share must be a number, got {share!r}"
    assert outcome.error == f"SchemaViolation: {message}"
    suite = [{"id": "c", "kind": "DegeneracyByActor", "target_fields": ["code"], "config": config}]
    with pytest.raises(SchemaViolation, match=re.escape("suite[0].config.max_dominant_share must be a number")):
        load_suite(json.dumps(suite))


NAMES = st.sampled_from([*EVERY_KIND.source.columns, "nope"])
#: A config value a hand might write: a number, a duration, a date, a share
#: or none of these.
CONFIG_VALUE = (
    st.none() | st.booleans() | st.integers(-5, 10**6) | st.floats() | st.text(max_size=4)
    | st.sampled_from(["1d", "90s", "2024-01-01", "2024-01-01T00:00:00", "1/2", "0.9", "1e5000", 10**5000])
)


#: Target fields each kind runs on in ``EVERY_KIND``.
FITTING = {
    CheckKind.COMPLETENESS: [("code",), ("age",), ("recorded_at",)],
    CheckKind.CONFORMANCE_VALUE: [("code",)],
    CheckKind.CONFORMANCE_FORMAT: [("age",), ("injury_date",), ("recorded_at",)],
    CheckKind.PLAUSIBILITY_RANGE: [("age",)],
    CheckKind.PLAUSIBILITY_TEMPORAL: [("injury_date", "visit_date"), ("visit_date", "recorded_at")],
    CheckKind.DEGENERACY_BY_ACTOR: [("code",), ("recorded_at",)],
    CheckKind.TIMELINESS: [("recorded_at", "available_at")],
    CheckKind.MAPPING_SUCCESS: [("code",), ("code", "code")],
}
#: A config each kind that reads one runs with.
CONFIGS = {
    CheckKind.PLAUSIBILITY_RANGE: {"min": 0, "max": 100},
    CheckKind.DEGENERACY_BY_ACTOR: {"min_records": 1},
    CheckKind.TIMELINESS: {"max_lag": "1h"},
}


def seldom(draw, usual, odd):
    """A value of ``usual``, or one time in four a value of ``odd``: with
    each attribute odd half of the time, few definitions would build."""
    return draw(odd if draw(st.integers(0, 3)) == 0 else usual)


@st.composite
def hand_built_definition(draw):
    """``CheckDefinition``'s attributes as a hand might give them: an id that
    is not a string, a kind's value in place of the kind, target fields in a
    list or naming no field, a subset that is neither a predicate nor the
    token, a stage's value in place of the stage, and any config, its keys
    not all strings."""
    kind = draw(st.sampled_from(list(CheckKind)))
    return dict(
        id=seldom(draw, st.text(max_size=3), st.integers()),
        kind=seldom(draw, st.just(kind), st.just(kind.value)),
        target_fields=draw(st.sampled_from([tuple, list]))(
            seldom(draw, st.sampled_from(FITTING[kind]), st.lists(NAMES, max_size=3))
        ),
        subset=seldom(draw, st.none() | st.just(WHERE_REQUIRED) | st.builds(
            Predicate, NAMES, st.frozensets(st.sampled_from(["a", "A", "30", "2024-01-01"]), min_size=1)
        ), st.text(max_size=3) | st.integers()),
        stage=seldom(draw, st.sampled_from(list(Stage)), st.none() | st.sampled_from([s.value for s in Stage])),
        stratify_by_actor=seldom(draw, st.just(False), st.just(True)),
        config=seldom(draw, st.just(CONFIGS.get(kind, {})), st.dictionaries(
            st.sampled_from(["min", "max", "max_lag", "min_records", "max_dominant_share", "other", 1]), CONFIG_VALUE,
            max_size=3,
        )),
    )


@settings(max_examples=400, deadline=None)
@given(attributes=hand_built_definition())
@example(attributes=dict(id="c", kind=CheckKind.DEGENERACY_BY_ACTOR, target_fields=["code"], stage=Stage.SOURCE,
                         config={"max_dominant_share": "1e5000"}))
@example(attributes=dict(id="c", kind=CheckKind.COMPLETENESS, target_fields=("code",), subset=5, stage=Stage.SOURCE))
@example(attributes=dict(id="c", kind=CheckKind.COMPLETENESS, target_fields=("code",), stage=Stage.SOURCE,
                         config={1: 2, "other": 3}))
def test_a_hand_built_definition_is_rejected_or_gives_one_outcome_that_round_trips(attributes):
    try:
        definition = CheckDefinition(**attributes)
    except SchemaViolation:
        event("rejected")
        return
    outcomes = run_suite([definition], EVERY_KIND)
    assert len(outcomes) == 1
    event(outcomes[0].status.value)
    assert outcomes_from_json(outcomes_to_json(outcomes)) == outcomes


@pytest.mark.parametrize("max_lag, lags, timely, reasons", [
    # 90.9 s was once cut to 90 s, which made a 90.5 s lag late
    (timedelta(seconds=90.9), ["01:30.500000", "01:31"], 1, ["lag 0:01:31 exceeds 0:01:30.900000"]),
    # and 500 ms to "0s", which errored the check
    (timedelta(milliseconds=500), ["00:00.400000", "00:00.600000"], 1,
     ["lag 0:00:00.600000 exceeds 0:00:00.500000"]),
])
def test_standard_suite_keeps_a_fractional_max_lag(max_lag, lags, timely, reasons):
    snapshot = make_snapshot(
        {"recorded_at": ["2024-01-01T00:00:00"] * len(lags), "available_at": [f"2024-01-01T00:{t}" for t in lags]},
        manifest_extra={"record_timestamp_column": "recorded_at", "availability_timestamp_column": "available_at"},
    )
    timeliness, = (d for d in standard_suite(snapshot.manifest, max_lag=max_lag) if d.kind is CheckKind.TIMELINESS)
    outcome = run_check(timeliness, Snapshots(source=snapshot))
    assert (outcome.numerator, outcome.denominator) == (timely, len(lags))
    assert [reason for _, reason in outcome.violations] == reasons
    assert outcome.details["max_lag_seconds"] == max_lag.total_seconds()


@pytest.mark.parametrize("stage, error", [
    (None, "CheckConfigError: no snapshot is loaded"),
    (Stage.SOURCE, "CheckConfigError: no snapshot loaded at stage SourceExtract"),
])
def test_run_suite_with_no_snapshot_loaded_says_so(stage, error):
    definition = CheckDefinition(id="c", kind=CheckKind.COMPLETENESS, target_fields=("code",), stage=stage)
    outcome, = run_suite([definition], Snapshots())
    assert outcome.status is CheckStatus.ERRORED
    assert outcome.error == error


@pytest.mark.parametrize("stage", [Stage.SOURCE, Stage.TRANSFORMED])
def test_a_check_with_no_stage_runs_against_the_one_snapshot_loaded(stage):
    snapshot = keyed(stage.value)
    loaded = Snapshots(source=snapshot) if stage is Stage.SOURCE else Snapshots(transformed=snapshot)
    definition = CheckDefinition(id="c", kind=CheckKind.COMPLETENESS, target_fields=("code",))
    outcome, = run_suite([definition], loaded)
    assert (outcome.status, outcome.stage) == (CheckStatus.OK, stage)
    assert (outcome.numerator, outcome.denominator) == (2, 2)


def test_run_suite_empty_and_deterministic():
    snapshot = make_snapshot({"code": ["A"]})
    assert run_suite([], Snapshots(source=snapshot)) == []
    defs = standard_suite(snapshot.manifest)
    assert run_suite(defs, Snapshots(source=snapshot)) == run_suite(defs, Snapshots(source=snapshot))


def test_row_shuffle_leaves_counts_unchanged():
    rows = {"code": ["A", "", "Z", "B", "bad" if False else "C"]}
    snapshot = make_snapshot(rows)
    shuffled = make_snapshot({"code": list(reversed(rows["code"]))})
    a = check(snapshot, CheckKind.COMPLETENESS, "code")
    b = check(shuffled, CheckKind.COMPLETENESS, "code")
    assert (a.numerator, a.denominator) == (b.numerator, b.denominator)


def test_outcomes_json_round_trip():
    snapshot = make_snapshot(
        {"actor_id": ["a", "a", "b"], "code": ["A", "", "Z"]},
        manifest_extra={"actor_id_column": "actor_id"},
    )
    defs = standard_suite(snapshot.manifest) + [
        CheckDefinition(
            id="deg", kind=CheckKind.DEGENERACY_BY_ACTOR, target_fields=("code",),
            config={"min_records": 1},
        )
    ]
    outcomes = run_suite(defs, Snapshots(source=snapshot))
    assert outcomes_from_json(outcomes_to_json(outcomes)) == outcomes


def test_parse_duration_units():
    assert parse_duration("30d") == timedelta(days=30)
    assert parse_duration("1h") == timedelta(hours=1)
    assert parse_duration("90s") == timedelta(seconds=90)
    for bad in ("monthly", ["3d"], float("nan"), "99999999999d", 10**400, "9" * 5000 + "d"):
        with pytest.raises(SchemaViolation):
            parse_duration(bad)


def test_load_suite_round_trip_schema():
    text = json.dumps(
        [
            {"id": "c1", "kind": "Completeness", "target_fields": ["code"]},
            {"id": "c2", "kind": "Completeness", "target_fields": ["code"], "subset": "where-required"},
            {
                "id": "c3",
                "kind": "PlausibilityRange",
                "target_fields": ["age"],
                "config": {"min": 0, "max": 120},
                "stage": "SourceExtract",
            },
        ]
    )
    defs = load_suite(text)
    assert [d.id for d in defs] == ["c1", "c2", "c3"]
    assert defs[1].subset == WHERE_REQUIRED
    with pytest.raises(SchemaViolation):
        load_suite(json.dumps([{"id": "x", "kind": "Nope", "target_fields": []}]))


def test_standard_suite_covers_manifest(tmp_path):
    snapshot = make_snapshot(
        {
            "billable": ["Y"],
            "code": ["A"],
            "age": ["30"],
        },
        fields_extra=[
            {"name": "code", "policy_condition": {"field": "billable", "values": ["Y"]}},
            {"name": "age", "numeric_range": [0, 120]},
        ],
    )
    ids = [d.id for d in standard_suite(snapshot.manifest)]
    assert "completeness:code@SourceExtract" in ids
    assert "completeness-required:code@SourceExtract" in ids
    assert "conformance-value:code@SourceExtract" in ids
    assert "plausibility-range:age@SourceExtract" in ids


def test_mapping_suite_excludes_key():
    source, transformed = paired_snapshots(["A"], ["A"])
    defs = mapping_suite(source.manifest, transformed.manifest)
    assert [d.id for d in defs] == ["mapping:code"]


@pytest.mark.parametrize(
    "text, cause",
    [
        (b"\xff", "is not UTF-8, UTF-16 or UTF-32 text: 'utf-8' codec can't decode byte 0xff"),
        ("[" * 200_000, "is nested too deeply to decode"),
    ],
)
def test_load_suite_undecodable_or_too_deep_is_schema_violation(text, cause):
    with pytest.raises(SchemaViolation, match=re.escape(f"suite {cause}")):
        load_suite(text)


@pytest.mark.parametrize(
    "text, cause",
    [
        (b"\xff", "is not UTF-8, UTF-16 or UTF-32 text: 'utf-8' codec can't decode byte 0xff"),
        ("[" * 200_000, "is nested too deeply to decode"),
    ],
)
def test_outcomes_from_json_undecodable_or_too_deep_is_schema_violation(text, cause):
    with pytest.raises(SchemaViolation, match=re.escape(f"outcomes document {cause}")):
        outcomes_from_json(text)

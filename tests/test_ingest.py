from __future__ import annotations

import json
import re
from array import array

import pytest

from dqlocus.errors import (
    DanglingColumnReference,
    DuplicateFieldName,
    HeaderMalformed,
    MissingColumn,
    SchemaViolation,
    UnknownField,
)
from dqlocus.assess import Snapshots, run_suite, standard_suite
from dqlocus.ingest import (
    DEFAULT_MISSING_SENTINELS,
    Column,
    DatasetManifest,
    DatasetSnapshot,
    EntryMode,
    FieldSpec,
    Predicate,
    SemanticType,
    load_dataset,
    load_manifest,
    Stage,
)


def manifest_doc(**overrides):
    doc = {
        "dataset_id": "injuries",
        "stage": "SourceExtract",
        "fields": [
            {
                "name": "record_id",
                "semantic_type": "Code",
                "entry_mode": "AutoGenerated",
                "generating_actor": "EHRSystem",
                "required": True,
            },
            {
                "name": "billable",
                "semantic_type": "Category",
                "entry_mode": "AutoGenerated",
                "generating_actor": "EHRSystem",
                "allowed_values": ["Y", "N"],
                "required": True,
            },
            {
                "name": "diagnosis_code",
                "semantic_type": "Code",
                "entry_mode": "EhrEnforced",
                "generating_actor": "Clinician",
                "allowed_values": ["S83", "M54", "T14", "Z00", "K21"],
                "required": True,
                "policy_condition": {"field": "billable", "values": ["Y"]},
            },
            {
                "name": "visit_date",
                "semantic_type": "Date",
                "entry_mode": "AutoGenerated",
                "generating_actor": "EHRSystem",
            },
            {
                "name": "age",
                "semantic_type": "Number",
                "entry_mode": "FreeEntry",
                "generating_actor": "Clinician",
                "numeric_range": [0, 120],
            },
        ],
        "key_column": "record_id",
    }
    doc.update(overrides)
    return doc


def test_load_manifest_accepts_enforced_coded_field():
    manifest = load_manifest(json.dumps(manifest_doc()))
    assert manifest.stage is Stage.SOURCE
    diag = manifest.get_field("diagnosis_code")
    assert diag is not None and diag.allowed_values == frozenset({"S83", "M54", "T14", "Z00", "K21"})
    assert manifest.missing_sentinels == DEFAULT_MISSING_SENTINELS


def test_get_field_leaves_manifest_equality_and_hash_alone():
    looked_up = load_manifest(json.dumps(manifest_doc()))
    fresh = load_manifest(json.dumps(manifest_doc()))
    assert looked_up.get_field("age") is looked_up.fields[4]
    assert looked_up.get_field("nonexistent") is None
    assert looked_up == fresh and hash(looked_up) == hash(fresh)
    assert repr(looked_up) == repr(fresh)


def build_field(doc):
    """The ``FieldSpec`` of a field object, built without a reader."""
    return FieldSpec(**{
        **doc,
        "semantic_type": SemanticType(doc["semantic_type"]),
        "entry_mode": EntryMode(doc["entry_mode"]),
        "allowed_values": frozenset(doc["allowed_values"]) if "allowed_values" in doc else None,
        "numeric_range": tuple(doc["numeric_range"]) if "numeric_range" in doc else None,
        "policy_condition": (
            Predicate(doc["policy_condition"]["field"], frozenset(doc["policy_condition"]["values"]))
            if "policy_condition" in doc else None
        ),
    })


def build_manifest(doc):
    """The ``DatasetManifest`` of a manifest document, built without a reader."""
    return DatasetManifest(**{**doc, "stage": Stage(doc["stage"]), "fields": tuple(map(build_field, doc["fields"]))})


def raises_alike(doc, error):
    """The message of the ``error`` that ``load_manifest`` of ``doc`` raises,
    once building its fields and manifest directly has raised the same."""
    with pytest.raises(error) as loaded:
        load_manifest(json.dumps(doc))
    with pytest.raises(error) as built:
        build_manifest(doc)
    assert str(built.value) == str(loaded.value)
    return str(loaded.value)


def test_build_manifest_builds_what_load_manifest_loads():
    assert build_manifest(manifest_doc()) == load_manifest(json.dumps(manifest_doc()))


def test_load_manifest_policy_condition_on_missing_field():
    doc = manifest_doc()
    doc["fields"][2]["policy_condition"] = {"field": "nonexistent", "values": ["Y"]}
    assert raises_alike(doc, DanglingColumnReference) == (
        "field 'diagnosis_code': policy_condition references unknown field 'nonexistent'"
    )


def test_load_manifest_duplicate_field_name():
    doc = manifest_doc()
    doc["fields"].append(dict(doc["fields"][0]))
    assert raises_alike(doc, DuplicateFieldName) == "field 'record_id' defined more than once"


def test_a_field_named_twice_with_two_types_is_rejected_however_the_manifest_is_built():
    """Were it built, the column would load as the later spec's Text and the
    range check would read the earlier spec's Number: the check would fail
    with a stray TypeError comparing a float with a str."""
    age = dict(name="age", entry_mode=EntryMode.FREE_ENTRY, generating_actor="Clinician")
    with pytest.raises(DuplicateFieldName, match="field 'age' defined more than once"):
        DatasetManifest("d", Stage.SOURCE, (
            FieldSpec(**age, semantic_type=SemanticType.NUMBER),
            FieldSpec(**age, semantic_type=SemanticType.TEXT),
        ))


def test_load_manifest_rejects_unknown_keys():
    with pytest.raises(SchemaViolation):
        load_manifest(json.dumps(manifest_doc(extra_key=1)))


def test_load_manifest_enforced_field_needs_constraint():
    doc = manifest_doc()
    del doc["fields"][2]["allowed_values"]
    del doc["fields"][2]["policy_condition"]
    assert raises_alike(doc, SchemaViolation) == (
        "field 'diagnosis_code' must have allowed_values or format_pattern, as it is EhrEnforced"
    )


def test_load_manifest_dangling_key_column():
    doc = manifest_doc(key_column="missing")
    assert raises_alike(doc, DanglingColumnReference) == "manifest: key_column references unknown field 'missing'"


@pytest.mark.parametrize("semantic_type", ["Number", "Date", "Timestamp"])
def test_a_typed_field_with_a_format_pattern_is_rejected_however_it_is_built(semantic_type):
    """A typed field's format is its coercion: a pattern would be tested
    against the typed value, so that ``.*`` failed every cell."""
    doc = manifest_doc()
    doc["fields"][3].update(semantic_type=semantic_type, format_pattern=".*")
    assert raises_alike(doc, SchemaViolation) == (
        "field 'visit_date' may have a format_pattern only if it is Code, Category or Text"
    )


@pytest.mark.parametrize("semantic_type", ["Code", "Category", "Text"])
def test_an_untyped_field_may_have_a_format_pattern(semantic_type):
    doc = manifest_doc()
    doc["fields"][3].update(semantic_type=semantic_type, format_pattern=".*")
    assert load_manifest(json.dumps(doc)).get_field("visit_date").format_pattern == ".*"


def test_a_pattern_that_does_not_compile_is_rejected_however_the_field_is_built():
    """Were it built, the format check of ``run_suite`` would raise a stray
    ``re.error``, not give an Errored outcome."""
    with pytest.raises(SchemaViolation, match=re.escape(
        "field 't' must have a regular expression as its format_pattern: missing ), unterminated subpattern"
    )):
        FieldSpec("t", SemanticType.TEXT, EntryMode.FREE_ENTRY, "C", format_pattern="(")
    doc = manifest_doc()
    doc["fields"][3].update(semantic_type="Text", format_pattern="(")
    assert raises_alike(doc, SchemaViolation).startswith(
        "field 'visit_date' must have a regular expression as its format_pattern: missing )"
    )


CSV_TEN_ROWS = "\n".join(
    ["record_id,billable,diagnosis_code,visit_date,age"]
    + [f"r{i},Y,S83,2024-03-0{(i % 9) + 1},35" for i in range(9)]
    + ["r9,Y,,2024-03-05,40"]
)


def test_load_dataset_counts_one_missing():
    manifest = load_manifest(json.dumps(manifest_doc()))
    snapshot = load_dataset(CSV_TEN_ROWS, manifest)
    assert snapshot.row_count == 10
    col = snapshot.column("diagnosis_code")
    assert len(col.missing) == 1
    assert len(col.values) - len(col.missing) - len(col.failures) == 9


def test_load_dataset_invalid_date_is_coercion_failure_not_error():
    manifest = load_manifest(json.dumps(manifest_doc()))
    csv_text = (
        "record_id,billable,diagnosis_code,visit_date,age\n"
        "r0,Y,S83,31/02/2024,35\n"
        "r1,Y,M54,2024-02-29,35\n"
    )
    snapshot = load_dataset(csv_text, manifest)
    col = snapshot.column("visit_date")
    assert col.failures == ((0, "31/02/2024"),)
    assert snapshot.row_count == 2


def test_load_dataset_missing_manifest_column():
    manifest = load_manifest(json.dumps(manifest_doc()))
    with pytest.raises(MissingColumn):
        load_dataset("record_id,billable\nr0,Y\n", manifest)


def test_load_dataset_header_required():
    manifest = load_manifest(json.dumps(manifest_doc()))
    with pytest.raises(HeaderMalformed):
        load_dataset("", manifest)


def test_load_dataset_duplicate_header():
    manifest = load_manifest(json.dumps(manifest_doc()))
    with pytest.raises(HeaderMalformed):
        load_dataset("record_id,record_id,billable,diagnosis_code,visit_date,age\n", manifest)


@pytest.mark.parametrize("header, message", [
    ("", "dataset has no header row"),
    ("record_id,,billable\n", "header contains an empty column name"),
    ("record_id,record_id,billable\n", "header contains duplicate column names"),
])
def test_a_malformed_header_says_why(header, message):
    manifest = load_manifest(json.dumps(manifest_doc()))
    with pytest.raises(HeaderMalformed) as exc:
        load_dataset(header, manifest)
    assert str(exc.value) == message


def test_an_unknown_column_is_an_unknown_field():
    snapshot = load_dataset(CSV_TEN_ROWS, load_manifest(json.dumps(manifest_doc())))
    with pytest.raises(UnknownField) as exc:
        snapshot.column("nope")
    assert str(exc.value) == "field 'nope' is not in manifest 'injuries'"


def test_load_dataset_deterministic():
    manifest = load_manifest(json.dumps(manifest_doc()))
    assert load_dataset(CSV_TEN_ROWS, manifest) == load_dataset(CSV_TEN_ROWS, manifest)


def test_cell_states_partition_rows():
    manifest = load_manifest(json.dumps(manifest_doc()))
    csv_text = (
        "record_id,billable,diagnosis_code,visit_date,age\n"
        "r0,Y,S83,2024-01-01,35\n"
        "r1,Y,M54,not-a-date,NA\n"
        "r2,N,,2024-01-03,51\n"
    )
    snapshot = load_dataset(csv_text, manifest)
    for name in ("record_id", "billable", "diagnosis_code", "visit_date", "age"):
        col = snapshot.column(name)
        typed = sum(v is not None for v in col.values)
        assert typed + len(col.missing) + len(col.failures) == snapshot.row_count


def test_extra_columns_are_ignored():
    manifest = load_manifest(json.dumps(manifest_doc()))
    csv_text = (
        "record_id,billable,diagnosis_code,visit_date,age,extra\n"
        "r0,Y,S83,2024-01-01,35,whatever\n"
    )
    snapshot = load_dataset(csv_text, manifest)
    assert "extra" not in snapshot.columns


def test_timestamps_normalize_to_naive_utc():
    doc = manifest_doc()
    doc["fields"].append(
        {
            "name": "recorded_at",
            "semantic_type": "Timestamp",
            "entry_mode": "AutoGenerated",
            "generating_actor": "EHRSystem",
        }
    )
    manifest = load_manifest(json.dumps(doc))
    csv_text = (
        "record_id,billable,diagnosis_code,visit_date,age,recorded_at\n"
        "r0,Y,S83,2024-01-01,35,2024-01-01T10:00:00+02:00\n"
        "r1,Y,S83,2024-01-01,35,2024-01-01T08:00:00\n"
    )
    snapshot = load_dataset(csv_text, manifest)
    col = snapshot.column("recorded_at")
    assert col.values[0] == col.values[1]


@pytest.mark.parametrize(
    "text, cause",
    [
        (b"\xff", "is not UTF-8, UTF-16 or UTF-32 text: 'utf-8' codec can't decode byte 0xff"),
        ("[" * 200_000, "is nested too deeply to decode"),
    ],
)
def test_load_manifest_undecodable_or_too_deep_is_schema_violation(text, cause):
    with pytest.raises(SchemaViolation, match=re.escape(f"manifest {cause}")):
        load_manifest(text)


# --- a snapshot checks itself ---------------------------------------------------

def two_field_manifest():
    """A Number field ``a`` and a Timestamp field ``ts``."""
    spec = {"entry_mode": "FreeEntry", "generating_actor": "Clinician"}
    return load_manifest(json.dumps({"dataset_id": "s", "stage": "SourceExtract", "fields": [
        {"name": "a", "semantic_type": "Number", **spec}, {"name": "ts", "semantic_type": "Timestamp", **spec},
    ]}))


TS = Column(array("q", [0, 5, 0]), frozenset({0}), ((2, "soon"),))
A = Column((1.0, None, 2.0), frozenset({1}))


@pytest.mark.parametrize("row_count, columns, message", [
    (3, {"a": Column((1.0, 2.0), frozenset()), "ts": TS}, "column 'a' must hold 3 values, one per row, got 2"),
    (3, {"a": A}, "field 'ts' must have a column"),
    (3, {"a": A, "ts": TS, "b": A}, "column 'b' must name a manifest field"),
    (3, [A, TS], "columns must be a dict, got list"),
    (-1, {"a": A, "ts": TS}, "row_count must be a non-negative integer, got -1"),
    (True, {"a": A, "ts": TS}, "row_count must be a non-negative integer, got True"),
    (3, {"a": A, "ts": Column((0, 5, 0), frozenset())}, "column 'ts' must hold its values in an array('q'), got tuple"),
    (3, {"a": A, "ts": Column(array("d", [0, 5, 0]), frozenset())},
     "column 'ts' must hold its values in an array('q'), got array"),
    (3, {"a": Column(array("q", [1, 0, 2]), frozenset({1})), "ts": TS},
     "column 'a' must hold its values in a tuple, got array"),
    (3, {"a": Column([1.0, None, 2.0], frozenset({1})), "ts": TS}, "column 'a' must hold its values in a tuple, got list"),
    (3, {"a": Column((1.0, None, 2.0), {1}), "ts": TS},
     "column 'a' must hold its missing rows in a frozenset and its failures in a tuple"),
    (3, {"a": A, "ts": Column(TS.values, frozenset(), ((2,),))}, "column 'ts' must hold each failure as a (row, raw text) pair"),
    (3, {"a": Column((1.0, None, 2.0), frozenset({3})), "ts": TS}, "column 'a' must name missing and failed rows from range(3)"),
    (3, {"a": A, "ts": Column(TS.values, frozenset(), ((-1, "soon"),))},
     "column 'ts' must name missing and failed rows from range(3)"),
    (3, {"a": A, "ts": Column(TS.values, frozenset(), ((1.0, "soon"),))},
     "column 'ts' must name missing and failed rows from range(3)"),
    (3, {"a": A, "ts": Column(TS.values, frozenset({2}), ((2, "soon"),))}, "column 'ts' must name each missing or failed row once"),
    (3, {"a": A, "ts": Column(TS.values, frozenset(), ((2, "soon"), (2, "soon")))},
     "column 'ts' must name each missing or failed row once"),
], ids=["short-column", "missing-column", "extra-column", "columns-list", "negative-row-count", "bool-row-count",
        "timestamp-tuple", "timestamp-float-array", "number-array", "number-list", "missing-set", "failure-not-a-pair",
        "missing-row-past-the-end", "negative-failed-row", "float-failed-row", "missing-and-failed", "failed-twice"])
def test_a_snapshot_that_breaks_a_rule_does_not_build(row_count, columns, message):
    with pytest.raises(SchemaViolation) as exc:
        DatasetSnapshot(two_field_manifest(), row_count, columns)
    assert str(exc.value) == message


def test_a_hand_built_snapshot_that_keeps_the_rules_runs_the_standard_suite():
    m = two_field_manifest()
    snapshot = DatasetSnapshot(m, 3, {"a": A, "ts": TS})
    outcomes = run_suite(standard_suite(m), Snapshots(source=snapshot))
    assert [(o.check_id, o.numerator, o.denominator) for o in outcomes] == [
        ("completeness:a@SourceExtract", 2, 3), ("conformance-format:a@SourceExtract", 2, 2),
        ("completeness:ts@SourceExtract", 1, 3), ("conformance-format:ts@SourceExtract", 1, 2),
    ]

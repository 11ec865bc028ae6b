"""The four JSON documents dqlocus reads: manifest, suite, registry config
and outcomes.

Each object in them is read by ``errors.object_of``, through the readers
its class's fields declare or a table that maps each key to its reader.
Whatever a document holds, its loader returns a result or raises a
``DqError``; no other exception may escape.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqlocus import assess, ingest, taxonomy
from dqlocus.assess import (
    CheckDefinition,
    CheckKind,
    CheckOutcome,
    Snapshots,
    StratumOutcome,
    load_suite,
    outcomes_from_json,
    outcomes_to_json,
    run_suite,
)
from dqlocus.errors import DqError, SchemaViolation, readers_of
from dqlocus.ingest import DatasetManifest, FieldSpec, Predicate, load_dataset, load_manifest
from dqlocus.taxonomy import ActorRegistry, load_registry_config


def field(name, semantic="Text", entry="FreeEntry", **extra):
    return {"name": name, "semantic_type": semantic, "entry_mode": entry,
            "generating_actor": "Clinician", **extra}


#: A manifest that uses every key.
MANIFEST = {
    "dataset_id": "visits",
    "stage": "SourceExtract",
    "fields": [
        field("record_id", "Code", "AutoGenerated", required=True),
        field("actor_id", "Code", "AutoGenerated"),
        field("billable", "Category", "EhrEnforced", allowed_values=["N", "Y"]),
        field("code", "Code", "FreeEntry", format_pattern="[A-Z][0-9]{2}",
              policy_condition={"field": "billable", "values": ["Y"]}),
        field("age", "Number", numeric_range=[0, 120]),
        field("recorded_at", "Timestamp", "AutoGenerated"),
        field("available_at", "Timestamp", "AutoGenerated"),
    ],
    "actor_id_column": "actor_id",
    "record_timestamp_column": "recorded_at",
    "availability_timestamp_column": "available_at",
    "key_column": "record_id",
    "missing_sentinels": ["", "NA", "?"],
}

#: A suite that uses every key and every config key.
SUITE = [
    {"id": "c", "kind": "Completeness", "target_fields": ["code"], "subset": "where-required"},
    {"id": "s", "kind": "Completeness", "target_fields": ["age"], "stratify_by_actor": True,
     "subset": {"field": "billable", "values": ["Y"]}, "stage": "SourceExtract", "config": {}},
    {"id": "r", "kind": "PlausibilityRange", "target_fields": ["age"], "config": {"min": 0, "max": 120}},
    {"id": "d", "kind": "DegeneracyByActor", "target_fields": ["code"],
     "config": {"min_records": 1, "max_dominant_share": "0.9"}},
    {"id": "t", "kind": "Timeliness", "target_fields": ["recorded_at", "available_at"],
     "config": {"max_lag": "1d"}},
]

REGISTRY_CONFIG = {
    "actors": [
        {"name": "Carer", "aliases": ["Caregiver"], "allowed_phases": ["DGO-DG", "DRO-DR"]},
        {"name": "Auditor", "allowed_phases": ["DRO-DR"]},
    ],
}

CSV = (
    "record_id,actor_id,billable,code,age,recorded_at,available_at\n"
    "r0,a,Y,A12,30,2024-01-01T00:00:00,2024-01-01T05:00:00\n"
    "r1,a,Y,,bad,2024-01-01T00:00:00,2024-01-03T00:00:00\n"
    "r2,b,N,A12,130,2024-01-01T00:00:00,NA\n"
)


def outcomes_document() -> dict:
    """The outcomes of ``SUITE`` plus an errored check: strata with and
    without flags, violations, details, and nulls."""
    snapshot = load_dataset(CSV, load_manifest(json.dumps(MANIFEST)))
    errored = CheckDefinition(id="", kind=CheckKind.COMPLETENESS, target_fields=("nope",))
    outcomes = run_suite(load_suite(json.dumps(SUITE)) + [errored], Snapshots(source=snapshot))
    return json.loads(outcomes_to_json(outcomes))


#: The errored outcome of ``outcomes_document``, as ``run_suite`` writes it.
ERRORED = outcomes_document()["outcomes"][-1]

LOADERS = {
    "manifest": (load_manifest, MANIFEST),
    "suite": (load_suite, SUITE),
    "registry config": (load_registry_config, REGISTRY_CONFIG),
    "outcomes document": (outcomes_from_json, outcomes_document()),
}


# --- mutations ----------------------------------------------------------------

def nodes(value, path=()):
    """The path of every value in a JSON document, the document first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, path + (i,))


def at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def json_type(value) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "number"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one key dropped, one unknown key added, or one value
    swapped for a JSON value of another type."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(nodes(doc))))
    target = at(doc, path)
    if isinstance(target, dict) and draw(st.booleans()):
        target["unknown_key"] = draw(JSON_VALUES)
        return doc
    if path and isinstance(at(doc, path[:-1]), dict) and draw(st.booleans()):
        del at(doc, path[:-1])[path[-1]]
        return doc
    swapped = draw(JSON_VALUES.filter(lambda v: json_type(v) != json_type(target)))
    if not path:
        return swapped
    at(doc, path[:-1])[path[-1]] = swapped
    return doc


@pytest.mark.parametrize("what", LOADERS)
def test_each_base_document_loads(what):
    load, doc = LOADERS[what]
    load(json.dumps(doc))


@pytest.mark.parametrize("what", LOADERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_document_loads_or_raises_a_dq_error(what, data):
    load, doc = LOADERS[what]
    text = json.dumps(data.draw(mutated(doc)))
    try:
        load(text)
    except DqError:
        pass


# --- pinned cases -------------------------------------------------------------

@pytest.mark.parametrize("outcomes, message", [
    ([{}], "outcomes document.outcomes[0].check_id must be given"),
    (5, "outcomes document.outcomes must be a list"),
    ([1], "outcomes document.outcomes[0] must be an object"),
    # an errored outcome carries nothing but its error
    ([dict(ERRORED, numerator=5, denominator=9)],
     "outcomes document.outcomes[0].numerator must be 0 in an errored outcome, got 5"),
    ([dict(ERRORED, denominator=9)], "outcomes document.outcomes[0].denominator must be 0 in an errored outcome, got 9"),
    ([dict(ERRORED, strata={})], "outcomes document.outcomes[0].strata must be None in an errored outcome, got {}"),
    ([dict(ERRORED, violations=[[0, "missing"]])],
     "outcomes document.outcomes[0].violations must be () in an errored outcome, got ((0, 'missing'),)"),
    ([dict(ERRORED, details={"x": 1})],
     "outcomes document.outcomes[0].details must be {} in an errored outcome, got {'x': 1}"),
])
def test_outcomes_of_the_wrong_shape_are_schema_violations(outcomes, message):
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        outcomes_from_json(json.dumps({"schema_version": "1", "outcomes": outcomes}))


@pytest.mark.parametrize("key, value, message", [
    ("kind", "Nope", "outcomes document.outcomes[0].kind must be one of"),
    ("strata", {"x": 1}, "outcomes document.outcomes[0].strata['x'] must be an object"),
    ("numerator", True, "outcomes document.outcomes[0].numerator must be an integer"),
    # the outcome judges every value the reader does not decode, and the
    # reader names its path
    ("check_id", 1, "outcomes document.outcomes[0].check_id must be a string, got 1"),
    ("subset", 5, "outcomes document.outcomes[0].subset must be a string or None, got 5"),
    ("error", ["x"], "outcomes document.outcomes[0].error must be a string or None, got ['x']"),
    ("target_fields", ["code", 1], "outcomes document.outcomes[0].target_fields[1] must be a string, got 1"),
    ("target_fields", "code", "outcomes document.outcomes[0].target_fields must be a tuple, got str"),
    ("violations", [[0]], "outcomes document.outcomes[0].violations[0] must be a (row, reason) pair, got (0,)"),
    ("violations", [[0, 5]], "outcomes document.outcomes[0].violations[0][1] must be a string, got 5"),
    ("details", [], "outcomes document.outcomes[0].details must be a dict, got list"),
    ("parameter", "Nope", "outcomes document.outcomes[0].parameter must be 'Completeness', got 'Nope'"),
])
def test_an_outcome_value_of_the_wrong_type_is_a_schema_violation(key, value, message):
    doc = outcomes_document()
    doc["outcomes"][0][key] = value
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        outcomes_from_json(json.dumps(doc))


def test_the_outcomes_document_needs_its_schema_version():
    doc = outcomes_document()
    assert outcomes_to_json(outcomes_from_json(json.dumps(doc))) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for version in ("2", None):
        doc["schema_version"] = version
        with pytest.raises(SchemaViolation, match=re.escape("outcomes document.schema_version must be '1'")):
            outcomes_from_json(json.dumps(doc))


@pytest.mark.parametrize("path, value, message", [
    (("fields", 2, "allowed_values"), ["Y", 1], "manifest.fields[2].allowed_values[1] must be a string"),
    (("fields", 4, "numeric_range"), [0, 10**400], "manifest.fields[4].numeric_range[1] must be a number"),
    (("fields", 4, "numeric_range"), [0], "manifest.fields[4].numeric_range must be [min, max]"),
    (("fields", 3, "format_pattern"), "a{4294967296}", "field 'code' must have a regular expression as its format_pattern"),
    (("fields", 3, "format_pattern"), "(" * 5000, "field 'code' must have a regular expression as its format_pattern"),
    (("fields", 3, "policy_condition", "values"), [], "manifest.fields[3].policy_condition.values must be non-empty"),
    (("fields", 0, "required"), None, "manifest.fields[0].required must be a boolean"),
    (("stage",), "Raw", "manifest.stage must be one of ['SourceExtract', 'TransformedExtract'], got 'Raw'"),
    (("fields", 4, "numeric_range"), [float("nan"), 120], "manifest.fields[4].numeric_range[0] must be a number"),
])
def test_a_bad_manifest_value_is_named_by_its_path(path, value, message):
    doc = copy.deepcopy(MANIFEST)
    at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        load_manifest(json.dumps(doc))


@pytest.mark.parametrize("suite, message", [
    ([dict(SUITE[0], subset="everywhere")], "suite[0].subset must be 'where-required' or {field, values}"),
    ([SUITE[0], SUITE[1], dict(SUITE[2], id="c")], "suite[2].id must be unique, got 'c' again"),
])
def test_a_bad_suite_is_named_by_its_path(suite, message):
    with pytest.raises(SchemaViolation) as exc:
        load_suite(json.dumps(suite))
    assert str(exc.value) == message


@pytest.mark.parametrize("null_key", [
    "actor_id_column", "record_timestamp_column", "availability_timestamp_column", "key_column",
    "missing_sentinels",
])
def test_a_null_optional_manifest_key_reads_as_absent(null_key):
    with_null = load_manifest(json.dumps(dict(MANIFEST, **{null_key: None})))
    without = load_manifest(json.dumps({k: v for k, v in MANIFEST.items() if k != null_key}))
    assert with_null == without


@pytest.mark.parametrize("what", LOADERS)
def test_an_integer_too_long_to_convert_is_a_schema_violation(what):
    load, _ = LOADERS[what]
    with pytest.raises(SchemaViolation, match=re.escape(f"{what} is not valid JSON: Exceeds the limit")):
        load('{"x": ' + "1" * 5000 + "}")


# --- one schema per dataclass -------------------------------------------------

#: The classes whose fields are the keys of a document object.
DOCUMENT_CLASSES = [DatasetManifest, FieldSpec, Predicate, CheckDefinition, StratumOutcome, CheckOutcome]


@pytest.mark.parametrize("cls", DOCUMENT_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_of_a_document_class_declares_its_reader(cls):
    assert all(callable(f.metadata.get("reader")) for f in dataclasses.fields(cls))
    assert list(readers_of(cls)) == [f.name for f in dataclasses.fields(cls)]


def test_the_outcome_reader_table_has_the_outcomes_fields_and_the_derived_keys():
    derived = ["parameter", "status", "rate"]
    assert list(assess._OUTCOME_READERS) == [f.name for f in dataclasses.fields(CheckOutcome)] + derived


def test_an_actor_entry_has_the_keys_of_with_actor():
    parameters = inspect.signature(ActorRegistry.with_actor).parameters
    assert set(taxonomy._ACTOR_READERS) == set(parameters) - {"self"}


#: A field that uses every key of ``FieldSpec``, in the place of ``MANIFEST``'s ``code``.
FULL_FIELD = field("code", "Code", "EhrEnforced", allowed_values=["A12"], numeric_range=[0, 1],
                   format_pattern="[A-Z][0-9]{2}", required=True, policy_condition={"field": "billable", "values": ["Y"]})
FULL_MANIFEST = dict(MANIFEST, fields=[*MANIFEST["fields"][:3], FULL_FIELD, *MANIFEST["fields"][4:]])


@pytest.mark.parametrize("cls, load, doc, path, where, required", [
    (DatasetManifest, load_manifest, FULL_MANIFEST, (), "manifest", ["dataset_id", "stage", "fields"]),
    (FieldSpec, load_manifest, FULL_MANIFEST, ("fields", 3), "manifest.fields[3]",
     ["name", "semantic_type", "entry_mode", "generating_actor"]),
    (Predicate, load_manifest, FULL_MANIFEST, ("fields", 3, "policy_condition"), "manifest.fields[3].policy_condition",
     ["field", "values"]),
    (CheckDefinition, load_suite, SUITE, (1,), "suite[1]", ["id", "kind", "target_fields"]),
], ids=["manifest", "field", "predicate", "definition"])
def test_a_document_object_requires_the_keys_of_the_fields_without_a_default(cls, load, doc, path, where, required):
    """Dropping a required key names it; dropping any other key loads its field's default."""
    loaded = load(json.dumps(doc))
    for f in dataclasses.fields(cls):
        dropped = copy.deepcopy(doc)
        del at(dropped, path)[f.name]
        if f.name in required:
            with pytest.raises(SchemaViolation) as exc:
                load(json.dumps(dropped))
            assert str(exc.value) == f"{where}.{f.name} must be given"
        else:
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            expected = dataclasses.replace(attribute_at(loaded, path), **{f.name: default})
            assert attribute_at(load(json.dumps(dropped)), path) == expected


def attribute_at(loaded, path):
    """The object a loaded document holds at a document ``path``: a key
    names an attribute, an index an item."""
    for step in path:
        loaded = getattr(loaded, step) if isinstance(step, str) else loaded[step]
    return loaded


def test_outcome_and_stratum_documents_require_every_key():
    doc = outcomes_document()
    i = next(i for i, outcome in enumerate(doc["outcomes"]) if outcome["strata"])
    sid = next(iter(doc["outcomes"][i]["strata"]))
    for path, where in [(("outcomes", i), f"outcomes[{i}]"),
                        (("outcomes", i, "strata", sid), f"outcomes[{i}].strata[{sid!r}]")]:
        for key in at(doc, path):
            dropped = copy.deepcopy(doc)
            del at(dropped, path)[key]
            with pytest.raises(SchemaViolation) as exc:
                outcomes_from_json(json.dumps(dropped))
            assert str(exc.value) == f"outcomes document.{where}.{key} must be given"

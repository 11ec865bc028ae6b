"""Differential test: ``run_check`` against a naive per-row reference.

The reference walks every row of a snapshot once per check and decides,
from that row's cells alone, whether the row is in the denominator and
whether it passes. It shares no code with the evaluator beyond the
snapshot it reads, so any disagreement is a defect in one of them.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import replace
from datetime import datetime, time, timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqlocus import assess
from dqlocus.assess import (
    UNATTRIBUTED_STRATUM,
    WHERE_REQUIRED,
    CheckDefinition,
    CheckKind,
    CheckStatus,
    Snapshots,
    parse_duration,
    run_check,
    run_suite,
)
from dqlocus.ingest import Predicate, SemanticType, Stage, load_dataset, load_manifest

FIELDS = [
    {"name": "actor_id", "semantic_type": "Code", "entry_mode": "AutoGenerated",
     "generating_actor": "EHRSystem"},
    {"name": "billable", "semantic_type": "Category", "entry_mode": "AutoGenerated",
     "generating_actor": "EHRSystem"},
    {"name": "code", "semantic_type": "Code", "entry_mode": "EhrEnforced",
     "generating_actor": "Clinician", "allowed_values": ["A", "B", "C"],
     "policy_condition": {"field": "billable", "values": ["Y"]}},
    {"name": "label", "semantic_type": "Text", "entry_mode": "FreeEntry",
     "generating_actor": "Clinician", "format_pattern": "[A-Z]{2}", "required": True},
    {"name": "age", "semantic_type": "Number", "entry_mode": "FreeEntry",
     "generating_actor": "Clinician"},
    {"name": "injury_date", "semantic_type": "Date", "entry_mode": "FreeEntry",
     "generating_actor": "Clinician"},
    {"name": "visit_date", "semantic_type": "Date", "entry_mode": "AutoGenerated",
     "generating_actor": "EHRSystem"},
    {"name": "recorded_at", "semantic_type": "Timestamp", "entry_mode": "AutoGenerated",
     "generating_actor": "EHRSystem"},
    {"name": "available_at", "semantic_type": "Timestamp", "entry_mode": "AutoGenerated",
     "generating_actor": "EHRSystem"},
    # a typed column whose tests read str() of the value: -0.0 == 0.0 and
    # NaN != NaN as values, but each prints as itself
    {"name": "score", "semantic_type": "Number", "entry_mode": "FreeEntry",
     "generating_actor": "Clinician", "allowed_values": ["0.0", "1.0", "nan"]},
]
MANIFEST = load_manifest(json.dumps({
    "dataset_id": "ref", "stage": "SourceExtract", "fields": FIELDS,
    "actor_id_column": "actor_id",
}))
NAMES = [f["name"] for f in FIELDS]

MISSING = st.sampled_from(["", "NA"])


def cells(typed, *malformed):
    """Typed cells about half the time, malformed and missing ones the rest."""
    return st.one_of(typed, typed, st.sampled_from(malformed), MISSING)


def hours(h):
    """Timestamp ``h`` hours after 2024-01-01T00:00."""
    return f"2024-01-{1 + h // 24:02d}T{h % 24:02d}:00:00"


DAYS = st.integers(1, 9).map(lambda d: f"2024-01-0{d}")
CELLS = {
    "actor_id": st.sampled_from(["a", "b", "c", ""]),
    "billable": st.sampled_from(["Y", "N", ""]),
    "code": st.one_of(st.sampled_from(["A", "B", "C", "Z"]), MISSING),
    "label": st.one_of(st.sampled_from(["AB", "XY", "abc", "A1"]), MISSING),
    "age": cells(st.one_of(st.integers(-5, 150).map(str), st.just("12.5")), "bad", "1..2"),
    "injury_date": cells(DAYS, "2024-13-01", "x"),
    "visit_date": cells(DAYS, "later"),
    # one instant, written naive and with an offset
    "recorded_at": cells(st.sampled_from(["2024-01-01T06:00:00", "2024-01-01T07:00:00+01:00"]), "soon"),
    # the sampled hours sit on or next to each max_lag boundary below
    "available_at": cells(
        st.one_of(st.sampled_from([5, 6, 7, 8, 9, 36, 37, 54, 55]), st.integers(0, 80)).map(hours),
        "never",
    ),
    "score": cells(st.sampled_from(["-0.0", "0", "-0", "nan", "NaN", "1", "2.5"]), "x"),
}
ROWS = st.lists(st.fixed_dictionaries(CELLS), max_size=30)

SUBSETS = st.sampled_from([
    None,
    WHERE_REQUIRED,
    Predicate("billable", frozenset({"Y"})),
    Predicate("code", frozenset({"A", "B"})),
    Predicate("score", frozenset({"0.0", "nan"})),
    Predicate("score", frozenset({"-0.0", "1.0"})),
    Predicate("age", frozenset({"None", "12.5"})),
])


ROW_KINDS = [
    CheckKind.COMPLETENESS, CheckKind.CONFORMANCE_VALUE, CheckKind.CONFORMANCE_FORMAT,
    CheckKind.PLAUSIBILITY_RANGE, CheckKind.PLAUSIBILITY_TEMPORAL, CheckKind.TIMELINESS,
]


@st.composite
def definitions(draw, kind):
    config: dict = {}
    if kind is CheckKind.COMPLETENESS:
        fields = (draw(st.sampled_from(NAMES)),)
    elif kind is CheckKind.CONFORMANCE_VALUE:
        fields = (draw(st.sampled_from(["code", "score"])),)
    elif kind is CheckKind.CONFORMANCE_FORMAT:
        fields = (draw(st.sampled_from(["label", "age", "injury_date", "recorded_at", "score"])),)
    elif kind is CheckKind.PLAUSIBILITY_RANGE:
        fields = (draw(st.sampled_from(["age", "score"])),)
        top = 150 if fields == ("age",) else 2  # a score range often leaves out 0
        lo = draw(st.integers(-5 if top == 150 else -1, top))
        config = {"min": lo, "max": draw(st.integers(lo, top))}
    elif kind is CheckKind.PLAUSIBILITY_TEMPORAL:
        fields = draw(st.sampled_from([("injury_date", "visit_date"), ("visit_date", "recorded_at")]))
    else:
        fields = ("recorded_at", "available_at")
        config = {"max_lag": draw(st.sampled_from(["1h", "30h", "2d", 7200]))}
    return CheckDefinition(id="ref", kind=kind, target_fields=fields, subset=draw(SUBSETS), config=config)


#: One definition of every row kind, each evaluated without and with strata.
SUITES = st.tuples(*(definitions(kind) for kind in ROW_KINDS)).map(
    lambda defs: [replace(d, stratify_by_actor=s) for d in defs for s in (False, True)]
)


def snapshot_of(rows: list[dict]):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(NAMES)
    writer.writerows([row[n] for n in NAMES] for row in rows)
    return load_dataset(buffer.getvalue(), MANIFEST)


# --- the reference ----------------------------------------------------------

def typed(snapshot, name, i):
    col = snapshot.columns[name]
    return i not in col.missing and all(row != i for row, _ in col.failures)


def as_datetime(snapshot, name, i):
    """Row i's Date (at its midnight) or Timestamp (its microseconds since
    1970-01-01T00:00, in naive UTC) as a datetime."""
    value = snapshot.columns[name].values[i]
    if snapshot.manifest.get_field(name).semantic_type is SemanticType.TIMESTAMP:
        return datetime(1970, 1, 1) + timedelta(microseconds=value)
    return datetime.combine(value, time.min)


def text_of(snapshot, name, i):
    """The text of row i's typed value: ``str()`` of it, or of the naive
    UTC datetime of a Timestamp."""
    if snapshot.manifest.get_field(name).semantic_type is SemanticType.TIMESTAMP:
        return str(as_datetime(snapshot, name, i))
    return str(snapshot.columns[name].values[i])


def value_in(snapshot, name, i, values):
    return typed(snapshot, name, i) and text_of(snapshot, name, i) in values


def in_subset(snapshot, definition, i):
    subset = definition.subset
    if subset is None:
        return True
    if subset == WHERE_REQUIRED:
        spec = snapshot.manifest.get_field(definition.target_fields[0])
        if spec.policy_condition is not None:
            return value_in(snapshot, spec.policy_condition.field, i, spec.policy_condition.values)
        return spec.required
    return value_in(snapshot, subset.field, i, subset.values)


def verdict(snapshot, definition, i):
    """("skip",) when row i is outside the denominator, else ("pass",) or
    ("fail", reason)."""
    kind, fields, cfg = definition.kind, definition.target_fields, definition.config
    col = snapshot.columns[fields[0]]
    value = col.values[i]
    present = i not in col.missing
    if kind is CheckKind.COMPLETENESS:
        if not present:
            return ("fail", "missing")
        return ("pass",) if typed(snapshot, fields[0], i) else ("fail", "malformed")
    if kind in (CheckKind.CONFORMANCE_VALUE, CheckKind.CONFORMANCE_FORMAT):
        if not present:
            return ("skip",)
        if not typed(snapshot, fields[0], i):
            return ("fail", "malformed")
        spec = snapshot.manifest.get_field(fields[0])
        if kind is CheckKind.CONFORMANCE_VALUE:
            text = text_of(snapshot, fields[0], i)
            return ("pass",) if text in spec.allowed_values else ("fail", f"value not allowed: {text}")
        if spec.format_pattern is None:
            return ("pass",)
        ok = isinstance(value, str) and re.fullmatch(spec.format_pattern, value)
        return ("pass",) if ok else ("fail", f"pattern mismatch: {value}")
    if not all(typed(snapshot, name, i) for name in fields):
        return ("skip",)
    if kind is CheckKind.PLAUSIBILITY_RANGE:
        ok = float(cfg["min"]) <= value <= float(cfg["max"])
        return ("pass",) if ok else ("fail", f"out of range: {value}")
    before, after = as_datetime(snapshot, fields[0], i), as_datetime(snapshot, fields[1], i)
    if kind is CheckKind.PLAUSIBILITY_TEMPORAL:
        ok = before <= after
        return ("pass",) if ok else ("fail", f"{fields[0]} after {fields[1]}")
    lag, max_lag = after - before, parse_duration(cfg["max_lag"])
    if lag < timedelta(0):
        return ("fail", "NegativeLag")
    return ("fail", f"lag {lag} exceeds {max_lag}") if lag > max_lag else ("pass",)


def reference(snapshot, definition):
    """(numerator, denominator, violations, strata) computed row by row."""
    numerator = denominator = 0
    violations = []
    strata: dict[str, list[int]] = {}
    actors = snapshot.columns["actor_id"].values
    for i in range(snapshot.row_count):
        if not in_subset(snapshot, definition, i):
            continue
        result = verdict(snapshot, definition, i)
        if result[0] == "skip":
            continue
        actor = UNATTRIBUTED_STRATUM if actors[i] is None else actors[i]
        counts = strata.setdefault(actor, [0, 0])
        denominator += 1
        counts[1] += 1
        if result[0] == "pass":
            numerator += 1
            counts[0] += 1
        else:
            violations.append((i, result[1]))
    if not definition.stratify_by_actor or not denominator:
        strata = None
    return numerator, denominator, violations, strata


def evaluated(snapshot, definition):
    outcome = run_check(definition, Snapshots(source=snapshot))
    strata = None
    if outcome.strata is not None:
        strata = {sid: [s.numerator, s.denominator] for sid, s in outcome.strata.items()}
    return outcome, (outcome.numerator, outcome.denominator, list(outcome.violations), strata)


def assert_violation_pairs(outcome):
    """What a reader of a row kind's outcome may rely on: each violation is
    an exact tuple of an int row and a str reason, the rows ascend strictly
    from 0 up, and each row judged and failed has one violation."""
    for v in outcome.violations:
        assert type(v) is tuple and len(v) == 2 and type(v[0]) is int and type(v[1]) is str, v
    rows = [-1] + [row for row, _ in outcome.violations]
    assert all(a < b for a, b in zip(rows, rows[1:])), rows
    assert len(outcome.violations) == outcome.denominator - outcome.numerator


# --- properties -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(rows=ROWS, suite=SUITES)
def test_evaluator_equals_reference(rows, suite):
    snapshot = snapshot_of(rows)
    for definition in suite:
        outcome, got = evaluated(snapshot, definition)
        assert got == reference(snapshot, definition), definition
        assert_violation_pairs(outcome)
        expected_status = CheckStatus.OK if outcome.denominator else CheckStatus.NOT_ASSESSABLE
        assert outcome.status is expected_status
        if outcome.strata is not None:
            assert sum(s.numerator for s in outcome.strata.values()) == outcome.numerator
            assert sum(s.denominator for s in outcome.strata.values()) == outcome.denominator


def test_signed_zeros_and_nans_are_judged_cell_by_cell():
    """Equal typed values that print apart, and NaNs that equal nothing,
    each get their own verdict and reason: no per-value memo may merge
    them."""
    cells = {name: "" for name in NAMES}
    scores = ["0", "-0.0", "nan", "0.0", "-0", "NaN", "2.5"]
    snapshot = snapshot_of([dict(cells, actor_id="a", score=score) for score in scores])
    suite = [
        CheckDefinition(id="value", kind=CheckKind.CONFORMANCE_VALUE, target_fields=("score",)),
        CheckDefinition(id="range", kind=CheckKind.PLAUSIBILITY_RANGE, target_fields=("score",),
                        config={"min": 1, "max": 3}),
        CheckDefinition(id="subset", kind=CheckKind.COMPLETENESS, target_fields=("label",),
                        subset=Predicate("score", frozenset({"0.0", "nan"}))),
    ]
    for definition in suite:
        assert evaluated(snapshot, definition)[1] == reference(snapshot, definition), definition.id
    value, _ = evaluated(snapshot, suite[0])
    assert list(value.violations) == [
        (1, "value not allowed: -0.0"), (4, "value not allowed: -0.0"), (6, "value not allowed: 2.5"),
    ]


def test_subset_values_match_the_text_of_typed_cells_only():
    """A subset value is compared with ``str()`` of a typed cell's value: a
    malformed or missing cell matches no value, not even "None", and a
    Number cell written 1 matches "1.0", not "1"."""
    cells = {name: "" for name in NAMES}
    snapshot = snapshot_of([dict(cells, age=age) for age in ["bad", "", "1", "1.0", "12.5"]])

    def denominator(values):
        definition = CheckDefinition(id="subset", kind=CheckKind.COMPLETENESS, target_fields=("label",),
                                     subset=Predicate("age", frozenset(values)))
        outcome, got = evaluated(snapshot, definition)
        assert got == reference(snapshot, definition)
        return outcome.denominator

    assert denominator({"None"}) == 0
    assert denominator({"1.0"}) == 2
    assert denominator({"1"}) == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=ROWS, suite=SUITES)
def test_shuffling_rows_leaves_counts_unchanged(data, rows, suite):
    shuffled = data.draw(st.permutations(rows))
    for definition in suite:
        before, _ = evaluated(snapshot_of(rows), definition)
        after, _ = evaluated(snapshot_of(shuffled), definition)
        assert (after.numerator, after.denominator) == (before.numerator, before.denominator)
        assert after.strata == before.strata
        assert sorted(reason for _, reason in after.violations) == sorted(reason for _, reason in before.violations)


# --- DegeneracyByActor -----------------------------------------------------

def degeneracy_reference(snapshot, name, cfg):
    """(strata, violations, details), each actor screened from its own rows:
    an attributed actor with at least ``min_records`` rows is flagged when
    it records no typed value, or when one value's text makes up at least
    ``max_dominant_share`` of what it records (ties go to the larger text)."""
    min_records = cfg.get("min_records", 10)
    threshold = Fraction(str(cfg.get("max_dominant_share", 1)))
    actors = [UNATTRIBUTED_STRATUM if a is None else a for a in snapshot.columns["actor_id"].values]
    strata, violations, flagged = {}, [], {}
    for actor in sorted(set(actors)):
        rows = [i for i in range(snapshot.row_count) if actors[i] == actor]
        if actor == UNATTRIBUTED_STRATUM or len(rows) < min_records:
            strata[actor] = (0, 0, ())
            continue
        recorded = [text_of(snapshot, name, i) for i in rows if typed(snapshot, name, i)]
        flags = ()
        if not recorded:
            flags = ("NeverRecords",)
        else:
            top = max(recorded.count(text) for text in recorded)
            dominant = max(text for text in recorded if recorded.count(text) == top)
            share = Fraction(top, len(recorded))
            if share >= threshold:
                flags = ("AlwaysSame",)
                flagged[actor] = {"dominant_value": dominant, "share": str(share)}
        strata[actor] = (1 if flags else 0, 1, flags)
        violations += [(i, f"{actor}: {'+'.join(flags)}") for i in rows if flags]
    details = {"min_records": min_records, "max_dominant_share": str(threshold), "flagged_actors": flagged}
    return strata, sorted(violations), details


#: Shares on and beside the boundaries that small actor groups reach.
SHARES = st.sampled_from([0, 1, "1", "1/2", "2/3", "3/4", 0.5, "0.75", "1/3", "0.5001"]) | st.builds(
    lambda k, n: f"{k}/{n}", st.integers(0, 5), st.integers(1, 5)
)


def degeneracy_outcome(snapshot, name, config):
    definition = CheckDefinition(id="d", kind=CheckKind.DEGENERACY_BY_ACTOR, target_fields=(name,), config=config)
    outcome = run_check(definition, Snapshots(source=snapshot))
    strata = {sid: (s.numerator, s.denominator, tuple(f.value for f in s.flags)) for sid, s in outcome.strata.items()}
    return outcome, (strata, list(outcome.violations), outcome.details)


@settings(max_examples=200, deadline=None)
@given(
    rows=ROWS,
    name=st.sampled_from(NAMES),
    min_records=st.none() | st.integers(0, 8),
    share=st.none() | SHARES,
)
def test_degeneracy_equals_reference(rows, name, min_records, share):
    snapshot = snapshot_of(rows)
    drawn = {"min_records": min_records, "max_dominant_share": share}
    config = {key: value for key, value in drawn.items() if value is not None}  # absent: the default
    outcome, got = degeneracy_outcome(snapshot, name, config)
    expected = degeneracy_reference(snapshot, name, config)
    assert got == expected
    assert outcome.numerator == sum(s[0] for s in expected[0].values())
    assert outcome.denominator == sum(s[1] for s in expected[0].values())
    expected_status = CheckStatus.OK if outcome.denominator else CheckStatus.NOT_ASSESSABLE
    assert outcome.status is expected_status


def test_degeneracy_boundaries():
    """Actor a has 4 rows recording 0.0, 0.0, -0.0 and 1 in the score
    column: 4 rows meet min_records 4, and 0.0 has a share of exactly 1/2
    (-0.0 is another text)."""
    cells = {name: "" for name in NAMES}
    scores = ["0.0", "0", "-0.0", "1"]
    snapshot = snapshot_of([dict(cells, actor_id="a", score=score) for score in scores])
    for min_records, share, flagged in [(4, "1/2", True), (5, "1/2", False), (4, "0.5001", False), (0, 0.5, True)]:
        outcome, got = degeneracy_outcome(snapshot, "score", {"min_records": min_records, "max_dominant_share": share})
        assert got == degeneracy_reference(snapshot, "score", {"min_records": min_records, "max_dominant_share": share})
        assert outcome.numerator == int(flagged)
        if flagged:
            assert outcome.details["flagged_actors"] == {"a": {"dominant_value": "0.0", "share": "1/2"}}


# --- MappingSuccess ---------------------------------------------------------

PAIRED_FIELDS = [
    {"name": "record_id", "semantic_type": "Code", "entry_mode": "AutoGenerated",
     "generating_actor": "EHRSystem"},
    {"name": "actor_id", "semantic_type": "Code", "entry_mode": "AutoGenerated",
     "generating_actor": "EHRSystem"},
    {"name": "code", "semantic_type": "Code", "entry_mode": "FreeEntry",
     "generating_actor": "Clinician"},
    {"name": "age", "semantic_type": "Number", "entry_mode": "FreeEntry",
     "generating_actor": "Clinician"},
]
MAPPED = {"name": "code_mapped", "semantic_type": "Code", "entry_mode": "AutoGenerated",
          "generating_actor": "DataEngineer"}
PAIRED_MANIFESTS = {
    stage: load_manifest(json.dumps({
        "dataset_id": "paired", "stage": stage, "key_column": "record_id",
        "actor_id_column": "actor_id", "fields": PAIRED_FIELDS + extra,
    }))
    for stage, extra in (("SourceExtract", []), ("TransformedExtract", [MAPPED]))
}
#: Source field and transformed field: the same column, or a renamed one.
MAPPINGS = [("code",), ("age",), ("code", "code_mapped"), ("age", "code_mapped")]

PAIRED_CELLS = {
    "actor_id": st.sampled_from(["a", "b", ""]),
    "code": st.sampled_from(["A", "B", "", "NA"]),
    "age": cells(st.integers(0, 99).map(str), "bad"),  # malformed is present, not missing
    "code_mapped": st.sampled_from(["X", ""]),
}


def paired_csv(stage, keys, rows):
    names = [f.name for f in PAIRED_MANIFESTS[stage].fields]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([key] + [row[n] for n in names[1:]] for key, row in zip(keys, rows))
    return load_dataset(buffer.getvalue(), PAIRED_MANIFESTS[stage])


@st.composite
def paired_snapshots(draw):
    """Source and transformed snapshots over the same keys, the transformed
    rows in another order. Keys that read as numbers sort differently as
    text, which the pairing must not mind."""
    keys = [str(k) for k in draw(st.lists(st.integers(0, 200), unique=True, max_size=25))]
    rows = st.fixed_dictionaries(PAIRED_CELLS)
    source = paired_csv("SourceExtract", keys, draw(st.lists(rows, min_size=len(keys), max_size=len(keys))))
    order = draw(st.permutations(keys))
    transformed = paired_csv(
        "TransformedExtract", order, draw(st.lists(rows, min_size=len(keys), max_size=len(keys)))
    )
    return source, transformed


def mapping_reference(source, transformed, fields):
    """(numerator, denominator, violations): every source row with a value
    in ``fields[0]``, looked up by key in the transformed snapshot, passes
    unless the transformed ``fields[-1]`` cell is missing."""
    src_keys = source.columns["record_id"].values
    dst_keys = transformed.columns["record_id"].values
    numerator = denominator = 0
    violations = []
    for i in range(source.row_count):
        if i in source.columns[fields[0]].missing:
            continue
        denominator += 1
        j = dst_keys.index(src_keys[i])
        if j in transformed.columns[fields[-1]].missing:
            violations.append((i, f"unmapped (key {src_keys[i]})"))
        else:
            numerator += 1
    return numerator, denominator, violations


@settings(max_examples=200, deadline=None)
@given(pair=paired_snapshots())
def test_mapping_success_equals_reference(pair):
    source, transformed = pair
    snapshots = Snapshots(source=source, transformed=transformed)
    for fields in MAPPINGS:
        definition = CheckDefinition(id="m", kind=CheckKind.MAPPING_SUCCESS, target_fields=fields)
        outcome = run_check(definition, snapshots)
        got = (outcome.numerator, outcome.denominator, list(outcome.violations))
        assert got == mapping_reference(source, transformed, fields), fields
        assert_violation_pairs(outcome)
        assert outcome.details == {"key_column": "record_id"}


def counting(monkeypatch, name):
    """Replace ``assess.<name>`` with a wrapper that records the stage of
    the snapshot it is called with."""
    original = getattr(assess, name)
    calls = []

    def counted(snapshot, *args):
        calls.append(snapshot.manifest.stage.value)
        return original(snapshot, *args)

    monkeypatch.setattr(assess, name, counted)
    return calls


#: One fully recorded row, for tests that need keys more than cells.
ROW = {"actor_id": "a", "code": "A", "age": "40", "code_mapped": "X"}


def test_a_suite_builds_each_key_index_and_actor_map_once(monkeypatch):
    key_index_calls = counting(monkeypatch, "_key_index")
    actor_calls = counting(monkeypatch, "_actor_ids")
    keys = [f"r{i}" for i in range(6)]
    source = paired_csv("SourceExtract", keys, [ROW] * 6)
    transformed = paired_csv("TransformedExtract", keys[::-1], [ROW] * 6)
    suite = [
        CheckDefinition(id=f"mapping:{'/'.join(fields)}", kind=CheckKind.MAPPING_SUCCESS, target_fields=fields)
        for fields in MAPPINGS
    ] + [
        CheckDefinition(id=f"complete:{name}@{stage.value}", kind=CheckKind.COMPLETENESS,
                        target_fields=(name,), stage=stage, stratify_by_actor=True)
        for name in ("code", "age") for stage in (Stage.SOURCE, Stage.TRANSFORMED)
    ] + [
        CheckDefinition(id="degeneracy:code", kind=CheckKind.DEGENERACY_BY_ACTOR,
                        target_fields=("code",), stage=Stage.SOURCE, config={"min_records": 1}),
    ]
    outcomes = run_suite(suite, Snapshots(source=source, transformed=transformed))
    assert [o.status for o in outcomes] == [CheckStatus.OK] * len(suite)
    assert sorted(key_index_calls) == ["SourceExtract", "TransformedExtract"]
    assert sorted(actor_calls) == ["SourceExtract", "TransformedExtract"]


@pytest.mark.parametrize("source_keys, transformed_keys, error", [
    (["r0", "r0", "r1"], ["r0", "r1", "r2"], "KeyMismatch: duplicate key values: ['r0']"),
    (["r0", "r1", "r2"], ["r0", "r1", "r9"],
     "KeyMismatch: keys only in source: ['r2']; only in transformed: ['r9']"),
    (["r0", "", "r2"], ["r0", "r1", "r2"], "KeyMismatch: row 1 has no key value in SourceExtract"),
])
def test_a_bad_key_pair_errors_every_mapping_check_alike(source_keys, transformed_keys, error):
    source = paired_csv("SourceExtract", source_keys, [ROW] * 3)
    transformed = paired_csv("TransformedExtract", transformed_keys, [ROW] * 3)
    suite = [
        CheckDefinition(id=f"m{n}", kind=CheckKind.MAPPING_SUCCESS, target_fields=fields)
        for n, fields in enumerate(MAPPINGS)
    ]
    outcomes = run_suite(suite, Snapshots(source=source, transformed=transformed))
    assert [(o.status, o.error) for o in outcomes] == [(CheckStatus.ERRORED, error)] * len(suite)

"""The outcomes document: its bytes and its round trip.

``outcomes_to_json`` writes each violation from its int row and its
reason, encoded once per distinct reason by the function ``json.dumps``
encodes a string with, and the rest of each outcome with ``json.dumps``;
one join makes the document. Whatever the outcomes hold, the bytes must
be those of one ``json.dumps(..., indent=2, sort_keys=True)`` call over
the whole document.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dqlocus.assess import (
    CHECK_KINDS,
    CheckKind,
    CheckOutcome,
    CheckStatus,
    DegeneracyFlag,
    StratumOutcome,
    outcome_from_dict,
    outcome_to_dict,
    outcomes_from_json,
    outcomes_to_json,
)
from dqlocus.errors import SchemaViolation
from dqlocus.ingest import Stage
from dqlocus.taxonomy import core_parameters

#: Text the encoder must escape or pass through: quotes, backslashes,
#: control characters, separators in line-based framings, non-ASCII.
AWKWARD = ['"', "\\", "\n", "\r\n", "\x00", "\x1f", "\t", "]\n[", ",\n", " ", "é", "日本", "😀", ""]
TEXT = st.text(max_size=12) | st.sampled_from(AWKWARD)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def json_values():
    """JSON values that read back equal."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | FINITE | TEXT,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=12,
    )


#: Each kind's details, key by key, as its ``KindSpec.details`` table
#: reads them: a nested object has every key it lists.
DETAIL_VALUES = {
    CheckKind.COMPLETENESS: {"policy_explained": st.booleans(), "policy_text": TEXT},
    CheckKind.CONFORMANCE_VALUE: {},
    CheckKind.CONFORMANCE_FORMAT: {},
    CheckKind.PLAUSIBILITY_RANGE: {"min": TEXT, "max": TEXT},
    CheckKind.PLAUSIBILITY_TEMPORAL: {},
    CheckKind.DEGENERACY_BY_ACTOR: {
        "min_records": st.integers(),
        "max_dominant_share": TEXT,
        "flagged_actors": st.dictionaries(
            TEXT, st.fixed_dictionaries({"dominant_value": TEXT, "share": TEXT}), max_size=3
        ),
    },
    CheckKind.TIMELINESS: {
        "max_lag_seconds": FINITE,
        "lag_seconds": st.fixed_dictionaries(dict.fromkeys(("min", "median", "max"), FINITE)),
    },
    CheckKind.MAPPING_SUCCESS: {"key_column": TEXT},
}
TABLE_KEYS = {key for values in DETAIL_VALUES.values() for key in values}


def details(kind):
    """Details of ``kind`` as its table reads them, each key optional."""
    return st.fixed_dictionaries({}, optional=DETAIL_VALUES[kind])


#: Values no details reader takes: a NaN (unequal to itself), an infinity
#: (no JSON number), a Fraction and a tuple (no JSON value).
REJECTED = st.sampled_from([float("nan"), float("inf"), float("-inf"), Fraction(1, 2), (1, 2)])

#: Beside those, what the reader of a nested key rejects: an int actor id,
#: and lags without a median.
REJECTED_BY_KEY = {
    "flagged_actors": st.just({1: {"dominant_value": "x", "share": "1"}}),
    "lag_seconds": st.just({"min": 0.0, "max": 1.0}),
}


@st.composite
def broken_details(draw, kind):
    """Details of ``kind`` with a key that no table lists, a str or an int,
    or with one listed key whose value its reader rejects."""
    drawn = draw(details(kind))
    if DETAIL_VALUES[kind] and draw(st.booleans()):
        key = draw(st.sampled_from(list(DETAIL_VALUES[kind])))
        drawn[key] = draw(REJECTED | REJECTED_BY_KEY.get(key, st.nothing()))
    else:
        drawn[draw(TEXT.filter(lambda key: key not in TABLE_KEYS) | st.integers())] = draw(json_values())
    return drawn


def counts(high: int):
    """(numerator, denominator) with 0 <= numerator <= denominator <= high."""
    return st.integers(0, high).flatmap(lambda d: st.tuples(st.integers(0, d), st.just(d)))


FLAGS = st.lists(st.sampled_from(list(DegeneracyFlag)), max_size=2).map(tuple)

STRATA = st.dictionaries(
    TEXT, st.builds(lambda c, flags: StratumOutcome(*c, flags), counts(10**6), FLAGS), max_size=3
)

#: Reasons that repeat within an outcome, as ``missing`` and ``malformed``
#: do in a pass, so that the writer encodes each distinct one once.
REPEATED = st.sampled_from(["missing", "malformed", *AWKWARD[:5]])

#: ``[row, reason]`` pairs at distinct rows ascending from 0, as ``run_check``
#: writes them and ``CheckOutcome`` checks.
VIOLATIONS = st.lists(
    st.tuples(st.integers(0, 10**9), REPEATED | TEXT), max_size=8, unique_by=lambda v: v[0]
).map(sorted).map(tuple)


@st.composite
def outcome(draw):
    """An outcome whose counts and violation rows keep ``CheckOutcome``'s
    rules, which it checks when built: the strata come first, when there are any, and the
    totals are summed from them, as ``run_check`` sums them. Its details
    are drawn from its kind's table. An errored outcome carries no
    measurement, as ``run_suite`` writes it."""
    kind = draw(st.sampled_from(list(CheckKind)))
    identity = dict(
        check_id=draw(TEXT),
        kind=kind,
        target_fields=draw(st.lists(TEXT, max_size=2).map(tuple)),
        stage=draw(st.none() | st.sampled_from(list(Stage))),
        subset=draw(st.none() | TEXT),
    )
    error = draw(st.none() | TEXT)
    if error is not None:
        return CheckOutcome(**identity, error=error)
    strata = draw(st.none() | STRATA)
    if strata is None:
        numerator, denominator = draw(counts(10**9))
    else:
        numerator = sum(s.numerator for s in strata.values())
        denominator = sum(s.denominator for s in strata.values())
    return CheckOutcome(
        **identity,
        numerator=numerator,
        denominator=denominator,
        strata=strata,
        violations=draw(VIOLATIONS),
        details=draw(details(kind)),
    )


def outcomes():
    return st.lists(outcome(), max_size=4)


def reference_json(xs: list[CheckOutcome]) -> str:
    doc = {"schema_version": "1", "outcomes": [outcome_to_dict(o) for o in xs]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=150, deadline=None)
@given(xs=outcomes())
def test_outcomes_json_is_the_indented_json_dumps_form(xs):
    assert outcomes_to_json(xs) == reference_json(xs)


@settings(max_examples=100, deadline=None)
@given(xs=outcomes())
def test_outcomes_survive_a_json_round_trip(xs):
    text = outcomes_to_json(xs)
    assert outcomes_from_json(text) == xs
    assert outcomes_from_json(text.encode()) == xs


@settings(max_examples=100, deadline=None)
@given(o=outcome())
def test_outcome_to_dict_is_what_json_reads_back_and_outcome_from_dict_reads_it(o):
    """``outcome_to_dict`` writes violations as ``[row, reason]`` lists,
    as a JSON reader returns them, not as the outcome's tuples."""
    doc = outcome_to_dict(o)
    assert doc == json.loads(json.dumps(doc))
    assert doc["violations"] == [[row, reason] for row, reason in o.violations]
    assert outcome_from_dict(doc, "outcome") == o


def test_empty_and_full_documents():
    assert outcomes_to_json([]) == '{\n  "outcomes": [],\n  "schema_version": "1"\n}\n'
    outcome = CheckOutcome(
        check_id="c", kind=CheckKind.COMPLETENESS, numerator=1, denominator=3,
        violations=((0, 'a "quoted"\nreason'), (2, "]\n[")),
    )
    assert outcomes_to_json([outcome, outcome]) == reference_json([outcome, outcome])


@pytest.mark.parametrize("violations", [
    [[0, ["a", "b"]]],
    [[0, {"a": 1}]],
    [["0", "reason"]],
    [[True, "reason"]],
    [[0, "reason", "extra"]],
    [[0]],
    {"0": "reason"},
])
def test_a_violation_that_is_not_an_int_and_a_string_is_rejected(violations):
    doc = json.loads(outcomes_to_json([CheckOutcome(
        check_id="c", kind=CheckKind.COMPLETENESS, numerator=0, denominator=1,
        violations=((0, "missing"),),
    )]))
    doc["outcomes"][0]["violations"] = violations
    with pytest.raises(SchemaViolation, match="violations"):
        outcomes_from_json(json.dumps(doc))


# --- what an outcome derives ------------------------------------------------

def test_an_outcome_stores_no_status_parameter_or_rate():
    assert not {"parameter", "status", "rate"} & {f.name for f in dataclasses.fields(CheckOutcome)}


@pytest.mark.parametrize("numerator, denominator, error, status, parameter, rate", [
    (1, 2, None, CheckStatus.OK, "Timeliness", Fraction(1, 2)),
    (0, 0, None, CheckStatus.NOT_ASSESSABLE, "Timeliness", None),
    (0, 0, "", CheckStatus.ERRORED, None, None),
    (0, 0, "MissingConfig: no max_lag", CheckStatus.ERRORED, None, None),
])
def test_status_parameter_and_rate_follow_from_the_counts_and_error(
    numerator, denominator, error, status, parameter, rate
):
    o = CheckOutcome("c", CheckKind.TIMELINESS, numerator, denominator, error=error)
    assert (o.status, o.parameter and o.parameter.name, o.rate) == (status, parameter, rate)


#: Values a derived key might be replaced with: the other parameters,
#: statuses and rates, an unreduced rate, and any JSON value.
REPLACEMENTS = st.sampled_from(
    [None, *(p.name for p in core_parameters()), *(s.value for s in CheckStatus), "0", "1", "1/2", "2/4"]
) | json_values()


@settings(max_examples=200, deadline=None)
@given(o=outcome(), key=st.sampled_from(["parameter", "status", "rate"]), data=st.data())
def test_a_derived_key_that_differs_from_the_outcome_is_rejected_at_its_path(o, key, data):
    doc = json.loads(outcomes_to_json([o]))
    written = doc["outcomes"][0][key]
    doc["outcomes"][0][key] = data.draw(REPLACEMENTS.filter(lambda value: value != written))
    with pytest.raises(SchemaViolation, match=re.escape(f"outcomes document.outcomes[0].{key} must be {written!r}, got")):
        outcomes_from_json(json.dumps(doc))


# --- the count invariants, pinned ---------------------------------------------

STRATIFIED = CheckOutcome(
    "c", CheckKind.COMPLETENESS, 3, 4, strata={"a": StratumOutcome(1, 2), "b": StratumOutcome(2, 2)}
)


def strata(a: tuple[int, int], b: tuple[int, int]) -> dict:
    return {sid: {"numerator": n, "denominator": d, "flags": []} for sid, (n, d) in zip("ab", (a, b))}


@pytest.mark.parametrize("edit, message", [
    ({"numerator": -5}, "outcomes[0].numerator must be from 0 to the denominator 4, got -5"),
    ({"numerator": 9, "status": "NotAssessable", "parameter": "Timeliness", "rate": "1/2"},
     "outcomes[0].numerator must be from 0 to the denominator 4, got 9"),
    ({"strata": strata((3, 2), (0, 2))}, "outcomes[0].strata['a'].numerator must be from 0 to the denominator 2, got 3"),
    ({"strata": strata((0, 2), (2, 2))},
     "outcomes[0].strata must sum to the numerator 3 and the denominator 4, got 2 and 4"),
    ({"strata": strata((1, 3), (2, 2))},
     "outcomes[0].strata must sum to the numerator 3 and the denominator 4, got 3 and 5"),
], ids=["negative-numerator", "numerator-over-denominator", "stratum-numerator-over-denominator",
        "strata-numerators-do-not-sum", "strata-denominators-do-not-sum"])
def test_counts_that_break_the_outcome_invariants_are_rejected(edit, message):
    doc = json.loads(outcomes_to_json([STRATIFIED]))
    assert outcomes_from_json(json.dumps(doc)) == [STRATIFIED]
    doc["outcomes"][0].update(edit)
    with pytest.raises(SchemaViolation, match=re.escape(f"outcomes document.{message}")):
        outcomes_from_json(json.dumps(doc))


# --- the violation rows, pinned -----------------------------------------------

@pytest.mark.parametrize("rows, message", [
    ([-4], "violations[0][0] must be above -1: rows ascend from 0, got -4"),
    ([2, 2], "violations[1][0] must be above 2: rows ascend from 0, got 2"),
    ([7, 3], "violations[1][0] must be above 7: rows ascend from 0, got 3"),
    ([0, 5, 5, 9], "violations[2][0] must be above 5: rows ascend from 0, got 5"),
    ([-4, -4, 7, 9], "violations[0][0] must be above -1: rows ascend from 0, got -4"),
], ids=["negative", "repeated", "out-of-order", "repeated-later", "negative-and-repeated"])
def test_violation_rows_that_are_negative_repeated_or_out_of_order_are_rejected(rows, message):
    doc = json.loads(outcomes_to_json([CheckOutcome("c", CheckKind.COMPLETENESS, 1, 3)]))
    doc["outcomes"][0]["violations"] = [[row, "missing"] for row in rows]
    with pytest.raises(SchemaViolation, match=re.escape(f"outcomes document.outcomes[0].{message}")):
        outcomes_from_json(json.dumps(doc))


# --- the outcome's own rules ----------------------------------------------------

def default_or(default, strategy):
    """``default`` or any value of ``strategy``: without the defaults, few
    outcomes drawn at random would be errored ones that build."""
    return st.just(default) | strategy


SIGNED = st.integers(-2, 5)

#: A count or a row as a hand-built outcome might hold it: an int half of
#: the time, else a bool or a float, which JSON writes as no int.
COUNT = SIGNED | st.sampled_from([False, True, 0.0, 2.0, float("nan"), float("inf")])

#: A reason that is not a string a third of the time.
REASON = TEXT | st.sampled_from([5, None, b"missing", 0.5])

#: A (row, reason) pair, or now and then a tuple of another length or a list.
VIOLATION = st.tuples(COUNT, REASON) | st.sampled_from([(0,), (0, "missing", "extra"), [0, "missing"]])


def seldom_a_list(draw, items):
    """``items`` as a tuple, or one time in ten as a list."""
    return list(items) if draw(st.integers(0, 9)) == 0 else tuple(items)


#: Each identifying attribute with a value of the wrong type: an id, subset
#: or error that is not a string, or a kind's or a stage's value in place
#: of the member.
NOT_A_STRING = st.sampled_from([5, 0.5, b"c", ("c",)])
MISTYPED = st.sampled_from([
    ("check_id", NOT_A_STRING | st.none()),
    ("kind", st.sampled_from([kind.value for kind in CheckKind])),
    ("stage", st.sampled_from([stage.value for stage in Stage])),
    ("subset", NOT_A_STRING),
    ("error", NOT_A_STRING),
])


@st.composite
def outcome_attributes(draw):
    """``CheckOutcome``'s attributes drawn with no regard to its rules:
    signed counts, bools and floats for counts, strata whatever their
    counts, violation rows unsorted, repeated, bool or float, reasons that
    are not strings, violations that are no pair, lists where tuples
    belong, details from the kind's table or one time in four details that
    no table reads, an optional error, and one time in four one
    identifying attribute of the wrong type."""
    kind = draw(st.sampled_from(list(CheckKind)))
    attributes = dict(
        check_id=draw(TEXT),
        kind=kind,
        numerator=draw(default_or(0, COUNT)),
        denominator=draw(default_or(0, COUNT)),
        target_fields=seldom_a_list(draw, draw(st.lists(TEXT, max_size=2))),
        stage=draw(st.none() | st.sampled_from(list(Stage))),
        subset=draw(st.none() | TEXT),
        strata=draw(default_or(None, st.dictionaries(
            TEXT, st.builds(StratumOutcome, COUNT, COUNT, FLAGS), max_size=3
        ))),
        violations=seldom_a_list(draw, draw(default_or((), st.lists(VIOLATION, max_size=4)))),
        details=draw(default_or({}, broken_details(kind) if draw(st.integers(0, 3)) == 0 else details(kind))),
        error=draw(st.none() | TEXT),
    )
    if draw(st.integers(0, 3)) == 0:
        key, values = draw(MISTYPED)
        attributes[key] = draw(values)
    return attributes


@settings(max_examples=500, deadline=None)
@given(attributes=outcome_attributes())
def test_every_outcome_that_builds_survives_a_json_round_trip(attributes):
    try:
        o = CheckOutcome(**attributes)
    except SchemaViolation:
        event("rejected")
        return
    event("errored" if o.error is not None else "built")
    assert outcomes_from_json(outcomes_to_json([o])) == [o]


def test_the_drawn_details_list_the_keys_of_every_kinds_table():
    assert {kind: set(values) for kind, values in DETAIL_VALUES.items()} == {
        kind: set(spec.details) for kind, spec in CHECK_KINDS.items()
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(list(CheckKind)))
def test_details_that_no_table_reads_do_not_build(data, kind):
    drawn = data.draw(broken_details(kind))
    with pytest.raises(SchemaViolation, match=r"^details"):
        CheckOutcome("c", kind, details=drawn)


#: The most decimal digits Python prints an int with, and an int of one more.
DIGITS = sys.get_int_max_str_digits()
TOO_LONG = 10**DIGITS
DEGENERACY = CheckKind.DEGENERACY_BY_ACTOR


class LongInt(int):
    """An int subclass: no reader takes it for an int, and of more digits
    than Python prints, its ``repr`` raises."""


@pytest.mark.parametrize("attributes, message", [
    (dict(numerator=5, denominator=3), "numerator must be from 0 to the denominator 3, got 5"),
    (dict(numerator=-1, denominator=3), "numerator must be from 0 to the denominator 3, got -1"),
    (dict(numerator=3, denominator=4, strata={"a": StratumOutcome(3, 2), "b": StratumOutcome(0, 2)}),
     "strata['a'].numerator must be from 0 to the denominator 2, got 3"),
    (dict(numerator=3, denominator=4, strata={"a": StratumOutcome(0, 2), "b": StratumOutcome(2, 2)}),
     "strata must sum to the numerator 3 and the denominator 4, got 2 and 4"),
    (dict(numerator=1, denominator=3, violations=((2, "missing"), (1, "missing"))),
     "violations[1][0] must be above 2: rows ascend from 0, got 1"),
    (dict(numerator=1, denominator=2, error="MissingConfig: no max_lag"),
     "numerator must be 0 in an errored outcome, got 1"),
    (dict(numerator=True, denominator=2), "numerator must be an integer, got True"),
    (dict(numerator=1, denominator=2, strata={"a": StratumOutcome(1, 2.0)}),
     "strata['a'].denominator must be an integer, got 2.0"),
    (dict(numerator=0, denominator=2, violations=((True, "missing"),)),
     "violations[0][0] must be an integer, got True"),
    (dict(numerator=0, denominator=2, violations=((0, "missing"), (float("nan"), "missing"))),
     "violations[1][0] must be an integer, got nan"),
    (dict(numerator=1, denominator=2, violations=((0, 5),)), "violations[0][1] must be a string, got 5"),
    (dict(numerator=1, denominator=2, violations=((1,),)), "violations[0] must be a (row, reason) pair, got (1,)"),
    (dict(numerator=1, denominator=2, violations=[(0, "missing")]), "violations must be a tuple, got list"),
    (dict(target_fields=["a"]), "target_fields must be a tuple, got list"),
    (dict(target_fields=("a", 1)), "target_fields[1] must be a string, got 1"),
    (dict(details={"lag_seconds": (0.0, 0.5, 1.0)}), "details.lag_seconds must be an object"),
    (dict(details={1: "x"}), "details must not have the keys [1]"),
    (dict(kind=DEGENERACY, details={"flagged_actors": {2: {"dominant_value": "x", "share": "1"}}}),
     "details.flagged_actors must have string keys, got 2"),
    (dict(kind=DEGENERACY, details={"max_dominant_share": Fraction(1, 2)}),
     "details.max_dominant_share must be a string"),
    (dict(details={"max_lag_seconds": float("nan")}), "details.max_lag_seconds must be a finite float, got nan"),
    (dict(details={"lag_seconds": {"min": float("-inf"), "median": 0.0, "max": 1.0}}),
     "details.lag_seconds.min must be a finite float, got -inf"),
    (dict(details=[]), "details must be a dict, got list"),
    (dict(numerator=TOO_LONG, denominator=TOO_LONG), f"numerator must be an integer of at most {DIGITS} digits"),
    (dict(numerator=0, denominator=TOO_LONG), f"denominator must be an integer of at most {DIGITS} digits"),
    (dict(numerator=1, denominator=2, strata={"a": StratumOutcome(0, TOO_LONG), "b": StratumOutcome(1, 1)}),
     f"strata['a'].denominator must be an integer of at most {DIGITS} digits"),
    (dict(numerator=0, denominator=2, violations=((0, "missing"), (TOO_LONG, "missing"))),
     f"violations[1][0] must be an integer of at most {DIGITS} digits"),
    (dict(kind=DEGENERACY, details={"min_records": -TOO_LONG}),
     f"details.min_records must be an integer of at most {DIGITS} digits"),
    (dict(kind=DEGENERACY, details={"flagged_actors": {"a": {"dominant_value": {"t": "x"}, "share": "1"}}}),
     "details.flagged_actors['a'].dominant_value must be a string"),
    (dict(subset=5), "subset must be a string or None, got 5"),
    (dict(error=b"x"), "error must be a string or None, got b'x'"),
    (dict(stage="SourceExtract"), "stage must be a Stage or None, got 'SourceExtract'"),
    (dict(kind=CheckKind.CONFORMANCE_VALUE, details={"min": "0"}), "details must not have the keys ['min']"),
    (dict(details={"lag_seconds": {"min": 0.0, "max": 1.0}}), "details.lag_seconds.median must be given"),
    (dict(details={"max_lag_seconds": 5}), "details.max_lag_seconds must be a finite float, got 5"),
    (dict(kind=DEGENERACY, details={"min_records": True}), "details.min_records must be an integer, got True"),
    (dict(kind=DEGENERACY, details={"flagged_actors": {"a": {"dominant_value": "x"}}}),
     "details.flagged_actors['a'].share must be given"),
    (dict(error="x", details={"x": 1}), "details must be {} in an errored outcome, got {'x': 1}"),
    (dict(numerator=LongInt(TOO_LONG), denominator=LongInt(TOO_LONG)),
     "numerator must be an integer, got <unprintable LongInt>"),
    (dict(details={LongInt(TOO_LONG): 1, "x": 1}), "details must not have the keys [<unprintable LongInt>, 'x']"),
    (dict(numerator=0, denominator=2, violations=((TOO_LONG, "missing"), (0, "missing"))),
     "violations[1][0] must be above <unprintable int>: rows ascend from 0, got 0"),
], ids=["numerator-over-denominator", "negative-numerator", "stratum-numerator-over-denominator",
        "strata-do-not-sum", "rows-out-of-order", "errored-with-counts", "bool-count", "float-stratum-count",
        "bool-row", "nan-row", "int-reason", "violation-not-a-pair", "violations-list", "target-fields-list",
        "int-target-field", "details-tuple", "details-int-key", "details-nested-int-key", "details-fraction",
        "details-nan", "details-infinity", "details-list", "numerator-too-many-digits",
        "denominator-too-many-digits", "stratum-count-too-many-digits", "row-too-many-digits",
        "details-int-too-many-digits", "details-too-deep", "int-subset", "bytes-error", "str-stage",
        "details-key-of-another-kind", "details-lags-without-median", "details-int-seconds",
        "details-bool-min-records", "details-flagged-without-share", "errored-with-unlisted-details",
        "unprintable-count", "unprintable-details-key", "rows-out-of-order-after-an-unprintable-row"])
def test_an_outcome_that_breaks_a_rule_does_not_build(attributes, message):
    """Each outcome is a Timeliness one unless ``attributes`` names its kind."""
    with pytest.raises(SchemaViolation) as exc:
        CheckOutcome(**{"check_id": "c", "kind": CheckKind.TIMELINESS, **attributes})
    assert str(exc.value) == message


@pytest.mark.parametrize("check_id, kind, message", [
    (1, CheckKind.COMPLETENESS, "check_id must be a string, got 1"),
    (None, CheckKind.COMPLETENESS, "check_id must be a string, got None"),
    ("c", "Completeness", "kind must be a CheckKind, got 'Completeness'"),
    (LongInt(TOO_LONG), CheckKind.COMPLETENESS, "check_id must be a string, got <unprintable LongInt>"),
], ids=["int-check-id", "none-check-id", "str-kind", "unprintable-check-id"])
def test_an_outcome_whose_id_or_kind_is_of_the_wrong_type_does_not_build(check_id, kind, message):
    with pytest.raises(SchemaViolation) as exc:
        CheckOutcome(check_id, kind)
    assert str(exc.value) == message


@pytest.mark.parametrize("attributes", [
    dict(numerator=TOO_LONG - 1, denominator=TOO_LONG - 1, violations=((TOO_LONG - 1, "x"),)),
    dict(kind=DEGENERACY, details={"min_records": -(TOO_LONG - 1)}),
], ids=["most-digits", "most-digits-min-records"])
def test_an_outcome_at_the_edge_of_each_writer_rule_builds_writes_and_reads_back(attributes):
    outcome = CheckOutcome(**{"check_id": "c", "kind": CheckKind.TIMELINESS, **attributes})
    assert outcomes_to_json([outcome]) == reference_json([outcome])
    assert outcomes_from_json(outcomes_to_json([outcome])) == [outcome]


# --- the writer's memory --------------------------------------------------------

def test_the_writer_holds_the_document_about_once_while_it_writes_it():
    """Beside its result, ``outcomes_to_json`` holds the text of each
    outcome and the pieces of the one it is writing, so its traced peak
    stays near twice the document for outcomes of thousands of violations
    each. (One outcome that holds nearly all of the document peaks at
    about 2.4 times, its pieces beside its text.)"""
    reasons = ["missing", "malformed", 'a "quoted"\nreason', "é"]
    xs = [
        CheckOutcome(f"c{k}", CheckKind.COMPLETENESS, 0, 9000,
                     violations=tuple((3 * i, reasons[(i + k) % 4]) for i in range(3000)))
        for k in range(20)
    ]
    tracemalloc.start()
    try:
        text = outcomes_to_json(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference_json(xs)
    assert peak <= 2.25 * len(text), f"traced peak {peak / len(text):.2f}x the document's length"

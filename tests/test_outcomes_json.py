"""The outcomes document: its bytes and its round trip.

``outcomes_to_json`` writes violations with the C encoder and the rest of
each outcome with ``json.dumps``. Whatever the outcomes hold, the bytes
must be those of one ``json.dumps(..., indent=2, sort_keys=True)`` call
over the whole document.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqlocus.assess import (
    CheckKind,
    CheckOutcome,
    CheckStatus,
    DegeneracyFlag,
    StratumOutcome,
    Violation,
    outcome_to_dict,
    outcomes_from_json,
    outcomes_to_json,
)
from dqlocus.errors import SchemaViolation
from dqlocus.ingest import Stage
from dqlocus.taxonomy import _PARAMETERS_BY_NAME

#: Text the encoder must escape or pass through: quotes, backslashes,
#: control characters, separators in line-based framings, non-ASCII.
AWKWARD = ['"', "\\", "\n", "\r\n", "\x00", "\x1f", "\t", "]\n[", ",\n", " ", "é", "日本", "😀", ""]
TEXT = st.text(max_size=12) | st.sampled_from(AWKWARD)


def json_values(nan: bool):
    leaves = (
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=nan, allow_infinity=True) | TEXT
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=12,
    )


def outcomes(nan: bool):
    stratum = st.builds(
        StratumOutcome,
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.lists(st.sampled_from(list(DegeneracyFlag)), max_size=2).map(tuple),
    )
    outcome = st.builds(
        CheckOutcome,
        check_id=TEXT,
        kind=st.sampled_from(list(CheckKind)),
        parameter=st.none() | st.sampled_from(list(_PARAMETERS_BY_NAME.values())),
        status=st.sampled_from(list(CheckStatus)),
        numerator=st.integers(0, 10**9),
        denominator=st.integers(0, 10**9),
        target_fields=st.lists(TEXT, max_size=2).map(tuple),
        stage=st.none() | st.sampled_from(list(Stage)),
        subset=st.none() | TEXT,
        strata=st.none() | st.dictionaries(TEXT, stratum, max_size=3),
        violations=st.lists(st.builds(Violation, st.integers(0, 10**9), TEXT), max_size=6).map(tuple),
        details=st.dictionaries(TEXT, json_values(nan), max_size=4),
        error=st.none() | TEXT,
    )
    return st.lists(outcome, max_size=4)


def reference_json(xs: list[CheckOutcome]) -> str:
    doc = {"schema_version": "1", "outcomes": [outcome_to_dict(o) for o in xs]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=150, deadline=None)
@given(xs=outcomes(nan=True))
def test_outcomes_json_is_the_indented_json_dumps_form(xs):
    assert outcomes_to_json(xs) == reference_json(xs)


@settings(max_examples=100, deadline=None)
@given(xs=outcomes(nan=False))
def test_outcomes_survive_a_json_round_trip(xs):
    """For JSON-native details (NaN is unequal to itself, so none here)."""
    text = outcomes_to_json(xs)
    assert outcomes_from_json(text) == xs
    assert outcomes_from_json(text.encode()) == xs


def test_empty_and_full_documents():
    assert outcomes_to_json([]) == '{\n  "outcomes": [],\n  "schema_version": "1"\n}\n'
    outcome = CheckOutcome(
        check_id="c", kind=CheckKind.COMPLETENESS, parameter=None, status=CheckStatus.OK,
        numerator=1, denominator=3,
        violations=(Violation(0, 'a "quoted"\nreason'), Violation(2, "]\n[")),
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
        check_id="c", kind=CheckKind.COMPLETENESS, parameter=None, status=CheckStatus.OK,
        numerator=0, denominator=1, violations=(Violation(0, "missing"),),
    )]))
    doc["outcomes"][0]["violations"] = violations
    with pytest.raises(SchemaViolation, match="violations"):
        outcomes_from_json(json.dumps(doc))

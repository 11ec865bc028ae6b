from __future__ import annotations

import copy
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest

from dqlocus.errors import (
    ActorPhaseMismatch,
    DqError,
    InvalidPhaseForOrganization,
    NotationSyntaxError,
    PercentOutOfRange,
    SchemaViolation,
    UnknownActor,
    UnresolvedLabel,
)
from dqlocus.notation import (
    DQAssertion,
    Finding,
    LineIssue,
    ParseMode,
    Severity,
    canonicalize,
    format_percent,
    parse_assertion,
    parse_assertion_file,
    serialize_assertion,
    validate_assertion,
)
from dqlocus.taxonomy import (
    LifecycleLocus,
    Organization,
    Phase,
    builtin_registry,
    enumerate_loci,
    validate_locus,
)

PAPER_STRINGS = [
    "DGO-DG-Clinician (Completeness: 94%)",
    "DRO-DR-Researcher (Completeness: 87%)",
    "DGO-DG-Organization (Policy: states Diagnosis only required only for billable encounter)",
    "DRO-DT-Engineer (Mapping: 92% success)",
]


def test_parse_clinician_completeness():
    a = parse_assertion(PAPER_STRINGS[0], mode=ParseMode.STRICT)
    assert str(a.locus) == "DGO-DG-Clinician"
    assert a.parameter is not None and a.parameter.name == "Completeness"
    assert a.numeric_fraction == Fraction(94, 100)
    assert a.qualifier_text is None


def test_parse_researcher_completeness():
    a = parse_assertion(PAPER_STRINGS[1], mode=ParseMode.STRICT)
    assert str(a.locus) == "DRO-DR-Researcher"
    assert a.numeric_fraction == Fraction(87, 100)


def test_parse_policy_assertion_keeps_text_verbatim():
    a = parse_assertion(PAPER_STRINGS[2], mode=ParseMode.LENIENT)
    assert a.label == "Policy"
    assert a.numeric_fraction is None
    assert a.qualifier_text == (
        "states Diagnosis only required only for billable encounter"
    )
    assert a.parameter is not None and a.parameter.name == "Governance"


def test_parse_mapping_assertion_resolves_alias():
    a = parse_assertion(PAPER_STRINGS[3], mode=ParseMode.LENIENT)
    assert str(a.locus) == "DRO-DT-DataEngineer"
    assert a.numeric_fraction == Fraction(92, 100)
    assert a.qualifier_text == "success"
    assert a.parameter is not None and a.parameter.name == "Interoperability"


def test_parse_short_form_lenient_only():
    a = parse_assertion("DG-EHR (Conformance: 100%)", mode=ParseMode.LENIENT)
    assert str(a.locus) == "DGO-DG-EHRSystem"
    with pytest.raises(NotationSyntaxError):
        parse_assertion("DG-EHR (Conformance: 100%)", mode=ParseMode.STRICT)


def test_parse_rejects_dro_dg():
    with pytest.raises(InvalidPhaseForOrganization):
        parse_assertion("DRO-DG-Clinician (Completeness: 90%)", mode=ParseMode.LENIENT)


def test_parse_alias_rejected_in_strict():
    with pytest.raises(UnknownActor):
        parse_assertion(PAPER_STRINGS[3], mode=ParseMode.STRICT)


def test_parse_unresolved_label_strict_vs_lenient():
    text = "DGO-DG-Clinician (Legibility: 50%)"
    with pytest.raises(UnresolvedLabel):
        parse_assertion(text, mode=ParseMode.STRICT)
    a = parse_assertion(text, mode=ParseMode.LENIENT)
    assert a.parameter is None
    assert a.label == "Legibility"


def test_parse_percent_out_of_range():
    with pytest.raises(PercentOutOfRange):
        parse_assertion("DGO-DG-Clinician (Completeness: 120%)", mode=ParseMode.LENIENT)


def test_parse_syntax_error_carries_offset():
    bad = "DGO-DG-Clinician Completeness: 94%"
    with pytest.raises(NotationSyntaxError) as exc:
        parse_assertion(bad, mode=ParseMode.STRICT)
    assert 0 <= exc.value.offset <= len(bad)


def test_parse_empty_value_rejected():
    with pytest.raises(NotationSyntaxError):
        parse_assertion("DGO-DG-Clinician (Completeness: )", mode=ParseMode.LENIENT)


def test_parse_decimal_percent_precision():
    a = parse_assertion("DGO-DG-Clinician (Completeness: 93.5%)", mode=ParseMode.STRICT)
    assert a.numeric_fraction == Fraction(935, 1000)
    assert a.display_precision == 1


def test_serialize_canonicalizes_engineer():
    a = parse_assertion(PAPER_STRINGS[3], mode=ParseMode.LENIENT)
    assert serialize_assertion(a) == "DRO-DT-DataEngineer (Mapping: 92% success)"


def test_serialize_round_trip_canonical_strings():
    for text in (PAPER_STRINGS[0], PAPER_STRINGS[1], PAPER_STRINGS[2]):
        assert serialize_assertion(parse_assertion(text, mode=ParseMode.LENIENT)) == text


def test_serialize_zero_percent():
    a = DQAssertion(
        locus=LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"),
        label="Completeness",
        numeric_fraction=Fraction(0),
    )
    assert serialize_assertion(a) == "DGO-DG-Clinician (Completeness: 0%)"


def test_format_percent_round_half_up():
    assert format_percent(Fraction(1, 3)) == "33%"
    assert format_percent(Fraction(1, 200)) == "1%"  # 0.5% rounds up
    assert format_percent(Fraction(1, 200), 1) == "0.5%"
    assert format_percent(Fraction(935, 1000), 1) == "93.5%"
    assert format_percent(Fraction(935, 1000)) == "94%"
    assert format_percent(Fraction(1), 2) == "100.00%"


@pytest.mark.parametrize("precision", [-1, 101, 1.5, True, False, "2", None])
def test_a_precision_that_cannot_render_is_an_error(precision):
    message = f"precision must be an integer from 0 to 100, got {precision!r}"
    with pytest.raises(SchemaViolation) as exc:
        format_percent(Fraction(1, 3), precision)
    assert str(exc.value) == message
    a = DQAssertion(
        locus=LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"),
        label="Completeness",
        numeric_fraction=Fraction(1, 3),
        display_precision=precision,
    )
    assert validate_assertion(a) == [Finding(Severity.ERROR, "InvalidPrecision", message)]


@pytest.mark.parametrize("precision", [0, 100])
def test_a_precision_of_0_to_100_renders_and_parses_back(precision):
    a = DQAssertion(
        locus=LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"),
        label="Completeness",
        numeric_fraction=Fraction(1, 4),
        display_precision=precision,
    )
    assert validate_assertion(a) == []
    assert parse_assertion(serialize_assertion(a)) == a


def test_validate_paper_assertions_have_no_errors():
    for text in PAPER_STRINGS:
        a = parse_assertion(text, mode=ParseMode.LENIENT)
        findings = validate_assertion(a)
        assert [f for f in findings if f.severity is Severity.ERROR] == []


def test_validate_flags_percent_out_of_range():
    a = DQAssertion(
        locus=LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"),
        label="Completeness",
        numeric_fraction=Fraction(12, 10),
    )
    findings = validate_assertion(a)
    assert any(f.code == "PercentOutOfRange" and f.severity is Severity.ERROR for f in findings)


def test_validate_warns_on_unresolved_label():
    a = parse_assertion("DGO-DG-Clinician (Legibility: 50%)", mode=ParseMode.LENIENT)
    findings = validate_assertion(a)
    assert [(f.severity, f.code) for f in findings] == [(Severity.WARNING, "UnresolvedLabel")]


def test_validate_mapping_label_resolves_by_default():
    a = parse_assertion("DRO-DT-DataEngineer (Mapping: 92%)", mode=ParseMode.LENIENT)
    assert validate_assertion(a) == []


def test_validate_flags_invalid_locus():
    a = DQAssertion(
        locus=LifecycleLocus(Organization.DRO, Phase.DG, "Clinician"),
        label="Completeness",
        numeric_fraction=Fraction(9, 10),
    )
    findings = validate_assertion(a)
    assert any(f.code == "InvalidPhaseForOrganization" for f in findings)


@pytest.mark.parametrize("value, finding", [
    ((), "EmptyMeasurement: measurement has neither percent nor text"),
    ((0.5,), "InvalidFraction: numeric fraction must be a Fraction or None, got 0.5"),
    ((None, 0, 5), "InvalidQualifier: qualifier text must be a non-empty string or None, got 5"),
    ((Fraction(1, 2), 0, ""),
     "InvalidQualifier: qualifier text must be a non-empty string or None, got ''"),
    ((None, 2, "text"), "InvalidPrecision: precision must be 0 without a percent, got 2"),
    ((None, 0, "a) b"), "ParenInQualifier: qualifier text 'a) b' holds ')', which ends the value"),
    ((Fraction(1, 2), 0, "a\nb"),
     "NewlineInQualifier: qualifier text 'a\\nb' holds a newline, which ends the line in a file"),
    ((None, 0, "94% of rows"),
     "QualifierReadsAsPercent: qualifier text '94% of rows' starts with a percent, so it reads as one"),
])
def test_validate_flags_a_bad_measurement_or_parameter(value, finding):
    a = DQAssertion(LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"), "Completeness", *value)
    findings = validate_assertion(a)
    assert [f"{f.code}: {f.message}" for f in findings] == [finding]
    assert findings[0].severity is Severity.ERROR


@pytest.mark.parametrize("value, message", [
    ((0.5,), "numeric fraction must be a Fraction or None, got 0.5"),
    ((None, 0, 5), "qualifier text must be a non-empty string or None, got 5"),
    ((1,), "numeric fraction must be a Fraction or None, got 1"),
    ((Fraction(1, 2), 0, 0), "qualifier text must be a non-empty string or None, got 0"),
])
def test_serializing_a_percent_or_qualifier_of_the_wrong_type_is_a_schema_violation(value, message):
    a = DQAssertion(LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"), "Completeness", *value)
    with pytest.raises(SchemaViolation) as raised:
        serialize_assertion(a)
    assert type(raised.value) is SchemaViolation and str(raised.value) == message
    assert message in [f.message for f in validate_assertion(a)]


@pytest.mark.parametrize("label, finding", [
    ("bad label", "InvalidLabel: label 'bad label' is not an identifier"),
    (7, "InvalidLabel: label 7 is not an identifier"),
    # unhashable: once a stray TypeError from the label table's lookup
    (["x"], "InvalidLabel: label ['x'] is not an identifier"),
    ({"Completeness": 1}, "InvalidLabel: label {'Completeness': 1} is not an identifier"),
])
def test_validate_flags_a_label_that_is_not_an_identifier(label, finding):
    a = DQAssertion(LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"), label, Fraction(1, 2))
    assert a.parameter is None
    findings = validate_assertion(a)
    assert [(f.severity, f"{f.code}: {f.message}") for f in findings] == [(Severity.ERROR, finding)]


@pytest.mark.parametrize("locus, finding", [
    (("XYZ", "DG", "Clinician"), "InvalidPhaseForOrganization: XYZ-DG is not a valid organization-phase pair"),
    (("DRO", "DG", "Clinician"), "InvalidPhaseForOrganization: DRO-DG is not a valid organization-phase pair:"
                                 " data generation happens only at the data-generating organization"),
    ((Organization.DRO, "DX", "Clinician"), "InvalidPhaseForOrganization: DRO-DX is not a valid organization-phase pair"),
    (("DGO", "DT", "Patient"), "ActorPhaseMismatch: actor 'Patient' is not allowed at DGO-DT"),
])
def test_a_locus_of_plain_string_codes_that_is_not_valid_is_an_error_finding(locus, finding):
    """Plain-string codes are checked as members are, and once raised a
    stray AttributeError from the error message."""
    a = DQAssertion(LifecycleLocus(*locus), "Completeness", Fraction(1, 2))
    findings = validate_assertion(a)
    assert [(f.severity, f"{f.code}: {f.message}") for f in findings] == [(Severity.ERROR, finding)]
    assert serialize_assertion(a) == f"{'-'.join(locus)} (Completeness: 50%)"


@pytest.mark.parametrize("locus, finding", [
    ((Organization.DGO, Phase.DG, ["x"]), "UnknownActor: unknown actor: ['x']"),
    ((["DGO"], Phase.DG, "Clinician"),
     "InvalidPhaseForOrganization: ['DGO']-DG is not a valid organization-phase pair"),
    ((Organization.DGO, ["DG"], ["x"]),
     "InvalidPhaseForOrganization: DGO-['DG'] is not a valid organization-phase pair"),
])
def test_a_locus_with_an_unhashable_code_or_actor_is_an_error_finding(locus, finding):
    """An unhashable code or actor is in no locus of the registry, so it
    is checked as any other code or actor that names no locus."""
    a = DQAssertion(LifecycleLocus(*locus), "Completeness", Fraction(1, 2))
    findings = validate_assertion(a)
    assert [(f.severity, f"{f.code}: {f.message}") for f in findings] == [(Severity.ERROR, finding)]
    with pytest.raises(DqError) as raised:
        validate_locus(*locus)
    assert f"{type(raised.value).__name__}: {raised.value}" == finding


def test_an_actor_that_is_not_a_string_resolves_to_none():
    for actor in (["x"], ["Clinician"], 7, None):
        with pytest.raises(UnknownActor, match=re.escape(f"unknown actor: {actor!r}")):
            builtin_registry().resolve(actor)
    a = DQAssertion(LifecycleLocus(Organization.DGO, Phase.DG, ["x"]), "Completeness", Fraction(1, 2))
    with pytest.raises(UnknownActor, match=re.escape("unknown actor: ['x']")):
        canonicalize(a)


def test_a_valid_locus_of_plain_string_codes_serializes_and_parses_back():
    locus = LifecycleLocus("DGO", "DG", "Clinician")
    assert locus == validate_locus(Organization.DGO, Phase.DG, "Clinician")
    a = DQAssertion(locus, "Completeness", Fraction(1, 2), 0, "of rows")
    assert validate_assertion(a) == []
    assert serialize_assertion(a) == "DGO-DG-Clinician (Completeness: 50% of rows)"
    assert parse_assertion(serialize_assertion(a), mode=ParseMode.STRICT) == a


def test_assertions_hold_no_instance_dict():
    a = parse_assertion("DRO-DT-DataEngineer (Mapping: 92% success)")
    assert not hasattr(a, "__dict__")
    assert [f.name for f in fields(a)] == [
        "locus", "label", "numeric_fraction", "display_precision", "qualifier_text"
    ]
    for field in fields(a):
        with pytest.raises(FrozenInstanceError):
            setattr(a, field.name, None)


def test_line_issues_hold_no_instance_dict():
    _, [issue] = parse_assertion_file("DGO-DG-Clinician (Completeness: 94%x)")
    assert not hasattr(issue, "__dict__")
    assert [f.name for f in fields(issue)] == ["line_number", "error", "message", "offset"]
    for field in fields(issue):
        with pytest.raises(FrozenInstanceError):
            setattr(issue, field.name, None)


@pytest.mark.parametrize("copy_of", [
    replace, copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["replace", "copy", "deepcopy", "pickle"])
def test_copies_of_an_assertion_are_equal(copy_of):
    a = parse_assertion("DRO-DT-DataEngineer (Mapping: 92.5% success)")
    again = copy_of(a)
    assert again == a and again.parameter is a.parameter
    assert str(copy_of(a.locus)) == str(a.locus) == "DRO-DT-DataEngineer"
    assert copy_of(a.locus) == a.locus
    _, issues = parse_assertion_file("DGO-DG-Clinician (Completeness: 94%x)\nDGO-DG-Clinician (Completeness: 101%)")
    assert [copy_of(issue) for issue in issues] == issues == [
        LineIssue(1, "NotationSyntaxError", "expected space or ')' after percent (offset 35)", 35),
        LineIssue(2, "PercentOutOfRange", "percent value 101% exceeds 100%"),
    ]


def test_a_locus_reads_org_phase_actor():
    for locus in enumerate_loci():
        text = f"{locus.organization.value}-{locus.phase.value}-{locus.actor}"
        fresh = LifecycleLocus(locus.organization, locus.phase, locus.actor)
        assert fresh is not locus and fresh == locus
        assert str(locus) == str(fresh) == f"{fresh}" == text
        assert str(replace(locus, actor="Nobody")) == text[: -len(locus.actor)] + "Nobody"
        # a code that is not a string reads as str() of it, the members still by value
        assert str(replace(locus, actor=7)) == text[: -len(locus.actor)] + "7"


def test_canonicalize_takes_the_registrys_own_locus():
    registry = builtin_registry()
    alias = DQAssertion(LifecycleLocus(Organization.DRO, Phase.DT, "Engineer"), "Mapping",
                        Fraction(92, 100), 0, "success")
    got = canonicalize(alias, registry)
    assert got.locus is validate_locus(Organization.DRO, Phase.DT, "DataEngineer", registry)
    assert replace(got, locus=alias.locus) == alias
    assert canonicalize(got, registry) is got
    # a locus the registry rejects raises its error: an alias at a pair its
    # actor is not allowed at, or a code that cannot be hashed
    with pytest.raises(ActorPhaseMismatch, match=re.escape("actor 'DataEngineer' is not allowed at DGO-DG")):
        canonicalize(replace(alias, locus=LifecycleLocus(Organization.DGO, Phase.DG, "Engineer")))
    with pytest.raises(InvalidPhaseForOrganization, match=re.escape("['DRO']-DT is not a valid")):
        canonicalize(replace(alias, locus=LifecycleLocus(["DRO"], Phase.DT, "Engineer")))


@pytest.mark.parametrize("actor", ["DataEngineer", "Engineer"])
def test_a_valid_locus_of_plain_strings_canonicalizes_to_the_registrys_own_locus(actor):
    registry = builtin_registry()
    a = DQAssertion(LifecycleLocus("DRO", "DT", actor), "Mapping", Fraction(92, 100), 0, "success")
    got = canonicalize(a, registry)
    assert got.locus is validate_locus(Organization.DRO, Phase.DT, "DataEngineer", registry)
    assert replace(got, locus=a.locus) == a
    assert serialize_assertion(got) == "DRO-DT-DataEngineer (Mapping: 92% success)"


@pytest.mark.parametrize("locus, label, value, parameter", [
    ((Organization.DRO, Phase.DT, "DataEngineer"), "Mapping",
     (Fraction(92, 100), 0, "success"), "Interoperability"),
    ((Organization.DGO, Phase.DG, "Organization"), "Policy",
     (None, 0, "states diagnosis required only for billable"), "Governance"),
])
def test_a_hand_built_assertion_takes_its_parameter_from_its_label(locus, label, value, parameter):
    a = DQAssertion(LifecycleLocus(*locus), label, *value)
    assert a.parameter is not None and a.parameter.name == parameter
    assert validate_assertion(a) == []
    assert parse_assertion(serialize_assertion(a)) == a


def test_parse_assertion_file_skips_comments_and_collects_issues():
    text = "\n".join(
        [
            "# paper examples",
            PAPER_STRINGS[0],
            "",
            "DRO-DG-Clinician (Completeness: 90%)",
            "not an assertion",
        ]
    )
    assertions, issues = parse_assertion_file(text, builtin_registry())
    assert [n for n, _ in assertions] == [2]
    assert [(i.line_number, i.error) for i in issues] == [
        (4, "InvalidPhaseForOrganization"),
        (5, "NotationSyntaxError"),
    ]


@pytest.mark.parametrize("mode", list(ParseMode))
def test_a_leading_byte_order_mark_is_not_text(mode):
    lines = [PAPER_STRINGS[0], "# a comment", "DRO-DR-Researcher (Completeness: 87%)"]
    plain = parse_assertion_file("\n".join(lines), mode=mode)
    assert [n for n, _ in plain[0]] == [1, 3] and plain[1] == []
    assert parse_assertion_file("\ufeff" + "\n".join(lines), mode=mode) == plain
    # with the comment first, one mark is still not text, and nothing is reported
    assert parse_assertion_file("\ufeff" + "\n".join(lines[1:]), mode=mode) == ([(2, plain[0][1][1])], [])
    # only one mark: a second, or one on a later line, is text
    _, issues = parse_assertion_file("\ufeff\ufeff" + "\n".join(lines), mode=mode)
    assert [(i.line_number, i.error, i.offset) for i in issues] == [(1, "NotationSyntaxError", 0)]
    _, issues = parse_assertion_file("\n\ufeff" + PAPER_STRINGS[0], mode=mode)
    assert [(i.line_number, i.error) for i in issues] == [(2, "NotationSyntaxError")]


SHORT_FORM = "DT-Engineer (Completeness: 94%)"


@pytest.mark.parametrize("mode", [ParseMode.LENIENT, "Lenient"])
def test_lenient_mode_given_as_the_member_or_its_value_parses_leniently(mode):
    a = parse_assertion(SHORT_FORM, mode=mode)
    assert str(a.locus) == "DGO-DT-DataEngineer"
    assert parse_assertion_file(SHORT_FORM, mode=mode) == ([(1, a)], [])


@pytest.mark.parametrize("mode", [ParseMode.STRICT, "Strict"])
def test_strict_mode_given_as_the_member_or_its_value_parses_strictly(mode):
    with pytest.raises(NotationSyntaxError, match="expected organization code DGO or DRO"):
        parse_assertion(SHORT_FORM, mode=mode)
    assert parse_assertion_file(SHORT_FORM, mode=mode) == ([], [
        LineIssue(1, "NotationSyntaxError", "expected organization code DGO or DRO (offset 0)", 0),
    ])


@pytest.mark.parametrize("mode", ["lenient", "STRICT", ""])
def test_a_mode_that_names_no_parse_mode_raises(mode):
    for parse in (parse_assertion, parse_assertion_file):
        with pytest.raises(ValueError, match=re.escape(f"{mode!r} is not a valid ParseMode")):
            parse(SHORT_FORM, mode=mode)


def test_equal_parts_of_a_files_lines_are_one_object_each_within_a_call():
    text = "\n".join([
        "DGO-DG-Clinician (Completeness: 94.5% of encounters)",
        "DT-Engineer (Legibility: 94.5% of encounters)",
        "DRO-DR-Researcher (Legibility: of encounters)",
    ])
    (_, a), (_, b), (_, c) = parse_assertion_file(text)[0]
    assert a.numeric_fraction == Fraction(945, 1000) and a.qualifier_text == "of encounters"
    assert b.numeric_fraction is a.numeric_fraction
    assert b.qualifier_text is a.qualifier_text and c.qualifier_text is a.qualifier_text
    assert b.label == "Legibility" and c.label is b.label
    # a second call shares nothing with the first
    (_, a2), (_, b2), (_, c2) = parse_assertion_file(text)[0]
    assert (a2, b2, c2) == (a, b, c)
    assert a2.numeric_fraction is not a.numeric_fraction
    assert a2.qualifier_text is not a.qualifier_text and b2.label is not b.label

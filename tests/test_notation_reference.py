"""Differential and round-trip tests of the assertion grammar.

``parse_assertion`` reads a line with one match of a compiled grammar and
takes its locus from the registry's table of valid loci. The reference
below walks the line with a character cursor, one token per step, and
builds each locus by resolving the actor name. On every line both must
give the same assertion, or raise the same exception with the same
message and offset.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqlocus.errors import (
    ActorPhaseMismatch,
    DqError,
    InvalidPhaseForOrganization,
    NotationSyntaxError,
    PercentOutOfRange,
    SchemaViolation,
    UnresolvedLabel,
)
from dqlocus.notation import (
    DQAssertion,
    LineIssue,
    ParseMode,
    Severity,
    format_percent,
    parse_assertion,
    parse_assertion_file,
    serialize_assertion,
    validate_assertion,
)
from dqlocus.taxonomy import (
    IDENTIFIER_RE,
    LABEL_PARAMETERS,
    ORG_PHASE_PAIRS,
    ActorRegistry,
    LifecycleLocus,
    Organization,
    Phase,
    builtin_registry,
    core_parameters,
    enumerate_loci,
    validate_locus,
)

# --- the reference ------------------------------------------------------------

_NUMBER_RE = re.compile(r"[0-9]+(?:\.([0-9]+))?%")
#: The most decimals a percent literal may have.
MAX_DECIMALS = 100
#: The parameter name each resolvable label names.
REFERENCE_PARAMETERS = {p.name: p.name for p in core_parameters()} | {
    "Policy": "Governance", "Mapping": "Interoperability"
}


def reference_locus(org, phase, actor_name, registry, allow_aliases):
    """A new locus per call, the actor resolved by name."""
    registry = registry or builtin_registry()
    if (org, phase) not in ORG_PHASE_PAIRS:
        raise InvalidPhaseForOrganization(
            f"{org.value}-{phase.value} is not a valid organization-phase pair:"
            " data generation happens only at the data-generating organization"
        )
    actor = registry.resolve(actor_name, allow_aliases=allow_aliases)
    if (org, phase) not in actor.allowed_phases:
        raise ActorPhaseMismatch(
            f"actor {actor.canonical_name!r} is not allowed at {org.value}-{phase.value}"
        )
    return LifecycleLocus(organization=org, phase=phase, actor=actor.canonical_name)


class _Cursor:
    """Character cursor with offset-carrying errors."""

    def __init__(self, text: str, base: int = 0):
        self.text = text
        self.pos = 0
        self.base = base

    @property
    def offset(self) -> int:
        return self.base + self.pos

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def take_literal(self, literal: str, what: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise NotationSyntaxError(f"expected {what}", self.offset)
        self.pos += len(literal)

    def take_regex(self, pattern: re.Pattern, what: str) -> re.Match:
        m = pattern.match(self.text, self.pos)
        if m is None:
            raise NotationSyntaxError(f"expected {what}", self.offset)
        self.pos = m.end()
        return m


def _parse_measurement(cur: _Cursor) -> tuple[Fraction | None, int, str | None]:
    """Parse the value region up to the closing paren: the percent, its
    precision and the qualifier text."""
    start = cur.pos
    numeric: Fraction | None = None
    precision = 0
    m = _NUMBER_RE.match(cur.text, cur.pos)
    if m is not None:
        whole = m.group(0)[:-1].split(".")[0].lstrip("0")
        decimals = m.group(1) or ""
        if len(whole) > 3:  # over 999%
            raise PercentOutOfRange(f"percent value {m.group(0)} exceeds 100%")
        if len(decimals) > MAX_DECIMALS:
            raise NotationSyntaxError(f"percent has more than {MAX_DECIMALS} decimals", cur.offset)
        precision = len(decimals)
        numeric = Fraction((whole + decimals) or "0") / Fraction(100 * 10**precision)
        if numeric > 1:
            raise PercentOutOfRange(f"percent value {m.group(0)} exceeds 100%")
        cur.pos = m.end()
        if not cur.at_end() and cur.text[cur.pos] not in (" ", ")"):
            raise NotationSyntaxError("expected space or ')' after percent", cur.offset)

    qualifier: str | None = None
    if not cur.at_end() and cur.text[cur.pos] != ")":
        if numeric is not None:
            cur.take_literal(" ", "space before qualifier text")
        end = cur.text.find(")", cur.pos)
        if end == -1:
            raise NotationSyntaxError("expected ')'", cur.base + len(cur.text))
        qualifier = cur.text[cur.pos:end]
        if not qualifier:
            qualifier = None
        cur.pos = end

    if numeric is None and not qualifier:
        raise NotationSyntaxError("assertion value is empty", cur.base + start)
    return numeric, precision, qualifier


def reference_parse(
    text: str,
    registry: ActorRegistry | None = None,
    mode: ParseMode = ParseMode.STRICT,
) -> DQAssertion:
    registry = registry or builtin_registry()
    lenient = mode is ParseMode.LENIENT

    body = text
    base = 0
    if lenient:
        stripped = text.strip()
        base = text.index(stripped) if stripped else 0
        body = stripped
    cur = _Cursor(body, base)

    org: Organization | None = None
    for code in ("DGO", "DRO"):
        if body.startswith(code + "-", cur.pos):
            org = Organization(code)
            cur.pos += 4
            break
    if org is None:
        if not lenient:
            raise NotationSyntaxError("expected organization code DGO or DRO", cur.offset)
        org = Organization.DGO  # short form defaults to the generating org

    phase: Phase | None = None
    for code in ("DG", "DT", "DR"):
        if body.startswith(code + "-", cur.pos):
            phase = Phase(code)
            cur.pos += 3
            break
    if phase is None:
        raise NotationSyntaxError("expected phase code DG, DT or DR", cur.offset)

    actor_name = cur.take_regex(IDENTIFIER_RE, "actor identifier").group(0)
    cur.take_literal(" (", "' (' before the label")
    label = cur.take_regex(IDENTIFIER_RE, "label identifier").group(0)
    cur.take_literal(": ", "': ' between label and value")
    measurement = _parse_measurement(cur)
    cur.take_literal(")", "')'")
    if not cur.at_end():
        raise NotationSyntaxError("unexpected text after ')'", cur.offset)

    locus = reference_locus(org, phase, actor_name, registry, allow_aliases=lenient)

    if label not in REFERENCE_PARAMETERS and not lenient:
        raise UnresolvedLabel(f"label {label!r} does not resolve to a core parameter")

    return DQAssertion(locus, label, *measurement)


def result(parse, line, registry, mode):
    """A comparable form of a parse: the assertion, or the exception with
    its message and offset."""
    try:
        a = parse(line, registry, mode)
    except Exception as e:  # noqa: BLE001 - both parsers must fail alike
        return ("raised", type(e), str(e), getattr(e, "offset", None))
    return ("parsed", a)


# --- inputs -------------------------------------------------------------------

CARER = builtin_registry().with_actor(
    "Carer", {"Aide"}, {(Organization.DGO, Phase.DG), (Organization.DRO, Phase.DR)}
)
REGISTRIES = [builtin_registry(), CARER]

NAMES = sorted({a.canonical_name for a in CARER} | {"Engineer", "AI", "EHR", "Org", "Aide"})
LABELS = sorted(REFERENCE_PARAMETERS) + ["Done", "Uptime", "Legibility"]
#: "94%" is also a percent literal, which an earlier line of a file may hold.
QUALIFIERS = ["success", "of encounters", "(a", "a (b", "x)", " ", "  two  spaces", "٩٤%", "12.%", "94%"]


#: Literals longer than Python reads as an int by default (4,300 digits),
#: and decimals on either side of the cap.
LONG_WHOLES = ["0" * 5000, "0" * 4999 + "7", "0" * 5000 + "100", "0" * 4998 + "1000", "1" + "0" * 5000]
LONG_DECIMALS = ["0" * MAX_DECIMALS, "5" * MAX_DECIMALS, "0" * (MAX_DECIMALS + 1), "9" * 5000]


@st.composite
def percents(draw):
    whole = draw(st.sampled_from(["0", "00", "7", "007", "94", "100", "101", "150", "999", "1000", "0001000"])
                 | st.integers(0, 120).map(str) | st.sampled_from(LONG_WHOLES))
    decimals = draw(st.sampled_from(["", "0", "00", "000", "5", "05", "999"]) | st.sampled_from(LONG_DECIMALS))
    dot = draw(st.sampled_from([".", ".", "", ","])) if decimals else draw(st.sampled_from(["", "."]))
    return f"{whole}{dot}{decimals}%"


@st.composite
def values(draw):
    pct = draw(st.none() | percents())
    gap = draw(st.sampled_from([" ", " ", "", "  ", "x", "%"]))
    qualifier = draw(st.none() | st.sampled_from(QUALIFIERS))
    if pct is None:
        return qualifier or ""
    return pct if qualifier is None else f"{pct}{gap}{qualifier}"


#: Loci as written: full, short (lenient only) and through an alias
#: (lenient only). The Carer loci are unknown to the builtin registry.
LOCUS_TEXTS = [str(locus) for locus in enumerate_loci(CARER)]
LOCUS_TEXTS += [text[4:] for text in LOCUS_TEXTS if text.startswith("DGO-")]
LOCUS_TEXTS += ["DRO-DT-Engineer", "DGO-DR-AI", "DGO-DG-EHR", "DRO-DR-Org", "DGO-DG-Aide"]
# well formed, but not valid loci
LOCUS_TEXTS += ["DGO-DT-Patient", "DRO-DG-Clinician", "DRO-DT-Aide", "DGO-DG-Nobody", "DT-Wearable"]
ORGS = ["DGO-", "DRO-", "", "DXO-", "DGO", "dgo-"]
PHASES = ["DG-", "DT-", "DR-", "", "DX-", "DG"]
ACTORS = NAMES + [n.lower() for n in NAMES[:3]] + ["Nobody", "X9", "9Lives", ""]


@st.composite
def any_locus(draw):
    """Organization, phase and actor drawn apart, so often wrong."""
    return "".join(draw(st.sampled_from(tokens)) for tokens in (ORGS, PHASES, ACTORS))


#: Each token of a line: a strategy for what the grammar accepts there
#: (whitespace only in lenient mode), then one for what it does not.
TOKENS = [
    (st.sampled_from(["", "", " ", "\t "]), st.just("x ")),
    (st.sampled_from(LOCUS_TEXTS), any_locus()),
    (st.just(" ("), st.sampled_from(["(", "  (", ""])),
    (st.sampled_from(LABELS), st.sampled_from(["completeness", "", "9"])),
    (st.just(": "), st.sampled_from([":", " : ", ""])),
    (values(), st.sampled_from(["", "94%x", "94%%"])),
    (st.just(")"), st.sampled_from(["", "))"])),
    (st.just(""), st.sampled_from([" trailing", ")", "x"])),
    (st.sampled_from(["", "", " ", " \n"]), st.just("\n x")),
]


@st.composite
def lines(draw):
    """A line of grammar tokens, at most one of them wrong."""
    wrong = draw(st.integers(0, 2 * len(TOKENS)))
    return "".join(draw(bad if k == wrong else right) for k, (right, bad) in enumerate(TOKENS))


GRAMMAR_CHARS = "DGORTX-( ):%.0159 \tCliniaEngr٩"


@settings(max_examples=600, deadline=None)
@given(
    line=st.one_of(lines(), lines(), lines(), st.text(GRAMMAR_CHARS, max_size=40)),
    registry=st.sampled_from(REGISTRIES),
    mode=st.sampled_from(list(ParseMode)),
)
def test_parse_assertion_matches_the_reference(line, registry, mode):
    got = result(parse_assertion, line, registry, mode)
    assert got == result(reference_parse, line, registry, mode)
    if got[0] == "parsed":  # the locus is the registry's, not built per line
        loci = {str(locus): locus for locus in enumerate_loci(registry)}
        assert got[1].locus is loci[str(got[1].locus)]


@settings(max_examples=300, deadline=None)
@given(line=lines(), registry=st.sampled_from(REGISTRIES), mode=st.sampled_from(list(ParseMode)))
def test_an_assertions_parameter_follows_from_its_label(line, registry, mode):
    """A hand-built assertion equals the parse of the same parts."""
    got = result(parse_assertion, line, registry, mode)
    if got[0] == "parsed":
        a = got[1]
        assert a.parameter is LABEL_PARAMETERS.get(a.label)
        assert (a.parameter and a.parameter.name) == REFERENCE_PARAMETERS.get(a.label)
        assert DQAssertion(a.locus, a.label, a.numeric_fraction, a.display_precision, a.qualifier_text) == a


@settings(max_examples=200, deadline=None)
@given(file=st.lists(lines(), max_size=8), registry=st.sampled_from(REGISTRIES), mode=st.sampled_from(list(ParseMode)))
def test_a_parsed_label_that_names_a_parameter_is_the_tables_own_key(file, registry, mode):
    """Every line holds the one key string of its label, not a copy."""
    assertions, _ = parse_assertion_file("\n".join(file), registry, mode)
    for _, a in assertions:
        if a.parameter is not None:
            assert a.label is next(key for key in LABEL_PARAMETERS if key == a.label)
        else:
            assert mode is ParseMode.LENIENT and a.label not in LABEL_PARAMETERS


def reference_file_result(text, registry, mode):
    """What the reference gives for each piece of ``text`` split on
    newlines that is neither blank nor a comment, each on its own, with
    its line number."""
    assertions, issues = [], []
    for n, piece in enumerate(text.split("\n"), start=1):
        stripped = piece.strip()
        if not stripped or stripped.startswith("#"):
            continue
        got = result(reference_parse, piece, registry, mode)
        if got[0] == "parsed":
            assertions.append((n, got[1]))
        else:
            issues.append(LineIssue(n, got[1].__name__, got[2], got[3]))
    return assertions, issues


CLINICIAN = "DGO-DG-Clinician (Completeness: {})"


@settings(max_examples=150, deadline=None)
@given(file=st.lists(lines(), min_size=15, max_size=25), registry=st.sampled_from(REGISTRIES),
       mode=st.sampled_from(list(ParseMode)))
# a qualifier that is the text of an earlier line's percent literal
@example(file=[CLINICIAN.format("37%"), CLINICIAN.format("50% 37%"), "DT-Engineer (Done: 37%)"],
         registry=REGISTRIES[0], mode=ParseMode.LENIENT)
# a literal that parsed, then the same literal with no space after it
@example(file=[CLINICIAN.format("94%"), CLINICIAN.format("94%x")], registry=REGISTRIES[0], mode=ParseMode.STRICT)
# a literal that failed fails again
@example(file=[CLINICIAN.format("101%")] * 2 + [CLINICIAN.format("94." + "0" * 101 + "%")] * 2,
         registry=REGISTRIES[0], mode=ParseMode.STRICT)
def test_each_line_of_a_file_parses_as_the_reference_parses_it_alone(file, registry, mode):
    """The parts a file's lines share within one call change no line's
    result."""
    text = "\n".join(file)
    assert parse_assertion_file(text, registry, mode) == reference_file_result(text, registry, mode)


@pytest.mark.parametrize(
    "line, mode, message, offset",
    [
        ("DG-Clinician (Completeness: 94%)", ParseMode.STRICT, "expected organization code DGO or DRO", 0),
        ("DGO-XX-Clinician (Completeness: 94%)", ParseMode.STRICT, "expected phase code DG, DT or DR", 4),
        ("DGO-DG-clinician (Completeness: 94%)", ParseMode.STRICT, "expected actor identifier", 7),
        ("DGO-DG-Clinician Completeness: 94%", ParseMode.STRICT, "expected ' (' before the label", 16),
        ("DGO-DG-Clinician (completeness: 94%)", ParseMode.STRICT, "expected label identifier", 18),
        ("DGO-DG-Clinician (Completeness 94%)", ParseMode.STRICT, "expected ': ' between label and value", 30),
        ("DGO-DG-Clinician (Completeness: 94%x)", ParseMode.STRICT, "expected space or ')' after percent", 35),
        ("DGO-DG-Clinician (Completeness: )", ParseMode.STRICT, "assertion value is empty", 32),
        ("DGO-DG-Clinician (Completeness: 94%", ParseMode.STRICT, "expected ')'", 35),
        ("DGO-DG-Clinician (Completeness: 94%) x", ParseMode.STRICT, "unexpected text after ')'", 36),
        # lenient offsets count the leading whitespace that parsing strips
        ("  DG-Clinician (Completeness: 94%x)  ", ParseMode.LENIENT, "expected space or ')' after percent", 33),
        ("  DG-Clinician (Completeness: 94% of", ParseMode.LENIENT, "expected ')'", 36),
        ("   ", ParseMode.LENIENT, "expected phase code DG, DT or DR", 0),
    ],
)
def test_each_syntax_message_and_its_offset(line, mode, message, offset):
    with pytest.raises(NotationSyntaxError) as exc:
        parse_assertion(line, mode=mode)
    assert (str(exc.value), exc.value.offset) == (f"{message} (offset {offset})", offset)
    assert result(reference_parse, line, None, mode)[1:] == (NotationSyntaxError, str(exc.value), offset)


def test_percent_out_of_range_comes_before_later_syntax_errors():
    with pytest.raises(PercentOutOfRange, match=r"percent value 100\.5% exceeds 100%"):
        parse_assertion("DGO-DG-Clinician (Completeness: 100.5%x", mode=ParseMode.STRICT)


@pytest.mark.parametrize(
    "value, expected",
    [
        # past Python's limit on the digits of an int read from text, these
        # once raised a stray ValueError
        ("0" * 5000 + "%", (Fraction(0), 0)),
        ("0" * 4998 + "94.5%", (Fraction(945, 1000), 1)),
        ("94." + "0" * 100 + "%", (Fraction(94, 100), 100)),
        ("1" + "0" * 5000 + "%", (PercentOutOfRange, "exceeds 100%")),
        ("0" * 5000 + "1000%", (PercentOutOfRange, "exceeds 100%")),
        ("1000." + "9" * 5000 + "% x", (PercentOutOfRange, "exceeds 100%")),
        ("94." + "0" * 101 + "%", (NotationSyntaxError, "percent has more than 100 decimals (offset 32)")),
        ("99." + "9" * 5000 + "%", (NotationSyntaxError, "percent has more than 100 decimals (offset 32)")),
    ],
)
def test_long_percent_literals_end_in_a_dq_error(value, expected):
    line = f"DGO-DG-Clinician (Completeness: {value})"
    got = result(parse_assertion, line, None, ParseMode.STRICT)
    assert got == result(reference_parse, line, None, ParseMode.STRICT)
    if isinstance(expected[0], Fraction):
        clinician = LifecycleLocus(Organization.DGO, Phase.DG, "Clinician")
        assert got == ("parsed", DQAssertion(clinician, "Completeness", *expected))
    else:
        assert got[1] is expected[0] and expected[1] in got[2]


def test_every_parsed_locus_is_the_registrys_own():
    """A regression to building a locus per line fails here."""
    for registry in REGISTRIES:
        loci = {str(locus): locus for locus in enumerate_loci(registry)}
        for text in loci:
            for mode in ParseMode:
                locus = parse_assertion(f"{text} (Completeness: 94%)", registry, mode).locus
                assert locus is loci[text]
    alias = parse_assertion("DRO-DR-Aide (Completeness: 94%)", CARER, ParseMode.LENIENT).locus
    assert alias is next(locus for locus in enumerate_loci(CARER) if str(locus) == "DRO-DR-Carer")
    assert validate_locus(Organization.DRO, Phase.DT, "Engineer") is validate_locus(
        Organization.DRO, Phase.DT, "DataEngineer", allow_aliases=False
    )


def test_percent_digits_are_ascii_only():
    """A non-ASCII digit is qualifier text, so the line round-trips."""
    text = "DGO-DG-Clinician (Completeness: ٩٤%)"
    a = parse_assertion(text, mode=ParseMode.STRICT)
    assert a == DQAssertion(a.locus, "Completeness", qualifier_text="٩٤%")
    assert serialize_assertion(a) == text
    mixed = parse_assertion("DGO-DG-Clinician (Completeness: 9٤%)", mode=ParseMode.STRICT)
    assert mixed == DQAssertion(mixed.locus, "Completeness", qualifier_text="9٤%")


# --- parse∘serialize ----------------------------------------------------------

LOCI = enumerate_loci()
RESOLVABLE = sorted(REFERENCE_PARAMETERS)
NUMBER_PREFIX = re.compile(r"[0-9]+(?:\.[0-9]+)?%")


@st.composite
def canonical_values(draw):
    """A canonical value: a percent at precision 0-3 and/or a qualifier
    without ``)``; a qualifier alone never starts like a percent."""
    qualifier = draw(st.none() | st.text(st.characters(exclude_characters=")"), min_size=1, max_size=12))
    if qualifier is not None and draw(st.booleans()) and not NUMBER_PREFIX.match(qualifier):
        return qualifier
    precision = draw(st.integers(0, 3))
    units = draw(st.integers(0, 100 * 10**precision) | st.sampled_from([0, 100 * 10**precision]))
    whole, part = divmod(units, 10**precision)
    pct = f"{whole}.{part:0{precision}d}%" if precision else f"{whole}%"
    return pct if qualifier is None else f"{pct} {qualifier}"


@settings(max_examples=300, deadline=None)
@given(locus=st.sampled_from(LOCI), label=st.sampled_from(RESOLVABLE), value=canonical_values())
def test_parse_serialize_is_the_identity_on_canonical_text(locus, label, value):
    text = f"{locus} ({label}: {value})"
    a = parse_assertion(text, mode=ParseMode.STRICT)
    assert serialize_assertion(a) == text
    assert parse_assertion(serialize_assertion(a), mode=ParseMode.STRICT) == a


#: Loci, labels and qualifiers of hand-built assertions, valid or not.
#: The last three hold codes that are plain strings.
HAND_LOCI = LOCI + [LifecycleLocus(Organization.DRO, Phase.DG, "Clinician"),
                    LifecycleLocus(Organization.DGO, Phase.DG, "Nobody"),
                    LifecycleLocus(Organization.DGO, Phase.DG, "clinician"),
                    LifecycleLocus("XYZ", "DG", "Clinician"),
                    LifecycleLocus("DRO", "DG", "Clinician"),
                    LifecycleLocus(Organization.DRO, "DX", "Clinician"),
                    LifecycleLocus(Organization.DGO, Phase.DG, ["x"]),
                    LifecycleLocus(["DGO"], Phase.DG, "Clinician")]
#: A label that is not a string, hashable or not, resolves to no parameter.
HAND_LABELS = RESOLVABLE + ["Legibility", "bad label", "completeness", "9", "", "Lab)el", "Lab-el",
                            7, None, ["Completeness"]]
HAND_QUALIFIERS = ["success", "a) b", ")", "94% of rows", "94%", "5%x", "1.5% ok", "100.5%", "94.% ok",
                   "٩٤%", "x%", "", " ", "a\nb"]
#: A percent or a qualifier of a type no line holds.
WRONG_PERCENTS = st.integers(0, 1) | st.floats(0, 1)
WRONG_QUALIFIERS = st.sampled_from([0, 5, False])


@st.composite
def hand_built_assertions(draw):
    """An assertion of a locus, a label, a percent, its precision and a
    qualifier, the percent exact at its precision or of the wrong type;
    drawn valid or not."""
    precision = draw(st.integers(0, 3))
    scale = 100 * 10**precision
    numeric = draw(st.none() | st.integers(-1, scale + 1).map(lambda units: Fraction(units, scale)) | WRONG_PERCENTS)
    text = draw(
        st.none() | st.sampled_from(HAND_QUALIFIERS) | st.text("0123456789.% )ab", max_size=8) | WRONG_QUALIFIERS
    )
    shown = precision if numeric is not None else draw(st.sampled_from([0, precision]))
    return DQAssertion(draw(st.sampled_from(HAND_LOCI)), draw(st.sampled_from(HAND_LABELS)), numeric, shown, text)


@settings(max_examples=500, deadline=None)
@given(a=hand_built_assertions())
@example(a=DQAssertion(LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"), "Completeness", Fraction(1, 2), 0, "a\nb"))
def test_an_assertion_has_an_error_exactly_when_its_line_does_not_parse_back(a):
    errors = {f.code for f in validate_assertion(a) if f.severity is Severity.ERROR}
    try:
        line = serialize_assertion(a)
    except SchemaViolation:
        line = None
    try:
        back = None if line is None else parse_assertion(line, mode=ParseMode.LENIENT)
    except DqError:
        back = None
    # a newline splits the line only where it is one line of a file
    assert (back == a) == (not errors - {"NewlineInQualifier"}), errors
    in_file = None if line is None else parse_assertion_file(line)
    assert (in_file == ([(1, a)], [])) == (not errors), errors
    if not validate_assertion(a):  # no warning either: the label resolves
        assert parse_assertion(line, mode=ParseMode.STRICT) == a


@settings(max_examples=500, deadline=None)
@given(a=hand_built_assertions())
def test_serialize_raises_exactly_when_a_percent_or_qualifier_has_the_wrong_type(a):
    codes = {f.code for f in validate_assertion(a)}
    try:
        serialize_assertion(a)
    except SchemaViolation:
        raised = True
    else:
        raised = False
    assert raised == bool(codes & {"InvalidFraction", "InvalidQualifier"}), codes


def reference_format_percent(value: Fraction, precision: int) -> str:
    scaled = value * 100 * 10**precision
    units = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    digits = str(units)
    if precision == 0:
        return f"{digits}%"
    digits = digits.zfill(precision + 1)
    return f"{digits[:-precision]}.{digits[-precision:]}%"


@settings(max_examples=300, deadline=None)
@given(value=st.fractions(min_value=0, max_value=1), precision=st.integers(0, 4))
def test_format_percent_matches_the_rational_formula(value, precision):
    assert format_percent(value, precision) == reference_format_percent(value, precision)


@pytest.mark.parametrize(
    "value, in_range",
    [(Fraction(0), True), (Fraction(1), True), (Fraction(999, 1000), True),
     (Fraction(1001, 1000), False), (Fraction(-1, 100), False), (Fraction(5, 4), False)],
)
def test_validate_percent_range_is_zero_to_one_inclusive(value, in_range):
    a = DQAssertion(LifecycleLocus(Organization.DGO, Phase.DG, "Clinician"), "Completeness", value)
    codes = [f.code for f in validate_assertion(a)]
    assert codes == ([] if in_range else ["PercentOutOfRange"])

"""Provenance assertion notation: grammar, parser, validator, serializer.

Canonical form::

    ORG-PHASE-Actor (Label: value)

where ``ORG`` is ``DGO``/``DRO``, ``PHASE`` is ``DG``/``DT``/``DR``, actor
and label are identifiers (uppercase first letter, alphanumerics after),
and ``value`` is an optional percent literal followed by optional free
text that must not contain ``)``. A percent literal is ASCII digits, an
optional ``.`` and at most 100 more ASCII digits, then ``%``, at most
100%, and is followed by a space or the ``)``. Examples::

    DGO-DG-Clinician (Completeness: 94%)
    DRO-DT-DataEngineer (Mapping: 92% success)
    DGO-DG-Organization (Policy: states diagnosis required only for billable)

Lenient parsing additionally accepts the short form ``PHASE-Actor ...``
(organization defaults to DGO), actor aliases, surrounding whitespace, and
labels that resolve to no core parameter. Percent values are held as exact
rationals so that serialize(parse(s)) is byte-identical for canonical
strings; a value starting with ``<digits>%`` is always read as numeric,
never as text.

One match of a compiled grammar (``_ASSERTION_RE``) reads a line. Every
token is an optional group nested in the one before it, so the match
always succeeds: on a valid line it runs through the closing ``)``, and
on an invalid one the first unmatched group names what was expected and
where. The locus comes from the registry's table of valid loci.

Assertion files hold one assertion per line, UTF-8, LF line endings,
after at most one leading byte-order mark; ``#`` starts a comment line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .errors import (
    DqError,
    NotationSyntaxError,
    PercentOutOfRange,
    SchemaViolation,
    UnresolvedLabel,
    shown,
)
from .taxonomy import (
    IDENTIFIER_RE,
    LABEL_PARAMETERS,
    ActorRegistry,
    DQParameter,
    LifecycleLocus,
    validate_locus,
)

#: A percent literal, which a value is read as whenever it starts with one.
_PERCENT_RE = re.compile(r"(?P<whole>[0-9]+)(?:\.(?P<decimals>[0-9]+))?%")

#: The whole grammar as nested optional groups, so that every text matches.
#: A valid line matches through its closing paren; on an invalid one the
#: first group left unmatched is what was expected at ``m.end()``. As
#: nothing after a group can fail, the match never backtracks into one, so
#: each token is read once, as far as it goes, left to right. The value is
#: an optional ASCII percent (with the space after it) and qualifier text
#: up to the first ``)``.
_ASSERTION_RE = re.compile(
    r"(?:(?P<org>DGO|DRO)-)?"
    r"(?:(?P<phase>DG|DT|DR)-"
    rf"(?:(?P<actor>{IDENTIFIER_RE.pattern})"
    r"(?:(?P<open> \()"
    rf"(?:(?P<label>{IDENTIFIER_RE.pattern})"
    r"(?:(?P<colon>: )"
    rf"(?:(?P<percent>{_PERCENT_RE.pattern})(?P<space> )?)?"
    r"(?P<qualifier>[^)]*)(?P<close>\))?"
    r")?)?)?)?)?"
)

#: The most decimals a percent literal may have.
_MAX_DECIMALS = 100

#: What each structural group stands for, in grammar order.
_EXPECTED = (
    ("phase", "expected phase code DG, DT or DR"),
    ("actor", "expected actor identifier"),
    ("open", "expected ' (' before the label"),
    ("label", "expected label identifier"),
    ("colon", "expected ': ' between label and value"),
)
#: Each label that names a parameter, mapped to its own key string in
#: ``LABEL_PARAMETERS``, so that every parsed line holds that one string.
_LABEL_KEYS = {label: label for label in LABEL_PARAMETERS}


class ParseMode(str, Enum):
    STRICT = "Strict"
    LENIENT = "Lenient"


class Severity(str, Enum):
    ERROR = "Error"
    WARNING = "Warning"


@dataclass(frozen=True)
class Finding:
    severity: Severity
    code: str
    message: str


@dataclass(frozen=True, slots=True)
class DQAssertion:
    """One provenance-tagged quality statement: the five parts of a line.

    ``label`` is kept exactly as written; ``parameter`` follows from it
    through ``LABEL_PARAMETERS``, and is None for an unresolved label or
    one that is not a string. ``numeric_fraction`` stores the percent as
    a rational in [0, 1], ``display_precision`` is how many decimals it
    renders with, and ``qualifier_text`` is the free text after it.
    """

    locus: LifecycleLocus
    label: str
    numeric_fraction: Fraction | None = None
    display_precision: int = 0
    qualifier_text: str | None = None

    @property
    def parameter(self) -> DQParameter | None:
        label = self.label
        return LABEL_PARAMETERS.get(label) if isinstance(label, str) else None


def _precision_fault(precision: int) -> str | None:
    """Why a percent cannot be rendered at ``precision``, or None. More
    than ``_MAX_DECIMALS`` decimals would not parse back."""
    if isinstance(precision, bool) or not isinstance(precision, int) or not 0 <= precision <= _MAX_DECIMALS:
        return f"precision must be an integer from 0 to {_MAX_DECIMALS}, got {shown(precision)}"
    return None


def format_percent(value: Fraction, precision: int = 0) -> str:
    """Render a [0,1] fraction as a percent string, round-half-up."""
    if fault := _precision_fault(precision):
        raise SchemaViolation(fault)
    n, d = value.numerator, value.denominator
    units = (2 * n * 100 * 10**precision + d) // (2 * d)
    digits = str(units)
    if precision == 0:
        return f"{digits}%"
    digits = digits.zfill(precision + 1)
    return f"{digits[:-precision]}.{digits[-precision:]}%"


def parse_assertion(
    text: str,
    registry: ActorRegistry | None = None,
    mode: ParseMode = ParseMode.STRICT,
) -> DQAssertion:
    """Parse a single assertion.

    Strict mode requires the full ``ORG-PHASE-Actor`` form, a canonical
    registered actor name, and a label resolvable to a core parameter.
    Lenient mode additionally accepts the ``PHASE-Actor`` short form,
    aliases, and unresolved labels. ``mode`` is a ParseMode or its value;
    any other value raises ValueError.
    """
    return _parse_line(text, registry, ParseMode(mode) is ParseMode.LENIENT, {}, {})


def _parse_line(
    text: str,
    registry: ActorRegistry | None,
    lenient: bool,
    fractions: dict[str, Fraction],
    texts: dict[str, str],
) -> DQAssertion:
    """Parse one line, sharing its repeated parts through the caller's
    tables: ``fractions`` maps a percent literal that parsed to its
    Fraction, and ``texts`` maps a qualifier or an unresolved label to the
    first equal string. A literal that failed is not stored, so it fails
    again on every line that holds it. The tables stay apart, as a
    qualifier may be the text of an earlier percent literal."""
    start, end = 0, len(text)
    if lenient:
        body = text.strip()
        start = text.index(body) if body else 0
        end = start + len(body)
    m = _ASSERTION_RE.match(text, start, end)
    org, phase, actor, _, label, colon, percent, whole, decimals, space, qualifier, close = m.groups()

    if org is None and not lenient:
        raise NotationSyntaxError("expected organization code DGO or DRO", start)
    if colon is None:  # the groups nest: the first unmatched one was expected
        raise NotationSyntaxError(next(what for group, what in _EXPECTED if m[group] is None), m.end())
    numeric: Fraction | None = None
    precision = 0
    if percent is not None:
        numeric = fractions.get(percent)
        if numeric is not None:
            precision = len(decimals) if decimals else 0
        else:
            # leading zeros carry no value, and a literal held to 3
            # significant whole digits and _MAX_DECIMALS decimals stays far
            # inside Python's limit on the digits of an int read from text
            whole, decimals = whole.lstrip("0"), decimals or ""
            if len(whole) > 3:
                raise PercentOutOfRange(f"percent value {percent} exceeds 100%")
            if len(decimals) > _MAX_DECIMALS:
                raise NotationSyntaxError(f"percent has more than {_MAX_DECIMALS} decimals", m.start("percent"))
            precision = len(decimals)
            units, scale = int((whole + decimals) or "0"), 100 * 10**precision
            if units > scale:
                raise PercentOutOfRange(f"percent value {percent} exceeds 100%")
            numeric = fractions[percent] = Fraction(units, scale)
        if space is None and qualifier:
            raise NotationSyntaxError("expected space or ')' after percent", m.start("qualifier"))
    qualifier = qualifier or None
    if numeric is None and qualifier is None:
        raise NotationSyntaxError("assertion value is empty", m.end("colon"))
    if close is None:
        raise NotationSyntaxError("expected ')'", m.end())
    if m.end() != end:
        raise NotationSyntaxError("unexpected text after ')'", m.end())

    # the matched codes hash and compare equal to the members that key the
    # registry's table; the short form defaults to the generating organization
    locus = validate_locus(org or "DGO", phase, actor, registry, allow_aliases=lenient)
    key = _LABEL_KEYS.get(label)
    if key is None:
        if not lenient:
            raise UnresolvedLabel(f"label {label!r} does not resolve to a core parameter")
        key = texts.setdefault(label, label)
    if qualifier is not None:
        qualifier = texts.setdefault(qualifier, qualifier)

    return DQAssertion(locus, key, numeric, precision, qualifier)


def _type_faults(a: DQAssertion) -> list[Finding]:
    """ERROR findings for a percent or qualifier of a type no line holds:
    a percent that is not a Fraction, or a qualifier that is not a
    non-empty string."""
    faults = []
    if a.numeric_fraction is not None and not isinstance(a.numeric_fraction, Fraction):
        message = f"numeric fraction must be a Fraction or None, got {shown(a.numeric_fraction)}"
        faults.append(Finding(Severity.ERROR, "InvalidFraction", message))
    if a.qualifier_text is not None and not (isinstance(a.qualifier_text, str) and a.qualifier_text):
        message = f"qualifier text must be a non-empty string or None, got {shown(a.qualifier_text)}"
        faults.append(Finding(Severity.ERROR, "InvalidQualifier", message))
    return faults


def serialize_assertion(assertion: DQAssertion) -> str:
    """Render the canonical ``ORG-PHASE-Actor (Label: value)`` form. A
    percent or qualifier of the wrong type raises SchemaViolation, with
    the message of ``validate_assertion``'s finding."""
    if faults := _type_faults(assertion):
        raise SchemaViolation(faults[0].message)
    numeric, text = assertion.numeric_fraction, assertion.qualifier_text
    if numeric is None:
        value = "" if text is None else text
    elif text is None:
        value = format_percent(numeric, assertion.display_precision)
    else:
        value = f"{format_percent(numeric, assertion.display_precision)} {text}"
    return f"{assertion.locus} ({assertion.label}: {value})"


def validate_assertion(
    assertion: DQAssertion,
    registry: ActorRegistry | None = None,
) -> list[Finding]:
    """Check an assertion against the taxonomy and measurement invariants.

    Returns findings rather than raising; an empty list means the
    assertion is fully valid. An ERROR finding also marks an assertion
    whose serialized line would not parse back to it, alone or as a line
    of a file; a percent that is not exact at its precision reads back
    rounded, which is no error. An unresolved label is a warning only.
    """
    findings: list[Finding] = []
    locus = assertion.locus

    try:
        validate_locus(locus.organization, locus.phase, locus.actor, registry, allow_aliases=False)
    except DqError as e:
        findings.append(Finding(Severity.ERROR, type(e).__name__, str(e)))

    numeric, precision, text = assertion.numeric_fraction, assertion.display_precision, assertion.qualifier_text
    findings.extend(_type_faults(assertion))
    if numeric is None and text is None:
        findings.append(Finding(Severity.ERROR, "EmptyMeasurement", "measurement has neither percent nor text"))
    elif isinstance(numeric, Fraction) and not 0 <= numeric.numerator <= numeric.denominator:
        message = f"numeric fraction {shown(numeric, str)} outside [0, 1]"
        findings.append(Finding(Severity.ERROR, "PercentOutOfRange", message))
    if fault := _precision_fault(precision):
        findings.append(Finding(Severity.ERROR, "InvalidPrecision", fault))
    elif numeric is None and precision:  # a line without a percent reads as precision 0
        message = f"precision must be 0 without a percent, got {precision}"
        findings.append(Finding(Severity.ERROR, "InvalidPrecision", message))
    # the qualifier must read back as itself from the serialized line
    if isinstance(text, str) and text:
        if ")" in text:
            message = f"qualifier text {text!r} holds ')', which ends the value"
            findings.append(Finding(Severity.ERROR, "ParenInQualifier", message))
        if "\n" in text:
            message = f"qualifier text {text!r} holds a newline, which ends the line in a file"
            findings.append(Finding(Severity.ERROR, "NewlineInQualifier", message))
        if numeric is None and "%" in text and _PERCENT_RE.match(text):
            message = f"qualifier text {text!r} starts with a percent, so it reads as one"
            findings.append(Finding(Severity.ERROR, "QualifierReadsAsPercent", message))

    if assertion.parameter is None:
        label = assertion.label
        if not isinstance(label, str) or not IDENTIFIER_RE.fullmatch(label):
            findings.append(Finding(Severity.ERROR, "InvalidLabel", f"label {shown(label)} is not an identifier"))
        else:
            message = f"label {label!r} resolves to no core parameter"
            findings.append(Finding(Severity.WARNING, "UnresolvedLabel", message))
    return findings


def canonicalize(assertion: DQAssertion, registry: ActorRegistry | None = None) -> DQAssertion:
    """The assertion with the registry's own locus for its locus, the actor
    named by its canonical name. A locus the registry rejects raises the
    error of ``validate_locus``."""
    locus = assertion.locus
    shared = validate_locus(locus.organization, locus.phase, locus.actor, registry)
    return assertion if shared is locus else replace(assertion, locus=shared)


@dataclass(frozen=True, slots=True)
class LineIssue:
    """A parse failure tied to a line of an assertion file."""

    line_number: int
    error: str
    message: str
    offset: int | None = None


def parse_assertion_file(
    text: str,
    registry: ActorRegistry | None = None,
    mode: ParseMode = ParseMode.LENIENT,
) -> tuple[list[tuple[int, DQAssertion]], list[LineIssue]]:
    """Parse an assertion file: one assertion per line, ``#`` comments.

    Returns (numbered assertions, numbered issues); parsing continues
    past bad lines. One leading byte-order mark is not text. Within the
    call, equal percent literals share one Fraction, and equal
    qualifiers or unresolved labels share one string.
    """
    lenient = ParseMode(mode) is ParseMode.LENIENT
    fractions: dict[str, Fraction] = {}
    texts: dict[str, str] = {}
    assertions: list[tuple[int, DQAssertion]] = []
    issues: list[LineIssue] = []
    for n, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            assertions.append((n, _parse_line(line, registry, lenient, fractions, texts)))
        except NotationSyntaxError as e:
            issues.append(LineIssue(n, "NotationSyntaxError", str(e), e.offset))
        except DqError as e:
            issues.append(LineIssue(n, type(e).__name__, str(e)))
    return assertions, issues

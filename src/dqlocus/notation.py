"""Provenance assertion notation: grammar, parser, validator, serializer.

Canonical form::

    ORG-PHASE-Actor (Label: value)

where ``ORG`` is ``DGO``/``DRO``, ``PHASE`` is ``DG``/``DT``/``DR``, actor
and label are identifiers (uppercase first letter, alphanumerics after),
and ``value`` is an optional percent literal followed by optional free
text that must not contain ``)``. Examples::

    DGO-DG-Clinician (Completeness: 94%)
    DRO-DT-DataEngineer (Mapping: 92% success)
    DGO-DG-Organization (Policy: states diagnosis required only for billable)

Lenient parsing additionally accepts the short form ``PHASE-Actor ...``
(organization defaults to DGO), actor aliases, and labels that resolve to
no core parameter. Percent values are held as exact rationals so that
serialize(parse(s)) is byte-identical for canonical strings; a value
starting with ``<digits>%`` is always read as numeric, never as text.

Assertion files hold one assertion per line, UTF-8, LF line endings;
``#`` starts a comment line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from datetime import datetime
from enum import Enum
from fractions import Fraction

from .errors import (
    DqError,
    NotationSyntaxError,
    PercentOutOfRange,
    UnresolvedLabel,
)
from .taxonomy import (
    IDENTIFIER_RE,
    ActorRegistry,
    DQParameter,
    LifecycleLocus,
    Organization,
    Phase,
    builtin_registry,
    validate_locus,
    _PARAMETERS_BY_NAME,
)

_NUMBER_RE = re.compile(r"\d+(?:\.(\d+))?%")

#: Default label resolution: the nine parameter names map to themselves;
#: the two context labels seen in practice map onto their parameters.
DEFAULT_LABEL_MAP: dict[str, str] = {name: name for name in _PARAMETERS_BY_NAME}
DEFAULT_LABEL_MAP["Policy"] = "Governance"
DEFAULT_LABEL_MAP["Mapping"] = "Interoperability"


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


@dataclass(frozen=True)
class Measurement:
    """The measured part of an assertion: exact percent and/or free text.

    ``numeric_fraction`` stores the percent as a rational in [0, 1];
    ``display_precision`` controls how many decimals rendering shows.
    """

    numeric_fraction: Fraction | None = None
    display_precision: int = 0
    qualifier_text: str | None = None


@dataclass(frozen=True)
class AssertionScope:
    """Optional narrowing of what an assertion covers."""

    dataset_id: str | None = None
    field_name: str | None = None
    subset_description: str | None = None


@dataclass(frozen=True)
class DQAssertion:
    """One provenance-tagged quality statement.

    ``label`` is kept exactly as written; ``parameter`` is its resolution
    through the label map, when one exists.
    """

    locus: LifecycleLocus
    label: str
    measurement: Measurement
    parameter: DQParameter | None = None
    scope: AssertionScope | None = None
    method_id: str | None = None
    asserted_at: datetime | None = None
    raw_text: str | None = field(default=None, compare=False)


def format_percent(value: Fraction, precision: int = 0) -> str:
    """Render a [0,1] fraction as a percent string, round-half-up."""
    if precision < 0:
        raise ValueError("precision must be >= 0")
    scaled = value * 100 * 10**precision
    units = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    digits = str(units)
    if precision == 0:
        return f"{digits}%"
    digits = digits.zfill(precision + 1)
    return f"{digits[:-precision]}.{digits[-precision:]}%"


class _Cursor:
    """Character cursor with offset-carrying errors."""

    def __init__(self, text: str, base: int = 0):
        self.text = text
        self.pos = 0
        self.base = base

    @property
    def offset(self) -> int:
        return self.base + self.pos

    def rest(self) -> str:
        return self.text[self.pos:]

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


def _parse_measurement(cur: _Cursor) -> Measurement:
    """Parse the value region up to the closing paren."""
    start = cur.pos
    numeric: Fraction | None = None
    precision = 0
    m = _NUMBER_RE.match(cur.text, cur.pos)
    if m is not None:
        literal = m.group(0)[:-1]
        decimals = m.group(1) or ""
        precision = len(decimals)
        numeric = Fraction(literal.replace(".", "")) / Fraction(100 * 10**precision)
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
    return Measurement(numeric, precision, qualifier)


def parse_assertion(
    text: str,
    registry: ActorRegistry | None = None,
    mode: ParseMode = ParseMode.STRICT,
    label_map: dict[str, str] | None = None,
) -> DQAssertion:
    """Parse a single assertion.

    Strict mode requires the full ``ORG-PHASE-Actor`` form, a canonical
    registered actor name, and a label resolvable to a core parameter.
    Lenient mode additionally accepts the ``PHASE-Actor`` short form,
    aliases, and unresolved labels.
    """
    registry = registry or builtin_registry()
    label_map = DEFAULT_LABEL_MAP if label_map is None else label_map
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

    locus = validate_locus(org, phase, actor_name, registry, allow_aliases=lenient)

    parameter: DQParameter | None = None
    mapped = label_map.get(label)
    if mapped is not None and mapped in _PARAMETERS_BY_NAME:
        parameter = _PARAMETERS_BY_NAME[mapped]
    elif not lenient:
        raise UnresolvedLabel(f"label {label!r} does not resolve to a core parameter")

    return DQAssertion(
        locus=locus,
        label=label,
        measurement=measurement,
        parameter=parameter,
        raw_text=text,
    )


def serialize_assertion(assertion: DQAssertion) -> str:
    """Render the canonical ``ORG-PHASE-Actor (Label: value)`` form."""
    m = assertion.measurement
    parts = []
    if m.numeric_fraction is not None:
        parts.append(format_percent(m.numeric_fraction, m.display_precision))
    if m.qualifier_text:
        parts.append(m.qualifier_text)
    value = " ".join(parts)
    return f"{assertion.locus} ({assertion.label}: {value})"


def validate_assertion(
    assertion: DQAssertion,
    registry: ActorRegistry | None = None,
    label_map: dict[str, str] | None = None,
) -> list[Finding]:
    """Check an assertion against the taxonomy and measurement invariants.

    Returns findings rather than raising; an empty list means the
    assertion is fully valid. An unresolved label is a warning only.
    """
    registry = registry or builtin_registry()
    label_map = DEFAULT_LABEL_MAP if label_map is None else label_map
    findings: list[Finding] = []
    locus = assertion.locus

    try:
        validate_locus(locus.organization, locus.phase, locus.actor, registry, allow_aliases=False)
    except DqError as e:
        findings.append(Finding(Severity.ERROR, type(e).__name__, str(e)))

    m = assertion.measurement
    if m.numeric_fraction is None and not m.qualifier_text:
        findings.append(
            Finding(Severity.ERROR, "EmptyMeasurement", "measurement has neither percent nor text")
        )
    if m.numeric_fraction is not None and not 0 <= m.numeric_fraction <= 1:
        findings.append(
            Finding(
                Severity.ERROR,
                "PercentOutOfRange",
                f"numeric fraction {m.numeric_fraction} outside [0, 1]",
            )
        )

    mapped = label_map.get(assertion.label)
    if assertion.parameter is not None:
        if mapped != assertion.parameter.name:
            findings.append(
                Finding(
                    Severity.ERROR,
                    "LabelParameterMismatch",
                    f"label {assertion.label!r} does not map to parameter {assertion.parameter.name!r}",
                )
            )
    elif mapped is None:
        findings.append(
            Finding(
                Severity.WARNING,
                "UnresolvedLabel",
                f"label {assertion.label!r} resolves to no core parameter",
            )
        )
    return findings


def canonicalize(assertion: DQAssertion, registry: ActorRegistry | None = None) -> DQAssertion:
    """Resolve the locus actor to its canonical name."""
    registry = registry or builtin_registry()
    locus = assertion.locus
    actor = registry.resolve(locus.actor)
    if actor.canonical_name == locus.actor:
        return assertion
    return replace(
        assertion,
        locus=LifecycleLocus(locus.organization, locus.phase, actor.canonical_name),
    )


@dataclass(frozen=True)
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
    label_map: dict[str, str] | None = None,
) -> tuple[list[tuple[int, DQAssertion]], list[LineIssue]]:
    """Parse an assertion file: one assertion per line, ``#`` comments.

    Returns (numbered assertions, numbered issues); parsing continues
    past bad lines.
    """
    assertions: list[tuple[int, DQAssertion]] = []
    issues: list[LineIssue] = []
    for n, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            assertions.append((n, parse_assertion(line, registry, mode, label_map)))
        except NotationSyntaxError as e:
            issues.append(LineIssue(n, "NotationSyntaxError", str(e), e.offset))
        except DqError as e:
            issues.append(LineIssue(n, type(e).__name__, str(e)))
    return assertions, issues


def sorted_for_report(assertions: list[DQAssertion]) -> list[DQAssertion]:
    """Stable lifecycle ordering used by the report renderers."""
    return sorted(
        assertions,
        key=lambda a: (a.locus.sort_key, a.label, serialize_assertion(a)),
    )

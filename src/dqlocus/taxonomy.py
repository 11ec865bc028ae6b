"""Lifecycle taxonomy: organizations, phases, actors, and DQ parameters.

The lifecycle model has two organizations (data-generating and
data-receiving), three phases (generation, transformation, reuse) and a
registry of actors allowed at specific organization/phase pairs. Data
generation happens only at the data-generating organization, so exactly
five (organization, phase) pairs are valid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .errors import (
    ActorPhaseMismatch,
    AliasCollision,
    DuplicateActor,
    EmptyAllowedPhases,
    InvalidActorName,
    InvalidPhaseForOrganization,
    Reader,
    SchemaViolation,
    UnknownActor,
    list_of,
    load_json,
    read_object,
    read_str,
)


class Organization(str, Enum):
    """Where along the lifecycle an activity happens, organizationally."""

    DGO = "DGO"  # data-generating organization
    DRO = "DRO"  # data-receiving organization


class Phase(str, Enum):
    """Lifecycle phase. Declaration order is lifecycle order."""

    DG = "DG"  # data generation
    DT = "DT"  # data transformation
    DR = "DR"  # data reuse


#: The five valid (organization, phase) pairs, in lifecycle order.
#: Data generation is exclusive to the data-generating organization.
ORG_PHASE_PAIRS: tuple[tuple[Organization, Phase], ...] = (
    (Organization.DGO, Phase.DG),
    (Organization.DGO, Phase.DT),
    (Organization.DGO, Phase.DR),
    (Organization.DRO, Phase.DT),
    (Organization.DRO, Phase.DR),
)

_PAIR_ORDER = {pair: i for i, pair in enumerate(ORG_PHASE_PAIRS)}

#: Actor and label identifiers: leading uppercase letter, alphanumerics after.
IDENTIFIER_RE = re.compile(r"[A-Z][A-Za-z0-9]*")


class ParameterCategory(str, Enum):
    INTRINSIC = "Intrinsic"
    CONTEXTUAL = "Contextual"
    SYSTEM_TECHNICAL = "SystemTechnical"


class MeasurementKind(str, Enum):
    COMPUTED = "Computed"
    ATTESTED = "Attested"


@dataclass(frozen=True)
class DQParameter:
    """One of the data quality parameters checks and attestations refer to.

    ``attested_fallback`` marks a computed parameter that may still be
    attested when no measurement source exists (interoperability without
    mapping logs).
    """

    name: str
    category: ParameterCategory
    measurement_kind: MeasurementKind
    attested_fallback: bool = False

    @property
    def attestable(self) -> bool:
        return self.measurement_kind is MeasurementKind.ATTESTED or self.attested_fallback


_CORE_PARAMETERS: tuple[DQParameter, ...] = (
    # intrinsic, alphabetical
    DQParameter("Completeness", ParameterCategory.INTRINSIC, MeasurementKind.COMPUTED),
    DQParameter("Conformance", ParameterCategory.INTRINSIC, MeasurementKind.COMPUTED),
    DQParameter("Plausibility", ParameterCategory.INTRINSIC, MeasurementKind.COMPUTED),
    # contextual, alphabetical
    DQParameter("Accessibility", ParameterCategory.CONTEXTUAL, MeasurementKind.ATTESTED),
    DQParameter("Governance", ParameterCategory.CONTEXTUAL, MeasurementKind.ATTESTED),
    DQParameter("Relevance", ParameterCategory.CONTEXTUAL, MeasurementKind.ATTESTED),
    DQParameter("Timeliness", ParameterCategory.CONTEXTUAL, MeasurementKind.COMPUTED),
    # system/technical, alphabetical
    DQParameter(
        "Interoperability",
        ParameterCategory.SYSTEM_TECHNICAL,
        MeasurementKind.COMPUTED,
        attested_fallback=True,
    ),
    DQParameter("OperatingPlatform", ParameterCategory.SYSTEM_TECHNICAL, MeasurementKind.ATTESTED),
)

#: The parameter each label names: the nine parameter names name
#: themselves, and the two context labels seen in practice name theirs.
LABEL_PARAMETERS: dict[str, DQParameter] = {p.name: p for p in _CORE_PARAMETERS}
LABEL_PARAMETERS["Policy"] = LABEL_PARAMETERS["Governance"]
LABEL_PARAMETERS["Mapping"] = LABEL_PARAMETERS["Interoperability"]


def core_parameters() -> list[DQParameter]:
    """The nine core parameters in stable order (by category, then name)."""
    return list(_CORE_PARAMETERS)


@dataclass(frozen=True)
class Actor:
    """An agent class that creates, transforms, or reuses data."""

    canonical_name: str
    aliases: frozenset[str] = frozenset()
    allowed_phases: frozenset[tuple[Organization, Phase]] = frozenset()


def _actor(name: str, aliases: tuple[str, ...], pairs: tuple[tuple[Organization, Phase], ...]) -> Actor:
    return Actor(name, frozenset(aliases), frozenset(pairs))


_DGO_DG, _DGO_DT, _DGO_DR, _DRO_DT, _DRO_DR = ORG_PHASE_PAIRS

# Builtin actor table. Generation-phase actors: patients, clinicians,
# wearables, the EHR system itself, and the organization whose policies
# shape entry. Transformation: data engineers or the EHR system, at either
# organization. Reuse: clinicians, researchers, stakeholders, AI models,
# and the organization, at either organization.
_BUILTIN_ACTORS: tuple[Actor, ...] = (
    _actor("AIModel", ("AI",), (_DGO_DR, _DRO_DR)),
    _actor("Clinician", (), (_DGO_DG, _DGO_DR, _DRO_DR)),
    _actor("DataEngineer", ("Engineer",), (_DGO_DT, _DRO_DT)),
    _actor("EHRSystem", ("EHR",), (_DGO_DG, _DGO_DT, _DRO_DT)),
    _actor("Organization", ("Org",), (_DGO_DG, _DGO_DR, _DRO_DR)),
    _actor("Patient", (), (_DGO_DG,)),
    _actor("Researcher", (), (_DGO_DR, _DRO_DR)),
    _actor("Stakeholder", (), (_DGO_DR, _DRO_DR)),
    _actor("Wearable", (), (_DGO_DG,)),
)


@dataclass(frozen=True)
class LifecycleLocus:
    """A validated (organization, phase, actor) triple.

    ``actor`` holds the canonical actor name. Construct through
    :func:`validate_locus` to guarantee the invariants hold.
    """

    organization: Organization
    phase: Phase
    actor: str

    def __str__(self) -> str:
        return _spell(self.organization, self.phase, self.actor)


def _spell(*codes: Any) -> str:
    """Codes joined by ``-``. A string code reads as its own text, which
    for a member is its value on every Python version (``f"{member}"`` is
    not); any other code reads as ``str()`` of it."""
    try:
        return "-".join(codes)
    except TypeError:  # a code that is not a string
        return "-".join(c if isinstance(c, str) else str(c) for c in codes)


def _require_pair(org: Organization, phase: Phase) -> None:
    """Raise for any pair outside the lifecycle model: DRO-DG, or a pair
    of codes that name no organization or phase."""
    if not (isinstance(org, str) and isinstance(phase, str) and (org, phase) in _PAIR_ORDER):
        why = ""
        if (org, phase) == (Organization.DRO, Phase.DG):
            why = ": data generation happens only at the data-generating organization"
        raise InvalidPhaseForOrganization(f"{_spell(org, phase)} is not a valid organization-phase pair{why}")


class ActorRegistry:
    """Immutable lookup of actors by canonical name or alias.

    The constructor checks each actor against the actors before it, so
    every registry is valid however it was built; ``with_actor`` returns
    a new one. ``_names`` maps each name as written, canonical or alias,
    to its actor, and ``_loci`` maps (organization, phase, name as
    written) to the one locus an actor's names share there.
    """

    def __init__(self, actors: tuple[Actor, ...] = _BUILTIN_ACTORS):
        self._names: dict[str, Actor] = {}
        self._loci: dict[tuple[Organization, Phase, str], LifecycleLocus] = {}
        for actor in actors:
            name = actor.canonical_name
            if not IDENTIFIER_RE.fullmatch(name):
                raise InvalidActorName(f"actor name {name!r} must start uppercase and contain only alphanumerics")
            if name in self._names:
                raise DuplicateActor(f"actor {name!r} is already registered")
            if not actor.allowed_phases:
                raise EmptyAllowedPhases(f"actor {name!r} must be allowed in at least one phase")
            for org, phase in actor.allowed_phases:
                _require_pair(org, phase)
                locus = LifecycleLocus(org, phase, name)
                for written in (name, *actor.aliases):
                    self._loci[(org, phase, written)] = locus
            self._names[name] = actor
            for alias in sorted(actor.aliases):
                if not IDENTIFIER_RE.fullmatch(alias):
                    raise InvalidActorName(f"alias {alias!r} must start uppercase and contain only alphanumerics")
                if alias in self._names:
                    raise AliasCollision(f"alias {alias!r} collides with an existing name")
                self._names[alias] = actor

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self):
        actors = (a for name, a in self._names.items() if name == a.canonical_name)
        return iter(sorted(actors, key=lambda a: a.canonical_name))

    def _locus(self, org: Organization, phase: Phase, name: str) -> LifecycleLocus | None:
        """The locus the triple names, or None; a triple with an unhashable
        code or name names none."""
        try:
            return self._loci.get((org, phase, name))
        except TypeError:
            return None

    def resolve(self, name: str, *, allow_aliases: bool = True) -> Actor:
        """Resolve a name or (optionally) alias to its actor; a name that
        is not a string resolves to none."""
        actor = self._names.get(name) if isinstance(name, str) else None
        if actor is None or not (allow_aliases or name == actor.canonical_name):
            raise UnknownActor(f"unknown actor: {name!r}")
        return actor

    def with_actor(
        self,
        name: str,
        aliases: set[str] | frozenset[str] = frozenset(),
        allowed_phases: set[tuple[Organization, Phase]] | frozenset = frozenset(),
    ) -> "ActorRegistry":
        """Return a new registry extended with a custom actor."""
        return ActorRegistry((*self, Actor(name, frozenset(aliases), frozenset(allowed_phases))))


_BUILTIN_REGISTRY = ActorRegistry()


def builtin_registry() -> ActorRegistry:
    """The registry holding only the builtin actors."""
    return _BUILTIN_REGISTRY


def validate_locus(
    org: Organization,
    phase: Phase,
    actor_name: str,
    registry: ActorRegistry | None = None,
    *,
    allow_aliases: bool = True,
) -> LifecycleLocus:
    """The registry's locus for the triple, its actor name resolved.

    Raises InvalidPhaseForOrganization for the impossible DRO-DG pair and
    for codes that name no pair, UnknownActor for unresolvable names (a
    name that is not a string among them), and ActorPhaseMismatch when
    the actor is not allowed at the pair.
    """
    registry = registry or _BUILTIN_REGISTRY
    locus = registry._locus(org, phase, actor_name)
    if locus is not None and (allow_aliases or locus.actor == actor_name):
        return locus
    _require_pair(org, phase)  # not a valid locus: only the error is left to decide
    actor = registry.resolve(actor_name, allow_aliases=allow_aliases)
    raise ActorPhaseMismatch(
        f"actor {actor.canonical_name!r} is not allowed at {_spell(org, phase)}"
    )


def enumerate_loci(registry: ActorRegistry | None = None) -> list[LifecycleLocus]:
    """Every valid locus, in lifecycle order then actor name."""
    registry = registry or _BUILTIN_REGISTRY
    loci = (locus for (_, _, name), locus in registry._loci.items() if name == locus.actor)
    return sorted(loci, key=lambda locus: (_PAIR_ORDER[locus.organization, locus.phase], locus.actor))


def _read_pair(value: Any, where: str) -> tuple[Organization, Phase]:
    org, _, phase = read_str(value, where).partition("-")
    try:
        return Organization(org), Phase(phase)
    except ValueError:
        raise SchemaViolation(f"{where} must be 'ORG-PHASE', got {value!r}") from None


#: The reader of each key of an actor entry: the parameters of
#: ``ActorRegistry.with_actor``.
_ACTOR_READERS: dict[str, Reader] = {
    "name": read_str,
    "aliases": list_of(read_str, frozenset),
    "allowed_phases": list_of(_read_pair, frozenset),
}


def _read_actor(value: Any, where: str) -> dict[str, Any]:
    return read_object(value, _ACTOR_READERS, where, ("name",))


def load_registry_config(text: str | bytes) -> ActorRegistry:
    """Load custom actors from a JSON config on top of the builtin set.

    Format: ``{"actors": [{"name", "aliases", "allowed_phases": ["DGO-DG", ...]}]}``.
    Builtin entries cannot be redefined, only extended with new actors;
    the first entry the registry rejects raises its error.
    """
    doc = load_json(text, "registry config")
    registry = _BUILTIN_REGISTRY
    for entry in read_object(doc, {"actors": list_of(_read_actor)}, "registry config").get("actors", ()):
        registry = registry.with_actor(**entry)
    return registry

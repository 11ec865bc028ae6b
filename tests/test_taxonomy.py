from __future__ import annotations

import json
import re

import pytest

from dqlocus.errors import (
    ActorPhaseMismatch,
    AliasCollision,
    DuplicateActor,
    EmptyAllowedPhases,
    InvalidActorName,
    InvalidPhaseForOrganization,
    SchemaViolation,
    UnknownActor,
)
from dqlocus.taxonomy import (
    _BUILTIN_ACTORS,
    ORG_PHASE_PAIRS,
    Actor,
    ActorRegistry,
    MeasurementKind,
    Organization,
    ParameterCategory,
    Phase,
    builtin_registry,
    core_parameters,
    enumerate_loci,
    load_registry_config,
    validate_locus,
)


def test_exactly_two_orgs_three_phases():
    assert [o.value for o in Organization] == ["DGO", "DRO"]
    assert [p.value for p in Phase] == ["DG", "DT", "DR"]


def test_valid_pairs_are_the_five_lifecycle_pairs():
    assert len(ORG_PHASE_PAIRS) == 5
    assert (Organization.DRO, Phase.DG) not in ORG_PHASE_PAIRS


def test_validate_locus_clinician_at_generation():
    locus = validate_locus(Organization.DGO, Phase.DG, "Clinician", builtin_registry())
    assert str(locus) == "DGO-DG-Clinician"


def test_validate_locus_rejects_dro_dg():
    with pytest.raises(InvalidPhaseForOrganization):
        validate_locus(Organization.DRO, Phase.DG, "Clinician", builtin_registry())


def test_validate_locus_wearable_at_generation():
    locus = validate_locus(Organization.DGO, Phase.DG, "Wearable")
    assert str(locus) == "DGO-DG-Wearable"


def test_validate_locus_resolves_engineer_alias():
    locus = validate_locus(Organization.DRO, Phase.DT, "Engineer")
    assert str(locus) == "DRO-DT-DataEngineer"


def test_validate_locus_alias_rejected_when_aliases_off():
    with pytest.raises(UnknownActor):
        validate_locus(Organization.DRO, Phase.DT, "Engineer", allow_aliases=False)


def test_validate_locus_actor_phase_mismatch():
    with pytest.raises(ActorPhaseMismatch):
        validate_locus(Organization.DGO, Phase.DT, "Patient")


def test_validate_locus_unknown_actor():
    with pytest.raises(UnknownActor):
        validate_locus(Organization.DGO, Phase.DG, "Nobody")


def test_dro_dg_fails_for_every_builtin_actor():
    for actor in builtin_registry():
        with pytest.raises(InvalidPhaseForOrganization):
            validate_locus(Organization.DRO, Phase.DG, actor.canonical_name)


def test_register_carer_at_generation():
    registry = builtin_registry().with_actor("Carer", set(), {(Organization.DGO, Phase.DG)})
    locus = validate_locus(Organization.DGO, Phase.DG, "Carer", registry)
    assert locus.actor == "Carer"


def test_register_duplicate_actor_rejected():
    with pytest.raises(DuplicateActor):
        builtin_registry().with_actor("Clinician", set(), {(Organization.DGO, Phase.DG)})


def test_register_alias_collision_rejected():
    with pytest.raises(AliasCollision):
        builtin_registry().with_actor("Carer", {"EHR"}, {(Organization.DGO, Phase.DG)})


def test_register_empty_phases_rejected():
    with pytest.raises(EmptyAllowedPhases):
        builtin_registry().with_actor("Carer", set(), set())


def test_register_never_mutates_builtin_registry():
    before = enumerate_loci(builtin_registry())
    builtin_registry().with_actor("Carer", set(), {(Organization.DGO, Phase.DG)})
    assert enumerate_loci(builtin_registry()) == before


def test_register_then_remove_restores_enumeration():
    base = builtin_registry()
    before = enumerate_loci(base)
    extended = base.with_actor("Carer", set(), {(Organization.DGO, Phase.DG)})
    assert enumerate_loci(extended) != before


def test_core_parameters_count_and_first():
    params = core_parameters()
    assert len(params) == 9
    assert params[0].name == "Completeness"
    assert params[0].category is ParameterCategory.INTRINSIC


def test_core_parameters_stable_order():
    names = [p.name for p in core_parameters()]
    assert names == [
        "Completeness",
        "Conformance",
        "Plausibility",
        "Accessibility",
        "Governance",
        "Relevance",
        "Timeliness",
        "Interoperability",
        "OperatingPlatform",
    ]


def test_governance_is_attested():
    by_name = {p.name: p for p in core_parameters()}
    # classification table: attested parameters are human statements
    assert by_name["Governance"].measurement_kind is MeasurementKind.ATTESTED
    assert by_name["Relevance"].measurement_kind is MeasurementKind.ATTESTED
    assert by_name["Accessibility"].measurement_kind is MeasurementKind.ATTESTED
    assert by_name["OperatingPlatform"].measurement_kind is MeasurementKind.ATTESTED
    for computed in ("Completeness", "Conformance", "Plausibility", "Timeliness"):
        assert by_name[computed].measurement_kind is MeasurementKind.COMPUTED
    assert by_name["Interoperability"].measurement_kind is MeasurementKind.COMPUTED
    assert by_name["Interoperability"].attestable


def test_enumerate_loci_projects_to_five_pairs():
    loci = enumerate_loci(builtin_registry())
    assert {(l.organization, l.phase) for l in loci} == set(ORG_PHASE_PAIRS)


def test_enumerate_loci_contains_ehr_at_generation():
    assert any(str(l) == "DGO-DG-EHRSystem" for l in enumerate_loci())


def test_enumerate_loci_dro_dr_actors():
    names = {l.actor for l in enumerate_loci() if (l.organization, l.phase) == (Organization.DRO, Phase.DR)}
    assert {"Clinician", "Researcher", "Stakeholder", "AIModel"} <= names


def test_enumerate_loci_projection_stable_under_custom_actors():
    registry = builtin_registry().with_actor(
        "AIModel2", set(), {(Organization.DGO, Phase.DR), (Organization.DRO, Phase.DR)}
    )
    loci = enumerate_loci(registry)
    assert len({(l.organization, l.phase) for l in loci}) == 5


#: Every builtin locus in the order ``enumerate_loci`` gives: the pairs in
#: ``ORG_PHASE_PAIRS`` order, then the actors by name.
BUILTIN_LOCI = [
    "DGO-DG-Clinician", "DGO-DG-EHRSystem", "DGO-DG-Organization", "DGO-DG-Patient", "DGO-DG-Wearable",
    "DGO-DT-DataEngineer", "DGO-DT-EHRSystem",
    "DGO-DR-AIModel", "DGO-DR-Clinician", "DGO-DR-Organization", "DGO-DR-Researcher", "DGO-DR-Stakeholder",
    "DRO-DT-DataEngineer", "DRO-DT-EHRSystem",
    "DRO-DR-AIModel", "DRO-DR-Clinician", "DRO-DR-Organization", "DRO-DR-Researcher", "DRO-DR-Stakeholder",
]


def test_enumerate_loci_orders_by_pair_then_actor_name():
    assert [str(l) for l in enumerate_loci(builtin_registry())] == BUILTIN_LOCI
    # a custom actor, registered last, takes its place by name at each pair
    registry = builtin_registry().with_actor(
        "Carer", {"Aide"}, {(Organization.DRO, Phase.DR), (Organization.DGO, Phase.DG)}
    )
    expected = list(BUILTIN_LOCI)
    expected.insert(expected.index("DRO-DR-Clinician"), "DRO-DR-Carer")
    expected.insert(expected.index("DGO-DG-Clinician"), "DGO-DG-Carer")
    assert [str(l) for l in enumerate_loci(registry)] == expected


def test_alias_resolution_idempotent_on_canonical_names():
    registry = builtin_registry()
    for actor in registry:
        assert registry.resolve(actor.canonical_name).canonical_name == actor.canonical_name


def test_load_registry_config_extends_builtins():
    registry = load_registry_config(
        '{"actors": [{"name": "Carer", "aliases": ["Caregiver"],'
        ' "allowed_phases": ["DGO-DG"]}]}'
    )
    assert registry.resolve("Caregiver").canonical_name == "Carer"
    # builtins still present
    assert registry.resolve("Engineer").canonical_name == "DataEngineer"


def test_load_registry_config_rejects_builtin_redefinition():
    with pytest.raises(DuplicateActor):
        load_registry_config('{"actors": [{"name": "Clinician", "allowed_phases": ["DGO-DT"]}]}')


def test_registry_is_iterable_in_name_order():
    names = [a.canonical_name for a in ActorRegistry()]
    assert names == sorted(names)


@pytest.mark.parametrize(
    "text, cause",
    [
        (b"\xff", "is not UTF-8, UTF-16 or UTF-32 text: 'utf-8' codec can't decode byte 0xff"),
        ("[" * 200_000, "is nested too deeply to decode"),
    ],
)
def test_load_registry_config_undecodable_or_too_deep_is_schema_violation(text, cause):
    with pytest.raises(SchemaViolation, match=re.escape(f"registry config {cause}")):
        load_registry_config(text)


DGO_DG = (Organization.DGO, Phase.DG)
DRO_DG = (Organization.DRO, Phase.DG)
DRO_DG_MESSAGE = (
    "DRO-DG is not a valid organization-phase pair:"
    " data generation happens only at the data-generating organization"
)


@pytest.mark.parametrize("actor, error, message", [
    # the first failing check wins: identifier, distinct name, pairs, valid pairs, aliases
    (Actor("carer", frozenset({"EHR"}), frozenset({DRO_DG})), InvalidActorName,
     "actor name 'carer' must start uppercase and contain only alphanumerics"),
    (Actor("Clinician", frozenset({"EHR"})), DuplicateActor, "actor 'Clinician' is already registered"),
    (Actor("EHR", frozenset(), frozenset({DGO_DG})), DuplicateActor, "actor 'EHR' is already registered"),
    (Actor("Carer", frozenset({"EHR"})), EmptyAllowedPhases, "actor 'Carer' must be allowed in at least one phase"),
    (Actor("Carer", frozenset({"EHR"}), frozenset({DGO_DG, DRO_DG})), InvalidPhaseForOrganization, DRO_DG_MESSAGE),
    (Actor("Carer", frozenset({"EHR"}), frozenset({DGO_DG})), AliasCollision,
     "alias 'EHR' collides with an existing name"),
    (Actor("Carer", frozenset({"Clinician"}), frozenset({DGO_DG})), AliasCollision,
     "alias 'Clinician' collides with an existing name"),
    (Actor("Carer", frozenset({"Carer"}), frozenset({DGO_DG})), AliasCollision,
     "alias 'Carer' collides with an existing name"),
    # an alias is an identifier, as a name is, or no line could spell it
    (Actor("Carer", frozenset({"carer"}), frozenset({DGO_DG})), InvalidActorName,
     "alias 'carer' must start uppercase and contain only alphanumerics"),
    (Actor("Carer", frozenset({"Care-giver"}), frozenset({DGO_DG})), InvalidActorName,
     "alias 'Care-giver' must start uppercase and contain only alphanumerics"),
    # aliases are taken in sorted order, each checked before its collision
    (Actor("Carer", frozenset({"carer", "EHR"}), frozenset({DGO_DG})), AliasCollision,
     "alias 'EHR' collides with an existing name"),
])
def test_the_constructor_rejects_an_invalid_actor(actor, error, message):
    with pytest.raises(error) as exc:
        ActorRegistry((*_BUILTIN_ACTORS, actor))
    assert str(exc.value) == message
    with pytest.raises(error) as exc:
        builtin_registry().with_actor(actor.canonical_name, actor.aliases, actor.allowed_phases)
    assert str(exc.value) == message


def test_each_actor_is_checked_against_the_actors_before_it():
    named = Actor("Aide", frozenset(), frozenset({DGO_DG}))
    aliased = Actor("Carer", frozenset({"Aide"}), frozenset({DGO_DG}))
    with pytest.raises(DuplicateActor):
        ActorRegistry((aliased, named))
    with pytest.raises(AliasCollision):
        ActorRegistry((named, aliased))


def test_names_and_aliases_share_one_table():
    registry = builtin_registry().with_actor("Carer", {"Aide"}, {DGO_DG})
    assert "Aide" in registry and "EHR" in registry and "Nobody" not in registry
    assert registry.resolve("Aide") is registry.resolve("Carer", allow_aliases=False)
    assert registry.resolve("EHR").canonical_name == "EHRSystem"
    for alias in ("Aide", "EHR"):
        with pytest.raises(UnknownActor, match=re.escape(f"unknown actor: {alias!r}")):
            registry.resolve(alias, allow_aliases=False)
    assert [str(l) for l in enumerate_loci(registry) if l.actor == "Carer"] == ["DGO-DG-Carer"]
    assert validate_locus(Organization.DGO, Phase.DG, "Aide", registry) is validate_locus(
        Organization.DGO, Phase.DG, "Carer", registry, allow_aliases=False
    )


@pytest.mark.parametrize("actors, error, message", [
    ([{"name": "Carer", "allowed_phases": ["DGO"]}], SchemaViolation,
     "registry config.actors[0].allowed_phases[0] must be 'ORG-PHASE', got 'DGO'"),
    ([{"name": "Carer", "allowed_phases": ["DGO-XX"]}], SchemaViolation,
     "registry config.actors[0].allowed_phases[0] must be 'ORG-PHASE', got 'DGO-XX'"),
    ([{"name": "Carer", "allowed_phases": ["DRO-DG"]}], InvalidPhaseForOrganization, DRO_DG_MESSAGE),
    # the first entry the registry rejects is the one reported
    ([{"name": "Carer", "allowed_phases": ["DGO-DG"]}, {"name": "nurse", "allowed_phases": ["DGO-DG"]},
      {"name": "Carer", "allowed_phases": ["DGO-DG"]}], InvalidActorName,
     "actor name 'nurse' must start uppercase and contain only alphanumerics"),
    ([{"name": "Carer", "aliases": ["Aide"], "allowed_phases": ["DGO-DG"]},
      {"name": "Aide", "allowed_phases": ["DGO-DG"]}], DuplicateActor, "actor 'Aide' is already registered"),
    ([{"name": "Carer", "aliases": ["Aide", "carer"], "allowed_phases": ["DGO-DG"]}], InvalidActorName,
     "alias 'carer' must start uppercase and contain only alphanumerics"),
])
def test_load_registry_config_reports_the_first_bad_entry(actors, error, message):
    with pytest.raises(error) as exc:
        load_registry_config(json.dumps({"actors": actors}))
    assert str(exc.value) == message

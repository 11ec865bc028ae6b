"""Checks a pass's result bytes against the generator's truth.

An extract workload's operation is one check: it fails when it comes back
Errored where Ok was expected, when its numerator, denominator, violation
count, rate, strata or expected details disagree with the truth, or when
its strata do not sum to its totals. The whole outcomes document must also
round-trip byte for byte through ``outcomes_from_json``; if it does not,
every check fails.

An assertion workload's operation is one non-comment line: it fails when
an invalid line is accepted, a valid one rejected, or an accepted line
does not serialize to its canonical form. A sample of the canonical lines
must also satisfy ``serialize_assertion(parse_assertion(line)) == line``
under strict parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from dqlocus import assess, notation
from dqlocus.errors import DqError

#: Every STRICT_STRIDE-th canonical line gets the strict round-trip check.
STRICT_STRIDE = 20


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def _key(kind: str, targets, subset, stage) -> tuple:
    return (kind, tuple(targets), subset, stage)


def _check_outcome(doc: dict, exp: dict) -> str | None:
    """First disagreement between one outcome document and its truth."""
    if doc["status"] != exp["status"]:
        return f"status {doc['status']} ({doc.get('error')}), expected {exp['status']}"
    for name in ("numerator", "denominator"):
        if doc[name] != exp[name]:
            return f"{name} {doc[name]}, expected {exp[name]}"
    if len(doc["violations"]) != exp["violations"]:
        return f"{len(doc['violations'])} violations, expected {exp['violations']}"
    rate = str(Fraction(exp["numerator"], exp["denominator"])) if exp["denominator"] else None
    if doc["rate"] != rate:
        return f"rate {doc['rate']}, expected {rate}"
    for name, value in exp.get("details", {}).items():
        if doc["details"].get(name) != value:
            return f"details[{name!r}] {doc['details'].get(name)!r}, expected {value!r}"
    strata, exp_strata = doc["strata"], exp["strata"]
    if (strata is None) != (exp_strata is None):
        return f"strata {'missing' if strata is None else 'unexpected'}"
    if strata is None:
        return None
    if sum(s["numerator"] for s in strata.values()) != doc["numerator"] or \
            sum(s["denominator"] for s in strata.values()) != doc["denominator"]:
        return "strata do not sum to the totals"
    flags = exp["kind"] == "DegeneracyByActor"
    got = {sid: [s["numerator"], s["denominator"]] + ([s["flags"]] if flags else [])
           for sid, s in strata.items()}
    if list(strata) != list(exp_strata) or got != exp_strata:
        diff = sorted(sid for sid in set(strata) | set(exp_strata)
                      if got.get(sid) != exp_strata.get(sid))
        return f"strata differ at {diff[:5]}"
    return None


def check_outcomes(result: bytes, truth: dict) -> Report:
    report = Report()
    text = result.decode()
    doc = json.loads(text)
    outcomes = doc["outcomes"]
    expected = {_key(e["kind"], e["target_fields"], e["subset"], e["stage"]): e
                for e in truth["checks"]}
    round_trip = assess.outcomes_to_json(assess.outcomes_from_json(text)) == text

    report.counts = {
        "checks": len(outcomes),
        "checks_errored": sum(o["status"] == "Errored" for o in outcomes),
        "violations": sum(len(o["violations"]) for o in outcomes),
    }
    for o in outcomes:
        report.attempted += 1
        exp = expected.pop(_key(o["kind"], o["target_fields"], o["subset"], o["stage"]), None)
        if exp is None:
            report.fail(f"{o['check_id']}: not an expected check")
        elif not round_trip:
            report.fail(f"{o['check_id']}: outcomes JSON does not round-trip")
        else:
            problem = _check_outcome(o, exp)
            if problem:
                report.fail(f"{o['check_id']}: {problem}")
    for key in expected:
        report.attempted += 1
        report.fail(f"{key}: expected check has no outcome")
    return report


def check_assertions(result: bytes, source: bytes, truth: dict) -> Report:
    report = Report()
    lines = source.decode().split("\n")
    produced: dict[int, str] = {}
    for row in result.decode().splitlines():
        n, _, text = row.partition("\t")
        produced[int(n)] = text
    codes, canonical = truth["codes"], truth["canonical"]
    rejected = sum(text.startswith("!") for text in produced.values())
    report.counts = {"lines": len(codes), "accepted": len(produced) - rejected, "issues": rejected}
    strict_seen = 0
    for k, code in enumerate(codes):
        n, line = k + 1, lines[k]
        got = produced.pop(n, None)
        if code == "c":
            if got is not None:
                report.attempted += 1
                report.fail(f"line {n}: comment produced {got!r}")
            continue
        report.attempted += 1
        ok = got is not None and not got.startswith("!")
        if code == "x":
            if got is None or ok:
                report.fail(f"line {n}: invalid line not rejected: {got!r}")
            continue
        want = canonical[str(n)] if code == "n" else line
        if got != want:
            report.fail(f"line {n}: {got!r}, expected {want!r}")
        elif code == "v":
            strict_seen += 1
            if strict_seen % STRICT_STRIDE == 1:
                try:
                    same = notation.serialize_assertion(notation.parse_assertion(line)) == line
                except DqError as e:
                    same = False
                    line = f"{line} ({type(e).__name__})"
                if not same:
                    report.fail(f"line {n}: strict parse/serialize is not the identity: {line!r}")
    for n in produced:
        report.attempted += 1
        report.fail(f"line {n}: result for a line past the end of the file")
    return report
